"""Tokenizer for the mini-C subset, including SharC's qualifier keywords.

The token set is standard C plus:

- the sharing-mode keywords ``private``, ``readonly``, ``locked``, ``racy``,
  ``dynamic`` (Section 2 of the paper),
- ``SCAST`` for sharing casts,
- ``sreadonly`` — trusted "read summary" marker for library declarations
  (Section 4.4).

Comments (``//`` and ``/* */``) and a tiny preprocessor subset (``#include``
lines are skipped; ``#define NAME value`` of integer literals is expanded)
are handled here so the parser sees a clean token stream.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from repro.errors import LexError, Loc


class TokenKind(enum.Enum):
    """Lexical categories."""

    IDENT = "identifier"
    KEYWORD = "keyword"
    INT = "integer"
    FLOAT = "float"
    CHAR = "char"
    STRING = "string"
    PUNCT = "punctuator"
    EOF = "eof"


KEYWORDS = frozenset({
    # Standard C subset.
    "void", "char", "short", "int", "long", "unsigned", "signed",
    "float", "double", "struct", "union", "typedef", "extern",
    "static", "const", "sizeof", "return", "if", "else", "while",
    "for", "do", "break", "continue", "NULL", "enum", "switch",
    "case", "default", "goto", "volatile",
    # SharC sharing modes (Section 2).
    "private", "readonly", "locked", "racy", "dynamic",
    # SharC sharing cast and library summaries (Sections 2 and 4.4).
    "SCAST", "sreadonly", "swrite",
})

# Longest-match first.
PUNCTUATORS = (
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
)


@dataclass(frozen=True)
class Token:
    """One lexical token with its source location."""

    kind: TokenKind
    text: str
    loc: Loc
    value: int | float | str | None = None

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r}, {self.loc})"

    def is_(self, kind: TokenKind, text: str | None = None) -> bool:
        return self.kind is kind and (text is None or self.text == text)


_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
    "'": "'", '"': '"', "a": "\a", "b": "\b", "f": "\f", "v": "\v",
}

#: One alternative per token class, tried in order at each position.
#: Literal bodies are matched loosely (any escape, an optional closing
#: quote) and checked by their handlers, so a malformed literal reports
#: its first fault, left to right.
_MASTER = re.compile("|".join([
    r"(?P<trivia>(?:[ \t\r\n]+|//[^\n]*|/\*[\s\S]*?\*/)+)",
    r"(?P<open_comment>/\*)",
    r"(?P<directive>\#[^\n]*)",
    r"(?P<hex>0[xX][0-9a-fA-F]*)",
    r"(?P<number>\d+(?P<frac>\.\d+)?(?P<exp>[eE][+-]?\d+)?)[uUlLfF]*",
    r"(?P<ident>[^\W\d]\w*)",
    r'(?P<string>"(?P<sbody>(?:[^"\\\n]|\\[\s\S]?)*)(?P<squote>"?))',
    r"(?P<char>'(?P<cbody>\\(?:x[0-9a-fA-F]*|[\s\S]?)|[^\\])?"
    r"(?P<cquote>'?))",
    "(?P<punct>" + "|".join(map(re.escape, PUNCTUATORS)) + ")",
    r"(?P<other>[\s\S])",
]))

_ESCAPE = re.compile(r"\\(x[0-9a-fA-F]*|[\s\S]?)")


def _unescape(body: str, start: Loc) -> str:
    """Decodes the escapes in a literal's body."""
    if "\\" not in body:
        return body

    def decode(m: re.Match) -> str:
        seq = m.group(1)
        if seq[:1] == "x":
            if len(seq) == 1:
                raise LexError("empty hex escape", start)
            return chr(int(seq[1:], 16))
        if seq in _ESCAPES:
            return _ESCAPES[seq]
        raise LexError(f"unknown escape \\{seq}", start)

    return _ESCAPE.sub(decode, body)


class Lexer:
    """Converts source text into a list of :class:`Token` with one pass
    of the master regex."""

    def __init__(self, source: str, filename: str = "<input>") -> None:
        self.src = source
        self.filename = filename
        self.defines: dict[str, Token] = {}

    def _directive(self, text: str, start: Loc) -> None:
        parts = text.split()
        if len(parts) >= 3 and parts[0] == "#define":
            name, value = parts[1], parts[2]
            try:
                literal = int(value, 0)
            except ValueError:
                raise LexError(
                    f"only integer #define supported, got {value!r}", start)
            self.defines[name] = Token(TokenKind.INT, value, start, literal)
        elif parts and parts[0] not in ("#include", "#define", "#pragma"):
            raise LexError(f"unsupported preprocessor directive {parts[0]}",
                           start)

    def tokens(self) -> list[Token]:
        src, filename, defines = self.src, self.filename, self.defines
        match = _MASTER.match
        result: list[Token] = []
        append = result.append
        pos, end = 0, len(src)
        line, line_start = 1, 0
        while pos < end:
            m = match(src, pos)
            kind = m.lastgroup
            text = m.group()
            if kind == "trivia":
                newlines = text.count("\n")
                if newlines:
                    line += newlines
                    line_start = pos + text.rindex("\n") + 1
                pos = m.end()
                continue
            start = Loc(filename, line, pos - line_start + 1)
            if kind == "ident":
                if text in defines:
                    macro = defines[text]
                    append(Token(macro.kind, macro.text, start, macro.value))
                elif text in KEYWORDS:
                    append(Token(TokenKind.KEYWORD, text, start))
                elif text[0].isalpha() or text[0] == "_":
                    append(Token(TokenKind.IDENT, text, start))
                else:  # a numeric character outside 0-9, such as "½"
                    raise LexError(f"unexpected character {text[0]!r}",
                                   start)
            elif kind == "punct":
                append(Token(TokenKind.PUNCT, text, start))
            elif kind == "number":
                # Integer / float suffixes are accepted and ignored.
                digits = m.group("number")
                if m.group("frac") or m.group("exp"):
                    append(Token(TokenKind.FLOAT, digits, start,
                                 float(digits)))
                else:
                    append(Token(TokenKind.INT, digits, start, int(digits)))
            elif kind == "hex":
                if len(text) == 2:
                    raise LexError(f"hex literal {text!r} has no digits",
                                   start)
                append(Token(TokenKind.INT, text, start, int(text, 16)))
            elif kind == "string":
                value = _unescape(m.group("sbody"), start)
                if not m.group("squote"):
                    raise LexError("unterminated string literal", start)
                append(Token(TokenKind.STRING, value, start, value))
            elif kind == "char":
                char = _unescape(m.group("cbody") or "", start)
                if not char or not m.group("cquote"):
                    raise LexError("unterminated character literal", start)
                append(Token(TokenKind.CHAR, char, start, ord(char)))
                if text[1] == "\n":  # a raw newline between the quotes
                    line += 1
                    line_start = pos + 2
            elif kind == "directive":
                if pos != line_start:
                    raise LexError("unexpected character '#'", start)
                self._directive(text.strip(), start)
            elif kind == "open_comment":
                raise LexError("unterminated block comment", start)
            else:
                raise LexError(f"unexpected character {text!r}", start)
            pos = m.end()
        result.append(Token(TokenKind.EOF, "", Loc(filename, line,
                                                   pos - line_start + 1)))
        return result


def tokenize(source: str, filename: str = "<input>") -> list[Token]:
    """Tokenizes ``source``, returning tokens ending with one EOF token."""
    return Lexer(source, filename).tokens()
