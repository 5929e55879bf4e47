"""Unit tests for the tokenizer."""

import hashlib
import pathlib
import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import LexError
from repro.cfront.lexer import Token, TokenKind, tokenize

EXAMPLES = pathlib.Path(__file__).parents[2] / "examples"


def kinds(source):
    return [t.kind for t in tokenize(source)[:-1]]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


class TestBasics:
    def test_empty_input_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_identifier(self):
        (tok,) = tokenize("hello")[:-1]
        assert tok.kind is TokenKind.IDENT
        assert tok.text == "hello"

    def test_identifier_with_underscore_and_digits(self):
        (tok,) = tokenize("_my_var2")[:-1]
        assert tok.kind is TokenKind.IDENT

    def test_keywords_are_not_identifiers(self):
        for kw in ("int", "while", "private", "dynamic", "SCAST",
                   "locked", "racy", "readonly", "struct"):
            (tok,) = tokenize(kw)[:-1]
            assert tok.kind is TokenKind.KEYWORD, kw

    def test_sharc_qualifiers_are_keywords(self):
        assert kinds("private readonly racy dynamic locked") == \
            [TokenKind.KEYWORD] * 5

    def test_locations_track_lines_and_columns(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].loc.line == 1 and tokens[0].loc.col == 1
        assert tokens[1].loc.line == 2 and tokens[1].loc.col == 3


class TestNumbers:
    def test_decimal_int(self):
        (tok,) = tokenize("42")[:-1]
        assert tok.kind is TokenKind.INT and tok.value == 42

    def test_hex_int(self):
        (tok,) = tokenize("0x1F")[:-1]
        assert tok.value == 31

    def test_float(self):
        (tok,) = tokenize("3.25")[:-1]
        assert tok.kind is TokenKind.FLOAT and tok.value == 3.25

    def test_float_with_exponent(self):
        (tok,) = tokenize("1e3")[:-1]
        assert tok.kind is TokenKind.FLOAT and tok.value == 1000.0

    def test_float_negative_exponent(self):
        (tok,) = tokenize("2.5e-2")[:-1]
        assert tok.value == 0.025

    def test_integer_suffixes_ignored(self):
        (tok,) = tokenize("10UL")[:-1]
        assert tok.kind is TokenKind.INT and tok.value == 10

    def test_member_access_is_not_float(self):
        # "x.y" must not lex the dot into a number.
        assert texts("x.y") == ["x", ".", "y"]
        assert kinds("s.x") == [TokenKind.IDENT, TokenKind.PUNCT,
                                TokenKind.IDENT]

    def test_exponent_needs_digits(self):
        assert [(t.kind, t.text) for t in tokenize("1e")[:-1]] == \
            [(TokenKind.INT, "1"), (TokenKind.IDENT, "e")]
        assert texts("1e+") == ["1", "e", "+"]

    def test_suffixes_stay_out_of_the_text(self):
        (tok,) = tokenize("1.5f")[:-1]
        assert tok.kind is TokenKind.FLOAT and tok.text == "1.5"
        # hex literals take no suffix
        assert texts("0x10UL") == ["0x10", "UL"]

    def test_hex_prefix_without_digits_raises(self):
        with pytest.raises(LexError) as info:
            tokenize("int g = 0x;", "g.c")
        assert str(info.value) == "g.c:1:9: hex literal '0x' has no digits"

    @given(st.integers(min_value=0, max_value=2**62))
    def test_any_decimal_roundtrips(self, n):
        (tok,) = tokenize(str(n))[:-1]
        assert tok.value == n


class TestStringsAndChars:
    def test_simple_string(self):
        (tok,) = tokenize('"hello"')[:-1]
        assert tok.kind is TokenKind.STRING and tok.value == "hello"

    def test_string_escapes(self):
        (tok,) = tokenize(r'"a\n\t\\\"b\0"')[:-1]
        assert tok.value == 'a\n\t\\"b\0'

    def test_hex_escape(self):
        (tok,) = tokenize(r'"\x41"')[:-1]
        assert tok.value == "A"

    def test_hex_escape_takes_every_hex_digit(self):
        (tok,) = tokenize(r'"\x4a\x41z"')[:-1]
        assert tok.value == "JAz"
        (tok,) = tokenize(r"'\x41'")[:-1]
        assert tok.kind is TokenKind.CHAR and tok.value == 0x41

    @pytest.mark.parametrize("source, message", [
        (r'"a\x"', "empty hex escape"),
        (r'"\q"', "unknown escape \\q"),
        (r"'\x'", "empty hex escape"),
        ('"\\q', "unknown escape \\q"),  # escape error before EOF
        ("'ab'", "unterminated character literal"),
    ])
    def test_malformed_literal_reports_first_fault(self, source, message):
        with pytest.raises(LexError) as info:
            tokenize("x " + source, "f.c")
        assert str(info.value) == f"f.c:1:3: {message}"

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_char_literal(self):
        (tok,) = tokenize("'a'")[:-1]
        assert tok.kind is TokenKind.CHAR and tok.value == ord("a")

    def test_char_escape(self):
        (tok,) = tokenize(r"'\n'")[:-1]
        assert tok.value == ord("\n")

    def test_unterminated_char_raises(self):
        with pytest.raises(LexError):
            tokenize("'ab")


class TestPunctuation:
    def test_longest_match_wins(self):
        assert texts("a <<= b") == ["a", "<<=", "b"]
        assert texts("a->b") == ["a", "->", "b"]
        assert texts("a--b") == ["a", "--", "b"]

    def test_all_compound_operators(self):
        ops = ["->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=",
               "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
               "^=", "<<=", ">>=", "..."]
        for op in ops:
            (tok,) = tokenize(op)[:-1]
            assert tok.text == op, op

    def test_unknown_character_raises(self):
        with pytest.raises(LexError):
            tokenize("a @ b")


class TestTrivia:
    def test_line_comment(self):
        assert texts("a // comment\nb") == ["a", "b"]

    def test_block_comment(self):
        assert texts("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")

    def test_include_is_skipped(self):
        assert texts('#include <stdio.h>\nint') == ["int"]

    def test_define_expands_integers(self):
        tokens = tokenize("#define N 8\nN")
        assert tokens[0].kind is TokenKind.INT
        assert tokens[0].value == 8

    def test_define_hex(self):
        tokens = tokenize("#define MASK 0xFF\nMASK")
        assert tokens[0].value == 255

    def test_non_integer_define_raises(self):
        with pytest.raises(LexError):
            tokenize("#define F foo\nF")

    def test_unknown_directive_raises(self):
        with pytest.raises(LexError):
            tokenize("#ifdef X\n")

    def test_block_comment_across_lines_shifts_locations(self):
        tokens = tokenize("a /* one\ntwo\n  three */ b c")
        assert [(t.text, t.loc.line, t.loc.col) for t in tokens] == [
            ("a", 1, 1), ("b", 3, 12), ("c", 3, 14), ("", 3, 15)]

    def test_define_use_keeps_use_site_location(self):
        tokens = tokenize("#define N 8\nint a[N];", "d.c")
        (n,) = [t for t in tokens if t.kind is TokenKind.INT]
        assert (n.text, n.value, str(n.loc)) == ("8", 8, "d.c:2:7")

    def test_hash_outside_column_one_raises(self):
        with pytest.raises(LexError) as info:
            tokenize("int x; #define N 1\n", "h.c")
        assert str(info.value) == "h.c:1:8: unexpected character '#'"
        assert texts("  x\n#define N 1\nN") == ["x", "1"]


def _shipped_programs():
    """Every program the repository ships, in a fixed order."""
    from repro.bench.workloads import all_workloads
    from repro.cfront.parser import PRELUDE
    from repro.fuzz.gen import generate_scenario, sample_specs

    for path in sorted(EXAMPLES.glob("*.c")):
        yield path.read_text(encoding="utf-8")
    for workload in all_workloads():
        yield workload.annotated_source
        yield workload.unannotated_source
    for spec in sample_specs(random.Random(0), 26):
        yield generate_scenario(spec).source
    yield PRELUDE


def test_token_stream_of_shipped_programs_is_pinned():
    """Kind, text, line, column and value of every token of every
    shipped program, digested; the pin was computed with the original
    character-loop lexer."""
    digest = hashlib.sha256()
    count = 0
    for source in _shipped_programs():
        for t in tokenize(source, "x.c"):
            digest.update(repr((t.kind.name, t.text, t.loc.line,
                                t.loc.col, t.value)).encode())
            count += 1
    assert count == 25314
    assert digest.hexdigest() == (
        "ac624edb8287d49a497e503ee43954d902fb7c991a823590c4b84abdb06c3ac0")


@given(st.lists(
    st.sampled_from(["x", "42", "+", "while", "private", '"s"',
                     "->", "3.5", "(", ")", "{", "}"]),
    min_size=0, max_size=30))
def test_token_stream_roundtrip(parts):
    """Lexing the space-joined rendering of tokens reproduces them."""
    source = " ".join(parts)
    tokens = tokenize(source)
    rendered = " ".join(
        f'"{t.text}"' if t.kind is TokenKind.STRING else t.text
        for t in tokens[:-1])
    again = tokenize(rendered)
    assert [(t.kind, t.text) for t in again] == \
        [(t.kind, t.text) for t in tokens]
