"""Built-in library functions and their trusted summaries (Section 4.4).

The paper stipulates that C library calls require pointer arguments to be
``private``, but also supports *trusted annotations that summarize the
read/write behavior of library calls*: a summarized argument may be passed
in any sharing mode except ``locked``; for a ``dynamic`` actual the summary
tells the runtime how to update the reader/writer sets, and a ``readonly``
actual is accepted when the summary is read-only.

This module is the static side of that mechanism: each builtin declares its
signature and, per pointer parameter, whether the callee reads (``"r"``),
writes (``"w"``), or both (``"rw"``).  The dynamic side (the Python
implementations) lives in :mod:`repro.runtime.builtins` so that the static
checker does not depend on the runtime.

Builtins are *mode-polymorphic per call site*: their parameter types are
instantiated fresh at each call so qualifier inference never unifies two
call sites through a library function (unlike user functions, which get the
``dynamic_in`` treatment of Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cfront.ctypes import QualType


@dataclass(frozen=True)
class Builtin:
    """Static description of one built-in function."""

    name: str
    sig: str  # C-ish signature, parsed lazily
    #: read/write summary: parameter index -> "r" | "w" | "rw".
    #: Pointer parameters *not* listed here must be passed ``private``
    #: (or ``racy`` for the lock-internal arguments).
    summary: dict[int, str] = field(default_factory=dict, hash=False,
                                    compare=False)
    #: Index of a parameter whose pointee is handed to a new thread
    #: (seeds the sharing analysis).
    spawn_arg: Optional[int] = None
    #: Index of a function-pointer parameter spawned as a thread root.
    spawn_fn: Optional[int] = None
    #: True for allocation functions (returns fresh memory; the result's
    #: sharing mode is chosen by the receiving context).
    allocates: bool = False
    #: True if this builtin may block (affects the scheduler, not typing).
    blocking: bool = False
    varargs: bool = False


BUILTINS: dict[str, Builtin] = {}


def _register(b: Builtin) -> Builtin:
    BUILTINS[b.name] = b
    return b


# -- memory ---------------------------------------------------------------

_register(Builtin("malloc", "void *(unsigned long n)", allocates=True))
_register(Builtin("calloc", "void *(unsigned long n, unsigned long size)",
                  allocates=True))
_register(Builtin("free", "void (void *p)", summary={0: "w"}))
_register(Builtin("memset", "void *(void *p, int c, unsigned long n)",
                  summary={0: "w"}))
_register(Builtin("memcpy",
                  "void *(void *dst, void *src, unsigned long n)",
                  summary={0: "w", 1: "r"}))
_register(Builtin("memmove",
                  "void *(void *dst, void *src, unsigned long n)",
                  summary={0: "w", 1: "r"}))

# -- strings --------------------------------------------------------------

_register(Builtin("strlen", "unsigned long (char *s)", summary={0: "r"}))
_register(Builtin("strcpy", "char *(char *dst, char *src)",
                  summary={0: "w", 1: "r"}))
_register(Builtin("strncpy",
                  "char *(char *dst, char *src, unsigned long n)",
                  summary={0: "w", 1: "r"}))
_register(Builtin("strcmp", "int (char *a, char *b)",
                  summary={0: "r", 1: "r"}))
_register(Builtin("strncmp", "int (char *a, char *b, unsigned long n)",
                  summary={0: "r", 1: "r"}))
_register(Builtin("strchr", "char *(char *s, int c)", summary={0: "r"}))
_register(Builtin("strstr", "char *(char *hay, char *needle)",
                  summary={0: "r", 1: "r"}))
_register(Builtin("strcat", "char *(char *dst, char *src)",
                  summary={0: "rw", 1: "r"}))
_register(Builtin("strdup", "char *(char *s)", summary={0: "r"},
                  allocates=True))
_register(Builtin("atoi", "int (char *s)", summary={0: "r"}))

# -- formatted output (simulated; output is captured by the interpreter) ---

_register(Builtin("printf", "int (char *fmt, ...)", summary={0: "r"},
                  varargs=True))
_register(Builtin("snprintf",
                  "int (char *buf, unsigned long n, char *fmt, ...)",
                  summary={0: "w", 2: "r"}, varargs=True))
_register(Builtin("puts", "int (char *s)", summary={0: "r"}))
_register(Builtin("putchar", "int (int c)"))

# -- threads (pthread-like, names per the paper's example) -----------------

_register(Builtin("thread_create",
                  "int (void *(*fn)(void *), void *arg)",
                  spawn_fn=0, spawn_arg=1))
_register(Builtin("thread_join", "void *(int tid)", blocking=True))
_register(Builtin("thread_self", "int ()"))
_register(Builtin("thread_yield", "void ()"))
_register(Builtin("thread_exit", "void (void *ret)"))

# -- synchronization -------------------------------------------------------
# Lock/condvar internals are racy by nature (Section 4.1); the prelude
# defines mutex/cond as racy structs and these signatures take racy
# pointers, so ordinary mode checking passes them through.

_register(Builtin("mutex_init", "void (mutex racy *m)"))
_register(Builtin("mutex_lock", "void (mutex racy *m)", blocking=True))
_register(Builtin("mutex_trylock", "int (mutex racy *m)"))
_register(Builtin("mutex_unlock", "void (mutex racy *m)"))
_register(Builtin("cond_init", "void (cond racy *c)"))
_register(Builtin("cond_wait", "void (cond racy *c, mutex racy *m)",
                  blocking=True))
_register(Builtin("cond_signal", "void (cond racy *c)"))
_register(Builtin("cond_broadcast", "void (cond racy *c)"))

# Reader-writer locks and barriers: the paper's Section 7 "more support
# for locks" future work, implemented as an extension.
_register(Builtin("rwlock_init", "void (rwlock racy *l)"))
_register(Builtin("rwlock_rdlock", "void (rwlock racy *l)",
                  blocking=True))
_register(Builtin("rwlock_wrlock", "void (rwlock racy *l)",
                  blocking=True))
_register(Builtin("rwlock_unlock", "void (rwlock racy *l)"))
_register(Builtin("barrier_init", "void (barrier racy *b, int parties)"))
_register(Builtin("barrier_wait", "void (barrier racy *b)",
                  blocking=True))

# Aliases used by the paper's Figure 1.
for alias, target in (
    ("mutexLock", "mutex_lock"), ("mutexUnlock", "mutex_unlock"),
    ("condWait", "cond_wait"), ("condSignal", "cond_signal"),
    ("condBroadcast", "cond_broadcast"),
    ("pthread_mutex_lock", "mutex_lock"),
    ("pthread_mutex_unlock", "mutex_unlock"),
    ("pthread_cond_wait", "cond_wait"),
    ("pthread_cond_signal", "cond_signal"),
):
    original = BUILTINS[target]
    _register(Builtin(alias, original.sig, original.summary,
                      original.spawn_arg, original.spawn_fn,
                      original.allocates, original.blocking,
                      original.varargs))

# -- simulated external world ----------------------------------------------
# The benchmarks in Table 1 interact with files, the network, and the
# screen.  We model those through a small set of "world" builtins whose
# behaviour each workload configures (repro.runtime.world).  Their sharing
# summaries mirror read(2)/write(2)-style contracts.

_register(Builtin("world_nitems", "int ()"))
_register(Builtin("world_item_size", "unsigned long (int idx)"))
_register(Builtin("world_read",
                  "long (int idx, char *buf, unsigned long off, "
                  "unsigned long n)",
                  summary={1: "w"}, blocking=True))
_register(Builtin("world_write",
                  "long (int idx, char *buf, unsigned long n)",
                  summary={1: "r"}, blocking=True))
_register(Builtin("world_name", "long (int idx, char *buf, "
                                "unsigned long n)",
                  summary={1: "w"}))
_register(Builtin("world_recv", "long (int chan, char *buf, "
                                "unsigned long n)",
                  summary={1: "w"}, blocking=True))
_register(Builtin("world_send", "long (int chan, char *buf, "
                                "unsigned long n)",
                  summary={1: "r"}, blocking=True))

# -- misc -------------------------------------------------------------------

_register(Builtin("rand", "int ()"))
_register(Builtin("srand", "void (unsigned int seed)"))
_register(Builtin("abort", "void ()"))
_register(Builtin("exit", "void (int code)"))
_register(Builtin("sc_assert", "void (int cond)"))


_SIG_CACHE: dict[str, QualType] = {}


def builtin_type(name: str) -> QualType:
    """Returns a *fresh* :class:`QualType` (FuncType) for builtin ``name``.

    Fresh per call so inference never links distinct call sites through a
    library signature.
    """
    b = BUILTINS[name]
    if name not in _SIG_CACHE:
        from repro.cfront.parser import Parser, prelude_tables, tokenize
        typedefs, structs = prelude_tables()
        parser = Parser(tokenize(f"{b.sig.split('(')[0]} __b({b.sig.split('(', 1)[1]};",
                                 f"<builtin:{name}>"),
                        f"<builtin:{name}>",
                        typedefs=typedefs, structs=structs)
        base = parser.parse_base_type()
        _, qtype = parser.parse_declarator(base)
        _SIG_CACHE[name] = qtype
    return _SIG_CACHE[name].clone()


def is_builtin(name: str) -> bool:
    return name in BUILTINS
