"""Implementations of the built-in library (the dynamic side of
:mod:`repro.sharc.libc`).

Each implementation takes ``(rt, thread, node, args)`` — the interpreter,
the calling thread, the ``Call`` AST node (carrying the statically attached
summary :class:`~repro.sharc.typecheck.AccessInfo` for dynamic arguments),
and the evaluated argument values.  An implementation either returns a
value directly or returns a *generator*, which the interpreter drives;
generators yield step costs (ints) or ``("block", predicate, note)`` to
suspend the thread.

Summarized arguments of library calls update the reader/writer sets over
the actual byte range touched (Section 4.4) via ``rt.summary_access``.
"""

from __future__ import annotations

from repro.errors import InterpError

# Registered at the bottom: name -> callable.
IMPLS = {}


def _impl(name):
    def deco(fn):
        IMPLS[name] = fn
        return fn
    return deco


# -- memory ------------------------------------------------------------------


@_impl("malloc")
def bi_malloc(rt, thread, node, args):
    size = int(args[0])
    return rt.space.alloc(size, "heap")


@_impl("calloc")
def bi_calloc(rt, thread, node, args):
    size = int(args[0]) * int(args[1])
    addr = rt.space.alloc(size, "heap")
    rt.space.set_range(addr, 0, size, node.loc)
    return addr


@_impl("free")
def bi_free(rt, thread, node, args):
    addr = int(args[0])
    if addr == 0:
        return 0
    block = rt.space.free(addr, node.loc)
    # Freed memory is no longer accessed by any thread (Section 4.2.1).
    rt.shadow.clear_range(block.start, block.size)
    if rt.eraser is not None:
        rt.eraser.free_range(block.start, block.size)
    return 0


@_impl("memset")
def bi_memset(rt, thread, node, args):
    addr, value, n = int(args[0]), int(args[1]), int(args[2])
    rt.summary_access(node, 0, addr, n, thread)
    rt.space.set_range(addr, value & 0xFF, n, node.loc)
    return addr


@_impl("memcpy")
@_impl("memmove")
def bi_memcpy(rt, thread, node, args):
    dst, src, n = int(args[0]), int(args[1]), int(args[2])
    rt.summary_access(node, 0, dst, n, thread)
    rt.summary_access(node, 1, src, n, thread)
    rt.space.copy_range(dst, src, n, node.loc)
    return dst


# -- strings --------------------------------------------------------------------


def _cstr(rt, node, addr):
    return rt.space.read_c_string(int(addr), node.loc)


@_impl("strlen")
def bi_strlen(rt, thread, node, args):
    s = _cstr(rt, node, args[0])
    rt.summary_access(node, 0, int(args[0]), len(s) + 1, thread)
    return len(s)


@_impl("strcpy")
def bi_strcpy(rt, thread, node, args):
    dst, src = int(args[0]), int(args[1])
    s = _cstr(rt, node, src)
    rt.summary_access(node, 1, src, len(s) + 1, thread)
    rt.summary_access(node, 0, dst, len(s) + 1, thread)
    rt.space.write_bytes(dst, s.encode("latin-1") + b"\0", node.loc)
    return dst


@_impl("strncpy")
def bi_strncpy(rt, thread, node, args):
    dst, src, n = int(args[0]), int(args[1]), int(args[2])
    s = _cstr(rt, node, src)[:n]
    rt.summary_access(node, 1, src, min(len(s) + 1, n), thread)
    rt.summary_access(node, 0, dst, n, thread)
    data = s.encode("latin-1")
    data = data + b"\0" * (n - len(data))
    rt.space.write_bytes(dst, data[:n], node.loc)
    return dst


@_impl("strcmp")
def bi_strcmp(rt, thread, node, args):
    a, b = _cstr(rt, node, args[0]), _cstr(rt, node, args[1])
    rt.summary_access(node, 0, int(args[0]), len(a) + 1, thread)
    rt.summary_access(node, 1, int(args[1]), len(b) + 1, thread)
    return (a > b) - (a < b)


@_impl("strncmp")
def bi_strncmp(rt, thread, node, args):
    n = int(args[2])
    a, b = _cstr(rt, node, args[0])[:n], _cstr(rt, node, args[1])[:n]
    rt.summary_access(node, 0, int(args[0]), min(len(a) + 1, n), thread)
    rt.summary_access(node, 1, int(args[1]), min(len(b) + 1, n), thread)
    return (a > b) - (a < b)


@_impl("strchr")
def bi_strchr(rt, thread, node, args):
    s = _cstr(rt, node, args[0])
    rt.summary_access(node, 0, int(args[0]), len(s) + 1, thread)
    idx = s.find(chr(int(args[1]) & 0xFF))
    return 0 if idx < 0 else int(args[0]) + idx


@_impl("strstr")
def bi_strstr(rt, thread, node, args):
    hay = _cstr(rt, node, args[0])
    needle = _cstr(rt, node, args[1])
    rt.summary_access(node, 0, int(args[0]), len(hay) + 1, thread)
    rt.summary_access(node, 1, int(args[1]), len(needle) + 1, thread)
    idx = hay.find(needle)
    return 0 if idx < 0 else int(args[0]) + idx


@_impl("strcat")
def bi_strcat(rt, thread, node, args):
    dst, src = int(args[0]), int(args[1])
    d, s = _cstr(rt, node, dst), _cstr(rt, node, src)
    rt.summary_access(node, 0, dst, len(d) + len(s) + 1, thread)
    rt.summary_access(node, 1, src, len(s) + 1, thread)
    rt.space.write_bytes(dst + len(d), s.encode("latin-1") + b"\0",
                         node.loc)
    return dst


@_impl("strdup")
def bi_strdup(rt, thread, node, args):
    s = _cstr(rt, node, args[0])
    rt.summary_access(node, 0, int(args[0]), len(s) + 1, thread)
    return rt.space.alloc_c_string(s, "heap")


@_impl("atoi")
def bi_atoi(rt, thread, node, args):
    s = _cstr(rt, node, args[0]).strip()
    digits = ""
    for i, ch in enumerate(s):
        if ch in "+-" and i == 0 or ch.isdigit():
            digits += ch
        else:
            break
    try:
        return int(digits)
    except ValueError:
        return 0


# -- formatted output ---------------------------------------------------------------


def _format(rt, node, fmt: str, args: list) -> str:
    out = []
    arg_iter = iter(args)
    i = 0
    while i < len(fmt):
        ch = fmt[i]
        if ch != "%":
            out.append(ch)
            i += 1
            continue
        i += 1
        # Skip length/flags ("l", "lu", "zu", "02d", ...).
        while i < len(fmt) and fmt[i] in "0123456789.lzh-+ ":
            i += 1
        if i >= len(fmt):
            break
        conv = fmt[i]
        i += 1
        if conv == "%":
            out.append("%")
        elif conv in "diu":
            out.append(str(int(next(arg_iter, 0))))
        elif conv == "c":
            out.append(chr(int(next(arg_iter, 0)) & 0xFF))
        elif conv in "xX":
            out.append(format(int(next(arg_iter, 0)), conv))
        elif conv == "s":
            out.append(_cstr(rt, node, next(arg_iter, 0)))
        elif conv in "feg":
            out.append(format(float(next(arg_iter, 0.0)), conv))
        elif conv == "p":
            out.append(hex(int(next(arg_iter, 0))))
    return "".join(out)


@_impl("printf")
def bi_printf(rt, thread, node, args):
    fmt = _cstr(rt, node, args[0])
    text = _format(rt, node, fmt, list(args[1:]))
    rt.output.append(text)
    return len(text)


@_impl("snprintf")
def bi_snprintf(rt, thread, node, args):
    buf, n = int(args[0]), int(args[1])
    fmt = _cstr(rt, node, args[2])
    text = _format(rt, node, fmt, list(args[3:]))[:max(0, n - 1)]
    rt.summary_access(node, 0, buf, len(text) + 1, thread)
    rt.space.write_bytes(buf, text.encode("latin-1") + b"\0", node.loc)
    return len(text)


@_impl("puts")
def bi_puts(rt, thread, node, args):
    rt.output.append(_cstr(rt, node, args[0]) + "\n")
    return 0


@_impl("putchar")
def bi_putchar(rt, thread, node, args):
    rt.output.append(chr(int(args[0]) & 0xFF))
    return int(args[0])


# -- threads ---------------------------------------------------------------------


@_impl("thread_create")
def bi_thread_create(rt, thread, node, args):
    fn = args[0]
    if isinstance(fn, tuple) and fn and fn[0] == "fn":
        name = fn[1]
    else:
        raise InterpError("thread_create: first argument is not a "
                          "function", node.loc)
    arg = args[1] if len(args) > 1 else 0
    child = rt.spawn_function(name, [arg])
    return child.tid


@_impl("thread_join")
def bi_thread_join(rt, thread, node, args):
    tid = int(args[0])

    def gen():
        target = rt.sched.threads.get(tid)
        if target is None:
            raise InterpError(f"join of unknown thread {tid}", node.loc)
        from repro.runtime.scheduler import ThreadState
        yield ("block",
               lambda: target.state in (ThreadState.DONE,
                                        ThreadState.FAILED),
               f"join({tid})")
        # The joined thread's accesses no longer overlap with ours.
        return target.result if target.result is not None else 0
    return gen()


@_impl("thread_self")
def bi_thread_self(rt, thread, node, args):
    return thread.tid


@_impl("thread_yield")
def bi_thread_yield(rt, thread, node, args):
    def gen():
        yield ("io", 1)
        return 0
    return gen()


@_impl("thread_exit")
def bi_thread_exit(rt, thread, node, args):
    from repro.runtime.interp import ThreadExit
    raise ThreadExit(args[0] if args else 0)


# -- synchronization --------------------------------------------------------------


def _mutex_lock_gen(rt, thread, node, addr):
    while not rt.locks.try_acquire(addr, thread.tid):
        mutex = rt.locks.mutex(addr)
        yield ("block", lambda m=mutex: m.owner is None,
               f"mutex(0x{addr:x})")
    yield ("io", 1)  # the atomic acquisition
    return 0


@_impl("mutex_init")
def bi_mutex_init(rt, thread, node, args):
    rt.locks.mutex(int(args[0]))
    return 0


@_impl("mutex_lock")
def bi_mutex_lock(rt, thread, node, args):
    return _mutex_lock_gen(rt, thread, node, int(args[0]))


@_impl("mutex_trylock")
def bi_mutex_trylock(rt, thread, node, args):
    return 1 if rt.locks.try_acquire(int(args[0]), thread.tid) else 0


@_impl("mutex_unlock")
def bi_mutex_unlock(rt, thread, node, args):
    rt.locks.release(int(args[0]), thread.tid, node.loc)
    return 0


@_impl("cond_init")
def bi_cond_init(rt, thread, node, args):
    rt.locks.condvar(int(args[0]))
    return 0


@_impl("cond_wait")
def bi_cond_wait(rt, thread, node, args):
    c, m = int(args[0]), int(args[1])

    def gen():
        cv = rt.locks.condvar(c)
        rt.locks.release(m, thread.tid, node.loc)
        cv.waiters.append((thread.tid, m))
        yield ("block", lambda: thread.tid in cv.woken,
               f"cond(0x{c:x})")
        cv.woken.discard(thread.tid)
        result = yield from _mutex_lock_gen(rt, thread, node, m)
        return result
    return gen()


def _signal(rt, addr: int, count: int) -> None:
    cv = rt.locks.condvar(addr)
    for _ in range(count):
        if not cv.waiters:
            break
        tid, _mutex = cv.waiters.pop(0)
        cv.woken.add(tid)
        rt.sched.notify()


@_impl("cond_signal")
def bi_cond_signal(rt, thread, node, args):
    _signal(rt, int(args[0]), 1)
    return 0


@_impl("cond_broadcast")
def bi_cond_broadcast(rt, thread, node, args):
    _signal(rt, int(args[0]), 1 << 30)
    return 0


# -- the simulated world -------------------------------------------------------------


@_impl("world_nitems")
def bi_world_nitems(rt, thread, node, args):
    return rt.world.nitems()


@_impl("world_item_size")
def bi_world_item_size(rt, thread, node, args):
    return rt.world.item_size(int(args[0]))


@_impl("world_read")
def bi_world_read(rt, thread, node, args):
    idx, buf, off, n = (int(args[0]), int(args[1]), int(args[2]),
                        int(args[3]))

    def gen():
        if rt.world.read_latency:
            yield ("io", rt.world.read_latency)
        data = rt.world.read(idx, off, n)
        rt.summary_access(node, 1, buf, max(len(data), 1), thread)
        rt.space.write_bytes(buf, data, node.loc)
        return len(data)
    return gen()


@_impl("world_write")
def bi_world_write(rt, thread, node, args):
    idx, buf, n = int(args[0]), int(args[1]), int(args[2])

    def gen():
        if rt.world.write_latency:
            yield ("io", rt.world.write_latency)
        rt.summary_access(node, 1, buf, max(n, 1), thread)
        data = rt.space.read_bytes(buf, n, node.loc)
        return rt.world.write(idx, data)
    return gen()


@_impl("world_name")
def bi_world_name(rt, thread, node, args):
    idx, buf, n = int(args[0]), int(args[1]), int(args[2])
    name = rt.world.item_name(idx)[:max(0, n - 1)]
    rt.summary_access(node, 1, buf, len(name) + 1, thread)
    rt.space.write_bytes(buf, name.encode("latin-1") + b"\0", node.loc)
    return len(name)


@_impl("world_recv")
def bi_world_recv(rt, thread, node, args):
    chan, buf, n = int(args[0]), int(args[1]), int(args[2])

    def gen():
        if rt.world.read_latency:
            yield ("io", rt.world.read_latency)
        data = rt.world.recv(chan, n)
        if data:
            rt.summary_access(node, 1, buf, len(data), thread)
            rt.space.write_bytes(buf, data, node.loc)
        return len(data)
    return gen()


@_impl("world_send")
def bi_world_send(rt, thread, node, args):
    chan, buf, n = int(args[0]), int(args[1]), int(args[2])

    def gen():
        if rt.world.write_latency:
            yield ("io", rt.world.write_latency)
        rt.summary_access(node, 1, buf, max(n, 1), thread)
        data = rt.space.read_bytes(buf, n, node.loc)
        return rt.world.send(chan, data)
    return gen()


# -- misc -------------------------------------------------------------------------


@_impl("rand")
def bi_rand(rt, thread, node, args):
    return rt.rng.randrange(0, 1 << 31)


@_impl("srand")
def bi_srand(rt, thread, node, args):
    rt.rng.seed(int(args[0]))
    return 0


@_impl("abort")
def bi_abort(rt, thread, node, args):
    raise InterpError("abort() called", node.loc)


@_impl("exit")
def bi_exit(rt, thread, node, args):
    from repro.runtime.interp import ProgramExit
    raise ProgramExit(int(args[0]))


@_impl("sc_assert")
def bi_sc_assert(rt, thread, node, args):
    if not args[0]:
        raise InterpError("sc_assert failed", node.loc)
    return 0


# Aliases used by the paper's example code.
for _alias, _target in (
    ("mutexLock", "mutex_lock"), ("mutexUnlock", "mutex_unlock"),
    ("condWait", "cond_wait"), ("condSignal", "cond_signal"),
    ("condBroadcast", "cond_broadcast"),
    ("pthread_mutex_lock", "mutex_lock"),
    ("pthread_mutex_unlock", "mutex_unlock"),
    ("pthread_cond_wait", "cond_wait"),
    ("pthread_cond_signal", "cond_signal"),
):
    IMPLS[_alias] = IMPLS[_target]


# -- reader-writer locks and barriers (the Section 7 extension) -------------


@_impl("rwlock_init")
def bi_rwlock_init(rt, thread, node, args):
    rt.locks.rwlock(int(args[0]))
    return 0


@_impl("rwlock_rdlock")
def bi_rwlock_rdlock(rt, thread, node, args):
    addr = int(args[0])

    def gen():
        while not rt.locks.try_rdlock(addr, thread.tid):
            rw = rt.locks.rwlock(addr)
            yield ("block", lambda r=rw: r.writer is None,
                   f"rwlock-rd(0x{addr:x})")
        yield ("io", 1)
        return 0
    return gen()


@_impl("rwlock_wrlock")
def bi_rwlock_wrlock(rt, thread, node, args):
    addr = int(args[0])

    def gen():
        while not rt.locks.try_wrlock(addr, thread.tid):
            rw = rt.locks.rwlock(addr)
            yield ("block",
                   lambda r=rw: r.writer is None and not r.readers,
                   f"rwlock-wr(0x{addr:x})")
        yield ("io", 1)
        return 0
    return gen()


@_impl("rwlock_unlock")
def bi_rwlock_unlock(rt, thread, node, args):
    rt.locks.rw_unlock(int(args[0]), thread.tid, node.loc)
    return 0


@_impl("barrier_init")
def bi_barrier_init(rt, thread, node, args):
    barrier = rt.barriers.barrier(int(args[0]))
    barrier.parties = int(args[1])
    return 0


@_impl("barrier_wait")
def bi_barrier_wait(rt, thread, node, args):
    addr = int(args[0])

    def gen():
        barrier = rt.barriers.barrier(addr)
        generation = barrier.arrive(thread.tid)
        yield ("block",
               lambda b=barrier, g=generation: b.generation > g,
               f"barrier(0x{addr:x})")
        return 0
    return gen()
