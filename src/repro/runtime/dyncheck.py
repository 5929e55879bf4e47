"""The ``dynamic`` / ``dynamic_in`` runtime check, written once for both
backends: the n-readers-or-1-writer discipline of Figure 6.

:func:`make_dynamic_check` folds one check site's static facts (its
:class:`~repro.sharc.typecheck.AccessInfo` marks, access size and
direction) into a closure ``check(I, th, addr)``.  The compiled backend
binds that closure into generated code at compile time; the
tree-walker fetches the same closure through :func:`dynamic_check`,
which builds it once per ``(size, is_write)`` and keeps it on the
AccessInfo.  Like the compile artifact, a closure holds only static
facts: every piece of execution state (shadow memory, stats, the
ablation switches) comes in through ``I``.

A check takes the first branch that applies:

1. *solo* — one live thread: a spawn happens-after every access made so
   far, so the check degenerates to a thread-count test;
2. *elided* — a checkelim mark revalidated by ``ShadowMemory.recheck``;
3. *locked* — a lockset refinement whose lock is held, revalidated by
   ``recheck_locked``;
4. *range* or *full* — the shadow walk itself.

The discharge branches replay exactly the fast path the walk would have
taken, so costs, history, traces and reports are byte-identical with
any static tier switched off.  Each branch lands in the per-site
counters (:mod:`repro.obs.sitestats` layout) — pure observation.
"""

from __future__ import annotations

from repro.obs.events import CAT_CHECK
from repro.obs.sitestats import (
    I_CONFLICTS, I_COST, I_ELIDED, I_FULL, I_LOCKED, I_MISS, I_RANGE,
    I_SOLO, new_counter,
)
from repro.sharc.reports import Access, read_conflict, write_conflict


def make_dynamic_check(info, size: int, is_write: bool):
    """The check closure ``check(I, th, addr)`` of one site."""
    elide = info.elide
    refined = info.lockset_refined
    rlock = info.refined_lock
    range_walk = info.range_walk
    lvtext = info.lvalue_text
    loc = info.loc
    skey = info.site_key_w if is_write else info.site_key_r
    op = "chkwrite" if is_write else "chkread"
    make_report = write_conflict if is_write else read_conflict

    def check(I, th, addr):
        stats = I.stats
        stats.accesses_dynamic += 1
        site = stats.sites.get(skey)
        if site is None:
            site = stats.sites[skey] = new_counter()
        tid = th.tid
        if I.sched.live_count <= 1:
            site[I_SOLO] += 1
            site[I_COST] += 1
            I._pending += 1
            stats.steps_total += 1
            stats.steps_checks += 1
            if I.history is not None:
                I.history.record(addr, size, tid, lvtext, loc, is_write,
                                 stats.steps_total)
            return
        shadow = I.shadow
        if elide and I.checkelim \
                and shadow.recheck(addr, size, tid, is_write):
            stats.checks_elided += 1
            site[I_ELIDED] += 1
            discharged = "elided"
        elif refined and I.lockset \
                and I.locks.holds_for_access(
                    tid, I.globals_env.get(rlock, -1), is_write) \
                and shadow.recheck_locked(addr, size, tid, is_write,
                                          lvtext, loc):
            stats.checks_locked_refined += 1
            site[I_LOCKED] += 1
            discharged = "locked"
        else:
            discharged = None
        if discharged is not None:
            site[I_COST] += 1
            if I.history is not None:
                I.history.record(addr, size, tid, lvtext, loc, is_write,
                                 stats.steps_total)
            I._pending += 1
            stats.steps_total += 1
            stats.steps_checks += 1
            if I.bus is not None:
                I.bus.emit(CAT_CHECK, op, tid, dur=1, hit=True,
                           conflict=False, **{discharged: True},
                           lvalue=lvtext)
            return
        if range_walk and I.checkelim:
            chk = shadow.chkwrite_range if is_write else shadow.chkread_range
            stats.checks_range += 1
            site[I_RANGE] += 1
        else:
            chk = shadow.chkwrite if is_write else shadow.chkread
            stats.checks_full += 1
            site[I_FULL] += 1
        conflict, slow = chk(addr, size, tid, lvtext, loc)
        if slow:
            site[I_MISS] += 1
        if conflict is not None:
            site[I_CONFLICTS] += 1
            who = Access(tid, lvtext, loc)
            # Provenance is fetched *before* recording this access, so
            # the hist lines show the accesses leading up to it.
            hist = (I.history.provenance(addr, size)
                    if I.history is not None else ())
            I._report(make_report(addr, who, conflict.as_access(), hist))
        if I.history is not None:
            I.history.record(addr, size, tid, lvtext, loc, is_write,
                             stats.steps_total)
        # Fast path (bits already set): a load + test.  Slow path: a
        # cmpxchg per granule.
        cost = 1 + 3 * slow
        site[I_COST] += cost
        I._pending += cost
        stats.steps_total += cost
        stats.steps_checks += cost
        if I.bus is not None:
            I.bus.emit(CAT_CHECK, op, tid, dur=cost, hit=(slow == 0),
                       conflict=conflict is not None, lvalue=lvtext)
    return check


def dynamic_check(info, size: int, is_write: bool):
    """The site's check closure, built on first use and cached on
    ``info`` per ``(size, is_write)``."""
    key = (size, is_write)
    check = info.checks.get(key)
    if check is None:
        check = info.checks[key] = make_dynamic_check(info, size, is_write)
    return check
