"""Tests for the deterministic thread scheduler."""

import pytest

from repro.runtime.scheduler import (
    DeadlockError, Scheduler, ThreadState,
)


def counting_gen(n):
    for _ in range(n):
        yield 1


class TestLifecycle:
    def test_spawn_assigns_increasing_tids(self):
        sched = Scheduler()
        a = sched.spawn(counting_gen(1), "a")
        b = sched.spawn(counting_gen(1), "b")
        assert (a.tid, b.tid) == (1, 2)

    def test_finish(self):
        sched = Scheduler()
        t = sched.spawn(counting_gen(1))
        sched.finish(t, 42)
        assert t.state is ThreadState.DONE
        assert t.result == 42
        assert not sched.runnable()

    def test_fail(self):
        sched = Scheduler()
        t = sched.spawn(counting_gen(1))
        sched.fail(t, RuntimeError("boom"))
        assert t.state is ThreadState.FAILED


class TestBlocking:
    def test_blocked_thread_not_runnable(self):
        sched = Scheduler()
        t = sched.spawn(counting_gen(3))
        sched.block(t, lambda: False, "never")
        assert t not in sched.runnable()

    def test_ready_predicate_wakes(self):
        sched = Scheduler()
        t = sched.spawn(counting_gen(3))
        flag = []
        sched.block(t, lambda: bool(flag), "flag")
        assert sched.runnable() == []
        flag.append(1)
        sched.notify()  # the contract: whoever makes ready() true says so
        assert sched.runnable() == [t]
        assert t.state is ThreadState.RUNNABLE

    def test_predicates_polled_only_after_notify(self):
        sched = Scheduler()
        t = sched.spawn(counting_gen(3))
        calls = []
        sched.block(t, lambda: calls.append(1) and False, "count")
        sched.runnable()
        sched.runnable()
        assert len(calls) == 1
        sched.notify()
        sched.runnable()
        assert len(calls) == 2

    def test_new_block_polled_at_next_pick_without_notify(self):
        # A thread whose predicate already holds when it blocks (e.g. a
        # lock released earlier in the same burst) wakes at the very
        # next pick: block() itself requests the poll.
        sched = Scheduler(policy="serial")
        t1 = sched.spawn(counting_gen(3), "t1")
        t2 = sched.spawn(counting_gen(3), "t2")
        assert sched.pick()[0] is t1
        sched.block(t1, lambda: True, "already-free")
        assert sched.pick()[0] is t1
        assert t1.state is ThreadState.RUNNABLE
        assert sched.runnable() == [t1, t2]

    def test_finish_wakes_joiner(self):
        sched = Scheduler()
        joiner = sched.spawn(counting_gen(3), "joiner")
        target = sched.spawn(counting_gen(3), "target")
        sched.block(joiner, lambda: target.state is ThreadState.DONE,
                    "join(2)")
        assert sched.runnable() == [target]
        sched.finish(target, 0)
        assert sched.runnable() == [joiner]

    def test_deadlock_detected(self):
        sched = Scheduler()
        t = sched.spawn(counting_gen(3))
        sched.block(t, lambda: False, "stuck")
        with pytest.raises(DeadlockError, match="stuck"):
            sched.pick()

    def test_all_done_returns_none(self):
        sched = Scheduler()
        t = sched.spawn(counting_gen(1))
        sched.finish(t, None)
        assert sched.pick() == (None, 0)


class TestPolicies:
    def test_random_is_seed_deterministic(self):
        def picks(seed):
            sched = Scheduler(seed=seed)
            threads = [sched.spawn(counting_gen(100), f"t{i}")
                       for i in range(3)]
            return [sched.pick()[0].tid for _ in range(20)]
        assert picks(7) == picks(7)
        assert picks(7) != picks(8)  # overwhelmingly likely

    def test_round_robin_cycles(self):
        sched = Scheduler(policy="round-robin")
        for i in range(3):
            sched.spawn(counting_gen(100), f"t{i}")
        seen = {sched.pick()[0].tid for _ in range(9)}
        assert seen == {1, 2, 3}

    def test_serial_runs_first_runnable(self):
        sched = Scheduler(policy="serial")
        sched.spawn(counting_gen(10), "a")
        sched.spawn(counting_gen(10), "b")
        thread, burst = sched.pick()
        assert thread.tid == 1
        assert burst > 1000

    def test_burst_bounded(self):
        sched = Scheduler(seed=1, max_burst=4)
        sched.spawn(counting_gen(100))
        for _ in range(10):
            _, burst = sched.pick()
            assert 1 <= burst <= 4


class TestRoundRobinRegression:
    """The old round-robin kept an *index* into the runnable list and
    advanced it before use: the very first pick returned
    ``candidates[1]``, and the index drifted whenever the runnable set
    changed size, which could starve a thread indefinitely."""

    def test_first_pick_is_lowest_tid(self):
        # Fails on the old index-based implementation (it picked t2).
        sched = Scheduler(policy="round-robin")
        for i in range(3):
            sched.spawn(counting_gen(100), f"t{i}")
        assert sched.pick()[0].tid == 1

    def test_no_starvation_when_runnable_set_shrinks(self):
        # t1 blocks after every run; under the drifting index this
        # two-then-one membership oscillation let a thread be skipped on
        # every single pick.  Keying on the last-run tid guarantees every
        # runnable thread is scheduled within one full cycle.
        sched = Scheduler(policy="round-robin")
        t1 = sched.spawn(counting_gen(1000), "t1")
        sched.spawn(counting_gen(1000), "t2")
        sched.spawn(counting_gen(1000), "t3")
        ran = []
        woken = []
        for _ in range(12):
            thread, _ = sched.pick()
            ran.append(thread.tid)
            if woken:
                woken.clear()
                sched.notify()  # t1's predicate just turned true
            if thread is t1:
                sched.block(t1, lambda: not woken, "oscillate")
                woken.append(1)
        for tid in (1, 2, 3):
            assert tid in ran, f"t{tid} was starved: {ran}"
        # every consecutive window of 3 picks covers all live threads
        gaps = [ran.index(tid) for tid in (1, 2, 3)]
        assert max(gaps) < 3

    def test_wraps_after_highest_tid(self):
        sched = Scheduler(policy="round-robin")
        for i in range(3):
            sched.spawn(counting_gen(100), f"t{i}")
        tids = [sched.pick()[0].tid for _ in range(6)]
        assert tids == [1, 2, 3, 1, 2, 3]


class TestPCTPolicy:
    def _tids(self, seed, depth=3, horizon=60, picks=12):
        sched = Scheduler(seed=seed, policy=f"pct:{depth}:{horizon}")
        for i in range(3):
            sched.spawn(counting_gen(100), f"t{i}")
        return [sched.pick()[0].tid for _ in range(picks)]

    def test_deterministic_per_seed(self):
        assert self._tids(5) == self._tids(5)

    def test_seed_varies_priority_order(self):
        runs = {tuple(self._tids(seed)) for seed in range(12)}
        assert len(runs) > 1

    def test_runs_highest_priority_thread(self):
        sched = Scheduler(seed=3, policy="pct:0:100")
        threads = [sched.spawn(counting_gen(100), f"t{i}")
                   for i in range(3)]
        pol = sched._policy
        best = max(threads, key=lambda t: pol._priorities[t.tid])
        # With depth 0 there are no change points: the same
        # highest-priority thread wins every pick.
        for _ in range(5):
            assert sched.pick()[0] is best

    def test_change_point_demotes(self):
        sched = Scheduler(seed=3, policy="pct:1:4")
        for i in range(2):
            sched.spawn(counting_gen(100), f"t{i}")
        first, _ = sched.pick()
        # Cross the single change point: the running thread is demoted
        # below everyone, so the *other* thread runs next.
        sched.note_ran(first, 10)
        second, _ = sched.pick()
        assert second is not first

    def test_spec_parsing(self):
        from repro.runtime.scheduler import make_policy

        p = make_policy("pct:4:800")
        assert (p.depth, p.horizon) == (4, 800)
        assert p.name == "pct:4:800"
        assert make_policy("pct:4").horizon == 4000
        with pytest.raises(ValueError):
            make_policy("pct:1:2:3")
        with pytest.raises(ValueError):
            make_policy("pct:x")
        with pytest.raises(ValueError):
            make_policy("no-such-policy")


class TestPreemptionBoundPolicy:
    def _trace(self, seed, bound=2):
        sched = Scheduler(seed=seed, policy=f"pb:{bound}",
                          record_trace=True)
        threads = [sched.spawn(counting_gen(30), f"t{i}")
                   for i in range(3)]
        while True:
            thread, burst = sched.pick()
            if thread is None:
                break
            ran = 0
            for _ in range(burst):
                try:
                    next(thread.gen)
                    ran += 1
                except StopIteration:
                    ran += 1
                    sched.finish(thread, None)
                    break
            sched.note_ran(thread, ran)
        return list(sched.trace)

    def test_zero_bound_is_serial(self):
        # 30 yields + the terminal StopIteration = 31 items per thread.
        trace = self._trace(seed=9, bound=0)
        assert trace == [(1, 31), (2, 31), (3, 31)]

    def test_preemptions_bounded(self):
        for seed in range(20):
            trace = self._trace(seed, bound=2)
            # switches = free switches (thread done) + preemptions;
            # 3 threads finish => 2 free switches, plus <= 2 preempts,
            # and each preemption adds at most one extra return switch.
            assert len(trace) - 1 <= 2 + 2 * 2

    def test_seeds_diversify_schedules(self):
        traces = {tuple(self._trace(seed)) for seed in range(20)}
        assert len(traces) > 3


class TestReplayPolicy:
    def test_replay_follows_trace(self):
        from repro.runtime.scheduler import ReplayPolicy

        sched = Scheduler(policy=ReplayPolicy([(2, 3), (1, 2), (2, 1)]))
        sched.spawn(counting_gen(100), "a")
        sched.spawn(counting_gen(100), "b")
        assert [(t.tid, b) for t, b in
                [sched.pick() for _ in range(3)]] == \
            [(2, 3), (1, 2), (2, 1)]

    def test_exhausted_trace_falls_back_to_serial(self):
        from repro.runtime.scheduler import ReplayPolicy

        sched = Scheduler(policy=ReplayPolicy([]))
        sched.spawn(counting_gen(10), "a")
        sched.spawn(counting_gen(10), "b")
        thread, burst = sched.pick()
        assert thread.tid == 1 and burst > 1000

    def test_skips_unrunnable_entries(self):
        from repro.runtime.scheduler import ReplayPolicy

        sched = Scheduler(policy=ReplayPolicy([(7, 4), (2, 5)]))
        sched.spawn(counting_gen(10), "a")
        sched.spawn(counting_gen(10), "b")
        thread, burst = sched.pick()
        assert (thread.tid, burst) == (2, 5)


class TestTraceRecording:
    def test_adjacent_same_tid_entries_merge(self):
        sched = Scheduler(record_trace=True)
        t1 = sched.spawn(counting_gen(10), "a")
        t2 = sched.spawn(counting_gen(10), "b")
        sched.note_ran(t1, 3)
        sched.note_ran(t1, 2)
        sched.note_ran(t2, 4)
        assert sched.trace == [(1, 5), (2, 4)]
        assert sched.trace_switches() == 1

    def test_disabled_by_default(self):
        sched = Scheduler()
        t1 = sched.spawn(counting_gen(10), "a")
        sched.note_ran(t1, 3)
        assert sched.trace is None
        assert sched.trace_switches() == 0
