"""Tests for mutexes, condvars, and the held-lock log (Section 4.2.2)."""

import pytest

from repro.errors import InterpError
from repro.runtime.locks import LockTable


@pytest.fixture
def locks():
    return LockTable()


class TestMutex:
    def test_acquire_free_lock(self, locks):
        assert locks.try_acquire(0x100, 1)
        assert locks.mutex(0x100).owner == 1

    def test_contended_acquire_fails(self, locks):
        locks.try_acquire(0x100, 1)
        assert not locks.try_acquire(0x100, 2)

    def test_release_then_acquire(self, locks):
        locks.try_acquire(0x100, 1)
        locks.release(0x100, 1)
        assert locks.try_acquire(0x100, 2)

    def test_recursive_acquire_is_error(self, locks):
        locks.try_acquire(0x100, 1)
        with pytest.raises(InterpError, match="re-acquires"):
            locks.try_acquire(0x100, 1)

    def test_foreign_release_is_error(self, locks):
        locks.try_acquire(0x100, 1)
        with pytest.raises(InterpError, match="owned by"):
            locks.release(0x100, 2)

    def test_release_unheld_is_error(self, locks):
        with pytest.raises(InterpError):
            locks.release(0x100, 1)


class TestHeldLog:
    """The paper's mechanism: acquisitions append the lock's address to a
    thread-private log; locked-mode accesses consult it."""

    def test_holds_after_acquire(self, locks):
        locks.try_acquire(0x100, 1)
        assert locks.holds(1, 0x100)
        assert not locks.holds(2, 0x100)

    def test_not_held_after_release(self, locks):
        locks.try_acquire(0x100, 1)
        locks.release(0x100, 1)
        assert not locks.holds(1, 0x100)

    def test_multiple_locks_tracked(self, locks):
        locks.try_acquire(0x100, 1)
        locks.try_acquire(0x200, 1)
        assert locks.held_by(1) == {0x100, 0x200}

    def test_thread_exit_reports_leaked_locks(self, locks):
        locks.try_acquire(0x100, 1)
        leaked = locks.thread_exit(1)
        assert leaked == {0x100}
        assert not locks.holds(1, 0x100)

    def test_acquisition_counter(self, locks):
        locks.try_acquire(0x100, 1)
        locks.release(0x100, 1)
        locks.try_acquire(0x100, 2)
        assert locks.acquisitions == 2


class TestCondVar:
    def test_condvar_created_on_demand(self, locks):
        cv = locks.condvar(0x300)
        assert cv.addr == 0x300
        assert locks.condvar(0x300) is cv


class TestWakeNotifications:
    """Every change that can unblock a waiter calls the table's notify
    callback — the scheduler re-polls blocked threads only then."""

    @pytest.fixture
    def table(self):
        calls = []
        return LockTable(lambda: calls.append(1)), calls

    def test_mutex_release_notifies(self, table):
        locks, calls = table
        locks.try_acquire(0x100, 1)
        assert calls == []
        locks.release(0x100, 1)
        assert len(calls) == 1

    def test_rwlock_unlock_notifies_both_sides(self, table):
        locks, calls = table
        locks.try_wrlock(0x200, 1)
        locks.rw_unlock(0x200, 1)
        locks.try_rdlock(0x200, 2)
        locks.rw_unlock(0x200, 2)
        assert len(calls) == 2

    def test_thread_exit_notifies_only_for_read_holds(self, table):
        locks, calls = table
        locks.try_acquire(0x100, 1)
        locks.thread_exit(1)  # a leaked mutex stays owned: no wake
        assert calls == []
        locks.try_rdlock(0x200, 2)
        locks.thread_exit(2)
        assert len(calls) == 1

    def test_barrier_trip_notifies(self):
        from repro.runtime.locks import BarrierTable

        calls = []
        barrier = BarrierTable(lambda: calls.append(1)).barrier(0x300)
        barrier.parties = 2
        barrier.arrive(1)
        assert calls == []
        barrier.arrive(2)
        assert len(calls) == 1
