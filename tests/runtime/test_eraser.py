"""Tests for the Eraser-style lockset baseline (Section 6.2)."""

import pytest

from repro.errors import DiagKind, Loc
from repro.runtime.eraser import DETAIL, EraserChecker, LockState
from tests.conftest import check_ok
from repro.runtime.interp import run_checked

LOC = Loc("e.c", 1)


def access(checker, addr, tid, write, held=()):
    return checker.on_access(addr, 4, tid, write, frozenset(held),
                             "x", LOC)


@pytest.fixture
def checker():
    return EraserChecker()


class TestStateMachine:
    def test_first_access_exclusive(self, checker):
        assert access(checker, 0x100, 1, True) == []
        state = checker.granules[0x10]
        assert state.state is LockState.EXCLUSIVE
        assert state.owner == 1

    def test_initialization_unlocked_is_fine(self, checker):
        """The whole point of the EXCLUSIVE state: unlocked init by one
        thread does not report."""
        for _ in range(5):
            assert access(checker, 0x100, 1, True) == []

    def test_second_thread_read_moves_to_shared(self, checker):
        access(checker, 0x100, 1, True)
        assert access(checker, 0x100, 2, False, held=()) == []
        assert checker.granules[0x10].state is LockState.SHARED

    def test_read_sharing_never_reports(self, checker):
        access(checker, 0x100, 1, False)
        for tid in (2, 3, 4):
            assert access(checker, 0x100, tid, False) == []

    def test_consistent_lock_keeps_quiet(self, checker):
        access(checker, 0x100, 1, True, held={0x900})
        assert access(checker, 0x100, 2, True, held={0x900}) == []
        assert access(checker, 0x100, 3, True, held={0x900, 0x901}) == []

    def test_inconsistent_lock_reports(self, checker):
        access(checker, 0x100, 1, True, held={0x900})
        access(checker, 0x100, 2, True, held={0x900})
        reports = access(checker, 0x100, 3, True, held={0x901})
        # the granule's address, this access and the last one before it
        assert reports == [(0x100, (3, "x", LOC), (2, "x", LOC))]

    def test_unlocked_write_after_sharing_reports(self, checker):
        access(checker, 0x100, 1, True)
        reports = access(checker, 0x100, 2, True, held=())
        assert reports

    def test_one_report_per_granule(self, checker):
        access(checker, 0x100, 1, True)
        access(checker, 0x100, 2, True)
        assert access(checker, 0x100, 1, True) == []

    def test_free_resets_state(self, checker):
        access(checker, 0x100, 1, True)
        checker.free_range(0x100, 16)
        assert access(checker, 0x100, 2, True) == []

    def test_ownership_transfer_is_a_false_positive(self, checker):
        """The paper's point: a correct handoff (writer then new owner,
        mediated elsewhere) empties the lockset and reports."""
        access(checker, 0x100, 1, True, held=())     # producer fills
        reports = access(checker, 0x100, 2, True, held=())  # new owner
        assert reports  # Eraser cannot model the transfer


class TestEdgeCases:
    """Corner behavior the differential static-vs-dynamic scoring leans
    on: partial frees, tid reuse after exit, and the exact transition
    point from read-sharing to lockset enforcement."""

    def test_free_range_mid_granule_resets_whole_granule(self, checker):
        """Freeing any byte range resets every granule it overlaps —
        including a range that starts and ends mid-granule."""
        access(checker, 0x100, 1, True)          # granule 0x10
        access(checker, 0x118, 1, True)          # granule 0x11
        access(checker, 0x118, 2, True)          # 0x11 leaves EXCLUSIVE
        checker.free_range(0x108, 4)             # mid-granule slice of 0x10
        assert 0x10 not in checker.granules      # reset outright
        assert checker.granules[0x11].state is LockState.SHARED_MODIFIED
        # the reset granule restarts its state machine: a fresh thread's
        # access is initialization again, not a race
        assert access(checker, 0x100, 3, True) == []
        assert checker.granules[0x10].state is LockState.EXCLUSIVE
        assert checker.granules[0x10].owner == 3

    def test_free_range_spanning_granules_resets_all_of_them(self, checker):
        access(checker, 0x100, 1, True)
        access(checker, 0x118, 1, True)
        checker.free_range(0x10c, 16)            # straddles 0x10 and 0x11
        assert 0x10 not in checker.granules
        assert 0x11 not in checker.granules

    def test_thread_exit_keeps_state_so_tid_reuse_inherits_it(self,
                                                              checker):
        """Eraser has no happens-before for exit: EXCLUSIVE(1) survives
        the owner's death, so a recycled tid 1 still looks like the
        owner and an unlocked write by it stays silent — the documented
        false-negative flavor of the missing exit edge."""
        access(checker, 0x100, 1, True)
        checker.thread_exit(1)
        st = checker.granules[0x10]
        assert st.state is LockState.EXCLUSIVE and st.owner == 1
        assert access(checker, 0x100, 1, True) == []   # reused tid
        assert checker.granules[0x10].state is LockState.EXCLUSIVE

    def test_thread_exit_keeps_state_so_next_thread_still_shares(
            self, checker):
        """...and conversely a *different* thread after the owner's exit
        still leaves initialization, even though the two never ran
        concurrently — the false-positive flavor."""
        access(checker, 0x100, 1, True)
        checker.thread_exit(1)
        reports = access(checker, 0x100, 2, True, held=())
        assert reports  # no exit edge: flagged despite no overlap
        assert checker.granules[0x10].state is LockState.SHARED_MODIFIED

    def test_first_write_after_shared_read_transitions_and_checks(
            self, checker):
        """SHARED tolerates an empty candidate set; the *first* write
        moves to SHARED_MODIFIED and enforces it immediately."""
        access(checker, 0x100, 1, False, held={0x900})
        # leaving EXCLUSIVE seeds C(v) from the transitioning access
        access(checker, 0x100, 2, False, held={0x901})
        st = checker.granules[0x10]
        assert st.state is LockState.SHARED
        assert st.lockset == frozenset({0x901})
        assert not st.reported                # reads never report
        reports = access(checker, 0x100, 1, True, held={0x900})
        assert st.state is LockState.SHARED_MODIFIED
        assert st.lockset == frozenset()      # {0x901} & {0x900}
        assert reports == [(0x100, (1, "x", LOC), (2, "x", LOC))]

    def test_first_write_after_shared_read_with_consistent_lock(
            self, checker):
        """Same transition with a surviving candidate set stays quiet."""
        access(checker, 0x100, 1, False, held={0x900})
        access(checker, 0x100, 2, False, held={0x900})
        reports = access(checker, 0x100, 1, True, held={0x900})
        st = checker.granules[0x10]
        assert st.state is LockState.SHARED_MODIFIED
        assert st.lockset == frozenset({0x900})
        assert reports == []


class TestEraserInterp:
    RACY = """
    int shared = 0;
    void *w(void *a) {
      int i;
      for (i = 0; i < 10; i++)
        shared = shared + 1;
      return NULL;
    }
    int main() {
      int t1 = thread_create(w, NULL);
      int t2 = thread_create(w, NULL);
      thread_join(t1);
      thread_join(t2);
      return 0;
    }
    """

    def test_detects_real_races_too(self):
        checked = check_ok(self.RACY)
        result = run_checked(checked, seed=1, checker="eraser")
        assert result.reports
        report = result.reports[0]
        assert report.kind is DiagKind.WRITE_CONFLICT
        assert report.detail == DETAIL
        assert report.who.lvalue == report.last.lvalue == "shared"

    def test_locked_program_clean_under_eraser(self):
        checked = check_ok("""
        mutex lk;
        int locked(lk) c = 0;
        void *w(void *a) {
          int i;
          for (i = 0; i < 10; i++) {
            mutexLock(&lk); c = c + 1; mutexUnlock(&lk);
          }
          return NULL;
        }
        int main() {
          int t1 = thread_create(w, NULL);
          int t2 = thread_create(w, NULL);
          thread_join(t1); thread_join(t2);
          return 0;
        }
        """)
        result = run_checked(checked, seed=1, checker="eraser")
        assert not result.reports

    def test_eraser_monitors_every_access(self):
        checked = check_ok(self.RACY)
        sharc = run_checked(checked, seed=1)
        eraser = run_checked(checked, seed=1, checker="eraser")
        assert eraser.stats.steps_checks > sharc.stats.steps_checks

    def test_unknown_checker_rejected(self):
        checked = check_ok(self.RACY)
        with pytest.raises(ValueError):
            run_checked(checked, checker="valgrind")


class TestComparison:
    def test_paper_positioning_holds(self):
        from repro.bench.comparison_eraser import run_comparison
        result = run_comparison()
        assert result.sharc_reports == 0
        assert result.eraser_reports > 0     # false positive on handoff
        assert result.eraser_overhead > 5 * max(result.sharc_overhead,
                                                0.01)
