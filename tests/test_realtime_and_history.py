"""Time-constrained processing helpers and history maintenance."""

import pytest

from repro import (
    CouplingMode,
    MilestoneEventSpec,
    ReachEngine,
    sentried,
)
from repro.errors import RuleDefinitionError


@sentried
class Job:
    def __init__(self):
        self.steps = 0

    def step(self):
        self.steps += 1


@pytest.fixture
def rdb(tmp_path):
    database = ReachEngine(directory=str(tmp_path / "rdb"))
    database.register_class(Job)
    yield database
    database.close()


class TestProgressMilestones:
    def test_missed_checkpoints_fire_in_order(self, rdb):
        fired = []
        for fraction in (0.5, 0.8):
            rdb.rule(f"plan-{fraction}",
                     MilestoneEventSpec(f"batch@{fraction}"),
                     action=lambda ctx: fired.append(ctx["label"]),
                     coupling=CouplingMode.DETACHED)
        tx = rdb.tx_manager.begin(deadline=rdb.clock.now() + 100)
        labels = rdb.arm_progress_milestones("batch")
        assert labels == ["batch@0.5", "batch@0.8"]
        rdb.clock.advance(60)    # past the 50% checkpoint
        rdb.clock.advance(30)    # past the 80% checkpoint
        rdb.tx_manager.commit(tx)
        rdb.drain_detached()
        assert fired == ["batch@0.5", "batch@0.8"]

    def test_fast_transaction_misses_nothing(self, rdb):
        fired = []
        rdb.rule("plan", MilestoneEventSpec("quick@0.5"),
                 action=lambda ctx: fired.append(1),
                 coupling=CouplingMode.DETACHED)
        tx = rdb.tx_manager.begin(deadline=rdb.clock.now() + 100)
        rdb.arm_progress_milestones("quick", fractions=(0.5,))
        rdb.tx_manager.commit(tx)  # finishes before any checkpoint
        rdb.clock.advance(200)
        rdb.drain_detached()
        assert fired == []

    def test_deadline_required(self, rdb):
        with rdb.transaction():
            with pytest.raises(RuleDefinitionError):
                rdb.arm_progress_milestones("no-deadline")

    def test_fraction_validation(self, rdb):
        tx = rdb.tx_manager.begin(deadline=rdb.clock.now() + 10)
        with pytest.raises(ValueError):
            rdb.arm_progress_milestones("bad", fractions=(1.5,))
        rdb.tx_manager.abort(tx)


class TestHistoryPruning:
    def test_prune_bounds_global_history(self, rdb):
        rdb.rule("r", __import__("repro").MethodEventSpec("Job", "step"),
                 action=lambda ctx: None)
        job = Job()
        for __ in range(5):
            with rdb.transaction():
                job.step()
        entries = rdb.history.entries()
        assert len(entries) == 5
        cutoff = entries[3].seq
        dropped = rdb.history.prune_before(cutoff)
        assert dropped == 3
        remaining = rdb.history.entries()
        assert len(remaining) == 2
        assert all(occ.seq >= cutoff for occ in remaining)

    def test_prune_does_not_resurrect_on_merge(self, rdb):
        rdb.rule("r", __import__("repro").MethodEventSpec("Job", "step"),
                 action=lambda ctx: None)
        job = Job()
        with rdb.transaction():
            job.step()
        seq = rdb.history.entries()[0].seq
        rdb.history.prune_before(seq + 1)
        assert rdb.history.merge_all() == 0
        assert rdb.history.entries() == []

    def test_new_events_merge_after_prune(self, rdb):
        rdb.rule("r", __import__("repro").MethodEventSpec("Job", "step"),
                 action=lambda ctx: None)
        job = Job()
        with rdb.transaction():
            job.step()
        rdb.history.prune_before(10 ** 9)
        with rdb.transaction():
            job.step()
        assert len(rdb.history.entries()) == 1
