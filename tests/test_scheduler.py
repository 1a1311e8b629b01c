"""Rule execution end-to-end: the six coupling modes and firing policies."""

import pytest

from repro import (
    ConsumptionPolicy,
    CouplingMode,
    ExecutionConfig,
    MethodEventSpec,
    ReachEngine,
    Sequence,
    SignalEventSpec,
    TieBreakPolicy,
    sentried,
)
from repro.errors import TransactionAborted


@sentried
class Meter:
    def __init__(self):
        self.value = 0
        self.log = []

    def bump(self, amount=1):
        self.value += amount

    def note(self, text):
        self.log.append(text)


BUMP = MethodEventSpec("Meter", "bump")


@pytest.fixture
def mdb(tmp_path):
    database = ReachEngine(directory=str(tmp_path / "mdb"))
    database.register_class(Meter)
    yield database
    database.close()


class TestImmediate:
    def test_runs_at_detection_point(self, mdb):
        order = []
        mdb.rule("imm", BUMP, action=lambda ctx: order.append("rule"))
        meter = Meter()
        with mdb.transaction():
            meter.bump()
            order.append("after-call")
        assert order == ["rule", "after-call"]

    def test_runs_as_subtransaction(self, mdb):
        """Closed-nested semantics at a savepoint: the rule runs in the
        triggering transaction itself, one rule level deeper."""
        seen = []
        mdb.rule("sub", BUMP,
                 action=lambda ctx: seen.append(
                     (ctx.transaction, ctx.transaction.rule_depth)))
        with mdb.transaction() as trigger:
            Meter().bump()
            assert trigger.rule_depth == 0
        assert seen == [(trigger, 1)]

    def test_rule_failure_isolated_from_trigger(self, mdb):
        def explode(ctx):
            raise ValueError("rule bug")

        mdb.rule("bad", BUMP, action=explode)
        meter = Meter()
        with mdb.transaction():
            meter.bump()
            meter.note("survived")
        assert meter.log == ["survived"]
        assert len(mdb.scheduler.errors) == 1

    def test_critical_rule_failure_aborts_trigger(self, mdb):
        def explode(ctx):
            raise ValueError("critical bug")

        mdb.rule("crit", BUMP, action=explode, critical=True)
        meter = Meter()
        with pytest.raises(TransactionAborted):
            with mdb.transaction():
                meter.bump()

    def test_rule_action_undone_when_trigger_aborts(self, mdb):
        meter = Meter()
        with mdb.transaction():
            mdb.persist(meter, "m")
        mdb.rule("chain", MethodEventSpec("Meter", "note"),
                 action=lambda ctx: ctx["instance"].bump(100))
        try:
            with mdb.transaction():
                meter.note("x")
                assert meter.value == 100
                raise RuntimeError("user abort")
        except RuntimeError:
            pass
        assert meter.value == 0

    def test_outside_transaction_gets_fresh_top_level(self, mdb):
        seen = []
        mdb.rule("free", BUMP,
                 action=lambda ctx: seen.append(ctx.transaction.is_top_level))
        Meter().bump()  # no enclosing transaction
        assert seen == [True]


class TestDeferred:
    def test_runs_at_eot_not_at_detection(self, mdb):
        order = []
        mdb.rule("def", BUMP, action=lambda ctx: order.append("rule"),
                 coupling=CouplingMode.DEFERRED)
        with mdb.transaction():
            Meter().bump()
            order.append("work")
        assert order == ["work", "rule"]

    def test_not_run_on_abort(self, mdb):
        fired = []
        mdb.rule("def", BUMP, action=lambda ctx: fired.append(1),
                 coupling=CouplingMode.DEFERRED)
        try:
            with mdb.transaction():
                Meter().bump()
                raise RuntimeError("abort")
        except RuntimeError:
            pass
        assert fired == []

    def test_subtransaction_deferral_reaches_top_level_eot(self, mdb):
        order = []
        mdb.rule("def", BUMP, action=lambda ctx: order.append("rule"),
                 coupling=CouplingMode.DEFERRED)
        with mdb.transaction():
            with mdb.transaction():  # nested
                Meter().bump()
            order.append("nested-committed")
            order.append("outer-work")
        assert order == ["nested-committed", "outer-work", "rule"]

    def test_priority_ordering_in_deferred_queue(self, mdb):
        order = []
        mdb.rule("low", BUMP, action=lambda ctx: order.append("low"),
                 coupling=CouplingMode.DEFERRED, priority=1)
        mdb.rule("high", BUMP, action=lambda ctx: order.append("high"),
                 coupling=CouplingMode.DEFERRED, priority=9)
        with mdb.transaction():
            Meter().bump()
        assert order == ["high", "low"]

    def test_oldest_first_tie_break(self, mdb):
        order = []
        mdb.rule("first-defined", BUMP,
                 action=lambda ctx: order.append("old"),
                 coupling=CouplingMode.DEFERRED)
        mdb.rule("second-defined", BUMP,
                 action=lambda ctx: order.append("new"),
                 coupling=CouplingMode.DEFERRED)
        with mdb.transaction():
            Meter().bump()
        assert order == ["old", "new"]

    def test_newest_first_tie_break(self, tmp_path):
        config = ExecutionConfig(tie_break=TieBreakPolicy.NEWEST_FIRST)
        database = ReachEngine(directory=str(tmp_path / "nf"),
                               config=config)
        database.register_class(Meter)
        order = []
        database.rule("first-defined", BUMP,
                      action=lambda ctx: order.append("old"),
                      coupling=CouplingMode.DEFERRED)
        database.rule("second-defined", BUMP,
                      action=lambda ctx: order.append("new"),
                      coupling=CouplingMode.DEFERRED)
        with database.transaction():
            Meter().bump()
        database.close()
        assert order == ["new", "old"]

    def test_deferred_rule_may_veto_commit(self, mdb):
        def veto(ctx):
            raise ValueError("constraint violated")

        mdb.rule("veto", BUMP, action=veto,
                 coupling=CouplingMode.DEFERRED, critical=True)
        meter = Meter()
        with mdb.transaction():
            mdb.persist(meter, "m")
        with pytest.raises(TransactionAborted):
            with mdb.transaction():
                meter.bump()
        assert meter.value == 0  # undone by the forced abort

    def test_cascading_deferred_rules_drain(self, mdb):
        order = []
        mdb.rule("second", MethodEventSpec("Meter", "note"),
                 action=lambda ctx: order.append("second"),
                 coupling=CouplingMode.DEFERRED)

        def first_action(ctx):
            order.append("first")
            ctx["instance"].note("chain")

        mdb.rule("first", BUMP, action=first_action,
                 coupling=CouplingMode.DEFERRED)
        with mdb.transaction():
            Meter().bump()
        assert order == ["first", "second"]


class TestDetached:
    def test_runs_in_new_top_level_transaction(self, mdb):
        seen = []
        mdb.rule("det", BUMP,
                 action=lambda ctx: seen.append(
                     (ctx.transaction.is_top_level, ctx.transaction.id)),
                 coupling=CouplingMode.DETACHED)
        with mdb.transaction() as tx:
            Meter().bump()
            trigger_id = tx.id
        assert len(seen) == 1
        assert seen[0][0] is True
        assert seen[0][1] != trigger_id

    def test_runs_even_when_trigger_aborts(self, mdb):
        fired = []
        mdb.rule("det", BUMP, action=lambda ctx: fired.append(1),
                 coupling=CouplingMode.DETACHED)
        try:
            with mdb.transaction():
                Meter().bump()
                raise RuntimeError("abort")
        except RuntimeError:
            pass
        assert fired == [1]

    def test_burst_of_detached_firings_all_run(self, mdb):
        """Each detached commit releases the next queued item; draining it
        inside that commit would recurse once per item until the stack
        overflowed and the remaining work was lost."""
        fired = []
        mdb.rule("det", BUMP, action=lambda ctx: fired.append(1),
                 coupling=CouplingMode.DETACHED)
        meter = Meter()
        with mdb.transaction():
            for __ in range(2_000):
                meter.bump()
        assert len(fired) == 2_000
        assert list(mdb.scheduler.errors) == []
        assert mdb.scheduler.pending_detached_count() == 0


class TestCausallyDependent:
    def test_sequential_runs_after_commit(self, mdb):
        fired = []
        mdb.rule("seq", BUMP, action=lambda ctx: fired.append(1),
                 coupling=CouplingMode.SEQUENTIAL_CAUSALLY_DEPENDENT)
        with mdb.transaction():
            Meter().bump()
            assert fired == []  # must not start before commit
        assert fired == [1]

    def test_sequential_skipped_on_abort(self, mdb):
        fired = []
        mdb.rule("seq", BUMP, action=lambda ctx: fired.append(1),
                 coupling=CouplingMode.SEQUENTIAL_CAUSALLY_DEPENDENT)
        try:
            with mdb.transaction():
                Meter().bump()
                raise RuntimeError("abort")
        except RuntimeError:
            pass
        assert fired == []
        assert mdb.scheduler.stats["detached_skipped"] == 1

    def test_parallel_commits_with_trigger(self, mdb):
        fired = []
        mdb.rule("par", BUMP, action=lambda ctx: fired.append(1),
                 coupling=CouplingMode.PARALLEL_CAUSALLY_DEPENDENT)
        with mdb.transaction():
            Meter().bump()
        assert fired == [1]

    def test_parallel_skipped_on_abort(self, mdb):
        fired = []
        mdb.rule("par", BUMP, action=lambda ctx: fired.append(1),
                 coupling=CouplingMode.PARALLEL_CAUSALLY_DEPENDENT)
        try:
            with mdb.transaction():
                Meter().bump()
                raise RuntimeError("abort")
        except RuntimeError:
            pass
        assert fired == []

    def test_exclusive_runs_only_on_abort(self, mdb):
        fired = []
        mdb.rule("exc", BUMP, action=lambda ctx: fired.append(1),
                 coupling=CouplingMode.EXCLUSIVE_CAUSALLY_DEPENDENT)
        with mdb.transaction():
            Meter().bump()
        assert fired == []  # trigger committed: contingency not needed
        try:
            with mdb.transaction():
                Meter().bump()
                raise RuntimeError("abort")
        except RuntimeError:
            pass
        assert fired == [1]


class TestSplitCoupling:
    def test_immediate_condition_deferred_action(self, mdb):
        order = []
        mdb.rule("split", BUMP,
                 condition=lambda ctx: order.append("cond") or True,
                 action=lambda ctx: order.append("action"),
                 cond_coupling=CouplingMode.IMMEDIATE,
                 action_coupling=CouplingMode.DEFERRED)
        with mdb.transaction():
            Meter().bump()
            order.append("work")
        assert order == ["cond", "work", "action"]

    def test_false_condition_suppresses_later_action(self, mdb):
        order = []
        mdb.rule("split", BUMP,
                 condition=lambda ctx: False,
                 action=lambda ctx: order.append("action"),
                 cond_coupling=CouplingMode.IMMEDIATE,
                 action_coupling=CouplingMode.DEFERRED)
        with mdb.transaction():
            Meter().bump()
        assert order == []


class TestRecursionBound:
    def test_self_triggering_rule_is_bounded(self, tmp_path):
        config = ExecutionConfig(max_rule_recursion=5)
        database = ReachEngine(directory=str(tmp_path / "rec"),
                               config=config)
        database.register_class(Meter)
        database.rule("loop", BUMP,
                      action=lambda ctx: ctx["instance"].bump())
        meter = Meter()
        with database.transaction():
            meter.bump()
        database.close()
        assert database.scheduler.stats["recursion_limited"] >= 1
        assert meter.value <= 7


class TestFiringLog:
    def test_outcomes_recorded(self, mdb):
        mdb.rule("yes", BUMP, action=lambda ctx: None)
        mdb.rule("no", BUMP, condition=lambda ctx: False,
                 action=lambda ctx: None)
        with mdb.transaction():
            Meter().bump()
        outcomes = {record.rule_name: record.outcome
                    for record in mdb.scheduler.firing_log}
        assert outcomes == {"yes": "executed", "no": "condition_false"}
