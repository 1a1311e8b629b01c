"""Transactions: flat, nested, undo, signals, outcome tracking."""

import threading

import pytest

from repro.errors import (
    NestedTransactionError,
    TransactionStateError,
)
from repro.oodb.locks import LockManager, LockMode
from repro.oodb.meta import MetaArchitecture, SystemEventKind
from repro.oodb.transactions import (
    TransactionManager,
    TransactionState,
)


@pytest.fixture
def tm():
    return TransactionManager(MetaArchitecture(), LockManager())


class TestFlat:
    def test_begin_commit(self, tm):
        tx = tm.begin()
        assert tx.is_top_level
        assert tm.current() is tx
        tm.commit(tx)
        assert tx.state is TransactionState.COMMITTED
        assert tm.current() is None

    def test_begin_abort_runs_undo_in_reverse(self, tm):
        order = []
        tx = tm.begin()
        tx.record_undo(lambda: order.append("first"))
        tx.record_undo(lambda: order.append("second"))
        tm.abort(tx)
        assert order == ["second", "first"]

    def test_context_manager_commits(self, tm):
        with tm.transaction() as tx:
            pass
        assert tx.state is TransactionState.COMMITTED

    def test_context_manager_aborts_on_exception(self, tm):
        with pytest.raises(RuntimeError):
            with tm.transaction() as tx:
                raise RuntimeError("boom")
        assert tx.state is TransactionState.ABORTED

    def test_double_commit_rejected(self, tm):
        tx = tm.begin()
        tm.commit(tx)
        with pytest.raises(TransactionStateError):
            tm.commit(tx)

    def test_commit_without_tx_rejected(self, tm):
        with pytest.raises(TransactionStateError):
            tm.commit()


class TestNested:
    def test_default_begin_nests_under_current(self, tm):
        outer = tm.begin()
        inner = tm.begin()
        assert inner.parent is outer
        assert inner.family_id == outer.family_id
        tm.commit(inner)
        tm.commit(outer)

    def test_forced_top_level(self, tm):
        outer = tm.begin()
        independent = tm.begin(nested=False)
        assert independent.parent is None
        assert independent.family_id != outer.family_id
        tm.commit(independent)
        tm.commit(outer)

    def test_nested_true_without_parent_rejected(self, tm):
        with pytest.raises(NestedTransactionError):
            tm.begin(nested=True)

    def test_subcommit_merges_undo_into_parent(self, tm):
        order = []
        outer = tm.begin()
        inner = tm.begin()
        inner.record_undo(lambda: order.append("inner"))
        tm.commit(inner)
        outer.record_undo(lambda: order.append("outer"))
        tm.abort(outer)
        # Parent abort undoes the child's merged work too, reversed.
        assert order == ["outer", "inner"]

    def test_subabort_undoes_only_child(self, tm):
        order = []
        outer = tm.begin()
        outer.record_undo(lambda: order.append("outer"))
        inner = tm.begin()
        inner.record_undo(lambda: order.append("inner"))
        tm.abort(inner)
        assert order == ["inner"]
        tm.commit(outer)
        assert order == ["inner"]

    def test_commit_with_active_children_rejected(self, tm):
        outer = tm.begin()
        tm.begin()
        with pytest.raises(NestedTransactionError):
            tm.commit(outer)

    def test_family_shares_locks(self, tm):
        outer = tm.begin()
        tm.lock("resource", LockMode.EXCLUSIVE)
        inner = tm.begin()
        tm.lock("resource", LockMode.EXCLUSIVE, tx=inner)  # no self-block
        tm.commit(inner)
        tm.commit(outer)

    def test_locks_released_at_top_commit_only(self, tm):
        outer = tm.begin()
        inner = tm.begin()
        tm.lock("resource", LockMode.EXCLUSIVE, tx=inner)
        tm.commit(inner)
        assert outer.family_id in tm.locks.holders_of("resource")
        tm.commit(outer)
        assert tm.locks.holders_of("resource") == {}


class TestSignals:
    def test_flow_events_raised_on_bus(self, tm):
        seen = []
        from repro.oodb.meta import PolicyManager

        class Probe(PolicyManager):
            subscribed_kinds = (SystemEventKind.TX_BEGIN,
                                SystemEventKind.TX_PRE_COMMIT,
                                SystemEventKind.TX_COMMIT,
                                SystemEventKind.TX_ABORT)

            def on_event(self, event):
                seen.append(event.kind)

        tm.meta.plug(Probe())
        with tm.transaction():
            pass
        tx = tm.begin()
        tm.abort(tx)
        assert seen == [SystemEventKind.TX_BEGIN,
                        SystemEventKind.TX_PRE_COMMIT,
                        SystemEventKind.TX_COMMIT,
                        SystemEventKind.TX_BEGIN,
                        SystemEventKind.TX_ABORT]

    def test_pre_commit_hook_failure_aborts(self, tm):
        def failing_hook(tx):
            raise RuntimeError("flush failed")

        tm.set_hooks(failing_hook, pre_commit=(failing_hook,))
        tx = tm.begin()
        with pytest.raises(RuntimeError):
            tm.commit(tx)
        assert tx.state is TransactionState.ABORTED


class TestOutcomes:
    def test_outcomes_recorded_for_top_level(self, tm):
        tx = tm.begin()
        assert tm.outcome_of(tx.id) is None
        tm.commit(tx)
        assert tm.outcome_of(tx.id) is TransactionState.COMMITTED

    def test_abort_outcome(self, tm):
        tx = tm.begin()
        tm.abort(tx)
        assert tm.outcome_of(tx.id) is TransactionState.ABORTED

    def test_nested_outcomes_not_recorded(self, tm):
        outer = tm.begin()
        inner = tm.begin()
        tm.commit(inner)
        assert tm.outcome_of(inner.id) is None
        tm.commit(outer)

    def test_find_transaction_while_live(self, tm):
        tx = tm.begin()
        assert tm.find_transaction(tx.id) is tx
        tm.commit(tx)
        assert tm.find_transaction(tx.id) is None

    def test_per_thread_stacks_are_independent(self, tm):
        tx = tm.begin()
        seen = []

        def other_thread():
            seen.append(tm.current())

        thread = threading.Thread(target=other_thread)
        thread.start()
        thread.join()
        assert seen == [None]
        tm.commit(tx)
