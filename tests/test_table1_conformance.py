"""Table 1 conformance: every cell of the paper's matrix, behaviourally.

``tests/test_coupling.py`` pins the :data:`SUPPORT_MATRIX` constant
against the paper cell by cell.  This suite goes one step further and
checks the *system*, not the constant: for every (event category x
coupling mode) cell,

* an **allowed** combination must actually execute — a rule registered
  in that cell is driven to fire and its action observed (method events
  inside transactions, temporal events via ``clock.advance`` plus
  ``drain_detached``, exclusive contingencies via an aborting trigger);
* a **disallowed** combination must be rejected at registration time
  with :class:`UnsupportedCouplingError`.

The causal gates that give the cells their annotations are also pinned:
"all commit" rules skip when an origin aborts and "all abort" rules skip
when the trigger commits.  The cell and annotation suites run in both
execution modes.
"""

import pytest

from repro import (
    AbsoluteEventSpec,
    Conjunction,
    CouplingMode,
    EventCategory,
    EventScope,
    ExecutionConfig,
    ExecutionMode,
    MethodEventSpec,
    ReachEngine,
    SignalEventSpec,
    sentried,
)
from repro.core.coupling import SUPPORT_MATRIX, is_supported
from repro.errors import UnsupportedCouplingError

from tests.conftest import wait_until


@sentried
class Widget:
    def poke(self):
        return True


POKE = MethodEventSpec("Widget", "poke")

ALL_CELLS = [(mode, category)
             for mode in CouplingMode for category in EventCategory]
ALLOWED = [cell for cell in ALL_CELLS if SUPPORT_MATRIX[cell]]
DISALLOWED = [cell for cell in ALL_CELLS if not SUPPORT_MATRIX[cell]]


def _cell_id(cell):
    mode, category = cell
    return f"{mode.name.lower()}-{category.name.lower()}"


def _event_for(db, category):
    if category is EventCategory.SINGLE_METHOD:
        return POKE
    if category is EventCategory.PURELY_TEMPORAL:
        return AbsoluteEventSpec(db.clock.now() + 10.0)
    composite = Conjunction(POKE, SignalEventSpec("t1-go"))
    if category is EventCategory.COMPOSITE_SINGLE_TX:
        return composite
    return composite.scoped(EventScope.MULTI_TX).within(1000.0)


def _run_origin(db, body, abort):
    """One triggering transaction; optionally aborted after ``body``."""
    try:
        with db.transaction():
            body()
            if abort:
                raise _Abort()
    except _Abort:
        pass


class _Abort(RuntimeError):
    pass


def _drive(db, category, abort=False):
    """Produce one occurrence of ``category``, through committed origins
    (or aborted ones when ``abort`` — the exclusive-mode contingency
    path), then drain any queued detached work (threaded mode: wait until
    composition is done, a firing is logged and no detached work is
    left)."""
    widget = Widget()
    if category is EventCategory.SINGLE_METHOD:
        _run_origin(db, widget.poke, abort)
    elif category is EventCategory.PURELY_TEMPORAL:
        db.clock.advance(20.0)
    elif category is EventCategory.COMPOSITE_SINGLE_TX:
        def both():
            widget.poke()
            db.signal("t1-go")
        _run_origin(db, both, abort)
    else:  # COMPOSITE_MULTI_TX: two separate origin transactions
        _run_origin(db, widget.poke, abort)
        _run_origin(db, lambda: db.signal("t1-go"), abort)
    db.drain_detached()
    if db.config.threaded:
        db.wait_for_composition()
        scheduler = db.scheduler
        wait_until(lambda: scheduler.firing_log
                   and scheduler.pending_detached_count() == 0)


@pytest.fixture
def db(tmp_path, request):
    """An engine in the requesting class's ``mode`` (default
    synchronous); the ``...Threaded`` subclasses rerun a suite threaded."""
    mode = getattr(request.cls, "mode", ExecutionMode.SYNCHRONOUS)
    database = ReachEngine(directory=str(tmp_path / "t1"),
                           config=ExecutionConfig(mode=mode))
    database.register_class(Widget)
    yield database
    database.close()


class TestAllowedCellsExecute:
    @pytest.mark.parametrize("cell", ALLOWED, ids=_cell_id)
    def test_rule_in_cell_fires(self, db, cell):
        mode, category = cell
        fired = []
        db.rule("cell", _event_for(db, category),
                action=lambda ctx: fired.append(ctx.event.category),
                coupling=mode)
        _drive(db, category, abort=mode.requires_trigger_abort)
        assert fired == [category], (
            f"allowed cell {_cell_id(cell)} never executed")


class TestDisallowedCellsRejected:
    @pytest.mark.parametrize("cell", DISALLOWED, ids=_cell_id)
    def test_registration_raises(self, db, cell):
        mode, category = cell
        with pytest.raises(UnsupportedCouplingError):
            db.rule("cell", _event_for(db, category),
                    action=lambda ctx: None, coupling=mode)

    @pytest.mark.parametrize("cell", DISALLOWED, ids=_cell_id)
    def test_rejected_rule_leaves_no_trace(self, db, cell):
        mode, category = cell
        with pytest.raises(UnsupportedCouplingError):
            db.rule("ghost", _event_for(db, category),
                    action=lambda ctx: None, coupling=mode)
        # The name is reusable and nothing half-registered fires later.
        db.rule("ghost", POKE, action=lambda ctx: None)
        _drive(db, EventCategory.SINGLE_METHOD)


class TestCausalAnnotations:
    """The parenthesised cell notes are real runtime behaviour."""

    @pytest.mark.parametrize("mode", [
        CouplingMode.PARALLEL_CAUSALLY_DEPENDENT,
        CouplingMode.SEQUENTIAL_CAUSALLY_DEPENDENT,
    ], ids=lambda m: m.name.lower())
    def test_all_commit_cells_skip_on_abort(self, db, mode):
        fired = []
        db.rule("cell", _event_for(db, EventCategory.COMPOSITE_MULTI_TX),
                action=lambda ctx: fired.append(1), coupling=mode)
        _drive(db, EventCategory.COMPOSITE_MULTI_TX, abort=True)
        assert fired == []
        assert db.scheduler.stats["detached_skipped"] >= 1

    def test_all_abort_cell_skips_on_commit(self, db):
        fired = []
        db.rule("cell", _event_for(db, EventCategory.COMPOSITE_MULTI_TX),
                action=lambda ctx: fired.append(1),
                coupling=CouplingMode.EXCLUSIVE_CAUSALLY_DEPENDENT)
        _drive(db, EventCategory.COMPOSITE_MULTI_TX, abort=False)
        assert fired == []
        assert db.scheduler.stats["detached_skipped"] >= 1


class TestAllowedCellsExecuteThreaded(TestAllowedCellsExecute):
    mode = ExecutionMode.THREADED


class TestDisallowedCellsRejectedThreaded(TestDisallowedCellsRejected):
    mode = ExecutionMode.THREADED


class TestCausalAnnotationsThreaded(TestCausalAnnotations):
    mode = ExecutionMode.THREADED


class TestMatrixCoverage:
    def test_every_cell_is_classified(self):
        assert len(ALL_CELLS) == 24
        assert set(ALLOWED) | set(DISALLOWED) == set(ALL_CELLS)
        assert not set(ALLOWED) & set(DISALLOWED)

    def test_behaviour_matches_support_matrix(self, db):
        """The live registration path agrees with Table 1 cell for cell."""
        observed = {}
        for index, (mode, category) in enumerate(ALL_CELLS):
            try:
                db.rule(f"probe-{index}", _event_for(db, category),
                        action=lambda ctx: None, coupling=mode)
                observed[(mode, category)] = True
            except UnsupportedCouplingError:
                observed[(mode, category)] = False
        assert observed == SUPPORT_MATRIX
        assert all(observed[cell] == is_supported(*cell)
                   for cell in ALL_CELLS)
