"""T1 — Table 1: supported (event category x coupling mode) combinations.

Regenerates the paper's Table 1 two ways:

1. *statically*, by printing the support matrix in the paper's layout;
2. *behaviourally*, by attempting to register one rule per cell against a
   live database and recording acceptance/rejection — the printed Y/N grid
   is derived from what the system actually does, not from the constant.

The benchmark times the registration-validation path (the per-rule cost of
enforcing Table 1).
"""

import pytest

from repro import (
    AbsoluteEventSpec,
    Conjunction,
    CouplingMode,
    EventCategory,
    EventScope,
    MethodEventSpec,
    ReachEngine,
    SignalEventSpec,
    sentried,
)
from repro.core.coupling import SUPPORT_MATRIX, format_table1
from repro.errors import UnsupportedCouplingError


@sentried
class Widget:
    def poke(self):
        return True


def _event_for(category: EventCategory):
    method = MethodEventSpec("Widget", "poke")
    if category is EventCategory.SINGLE_METHOD:
        return method
    if category is EventCategory.PURELY_TEMPORAL:
        return AbsoluteEventSpec(1e9)
    if category is EventCategory.COMPOSITE_SINGLE_TX:
        return Conjunction(method, SignalEventSpec("t1-go"))
    return Conjunction(method, SignalEventSpec("t1-go")) \
        .scoped(EventScope.MULTI_TX).within(60.0)


def _behavioural_matrix() -> dict:
    """Try to register a rule for every cell; record what the DB allows."""
    observed = {}
    counter = 0
    db = ReachEngine()
    db.register_class(Widget)
    try:
        for mode in CouplingMode:
            for category in EventCategory:
                counter += 1
                try:
                    db.rule(f"cell-{counter}", _event_for(category),
                            action=lambda ctx: None, coupling=mode)
                    observed[(mode, category)] = True
                except UnsupportedCouplingError:
                    observed[(mode, category)] = False
    finally:
        db.close()
    return observed


def test_table1_reproduction(benchmark, results_report):
    observed = _behavioural_matrix()
    assert observed == SUPPORT_MATRIX, (
        "live registration behaviour deviates from Table 1")

    rendered = format_table1()
    lines = [
        "Table 1: Supported combinations of event categories and "
        "coupling modes.",
        "",
        rendered,
        "",
        f"cells matching the paper: "
        f"{sum(observed[k] == SUPPORT_MATRIX[k] for k in observed)}/24",
    ]
    text = results_report("T1_table1", lines)
    print("\n" + text)

    # Time the Table 1 validation on the rule-registration path.
    from repro.core.coupling import check_supported

    def validate_all():
        for mode in CouplingMode:
            for category in EventCategory:
                try:
                    check_supported(mode, category)
                except UnsupportedCouplingError:
                    pass

    benchmark(validate_all)
