"""Coupling modes and the Table 1 support matrix.

REACH distinguishes six coupling modes (paper, Section 3.2):

* **immediate** — the rule executes, possibly as a subtransaction, at the
  point where the event was detected, inside the triggering transaction.
* **deferred** — the rule executes as a subtransaction after the triggering
  transaction completes its work but *before it commits* (at EOT).
* **detached** — the rule executes in an independent top-level transaction.
* **parallel causally dependent** — a separate transaction that may begin
  in parallel but may not commit unless the triggering transaction commits.
* **sequential causally dependent** — a separate transaction that may only
  *start* after the triggering transaction has committed.
* **exclusive causally dependent** — a separate transaction that may commit
  only if the triggering transaction aborts (contingency actions).

Not every combination with the four event categories is meaningful; Table 1
of the paper defines the supported matrix, reproduced in
:data:`SUPPORT_MATRIX` (including the paper's parenthesised "(N)": composite
single-transaction events in immediate mode are semantically correct but
prohibitively expensive — every method event would stall awaiting negative
acknowledgements from all composers — so REACH disallows them).
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.core.events import EventCategory
from repro.errors import UnsupportedCouplingError


class CouplingMode(enum.Enum):
    # Members are singletons: an identity hash is exact, and runs in C
    # where Enum's own hashes the name in Python (hot dict keys).
    __hash__ = object.__hash__

    IMMEDIATE = "immediate"
    DEFERRED = "deferred"
    DETACHED = "detached"
    PARALLEL_CAUSALLY_DEPENDENT = "parallel causally dependent"
    SEQUENTIAL_CAUSALLY_DEPENDENT = "sequential causally dependent"
    EXCLUSIVE_CAUSALLY_DEPENDENT = "exclusive causally dependent"

    @property
    def is_detached(self) -> bool:
        return self not in (CouplingMode.IMMEDIATE, CouplingMode.DEFERRED)

    @property
    def requires_trigger_commit(self) -> bool:
        """Modes whose rule may only commit/run if the trigger(s) commit."""
        return self in (CouplingMode.PARALLEL_CAUSALLY_DEPENDENT,
                        CouplingMode.SEQUENTIAL_CAUSALLY_DEPENDENT)

    @property
    def requires_trigger_abort(self) -> bool:
        return self is CouplingMode.EXCLUSIVE_CAUSALLY_DEPENDENT


#: Table 1 of the paper: (coupling mode, event category) -> supported?
#: The note strings record the paper's cell annotations.
SUPPORT_MATRIX: dict[tuple[CouplingMode, EventCategory], bool] = {}
_NOTES: dict[tuple[CouplingMode, EventCategory], str] = {}


def _row(mode: CouplingMode, single_method: bool, temporal: bool,
         one_tx: bool, n_tx: bool, note_1tx: str = "",
         note_ntx: str = "") -> None:
    SUPPORT_MATRIX[(mode, EventCategory.SINGLE_METHOD)] = single_method
    SUPPORT_MATRIX[(mode, EventCategory.PURELY_TEMPORAL)] = temporal
    SUPPORT_MATRIX[(mode, EventCategory.COMPOSITE_SINGLE_TX)] = one_tx
    SUPPORT_MATRIX[(mode, EventCategory.COMPOSITE_MULTI_TX)] = n_tx
    if note_1tx:
        _NOTES[(mode, EventCategory.COMPOSITE_SINGLE_TX)] = note_1tx
    if note_ntx:
        _NOTES[(mode, EventCategory.COMPOSITE_MULTI_TX)] = note_ntx


_row(CouplingMode.IMMEDIATE, True, False, False, False,
     note_1tx="(N): semantically correct but prohibitively expensive")
_row(CouplingMode.DEFERRED, True, False, True, False)
_row(CouplingMode.DETACHED, True, True, True, True)
_row(CouplingMode.PARALLEL_CAUSALLY_DEPENDENT, True, False, True, True,
     note_ntx="all commit")
_row(CouplingMode.SEQUENTIAL_CAUSALLY_DEPENDENT, True, False, True, True,
     note_ntx="all commit")
_row(CouplingMode.EXCLUSIVE_CAUSALLY_DEPENDENT, True, False, True, True,
     note_ntx="all abort")


def is_supported(mode: CouplingMode, category: EventCategory) -> bool:
    """True if Table 1 allows rules on ``category`` events in ``mode``."""
    return SUPPORT_MATRIX[(mode, category)]


def cell_note(mode: CouplingMode, category: EventCategory) -> str:
    """The paper's annotation for a matrix cell, if any."""
    return _NOTES.get((mode, category), "")


def supported_modes(category: EventCategory) -> list[CouplingMode]:
    return [mode for mode in CouplingMode if is_supported(mode, category)]


def check_supported(mode: CouplingMode, category: EventCategory,
                    rule_name: Optional[str] = None) -> None:
    """Raise :class:`UnsupportedCouplingError` for a disallowed combination.

    The error message explains *why*, following the paper's reasoning.
    """
    if is_supported(mode, category):
        return
    reasons = {
        (CouplingMode.IMMEDIATE, EventCategory.PURELY_TEMPORAL):
            "temporal events occur independently of transactions, so no "
            "transaction exists to execute the rule within",
        (CouplingMode.IMMEDIATE, EventCategory.COMPOSITE_SINGLE_TX):
            "normal execution would stall at every method event awaiting "
            "negative acknowledgements from all composers (Section 6.4)",
        (CouplingMode.IMMEDIATE, EventCategory.COMPOSITE_MULTI_TX):
            "an ambiguity exists as to which originating transaction is "
            "meant (Section 3.2)",
        (CouplingMode.DEFERRED, EventCategory.PURELY_TEMPORAL):
            "temporal events occur independently of transactions, so there "
            "is no triggering transaction to defer to",
        (CouplingMode.DEFERRED, EventCategory.COMPOSITE_MULTI_TX):
            "an ambiguity exists as to which originating transaction's EOT "
            "is meant (Section 3.2)",
    }
    default_reason = ("rules on purely temporal events may only execute "
                      "detached (Table 1)")
    reason = reasons.get((mode, category), default_reason)
    prefix = f"rule {rule_name!r}: " if rule_name else ""
    raise UnsupportedCouplingError(
        f"{prefix}{category.value} events cannot fire rules in "
        f"{mode.value} mode — {reason}")


def format_table1() -> str:
    """Render the support matrix exactly in the layout of the paper's
    Table 1 (used by the T1 reproduction harness)."""
    categories = [
        (EventCategory.SINGLE_METHOD, "Single Method"),
        (EventCategory.PURELY_TEMPORAL, "Purely Temporal"),
        (EventCategory.COMPOSITE_SINGLE_TX, "Composite 1 TX"),
        (EventCategory.COMPOSITE_MULTI_TX, "Composite n TXs"),
    ]
    mode_labels = {
        CouplingMode.IMMEDIATE: "Immediate",
        CouplingMode.DEFERRED: "Deferred",
        CouplingMode.DETACHED: "Detached",
        CouplingMode.PARALLEL_CAUSALLY_DEPENDENT: "Par.caus.dep.",
        CouplingMode.SEQUENTIAL_CAUSALLY_DEPENDENT: "Seq.caus.dep.",
        CouplingMode.EXCLUSIVE_CAUSALLY_DEPENDENT: "Exc.caus.dep.",
    }
    cell_overrides = {
        (CouplingMode.IMMEDIATE, EventCategory.COMPOSITE_SINGLE_TX): "(N)",
        (CouplingMode.PARALLEL_CAUSALLY_DEPENDENT,
         EventCategory.COMPOSITE_MULTI_TX): "Y (all commit)",
        (CouplingMode.SEQUENTIAL_CAUSALLY_DEPENDENT,
         EventCategory.COMPOSITE_MULTI_TX): "Y (all commit)",
        (CouplingMode.EXCLUSIVE_CAUSALLY_DEPENDENT,
         EventCategory.COMPOSITE_MULTI_TX): "Y (all abort)",
    }
    header = (f"{'':16s}" +
              "".join(f"{label:18s}" for __, label in categories))
    lines = [header]
    for mode in CouplingMode:
        cells = []
        for category, __ in categories:
            text = cell_overrides.get(
                (mode, category),
                "Y" if SUPPORT_MATRIX[(mode, category)] else "N")
            cells.append(f"{text:18s}")
        lines.append(f"{mode_labels[mode]:16s}" + "".join(cells))
    return "\n".join(lines)
