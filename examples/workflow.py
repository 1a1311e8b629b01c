"""Workflow management: chronicle context, deferral, causal dependencies.

Workflow management "combines the need for event-driven activities with
temporal constraints" (paper, Section 1), and the *chronicle* consumption
context is "typically used in workflow applications" (Section 3.4).

This example routes purchase orders through approval:

* submissions and approvals pair up **in chronological order** (chronicle
  context) — the first unmatched submission is the one an approval
  completes;
* an audit record is written by a **sequential causally dependent** rule:
  it must only run once the order transaction has durably committed;
* a compensation handler runs under **exclusive causally dependent**
  coupling: it executes only if the order transaction aborts;
* a **deferred** integrity rule validates the order total at EOT and
  vetoes the commit when it is violated (consistency enforcement, one of
  the paper's DBMS-internal rule domains).

Run with::

    python examples/workflow.py
"""

from repro import (
    ConsumptionPolicy,
    CouplingMode,
    EventScope,
    MethodEventSpec,
    ReachEngine,
    Sequence,
    sentried,
)
from repro.errors import TransactionAborted


@sentried
class OrderDesk:
    def __init__(self):
        self.audit_log = []
        self.compensations = []

    def submit(self, order_id, total):
        return order_id

    def approve(self, order_id):
        return order_id

    def record(self, entry):
        self.audit_log.append(entry)


SUBMIT = MethodEventSpec("OrderDesk", "submit",
                         param_names=("order_id", "total"))
APPROVE = MethodEventSpec("OrderDesk", "approve",
                          param_names=("approved_id",))


def main():
    db = ReachEngine()
    db.register_class(OrderDesk)
    desk = OrderDesk()
    with db.transaction():
        db.persist(desk, "desk")

    completed = []

    # Chronicle pairing across transactions: submission then approval.
    db.rule("CompleteOrder",
            Sequence(SUBMIT, APPROVE)
            .scoped(EventScope.MULTI_TX).within(600.0)
            .consumed(ConsumptionPolicy.CHRONICLE),
            action=lambda ctx: completed.append(
                (ctx["order_id"], ctx["approved_id"])),
            coupling=CouplingMode.DETACHED)

    # Audit only after the submitting transaction durably committed.
    db.rule("Audit", SUBMIT,
            action=lambda ctx: ctx.db.fetch("desk").record(
                f"order {ctx['order_id']} submitted"),
            coupling=CouplingMode.SEQUENTIAL_CAUSALLY_DEPENDENT)

    # Compensation runs only if the submitting transaction aborts.
    db.rule("Compensate", SUBMIT,
            action=lambda ctx: ctx.db.fetch("desk").compensations.append(
                ctx["order_id"]),
            coupling=CouplingMode.EXCLUSIVE_CAUSALLY_DEPENDENT)

    # Deferred integrity check: negative totals veto the commit at EOT.
    def check_total(ctx):
        if ctx["total"] < 0:
            raise ValueError(f"order {ctx['order_id']}: negative total")

    db.rule("TotalIntegrity", SUBMIT, action=check_total,
            coupling=CouplingMode.DEFERRED, critical=True)

    print("== three orders submitted, two approvals (chronicle) ==")
    for order_id, total in (("PO-1", 100), ("PO-2", 250), ("PO-3", 80)):
        with db.transaction():
            desk.submit(order_id, total)
        db.clock.advance(1.0)
    for order_id in ("A-1", "A-2"):
        with db.transaction():
            desk.approve(order_id)
        db.clock.advance(1.0)
    db.drain_detached()
    print(f"completed pairs: {completed}")
    assert [pair[0] for pair in completed] == ["PO-1", "PO-2"]
    print(f"audit log: {desk.audit_log}")
    assert len(desk.audit_log) == 3
    print(f"compensations (none - all committed): {desk.compensations}")

    print("\n== an aborted submission triggers only the compensation ==")
    try:
        with db.transaction():
            desk.submit("PO-BAD", 10)
            raise RuntimeError("user cancels mid-transaction")
    except RuntimeError:
        pass
    db.drain_detached()
    print(f"compensations: {desk.compensations}")
    assert desk.compensations == ["PO-BAD"]
    assert not any("PO-BAD" in entry for entry in desk.audit_log)

    print("\n== deferred integrity rule vetoes a bad commit ==")
    try:
        with db.transaction():
            desk.submit("PO-NEG", -5)
        print("commit succeeded (unexpected)")
    except TransactionAborted as exc:
        print(f"commit vetoed at EOT: {exc}")
    db.drain_detached()
    db.close()


if __name__ == "__main__":
    main()
