"""Telecommunication network management — REACH's own application study.

The paper reports "a study of applications in the areas of power-plant
maintenance and operations and telecommunication network management"
(Section 2) confirming the HiPAC primitives.  This example monitors a
small link network in **threaded mode** (composition on worker threads,
detached rules on a pool — the Solaris-threads design of Section 5):

* a **History** rule: 3 link-down events anywhere within a window ->
  network-degraded alarm (detached; purely a monitoring action);
* a **ConstraintRule** from the specialized rule library: a transaction
  may not take down the last redundant path of a region;
* an **AuditRule**: durable incident records written only after the
  reporting transaction commits;
* a **ReplicationRule**: the master status board mirrors every link's
  state onto a hot standby.

Run with::

    python examples/network_monitor.py
"""

import time

from repro import (
    CouplingMode,
    EventScope,
    ExecutionConfig,
    ExecutionMode,
    History,
    MethodEventSpec,
    ReachEngine,
    sentried,
)
from repro.core.rule_library import AuditRule, ConstraintRule, \
    ReplicationRule


@sentried
class Link:
    def __init__(self, name, region):
        self.name = name
        self.region = region
        self.up = True

    def fail(self):
        self.up = False

    def restore(self):
        self.up = True


@sentried
class StatusBoard:
    def __init__(self, name):
        self.name = name
        self.alarms = []
        self.up = True   # mirrored by the replication rule (demo)


LINK_FAIL = MethodEventSpec("Link", "fail")


def main():
    config = ExecutionConfig(mode=ExecutionMode.THREADED, worker_threads=4)
    db = ReachEngine(config=config)
    db.register_class(Link)
    db.register_class(StatusBoard)

    links = [Link(f"link-{i}", region="north" if i < 3 else "south")
             for i in range(6)]
    board = StatusBoard("master")
    standby = StatusBoard("standby")
    with db.transaction():
        for link in links:
            db.persist(link, link.name)
        db.persist(board, "board")
        db.persist(standby, "standby")

    # 1. Degradation alarm: 3 failures within 30s, across transactions.
    alarms = []
    db.rule("NetworkDegraded",
            History(LINK_FAIL, count=3, window=30.0)
            .scoped(EventScope.MULTI_TX).within(120.0),
            action=lambda ctx: alarms.append(
                [c.parameters["instance"].name
                 for c in ctx.event.components]),
            coupling=CouplingMode.DETACHED)

    # 2. Constraint: never take down every link of a region at once.
    def region_has_path(ctx):
        region = ctx["instance"].region
        return any(link.up for link in links if link.region == region)

    db.register_rule(ConstraintRule(
        "KeepRegionReachable", LINK_FAIL, predicate=region_has_path,
        message="region lost its last path"))

    # 3. Audit after durable commit.
    incidents = []
    db.register_rule(AuditRule(
        "IncidentLog", LINK_FAIL,
        record=lambda ctx: f"{ctx['instance'].name} failed",
        sink=incidents.append))

    # 4. Hot-standby replication of the master board's alarms counter.
    db.register_rule(ReplicationRule(
        "MirrorBoard", "StatusBoard", "up",
        replicas=lambda ctx: [standby]))

    print("== three failures in a window raise the degradation alarm ==")
    for link in links[:2] + links[3:4]:
        with db.transaction():
            link.fail()
        db.clock.advance(5.0)
    db.wait_for_composition()
    time.sleep(0.2)   # detached pool
    print(f"alarms: {alarms}")
    assert len(alarms) == 1 and len(alarms[0]) == 3

    print("\n== the constraint vetoes isolating a region ==")
    from repro.errors import TransactionAborted
    with db.transaction():
        links[4].fail()
    time.sleep(0.1)
    try:
        with db.transaction():
            links[5].fail()   # would kill the whole south region
    except TransactionAborted as exc:
        print(f"vetoed: {exc}")
    assert links[5].up       # the failure was rolled back

    time.sleep(0.2)
    print(f"\n== audit written only for committed failures ==")
    print(f"incidents: {incidents}")
    assert "link-5 failed" not in incidents
    assert "link-0 failed" in incidents

    print("\n== replication mirrors the master board ==")
    with db.transaction():
        board.up = False
    print(f"standby mirrors master: standby.up={standby.up}")
    assert standby.up is False

    db.close()
    print("\ndone")


if __name__ == "__main__":
    main()
