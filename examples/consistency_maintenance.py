"""The DBMS itself as an active-database application.

Section 1: "a domain for active database technology is the DBMS itself,
since the same mechanisms can be applied for unified handling of
consistency constraints ..., materialized views, access control ...".
Section 7 plans "index maintenance PMs with the active database paradigm".

This example demonstrates all three on a small parts/suppliers schema:

* **index maintenance** — the built-in Index PM keeps a hash index
  consistent purely by consuming the same events rules consume (watch the
  index answer queries correctly through updates and aborts);
* **referential integrity** — a deferred critical rule vetoes commits
  that leave a part pointing at a deleted supplier;
* **materialized view** — an immediate rule maintains a per-supplier part
  count, and the paper's transactional coupling keeps the view exact even
  when the triggering transaction aborts.

Run with::

    python examples/consistency_maintenance.py
"""

from repro import (
    CouplingMode,
    FlowEventKind,
    FlowEventSpec,
    MethodEventSpec,
    ReachEngine,
    StateChangeEventSpec,
    sentried,
)
from repro.errors import TransactionAborted


@sentried
class Supplier:
    def __init__(self, name):
        self.name = name
        self.part_count = 0  # the materialized view


@sentried
class Part:
    def __init__(self, pid, supplier):
        self.pid = pid
        self.supplier = supplier

    def reassign(self, supplier):
        self.supplier = supplier


def main():
    db = ReachEngine()
    db.register_class(Supplier)
    db.register_class(Part)

    acme = Supplier("acme")
    globex = Supplier("globex")
    with db.transaction():
        db.persist(acme, "acme")
        db.persist(globex, "globex")

    # --- materialized view: per-supplier part counts -------------------
    def on_new_part(ctx):
        ctx["instance"].supplier.part_count += 1

    def on_reassign(ctx):
        old = ctx["old_value"]
        new = ctx["new_value"]
        if old is not None:
            old.part_count -= 1
        new.part_count += 1

    db.rule("CountNewParts", FlowEventSpec(FlowEventKind.PERSIST),
            condition=lambda ctx: isinstance(ctx["instance"], Part),
            action=on_new_part, coupling=CouplingMode.IMMEDIATE)
    db.rule("MoveCounts", StateChangeEventSpec("Part", "supplier"),
            condition=lambda ctx: ctx["had_old_value"],
            action=on_reassign, coupling=CouplingMode.IMMEDIATE)

    # --- referential integrity, checked at EOT --------------------------
    def check_supplier_alive(ctx):
        part = ctx["instance"]
        if not ctx.db.persistence.is_persistent(part.supplier):
            raise ValueError(
                f"part {part.pid} references a non-persistent supplier")

    db.rule("SupplierExists", MethodEventSpec("Part", "reassign"),
            action=check_supplier_alive,
            coupling=CouplingMode.DEFERRED, critical=True)

    # --- index maintained actively --------------------------------------
    db.create_index("Part", "pid")

    print("== load parts ==")
    parts = []
    with db.transaction():
        for index in range(6):
            part = Part(f"P{index}", acme if index < 4 else globex)
            db.persist(part, f"P{index}")
            parts.append(part)
    print(f"view: acme={acme.part_count} globex={globex.part_count}")
    assert (acme.part_count, globex.part_count) == (4, 2)

    print("\n== reassign one part; view follows ==")
    with db.transaction():
        parts[0].reassign(globex)
    print(f"view: acme={acme.part_count} globex={globex.part_count}")
    assert (acme.part_count, globex.part_count) == (3, 3)

    print("\n== aborted reassignment leaves the view exact ==")
    try:
        with db.transaction():
            parts[1].reassign(globex)
            raise RuntimeError("changed our mind")
    except RuntimeError:
        pass
    print(f"view: acme={acme.part_count} globex={globex.part_count}")
    assert (acme.part_count, globex.part_count) == (3, 3)

    print("\n== referential integrity vetoes a dangling reference ==")
    rogue = Supplier("fly-by-night")   # never persisted
    try:
        with db.transaction():
            parts[2].reassign(rogue)
    except TransactionAborted as exc:
        print(f"commit vetoed: {exc}")
    assert parts[2].supplier is acme   # rolled back

    print("\n== the actively maintained index answers queries ==")
    rows = db.query("select x.supplier.name from Part x "
                    "where x.pid == 'P5'")
    print(f"P5 is supplied by: {rows}")
    stats = db.query_processor.stats
    print(f"index lookups: {stats['index_lookups']}, "
          f"extent scans: {stats['extent_scans']}")
    assert stats["index_lookups"] >= 1
    db.close()


if __name__ == "__main__":
    main()
