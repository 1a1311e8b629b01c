"""Rule definition and management tooling.

The paper's ongoing work includes "the implementation of a GUI for rule
definition and management" (Section 7).  This module is the
reproduction's equivalent: an inspector producing human-readable reports
over a live :class:`~repro.core.engine.ReachEngine` — rules and their
firing statistics, ECA-managers and composers with their semi-composed
state, the merged event history — plus a small CLI for examining a
database directory offline (``python -m repro.management <dir>``).
"""

from __future__ import annotations

import sys
from typing import Any, Optional

from repro.core.coupling import format_table1


def format_event_tree(spec: Any, indent: str = "") -> str:
    """Render an event-algebra expression as an indented tree.

    The management analog of the paper's planned rule-definition GUI:
    makes nested composites legible at a glance::

        Sequence [single transaction, chronicle]
        ├─ after River.update_water_level()
        └─ Conjunction [single transaction, chronicle]
           ├─ signal 'ack'
           └─ on commit
    """
    from repro.core.algebra import CompositeEventSpec

    if not isinstance(spec, CompositeEventSpec):
        return f"{indent}{spec.describe()}"
    header = (f"{indent}{type(spec).__name__} "
              f"[{spec.resolved_scope().value}, "
              f"{spec.consumption.value}"
              + (f", within {spec.validity}s" if spec.validity else "")
              + "]")
    lines = [header]
    children = spec.children()
    for position, child in enumerate(children):
        last = position == len(children) - 1
        connector = "└─ " if last else "├─ "
        child_indent = indent + ("   " if last else "│  ")
        rendered = format_event_tree(child, child_indent)
        # Replace the child's first-line indent with the connector.
        first, *rest = rendered.split("\n")
        lines.append(indent + connector + first[len(child_indent):])
        lines.extend(rest)
    return "\n".join(lines)


def describe_rules(db: Any) -> str:
    """Tabulate every registered rule with coupling, priority, stats."""
    lines = [f"{'rule':24s} {'event':38s} {'cond/action coupling':28s} "
             f"{'prio':>4s} {'fired':>6s} {'rej':>5s} {'on':>3s}"]
    for rule in sorted(db.rules(), key=lambda r: (-r.priority,
                                                  r.created_seq)):
        coupling = rule.cond_coupling.value
        if rule.action_coupling is not rule.cond_coupling:
            coupling += f" / {rule.action_coupling.value}"
        lines.append(
            f"{rule.name:24.24s} {rule.event.describe():38.38s} "
            f"{coupling:28.28s} {rule.priority:>4d} "
            f"{rule.fired_count:>6d} {rule.condition_rejections:>5d} "
            f"{'yes' if rule.enabled else 'no':>3s}")
    if len(lines) == 1:
        lines.append("(no rules registered)")
    return "\n".join(lines)


def describe_eca_managers(db: Any) -> str:
    """List primitive and composite ECA-managers with their load."""
    lines = ["primitive ECA-managers:"]
    for manager in db.events.primitive_managers():
        lines.append(
            f"  {manager.spec.describe():40.40s} rules={len(manager.rules)} "
            f"listeners={len(manager.listeners)} "
            f"handled={manager.handled} history={len(manager.history)}")
    if len(lines) == 1:
        lines.append("  (none)")
    lines.append("composite ECA-managers:")
    before = len(lines)
    for manager in db.events.composite_managers():
        composer = manager.composer
        lines.append(
            f"  {composer.name:40.40s} rules={len(manager.rules)} "
            f"scope={composer.scope.value} "
            f"pending={composer.pending_count()} "
            f"emitted={composer.emitted} gc={composer.gc_removed}")
    if len(lines) == before:
        lines.append("  (none)")
    return "\n".join(lines)


def describe_history(db: Any, limit: int = 20) -> str:
    """The tail of the merged global event history."""
    entries = db.history.entries()[-limit:]
    if not entries:
        return "(global history is empty)"
    lines = [f"{'seq':>6s} {'time':>10s} {'txs':12s} event"]
    for occ in entries:
        txs = ",".join(str(t) for t in sorted(occ.tx_ids)) or "-"
        lines.append(f"{occ.seq:>6d} {occ.timestamp:>10.3f} {txs:12.12s} "
                     f"{occ.spec.describe()}")
    return "\n".join(lines)


def describe_firings(db: Any, limit: int = 20) -> str:
    """The tail of the rule firing log."""
    records = list(db.scheduler.firing_log)[-limit:]
    if not records:
        return "(no firings recorded)"
    lines = [f"{'rule':24s} {'mode':30s} {'phase':7s} {'outcome':16s} "
             f"{'tx':>5s}"]
    for record in records:
        lines.append(f"{record.rule_name:24.24s} {record.mode.value:30.30s} "
                     f"{record.phase:7s} {record.outcome:16s} "
                     f"{record.tx_id if record.tx_id else '-':>5}")
    return "\n".join(lines)


def explain_event(db: Any, seq: int) -> str:
    """Explain one event occurrence end to end.

    The paper notes debugging tools for active rules were "just emerging"
    (Section 6.4, citing the DEAR debugger); this is the reproduction's
    equivalent: given an occurrence's global sequence number (from the
    history report), show the occurrence, its components, and every rule
    firing it caused with outcome and coupling mode.
    """
    occurrence = None
    for manager in (db.events.primitive_managers()
                    + db.events.composite_managers()):
        for occ in manager.history.entries():
            if occ.seq == seq:
                occurrence = occ
                break
        if occurrence is not None:
            break
    if occurrence is None:
        for occ in db.history.entries():
            if occ.seq == seq:
                occurrence = occ
                break
    if occurrence is None:
        return f"(no recorded occurrence with seq={seq})"

    lines = [f"event seq={seq}: {occurrence.spec.describe()}",
             f"  at {occurrence.timestamp:.3f}, transactions "
             f"{sorted(occurrence.tx_ids) or '(none)'}",
             f"  category: {occurrence.category.value}"]
    if occurrence.components:
        lines.append("  composed from:")
        for component in occurrence.all_primitive_components():
            lines.append(f"    seq={component.seq} "
                         f"{component.spec.describe()} "
                         f"@{component.timestamp:.3f}")
    interesting = {key: value
                   for key, value in occurrence.parameters.items()
                   if key not in ("instance", "args", "kwargs", "result")}
    if interesting:
        lines.append(f"  parameters: {interesting}")
    firings = [record for record in list(db.scheduler.firing_log)
               if record.event_seq == seq]
    if firings:
        lines.append("  rule firings:")
        for record in firings:
            lines.append(f"    {record.rule_name} "
                         f"[{record.mode.value}/{record.phase}] "
                         f"-> {record.outcome}"
                         + (f" (tx {record.tx_id})"
                            if record.tx_id else ""))
    else:
        lines.append("  rule firings: none")
    return "\n".join(lines)


def status_report(db: Any) -> str:
    """One full management report (everything above + Figure 1 + stats)."""
    stats = db.statistics()
    events = stats["events"]
    inventory = db.architecture_inventory()
    sections = [
        "=" * 72,
        "REACH database status report",
        "=" * 72,
        "",
        "-- architecture (Figure 1) --",
        *[f"  [{m}]" for m in inventory["policy_managers"]],
        *[f"  ({s})" for s in inventory["support_modules"]],
        "",
        "-- rules --",
        describe_rules(db),
        "",
        "-- ECA-managers --",
        describe_eca_managers(db),
        "",
        "-- recent firings --",
        describe_firings(db),
        "",
        "-- statistics --",
        f"  transactions: {stats['transactions']}",
        f"  scheduler:    {stats['scheduler']}",
        f"  events detected: {events['detected']}, "
        f"semi-composed pending: {events['semi_composed_pending']}",
        f"  storage: {stats['storage']}",
        "",
        "-- Table 1 (coupling support) --",
        format_table1(),
    ]
    return "\n".join(sections)


def inspect_directory(directory: str) -> str:
    """Offline inspection of a database directory (catalog + storage)."""
    from repro.oodb.data_dictionary import CATALOG_OID
    from repro.storage.serializer import deserialize
    from repro.storage.storage_manager import StorageManager

    storage = StorageManager(directory)
    try:
        lines = [f"database directory: {directory}",
                 f"stored objects: {storage.object_count()}",
                 f"storage stats: {storage.stats()}"]
        if storage.exists(None, CATALOG_OID):
            catalog = deserialize(storage.read(None, CATALOG_OID))
            names = catalog.get("names", {})
            classes = catalog.get("classes_of", {})
            by_class: dict[str, int] = {}
            for class_name in classes.values():
                by_class[class_name] = by_class.get(class_name, 0) + 1
            lines.append(f"next OID: {catalog.get('next_oid')}")
            lines.append("extents:")
            for class_name, count in sorted(by_class.items()):
                lines.append(f"  {class_name}: {count}")
            lines.append("persistent names:")
            for name, oid_value in sorted(names.items()):
                lines.append(f"  {name!r} -> OID({oid_value})")
        else:
            lines.append("(no catalog: empty or pre-first-commit database)")
        return "\n".join(lines)
    finally:
        storage.close()


def main(argv: Optional[list[str]] = None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    if len(argv) != 1:
        print("usage: python -m repro.management <database-directory>",
              file=sys.stderr)
        return 2
    print(inspect_directory(argv[0]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
