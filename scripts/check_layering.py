#!/usr/bin/env python3
"""Layering lint: lock in the engine/session layer boundaries.

The kernel refactor split the stack into explicit layers::

    bench / layered / mediator / server     (top: harnesses, baselines, wire)
    core                                    (engine, sessions, rules)
    oodb                                    (tx, locks, sentry, query)
    storage                                 (pages, WAL, buffer pool)
    obs / faults                            (metrics, tracing, fault points)
    errors / config / clock / expr          (leaf utility modules)

A layer may import from layers strictly below it (and from itself).
This script walks every module under ``src/repro`` with the ast module —
no imports are executed — and fails the build when an upward import
appears, e.g. ``repro.oodb`` importing ``repro.core`` or ``repro.obs``
importing anything above the leaves.  Every top-level ``repro.<x>``
module or package must have a rank, and every rank must name one, so a
new layer cannot slip past the check and a stale rank cannot linger.

One audited exception: ``repro.storage`` may import ``repro.oodb.oid``
(OID/ObjectRef are leaf value types the serializer must know; moving
them would churn every call site for no structural gain).

Usage: ``python scripts/check_layering.py [src-root]`` — exits non-zero
listing every violation.
"""

from __future__ import annotations

import ast
import os
import sys

#: top-level segment of repro.* -> rank; lower ranks must not import
#: higher ones.  Same-rank imports are always allowed.
LAYER_RANK = {
    "errors": 0,
    "config": 0,
    "clock": 0,
    "expr": 0,
    "obs": 1,
    "faults": 1,
    "storage": 2,
    "oodb": 3,
    "core": 4,
    "bench": 5,
    "layered": 5,
    "mediator": 5,
    "server": 5,
}

#: (importing layer, imported dotted-module prefix) pairs exempted from
#: the rank check.  Keep this list short and justified.
EXCEPTIONS = {
    # OID/ObjectRef are leaf value types the serializer round-trips.
    ("storage", "repro.oodb.oid"),
}


def layer_of(module: str) -> str | None:
    """``repro.oodb.locks`` -> ``oodb``; top-level ``repro`` -> None."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    return parts[1]


def imported_modules(path: str) -> list[tuple[int, str]]:
    """(lineno, dotted module) for every repro import in ``path``."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    found.append((node.lineno, alias.name))
        elif isinstance(node, ast.ImportFrom):
            if node.level:    # relative imports stay within one layer
                continue
            if node.module and node.module.split(".")[0] == "repro":
                found.append((node.lineno, node.module))
    return found


def module_name(root: str, path: str) -> str:
    relative = os.path.relpath(path, root)
    dotted = relative[:-len(".py")].replace(os.sep, ".")
    if dotted.endswith(".__init__"):
        dotted = dotted[:-len(".__init__")]
    return dotted


def check(src_root: str) -> list[str]:
    violations = []
    seen_layers = set()
    repro_root = os.path.join(src_root, "repro")
    for dirpath, __, filenames in os.walk(repro_root):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            importer = module_name(src_root, path)
            importer_layer = layer_of(importer)
            if importer_layer is None:
                continue
            if importer_layer not in LAYER_RANK:
                violations.append(
                    f"{path}: {importer} is in 'repro.{importer_layer}', "
                    "which has no layer rank — add it to LAYER_RANK")
                continue
            seen_layers.add(importer_layer)
            rank = LAYER_RANK[importer_layer]
            for lineno, imported in imported_modules(path):
                imported_layer = layer_of(imported)
                if imported_layer is None or \
                        imported_layer not in LAYER_RANK:
                    continue
                if LAYER_RANK[imported_layer] <= rank:
                    continue
                if any(imported == prefix or
                       imported.startswith(prefix + ".")
                       for layer, prefix in EXCEPTIONS
                       if layer == importer_layer):
                    continue
                violations.append(
                    f"{path}:{lineno}: {importer} (layer "
                    f"'{importer_layer}') imports {imported} (layer "
                    f"'{imported_layer}') — upward import crosses the "
                    "layer boundary")
    for layer in sorted(set(LAYER_RANK) - seen_layers):
        violations.append(
            f"{repro_root}: LAYER_RANK ranks 'repro.{layer}', which names "
            "no module — drop the rank")
    return violations


def main() -> int:
    src_root = sys.argv[1] if len(sys.argv) > 1 else "src"
    if not os.path.isdir(os.path.join(src_root, "repro")):
        print(f"error: {src_root!r} does not contain a repro package",
              file=sys.stderr)
        return 2
    violations = check(src_root)
    if violations:
        print(f"{len(violations)} layering violation(s):\n")
        for violation in violations:
            print(f"  {violation}")
        return 1
    print("layering OK: obs < storage < oodb < core < harnesses")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
