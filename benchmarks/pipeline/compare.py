"""Compare two result documents: ``compare.py A.json B.json``.

``A`` is the reference (the parent commit, or the first of two runs of
one commit), ``B`` the candidate, both written by ``run.py --out`` with
the same seed and ``--seconds``.  One row per workload and end-to-end
metric: how much worse ``B``'s value is than ``A``'s as a share of
``A``'s, against the metric's bound in BENCHMARK.json.

The *spread* of a row is measured on the rounds the two values were
made from.  Round k of both runs covers the same stretch of the same
seeded stream, so the program's own drift over a run (``oltp_durable``
halves its rate in 24 s) is in both and cancels in the ratio
``B[k] / A[k]``; what is left is noise.  The spread is the distance from
the first to the third quartile of those ratios as a share of their
median.  A row whose spread exceeds the bound is *unresolved*: rounds of
these two runs disagree by more than the change to be detected, so the
row is reported, not judged.  (Rounds are paired by time, not by
database state: a run that is slow early has a smaller data file later
and is fast late, which shows as spread.)

Exit status: 1 when a resolved row is worse by more than its bound,
2 when none is but a row is unresolved, 0 when every row is within its
bound.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from benchmarks.pipeline import stats  # noqa: E402


def spread(a: dict, b: dict) -> float:
    ratios = [theirs / ours
              for ours, theirs in zip(a["rounds"], b["rounds"]) if ours]
    if len(ratios) < 2:
        return 0.0
    first, third = stats.quartiles(ratios)
    return (third - first) / statistics.median(ratios)


def compare(reference: dict, candidate: dict, manifest: dict) -> list[dict]:
    rows = []
    for workload in (entry["name"] for entry in manifest["workloads"]):
        ours = reference["workloads"].get(workload, {}).get("end_to_end")
        theirs = candidate["workloads"].get(workload, {}).get("end_to_end")
        if not ours or not theirs:
            continue
        for metric in manifest["end_to_end"]:
            name = metric["name"]
            if name not in ours or name not in theirs:
                continue
            a, b = ours[name], theirs[name]
            change = (b["value"] - a["value"]) / a["value"] \
                if a["value"] else 0.0
            worse = -change if metric["better"] == "higher" else change
            noise = spread(a, b)
            if noise > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "WORSE"
            else:
                verdict = "ok"
            rows.append({"workload": workload, "metric": name,
                         "unit": metric["unit"], "a": a["value"],
                         "b": b["value"], "worse": worse, "noise": noise,
                         "bound": metric["bound"], "verdict": verdict})
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 64
    documents = []
    for path in argv:
        with open(path) as handle:
            documents.append(json.load(handle))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    rows = compare(documents[0], documents[1], manifest)
    print(f"{'workload':16s} {'metric':20s} {'A':>12s} {'B':>12s} "
          f"{'worse by':>9s} {'bound':>6s} {'spread':>7s}  verdict")
    for row in rows:
        print(f"{row['workload']:16s} {row['metric']:20s} "
              f"{row['a']:12.4f} {row['b']:12.4f} {row['worse']:+9.1%} "
              f"{row['bound']:6.0%} {row['noise']:7.1%}  {row['verdict']}")
    verdicts = [row["verdict"] for row in rows]
    print(f"{verdicts.count('ok')} ok, {verdicts.count('unresolved')} "
          f"unresolved, {verdicts.count('WORSE')} worse")
    if "WORSE" in verdicts:
        return 1
    return 2 if "unresolved" in verdicts else 0


if __name__ == "__main__":
    raise SystemExit(main())
