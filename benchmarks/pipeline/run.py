"""One pipeline benchmark: ``python3 benchmarks/pipeline/run.py``.

The driver's form runs one pass of one workload::

    python3 benchmarks/pipeline/run.py --workload oltp_durable --seed 1 \
        --seconds 20 --trace 0

and prints, as the last line of standard output, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics`` — every
end-to-end metric of BENCHMARK.json with ``--trace 0``, every per-layer
metric with ``--trace 1``.  Without ``--workload`` all four run; with
``--trace both`` both passes run; several passes run one after the
other, each in a process of its own like the driver's.  ``--out F`` also
writes the full result document (per-round values and spread) that
``compare.py`` reads.
A smoke pass is ``--seconds 2 --trace both``: one short round per arm.
Exit status is 1 when an oracle check or an operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def parse(argv=None) -> argparse.Namespace:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    workloads = [entry["name"] for entry in manifest["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=workloads,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(manifest["run_seconds"]),
                        help="measured time per pass (default: run_seconds)")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0",
                        help="0: end-to-end pass, 1: traced pass")
    parser.add_argument("--out", help="write the full result document here")
    parser.add_argument("--workdir",
                        help="parent of the scratch directory "
                             "(default: benchmarks/pipeline/out)")
    args = parser.parse_args(argv)
    args.manifest = manifest
    args.workloads = [args.workload] if args.workload else workloads
    args.passes = {"0": [False], "1": [True],
                   "both": [False, True]}[args.trace]
    return args


def commit_id() -> str:
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"        # the driver's checkout is not a repository


def run_child(name: str, trace: bool, args: argparse.Namespace,
              workdir) -> dict:
    """One pass in a process of its own, as the driver runs it, so that
    the memory one pass leaves behind is not the next one's baseline.
    Returns the pass's section of the result document."""
    out = os.path.join(workdir.fresh("result"), "result.json")
    child = subprocess.Popen([
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--trace", str(int(trace)), "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--workdir", workdir.path,
        "--out", out])
    try:
        child.wait()
    finally:
        if child.poll() is None:
            child.terminate()
            child.wait()
    if not os.path.exists(out):
        raise SystemExit(f"{name}, --trace {int(trace)}: the pass ended "
                         f"with status {child.returncode} and no result")
    with open(out) as handle:
        return json.load(handle)["workloads"][name]


def main(argv=None) -> int:
    args = parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"{ROOT} holds no src/repro: nothing to benchmark",
              file=sys.stderr)
        return 2
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from benchmarks.pipeline import harness
    from benchmarks.pipeline.workloads import OPEN_RATES

    harness.terminate_on_sigterm()
    document = {
        "meta": {
            "command": args.manifest["command"], "seed": args.seed,
            "seconds": args.seconds,
            "commit": commit_id(), "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "open_rates_tx_s": list(OPEN_RATES),
        },
        "workloads": {},
    }
    jobs = [(name, trace) for name in args.workloads
            for trace in args.passes]
    with harness.Workdir(args.workdir) as workdir:
        for name, trace in jobs:
            if len(jobs) > 1:
                section = run_child(name, trace, args, workdir)
            else:
                result = harness.run_pass(name, args.seed, args.seconds,
                                          trace, workdir, args.manifest)
                report(result)
                section = {"per_layer" if trace else "end_to_end":
                           result["metrics"]}
                for key in ("correct", "attempted", "failed"):
                    section[f"{key}.trace{int(trace)}"] = result[key]
            document["workloads"].setdefault(name, {}).update(section)

    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, trace in jobs:
        section = document["workloads"][name]
        prefix = f"{name}/trace{int(trace)}/" if len(jobs) > 1 else ""
        for metric, entry in \
                section["per_layer" if trace else "end_to_end"].items():
            summary["metrics"][prefix + metric] = {
                "value": entry["value"], "unit": entry["unit"]}
        summary["correct"] &= section[f"correct.trace{int(trace)}"]
        summary["attempted"] += section[f"attempted.trace{int(trace)}"]
        summary["failed"] += section[f"failed.trace{int(trace)}"]
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def report(result: dict) -> None:
    """Every metric by name with its unit, then the stage table."""
    kind = "per-layer (traced)" if result["trace"] else "end-to-end"
    print(f"== {result['workload']}: {kind} ==")
    for name, entry in result["metrics"].items():
        spread = ""
        if entry["samples"] > 1:
            spread = (f"  [p25 {entry['p25']:.4g}  p75 {entry['p75']:.4g}"
                      f"  n={entry['samples']}  {entry['method']}]")
        print(f"  {name:48s} {entry['value']:14.4f} {entry['unit']:6s}"
              f"{spread}")
    for line in result.get("stage_table", ()):
        print("  " + line)
    for message in result["mismatches"]:
        print(f"  MISMATCH {message}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}", flush=True)


if __name__ == "__main__":
    raise SystemExit(main())
