"""Smoke test of the pipeline benchmark (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/pipeline -q``: one
``--seconds 2`` pass of every workload, traced and untraced, about a
minute.
Checks that every name in BENCHMARK.json is emitted, finite and
unit-tagged, that spans are well formed, that the contract's output
shape holds, and that nothing survives the run.
"""

from __future__ import annotations

import copy
import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, ROOT)

from benchmarks.pipeline import compare  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    MANIFEST = json.load(_handle)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def server_children() -> list[str]:
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                command = handle.read().decode(errors="replace")
        except OSError:
            continue
        if os.path.join(HERE, "serve.py") in command:
            found.append(pid)
    return found


def test_manifest_is_within_the_contract():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert all(set(m) == {"name", "unit", "better", "bound"}
               for m in MANIFEST["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"}
               for m in MANIFEST["per_layer"])
    every = [m["name"] for m in MANIFEST["end_to_end"]
             + MANIFEST["per_layer"] + MANIFEST["workloads"]]
    assert len(every) == len(set(every))
    assert all(NAME.match(name) for name in every)
    assert all(UNIT.match(m["unit"])
               for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in MANIFEST["workloads"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in MANIFEST["end_to_end"])
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert len(MANIFEST["end_to_end"]) <= 16
    assert len(MANIFEST["per_layer"]) <= 128
    # set-ups, warm-up and oracle add 2 to 4 s to a run, 13 s on
    # oltp_durable (it redoes 200 transactions and verifies 2,000 accounts)
    overhead = {"oltp_durable": 14}
    per_workload = sum(MANIFEST["run_seconds"] + overhead.get(w["name"], 5)
                       for w in MANIFEST["workloads"])
    assert 22 * per_workload + 4 * (MANIFEST["run_seconds"] + 14) <= 3420


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """All four workloads, both passes, one short round per arm."""
    out = str(tmp_path_factory.mktemp("quick") / "result.json")
    done = run("--seconds", "2", "--trace", "both", "--seed", "7",
               "--out", out)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    with open(out) as handle:
        return done, json.load(handle), out


def test_every_named_metric_is_emitted_finite_and_unit_tagged(quick):
    _, document, _ = quick
    assert set(document["workloads"]) == {
        w["name"] for w in MANIFEST["workloads"]}
    for name, section in document["workloads"].items():
        for kind in ("end_to_end", "per_layer"):
            wanted = {m["name"]: m["unit"] for m in MANIFEST[kind]}
            assert set(section[kind]) == set(wanted), (name, kind)
            for metric, entry in section[kind].items():
                assert math.isfinite(entry["value"]), (name, metric)
                assert entry["unit"] == wanted[metric], (name, metric)
        for metric, entry in section["end_to_end"].items():
            assert entry["value"] > 0, (name, metric)
        assert section["correct.trace0"] and section["correct.trace1"]
        assert section["per_layer"]["fail_ratio"]["value"] == 0


def test_spans_are_well_formed(quick):
    for workload in (w["name"] for w in MANIFEST["workloads"]):
        path = os.path.join(HERE, "out", f"spans-{workload}.jsonl")
        with open(path) as handle:
            spans = [json.loads(line) for line in handle]
        assert spans, workload
        by_key = {(s.get("process", "bench"), s["index"]): s for s in spans}
        children: dict[tuple, int] = {}
        threads: dict[tuple, list[dict]] = {}
        for span in spans:
            process = span.get("process", "bench")
            assert span["end"] >= span["start"]
            assert span["layer"] and span["name"]
            threads.setdefault((process, span["thread"]), []).append(span)
            parent = by_key.get((process, span["parent"]))
            if parent is not None:       # a dropped parent cannot be checked
                assert parent["thread"] == span["thread"]
                assert parent["start"] <= span["start"]
                assert span["end"] <= parent["end"]
                key = (process, span["parent"])
                children[key] = children.get(key, 0) \
                    + span["end"] - span["start"]
        for key, covered in children.items():
            parent = by_key[key]
            assert covered <= parent["end"] - parent["start"]
        for members in threads.values():
            wall = max(s["end"] for s in members) \
                - min(s["start"] for s in members)
            own = sum(s["end"] - s["start"]
                      - children.get((s.get("process", "bench"),
                                      s["index"]), 0) for s in members)
            assert own <= wall


def test_contract_output_of_one_pass():
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        done = run("--workload", "active_cpu", "--seed", "3", "--seconds",
                   "1", "--trace", trace)
        assert done.returncode == 0, done.stderr[-3000:]
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in MANIFEST[kind]]
        for entry in result["metrics"].values():
            assert set(entry) == {"value", "unit"}


def test_compare_agrees_with_itself(quick, capsys):
    _, _, out = quick
    assert compare.main([out, out]) == 0
    table = capsys.readouterr().out
    assert "oltp_durable" in table and "tx_per_s" in table


def drifting_run(scale: float = 1.0) -> dict:
    """A result document shaped like ``oltp_durable``: ten rounds whose
    rate halves over the run, the latency rising with it."""
    rates = [scale * 100 / (1 + index / 9) for index in range(10)]
    latency = [1e3 / rate for rate in rates]
    entries = {}
    for metric in MANIFEST["end_to_end"]:
        rounds = rates if metric["better"] == "higher" else latency
        entries[metric["name"]] = {
            "value": compare.statistics.median(rounds), "rounds": rounds}
    return {"workloads": {"oltp_durable": {"end_to_end": entries}}}


def test_compare_fails_on_a_planted_regression(tmp_path):
    """Drift over the run is not noise: a run at half the speed of a
    drifting reference is resolved, and worse."""
    reference, slower = drifting_run(), drifting_run(0.5)
    rows = compare.compare(reference, slower, MANIFEST)
    assert {row["verdict"] for row in rows} == {"WORSE"}
    # rounds that disagree by more than the bound are reported, not judged
    noisy = copy.deepcopy(reference)
    entry = noisy["workloads"]["oltp_durable"]["end_to_end"]["tx_per_s"]
    entry["rounds"] = [rate * (2 if index % 2 else 1)
                       for index, rate in enumerate(entry["rounds"])]
    rows = compare.compare(reference, noisy, MANIFEST)
    assert [row["verdict"] for row in rows
            if row["metric"] == "tx_per_s"] == ["unresolved"]
    paths = []
    for document in (reference, slower, noisy):
        paths.append(str(tmp_path / f"{len(paths)}.json"))
        with open(paths[-1], "w") as handle:
            json.dump(document, handle)
    assert compare.main([paths[0], paths[0]]) == 0
    assert compare.main([paths[0], paths[1]]) == 1
    assert compare.main([paths[0], paths[2]]) == 2


def test_nothing_survives_the_run(quick):
    assert server_children() == []
    leftovers = [entry for entry in os.listdir(os.path.join(HERE, "out"))
                 if entry.startswith("work-")]
    assert leftovers == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    target = tmp_path / "benchmarks" / "pipeline"
    shutil.copytree(HERE, target, ignore=shutil.ignore_patterns(
        "out", "__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, str(target / "run.py"), "--workload", "wire",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert not done.stdout.strip()
