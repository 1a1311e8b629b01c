"""Shared helpers for the benchmark harnesses.

Each harness regenerates one artifact of the paper (a table, a figure, or
a quantified claim).  Besides the pytest-benchmark timing table, every
harness writes its reproduced rows to ``benchmarks/results/<exp>.txt`` so
the paper-vs-measured comparison in EXPERIMENTS.md can be refreshed from a
single run.
"""

from __future__ import annotations

import os
from typing import Any

import pytest

from repro.bench.metrics import merge_bench_json

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
BENCH_OBS_PATH = os.path.join(RESULTS_DIR, "BENCH_obs.json")
BENCH_SESSIONS_PATH = os.path.join(RESULTS_DIR, "BENCH_sessions.json")
BENCH_FAULTS_PATH = os.path.join(RESULTS_DIR, "BENCH_faults.json")
BENCH_CONTENTION_PATH = os.path.join(RESULTS_DIR, "BENCH_contention.json")
BENCH_SHARDS_PATH = os.path.join(RESULTS_DIR, "BENCH_shards.json")
BENCH_SERVER_PATH = os.path.join(RESULTS_DIR, "BENCH_server.json")
BENCH_TRACE_LATENCY_PATH = os.path.join(RESULTS_DIR,
                                        "BENCH_trace_latency.json")


def report(experiment: str, lines: list[str]) -> str:
    """Persist and return the reproduced rows for one experiment."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    text = "\n".join(lines) + "\n"
    path = os.path.join(RESULTS_DIR, f"{experiment}.txt")
    with open(path, "w") as f:
        f.write(text)
    return text


def obs_report(experiment: str, payload: dict[str, Any]) -> dict[str, Any]:
    """Merge one experiment's metrics into ``results/BENCH_obs.json``."""
    return merge_bench_json(BENCH_OBS_PATH, experiment, payload)


@pytest.fixture
def results_report():
    return report


def sessions_report(experiment: str, payload: dict[str, Any]) -> dict[str, Any]:
    """Merge one experiment's metrics into ``results/BENCH_sessions.json``."""
    return merge_bench_json(BENCH_SESSIONS_PATH, experiment, payload)


@pytest.fixture
def bench_obs_report():
    return obs_report


@pytest.fixture
def bench_sessions_report():
    return sessions_report


def faults_report(experiment: str, payload: dict[str, Any]) -> dict[str, Any]:
    """Merge one experiment's metrics into ``results/BENCH_faults.json``."""
    return merge_bench_json(BENCH_FAULTS_PATH, experiment, payload)


@pytest.fixture
def bench_faults_report():
    return faults_report


def contention_report(experiment: str,
                      payload: dict[str, Any]) -> dict[str, Any]:
    """Merge one experiment's metrics into ``results/BENCH_contention.json``."""
    return merge_bench_json(BENCH_CONTENTION_PATH, experiment, payload)


@pytest.fixture
def bench_contention_report():
    return contention_report


def shards_report(experiment: str, payload: dict[str, Any]) -> dict[str, Any]:
    """Merge one experiment's metrics into ``results/BENCH_shards.json``."""
    return merge_bench_json(BENCH_SHARDS_PATH, experiment, payload)


@pytest.fixture
def bench_shards_report():
    return shards_report


def server_report(experiment: str, payload: dict[str, Any]) -> dict[str, Any]:
    """Merge one experiment's metrics into ``results/BENCH_server.json``."""
    return merge_bench_json(BENCH_SERVER_PATH, experiment, payload)


@pytest.fixture
def bench_server_report():
    return server_report


def trace_latency_report(experiment: str,
                         payload: dict[str, Any]) -> dict[str, Any]:
    """Merge one experiment's metrics into
    ``results/BENCH_trace_latency.json``."""
    return merge_bench_json(BENCH_TRACE_LATENCY_PATH, experiment, payload)


@pytest.fixture
def bench_trace_latency_report():
    return trace_latency_report
