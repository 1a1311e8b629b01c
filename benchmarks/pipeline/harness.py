"""Runs one workload: set-up, warm-up, interleaved rounds, oracle, metrics.

Two kinds of pass exist.  The **end-to-end pass** (``--trace 0``) sets
the workload up several times (``setup_s`` is the median), then measures
``seconds`` of rounds on the primary arm with nothing wrapped.  The
**traced pass** (``--trace 1``) measures every arm the same way, then
installs the span wrappers of :mod:`spans`, builds a second instance of
the workload and measures its primary arm again, in as many rounds of
the same length as the untraced primary arm got; the two give
``bench.trace_overhead_ratio`` and the per-layer metrics.
"""

from __future__ import annotations

import os
import shutil
import signal
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.storage.pages import PAGE_SIZE

from benchmarks.pipeline import spans, stats
from benchmarks.pipeline.workloads import (
    OPEN_LIMIT_MS,
    OPEN_RATES,
    WORKLOADS,
    Round,
    Workload,
)

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")

#: The layers (= modules) whose self times count as attributed.
LAYERS = (
    "server.client", "server.protocol", "server.server", "core.session",
    "core.sharding", "oodb.transactions", "oodb.sentry", "core.eca_manager",
    "core.composer", "core.scheduler", "core.history", "oodb.locks",
    "oodb.persistence", "storage.serializer", "storage.wal",
    "storage.storage_manager", "storage.buffer",
)
STORAGE_LAYERS = ("oodb.persistence", "storage.serializer", "storage.wal",
                  "storage.storage_manager", "storage.buffer")

SETUP_REPEATS = 7
MIN_SEGMENT_S = 1.25
MAX_ROUNDS = 10
WARMUP_S = 0.5
#: The parent writes ~15 MB/s of WAL on the durable workloads.
MIN_FREE_BYTES = 2 << 30


def plan_rounds(seconds: float, units: int) -> tuple[int, float]:
    """Rounds per unit and the length of one segment, for ``units`` arms
    (the traced repeat of the primary arm counts as one more) that share
    ``seconds``."""
    rounds = max(1, min(MAX_ROUNDS, int(seconds / units / MIN_SEGMENT_S)))
    return rounds, seconds / (rounds * units)


@dataclass
class Phase:
    """What one measured stretch of rounds produced."""

    rounds: dict[str, list[Round]] = field(default_factory=dict)
    windows: list[tuple[str, int, int]] = field(default_factory=list)
    before: dict[str, float] = field(default_factory=dict)
    after: dict[str, float] = field(default_factory=dict)
    rss_before: int = 0
    rss_after: int = 0
    final: dict[str, Any] = field(default_factory=dict)
    drained: dict[str, Any] = field(default_factory=dict)
    summary: Optional[dict[str, Any]] = None

    def delta(self, key: str) -> float:
        return self.after.get(key, 0) - self.before.get(key, 0)

    def arm(self, name: str) -> list[Round]:
        return self.rounds.get(name, [])

    def committed(self, arm: Optional[str] = None) -> int:
        selected = [self.arm(arm)] if arm else self.rounds.values()
        return sum(r.committed for rounds in selected for r in rounds)

    def attempted(self) -> int:
        return sum(r.attempted for rounds in self.rounds.values()
                   for r in rounds)

    def failed(self) -> int:
        return sum(r.failed for rounds in self.rounds.values()
                   for r in rounds) + len(self.final.get("mismatches", ()))


class Workdir:
    """A scratch directory under ``out/`` that is gone on every exit path."""

    def __init__(self, root: Optional[str] = None):
        self.root = root or OUT
        self.path: Optional[str] = None

    def __enter__(self) -> "Workdir":
        os.makedirs(self.root, exist_ok=True)
        free = shutil.disk_usage(self.root).free
        if free < MIN_FREE_BYTES:
            raise SystemExit(
                f"only {free >> 20} MiB free under {self.root}; the durable "
                f"workloads need {MIN_FREE_BYTES >> 20} MiB of headroom")
        self.path = tempfile.mkdtemp(prefix="work-", dir=self.root)
        return self

    def fresh(self, label: str) -> str:
        return tempfile.mkdtemp(prefix=f"{label}-", dir=self.path)

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def terminate_on_sigterm() -> None:
    """SIGTERM unwinds like Ctrl-C, so ``finally`` blocks reap the server
    child and remove the workdir."""
    def handler(signum, frame):
        raise KeyboardInterrupt(f"signal {signum}")
    signal.signal(signal.SIGTERM, handler)


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------


def measure(workload: Workload, arms: tuple[str, ...], rounds: int,
            segment: float, crash: bool, traced: bool = False) -> Phase:
    """``rounds`` segments of ``segment`` seconds on each of ``arms``."""
    for arm in arms:
        workload.run_round(arm, min(WARMUP_S, segment))
    phase = Phase(rounds={arm: [] for arm in arms})
    phase.before = workload.counters()
    phase.rss_before = workload.rss_kb()
    if traced:
        workload.record(True)
    try:
        # Arms are interleaved round by round, so each samples the host
        # over the whole run and not over one window of it.
        for _ in range(rounds):
            for arm in arms:
                started = time.perf_counter_ns()
                phase.rounds[arm].append(workload.run_round(arm, segment))
                phase.windows.append(
                    (arm, started, time.perf_counter_ns()))
    finally:
        if traced:
            workload.record(False)
    phase.after = workload.counters()
    phase.rss_after = workload.rss_kb()
    phase.final = workload.finish(crash=crash)
    phase.drained = workload.drain()
    if traced:
        parts = [workload.rec.summary()]
        if phase.drained.get("summary"):
            parts.append(phase.drained["summary"])
        phase.summary = spans.merge_summaries(parts)
    return phase


def _rates(rounds: list[Round]) -> list[float]:
    return [r.committed / r.elapsed_s for r in rounds]


def _wall_ns(summary: dict[str, Any]) -> int:
    """Traced wall time: the root spans of the generated transactions."""
    return max(1, sum(row["total_ns"] for row in summary["spans"].values()
                      if row["layer"] == "bench"))


def _put(target: dict[str, Any], name: str,
         value: Optional[dict[str, Any]]) -> None:
    if value is not None:
        target[name] = value


def _immediate(workload: Workload, phase: Phase) -> list[list[int]]:
    """IMMEDIATE-detection latencies of the primary arm, per round."""
    arm = workload.arms[0]
    return workload.immediate_samples(
        phase.arm(arm),
        [window[1:] for window in phase.windows if window[0] == arm],
        phase.drained)


def end_to_end(workload: Workload, phase: Phase,
               setups: list[float]) -> dict[str, Any]:
    rounds = phase.arm(workload.arms[0])
    out: dict[str, Any] = {}
    out["setup_s"] = stats.stat(statistics.median(setups), "s", setups,
                                len(setups), "median-of-setups")
    out["tx_per_s"] = stats.rate_stat(
        _rates(rounds), "1/s", sum(len(r.tx_ns) for r in rounds))
    _put(out, "tx_p50_ms",
         stats.timing_stat([r.tx_ns for r in rounds], 50, "ms", 1e6))
    _put(out, "detect_imm_p50_us",
         stats.timing_stat(_immediate(workload, phase), 50, "us", 1e3))
    return out


def moved_end_to_end(workload: Workload, phase: Phase) -> dict[str, Any]:
    """The workload-specific end-to-end metrics, from untraced rounds."""
    rounds = phase.arm(workload.arms[0])
    out: dict[str, Any] = {}
    attempted = phase.attempted()
    out["fail_ratio"] = stats.plain(
        phase.failed() / attempted if attempted else 0.0, "ratio")
    _put(out, "tx_p99_ms",
         stats.timing_stat([r.tx_ns for r in rounds], 99, "ms", 1e6))
    _put(out, "detect_imm_p99_us",
         stats.timing_stat(_immediate(workload, phase), 99, "us", 1e3))
    for kind in ("comp", "det"):
        per_round = [r.samples.get(kind, []) for r in rounds]
        _put(out, f"detect_{kind}_p50_us",
             stats.timing_stat(per_round, 50, "us", 1e3))
        _put(out, f"detect_{kind}_p99_us",
             stats.timing_stat(per_round, 99, "us", 1e3))
    # counters and RSS cover every arm, so every arm's transactions count
    committed = phase.committed()
    if committed:
        disk = phase.delta("wal.bytes") \
            + phase.delta("storage.pages") * PAGE_SIZE
        out["disk_bytes_per_tx"] = stats.plain(disk / committed, "B")
        out["mem_kb_per_ktx"] = stats.plain(
            (phase.rss_after - phase.rss_before) / committed * 1e3, "kB")
    if phase.final.get("recovery_s") is not None:
        out["recovery_s"] = stats.plain(phase.final["recovery_s"], "s")
    if "obs_on" in phase.rounds:
        obs = phase.arm("obs_on")
        out["obs_on_tx_per_s"] = stats.rate_stat(
            _rates(obs), "1/s", sum(len(r.tx_ns) for r in obs))
    if "open" in phase.rounds:
        out.update(_open_metrics(phase.arm("open")))
    return out


def _open_metrics(rounds: list[Round]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    by_rate: dict[int, list[Round]] = {}
    for r in rounds:
        by_rate.setdefault(r.info["rate"], []).append(r)
    best = 0
    for rate, group in sorted(by_rate.items()):
        p99 = stats.timing_stat([r.tx_ns for r in group], 99, "ms", 1e6)
        if p99 is None:
            continue
        name = {OPEN_RATES[0]: "bench.open.tx_p99_ms_r75",
                OPEN_RATES[1]: "open_tx_p99_ms",
                OPEN_RATES[2]: "bench.open.tx_p99_ms_r225"}[rate]
        out[name] = p99
        # no growing backlog: the arrivals of a segment were served
        # within a tenth of a second of its end
        drained = all(r.info["drain_s"] <= 0.1 for r in group)
        if p99["value"] <= OPEN_LIMIT_MS and drained:
            best = rate
    out["bench.open.max_ok_rate_tx_s"] = stats.plain(best, "1/s")
    late = stats.timing_stat([r.samples.get("late", []) for r in rounds],
                             99, "ms", 1e6)
    _put(out, "bench.open.gen_late_p99_ms", late)
    return out


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------


def per_layer(workload: Workload, untraced: Phase, traced: Phase,
              calibration: dict[str, float],
              listed: list[dict[str, str]]) -> dict[str, Any]:
    """``listed`` is the ``per_layer`` section of BENCHMARK.json."""
    out = moved_end_to_end(workload, untraced)
    summary = traced.summary
    span = summary["spans"]
    layer = summary["layers"]
    arm = workload.arms[0]
    tx = max(1, traced.committed(arm))
    wall_ns = _wall_ns(summary)
    rates = _rates(untraced.arm(arm))

    def total(name: str) -> float:
        return span.get(name, {}).get("total_ns", 0)

    def self_ns(name: str) -> float:
        return span.get(name, {}).get("self_ns", 0)

    def count(name: str) -> float:
        return span.get(name, {}).get("count", 0)

    def layer_self(name: str) -> float:
        return layer.get(name, {}).get("self_ns", 0)

    def layer_count(name: str) -> float:
        return layer.get(name, {}).get("count", 0)

    def us(value_ns: float, per: float) -> dict[str, Any]:
        return stats.plain(value_ns / 1e3 / per if per else 0.0, "us")

    def per_count(value: float, per: float, unit: str = "count",
                  scale: float = 1.0) -> dict[str, Any]:
        return stats.plain(value / per * scale if per else 0.0, unit)

    def p50(name: str, unit: str, scale: float) -> dict[str, Any]:
        values = sorted(summary["samples"].get(name, []))
        return stats.plain(stats.percentile(values, 50) / scale, unit)

    delta = traced.delta

    # server.* — both sides of the socket share the codec
    requests = count("ReachClient.call_op")
    out["server.protocol.encode_us_per_req"] = us(
        total("encode_frame"), requests)
    out["server.protocol.decode_us_per_req"] = us(
        total("decode_payload"), requests)
    out["server.protocol.bytes_per_req"] = per_count(
        span.get("encode_frame", {}).get("value1", 0), requests, "B")
    out["server.server.self_us_per_req"] = us(
        self_ns("request.gap"), count("request.gap"))
    served = span.get("request.gap", {}).get("count", 0)
    # how long a serving thread sat in read_frame before each request
    server_summary = traced.drained.get("summary") or {"spans": {}}
    out["server.server.read_wait_us_per_req"] = us(
        server_summary["spans"].get("server:read_frame", {})
                               .get("total_ns", 0), served)
    out["server.server.requests"] = stats.plain(
        delta("server.served"), "count")
    out["server.server.errors"] = stats.plain(delta("server.errors"), "count")
    out["server.client.rtt_us_p50"] = p50("ReachClient.call_op", "us", 1e3)
    out["server.client.self_us_per_req"] = us(
        layer_self("server.client"), requests)

    out["core.session.self_us_per_tx"] = us(layer_self("core.session"), tx)
    out["core.session.calls_per_tx"] = per_count(
        layer_count("core.session"), tx)
    out["oodb.transactions.self_us_per_tx"] = us(
        layer_self("oodb.transactions"), tx)
    out["oodb.transactions.subtx_per_tx"] = stats.plain(
        max(0.0, delta("tx.begun") / tx - 1), "count")
    out["oodb.transactions.aborts_per_ktx"] = per_count(
        delta("tx.aborted"), tx, scale=1e3)

    for label in ("plain", "unwatched", "watched"):
        out[f"oodb.sentry.{label}_call_ns"] = stats.plain(
            calibration[label], "ns")
    out["oodb.sentry.self_us_per_tx"] = us(layer_self("oodb.sentry"), tx)

    events = delta("events.detected")
    out["core.eca_manager.self_us_per_event"] = us(
        layer_self("core.eca_manager"), events)
    out["core.eca_manager.events_per_tx"] = per_count(events, tx)
    out["core.composer.feed_us_per_event"] = us(
        total("Composer.feed"), count("Composer.feed"))
    out["core.composer.self_us_per_tx"] = us(layer_self("core.composer"), tx)
    out["core.composer.pending_end"] = stats.plain(
        traced.after.get("composer.pending", 0), "count")
    out["core.composer.checkpoint_bytes_per_tx"] = per_count(
        span.get("Composer.snapshot_state", {}).get("value1", 0), tx, "B")

    firings = delta("sched.immediate") + delta("sched.deferred_run") \
        + delta("sched.detached_run")
    out["core.scheduler.self_us_per_firing"] = us(
        layer_self("core.scheduler"), firings)
    out["core.scheduler.firings_per_tx"] = per_count(firings, tx)
    out["core.scheduler.deferred_us_per_tx"] = us(
        total("RuleScheduler.drain_deferred"), tx)
    out["core.scheduler.retries"] = stats.plain(
        delta("sched.retries"), "count")
    out["core.scheduler.dead_lettered"] = stats.plain(
        delta("sched.dead_lettered"), "count")

    out["core.history.self_us_per_event"] = us(
        layer_self("core.history"), events)
    out["core.history.entries_end"] = stats.plain(
        traced.after.get("history.entries", 0), "count")
    out["core.history.merge_lag_end"] = stats.plain(
        traced.after.get("history.merge_lag", 0), "count")
    out["core.history.drift_ratio"] = stats.plain(
        rates[-1] / rates[0] if rates and rates[0] else 0.0, "ratio")

    out["oodb.locks.acquire_us_per_tx"] = us(total("LockManager.acquire"), tx)
    out["oodb.locks.acquires_per_tx"] = per_count(
        count("LockManager.acquire"), tx)
    out["oodb.locks.wait_us_per_tx"] = per_count(
        delta("locks.wait_us"), tx, "us")
    out["oodb.locks.deadlocks"] = stats.plain(
        delta("locks.deadlocks"), "count")
    out["oodb.locks.timeouts"] = stats.plain(delta("locks.timeouts"), "count")

    out["oodb.persistence.flush_us_per_tx"] = us(
        total("pre_commit:PersistencePolicyManager"), tx)
    out["oodb.persistence.fetch_us_p50"] = p50(
        "PersistencePolicyManager.fetch", "us", 1e3)
    writes = span.get("PassiveAddressSpace.write", {})
    out["oodb.persistence.catalog_bytes_per_tx"] = per_count(
        writes.get("value1", 0), tx, "B")
    out["oodb.persistence.objects_written_per_tx"] = per_count(
        writes.get("count", 0) - writes.get("value2", 0), tx)

    out["storage.serializer.us_per_tx"] = us(
        layer_self("storage.serializer"), tx)
    out["storage.serializer.bytes_per_tx"] = per_count(
        span.get("serialize", {}).get("value1", 0)
        + span.get("deserialize", {}).get("value1", 0), tx, "B")

    fsyncs = count("os.fsync")
    out["storage.wal.append_us_per_tx"] = us(
        total("WriteAheadLog.append"), tx)
    out["storage.wal.force_us_per_tx"] = us(
        self_ns("WriteAheadLog.flush") + self_ns("WriteAheadLog.flush_to")
        + self_ns("WriteAheadLog.sync") + total("os.fsync"), tx)
    out["storage.wal.fsync_us_p50"] = p50("os.fsync", "us", 1e3)
    out["storage.wal.fsyncs_per_tx"] = per_count(fsyncs, tx)
    out["storage.wal.bytes_per_tx"] = per_count(delta("wal.bytes"), tx, "B")
    out["storage.wal.records_per_tx"] = per_count(delta("wal.lsn"), tx)
    out["storage.wal.commits_per_flush"] = per_count(
        count("StorageManager.commit"), fsyncs)

    out["storage.storage_manager.commit_self_us_per_tx"] = us(
        self_ns("StorageManager.commit"), tx)
    checkpoints = stats.timing_stat(
        [r.samples.get("ckpt", []) for r in untraced.arm(arm)]
        + [[untraced.final["checkpoint_ns"]]
           if "checkpoint_ns" in untraced.final else []], 50, "ms", 1e6)
    _put(out, "storage.storage_manager.checkpoint_ms_p50", checkpoints)
    out["storage.storage_manager.file_bytes_per_tx"] = per_count(
        delta("storage.pages") * PAGE_SIZE, tx, "B")
    out["storage.storage_manager.pages_per_object_end"] = per_count(
        traced.after.get("storage.pages", 0),
        traced.after.get("storage.objects", 0))
    lookups = delta("buffer.hits") + delta("buffer.misses")
    out["storage.buffer.hit_ratio"] = per_count(
        delta("buffer.hits"), lookups, "ratio")
    out["storage.buffer.evictions_per_tx"] = per_count(
        delta("buffer.evictions"), tx)
    out["storage.buffer.self_us_per_tx"] = us(
        layer_self("storage.buffer"), tx)

    out["core.sharding.self_us_per_tx"] = us(layer_self("core.sharding"), tx)
    out["core.sharding.bus_forwards_per_ktx"] = per_count(
        delta("bus.forwarded"), tx, scale=1e3)
    out["core.sharding.group_sweeps_per_ktx"] = per_count(
        count("Composer.on_group_end"), tx, scale=1e3)

    untraced_rate = statistics.median(rates)
    if "obs_on_tx_per_s" in out and untraced_rate:
        out["obs.enabled_overhead_ratio"] = stats.plain(
            1 - out["obs_on_tx_per_s"]["value"] / untraced_rate, "ratio")
    out["obs.flight_events_per_tx"] = per_count(delta("flight.recorded"), tx)

    traced_rate = statistics.median(_rates(traced.arm(arm)))
    out["bench.trace_overhead_ratio"] = stats.plain(
        1 - traced_rate / untraced_rate if untraced_rate else 0.0, "ratio")
    attributed = sum(layer_self(name) for name in LAYERS)
    storage = sum(layer_self(name) for name in STORAGE_LAYERS)
    out["bench.attributed_share"] = stats.plain(attributed / wall_ns, "ratio")
    out["bench.storage_share"] = stats.plain(storage / wall_ns, "ratio")
    out["bench.rounds"] = stats.plain(
        len(untraced.arm(arm)), "count")
    out["bench.samples"] = stats.plain(
        sum(len(r.tx_ns) for r in untraced.arm(arm)), "count")
    out["bench.spans_dropped"] = stats.plain(summary["dropped"], "count")

    # manifest order; a metric this workload has no part in reads 0
    return {entry["name"]: out.get(entry["name"],
                                   stats.plain(0.0, entry["unit"]))
            for entry in listed}


def stage_table(summary: dict[str, Any], tx: int) -> list[str]:
    """Self time per layer and its share of the traced wall time."""
    wall = _wall_ns(summary)
    lines = [f"{'layer':28s} {'self us/tx':>12s} {'share':>8s} "
             f"{'spans/tx':>10s}"]
    rows = sorted(summary["layers"].items(),
                  key=lambda item: -item[1]["self_ns"])
    for layer, row in rows:
        lines.append(f"{layer:28s} {row['self_ns'] / 1e3 / tx:12.1f} "
                     f"{row['self_ns'] / wall:8.1%} "
                     f"{row['count'] / tx:10.1f}")
    lines.append(f"{'traced wall':28s} {wall / 1e3 / tx:12.1f}")
    return lines


# ----------------------------------------------------------------------
# One workload, one pass
# ----------------------------------------------------------------------


def assert_quiet() -> None:
    """Every engine closed and every child reaped: only this thread left."""
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        strays = [thread for thread in threading.enumerate()
                  if thread is not threading.current_thread()]
        if not strays:
            return
        time.sleep(0.05)
    raise RuntimeError(f"threads survived the run: {strays}")


def run_pass(name: str, seed: int, seconds: float, trace: bool,
             workdir: Workdir, manifest: dict[str, Any]) -> dict[str, Any]:
    """Run one pass of one workload; returns its result section."""
    cls = WORKLOADS[name]
    result: dict[str, Any] = {"workload": name, "trace": int(trace)}
    opened: list[Workload] = []
    uninstall = None

    def build(rec: Optional[spans.Recorder] = None) -> tuple[Workload, float]:
        workload = cls(seed, workdir.fresh(name), rec=rec)
        opened.append(workload)
        started = time.perf_counter()
        workload.setup()
        return workload, time.perf_counter() - started

    try:
        if not trace:
            setups = []
            for _ in range(SETUP_REPEATS):
                for earlier in opened:
                    earlier.close()
                workload, took = build()
                setups.append(took)
            rounds, segment = plan_rounds(seconds, 1)
            phase = measure(workload, workload.arms[:1], rounds, segment,
                            crash=True)
            workload.close()
            result["metrics"] = end_to_end(workload, phase, setups)
            phases = [phase]
        else:
            workload, _ = build()
            rounds, segment = plan_rounds(seconds, len(workload.arms) + 1)
            untraced = measure(workload, workload.arms, rounds, segment,
                               crash=True)
            workload.close()
            calibration = spans.calibrate_sentry()
            rec = spans.Recorder()
            uninstall = spans.install(rec)
            workload, _ = build(rec)
            traced = measure(workload, workload.arms[:1], rounds, segment,
                             crash=False, traced=True)
            workload.close()
            result["metrics"] = per_layer(workload, untraced, traced,
                                          calibration, manifest["per_layer"])
            tx = max(1, traced.committed(workload.arms[0]))
            result["stage_table"] = stage_table(traced.summary, tx)
            result["threads"] = traced.summary["threads"]
            path = os.path.join(OUT, f"spans-{name}.jsonl")
            result["spans_written"] = rec.write_jsonl(
                path, extra=traced.drained.get("spans") or ())
            result["spans_file"] = path
            phases = [untraced, traced]
        result["attempted"] = sum(p.attempted() for p in phases)
        result["failed"] = sum(p.failed() for p in phases)
        result["mismatches"] = [m for p in phases
                                for m in p.final.get("mismatches", ())]
        result["correct"] = result["failed"] == 0
    finally:
        for workload in opened:
            workload.close()
        if uninstall is not None:
            uninstall()
    assert_quiet()
    return result
