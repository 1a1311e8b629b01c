"""The four workloads: seeded generators, their oracles, the engines driven.

Every workload is a :class:`Workload`: ``setup`` boots the engine and
loads the data, ``run_round`` drives one closed- (or open-) loop segment
and returns a :class:`Round`, ``counters`` snapshots the program's public
statistics, ``finish`` compares the program's state with what the
generator expects.  The generator keeps the expected state as it goes;
the program only ever sees generated inputs.  README.md says why each
workload exists and what each is expected to show.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro import (
    ConsumptionPolicy,
    CouplingMode,
    EventScope,
    ExecutionConfig,
    MethodEventSpec,
    ReachEngine,
    ShardingConfig,
    SignalEventSpec,
)
from repro.core.sharding import ShardedEngine
from repro.errors import TransactionAborted
from repro.server.client import ReachClient

from benchmarks.pipeline import spans

now = time.perf_counter_ns
clock = time.perf_counter

#: Open-loop arrival rates of the ``wire`` workload in tx/s: about 25, 50
#: and 75 % of the ~300 tx/s two-caller closed-loop rate measured on the
#: reference box.  Frozen: changing them changes the benchmark.
OPEN_RATES = (75, 150, 225)
#: Latency limit on the open arm's p99, measured from the due time.
OPEN_LIMIT_MS = 25.0


@dataclass
class Round:
    arm: str
    elapsed_s: float = 0.0
    committed: int = 0
    attempted: int = 0
    failed: int = 0
    tx_ns: list[int] = field(default_factory=list)
    samples: dict[str, list[int]] = field(default_factory=dict)
    info: dict[str, Any] = field(default_factory=dict)


def rss_kb(pid: Any = "self") -> int:
    with open(f"/proc/{pid}/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") // 1024


def engine_counters(stats: dict[str, Any]) -> dict[str, float]:
    """The cumulative counters the metrics need, out of a
    ``statistics()`` snapshot (local, sharded-merged or fetched over the
    wire — all three have the same frozen key set)."""
    locks = stats["concurrency"]["locks"]
    history = stats["concurrency"]["history"]
    storage = stats["storage"]
    scheduler = stats["scheduler"]
    requests = stats["server"].get("requests", {})
    return {
        "tx.begun": stats["transactions"]["begun"],
        "tx.committed": stats["transactions"]["committed"],
        "tx.aborted": stats["transactions"]["aborted"],
        "sched.immediate": scheduler["immediate"],
        "sched.deferred_run": scheduler["deferred_run"],
        "sched.detached_run": scheduler["detached_run"],
        "sched.retries": scheduler["detached_retries"],
        "sched.dead_lettered": scheduler["dead_lettered"],
        "events.detected": stats["events"]["detected"],
        "composer.pending": stats["events"]["semi_composed_pending"],
        "composer.checkpoints": stats["wal"]["composer_checkpoints_written"],
        "wal.bytes": storage["wal_bytes"],
        "wal.lsn": stats["wal"]["next_lsn"],
        "storage.pages": storage["pages"],
        "storage.objects": storage["objects"],
        "buffer.hits": storage["buffer_hits"],
        "buffer.misses": storage["buffer_misses"],
        "buffer.evictions": storage["buffer_evictions"],
        "locks.waits": locks["waits"],
        "locks.deadlocks": locks["deadlocks_detected"],
        "locks.timeouts": locks["timeouts"],
        # wait_stats() publishes counts and percentiles, not a sum: the
        # wait time is approximated as waits x median per stripe.
        "locks.wait_us": sum(stripe["waits"] * stripe["p50_ms"] * 1e3
                             for stripe in locks["per_stripe"]),
        "flight.recorded": stats["flight"]["recorded"],
        "history.entries": history["merged_entries"],
        "history.merge_lag": history["merge_lag"],
        "bus.forwarded": stats["shards"].get("event_bus", {})
                                        .get("forwarded", 0),
        "server.served": requests.get("served", 0),
        "server.errors": requests.get("errors", 0),
    }


def run_threads(targets: list[Callable[[], None]]) -> None:
    """Run each target on its own thread; an exception in any of them is
    re-raised here once all have ended."""
    errors: list[BaseException] = []

    def guarded(target: Callable[[], None]) -> None:
        try:
            target()
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(target,),
                                name=f"generator-{index}")
               for index, target in enumerate(targets)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class Workload:
    """Common shape; see the module docstring.  ``arms[0]`` is the
    primary arm: the one the end-to-end and the traced rounds run."""

    name = ""
    arms: tuple[str, ...] = ("main",)

    def __init__(self, seed: int, workdir: str,
                 rec: Optional[spans.Recorder] = None):
        self.seed = seed
        self.workdir = workdir
        self.rec = rec
        self.sink: dict[str, list[int]] = {}
        self.mismatches: list[str] = []
        self._closed = False

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, arm: str, seconds: float) -> Round:
        raise NotImplementedError

    def counters(self) -> dict[str, float]:
        raise NotImplementedError

    def rss_kb(self) -> int:
        return rss_kb()

    def record(self, on: bool) -> None:
        """Start (after a reset) or stop recording spans."""
        if on:
            self.rec.reset()
        self.rec.enabled = on

    def immediate_samples(self, rounds: list[Round],
                          windows: list[tuple[int, int]],
                          drained: dict[str, Any]) -> list[list[int]]:
        """IMMEDIATE-detection latencies per round, stamped in the rule
        action."""
        return [r.samples.get("imm", []) for r in rounds]

    def finish(self, crash: bool) -> dict[str, Any]:
        """Oracle checks; returns ``{"mismatches": [...], ...}``."""
        raise NotImplementedError

    def drain(self) -> dict[str, Any]:
        """Whatever the program reports only when it shuts down."""
        return {}

    def close(self) -> None:
        """Release everything; safe to call twice."""
        if self._closed:
            return
        self._closed = True
        self._release()

    def _release(self) -> None:
        raise NotImplementedError

    # -- helpers ----------------------------------------------------------

    def _timed(self, fn: Callable, name: str) -> Callable:
        """User code (rule actions, conditions) is layer ``app`` when
        tracing, so the scheduler's self time excludes it."""
        if self.rec is None:
            return fn
        return self.rec.wrap(fn, "app", name)

    def _root(self, fn: Callable) -> Callable:
        """One generated transaction is one root span of layer ``bench``."""
        if self.rec is None:
            return fn
        return self.rec.wrap(fn, "bench", f"tx:{self.name}")

    def _new_sink(self) -> dict[str, list[int]]:
        self.sink = {"imm": [], "comp": [], "det": [], "ckpt": []}
        return self.sink

    def _check(self, ok: bool, message: str) -> None:
        if not ok and len(self.mismatches) < 50:
            self.mismatches.append(message)

    def _check_new_firings(self, session: Any, before: list[Any],
                           expected: list[tuple[str, str]]) -> None:
        """The session's ``firing_log()`` must have grown by exactly the
        expected (rule, outcome) records."""
        seen = max((record.event_seq for record in before), default=0)
        fresh = sorted((record.rule_name, record.outcome)
                       for record in session.firing_log()
                       if record.event_seq > seen)
        self._check(fresh == sorted(expected),
                    f"firing_log grew by {fresh}, expected "
                    f"{sorted(expected)}")


# ----------------------------------------------------------------------
# oltp_durable
# ----------------------------------------------------------------------


class OltpDurable(Workload):
    """One session, durable commits against 2,000 named 1 KB accounts."""

    name = "oltp_durable"
    ACCOUNTS = 2_000
    PAYLOAD = "x" * 1_024
    CHECKPOINT_EVERY = 500
    TAIL_TX = 200
    TAIL_FRAMES = 16_384
    VIOLATION_SHARE = 0.02

    def setup(self) -> None:
        rec = self.rec

        class Account:
            def __init__(self, name, balance, payload):
                self.name = name
                self.balance = balance
                self.payload = payload
                self.audits = 0

            def deposit(self, amount, stamp):
                self.balance += amount

            def move_out(self, amount):
                self.balance -= amount

            def move_in(self, amount, source, total):
                self.balance += amount

        self.account_class = spans.sentry(Account, rec)
        self.engine = ReachEngine(self.workdir)
        self._define_rules(self.engine)
        self.session = self.engine.create_session("generator")
        self.rng = random.Random(self.seed)
        self.names = [f"acct-{index:04d}" for index in range(self.ACCOUNTS)]
        self.balance = {name: 1_000 for name in self.names}
        self.audits = {name: 0 for name in self.names}
        with self.session.transaction():
            for name in self.names:
                self.session.persist(
                    self.account_class(name, 1_000, self.PAYLOAD), name)
        self.engine.checkpoint()
        self.committed = 0
        self.deposits = 0
        self.transfers = 0
        self.expected_aborts = 0
        self.wal_truncated = 0
        self._tx = self._root(self._one_tx)
        self._new_sink()

    def _define_rules(self, engine: ReachEngine) -> None:
        engine.register_class(self.account_class)

        def audit(ctx):
            self.sink["imm"].append(now() - ctx["args"][1])
            ctx["instance"].audits += 1

        def conserve(ctx):
            amount, source, total = ctx["args"]
            paid = ctx.db.fetch(source)
            if paid.balance + ctx["instance"].balance != total:
                raise ValueError("transfer does not conserve the sum")

        self.audit_rule = engine.rule(
            "audit", MethodEventSpec("Account", "deposit"),
            action=self._timed(audit, "action:audit"),
            coupling=CouplingMode.IMMEDIATE)
        self.conserve_rule = engine.rule(
            "conserve", MethodEventSpec("Account", "move_in"),
            action=self._timed(conserve, "action:conserve"),
            coupling=CouplingMode.DEFERRED, critical=True)

    # -- generator ----------------------------------------------------------

    def _one_tx(self, round_: Round) -> None:
        rng = self.rng
        session = self.session
        draw = rng.random()
        round_.attempted += 1
        if draw < 0.7:
            name = rng.choice(self.names)
            amount = rng.randrange(1, 100)
            start = now()
            with session.transaction():
                session.fetch(name).deposit(amount, now())
            round_.tx_ns.append(now() - start)
            self.balance[name] += amount
            self.audits[name] += 1
            self.deposits += 1
        elif draw < 0.9:
            source, target = rng.sample(self.names, 2)
            amount = rng.randrange(1, 100)
            violate = rng.random() < self.VIOLATION_SHARE
            total = self.balance[source] + self.balance[target]
            start = now()
            try:
                with session.transaction():
                    session.fetch(source).move_out(amount)
                    session.fetch(target).move_in(
                        amount + (1 if violate else 0), source, total)
            except TransactionAborted:
                if violate:
                    self.expected_aborts += 1
                else:
                    round_.failed += 1
                return
            if violate:
                round_.failed += 1      # the veto did not happen
                return
            round_.tx_ns.append(now() - start)
            self.balance[source] -= amount
            self.balance[target] += amount
            self.transfers += 1
        else:
            start = now()
            with session.transaction():
                for name in rng.sample(self.names, 4):
                    if session.fetch(name).balance != self.balance[name]:
                        round_.failed += 1
            round_.tx_ns.append(now() - start)
        round_.committed += 1
        self.committed += 1
        if self.committed % self.CHECKPOINT_EVERY == 0:
            round_.attempted += 1
            start = now()
            self._checkpoint()
            self.sink["ckpt"].append(now() - start)

    def _checkpoint(self) -> None:
        before = self.engine.storage.stats()["wal_bytes"]
        self.engine.checkpoint()
        self.wal_truncated += before - self.engine.storage.stats()["wal_bytes"]

    def run_round(self, arm: str, seconds: float) -> Round:
        round_ = Round(arm, samples=self._new_sink())
        rec = self.rec
        start = clock()
        deadline = start + seconds
        while clock() < deadline:
            if rec is not None:
                rec.set_tx(self.committed)
            self._tx(round_)
        round_.elapsed_s = clock() - start
        return round_

    def counters(self) -> dict[str, float]:
        counters = engine_counters(self.engine.statistics())
        counters["wal.bytes"] += self.wal_truncated
        return counters

    # -- oracle ---------------------------------------------------------------

    def finish(self, crash: bool) -> dict[str, Any]:
        result: dict[str, Any] = {"recovery_s": None}
        before = self.session.firing_log()
        probe = self.names[0]
        with self.session.transaction():
            self.session.fetch(probe).deposit(1, now())
        self.balance[probe] += 1
        self.audits[probe] += 1
        self.deposits += 1
        self._check_new_firings(self.session, before,
                                [("audit", "executed")])
        self._check(self.audit_rule.fired_count == self.deposits,
                    f"audit fired {self.audit_rule.fired_count} times for "
                    f"{self.deposits} deposits")
        self._check(self.conserve_rule.fired_count == self.transfers,
                    f"conserve passed {self.conserve_rule.fired_count} "
                    f"times for {self.transfers} committed transfers")
        start = now()
        self._checkpoint()
        result["checkpoint_ns"] = now() - start
        if crash:
            result["recovery_s"] = self._crash_and_recover()
        for name in self.names:
            account = self.session.fetch(name)
            self._check(account.balance == self.balance[name]
                        and account.audits == self.audits[name],
                        f"{name}: balance {account.balance} audits "
                        f"{account.audits}, expected {self.balance[name]} "
                        f"and {self.audits[name]}")
        result["mismatches"] = self.mismatches
        result["expected_aborts"] = self.expected_aborts
        return result

    def _crash_and_recover(self) -> float:
        """Redo exactly ``TAIL_TX`` transactions after a crash; returns
        the time the reopen took.

        The tail runs on a reopened engine whose buffer pool holds every
        page it dirties.  With the default 128 frames, dirty pages are
        written back between checkpoint and crash, and the parent's
        recovery cannot read such a page file (``StorageError: 2 of 1
        fragments`` / ``PageError: slot is empty`` — see README.md).
        The crash drops the pool unwritten, so the reopened store has
        only the checkpointed pages and the forced log to redo from.
        """
        self.engine.close()
        self.engine = ReachEngine(self.workdir,
                                  buffer_capacity=self.TAIL_FRAMES)
        self._define_rules(self.engine)
        self.session = self.engine.create_session("tail")
        tail = Round("tail", samples=self._new_sink())
        self.committed = 0          # no periodic checkpoint inside the tail
        while tail.committed < self.TAIL_TX:
            self._one_tx(tail)
        self._check(tail.failed == 0,
                    f"{tail.failed} operations failed in the redo tail")
        self.engine.storage.crash()
        self.engine.close()
        start = clock()
        self.engine = ReachEngine(self.workdir)
        self.engine.register_class(self.account_class)
        self.session = self.engine.create_session("verifier")
        return clock() - start

    def _release(self) -> None:
        self.engine.close()


# ----------------------------------------------------------------------
# active_cpu
# ----------------------------------------------------------------------


class ActiveCpu(Workload):
    """All rule pipeline, no storage: events, composites, three couplings."""

    name = "active_cpu"
    arms = ("main", "obs_on")
    SENSORS = 64
    BYSTANDER_RULES = 128
    QUIET_SIGNALS = 32

    def setup(self) -> None:
        self.kernels = {
            "main": self._build("main", ExecutionConfig()),
            "obs_on": self._build(
                "obs_on", ExecutionConfig(observability=True)),
        }

    def _build(self, arm: str, config: ExecutionConfig) -> dict[str, Any]:
        class Sensor:
            def __init__(self, name):
                self.name = name
                self.value = 0

            def read(self, value, stamp):
                self.value = value

            def idle(self, value):
                return value

        sensor_class = spans.sentry(Sensor, self.rec, track_state=False)
        engine = ReachEngine(os.path.join(self.workdir, arm), config=config)
        engine.register_class(sensor_class)
        kernel: dict[str, Any] = {
            "engine": engine, "sink": self._new_sink(),
            "rng": random.Random(self.seed), "tx": 0,
            "expect": {"r_imm": 0, "r_imm_rejected": 0, "r_def": 0,
                       "r_det": 0, "r_seq": 0, "r_conj": 0},
            "values": {},
        }
        sink = kernel["sink"]

        def on_imm(ctx):
            sink["imm"].append(now() - ctx["args"][1])

        def on_def(ctx):
            pass

        def on_det(ctx):
            sink["det"].append(now() - ctx["args"][1])

        def on_seq(ctx):
            last = ctx.event.components[-1]
            sink["comp"].append(now() - last.parameters["t"])

        def on_conj(ctx):
            last = max(part.parameters["t"]
                       for part in ctx.event.all_primitive_components())
            sink["comp"].append(now() - last)

        read = MethodEventSpec("Sensor", "read")
        a, b, c = (SignalEventSpec(name) for name in "abc")
        timed = self._timed
        kernel["rules"] = {
            "r_imm": engine.rule(
                "r_imm", read, action=timed(on_imm, "action:r_imm"),
                condition=timed(lambda ctx: ctx["args"][0] % 2 == 0,
                                "condition:r_imm"),
                coupling=CouplingMode.IMMEDIATE),
            "r_def": engine.rule(
                "r_def", read, action=timed(on_def, "action:r_def"),
                coupling=CouplingMode.DEFERRED),
            "r_det": engine.rule(
                "r_det", read, action=timed(on_det, "action:r_det"),
                coupling=CouplingMode.DETACHED),
            "r_seq": engine.rule(
                "r_seq", a >> b, action=timed(on_seq, "action:r_seq"),
                coupling=CouplingMode.DEFERRED),
            # RECENT keeps one pending `a`; CHRONICLE would keep every
            # unmatched one and checkpoint them all at every commit.
            "r_conj": engine.rule(
                "r_conj",
                (a & c).scoped(EventScope.MULTI_TX).within(3600.0)
                       .consumed(ConsumptionPolicy.RECENT),
                action=timed(on_conj, "action:r_conj"),
                coupling=CouplingMode.DETACHED),
        }
        for index in range(self.BYSTANDER_RULES):
            engine.rule(f"bystander-{index}",
                        SignalEventSpec(f"quiet-{index % self.QUIET_SIGNALS}"),
                        action=on_def, coupling=CouplingMode.IMMEDIATE)
        session = kernel["session"] = engine.create_session("generator")
        kernel["sensors"] = [sensor_class(f"sensor-{index}")
                             for index in range(self.SENSORS)]
        with session.transaction():
            for sensor in kernel["sensors"]:
                session.persist(sensor, sensor.name)
        kernel["run"] = self._root(
            lambda round_, kernel=kernel: self._one_tx(kernel, round_))
        return kernel

    @staticmethod
    def _one_tx(kernel: dict[str, Any], round_: Round) -> None:
        rng = kernel["rng"]
        session = kernel["session"]
        sensors = kernel["sensors"]
        expect = kernel["expect"]
        index = kernel["tx"]
        start = now()
        with session.transaction():
            for step in range(4):
                sensor = rng.choice(sensors)
                value = rng.randrange(1_000)
                sensor.read(value, now())
                sensor.idle(step)
                kernel["values"][sensor.name] = value
                expect["r_imm" if value % 2 == 0 else "r_imm_rejected"] += 1
            session.signal("a", t=now())
            session.signal("b", t=now())
            if index % 2:
                session.signal("c", t=now())
                expect["r_conj"] += 1
        round_.tx_ns.append(now() - start)
        expect["r_def"] += 4
        expect["r_det"] += 4
        expect["r_seq"] += 1
        kernel["tx"] = index + 1
        round_.attempted += 1
        round_.committed += 1

    def run_round(self, arm: str, seconds: float) -> Round:
        kernel = self.kernels[arm]
        for samples in kernel["sink"].values():
            samples.clear()
        round_ = Round(arm)
        run = kernel["run"]
        rec = self.rec
        start = clock()
        deadline = start + seconds
        while clock() < deadline:
            if rec is not None:
                rec.set_tx(kernel["tx"])
            run(round_)
        round_.elapsed_s = clock() - start
        round_.samples = {kind: list(samples)
                          for kind, samples in kernel["sink"].items()}
        return round_

    def counters(self) -> dict[str, float]:
        """Both engines: the arms share the process, and its RSS."""
        parts = [engine_counters(kernel["engine"].statistics())
                 for kernel in self.kernels.values()]
        return {key: sum(part[key] for part in parts) for key in parts[0]}

    def finish(self, crash: bool) -> dict[str, Any]:
        for arm, kernel in self.kernels.items():
            session = kernel["session"]
            before = session.firing_log()
            expected = [("r_def", "executed")] * 4 \
                + [("r_det", "executed")] * 4 + [("r_seq", "executed")]
            tally = dict(kernel["expect"])
            self._one_tx(kernel, Round("verify"))
            grown = {key: kernel["expect"][key] - tally[key]
                     for key in tally}
            expected += [("r_imm", "executed")] * grown["r_imm"]
            expected += [("r_imm", "condition_false")] \
                * grown["r_imm_rejected"]
            expected += [("r_conj", "executed")] * grown["r_conj"]
            self._check_new_firings(session, before, expected)
            rules = kernel["rules"]
            expect = kernel["expect"]
            for name in ("r_imm", "r_def", "r_det", "r_seq", "r_conj"):
                self._check(rules[name].fired_count == expect[name],
                            f"{arm}: {name} fired "
                            f"{rules[name].fired_count} times, expected "
                            f"{expect[name]}")
            self._check(
                rules["r_imm"].condition_rejections
                == expect["r_imm_rejected"],
                f"{arm}: r_imm rejected "
                f"{rules['r_imm'].condition_rejections} times, expected "
                f"{expect['r_imm_rejected']}")
            idle = [rule.name for rule in kernel["engine"].rules()
                    if rule.name.startswith("bystander")
                    and rule.fired_count]
            self._check(not idle, f"{arm}: bystander rules fired: {idle}")
            for sensor in kernel["sensors"]:
                wanted = kernel["values"].get(sensor.name, 0)
                self._check(sensor.value == wanted,
                            f"{arm}: {sensor.name} holds {sensor.value}, "
                            f"expected {wanted}")
        return {"mismatches": self.mismatches, "recovery_s": None}

    def _release(self) -> None:
        for kernel in self.kernels.values():
            kernel["engine"].close()


# ----------------------------------------------------------------------
# sharded_durable
# ----------------------------------------------------------------------


class ShardedDurable(Workload):
    """Two shards, two committing threads, one cross-shard composite."""

    name = "sharded_durable"
    SHARDS = 2
    LEDGERS = 500

    def setup(self) -> None:
        rec = self.rec

        class Ledger:
            def __init__(self, name):
                self.name = name
                self.total = 0
                self.posts = 0

            def post(self, amount, stamp):
                self.total += amount

        self.ledger_class = spans.sentry(Ledger, rec)
        self.engine = ShardedEngine(
            self.workdir, config=ExecutionConfig(
                sharding=ShardingConfig(shards=self.SHARDS)))
        engine = self.engine
        engine.register_class(self.ledger_class)
        self._new_sink()

        def posted(ctx):
            self.sink["imm"].append(now() - ctx["args"][1])
            ctx["instance"].posts += 1

        def paired(ctx):
            last = ctx.event.components[-1]
            self.sink["comp"].append(now() - last.parameters["t"])

        def ticked(ctx):
            self.sink["det"].append(now() - ctx.event.parameters["t"])

        self.left = self._signal_homed_on(0, "left")
        self.right = self._signal_homed_on(1, "right")
        self.ticks = [self._signal_homed_on(shard, f"tick-{shard}")
                      for shard in range(self.SHARDS)]
        self.rules = {
            "posted": engine.rule(
                "posted", MethodEventSpec("Ledger", "post"),
                action=self._timed(posted, "action:posted"),
                coupling=CouplingMode.IMMEDIATE),
            "pair": engine.rule(
                "pair",
                SignalEventSpec(self.left) >> SignalEventSpec(self.right),
                action=self._timed(paired, "action:pair"),
                coupling=CouplingMode.DEFERRED),
        }
        for shard, name in enumerate(self.ticks):
            self.rules[name] = engine.rule(
                f"ticked-{shard}", SignalEventSpec(name),
                action=self._timed(ticked, f"action:ticked-{shard}"),
                coupling=CouplingMode.DETACHED)
        self.workers = []
        for shard in range(self.SHARDS):
            local = engine.create_session(f"local-{shard}", shards=[shard])
            names = [f"ledger-{shard}-{index:03d}"
                     for index in range(self.LEDGERS)]
            with local.transaction():
                for name in names:
                    local.persist(self.ledger_class(name), name, shard=shard)
            worker = {
                "shard": shard, "local": local, "names": names,
                "spanning": engine.create_session(f"spanning-{shard}"),
                "rng": random.Random(self.seed * 31 + shard), "tx": 0,
                "total": dict.fromkeys(names, 0),
                "posts": dict.fromkeys(names, 0),
                "pairs": 0, "ticks": 0,
            }
            worker["run"] = self._root(
                lambda round_, worker=worker: self._one_tx(worker, round_))
            self.workers.append(worker)

    def _signal_homed_on(self, shard: int, stem: str) -> str:
        """A signal name whose event is homed on ``shard`` (homes are a
        stable hash of the spec key, so this is a search, not a choice)."""
        for suffix in range(10_000):
            name = f"{stem}.{suffix}"
            if self.engine.shard_for_key(SignalEventSpec(name).key()) \
                    == shard:
                return name
        raise RuntimeError(f"no signal name homes on shard {shard}")

    def _one_tx(self, worker: dict[str, Any], round_: Round) -> None:
        rng = worker["rng"]
        index = worker["tx"]
        name = rng.choice(worker["names"])
        amount = rng.randrange(1, 100)
        kind = index % 10
        # Every 10th transaction spans both shards and completes the
        # cross-shard composite; every other 10th raises a signal whose
        # DETACHED rule runs after the durable commit.
        session = worker["spanning"] if kind == 9 else worker["local"]
        start = now()
        with session.transaction():
            session.fetch(name).post(amount, now())
            if kind == 9:
                session.signal(self.left, t=now())
                session.signal(self.right, t=now())
            elif kind == 4:
                session.signal(self.ticks[worker["shard"]], t=now())
        round_.tx_ns.append(now() - start)
        worker["total"][name] += amount
        worker["posts"][name] += 1
        worker["pairs"] += kind == 9
        worker["ticks"] += kind == 4
        worker["tx"] = index + 1
        round_.attempted += 1
        round_.committed += 1

    def run_round(self, arm: str, seconds: float) -> Round:
        total = Round(arm, samples=self._new_sink())
        parts = [Round(arm) for _ in self.workers]
        start = clock()
        deadline = start + seconds
        rec = self.rec

        def drive(worker: dict[str, Any], part: Round) -> None:
            while clock() < deadline:
                if rec is not None:
                    rec.set_tx(worker["tx"] * 2 + worker["shard"])
                worker["run"](part)

        run_threads([lambda pair=pair: drive(*pair)
                     for pair in zip(self.workers, parts)])
        total.elapsed_s = clock() - start
        for part in parts:
            total.committed += part.committed
            total.attempted += part.attempted
            total.tx_ns.extend(part.tx_ns)
        return total

    def counters(self) -> dict[str, float]:
        return engine_counters(self.engine.statistics())

    def finish(self, crash: bool) -> dict[str, Any]:
        engine = self.engine
        for worker in self.workers:
            # A rule fires on its event's home shard, so only a session
            # bound to every shard is sure to see the firing in its log.
            session = worker["spanning"]
            before = session.firing_log()
            worker["tx"] = 9                    # a spanning transaction
            self._one_tx(worker, Round("verify"))
            self._check_new_firings(
                session, before,
                [("posted", "executed"), ("pair", "executed")])
            for name in worker["names"]:
                ledger = session.fetch(name)
                self._check(ledger.total == worker["total"][name]
                            and ledger.posts == worker["posts"][name],
                            f"{name}: total {ledger.total} posts "
                            f"{ledger.posts}, expected "
                            f"{worker['total'][name]} and "
                            f"{worker['posts'][name]}")
        posts = sum(sum(w["posts"].values()) for w in self.workers)
        pairs = sum(w["pairs"] for w in self.workers)
        self._check(self.rules["posted"].fired_count == posts,
                    f"posted fired {self.rules['posted'].fired_count} "
                    f"times for {posts} posts")
        # exactly once: one firing per spanning transaction, no more
        self._check(self.rules["pair"].fired_count == pairs,
                    f"pair fired {self.rules['pair'].fired_count} times "
                    f"for {pairs} completed sequences")
        for worker in self.workers:
            rule = self.rules[self.ticks[worker["shard"]]]
            self._check(rule.fired_count == worker["ticks"],
                        f"{rule.name} fired {rule.fired_count} times for "
                        f"{worker['ticks']} signals")
        forwarded = engine.bus.stats()["forwarded"]
        self._check(forwarded >= pairs,
                    f"bus forwarded {forwarded} occurrences for {pairs} "
                    f"cross-shard sequences")
        waiting = sum(shard.scheduler.pending_detached_count()
                      for shard in engine.shards)
        self._check(waiting == 0, f"{waiting} detached firings never ran")
        return {"mismatches": self.mismatches, "recovery_s": None}

    def _release(self) -> None:
        self.engine.close()


# ----------------------------------------------------------------------
# wire
# ----------------------------------------------------------------------


class Wire(Workload):
    """A child server over TCP, two connections, closed and open loop."""

    name = "wire"
    arms = ("closed", "open")
    DOCUMENTS = 200
    CONNECTIONS = 2
    RULE_DDL = ("rule touch_on_set {\n  decl Document doc;\n"
                "  event after doc.set(fields);\n"
                "  action imm doc.touch();\n};")

    def setup(self) -> None:
        self.child: Optional[subprocess.Popen] = None
        self.clients: list[ReachClient] = []
        self.report_path = os.path.join(self.workdir, "child-report.json")
        here = os.path.dirname(os.path.abspath(__file__))
        command = [sys.executable, os.path.join(here, "serve.py"),
                   "--data-dir", os.path.join(self.workdir, "data"),
                   "--report", self.report_path,
                   "--trace", "1" if self.rec is not None else "0"]
        self.child = subprocess.Popen(command, stderr=subprocess.PIPE,
                                      text=True)
        banner = self.child.stderr.readline()
        match = re.search(r"listening on [^:]+:(\d+)", banner)
        if match is None:
            raise RuntimeError(f"server did not start: {banner!r}"
                               f"{self.child.stderr.read()}")
        port = int(match.group(1))
        # Keep draining stderr so the child can never block on the pipe.
        self._stderr = threading.Thread(
            target=self.child.stderr.read, name="child-stderr", daemon=True)
        self._stderr.start()
        self.clients = [
            ReachClient("127.0.0.1", port, client_name=f"generator-{index}",
                        trace_sampling=0.0)
            for index in range(self.CONNECTIONS)]
        self.names = [f"doc-{index:03d}" for index in range(self.DOCUMENTS)]
        first = self.clients[0]
        with first.transaction():
            for name in self.names:
                first.put(name, {"n": 0, "t": 0})
        first.define_rules(self.RULE_DDL)
        self.half = self.DOCUMENTS // self.CONNECTIONS
        self.last_write = dict.fromkeys(self.names, 0)
        self.sets = 0
        self.committed = 0
        self.serial = 0
        self.rngs = [random.Random(self.seed * 31 + index)
                     for index in range(self.CONNECTIONS)]
        self.open_rng = random.Random(self.seed * 31 + 7)
        self.open_round = 0
        self.lock = threading.Lock()
        self._tx = self._root(self._one_tx)

    def rss_kb(self) -> int:
        return rss_kb(self.child.pid)

    # -- one transaction over the wire ----------------------------------------

    def _one_tx(self, index: int, plan: tuple, round_: Round,
                due: Optional[int] = None) -> None:
        """``plan`` is ``("write", slot, n)`` or ``("read", slots)``; a
        slot is a position in the half of the documents that connection
        ``index`` owns.  Each connection writes its own half only: the
        engine applies a write to the shared object before it takes the
        lock, so a concurrent writer's value would show through (see
        README.md)."""
        client = self.clients[index]
        mine = self.names[index * self.half:(index + 1) * self.half]
        start = now()
        client.begin()
        if plan[0] == "write":
            _, slot, n = plan
            name = mine[slot]
            client.call(name, "set", n=n, t=now())
            if client.fetch(name)["fields"]["n"] != n:
                round_.failed += 1          # did not read its own write
            client.signal("tick", n=n)
        else:
            for slot in plan[1]:
                client.fetch(mine[slot])
        client.commit()
        acked = now()
        with self.lock:
            round_.tx_ns.append(acked - (start if due is None else due))
            round_.attempted += 1
            round_.committed += 1
            self.committed += 1
            if plan[0] == "write":
                self.sets += 1
                self.last_write[name] = n

    def _plan(self, rng: random.Random) -> tuple:
        if rng.random() < 0.1:
            return ("read", rng.sample(range(self.half), 3))
        with self.lock:
            self.serial += 1
            return ("write", rng.randrange(self.half), self.serial)

    def run_round(self, arm: str, seconds: float) -> Round:
        round_ = Round(arm, samples=self._new_sink())
        if arm == "closed":
            self._closed_round(round_, seconds)
        else:
            self._open_round(round_, seconds)
        return round_

    def _run_connections(self, drive: Callable[[int], None]) -> None:
        run_threads([lambda index=index: drive(index)
                     for index in range(self.CONNECTIONS)])

    def _closed_round(self, round_: Round, seconds: float) -> None:
        """Each connection is a caller that waits for its reply; the two
        work on disjoint halves of the documents."""
        start = clock()
        deadline = start + seconds
        rec = self.rec

        def drive(index: int) -> None:
            rng = self.rngs[index]
            while clock() < deadline:
                plan = self._plan(rng)
                if rec is not None:
                    rec.set_tx(self.committed)
                self._tx(index, plan, round_)

        self._run_connections(drive)
        round_.elapsed_s = clock() - start

    def _open_round(self, round_: Round, seconds: float) -> None:
        """Seeded Poisson arrivals at a fixed rate; an arrival goes to the
        first free connection and is timed from when it was due."""
        rate = OPEN_RATES[self.open_round % len(OPEN_RATES)]
        self.open_round += 1
        rng = self.open_rng
        arrivals: deque[tuple[int, tuple]] = deque()
        at = 0.0
        while True:
            at += rng.expovariate(rate)
            if at >= seconds:
                break
            arrivals.append((int(at * 1e9), self._plan(rng)))
        planned = len(arrivals)
        late: list[int] = []
        start = clock()
        origin = now()

        def drive(index: int) -> None:
            while True:
                with self.lock:
                    if not arrivals:
                        return
                    offset, plan = arrivals.popleft()
                due = origin + offset
                wait = due - now()
                if wait > 0:
                    time.sleep(wait / 1e9)
                    late.append(now() - due)
                self._one_tx(index, plan, round_, due=due)

        self._run_connections(drive)
        round_.elapsed_s = clock() - start
        round_.samples["late"] = late
        round_.info = {"rate": rate, "planned": planned,
                       "drain_s": max(0.0, round_.elapsed_s - seconds)}

    # -- the program's side -------------------------------------------------------

    def counters(self) -> dict[str, float]:
        return engine_counters(self.clients[0].statistics())

    def record(self, on: bool) -> None:
        """The server child records too: SIGUSR1 starts it, SIGUSR2 stops
        it, and it says so in ``<report>.state``."""
        super().record(on)
        signum, state = (signal.SIGUSR1, "recording") if on \
            else (signal.SIGUSR2, "stopped")
        marker = self.report_path + ".state"
        self.child.send_signal(signum)
        deadline = clock() + 5.0
        while clock() < deadline:
            try:
                with open(marker) as handle:
                    if handle.read() == state:
                        return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError(f"server child did not reach state {state!r}")

    def immediate_samples(self, rounds: list[Round],
                          windows: list[tuple[int, int]],
                          drained: dict[str, Any]) -> list[list[int]]:
        """The rule's action runs in the server child, which reports
        (stamp, latency) pairs when it shuts down; a pair belongs to the
        round in whose window the client took the stamp."""
        touches = drained.get("touches", [])
        return [[latency for stamp, latency in touches
                 if started <= stamp < ended] for started, ended in windows]

    def finish(self, crash: bool) -> dict[str, Any]:
        first = self.clients[0]
        for name in self.names:
            held = first.fetch(name)["fields"]["n"]
            self._check(held == self.last_write[name],
                        f"{name} holds n={held}, expected "
                        f"{self.last_write[name]}")
        stats = first.statistics()
        fired = stats["scheduler"]["immediate"]
        self._check(fired == self.sets,
                    f"touch_on_set fired {fired} times for {self.sets} "
                    f"acknowledged set calls")
        errors = stats["server"]["requests"]["errors"]
        self._check(errors == 0, f"server answered {errors} requests "
                                 f"with an error")
        return {"mismatches": self.mismatches, "recovery_s": None}

    def drain(self) -> dict[str, Any]:
        """Drain the server (SIGTERM), reap it, return what it reported:
        the IMMEDIATE-action stamps and, when traced, its spans."""
        for client in self.clients:
            client.close()
        self.clients = []
        child, self.child = self.child, None
        if child is None:
            return {}
        child.send_signal(signal.SIGTERM)
        try:
            child.wait(timeout=20)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        self._stderr.join(timeout=5)
        child.stderr.close()
        try:
            with open(self.report_path) as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return {}

    def _release(self) -> None:
        """The error path: ``drain`` already reaped a child that lived."""
        child, self.child = self.child, None
        if child is not None:
            child.kill()
            child.wait()
            self._stderr.join(timeout=5)
            child.stderr.close()
        for client in self.clients:
            client.close()          # swallows the dead connection
        self.clients = []


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (OltpDurable, ActiveCpu, ShardedDurable, Wire)}
