"""Crash-point recovery torture: truncate the WAL at *every* boundary.

The recovery claim — every complete COMMIT frame redone, nothing else
visible, a torn final frame losing all of its operations — is a
universally quantified statement over crash points, so this harness
tests it universally: run a workload of winners (committed
transactions) and losers (in-flight and aborted ones, which leave no
frame in the log), snapshot the checkpoint-time data file and the final
WAL image, then for every record boundary *and* a set of mid-record torn
offsets, materialize that crash state in a scratch directory, re-open
the database, and compare the recovered state against an independently
computed expectation.

Two levels:

* :func:`run_storage_torture` drives the :class:`StorageManager`
  directly — raw OID images, interleaved commits and in-flight writes,
  a deliberate abort;
* :func:`run_database_torture` drives a full :class:`ReachEngine` —
  named sentried objects across user transactions, checking fetch-by-
  name, ``ObjectNotFoundError`` for not-yet-committed state, OID
  allocator monotonicity, and index consistency after each recovery.

The checkpoint-time snapshot of ``objects.dat`` is the *correct* page
image for every cut: the no-steal protocol only guarantees data pages
lag the log, and the checkpoint image is the maximal legal lag, so
recovery must reconstruct everything after it from the log alone.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Optional

from repro.config import ExecutionConfig, ShardingConfig
from repro.core.algebra import (
    Closure,
    Conjunction,
    Disjunction,
    EventScope,
    History,
    Negation,
    Sequence,
)
from repro.core.composer import Composer
from repro.core.consumption import ConsumptionPolicy
from repro.core.coupling import CouplingMode
from repro.core.engine import ReachEngine
from repro.core.sharding import ShardedEngine
from repro.core.events import EventOccurrence, SignalEventSpec
from repro.errors import ObjectNotFoundError, RecordNotFoundError
from repro.faults.registry import WAL_FSYNC, FaultRegistry
from repro.obs.flight import (
    NULL_FLIGHT,
    FlightRecorder,
    latest_dump,
    load_dump,
)
from repro.obs.metrics import MetricsRegistry
from repro.oodb.oid import OID
from repro.oodb.sentry import sentried
from repro.storage.storage_manager import StorageManager
from repro.storage.wal import _FRAME, LogRecord, LogRecordType

__all__ = [
    "ComposerCutResult",
    "ComposerTortureReport",
    "CutResult",
    "TortureReport",
    "hold_next_force",
    "run_composer_torture",
    "run_database_torture",
    "run_group_commit_torture",
    "run_storage_torture",
    "wal_record_boundaries",
    "torn_offsets",
    "parse_wal_prefix",
]


# ---------------------------------------------------------------------------
# WAL image analysis (independent of the WAL class's own scanner)
# ---------------------------------------------------------------------------

def wal_record_boundaries(data: bytes) -> list[int]:
    """Every record boundary offset in a WAL image, including 0 and EOF."""
    offsets = [0]
    offset = 0
    while offset + _FRAME.size <= len(data):
        length, __ = _FRAME.unpack_from(data, offset)
        nxt = offset + _FRAME.size + length
        if nxt > len(data):
            break
        offset = nxt
        offsets.append(offset)
    return offsets


def torn_offsets(boundaries: list[int]) -> list[int]:
    """Mid-record cut offsets: inside the frame header and the payload."""
    cuts = []
    for start, end in zip(boundaries, boundaries[1:]):
        cuts.append(start + _FRAME.size // 2)              # torn header
        if end - start > _FRAME.size + 1:
            cuts.append(start + _FRAME.size
                        + (end - start - _FRAME.size) // 2)  # torn payload
    return cuts


def parse_wal_prefix(data: bytes) -> list[LogRecord]:
    """Decode the longest consistent record prefix of a WAL image
    (mirrors recovery's lenient scan, implemented independently)."""
    records = []
    offset = 0
    end = len(data)
    while offset + _FRAME.size <= end:
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        if start + length > end:
            break
        payload = data[start:start + length]
        if zlib.crc32(payload) != crc:
            break
        records.append(LogRecord.decode(payload))
        offset = start + length
    return records


def _winner_ids(records: list[LogRecord]) -> set[int]:
    return {r.tx_id for r in records if r.type is LogRecordType.COMMIT}


def _replay_expected(base: dict[int, bytes],
                     records: list[LogRecord]) -> dict[int, bytes]:
    """The state recovery must produce: base image + COMMIT frames in
    log order."""
    state = dict(base)
    for record in records:
        if record.type is not LogRecordType.COMMIT:
            continue
        for oid_value, image in record.ops:
            if image is None:
                state.pop(oid_value, None)
            else:
                state[oid_value] = image
    return state


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class CutResult:
    offset: int
    kind: str              # "boundary" | "torn"
    records: int           # consistent records in the truncated prefix
    winners: int           # committed transactions among them


@dataclass
class TortureReport:
    cuts: list[CutResult] = field(default_factory=list)
    #: winners in the *full* log image, and the losers the workload ran
    #: (they leave no frame, so only the workload can count them)
    total_winners: int = 0
    total_losers: int = 0
    #: largest number of commits one shared WAL force covered during the
    #: workload (0 when the workload did not measure it)
    max_commit_batch_observed: int = 0
    #: the flight dump the simulated crash wrote (None: no recorder ran)
    flight_dump_path: Optional[str] = None
    #: True iff the dump's final wal.flush record names the same LSN as
    #: the last record of the full WAL image — i.e. the post-mortem
    #: record agrees with what recovery will actually see.
    flight_lsn_matches: Optional[bool] = None

    @property
    def boundary_cuts(self) -> int:
        return sum(1 for cut in self.cuts if cut.kind == "boundary")

    @property
    def torn_cuts(self) -> int:
        return sum(1 for cut in self.cuts if cut.kind == "torn")


def _all_cuts(wal_image: bytes) -> list[tuple[int, str]]:
    boundaries = wal_record_boundaries(wal_image)
    cuts = [(offset, "boundary") for offset in boundaries]
    cuts += [(offset, "torn") for offset in torn_offsets(boundaries)]
    return sorted(cuts)


def _materialize(root: str, index: int, base_image: bytes,
                 wal_prefix: bytes) -> str:
    directory = os.path.join(root, f"cut-{index:03d}")
    if os.path.exists(directory):
        shutil.rmtree(directory)
    os.makedirs(directory)
    with open(os.path.join(directory, StorageManager.DATA_FILE), "wb") as fh:
        fh.write(base_image)
    with open(os.path.join(directory, StorageManager.LOG_FILE), "wb") as fh:
        fh.write(wal_prefix)
    return directory


def _read_file(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _validate_flight_dump(base_dir: str, wal_image: bytes,
                          report: TortureReport) -> None:
    """Check the crash-time flight dump against the surviving WAL.

    The simulated crash dumps the flight ring before dropping volatile
    state; the dump must be readable after recovery and its last recorded
    WAL force must name the LSN of the final record in the full image —
    the flight recorder's story and the log's must agree at the cut.
    """
    path = latest_dump(base_dir)
    report.flight_dump_path = path
    if path is None:
        return
    __, records = load_dump(path)
    flushes = [r for r in records if r["category"] == "wal.flush"]
    full_records = parse_wal_prefix(wal_image)
    last_lsn = full_records[-1].lsn if full_records else 0
    flight_lsn = flushes[-1]["lsn"] if flushes else 0
    report.flight_lsn_matches = flight_lsn == last_lsn


# ---------------------------------------------------------------------------
# Storage-level torture
# ---------------------------------------------------------------------------

def _commit(sm: StorageManager, tx_id: int,
            *ops: tuple[int, Optional[bytes]]) -> None:
    """Run one storage transaction of ``(oid value, image | None)`` ops."""
    sm.begin(tx_id)
    for oid_value, image in ops:
        if image is None:
            sm.delete(tx_id, OID(oid_value))
        else:
            sm.write(tx_id, OID(oid_value), image)
    sm.commit(tx_id)


def _check_storage_cuts(root: str, base_image: bytes,
                        base_state: dict[int, bytes], wal_image: bytes,
                        all_oids: set[int], report: TortureReport) -> None:
    """Recover from every cut of ``wal_image`` and assert the invariants:
    winners replayed byte-for-byte, losers absent, allocator consistent."""
    for index, (offset, kind) in enumerate(_all_cuts(wal_image)):
        prefix = wal_image[:offset]
        records = parse_wal_prefix(prefix)
        expected = _replay_expected(base_state, records)
        directory = _materialize(root, index, base_image, prefix)
        recovered = StorageManager(directory)
        try:
            for oid_value, image in expected.items():
                got = recovered.read(None, OID(oid_value))
                if got != image:
                    raise AssertionError(
                        f"cut@{offset} ({kind}): OID {oid_value} recovered "
                        f"{got!r}, expected {image!r}")
            for oid_value in all_oids - set(expected):
                try:
                    recovered.read(None, OID(oid_value))
                except RecordNotFoundError:
                    pass
                else:
                    raise AssertionError(
                        f"cut@{offset} ({kind}): loser OID {oid_value} "
                        "survived recovery")
            if recovered.max_oid_value() != max(expected, default=0):
                raise AssertionError(
                    f"cut@{offset} ({kind}): max OID "
                    f"{recovered.max_oid_value()} != "
                    f"{max(expected, default=0)}")
        finally:
            recovered.close()
        report.cuts.append(CutResult(offset=offset, kind=kind,
                                     records=len(records),
                                     winners=len(_winner_ids(records))))


def run_storage_torture(root: str) -> TortureReport:
    """Exhaustive crash-point check over a raw StorageManager workload.

    The workload interleaves eight winners (inserts, updates, deletes,
    multi-op frames, a multi-fragment image) with two in-flight losers
    and one explicit abort, so every truncated prefix exercises a
    different winner/loser partition and torn cuts land inside frames
    that carry several operations.  It runs on one thread, so every
    committer leads its own force.
    """
    base_dir = os.path.join(root, "sm-base")
    flight = FlightRecorder(capacity=512, directory=base_dir)
    sm = StorageManager(base_dir, flight=flight)

    # Committed pre-state, made the checkpoint image.
    _commit(sm, 1, (11, b"alpha-0"), (12, b"beta-0"))
    sm.checkpoint()
    base_image = _read_file(os.path.join(base_dir, StorageManager.DATA_FILE))
    base_state = {11: b"alpha-0", 12: b"beta-0"}

    # Winners and losers, interleaved frame by frame.
    sm.begin(101)                      # loser 1: in flight at the crash
    sm.write(101, OID(12), b"beta-LOSER")
    _commit(sm, 10, (11, b"alpha-1"))                  # update
    sm.begin(102)                      # loser 2: in flight at the crash
    sm.write(102, OID(13), b"gamma-LOSER")
    _commit(sm, 20, (14, b"delta-0"))                  # insert
    sm.write(101, OID(11), b"alpha-LOSER")
    _commit(sm, 30, (12, None))                        # delete
    sm.begin(103)                      # loser 3: explicit abort
    sm.write(103, OID(15), b"epsilon-LOSER")
    sm.abort(103)
    _commit(sm, 40, (16, b"zeta-0"), (11, b"alpha-2"), (14, None))
    _commit(sm, 50, (14, b"delta-1"), (17, b"eta-0" * 2000))  # big image
    _commit(sm, 60, (17, b"eta-1"))                    # fewer fragments
    _commit(sm, 70, (16, b"zeta-1"), (16, None))       # write, then delete
    _commit(sm, 80, (11, b"alpha-3"))
    sm.flush()
    wal_image = _read_file(os.path.join(base_dir, StorageManager.LOG_FILE))
    sm.crash()
    sm.close()

    full_records = parse_wal_prefix(wal_image)
    report = TortureReport(total_winners=len(_winner_ids(full_records)),
                           total_losers=3)
    all_oids = {11, 12, 13, 14, 15, 16, 17}
    _validate_flight_dump(base_dir, wal_image, report)
    _check_storage_cuts(root, base_image, base_state, wal_image, all_oids,
                        report)
    return report


# ---------------------------------------------------------------------------
# Group-commit torture: concurrent committers sharing WAL forces
# ---------------------------------------------------------------------------

#: storage-level transaction ids for the in-flight losers; far above
#: anything the transaction manager hands out during the workload.
_LOSER_TX_1 = 900_001
_LOSER_TX_2 = 900_002
#: the checkpointed state the batched workload starts from
_BATCHED_BASE = {1: b"seed-0"}


def hold_next_force(faults: FaultRegistry, storage: StorageManager,
                    committers: int, timeout: float = 30.0) -> None:
    """Arm a one-shot ``wal.fsync`` handshake on the next log force.

    The force's leader has already dropped the log lock when the point
    fires; the callback holds it there until ``committers`` commits
    (the leader's own included) are queued on the commit barrier.  The
    commits queued behind the leader then share the next force, so
    batching is deterministic rather than a matter of thread timing.
    """
    def hold(ctx: dict) -> None:
        deadline = time.monotonic() + timeout
        while storage.wal_stats()["commit_queue_depth"] < committers:
            if time.monotonic() > deadline:
                raise AssertionError(
                    f"only {storage.wal_stats()['commit_queue_depth']} of "
                    f"{committers} commits queued behind the held force")
            time.sleep(0.0005)

    faults.arm(WAL_FSYNC, callback=hold)


def _run_batched_workload(base_dir: str, threads: int, rounds: int,
                          flight: FlightRecorder = NULL_FLIGHT
                          ) -> tuple[bytes, bytes, set[int], set[int], int]:
    """Run the concurrently batched commit workload to a crash image.

    After a checkpointed seed (OID 1 = ``_BATCHED_BASE``), ``threads``
    committers rendezvous on a barrier each round, and
    :func:`hold_next_force` holds the round's first force until all of
    them have queued, so the rest share the next force; two in-flight
    losers and one abort are interleaved.  Returns the checkpoint-time
    data file, the final WAL image, every OID touched, the transactions
    whose ``commit`` returned (acked), and the largest commit batch one
    force covered.
    """
    metrics = MetricsRegistry()
    faults = FaultRegistry()
    sm = StorageManager(base_dir, metrics=metrics, faults=faults,
                        flight=flight)
    _commit(sm, 1, (1, _BATCHED_BASE[1]))
    sm.checkpoint()
    base_image = _read_file(os.path.join(base_dir, StorageManager.DATA_FILE))

    sm.begin(_LOSER_TX_1)                      # loser 1: in flight
    sm.write(_LOSER_TX_1, OID(900_101), b"loser-1")

    all_oids = {1, 900_101, 900_102, 900_103}
    # The seed transaction's durability is the checkpoint *image*, not
    # the log, so it is not part of the acked-in-log set.
    acked: set[int] = set()
    barrier = threading.Barrier(
        threads, action=lambda: hold_next_force(faults, sm, threads))
    failures: list[BaseException] = []

    def worker(tid: int) -> None:
        try:
            for rnd in range(rounds):
                tx = 100 + tid * 10 + rnd
                oid = 1000 + tid * 100 + rnd
                all_oids.add(oid)
                sm.begin(tx)
                sm.write(tx, OID(oid), b"gc-%d-%d" % (tid, rnd))
                barrier.wait()                  # commit together -> batch
                sm.commit(tx)
                acked.add(tx)                   # commit returned == acked
        except BaseException as exc:            # pragma: no cover - sanity
            failures.append(exc)

    workers = [threading.Thread(target=worker, args=(tid,))
               for tid in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    if failures:
        raise failures[0]

    sm.begin(_LOSER_TX_2)                      # loser 2: in flight
    sm.write(_LOSER_TX_2, OID(900_102), b"loser-2")
    sm.begin(900_003)                          # loser 3: explicit abort
    sm.write(900_003, OID(900_103), b"loser-3")
    sm.abort(900_003)
    sm.flush()
    wal_image = _read_file(os.path.join(base_dir, StorageManager.LOG_FILE))
    batch_hist = metrics.histogram("wal.commits_per_flush").summary()
    sm.crash()                                 # the primary dies here
    sm.close()
    return (base_image, wal_image, all_oids, acked,
            int(batch_hist.get("max") or 0))


def run_group_commit_torture(root: str, threads: int = 8,
                             rounds: int = 2) -> TortureReport:
    """Crash-point torture over a *concurrently batched* commit workload
    (:func:`_run_batched_workload`).  The final WAL image contains runs
    of COMMIT records that were covered by a single fsync, and the cut
    loop exercises torn tails *mid-batch* — a crash between the
    ``os.write`` and the ``fsync`` of a shared force must lose or keep
    each covered transaction exactly according to the surviving prefix.
    Every transaction whose ``commit`` returned must be a winner of the
    surviving log: an acked commit is never lost.
    """
    base_dir = os.path.join(root, "gc-base")
    base_image, wal_image, all_oids, acked, max_batch = \
        _run_batched_workload(
            base_dir, threads, rounds,
            flight=FlightRecorder(capacity=1024, directory=base_dir))
    winners = _winner_ids(parse_wal_prefix(wal_image))
    if not acked <= winners:
        raise AssertionError(
            f"acked transactions missing from the surviving log: "
            f"{sorted(acked - winners)} — an acked commit was lost")
    report = TortureReport(total_winners=len(winners), total_losers=3,
                           max_commit_batch_observed=max_batch)
    _validate_flight_dump(base_dir, wal_image, report)
    _check_storage_cuts(root, base_image, _BATCHED_BASE, wal_image,
                        all_oids, report)
    return report


# ---------------------------------------------------------------------------
# Database-level torture
# ---------------------------------------------------------------------------

@sentried
class TortureRecord:
    """Named counter object the database-level workload mutates."""

    def __init__(self, name: str, value: int = 0):
        self.name = name
        self.value = value

    def set_value(self, value: int) -> None:
        self.value = value




class _TortureAbort(Exception):
    """Raised inside a user transaction to make it a loser."""


def run_database_torture(root: str) -> TortureReport:
    """Exhaustive crash-point check over a full active-database workload.

    Eight user transactions (winners) mutate, create and delete named
    objects, with two storage-level in-flight transactions and one
    aborted user transaction (losers) interleaved.
    For each WAL cut the recovered database must show exactly the state
    after the k committed transactions the prefix retains: fetch-by-name
    values, ``ObjectNotFoundError`` for later objects, a fresh OID above
    every replayed one, and a consistent index over the survivors.
    """
    base_dir = os.path.join(root, "db-base")
    db = ReachEngine(directory=base_dir)
    db.register_class(TortureRecord)
    objs = {name: TortureRecord(name) for name in ("alpha", "beta", "gamma")}
    with db.transaction():
        for name, obj in objs.items():
            db.persist(obj, name)
    db.checkpoint()
    base_image = _read_file(os.path.join(base_dir, StorageManager.DATA_FILE))

    # expected[k] = {name: value} of the objects that exist after k
    # committed transactions.
    expected: list[dict[str, int]] = [
        {"alpha": 0, "beta": 0, "gamma": 0}]

    def commit_state(*deleted: str, **updates: int) -> None:
        state = dict(expected[-1])
        state.update(updates)
        for name in deleted:
            del state[name]
        expected.append(state)

    db.storage.begin(_LOSER_TX_1)
    db.storage.write(_LOSER_TX_1, OID(999_001), b"never-committed-1")

    with db.transaction():                       # winner 1
        objs["alpha"].set_value(10)
    commit_state(alpha=10)

    with db.transaction():                       # winner 2
        objs["beta"].set_value(20)
        objs["gamma"].set_value(21)
    commit_state(beta=20, gamma=21)

    db.storage.write(_LOSER_TX_1, OID(999_002), b"never-committed-2")
    db.storage.begin(_LOSER_TX_2)
    db.storage.write(_LOSER_TX_2, OID(999_003), b"never-committed-3")

    epsilon = TortureRecord("epsilon", 5)
    with db.transaction():                       # winner 3: new object
        db.persist(epsilon, "epsilon")
    commit_state(epsilon=5)

    with db.transaction():                       # winner 4
        objs["alpha"].set_value(40)
        epsilon.set_value(45)
    commit_state(alpha=40, epsilon=45)

    try:
        with db.transaction():                   # loser 3: user abort
            epsilon.set_value(999)
            raise _TortureAbort()
    except _TortureAbort:
        pass

    with db.transaction():                       # winner 5
        objs["beta"].set_value(50)
    commit_state(beta=50)

    with db.transaction():                       # winner 6: delete
        db.delete(objs["gamma"])
    commit_state("gamma")

    zeta = TortureRecord("zeta", 7)
    with db.transaction():                       # winner 7: new object
        db.persist(zeta, "zeta")
    commit_state(zeta=7)

    with db.transaction():                       # winner 8
        objs["alpha"].set_value(80)
        zeta.set_value(81)
    commit_state(alpha=80, zeta=81)

    db.storage.flush()
    wal_image = _read_file(os.path.join(base_dir, StorageManager.LOG_FILE))
    db.storage.crash()            # dumps the engine's own flight ring
    db.close()

    full_records = parse_wal_prefix(wal_image)
    report = TortureReport(total_winners=len(_winner_ids(full_records)),
                           total_losers=3)
    _validate_flight_dump(base_dir, wal_image, report)

    for index, (offset, kind) in enumerate(_all_cuts(wal_image)):
        prefix = wal_image[:offset]
        records = parse_wal_prefix(prefix)
        committed = len(_winner_ids(records))
        state = expected[committed]
        directory = _materialize(root, index, base_image, prefix)
        recovered = ReachEngine(directory=directory)
        try:
            recovered.register_class(TortureRecord)
            survivors = []
            for name in ("alpha", "beta", "gamma", "epsilon", "zeta"):
                if name in state:
                    obj = recovered.fetch(name)
                    if obj.value != state[name]:
                        raise AssertionError(
                            f"cut@{offset} ({kind}): {name} recovered "
                            f"{obj.value}, expected {state[name]}")
                    survivors.append((name, state[name]))
                else:
                    try:
                        recovered.fetch(name)
                    except ObjectNotFoundError:
                        pass
                    else:
                        raise AssertionError(
                            f"cut@{offset} ({kind}): {name} should not "
                            "have survived recovery")
            # Loser images must be invisible at every level.
            for loser_oid in (999_001, 999_002, 999_003):
                if recovered.storage.exists(None, OID(loser_oid)):
                    raise AssertionError(
                        f"cut@{offset} ({kind}): loser OID {loser_oid} "
                        "survived recovery")
            # Index consistency over the survivors.
            recovered.create_index(TortureRecord, "value")
            rows = recovered.query("select r from TortureRecord r")
            got = sorted((row.name, row.value) for row in rows)
            if got != sorted(survivors):
                raise AssertionError(
                    f"cut@{offset} ({kind}): query saw {got}, "
                    f"expected {sorted(survivors)}")
            # Allocator monotonicity: a fresh persist must mint an OID
            # above everything the prefix replayed.
            floor = recovered.storage.max_oid_value()
            fresh = TortureRecord("fresh", -1)
            with recovered.transaction():
                fresh_oid = recovered.persist(fresh, f"fresh-{index}")
            if fresh_oid.value <= floor:
                raise AssertionError(
                    f"cut@{offset} ({kind}): fresh OID {fresh_oid.value} "
                    f"not above recovered max {floor}")
        finally:
            recovered.close()
        report.cuts.append(CutResult(offset=offset, kind=kind,
                                     records=len(records),
                                     winners=committed))
    return report


# ---------------------------------------------------------------------------
# Composer torture: kill mid-composition, recover, finish the composite
# ---------------------------------------------------------------------------

#: the three signal leaves every composer-torture case is built from
_CT_A = SignalEventSpec("ct-a")
_CT_B = SignalEventSpec("ct-b")
_CT_C = SignalEventSpec("ct-c")
_CT_NAMES = {"a": "ct-a", "b": "ct-b", "c": "ct-c"}
_CT_SPECS = {"a": _CT_A, "b": _CT_B, "c": _CT_C}
_CT_WINDOW = 1e9


def _ct_spec(make, policy: ConsumptionPolicy):
    """Scope a case's operator tree for engine-level multi-tx streams."""
    return make(policy).scoped(EventScope.MULTI_TX).within(_CT_WINDOW)


def composer_torture_cases() -> list[tuple[str, object, list[str]]]:
    """Every algebra operator with a stream that leaves a half-match
    between each consecutive pair of constituents.  ``(name, make_spec,
    stream)`` — ``make_spec(policy)`` builds the scoped spec."""
    return [
        ("seq",
         lambda p: _ct_spec(lambda q: Sequence(_CT_A, _CT_B).consumed(q), p),
         ["a", "b", "a", "b"]),
        ("conj",
         lambda p: _ct_spec(
             lambda q: Conjunction(_CT_A, _CT_B).consumed(q), p),
         ["a", "b", "b", "a"]),
        ("disj",
         lambda p: _ct_spec(
             lambda q: Disjunction(_CT_A, _CT_B).consumed(q), p),
         ["a", "b"]),
        ("neg",
         lambda p: _ct_spec(
             lambda q: Negation(_CT_C, _CT_A, _CT_B).consumed(q), p),
         ["a", "b", "a", "c", "b"]),
        ("closure",
         lambda p: _ct_spec(lambda q: Closure(_CT_A, _CT_B).consumed(q), p),
         ["a", "a", "b", "a", "b"]),
        ("history",
         lambda p: _ct_spec(
             lambda q: History(_CT_A, count=2,
                               window=_CT_WINDOW).consumed(q), p),
         ["a", "a", "a"]),
        ("nested",
         lambda p: _ct_spec(
             lambda q: Sequence(
                 Conjunction(_CT_A, _CT_B).consumed(q).within(_CT_WINDOW),
                 _CT_C).consumed(q), p),
         ["a", "b", "c", "b", "a", "c"]),
    ]


@dataclass
class ComposerCutResult:
    offset: int
    kind: str              # "boundary" | "torn"
    case: str              # "<operator>:<policy>"
    covered: int           # stream events the restored checkpoint captured
    replayed: int          # suffix events re-fed after recovery
    expected: int          # completions the uninterrupted oracle predicts
    fired: int             # completions the recovered engine actually fired


@dataclass
class ComposerTortureReport:
    cases: list[str] = field(default_factory=list)
    cuts: list[ComposerCutResult] = field(default_factory=list)
    #: completions the uninterrupted oracle fires over every full stream
    total_completions: int = 0
    #: COMPOSER_CHECKPOINT records present across the full WAL images
    checkpoint_records_seen: int = 0
    #: torn cuts landing *inside* a COMPOSER_CHECKPOINT frame — the CRC
    #: scan must end the prefix there and recovery must fall back to the
    #: previous durable checkpoint
    checkpoint_torn_cuts: int = 0
    #: COMPOSER_CHECKPOINT frames in the last case's surviving log, read
    #: after the crashed engine closed
    surviving_checkpoint_frames: int = 0
    #: group graphs the sharded topology held right after recovering a
    #: crash image taken inside an open cross-shard half-match (must be 0)
    sharded_restored_groups: int = 0
    #: completions a fresh same-transaction pair fired on the recovered
    #: sharded topology (must be 1)
    sharded_recovered_fired: int = 0

    @property
    def boundary_cuts(self) -> int:
        return sum(1 for cut in self.cuts if cut.kind == "boundary")

    @property
    def torn_cuts(self) -> int:
        return sum(1 for cut in self.cuts if cut.kind == "torn")


def _ct_occurrence(kind: str, index: int) -> EventOccurrence:
    spec = _CT_SPECS[kind]
    return EventOccurrence(spec, spec.category(), float(index),
                           tx_ids=frozenset({index}), seq=index)


def _ct_oracle_suffix(spec, stream: list[str], split: int) -> list[tuple]:
    """What an *uninterrupted* composer fires for ``stream[split:]`` after
    silently absorbing ``stream[:split]`` — expressed as sorted tuples of
    1-based stream indices (oracle occurrences carry ``seq = index``)."""
    oracle = Composer(spec)
    occurrences = [_ct_occurrence(kind, index)
                   for index, kind in enumerate(stream, 1)]
    for occurrence in occurrences[:split]:
        oracle.feed(occurrence)
    emissions: list[EventOccurrence] = []
    for occurrence in occurrences[split:]:
        emissions.extend(oracle.feed(occurrence))
    return sorted(
        tuple(sorted(c.seq for c in e.all_primitive_components()))
        for e in emissions)


def _ct_checkpoint_frames(wal_image: bytes) -> list[tuple[int, int]]:
    """(start, end) byte ranges of every COMPOSER_CHECKPOINT frame."""
    frames = []
    boundaries = wal_record_boundaries(wal_image)
    records = parse_wal_prefix(wal_image)
    for record, (start, end) in zip(records,
                                    zip(boundaries, boundaries[1:])):
        if record.type is LogRecordType.COMPOSER_CHECKPOINT:
            frames.append((start, end))
    return frames


def _run_composer_case(root: str, case: str, spec, stream: list[str],
                       report: ComposerTortureReport) -> str:
    """Run one (operator, policy) workload to a crash image, then recover
    from every cut and check exactly-once completion against the oracle.
    Returns the workload's base directory (its files are the crash image).
    """
    base_dir = os.path.join(root, f"ct-{case.replace(':', '-')}")
    db = ReachEngine(directory=base_dir)
    db.rule(f"ct-{case}", spec, action=lambda ctx: None,
            coupling=CouplingMode.DETACHED)

    live_seq_to_index: dict[int, int] = {}
    cursor = {"index": 0}

    def live_listener(occurrence: EventOccurrence) -> None:
        live_seq_to_index[occurrence.seq] = cursor["index"]

    for leaf in set(spec.leaves()):
        db.events.primitive_manager(leaf).add_listener(live_listener)

    # The pre-stream checkpoint: compaction emits the (empty) composer
    # snapshot, and its LSN marks "zero events covered".
    db.checkpoint()
    base_image = _read_file(os.path.join(base_dir, StorageManager.DATA_FILE))
    lsn_to_index = {
        db.storage.wal_stats()["last_composer_checkpoint_lsn"]: 0}

    for index, kind in enumerate(stream, 1):
        cursor["index"] = index
        with db.transaction():
            db.signal(_CT_NAMES[kind])
        db.drain_detached()
        db.storage.flush()
        lsn = db.storage.wal_stats()["last_composer_checkpoint_lsn"]
        if lsn in lsn_to_index:
            raise AssertionError(
                f"{case}: the force after event {index} wrote no composer "
                "checkpoint — the force boundary lost detection state")
        lsn_to_index[lsn] = index

    db.storage.flush()
    wal_image = _read_file(os.path.join(base_dir, StorageManager.LOG_FILE))
    db.storage.crash()
    db.close()

    full_records = parse_wal_prefix(wal_image)
    report.checkpoint_records_seen += sum(
        1 for r in full_records
        if r.type is LogRecordType.COMPOSER_CHECKPOINT)
    report.total_completions += len(_ct_oracle_suffix(spec, stream, 0))
    checkpoint_frames = _ct_checkpoint_frames(wal_image)
    oracle_cache: dict[int, list[tuple]] = {}

    for cut_index, (offset, kind) in enumerate(_all_cuts(wal_image)):
        prefix = wal_image[:offset]
        records = parse_wal_prefix(prefix)
        checkpoints = [r for r in records
                       if r.type is LogRecordType.COMPOSER_CHECKPOINT]
        covered = lsn_to_index.get(checkpoints[-1].lsn, 0) \
            if checkpoints else 0
        if kind == "torn" and any(start < offset < end
                                  for start, end in checkpoint_frames):
            report.checkpoint_torn_cuts += 1

        directory = _materialize(
            os.path.join(root, f"ct-cuts-{case.replace(':', '-')}"),
            cut_index, base_image, prefix)
        recovered = ReachEngine(directory=directory)
        fired: list[EventOccurrence] = []
        try:
            recovered.rule(f"ct-{case}", spec,
                           action=lambda ctx: fired.append(ctx.event),
                           coupling=CouplingMode.DETACHED)
            recovery_seq_to_index: dict[int, int] = {}
            recovery_cursor = {"index": 0}

            def recovery_listener(
                    occurrence: EventOccurrence,
                    __map=recovery_seq_to_index,
                    __cur=recovery_cursor) -> None:
                __map[occurrence.seq] = __cur["index"]

            for leaf in set(spec.leaves()):
                recovered.events.primitive_manager(
                    leaf).add_listener(recovery_listener)
            for index in range(covered + 1, len(stream) + 1):
                recovery_cursor["index"] = index
                with recovered.transaction():
                    recovered.signal(_CT_NAMES[stream[index - 1]])
                recovered.drain_detached()

            if covered not in oracle_cache:
                oracle_cache[covered] = _ct_oracle_suffix(
                    spec, stream, covered)
            expected = oracle_cache[covered]
            index_of = {**live_seq_to_index, **recovery_seq_to_index}
            got = []
            for emission in fired:
                components = emission.all_primitive_components()
                try:
                    got.append(tuple(sorted(
                        index_of[c.seq] for c in components)))
                except KeyError as exc:
                    raise AssertionError(
                        f"{case} cut@{offset} ({kind}): completion "
                        f"references unknown constituent seq {exc}")
            got.sort()
            if got != expected:
                raise AssertionError(
                    f"{case} cut@{offset} ({kind}, {covered} events "
                    f"covered): recovered composer fired {got}, oracle "
                    f"predicts {expected} — "
                    + ("duplicate completion" if len(got) > len(expected)
                       else "forgotten half-match"))
        finally:
            recovered.close()
        report.cuts.append(ComposerCutResult(
            offset=offset, kind=kind, case=case, covered=covered,
            replayed=len(stream) - covered, expected=len(expected),
            fired=len(got)))
    report.cases.append(case)
    return base_dir


def _sharded_signal_names(shard_map, wanted_shards: list[int]) -> list[str]:
    """Signal names whose spec keys home on the given shards, in order."""
    names = []
    candidate = 0
    for want in wanted_shards:
        while True:
            name = f"ct-sig-{candidate}"
            candidate += 1
            if shard_map.shard_of_key(
                    SignalEventSpec(name).key()) == want:
                names.append(name)
                break
    return names


def _run_sharded_composer_case(root: str,
                               report: ComposerTortureReport) -> None:
    """Cross-shard group durability: a same-transaction composite whose
    leaves home on different shards is half-composed inside an *open*
    sharded transaction when the logs are forced, and the power cut
    lands right after.  The crash ends the open transaction, so the
    recovered topology must (a) restore no group graph and (b) compose
    a fresh same-transaction pair exactly once."""
    config = ExecutionConfig(sharding=ShardingConfig(shards=2))
    base_dir = os.path.join(root, "ct-sharded-base")
    crash_dir = os.path.join(root, "ct-sharded-crash")
    fired: list[str] = []
    db = ShardedEngine(directory=base_dir, config=config)
    a_name, b_name = _sharded_signal_names(db.shard_map, [0, 1])
    spec = Sequence(SignalEventSpec(a_name), SignalEventSpec(b_name))
    db.rule("ct-sharded", spec, action=lambda ctx: fired.append("live"),
            coupling=CouplingMode.DEFERRED)
    victim = db.create_session("ct-victim")
    witness = db.create_session("ct-witness")
    victim_tx = victim.transaction()
    victim_tx.__enter__()
    db.signal(a_name)                  # half-match inside the open group
    with witness.transaction():
        pass                           # another transaction's EOT
    for shard in db.shards:
        shard.storage.flush()
    # The on-disk state *is* the crash image: copy it while the victim
    # transaction is still open, exactly what a power cut preserves.
    if os.path.exists(crash_dir):
        shutil.rmtree(crash_dir)
    shutil.copytree(base_dir, crash_dir)
    victim_tx.__exit__(None, None, None)
    db.close()
    if fired:
        raise AssertionError("sharded half-match completed prematurely")

    engine = ShardedEngine(directory=crash_dir, config=config)
    try:
        engine.rule("ct-sharded", spec,
                    action=lambda ctx: fired.append("recovered"),
                    coupling=CouplingMode.DEFERRED)
        session = engine.create_session("ct-recovered")
        home = engine.shards[engine.shard_for_key(spec.key())]
        composer = home.events.composite_manager(
            spec, wire_leaves=False).composer
        report.sharded_restored_groups = composer.graph_instance_count()
        if report.sharded_restored_groups:
            raise AssertionError(
                "recovery restored a group graph of a transaction the "
                "crash ended")
        with session.transaction():
            session.signal(a_name)
            session.signal(b_name)
        report.sharded_recovered_fired = len(fired)
        if report.sharded_recovered_fired != 1:
            raise AssertionError(
                f"fresh pair fired {report.sharded_recovered_fired} "
                "times after recovery, expected 1")
    finally:
        engine.close()


def run_composer_torture(
        root: str,
        operators: Optional[list[str]] = None,
        policies: Optional[list[ConsumptionPolicy]] = None,
) -> ComposerTortureReport:
    """Mid-composition crash torture: for every algebra operator and
    SNOOP policy, feed constituents one transaction at a time, each
    followed by a log force (so a durable composer checkpoint lands at
    each event boundary), snapshot the crash image, and for every WAL
    record boundary *and* torn offset re-open the database, re-register
    the rule, feed exactly the constituents the restored checkpoint does
    not cover, and require the recovered composer to fire *exactly* the
    completions an uninterrupted oracle composer predicts — never a
    duplicate, never a forgotten half-match.  Torn cuts inside
    COMPOSER_CHECKPOINT frames exercise the fall-back-to-previous-
    checkpoint path; a final pass checks that the last case's surviving
    log still holds composer checkpoint frames and that a sharded
    topology restores no open cross-shard half-match yet composes a
    fresh pair exactly once.

    ``operators``/``policies`` restrict the matrix (default: all seven
    operator trees x all four policies).
    """
    report = ComposerTortureReport()
    wanted = composer_torture_cases()
    if operators is not None:
        wanted = [case for case in wanted if case[0] in operators]
    for policy in (policies or list(ConsumptionPolicy)):
        for name, make_spec, stream in wanted:
            case = f"{name}:{policy.value}"
            base_dir = _run_composer_case(
                root, case, make_spec(policy), stream, report)

    report.surviving_checkpoint_frames = len(_ct_checkpoint_frames(
        _read_file(os.path.join(base_dir, StorageManager.LOG_FILE))))
    if report.surviving_checkpoint_frames == 0:
        raise AssertionError(
            "the surviving log holds no COMPOSER_CHECKPOINT frames — the "
            "workload should have written them")

    _run_sharded_composer_case(root, report)
    return report
