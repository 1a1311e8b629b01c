"""Guards on what a rule firing and a session call cost, by count.

Each test counts work the firing path and the session boundary must not
do — generator context managers entered, transaction contexts pushed,
detached drains re-entered, transactions begun, Python calls from a
sentried call to its immediate action, by-value type checks — so a
change that brings the overhead back fails here, on any machine, without
a clock.  The last test pins the firing log and the flight recorder's
``rule.fire`` records of a seeded rule stream to a recorded copy:
logging a firing once must keep both views exactly as they were.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import random
import sys
import threading

import pytest

from repro import (
    ConsumptionPolicy,
    CouplingMode,
    EventScope,
    MethodEventSpec,
    ReachEngine,
    SignalEventSpec,
    sentried,
)
from repro.core.scheduler import RuleScheduler
from repro.oodb import sentry
from repro.oodb.transactions import TransactionManager
from repro.server import ReachClient, ReachServer

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                      "firing_records_stream.json")


@sentried
class Meter:
    def __init__(self, name):
        self.name = name
        self.value = 0

    def read(self, value):
        self.value = value

    def idle(self, value):
        return value


@pytest.fixture
def counts(monkeypatch):
    """Counters of generator context managers entered, transaction
    contexts pushed and detached drains begun, while ``on`` is set."""
    tally = {"on": False, "generator_cms": 0, "pushes": 0, "drains": 0,
             "begins": 0}

    def counting(cls, name, key):
        original = getattr(cls, name)

        def wrapper(*args, **kwargs):
            if tally["on"]:
                tally[key] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(cls, name, wrapper)

    counting(contextlib._GeneratorContextManager, "__enter__",
             "generator_cms")
    counting(TransactionManager, "push_context", "pushes")
    counting(TransactionManager, "begin", "begins")
    counting(RuleScheduler, "drain_detached", "drains")
    return tally


def _engine(tmp_path, **rules):
    db = ReachEngine(directory=str(tmp_path / "db"))
    db.register_class(Meter)
    for name, mode in rules.items():
        db.rule(name, MethodEventSpec("Meter", "read"),
                action=lambda ctx: None, coupling=mode)
    return db


def test_session_call_inside_own_transaction_binds_nothing(tmp_path,
                                                          counts):
    db = _engine(tmp_path, r_imm=CouplingMode.IMMEDIATE)
    session = db.create_session("s")
    meter = Meter("m")
    with session.transaction():
        session.persist(meter, "m")
    with session.transaction():
        counts["on"] = True
        session.signal("quiet")
        assert session.fetch("m") is meter
        session.query("select m from Meter m")
        meter.read(3)
        counts["on"] = False
    assert counts["generator_cms"] == 0
    assert counts["pushes"] == 0
    session.close()
    db.close()


def test_session_transaction_enters_no_generator_context_manager(
        tmp_path, counts):
    db = _engine(tmp_path)
    session = db.create_session("s")
    counts["on"] = True
    with session.transaction():
        session.signal("quiet")
    counts["on"] = False
    assert counts["generator_cms"] == 0
    assert counts["pushes"] == 1          # the session's own context, once
    session.close()
    db.close()


def test_released_detached_item_begins_one_transaction(tmp_path, counts):
    db = _engine(tmp_path, r_det=CouplingMode.DETACHED)
    meter = Meter("m")
    with db.transaction():
        meter.read(1)
        counts["on"] = True
    counts["on"] = False
    assert db.get_rule("r_det").fired_count == 1
    assert counts["begins"] == 1
    assert counts["pushes"] == 1          # the rule transaction's context
    assert counts["generator_cms"] == 0
    db.close()


def test_detached_commit_that_released_nothing_does_not_redrain(tmp_path,
                                                               counts):
    db = _engine(tmp_path, **{f"r_det{i}": CouplingMode.DETACHED
                              for i in range(4)})
    meter = Meter("m")
    with db.transaction():
        meter.read(1)
        counts["on"] = True
    counts["on"] = False
    assert [db.get_rule(f"r_det{i}").fired_count for i in range(4)] == \
        [1] * 4
    assert counts["drains"] == 1
    db.close()


@pytest.mark.parametrize("in_transaction", [False, True],
                         ids=["autocommit", "in_transaction"])
def test_wire_call_binds_the_session_at_most_once(tmp_path, counts,
                                                  in_transaction):
    db = ReachEngine(directory=str(tmp_path / "db"))
    server = ReachServer(db).start()
    client = ReachClient(*server.address)
    try:
        client.put("doc", fields={"level": 1})
        if in_transaction:
            client.begin()
        counts["on"] = True
        client.call("doc", "touch")
        counts["on"] = False
        if in_transaction:
            client.commit()
        assert counts["pushes"] <= (0 if in_transaction else 1)
    finally:
        client.close()
        server.close()
        db.close()


def test_one_session_served_by_many_threads_keeps_its_binding(tmp_path):
    """Threads queue on a session's one binding: every transaction runs
    in the session's context, nested session calls bind nothing, and
    the binding is left unowned and empty."""
    db = _engine(tmp_path, r_imm=CouplingMode.IMMEDIATE)
    session = db.create_session("shared")
    meter = Meter("m")
    failures = []

    def serve(rounds):
        try:
            for __ in range(rounds):
                with session.transaction() as tx:
                    assert db.tx_manager.current() is tx
                    assert tx.session_id == session.id
                    session.signal("quiet")
                    meter.read(1)
                    assert db.tx_manager.current() is tx
        except BaseException as exc:  # reported by the main thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=serve, args=(200,))
                   for __ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert session.stats["commits"] == 1200
    assert db.get_rule("r_imm").fired_count == 1200
    binding = session.use()
    assert binding._frames == [] and binding._owner is None
    session.close()
    db.close()


# -- the detection path, in Python calls ------------------------------------


@sentried(track_state=False)
class Sensor:
    def __init__(self, name):
        self.name = name
        self.value = 0

    def read(self, value, stamp):
        self.value = value

    def idle(self, value):
        return value


#: Python calls from a sentried ``Sensor.read`` to the entry of its
#: IMMEDIATE action, both included (69 before the detection path took
#: its per-type and per-transaction values once).
DETECTION_PATH_CALLS = 48


def _active_engine(directory):
    """The pipeline's ``active_cpu`` rule set: immediate (with a
    condition), deferred and detached rules on ``Sensor.read``, a
    sequence and a multi-transaction conjunction over signals, and 128
    bystanders on 32 quiet signals."""
    db = ReachEngine(directory=directory)
    db.register_class(Sensor)
    read = MethodEventSpec("Sensor", "read")
    a, b, c = (SignalEventSpec(name) for name in "abc")
    entered = []

    def on_imm(ctx):
        entered.append(ctx)

    def noop(ctx):
        return None

    db.rule("r_imm", read, action=on_imm,
            condition=lambda ctx: ctx["args"][0] % 2 == 0,
            coupling=CouplingMode.IMMEDIATE)
    db.rule("r_def", read, action=noop, coupling=CouplingMode.DEFERRED)
    db.rule("r_det", read, action=noop, coupling=CouplingMode.DETACHED)
    db.rule("r_seq", a >> b, action=noop, coupling=CouplingMode.DEFERRED)
    db.rule("r_conj",
            (a & c).scoped(EventScope.MULTI_TX).within(3600.0)
                   .consumed(ConsumptionPolicy.RECENT),
            action=noop, coupling=CouplingMode.DETACHED)
    for index in range(128):
        db.rule(f"bystander-{index}", SignalEventSpec(f"quiet-{index % 32}"),
                action=noop, coupling=CouplingMode.IMMEDIATE)
    return db, on_imm


def test_sentried_call_reaches_its_immediate_action_in_few_calls(tmp_path):
    db, on_imm = _active_engine(str(tmp_path / "db"))
    session = db.create_session("generator")
    sensors = [Sensor(f"sensor-{index}") for index in range(4)]
    with session.transaction():
        for sensor in sensors:
            session.persist(sensor, sensor.name)
    for index in range(4):  # steady state: every lazy cache is built
        with session.transaction():
            sensors[index].read(2 * index, 0.0)
            session.signal("a")
            session.signal("b")
    calls = []
    action = on_imm.__code__

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code)
            if frame.f_code is action:
                sys.setprofile(None)

    gc.disable()  # a collection's callbacks would count as path calls
    try:
        with session.transaction():
            sys.setprofile(profile)
            try:
                sensors[1].read(4, 0.0)
            finally:
                sys.setprofile(None)
    finally:
        gc.enable()
    assert calls and calls[-1] is action
    assert len(calls) <= DETECTION_PATH_CALLS, [
        f"{code.co_filename.rsplit(os.sep, 1)[-1]}:{code.co_name}"
        for code in calls]
    session.close()
    db.close()


def test_by_value_check_walks_each_binding_type_once(tmp_path):
    """A detached firing decides per binding whether to copy it by value;
    the sentried-class test behind that runs once per binding type."""
    walk = sentry.is_sentried.__code__
    asked = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is walk:
            asked.append(frame.f_locals["cls"])

    sentried(type("Fresh", (), {}))   # a new sentried class: ask afresh
    db = _engine(tmp_path, r_det=CouplingMode.DETACHED)
    meter = Meter("m")   # transient: passed to the rule by value
    sys.setprofile(profile)
    try:
        for value in range(20):
            with db.transaction():
                meter.read(value)
    finally:
        sys.setprofile(None)
    assert db.get_rule("r_det").fired_count == 20
    assert sorted(asked, key=repr) == sorted(
        {Meter, str, tuple, dict, type(None)}, key=repr)
    db.close()


# -- the firing records of a seeded stream ---------------------------------


def record_stream(directory: str, transactions: int = 12,
                  seed: int = 42) -> dict:
    """Run a seeded stream shaped like the pipeline's ``active_cpu``
    workload (immediate, deferred and detached rules on a method event,
    a sequence and a multi-transaction conjunction over signals, quiet
    bystanders) and return its firing log and ``rule.fire`` flight
    records, with process-wide ids renumbered in order of appearance."""
    db = ReachEngine(directory=directory)
    db.register_class(Meter)
    read = MethodEventSpec("Meter", "read")
    a, b, c = (SignalEventSpec(name) for name in "abc")

    def noop(ctx):
        return None

    db.rule("r_imm", read, action=noop,
            condition=lambda ctx: ctx["args"][0] % 2 == 0,
            coupling=CouplingMode.IMMEDIATE)
    db.rule("r_def", read, action=noop, coupling=CouplingMode.DEFERRED)
    db.rule("r_det", read, action=noop, coupling=CouplingMode.DETACHED)
    db.rule("r_seq", a >> b, action=noop, coupling=CouplingMode.DEFERRED)
    db.rule("r_conj",
            (a & c).scoped(EventScope.MULTI_TX).within(3600.0)
                   .consumed(ConsumptionPolicy.RECENT),
            action=noop, coupling=CouplingMode.DETACHED)
    for index in range(8):
        db.rule(f"bystander-{index}", SignalEventSpec(f"quiet-{index}"),
                action=noop, coupling=CouplingMode.IMMEDIATE)
    rng = random.Random(seed)
    session = db.create_session("generator")
    meters = [Meter(f"meter-{index}") for index in range(8)]
    with session.transaction():
        for meter in meters:
            session.persist(meter, meter.name)
    db.flight_recorder().clear()
    db.scheduler.firing_log.clear()
    for index in range(transactions):
        with session.transaction():
            for step in range(4):
                meter = rng.choice(meters)
                meter.read(rng.randrange(1_000))
                meter.idle(step)
            session.signal("a")
            session.signal("b")
            if index % 2:
                session.signal("c")
    ids: dict[tuple[str, object], int] = {}

    def renumber(kind: str, value):
        if value is None:
            return None
        return ids.setdefault((kind, value),
                              sum(1 for key in ids if key[0] == kind) + 1)

    log = [[record.rule_name, record.mode.value, record.phase,
            renumber("seq", record.event_seq), record.outcome,
            renumber("tx", record.tx_id),
            renumber("session", record.session_id)]
           for record in db.scheduler.firing_log]
    flight = []
    for entry in db.flight_recorder().entries("rule.fire"):
        # "seq" is the ring's, "event_seq" the occurrence's.
        fields = {key: value for key, value in entry.items()
                  if key not in ("ts", "category")}
        fields["seq"] = renumber("ring", fields["seq"])
        fields["event_seq"] = renumber("seq", fields["event_seq"])
        fields["tx"] = renumber("tx", fields["tx"])
        fields["session"] = renumber("session", fields["session"])
        flight.append(fields)
    db.close()
    return {"firing_log": log, "flight": flight}


def test_firing_and_flight_records_of_a_seeded_stream_are_unchanged(
        tmp_path):
    with open(GOLDEN, encoding="utf-8") as handle:
        expected = json.load(handle)
    records = record_stream(str(tmp_path / "db"))
    assert json.dumps(records["firing_log"]) == \
        json.dumps(expected["firing_log"])
    assert json.dumps(records["flight"]) == json.dumps(expected["flight"])
