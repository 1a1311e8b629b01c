"""Outside-in span recorder for the pipeline benchmark.

The benchmark may not edit the program, so per-layer time is measured by
wrapping the public boundary callables of each layer from here: a wrapper
times one call, knows its parent through a per-thread stack, and charges
the call's duration to the parent as *child time*.  A span's **self
time** is its duration minus the part covered by its child spans, so the
self times of all spans under one root add up to the root's duration.

Aggregates (count, total, self, and two free value sums per wrapped
callable) are kept per thread for every span; the raw spans
``(name, layer, start, end, parent, id, thread)`` go into one
preallocated buffer and spans past its capacity are counted as dropped,
not stored.  Nothing is written until the run is over.

``install`` patches classes and modules, so it runs *before* the engine
under test is constructed: bound methods the engine captures at
construction (``flush_log=wal.flush_to``, listeners, hooks) then already
point at the wrappers.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Iterable, Optional

now = time.perf_counter_ns

#: Raw spans kept for ``spans-<workload>.jsonl``; aggregates are not capped.
DEFAULT_CAPACITY = 100_000


class _ThreadState:
    __slots__ = ("stack", "agg", "samples", "tx", "tid", "root_ns",
                 "gap_start", "gap_root", "dropped")

    def __init__(self, tid: int):
        #: open spans as frames [child_ns, span index, parent index]
        self.stack: list[list[int]] = []
        self.agg: dict[int, list[int]] = {}   # slot -> [n, total, self, v1, v2]
        self.samples: dict[int, list[int]] = {}
        self.tx = 0
        self.tid = tid
        self.root_ns = 0                      # summed root-span durations
        self.gap_start = 0
        self.gap_root = 0
        self.dropped = 0


class Recorder:
    """Collects spans from every wrapped callable while ``enabled``."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.enabled = False
        self.capacity = capacity
        self._buffer: list[Optional[tuple]] = [None] * capacity
        self._ids = itertools.count()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self.slots: list[tuple[str, str]] = []          # slot -> (layer, name)
        self._slot_of: dict[tuple[str, str], int] = {}

    # -- registration ---------------------------------------------------

    def slot(self, layer: str, name: str) -> int:
        key = (layer, name)
        with self._lock:
            index = self._slot_of.get(key)
            if index is None:
                index = self._slot_of[key] = len(self.slots)
                self.slots.append(key)
            return index

    def state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState(threading.get_ident())
            with self._lock:
                self._states.append(st)
        return st

    def set_tx(self, tx_id: int) -> None:
        """Tag the calling thread's following spans with ``tx_id``."""
        self.state().tx = tx_id

    def reset(self) -> None:
        """Forget everything recorded so far (between warm-up and rounds)."""
        with self._lock:
            self._buffer = [None] * self.capacity
            self._ids = itertools.count()
            for st in self._states:
                st.agg = {}
                st.samples = {}
                st.root_ns = 0
                st.gap_start = 0
                st.dropped = 0

    # -- wrapping -------------------------------------------------------

    def wrap(self, fn: Callable, layer: str, name: str, *,
             keep: bool = False,
             value: Optional[Callable[[tuple, Any], tuple[int, int]]] = None,
             value_every: int = 1,
             on_enter: Optional[Callable[[_ThreadState, int], None]] = None,
             on_exit: Optional[Callable[[_ThreadState, int], None]] = None,
             ) -> Callable:
        """Return ``fn`` wrapped in a span of ``layer``.

        ``keep`` retains every duration (for percentiles); ``value``
        maps ``(args, result)`` to two integers summed per callable,
        evaluated after the span closed on every ``value_every``-th call
        and scaled back up; ``on_enter``/``on_exit`` see the thread state
        and the clock reading.
        """
        slot = self.slot(layer, name)
        rec = self
        close = self._close
        calls = itertools.count(1)

        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            st = rec.state()
            stack = st.stack
            frame = [0, next(rec._ids), stack[-1][1] if stack else -1]
            stack.append(frame)
            start = now()
            if on_enter is not None:
                on_enter(st, start)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(st, frame, slot, start, now(), keep)
                raise
            end = now()
            entry = close(st, frame, slot, start, end, keep)
            if on_exit is not None:
                on_exit(st, end)
            if value is not None and next(calls) % value_every == 0:
                first, second = value(args, result)
                entry[3] += first * value_every
                entry[4] += second * value_every
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _close(self, st: _ThreadState, frame: list[int], slot: int,
               start: int, end: int, keep: bool) -> list[int]:
        stack = st.stack
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][0] += duration
        else:
            st.root_ns += duration
        entry = st.agg.get(slot)
        if entry is None:
            entry = st.agg[slot] = [0, 0, 0, 0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[0]
        if keep:
            st.samples.setdefault(slot, []).append(duration)
        index = frame[1]
        if index < self.capacity:
            self._buffer[index] = (slot, start, end, frame[2], st.tx, st.tid)
        else:
            st.dropped += 1
        return entry

    def wrap_context(self, fn: Callable, layer: str, name: str) -> Callable:
        """Wrap a context-manager factory: one span around ``__enter__``
        and one around ``__exit__``, so the ``with`` body (the caller's
        own code) is not charged to ``layer``."""
        enter = self.wrap(lambda cm: cm.__enter__(), layer, name + ".enter")
        leave = self.wrap(lambda cm, *exc: cm.__exit__(*exc), layer,
                          name + ".exit")

        class _Spanned:
            __slots__ = ("_cm",)

            def __init__(self, cm):
                self._cm = cm

            def __enter__(self):
                return enter(self._cm)

            def __exit__(self, *exc):
                return leave(self._cm, *exc)

        def factory(*args, **kwargs):
            return _Spanned(fn(*args, **kwargs))

        factory.__wrapped__ = fn
        return factory

    # -- gaps (time between two spans on one thread) ----------------------

    def gap_opener(self) -> Callable[[_ThreadState, int], None]:
        def opened(st: _ThreadState, at: int) -> None:
            st.gap_start = at
            st.gap_root = st.root_ns
        return opened

    def gap_closer(self, layer: str, name: str) \
            -> Callable[[_ThreadState, int], None]:
        """``on_enter`` hook closing the gap a :meth:`gap_opener` opened:
        records the gap with the root spans inside it as its children."""
        slot = self.slot(layer, name)

        def closed(st: _ThreadState, at: int) -> None:
            if not st.gap_start:
                return
            gap = at - st.gap_start
            # The closing span's own frame is already on the stack but
            # has not ended, so root_ns holds only spans inside the gap.
            inside = st.root_ns - st.gap_root
            st.gap_start = 0
            entry = st.agg.get(slot)
            if entry is None:
                entry = st.agg[slot] = [0, 0, 0, 0, 0]
            entry[0] += 1
            entry[1] += gap
            entry[2] += gap - inside
        return closed

    # -- results --------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Aggregates merged over threads, JSON-able."""
        with self._lock:
            states = list(self._states)
        spans: dict[str, dict[str, Any]] = {}
        layers: dict[str, dict[str, int]] = {}
        samples: dict[str, list[int]] = {}
        for st in states:
            for slot, (count, total, self_ns, first, second) in \
                    list(st.agg.items()):
                layer, name = self.slots[slot]
                row = spans.setdefault(name, {
                    "layer": layer, "count": 0, "total_ns": 0,
                    "self_ns": 0, "value1": 0, "value2": 0})
                row["count"] += count
                row["total_ns"] += total
                row["self_ns"] += self_ns
                row["value1"] += first
                row["value2"] += second
                per_layer = layers.setdefault(
                    layer, {"count": 0, "self_ns": 0})
                per_layer["count"] += count
                per_layer["self_ns"] += self_ns
            for slot, values in list(st.samples.items()):
                samples.setdefault(self.slots[slot][1], []).extend(values)
        recorded = sum(1 for span in self._buffer if span is not None)
        return {
            "spans": spans, "layers": layers, "samples": samples,
            "root_ns": sum(st.root_ns for st in states),
            "threads": [{"tid": st.tid, "root_ns": st.root_ns,
                         "self_ns": sum(e[2] for e in st.agg.values())}
                        for st in states if st.agg],
            "recorded": recorded,
            "dropped": sum(st.dropped for st in states),
        }

    def raw_spans(self) -> Iterable[dict[str, Any]]:
        for index, span in enumerate(self._buffer):
            if span is None:
                continue
            slot, start, end, parent, tx, tid = span
            layer, name = self.slots[slot]
            yield {"index": index, "name": name, "layer": layer,
                   "start": start, "end": end, "parent": parent,
                   "id": tx, "thread": tid}

    def write_jsonl(self, path: str,
                    extra: Iterable[dict[str, Any]] = ()) -> int:
        """Write the retained spans, then ``extra`` ones recorded by
        another process (tagged ``"process": "server"``)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        written = 0
        with open(path, "w") as handle:
            for span in self.raw_spans():
                handle.write(json.dumps(span, separators=(",", ":")))
                handle.write("\n")
                written += 1
            for span in extra:
                span = dict(span, process="server")
                handle.write(json.dumps(span, separators=(",", ":")))
                handle.write("\n")
                written += 1
        return written


def merge_summaries(parts: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Add up summaries from several recorders (client + server child)."""
    merged: dict[str, Any] = {"spans": {}, "layers": {}, "samples": {},
                              "root_ns": 0, "threads": [], "recorded": 0,
                              "dropped": 0}
    for part in parts:
        for name, row in part["spans"].items():
            target = merged["spans"].setdefault(name, {
                "layer": row["layer"], "count": 0, "total_ns": 0,
                "self_ns": 0, "value1": 0, "value2": 0})
            for key in ("count", "total_ns", "self_ns", "value1", "value2"):
                target[key] += row[key]
        for layer, row in part["layers"].items():
            target = merged["layers"].setdefault(
                layer, {"count": 0, "self_ns": 0})
            target["count"] += row["count"]
            target["self_ns"] += row["self_ns"]
        for name, values in part["samples"].items():
            merged["samples"].setdefault(name, []).extend(values)
        merged["threads"].extend(part["threads"])
        merged["recorded"] += part["recorded"]
        merged["dropped"] += part["dropped"]
    return merged


# ----------------------------------------------------------------------
# What gets wrapped: layer = module, public boundary callables
# ----------------------------------------------------------------------

#: (layer, module, class or None, methods, context-manager methods)
TARGETS: list[tuple[str, str, Optional[str], tuple[str, ...],
                    tuple[str, ...]]] = [
    ("server.client", "repro.server.client", "ReachClient",
     ("call_op",), ()),
    ("core.session", "repro.core.session", "Session",
     ("begin", "commit", "abort", "persist", "fetch", "signal"),
     ("transaction",)),
    ("core.session", "repro.core.session", "ShardedSession",
     ("persist", "fetch", "signal"), ()),
    ("core.sharding", "repro.core.session", "ShardedSession",
     (), ("transaction",)),
    ("core.sharding", "repro.core.sharding", "ShardedEngine",
     ("signal", "persist", "fetch"), ()),
    ("oodb.transactions", "repro.oodb.transactions", "TransactionManager",
     ("begin", "begin_child_of", "commit", "abort"), ()),
    ("core.eca_manager", "repro.core.eca_manager", "EventService",
     ("emit", "route"), ()),
    ("core.eca_manager", "repro.core.eca_manager", "PrimitiveECAManager",
     ("handle",), ()),
    ("core.eca_manager", "repro.core.eca_manager", "CompositeECAManager",
     ("feed", "handle_composite"), ()),
    ("core.composer", "repro.core.composer", "Composer",
     ("feed", "on_transaction_end", "on_group_end", "gc"), ()),
    ("core.scheduler", "repro.core.scheduler", "RuleScheduler",
     ("fire_rules", "drain_deferred", "drain_detached"), ()),
    ("core.history", "repro.core.history", "LocalHistory",
     ("record",), ()),
    ("core.history", "repro.core.history", "GlobalHistory",
     ("merge_transaction", "drain", "entries"), ()),
    ("oodb.locks", "repro.oodb.locks", "LockManager",
     ("acquire", "release_all", "transfer"), ()),
    ("oodb.persistence", "repro.oodb.persistence",
     "PersistencePolicyManager", ("persist", "fetch"), ()),
    ("oodb.persistence", "repro.oodb.address_space", "PassiveAddressSpace",
     ("read",), ()),
    ("storage.wal", "repro.storage.wal", "WriteAheadLog",
     ("append", "flush", "flush_to", "sync"), ()),
    ("storage.storage_manager", "repro.storage.storage_manager",
     "StorageManager", ("begin", "write", "read", "commit", "checkpoint"),
     ()),
    ("storage.buffer", "repro.storage.buffer", "BufferPool",
     ("fetch", "unpin", "flush_all"), ()),
]

#: Span names whose every duration is retained (percentile metrics).
KEPT = {"PersistencePolicyManager.fetch", "ReachClient.call_op"}


def _patch_function(rec: Recorder, undo: list[Callable[[], None]],
                    module_name: str, name: str, layer: str,
                    span_name: Optional[str] = None, **options: Any) -> None:
    """Wrap a module-level function wherever ``repro`` bound it: the
    defining module and every module that did ``from x import name``."""
    original = getattr(importlib.import_module(module_name), name)
    wrapped = rec.wrap(original, layer, span_name or name, **options)
    for loaded_name, module in list(sys.modules.items()):
        if module is None or not loaded_name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, wrapped)
                undo.append(lambda m=module, a=attribute:
                            setattr(m, a, original))


def _patch_method(rec: Recorder, undo: list[Callable[[], None]],
                  module_name: str, class_name: str, method: str,
                  layer: str, context: bool = False, **options: Any) -> None:
    cls = getattr(importlib.import_module(module_name), class_name)
    original = cls.__dict__[method]
    name = f"{class_name}.{method}"
    if context:
        wrapped = rec.wrap_context(original, layer, name)
    else:
        wrapped = rec.wrap(original, layer, name, keep=name in KEPT,
                           **options)
    setattr(cls, method, wrapped)
    undo.append(lambda: setattr(cls, method, original))


def install(rec: Recorder, server_side: bool = False) -> Callable[[], None]:
    """Wrap every boundary callable; returns the function that undoes it.

    ``server_side`` additionally records, on each serving thread, the gap
    between a request frame being read and its response frame being
    written — the server's own share of a request.
    """
    # Modules that bind functions by name must be imported before the
    # functions are patched, or they would bind the originals later.
    for module_name in ("repro.oodb.persistence", "repro.storage.wal",
                        "repro.core.composer", "repro.server.server",
                        "repro.server.client", "repro.core.sharding"):
        importlib.import_module(module_name)
    from repro.oodb.data_dictionary import CATALOG_OID

    undo: list[Callable[[], None]] = []
    for layer, module_name, class_name, methods, contexts in TARGETS:
        for method in methods:
            _patch_method(rec, undo, module_name, class_name, method, layer)
        for method in contexts:
            _patch_method(rec, undo, module_name, class_name, method, layer,
                          context=True)

    # Catalog rewrites are told apart from object images by their OID.
    _patch_method(
        rec, undo, "repro.oodb.address_space", "PassiveAddressSpace",
        "write", "oodb.persistence",
        value=lambda args, result:
            (len(args[3]), 1) if args[2] == CATALOG_OID else (0, 0))
    # Composer snapshots are sized on every 8th call: sizing serializes.
    from repro.storage import serializer as _serializer
    plain_serialize = _serializer.serialize
    _patch_method(
        rec, undo, "repro.core.composer", "Composer", "snapshot_state",
        "core.composer", value_every=8,
        value=lambda args, result: (len(plain_serialize(result)), 0))

    _patch_function(rec, undo, "repro.storage.serializer", "serialize",
                    "storage.serializer",
                    value=lambda args, result: (len(result), 0))
    _patch_function(rec, undo, "repro.storage.serializer", "deserialize",
                    "storage.serializer",
                    value=lambda args, result: (len(args[0]), 0))

    protocol = "repro.server.protocol"
    _patch_function(rec, undo, protocol, "encode_frame", "server.protocol",
                    value=lambda args, result: (len(result), 0))
    _patch_function(rec, undo, protocol, "decode_payload", "server.protocol",
                    value=lambda args, result: (len(args[0]), 0))
    # Reading a frame is mostly waiting for the peer: the client waits
    # for the whole server side of its request (``wire.wait``), a serving
    # thread for the next request (``server.idle``).  Neither is the
    # protocol's own time; the codec and the send are.
    if server_side:
        def next_request(st: _ThreadState, at: int,
                         opened=rec.gap_opener()) -> None:
            st.tx += 1
            opened(st, at)
        _patch_function(rec, undo, protocol, "read_frame", "server.idle",
                        span_name="server:read_frame", on_exit=next_request)
        _patch_function(rec, undo, protocol, "write_frame",
                        "server.protocol", span_name="server:write_frame",
                        on_enter=rec.gap_closer("server.server",
                                                "request.gap"))
    else:
        _patch_function(rec, undo, protocol, "read_frame", "wire.wait",
                        span_name="client:read_frame")
        _patch_function(rec, undo, protocol, "write_frame",
                        "server.protocol", span_name="client:write_frame")

    _patch_hook_lists(rec, undo)

    # The WAL (and the page file, once per checkpoint) reach the device
    # through os.fsync; the os module itself is patched for the traced
    # window and restored afterwards.
    real_fsync = os.fsync
    os.fsync = rec.wrap(real_fsync, "storage.wal", "os.fsync", keep=True)
    undo.append(lambda: setattr(os, "fsync", real_fsync))

    def uninstall() -> None:
        while undo:
            undo.pop()()
    return uninstall


class _HookList(list):
    """A transaction-manager hook list that wraps what is appended, each
    hook charged to the layer of the object that registered it (the
    persistence flush is a pre-commit hook)."""

    def __init__(self, rec: Recorder, kind: str):
        super().__init__()
        self._rec = rec
        self._kind = kind

    def append(self, hook: Callable) -> None:
        owner = type(getattr(hook, "__self__", hook))
        layer = owner.__module__.removeprefix("repro.")
        super().append(self._rec.wrap(
            hook, layer, f"{self._kind}:{owner.__name__}"))

    def remove(self, hook: Callable) -> None:
        for wrapped in self:
            if getattr(wrapped, "__wrapped__", None) == hook:
                super().remove(wrapped)
                return
        super().remove(hook)


def _patch_hook_lists(rec: Recorder,
                      undo: list[Callable[[], None]]) -> None:
    """Give every transaction manager built from now on wrapping hook
    lists (they are public attributes, filled after construction)."""
    from repro.oodb.transactions import TransactionManager
    original = TransactionManager.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        for kind in ("pre_commit", "post_commit", "abort"):
            setattr(self, f"{kind}_hooks", _HookList(rec, kind))

    TransactionManager.__init__ = init
    undo.append(lambda: setattr(TransactionManager, "__init__", original))


def sentry(cls: type, rec: Optional[Recorder], **options: Any) -> type:
    """Apply ``@sentried`` to a workload class; when tracing, time each
    monitored method twice — the plain body (layer ``app``) and the
    sentried call around it (layer ``oodb.sentry``) — plus the
    ``__setattr__`` trap, so the sentry's self time is what it adds."""
    from repro.oodb.sentry import sentried
    names = [name for name, member in vars(cls).items()
             if callable(member) and not name.startswith("_")]
    if rec is not None:
        for name in names:
            setattr(cls, name, rec.wrap(
                vars(cls)[name], "app", f"body:{cls.__name__}.{name}"))
    cls = sentried(cls, methods=names, **options)
    if rec is not None:
        for name in names:
            setattr(cls, name, rec.wrap(
                vars(cls)[name], "oodb.sentry",
                f"sentry:{cls.__name__}.{name}"))
        if options.get("track_state", True):
            cls.__setattr__ = rec.wrap(
                cls.__setattr__, "oodb.sentry",
                f"sentry:{cls.__name__}.__setattr__")
    return cls


def calibrate_sentry(calls: int = 20_000) -> dict[str, float]:
    """The paper's E1 categories, ns per call: a plain method, a sentried
    method nobody watches, a sentried method with one receiver."""
    from repro.oodb.sentry import registry, sentried

    class Plain:
        def poke(self, value):
            return value

    class Unwatched:
        def poke(self, value):
            return value

    class Watched:
        def poke(self, value):
            return value

    sentried(Unwatched, track_state=False)
    sentried(Watched, track_state=False)
    subscription = registry.watch_method(Watched, "poke", lambda note: None)
    results = {}
    try:
        for label, instance in (("plain", Plain()),
                                ("unwatched", Unwatched()),
                                ("watched", Watched())):
            poke = instance.poke
            best = None
            for _ in range(3):
                start = now()
                for value in range(calls):
                    poke(value)
                elapsed = now() - start
                best = elapsed if best is None else min(best, elapsed)
            results[label] = best / calls
    finally:
        subscription.cancel()
    return results
