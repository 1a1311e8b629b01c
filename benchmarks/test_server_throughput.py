"""Wire-server throughput: hundreds of concurrent clients over TCP.

The ``reproserve`` front end turns the embedded engine into a shared
service (ISSUE 9); this harness quantifies what one process sustains
when many independent applications hammer it at once.  Each simulated
client opens its own authenticated connection and runs small write
transactions end to end — ``begin`` / ``put`` / ``commit`` are three
wire round-trips each, so the measured unit is a *request* (one framed
JSON round-trip), the same unit the server's own counters use.

The interesting regressions are tail behaviour, not the mean: a
convoying accept loop, a lock on the dispatch path, or per-connection
state leaking into a shared structure shows up as a p99 collapse long
before the average moves.  Results go to
``benchmarks/results/BENCH_server.json`` — requests/s, p50/p99 request
latency, and the server's own statistics snapshot — and
``scripts/check_scaling.py`` gates the recorded floor so a regenerated
JSON cannot silently regress.

Python threads share the interpreter lock and client threads run in
the same process as the server, so this measures multiplexing soundness
and protocol overhead, not parallel speedup.  The floor (200 req/s) is
two orders of magnitude below healthy runs (~20k req/s locally) — it
exists to catch "the server serialized or wedged", not to benchmark
hardware.
"""

import threading
import time

from repro import ReachEngine
from repro.server import ReachClient, ReachServer
from repro.server.server import ACCEPT_BACKLOG

CLIENTS = 128
TX_PER_CLIENT = 8
REQUESTS_PER_TX = 3  # begin + put + commit


def _percentile(values, fraction):
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def test_server_throughput_concurrent_clients(tmp_path,
                                              bench_server_report):
    # Every client connects at once: the fixed backlog must hold them.
    assert ACCEPT_BACKLOG >= max(256, CLIENTS * 2)
    db = ReachEngine(directory=str(tmp_path / "bench-db"))
    server = ReachServer(db).start()
    host, port = server.address
    errors = []
    latencies = [[] for __ in range(CLIENTS)]
    barrier = threading.Barrier(CLIENTS + 1)

    def client_body(index):
        try:
            client = ReachClient(host, port,
                                 client_name=f"bench-{index}")
            stamps = latencies[index]

            def timed(op, **params):
                started = time.perf_counter()
                result = client.call_op(op, **params)
                stamps.append(time.perf_counter() - started)
                return result

            barrier.wait()
            for round_index in range(TX_PER_CLIENT):
                timed("begin")
                timed("put", name=f"bench-{index}",
                      fields={"round": round_index})
                timed("commit")
            client.close()
        except Exception as exc:
            errors.append((index, exc))

    threads = [threading.Thread(target=client_body, args=(i,),
                                name=f"bench-client-{i}")
               for i in range(CLIENTS)]
    try:
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started

        assert errors == [], errors[:3]
        stats = server.stats()
        all_latencies = [value for bucket in latencies for value in bucket]
        total_requests = CLIENTS * TX_PER_CLIENT * REQUESTS_PER_TX
        assert len(all_latencies) == total_requests
        assert stats["connections"]["accepted"] >= CLIENTS
        assert stats["requests"]["served"] >= total_requests
        # Every client's final commit was acked, so every object exists.
        with db.transaction():
            for index in range(CLIENTS):
                assert db.fetch(f"bench-{index}") is not None

        requests_per_sec = total_requests / elapsed
        p50_ms = _percentile(all_latencies, 0.50) * 1e3
        p99_ms = _percentile(all_latencies, 0.99) * 1e3

        # Liveness floor, far below any healthy run: a serialized or
        # wedged server fails it, machine noise does not.
        assert requests_per_sec >= 200, (
            f"server throughput collapsed: {requests_per_sec:,.0f} req/s "
            f"from {CLIENTS} concurrent clients (need >= 200)")

        bench_server_report("server_throughput", {
            "clients": CLIENTS,
            "tx_per_client": TX_PER_CLIENT,
            "total_requests": total_requests,
            "elapsed_s": elapsed,
            "requests_per_sec": requests_per_sec,
            "p50_ms": p50_ms,
            "p99_ms": p99_ms,
            "server_stats": stats,
        })
        print(f"\n{CLIENTS} clients: {requests_per_sec:,.0f} req/s, "
              f"p50 {p50_ms:.2f}ms, p99 {p99_ms:.2f}ms "
              f"({total_requests} requests in {elapsed * 1e3:.0f}ms)")
    finally:
        db.close()
