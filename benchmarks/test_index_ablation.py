"""E11 — Ablation: actively maintained indexes vs extent scans.

Section 7 plans "index maintenance PMs with the active database
paradigm".  This ablation quantifies both sides of that design:

* query side — equality and range lookups through the actively
  maintained hash/ordered indexes vs full extent scans, as the extent
  grows;
* update side — the maintenance tax the event-driven index updates add
  to each write.

Expected shape: indexed lookups stay flat while scans grow linearly;
maintenance adds a small constant per write.
"""

import time

import pytest

from repro import ReachEngine, sentried


@sentried
class Part:
    def __init__(self, pid, bin_no, weight):
        self.pid = pid
        self.bin_no = bin_no
        self.weight = weight


def _populate(db, count):
    with db.transaction():
        for index in range(count):
            db.persist(Part(f"p{index}", index % 50, float(index)),
                       f"P{index}")


def _database(tmp_path, count, hash_index=False, ordered_index=False):
    db = ReachEngine(directory=str(tmp_path), buffer_capacity=512)
    db.register_class(Part)
    _populate(db, count)
    if hash_index:
        db.create_index("Part", "bin_no")
    if ordered_index:
        db.indexes.create_index("Part", "weight", ordered=True)
    return db


@pytest.mark.parametrize("size", [100, 400])
@pytest.mark.parametrize("indexed", [False, True],
                         ids=["scan", "hash-index"])
def test_equality_lookup(benchmark, tmp_path, size, indexed):
    db = _database(tmp_path / f"eq-{size}-{indexed}", size,
                   hash_index=indexed)

    def run():
        return db.query("select x.pid from Part x where x.bin_no == 7")

    rows = benchmark(run)
    assert len(rows) == size // 50
    db.close()


@pytest.mark.parametrize("size", [100, 400])
@pytest.mark.parametrize("indexed", [False, True],
                         ids=["scan", "ordered-index"])
def test_range_lookup(benchmark, tmp_path, size, indexed):
    db = _database(tmp_path / f"rg-{size}-{indexed}", size,
                   ordered_index=indexed)

    def run():
        return db.query("select x.pid from Part x "
                        "where x.weight >= 10 and x.weight < 20")

    rows = benchmark(run)
    assert len(rows) == 10
    db.close()


@pytest.mark.parametrize("indexed", [False, True],
                         ids=["no-index", "two-indexes"])
def test_write_maintenance_tax(benchmark, tmp_path, indexed):
    db = _database(tmp_path / f"wr-{indexed}", 100,
                   hash_index=indexed, ordered_index=indexed)
    part = db.fetch("P0")
    counter = [0]

    def run():
        counter[0] += 1
        with db.transaction():
            part.weight = float(counter[0] % 97)
            part.bin_no = counter[0] % 50

    benchmark.pedantic(run, rounds=50, iterations=1)
    db.close()


def test_ablation_report(benchmark, tmp_path, results_report):
    rows = []
    for size in (100, 400, 1600):
        scan_db = _database(tmp_path / f"r-scan-{size}", size)
        indexed_db = _database(tmp_path / f"r-idx-{size}", size,
                               hash_index=True)

        def median(db):
            samples = []
            for __ in range(10):
                start = time.perf_counter()
                db.query("select x.pid from Part x where x.bin_no == 7")
                samples.append(time.perf_counter() - start)
            return sorted(samples)[len(samples) // 2]

        rows.append((size, median(scan_db), median(indexed_db)))
        scan_db.close()
        indexed_db.close()

    lines = ["E11: equality lookup, extent scan vs active hash index",
             "",
             f"{'extent':>8s} {'scan':>10s} {'indexed':>10s} "
             f"{'speedup':>8s}"]
    for size, scan, indexed in rows:
        lines.append(f"{size:>8d} {scan * 1000:>8.2f}ms "
                     f"{indexed * 1000:>8.2f}ms {scan / indexed:>7.1f}x")
    text = results_report("E11_index_ablation", lines)
    print("\n" + text)

    # Shape: the index's advantage grows with the extent.
    assert rows[-1][1] / rows[-1][2] > rows[0][1] / rows[0][2]
    assert rows[-1][1] > rows[-1][2]
