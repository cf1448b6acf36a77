"""Run-store micro-benchmarks: archive overhead and warm-cache speedup.

Two questions decide whether the content-addressed store is free enough
to leave on by default:

* how much does archiving cost per record (put) and how fast can an
  archive be read back (reopen + get), and
* how much faster is a sweep whose cells are already archived — the
  resume path should collapse to hash lookups and JSONL reads, turning
  O(cells) compute into O(new cells).

A third question decides whether the archive can be served: how fast
does an index answer filtered counts and pages (at ~50k records), and
what does one ``GET /v1/runs`` cost a closed-loop client of
``repro serve``, split between ``ServeApi.handle`` and the HTTP shell.

Results merge into ``BENCH_engine.json`` next to the engine-throughput
cases, so the store's overhead trajectory is tracked PR over PR.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time
import urllib.parse
from http.client import HTTPConnection
from pathlib import Path

from repro.experiments.runner import run_experiment
from repro.experiments.sweep import (
    SweepSpec, cell_hashes, cell_row, execute_sweep, expand_cells,
)
from repro.serve.server import ServeDaemon
from repro.spec import ExperimentSpec, PlacementSpec
from repro.store import RunRecord, RunStore

from benchmarks.conftest import record_case, report_lines


_RECORDS = 500


def _synthetic_records(count: int) -> list:
    """``count`` distinct records sharing one real result payload.

    The payload is computed once (store I/O is what is being measured,
    not the simulation); hashes are synthesised to make every record a
    distinct put.
    """
    spec = ExperimentSpec(
        algorithm="known_k_full",
        placement=PlacementSpec(kind="random", ring_size=24, agent_count=4, seed=1),
    )
    template = run_experiment(spec).to_record(spec)
    return [
        RunRecord(
            content_hash=f"{index:064x}",
            result=template.result,
            spec=template.spec,
        )
        for index in range(count)
    ]


def test_store_put_throughput(benchmark, tmp_path_factory):
    records = _synthetic_records(_RECORDS)
    counter = iter(range(1_000_000))

    def write_all():
        root = tmp_path_factory.mktemp(f"put{next(counter)}")
        store = RunStore(root)
        start = time.perf_counter()
        for record in records:
            store.put(record)
        return len(store), time.perf_counter() - start

    count, seconds = benchmark(write_all)
    assert count == _RECORDS
    record_case(f"store put x{_RECORDS}", {
        "records": _RECORDS,
        "mean_seconds": round(seconds, 6),
        "records_per_second": round(_RECORDS / seconds) if seconds > 0 else None,
    })
    report_lines(
        "Run store - put",
        [f"{_RECORDS} records in {seconds:.3f}s "
         f"({_RECORDS / seconds:,.0f} records/s)"],
    )


def test_store_reopen_and_get_throughput(benchmark, tmp_path_factory):
    records = _synthetic_records(_RECORDS)
    root = tmp_path_factory.mktemp("get")
    store = RunStore(root)
    for record in records:
        store.put(record)

    def read_all():
        start = time.perf_counter()
        reopened = RunStore(root)  # index scan included: the resume cost
        for record in records:
            reopened.get(record.content_hash)
        return len(reopened), time.perf_counter() - start

    count, seconds = benchmark(read_all)
    assert count == _RECORDS
    record_case(f"store reopen+get x{_RECORDS}", {
        "records": _RECORDS,
        "mean_seconds": round(seconds, 6),
        "records_per_second": round(_RECORDS / seconds) if seconds > 0 else None,
    })
    report_lines(
        "Run store - reopen + get",
        [f"{_RECORDS} records in {seconds:.3f}s "
         f"({_RECORDS / seconds:,.0f} records/s)"],
    )


def test_warm_cache_sweep_speedup(benchmark, tmp_path_factory):
    # The acceptance case for resumable sweeps: a fully archived sweep
    # must collapse to hash lookups — orders of magnitude under the cold
    # run, and never slower than ~10% of it even on noisy machines.
    spec = SweepSpec(
        algorithms=("known_k_full",),
        grid=((128, 8), (256, 16)),
        schedulers=("sync", "random"),
        trials=2,
        base_seed=3,
    )
    root = tmp_path_factory.mktemp("sweep")
    store = RunStore(root)

    start = time.perf_counter()
    cold = execute_sweep(spec, processes=1, store=store)
    cold_seconds = time.perf_counter() - start
    assert cold.executed == len(expand_cells(spec))

    warm = benchmark(execute_sweep, spec, processes=1, store=store)
    # The timed rounds' median, not the one extra call pytest-benchmark
    # makes afterwards for the return value.
    warm_seconds = benchmark.stats.stats.median
    assert warm.executed == 0 and warm.cached == cold.executed
    assert warm.rows == cold.rows
    speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
    assert speedup > 10, f"warm sweep only {speedup:.1f}x faster than cold"
    record_case("sweep warm-cache 8 cells", {
        "cells": cold.executed,
        "cold_seconds": round(cold_seconds, 6),
        "median_seconds": round(warm_seconds, 6),
        "speedup": round(speedup, 1),
    })
    report_lines(
        "Run store - warm-cache sweep",
        [
            f"cold: {cold_seconds:.3f}s for {cold.executed} cells",
            f"warm: {warm_seconds:.3f}s (100% cache hits)",
            f"speedup: {speedup:.0f}x",
        ],
    )


#: perfbench's ``sweep`` grid: 4 algorithms x 2 (n, k) x 5 schedulers x
#: 3 trials = 120 cells.
_RESUME_SPEC = SweepSpec(
    algorithms=("known_k_full", "known_n_full", "known_k_logspace", "unknown"),
    grid=((64, 4), (256, 8)),
    schedulers=("sync", "random", "burst", "chaos", "laggard"),
    trials=3,
    base_seed=1,
)


def _median_seconds(call, rounds: int = 51) -> float:
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def test_warm_resume_split(benchmark, tmp_path_factory):
    # A fully warm re-run of a Table 1-sized sweep, and where its time
    # goes: the cell hashes, the store lookup (refresh + one get_many:
    # index query, line reads, record decode) and the row shaping.
    store = RunStore(tmp_path_factory.mktemp("warm_resume"))
    cold = execute_sweep(_RESUME_SPEC, processes=1, store=store)
    benchmark(execute_sweep, _RESUME_SPEC, processes=1, store=store)
    seconds = benchmark.stats.stats.median
    warm = execute_sweep(_RESUME_SPEC, processes=1, store=store)
    assert warm.executed == 0 and warm.rows == cold.rows

    cells = expand_cells(_RESUME_SPEC)
    hashes = cell_hashes(cells)
    records = store.get_many(hashes, default=None)
    split = {
        "hash_s": _median_seconds(lambda: cell_hashes(cells)),
        "lookup_s": _median_seconds(
            lambda: (store.refresh(), store.get_many(hashes, default=None))
        ),
        "rows_s": _median_seconds(
            lambda: [cell_row(c, r.result) for c, r in zip(cells, records)]
        ),
    }
    store.close()
    record_case(f"sweep warm-resume {len(cells)} cells", {
        "cells": len(cells),
        "median_seconds": round(seconds, 6),
        "cells_per_second": round(len(cells) / seconds),
        **{name: round(value, 6) for name, value in split.items()},
    })
    report_lines(
        "Run store - warm resume",
        [
            f"{len(cells)} cells in {1000 * seconds:.2f} ms "
            f"({len(cells) / seconds:,.0f} cells/s)",
            ", ".join(f"{name} {1000 * value:.2f} ms" for name, value in split.items()),
        ],
    )


_INDEX_RECORDS = 50_000


def _fabricate_shard(root: Path, count: int) -> list:
    """Write ``count`` records straight into one shard file.

    Bypasses ``put()`` (50k one-line appends would dominate the setup)
    but produces byte-for-byte the lines put() would have written:
    canonical JSON with an ``_ts`` envelope stamp.  The store's tail
    scan discovers and indexes them on first open, exactly like a shard
    inherited from an index-oblivious writer.
    """
    template = _synthetic_records(1)[0].to_dict()
    hashes = [f"{index:064x}" for index in range(count)]
    lines = [
        json.dumps(
            dict(template, content_hash=content_hash, _ts=index + 1),
            sort_keys=True,
            separators=(",", ":"),
        )
        for index, content_hash in enumerate(hashes)
    ]
    root.mkdir(parents=True, exist_ok=True)
    (root / "shard-bench.jsonl").write_text("\n".join(lines) + "\n")
    return hashes


def test_indexed_open_and_lookup_vs_scan(benchmark, tmp_path_factory):
    # The acceptance case for the SQLite secondary index: once built,
    # a cold open + point lookup must beat the full-shard scan the
    # memory backend pays on every open by >= 10x at ~50k records.
    root = tmp_path_factory.mktemp("indexed")
    hashes = _fabricate_shard(root, _INDEX_RECORDS)
    target = hashes[len(hashes) // 2]

    start = time.perf_counter()
    store = RunStore(root)  # first open: builds <root>/index.sqlite
    build_seconds = time.perf_counter() - start
    assert len(store) == _INDEX_RECORDS
    store.close()

    def scan_open_and_get():
        start = time.perf_counter()
        scanned = RunStore(root, index="memory")
        record = scanned.get(target)
        scanned.close()
        return record, time.perf_counter() - start

    scan_seconds = min(scan_open_and_get()[1] for _ in range(3))

    def indexed_open_and_get():
        start = time.perf_counter()
        indexed = RunStore(root)
        record = indexed.get(target)
        elapsed = time.perf_counter() - start
        indexed.close()
        return record, elapsed

    record, indexed_seconds = benchmark(indexed_open_and_get)
    assert record.content_hash == target
    speedup = (
        scan_seconds / indexed_seconds if indexed_seconds > 0 else float("inf")
    )
    assert speedup >= 10, (
        f"indexed open+get only {speedup:.1f}x faster than scan "
        f"({indexed_seconds:.4f}s vs {scan_seconds:.4f}s)"
    )
    record_case(f"store indexed open+get x{_INDEX_RECORDS}", {
        "records": _INDEX_RECORDS,
        "index_build_seconds": round(build_seconds, 6),
        "scan_seconds": round(scan_seconds, 6),
        "mean_seconds": round(indexed_seconds, 6),
        "speedup": round(speedup, 1),
    })
    report_lines(
        "Run store - indexed open + point lookup",
        [
            f"{_INDEX_RECORDS} records, one-time index build: "
            f"{build_seconds:.2f}s",
            f"scan backend (open+get): {scan_seconds:.3f}s",
            f"sqlite index (open+get): {indexed_seconds:.4f}s",
            f"speedup: {speedup:.0f}x",
        ],
    )


def test_indexed_filtered_count_and_page(benchmark, tmp_path_factory):
    # The /v1/runs question at scale: a filtered count plus one page deep
    # into the matches.  ``first_seconds`` is a freshly opened handle
    # (the index resolves the view's winners once); ``mean_seconds``
    # repeats the question on the same idle handle.
    root = tmp_path_factory.mktemp("filtered")
    hashes = _fabricate_shard(root, _INDEX_RECORDS)
    RunStore(root).close()  # build the index outside the timings
    filters = {"algorithm": "known_k_full", "uniform": True}
    offset = _INDEX_RECORDS // 2

    def ask(store):
        total = store.count(**filters)
        page = [r.content_hash for r in store.query(
            limit=50, offset=offset, **filters
        )]
        return total, page

    def first_question():
        start = time.perf_counter()
        store = RunStore(root)
        answer = ask(store)
        elapsed = time.perf_counter() - start
        store.close()
        return answer, elapsed

    first_seconds = min(first_question()[1] for _ in range(3))
    store = RunStore(root)

    def repeated_question():
        start = time.perf_counter()
        answer = ask(store)
        return answer, time.perf_counter() - start

    (total, page), seconds = benchmark(repeated_question)
    store.close()
    assert total == _INDEX_RECORDS
    assert page == hashes[offset:offset + 50]
    record_case(f"store filtered count+page x{_INDEX_RECORDS}", {
        "records": _INDEX_RECORDS,
        "first_seconds": round(first_seconds, 6),
        "mean_seconds": round(seconds, 6),
    })
    report_lines(
        "Run store - filtered count + page",
        [
            f"{_INDEX_RECORDS} records, page of 50 at offset {offset}",
            f"fresh handle (open+count+page): {first_seconds:.4f}s",
            f"same idle handle (count+page): {seconds:.4f}s",
        ],
    )


_RESUME_HASHES = 120


def test_indexed_resume_lookup(benchmark, tmp_path_factory):
    # The resume question at scale: which of a sweep's cell hashes are
    # archived, and what they hold.  120 archived hashes spread over the
    # 50k-line store and 120 absent ones, interleaved, go to one
    # ``get_many(..., default=None)``.  The same question about a store
    # holding only its 120 records is the yardstick: the lookup searches
    # the hash index once per hash, so the 50k-line store should cost
    # about the same (``size_ratio`` near 1).
    def open_store(name, count):
        root = tmp_path_factory.mktemp(name)
        hashes = _fabricate_shard(root, count)
        RunStore(root).close()  # build the index outside the timings
        step = count // _RESUME_HASHES
        archived = hashes[::step][:_RESUME_HASHES]
        absent = [
            f"{_INDEX_RECORDS + index:064x}" for index in range(_RESUME_HASHES)
        ]
        asked = [h for pair in zip(archived, absent) for h in pair]
        return RunStore(root), asked

    def median_lookup(store, asked):
        times = []
        for _ in range(31):
            start = time.perf_counter()
            records = store.get_many(asked, default=None)
            times.append(time.perf_counter() - start)
        return records, statistics.median(times)

    small, small_asked = open_store("resume_small", _RESUME_HASHES)
    _, small_seconds = median_lookup(small, small_asked)
    small.close()
    large, asked = open_store("resume_large", _INDEX_RECORDS)
    records, seconds = benchmark.pedantic(
        median_lookup, args=(large, asked), rounds=1, iterations=1
    )
    large.close()
    assert [r is None for r in records] == [False, True] * _RESUME_HASHES
    assert [r.content_hash for r in records[::2]] == asked[::2]
    ratio = seconds / small_seconds if small_seconds > 0 else float("inf")
    assert ratio < 3, (
        f"resume lookup on {_INDEX_RECORDS} records took {ratio:.1f}x "
        f"its time on {_RESUME_HASHES}"
    )
    record_case(
        f"store resume {_RESUME_HASHES}+{_RESUME_HASHES} absent "
        f"x{_INDEX_RECORDS}",
        {
            "records": _INDEX_RECORDS,
            "hashes": len(asked),
            "mean_seconds": round(seconds, 6),
            "small_store_seconds": round(small_seconds, 6),
            "size_ratio": round(ratio, 2),
        },
    )
    report_lines(
        "Run store - resume lookup",
        [
            f"{_RESUME_HASHES} archived + {_RESUME_HASHES} absent hashes, "
            f"one get_many (median of 31)",
            f"{_INDEX_RECORDS}-record store: {1000 * seconds:.2f} ms",
            f"{_RESUME_HASHES}-record store: {1000 * small_seconds:.2f} ms "
            f"({ratio:.2f}x)",
        ],
    )


#: The Table-1 sweep whose 120-record store the service is asked about:
#: 4 algorithms x {64x4, 256x8} x 5 scheduler families x 3 trials.
_SERVE_SWEEP = SweepSpec(
    algorithms=("known_k_full", "known_n_full", "known_k_logspace", "unknown"),
    grid=((64, 4), (256, 8)),
    schedulers=("sync", "random", "burst", "chaos", "laggard"),
    trials=3,
    base_seed=1,
)
_SERVE_REQUESTS = 1000


def test_serve_runs_closed_loop(benchmark, tmp_path_factory):
    # One client, one GET /v1/runs at a time against a ServeDaemon on
    # the sweep's store; filters, limit and offset are drawn from a
    # fixed seed.  ``handle_p50_ms`` is the time inside ServeApi.handle,
    # ``http_p50_ms`` the rest of each request (socket, parsing, JSON),
    # ``refresh_p50_ms`` the RunStore.refresh inside handle, and
    # ``empty_page_frac`` the share of requests whose page is empty
    # (those decode no record, so the median request is mostly fixed
    # cost).
    root = tmp_path_factory.mktemp("serve")
    store = RunStore(root)
    execute_sweep(_SERVE_SWEEP, processes=min(2, os.cpu_count() or 1),
                  store=store)
    space = {
        "algorithm": [None, *_SERVE_SWEEP.algorithms],
        "scheduler": [None, *_SERVE_SWEEP.schedulers],
        "n": [None, *sorted({n for n, _ in _SERVE_SWEEP.grid})],
        "uniform": [None, True],
    }
    rng = random.Random("serve|1")
    requests = []
    for _ in range(_SERVE_REQUESTS):
        key = [rng.choice(values) for values in space.values()]
        limit, offset = rng.randint(1, 50), rng.randint(0, 40)
        params = {"limit": limit, "offset": offset}
        for name, value in zip(space, key):
            if value is not None:
                params[name] = "true" if value is True else value
        expected = store.count(
            algorithm=key[0], scheduler=key[1], ring_size=key[2],
            uniform=key[3],
        )
        requests.append((
            "/v1/runs?" + urllib.parse.urlencode(params),
            expected, min(limit, max(0, expected - offset)),
        ))
    store.close()

    daemon = ServeDaemon(str(root), port=0, quiet=True, workers=1)
    handle = daemon.api.handle
    handle_seconds = []

    def timed_handle(*args, **kwargs):
        start = time.perf_counter()
        try:
            return handle(*args, **kwargs)
        finally:
            handle_seconds.append(time.perf_counter() - start)

    daemon.api.handle = timed_handle
    refresh = daemon.store.refresh
    refresh_seconds = []

    def timed_refresh():
        start = time.perf_counter()
        try:
            return refresh()
        finally:
            refresh_seconds.append(time.perf_counter() - start)

    daemon.store.refresh = timed_refresh
    daemon.start()
    host, port = daemon.address

    def closed_loop():
        handle_seconds.clear()
        refresh_seconds.clear()
        latencies = []
        for path, total, page in requests:
            start = time.perf_counter()
            connection = HTTPConnection(host, port, timeout=30)
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read()
            connection.close()
            latencies.append(time.perf_counter() - start)
            payload = json.loads(body)
            assert response.status == 200, payload
            assert payload["total"] == total and len(payload["runs"]) == page
        return latencies

    try:
        latencies = benchmark.pedantic(closed_loop, rounds=1, iterations=1)
    finally:
        daemon.stop()
    p50_ms = 1000 * statistics.median(latencies)
    handle_ms = 1000 * statistics.median(handle_seconds)
    http_ms = 1000 * statistics.median(
        total - inner for total, inner in zip(latencies, handle_seconds)
    )
    refresh_ms = 1000 * statistics.median(refresh_seconds)
    empty = sum(1 for _, _, page in requests if page == 0) / len(requests)
    rate = len(latencies) / sum(latencies)
    record_case(f"serve GET /v1/runs x{_SERVE_REQUESTS}", {
        "records": len(expand_cells(_SERVE_SWEEP)),
        "requests": len(latencies),
        "requests_per_second": round(rate),
        "p50_ms": round(p50_ms, 3),
        "handle_p50_ms": round(handle_ms, 3),
        "http_p50_ms": round(http_ms, 3),
        "refresh_p50_ms": round(refresh_ms, 3),
        "empty_page_frac": round(empty, 3),
    })
    report_lines(
        "Run store - serve GET /v1/runs (closed loop, one client)",
        [
            f"{len(latencies)} requests on a "
            f"{len(expand_cells(_SERVE_SWEEP))}-record sweep store: "
            f"{rate:,.0f} req/s, {empty:.0%} with an empty page",
            f"p50 {p50_ms:.3f} ms = ServeApi.handle {handle_ms:.3f} ms "
            f"(refresh {refresh_ms:.3f} ms) + HTTP {http_ms:.3f} ms",
        ],
    )
