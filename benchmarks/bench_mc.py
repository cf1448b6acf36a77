"""Model-checker throughput: POR reduction and parallel frontier.

The exhaustive checker's scaling story after the packed-encoding + POR
+ parallel rebuild, in three measurements on a pinned n=10, k=3 cell
(the largest instance the verification ladder reports as exhaustively
verified):

* serial full expansion vs sleep-set POR — the asserted >=2x win: POR
  executes fewer than half the transitions while reaching the identical
  state set, so states/second of *verification* roughly doubles;
* the wave-synchronous frontier driver at ``--jobs`` — recorded, and
  asserted only when the host actually has spare cores (a 1-CPU CI
  runner cannot speed up by forking, but the POR ratio above already
  carries the PR's >=2x acceptance bar there);
* the memo footprint of the packed encoding at that size.

Results merge into ``BENCH_engine.json`` so the verified-instance
ceiling and the reduction ratio are tracked PR over PR.
"""

from __future__ import annotations

import os
import time

from repro.mc import check_frontier, check_interleavings
from repro.ring.placement import Placement

from benchmarks.conftest import record_case, report_lines

#: The pinned flagship cell: the largest (n, k) the ladder verifies
#: exhaustively.  8009 canonical states under either mode.
_ALGORITHM = "unknown"
_PLACEMENT = Placement(ring_size=10, homes=(0, 3, 7))
_REQUIRED_IMPROVEMENT = 2.0


def test_por_halves_verification_work(benchmark):
    def run_both():
        start = time.perf_counter()
        full = check_interleavings(
            _ALGORITHM, _PLACEMENT, por=False, stop_at_first=False
        )
        full_seconds = time.perf_counter() - start
        start = time.perf_counter()
        reduced = check_interleavings(_ALGORITHM, _PLACEMENT, stop_at_first=False)
        por_seconds = time.perf_counter() - start
        return full, reduced, full_seconds, por_seconds

    full, reduced, full_seconds, por_seconds = benchmark(run_both)

    # Soundness before speed: identical verdict and state coverage.
    assert full.ok and reduced.ok
    assert reduced.explored == full.explored
    assert reduced.terminal_keys == full.terminal_keys

    reduction = full.transitions / reduced.transitions
    speedup = full_seconds / por_seconds
    assert reduction >= _REQUIRED_IMPROVEMENT, (
        f"POR reduction regressed: {reduction:.2f}x < "
        f"{_REQUIRED_IMPROVEMENT}x on the pinned cell"
    )

    record_case(f"mc por {_ALGORITHM} n=10 k=3", {
        "algorithm": _ALGORITHM,
        "n": _PLACEMENT.ring_size,
        "k": _PLACEMENT.agent_count,
        "homes": list(_PLACEMENT.homes),
        "states": reduced.explored,
        "transitions_full": full.transitions,
        "transitions_por": reduced.transitions,
        "por_transition_reduction": round(reduction, 2),
        "required_improvement": _REQUIRED_IMPROVEMENT,
        "full_seconds": round(full_seconds, 6),
        "por_seconds": round(por_seconds, 6),
        "states_per_second_full": round(full.explored / full_seconds),
        "states_per_second_por": round(reduced.explored / por_seconds),
        "transitions_per_second_full": round(full.transitions / full_seconds),
        "transitions_per_second_por": round(reduced.transitions / por_seconds),
        "wall_clock_speedup": round(speedup, 2),
    })
    report_lines(
        "Model checker - sleep-set POR (pinned n=10 k=3 cell)",
        [
            f"{reduced.explored} states: full {full.transitions} transitions "
            f"({full_seconds:.2f}s), POR {reduced.transitions} "
            f"({por_seconds:.2f}s)",
            f"transition reduction {reduction:.2f}x "
            f"(required >= {_REQUIRED_IMPROVEMENT}x), "
            f"wall-clock speedup {speedup:.2f}x",
        ],
    )


def test_max_verified_instance_and_memo_footprint(benchmark):
    def verify():
        start = time.perf_counter()
        result = check_interleavings(_ALGORITHM, _PLACEMENT)
        return result, time.perf_counter() - start

    result, seconds = benchmark(verify)
    assert result.ok and result.complete
    assert result.memo_bytes > 0

    record_case(f"mc max-verified {_ALGORITHM} n=10 k=3", {
        "algorithm": _ALGORITHM,
        "n": _PLACEMENT.ring_size,
        "k": _PLACEMENT.agent_count,
        "homes": list(_PLACEMENT.homes),
        "states": result.explored,
        "transitions": result.transitions,
        "terminals": result.terminals,
        "max_depth": result.max_depth,
        "memo_bytes": result.memo_bytes,
        "mean_seconds": round(seconds, 6),
        "states_per_second": round(result.explored / seconds),
    })
    report_lines(
        "Model checker - max verified instance",
        [
            f"{_ALGORITHM} n={_PLACEMENT.ring_size} k={_PLACEMENT.agent_count} "
            f"homes={_PLACEMENT.homes}: {result.explored} states, "
            f"{result.transitions} transitions, {result.terminals} terminals "
            f"in {seconds:.2f}s ({result.explored / seconds:,.0f} states/s), "
            f"memo {result.memo_bytes:,} bytes",
        ],
    )


def test_parallel_frontier_jobs(benchmark):
    jobs = min(4, os.cpu_count() or 1)

    def run_both():
        start = time.perf_counter()
        serial = check_frontier(_ALGORITHM, _PLACEMENT, jobs=1)
        serial_seconds = time.perf_counter() - start
        start = time.perf_counter()
        parallel = check_frontier(_ALGORITHM, _PLACEMENT, jobs=jobs)
        parallel_seconds = time.perf_counter() - start
        return serial, parallel, serial_seconds, parallel_seconds

    serial, parallel, serial_seconds, parallel_seconds = benchmark(run_both)

    # Jobs invariance is the frontier driver's core guarantee.
    assert parallel.to_dict() == serial.to_dict()
    speedup = serial_seconds / parallel_seconds
    if (os.cpu_count() or 1) >= 2 and jobs >= 2:
        # With real cores available the fan-out must pay for its
        # serialisation overhead; on a 1-CPU host the POR benchmark
        # above carries the PR's >=2x acceptance requirement instead.
        assert speedup >= 1.2, (
            f"--jobs {jobs} slower than serial on a "
            f"{os.cpu_count()}-core host ({speedup:.2f}x)"
        )

    record_case(f"mc frontier {_ALGORITHM} n=10 k=3 jobs={jobs}", {
        "algorithm": _ALGORITHM,
        "n": _PLACEMENT.ring_size,
        "k": _PLACEMENT.agent_count,
        "jobs": jobs,
        "states": parallel.explored,
        "serial_seconds": round(serial_seconds, 6),
        "parallel_seconds": round(parallel_seconds, 6),
        "parallel_speedup": round(speedup, 2),
        "states_per_second_parallel": round(parallel.explored / parallel_seconds),
    })
    report_lines(
        f"Model checker - frontier driver (jobs={jobs}, "
        f"{os.cpu_count()} host cpu(s))",
        [
            f"serial {serial_seconds:.2f}s vs jobs={jobs} "
            f"{parallel_seconds:.2f}s ({speedup:.2f}x); stats identical",
        ],
    )
