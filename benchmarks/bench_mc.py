"""Model-checker throughput: POR reduction, memo footprint and the
spilled search.

Three measurements on a pinned n=10, k=3 cell (the largest instance the
verification ladder reports as exhaustively verified), plus the time of
the per-step target cell:

* serial full expansion vs sleep-set POR — the asserted >=2x win: POR
  executes fewer than half the transitions while reaching the identical
  state set, so states/second of *verification* roughly doubles;
* the memo footprint of the packed encoding at that size;
* the same search spilled to a resumable journal (``repro mc --store``)
  against the in-memory one, with the journal's size and the time to
  replay it (``resume_state``).  The journal records frontier items as
  parent-index deltas, so its size is asserted to stay O(states);
* the distances (1,1,1,1,2) cell of ``unknown`` (n=6, k=5, 192,128
  states), whose exhaustive check covers Algorithms 5-6's
  wrong-estimate path.  It runs at jobs=1 and tracks ROADMAP's target
  of under 10 s, which would let it join tier-1.

Results merge into ``BENCH_engine.json`` so the verified-instance
ceiling and the reduction ratio are tracked PR over PR.
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

from repro.mc import FrontierSpill, check_frontier, check_interleavings
from repro.ring.placement import Placement, placement_from_distances

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


#: The pinned cell's journal held 4,744,998 bytes while it recorded
#: every frontier item's full schedule; as parent-index deltas it is
#: ~1.8 MB.
_MAX_JOURNAL_BYTES = 2_000_000


def test_spilled_frontier_journal(benchmark):
    def run_both():
        start = time.perf_counter()
        memory = check_frontier(_ALGORITHM, _PLACEMENT)
        memory_seconds = time.perf_counter() - start
        with tempfile.TemporaryDirectory() as root:
            start = time.perf_counter()
            spilled = check_frontier(_ALGORITHM, _PLACEMENT, store_root=root)
            spill_seconds = time.perf_counter() - start
            (journal,) = Path(root, "mc").glob("*/journal.jsonl")
            journal_bytes = journal.stat().st_size
            meta = json.loads((journal.parent / "meta.json").read_text())
            spill = FrontierSpill(root, meta["spec"])
            start = time.perf_counter()
            state = spill.resume_state()
            replay_seconds = time.perf_counter() - start
        return (memory, spilled, state, memory_seconds, spill_seconds,
                replay_seconds, journal_bytes)

    (memory, spilled, state, memory_seconds, spill_seconds, replay_seconds,
     journal_bytes) = benchmark(run_both)

    assert spilled.to_dict() == memory.to_dict()
    assert state is not None and state.stats.explored == spilled.explored
    assert journal_bytes <= _MAX_JOURNAL_BYTES, (
        f"journal of the pinned cell grew to {journal_bytes:,} bytes"
    )

    record_case(f"mc spill {_ALGORITHM} n=10 k=3", {
        "algorithm": _ALGORITHM,
        "n": _PLACEMENT.ring_size,
        "k": _PLACEMENT.agent_count,
        "states": spilled.explored,
        "memory_seconds": round(memory_seconds, 6),
        "spill_seconds": round(spill_seconds, 6),
        "states_per_second_memory": round(memory.explored / memory_seconds),
        "states_per_second_spill": round(spilled.explored / spill_seconds),
        "journal_bytes": journal_bytes,
        "resume_state_seconds": round(replay_seconds, 6),
    })
    report_lines(
        "Model checker - spilled search (pinned n=10 k=3 cell)",
        [
            f"in memory {memory_seconds:.2f}s, spilled {spill_seconds:.2f}s; "
            f"journal {journal_bytes:,} bytes, replayed in "
            f"{replay_seconds:.2f}s",
        ],
    )


#: ROADMAP's per-step verification target: this cell at jobs=1 in
#: under 10 s.  Tracked, not asserted.
_TARGET_DISTANCES = (1, 1, 1, 1, 2)
_TARGET_SECONDS = 10.0


def test_per_step_target_cell(benchmark):
    placement = placement_from_distances(_TARGET_DISTANCES)

    def verify():
        start = time.perf_counter()
        result = check_interleavings(_ALGORITHM, placement)
        return result, time.perf_counter() - start

    # One round: the cell takes tens of seconds.
    result, seconds = benchmark.pedantic(verify, rounds=1, iterations=1)
    assert result.ok and result.complete
    assert result.explored == 192_128

    record_case(f"mc target {_ALGORITHM} distances=1,1,1,1,2", {
        "algorithm": _ALGORITHM,
        "n": placement.ring_size,
        "k": placement.agent_count,
        "distances": list(_TARGET_DISTANCES),
        "jobs": 1,
        "states": result.explored,
        "seconds": round(seconds, 3),
        "states_per_second": round(result.explored / seconds),
        "target_seconds": _TARGET_SECONDS,
    })
    report_lines(
        "Model checker - per-step target cell (jobs=1)",
        [
            f"{_ALGORITHM} distances={_TARGET_DISTANCES}: {result.explored} "
            f"states in {seconds:.2f}s ({result.explored / seconds:,.0f} "
            f"states/s; target < {_TARGET_SECONDS:.0f}s)",
        ],
    )
