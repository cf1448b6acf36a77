"""Parallel sweep runner: fan experiment grids across a process pool.

The paper's tables and figures are sweeps over thousands of
``(algorithm, n, k, scheduler, seed)`` cells.  Each cell is an
independent simulation, so the sweep is embarrassingly parallel; this
module provides the deterministic plumbing:

* :class:`SweepSpec` — the grid description (algorithms x (n, k) pairs
  x schedulers x trials),
* :func:`expand_cells` — the spec flattened into :class:`SweepCell`\\ s
  in a fixed canonical order,
* :func:`cell_seed` — a stable per-cell seed derived by hashing the
  cell coordinates, so cell results never depend on sweep order,
  worker count, or which process ran them,
* :func:`cell_hashes` — every cell's content hash (the store key of
  its :class:`~repro.spec.ExperimentSpec`), rendered into one canonical
  JSON template per call instead of building a spec per cell,
* :func:`cell_row` — the one row-shaping helper: a cell plus its result
  payload (:func:`~repro.store.records.result_to_payload`, the
  ``result`` of a stored record) to the flat row every consumer sees,
* :func:`run_cell` — one cell to one flat result row,
* :func:`execute_sweep` — the driver: the pending cells go through
  :func:`repro.executor.completed` (in this process at
  ``processes=1``, else on its pool), identical rows either way.

Determinism contract: ``execute_sweep(spec, processes=1).rows`` and
``execute_sweep(spec, processes=32).rows`` are byte-identical row lists.

Sweeps are resumable: pass ``store=RunStore(dir)`` and every completed
cell streams into the content-addressed archive *as workers finish*
(the store is a checkpoint — a killed sweep loses at most the cells in
flight).  With ``resume=True`` (the default) cells whose spec hash is
already archived are served from the store without executing anything,
so re-running a completed sweep costs zero simulations and overlapping
sweeps only pay for their new cells.  A fully warm re-run pays for the
cell hashes, one indexed lookup and the line reads: rows are shaped
from the records' payloads, with no ``RunResult`` rebuilt.
:func:`rows_from_store` and :func:`summarize_rows` turn an archive
back into canonical rows and aggregates without re-running —
``repro report`` can render from a store alone.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.decode import (
    SpecCodec, canonical_json, read_document, read_int, read_list,
    seed_from_key, strict_int,
)
from repro.errors import CampaignInterrupted, ConfigurationError
from repro.executor import completed
from repro.experiments.runner import run_experiment
from repro.registry import get_algorithm, parse_scheduler_spec
from repro.ring.faults import LinkSpec
from repro.spec import ExperimentSpec, PlacementSpec, _coerce_scheduler
from repro.store import (
    RunRecord, RunStore, result_row, result_to_payload, warn_foreign_envs,
)

__all__ = [
    "SUMMARY_GROUP_KEYS",
    "SweepCell",
    "SweepOutcome",
    "SweepSpec",
    "cell_hashes",
    "cell_row",
    "cell_seed",
    "execute_sweep",
    "expand_cells",
    "rows_from_store",
    "run_cell",
    "rows_to_json",
    "summarize_rows",
]

#: Decorrelates a cell's scheduler seed from its placement seed.
SCHEDULER_SEED_XOR = 0x5DEECE66D


def cell_seed(
    base_seed: int,
    algorithm: str,
    ring_size: int,
    agent_count: int,
    scheduler: str,
    trial: int,
) -> int:
    """Derive a stable 63-bit seed from the cell coordinates.

    SHA-256 of the coordinate string, not Python's ``hash`` — the value
    must be identical across processes, interpreter runs and platforms.
    """
    return seed_from_key(
        f"{base_seed}|{algorithm}|{ring_size}x{agent_count}|{scheduler}|{trial}"
    )


@dataclass(frozen=True)
class SweepCell:
    """One independent simulation in a sweep (picklable)."""

    algorithm: str
    ring_size: int
    agent_count: int
    scheduler: str
    trial: int
    seed: int
    max_steps: Optional[int] = None
    links: Optional[LinkSpec] = None

    def to_experiment_spec(self) -> ExperimentSpec:
        """The declarative :class:`~repro.spec.ExperimentSpec` of this cell.

        The cell seed doubles as the random-placement seed; the
        scheduler seed is decorrelated from it by a fixed XOR (no second
        hash needed).  ``run_cell`` executes exactly this spec, so a
        sweep is nothing but a grid of serializable experiment specs.
        ``links`` rides along verbatim: fault draws have their own seed
        inside the :class:`~repro.ring.faults.LinkSpec`, so cell seeds
        stay comparable between faulty and reliable sweeps.
        """
        return ExperimentSpec(
            algorithm=self.algorithm,
            placement=PlacementSpec(
                kind="random",
                ring_size=self.ring_size,
                agent_count=self.agent_count,
                seed=self.seed,
            ),
            scheduler=self.scheduler,
            scheduler_seed=self.seed ^ SCHEDULER_SEED_XOR,
            max_steps=self.max_steps,
            links=self.links,
        )


@dataclass(frozen=True)
class SweepSpec(SpecCodec):
    """A full sweep grid: the cross product of every axis.

    Its content hash is the identity ``repro serve`` gives a sweep job.
    """

    algorithms: Tuple[str, ...]
    grid: Tuple[Tuple[int, int], ...]
    schedulers: Tuple[str, ...] = ("sync",)
    trials: int = 1
    base_seed: int = 0
    max_steps: Optional[int] = None
    links: Optional[LinkSpec] = None

    label = "sweep spec"

    def __post_init__(self) -> None:
        for algorithm in self.algorithms:
            get_algorithm(algorithm)  # raises on unknown names
        for scheduler in self.schedulers:
            parse_scheduler_spec(scheduler)  # full spec strings are allowed
        for pair in self.grid:
            # Strict ints: cell_hashes renders them with str(), and
            # str(True) is not the JSON `true` a spec would hold.
            if not (
                isinstance(pair, (list, tuple))
                and len(pair) == 2
                and all(type(size) is int for size in pair)
                and 1 <= pair[1] <= pair[0]
            ):
                raise ConfigurationError(
                    f"sweep grid entry {pair!r} must be an (n, k) pair of "
                    f"ints with 1 <= k <= n"
                )
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        if self.max_steps is not None and self.max_steps < 1:
            raise ConfigurationError("max_steps must be >= 1 when given")
        if self.links is not None:
            if not isinstance(self.links, LinkSpec):
                raise ConfigurationError(
                    f"links must be a LinkSpec, got {type(self.links).__name__}"
                )
            if not self.links.active:
                # All-zero budgets mean reliable links; normalise so the
                # grid (and every cell spec hash) matches a links-less one.
                object.__setattr__(self, "links", None)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready description of the grid (one schema, used by
        :func:`rows_to_json` and the CLI alike).  ``links`` is emitted
        only when set, so reliable sweep specs keep their historical
        serialised form."""
        out: Dict[str, object] = {
            "algorithms": list(self.algorithms),
            "grid": [list(pair) for pair in self.grid],
            "schedulers": list(self.schedulers),
            "trials": self.trials,
            "base_seed": self.base_seed,
            "max_steps": self.max_steps,
        }
        if self.links is not None:
            out["links"] = self.links.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SweepSpec":
        """Inverse of :meth:`to_dict` (the ``--spec file.json`` path).

        Grid pairs arrive as 2-lists from JSON; everything else maps
        straight onto the dataclass, with unknown keys rejected loudly
        so a mistyped field never silently falls back to a default.
        """
        read_document(
            data, cls.label, cls.__dataclass_fields__,
            required=("algorithms", "grid"),
        )
        grid = []
        for pair in read_list(data, "grid", cls, label="sweep spec"):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ConfigurationError(
                    f"sweep grid entries must be [n, k] pairs, got {pair!r}"
                )
            grid.append(
                tuple(strict_int(size, "sweep spec grid entry") for size in pair)
            )
        links_data = data.get("links")
        return cls(
            algorithms=read_list(data, "algorithms", cls, label="sweep spec"),
            grid=tuple(grid),
            schedulers=read_list(data, "schedulers", cls, label="sweep spec"),
            trials=read_int(data, "trials", cls, label="sweep spec"),
            base_seed=read_int(data, "base_seed", cls, label="sweep spec"),
            max_steps=read_int(data, "max_steps", cls, label="sweep spec"),
            links=None if links_data is None else LinkSpec.from_dict(links_data),
        )


def expand_cells(spec: SweepSpec) -> List[SweepCell]:
    """Flatten the spec into cells in canonical (stable) order."""
    cells = []
    for algorithm in spec.algorithms:
        for ring_size, agent_count in spec.grid:
            for scheduler in spec.schedulers:
                for trial in range(spec.trials):
                    cells.append(
                        SweepCell(
                            algorithm=algorithm,
                            ring_size=ring_size,
                            agent_count=agent_count,
                            scheduler=scheduler,
                            trial=trial,
                            seed=cell_seed(
                                spec.base_seed,
                                algorithm,
                                ring_size,
                                agent_count,
                                scheduler,
                                trial,
                            ),
                            max_steps=spec.max_steps,
                            links=spec.links,
                        )
                    )
    return cells


#: Stand-ins for the six per-cell values of a cell spec's canonical JSON,
#: in the order :func:`cell_hashes` renders them.
_CELL_SENTINELS = tuple(f"\x00cell-value-{index}\x00" for index in range(6))


def cell_hashes(cells: Sequence[SweepCell]) -> List[str]:
    """Each cell's ``to_experiment_spec().content_hash()``, in order.

    The cells of one sweep differ only in six values of their spec:
    algorithm, ring size, agent count, canonical scheduler string,
    placement seed and scheduler seed.  So the first cell's spec is
    encoded once by the real codec, with sentinels in those six places,
    and every cell's canonical JSON is that template with its values
    rendered in (strings as canonical JSON, ints with ``str``; each
    scheduler spelling is canonicalised once per call); ``max_steps`` and
    ``links`` stay inside it.  Every call also checks the first cell's
    hash against its full spec hash, so a template that drifted from
    the codec raises instead of missing the store.
    """
    if not cells:
        return []
    first = cells[0]
    spec = first.to_experiment_spec()
    document = spec.to_dict()
    placement, scheduler = document["placement"], document["scheduler"]
    (
        document["algorithm"], placement["ring_size"], placement["agent_count"],
        scheduler["spec"], placement["seed"], scheduler["seed"],
    ) = _CELL_SENTINELS
    template = canonical_json(document).replace("{", "{{").replace("}", "}}")
    for index, sentinel in enumerate(_CELL_SENTINELS):
        token = canonical_json(sentinel)
        if template.count(token) != 1:
            raise AssertionError(f"cell spec template lost value {index}")
        template = template.replace(token, f"{{{index}}}")
    render = template.format
    algorithms: Dict[str, str] = {}
    schedulers: Dict[str, str] = {}
    hashes = []
    for cell in cells:
        if cell.max_steps != first.max_steps or (
            cell.links is not first.links and cell.links != first.links
        ):
            raise ValueError("cell_hashes takes the cells of one sweep")
        algorithm = algorithms.get(cell.algorithm)
        if algorithm is None:
            algorithm = algorithms[cell.algorithm] = canonical_json(cell.algorithm)
        scheduler = schedulers.get(cell.scheduler)
        if scheduler is None:
            scheduler = schedulers[cell.scheduler] = canonical_json(
                _coerce_scheduler(cell.scheduler)
            )
        text = render(
            algorithm, cell.ring_size, cell.agent_count, scheduler,
            cell.seed, cell.seed ^ SCHEDULER_SEED_XOR,
        )
        hashes.append(hashlib.sha256(text.encode("utf-8")).hexdigest())
    if hashes[0] != spec.content_hash():
        raise AssertionError(
            "cell spec template disagrees with ExperimentSpec.content_hash"
        )
    return hashes


def cell_row(cell: SweepCell, payload: Dict[str, object]) -> Dict[str, object]:
    """The canonical flat row of one completed cell.

    This is the *only* place the sweep row schema is shaped — the
    executing path, the store-resume path and :func:`rows_from_store`
    all call it, so cached and freshly computed rows are byte-identical
    by construction.  ``payload`` is the run's result payload (a stored
    record's ``result``), shaped by
    :func:`~repro.store.records.result_row`.  ``scheduler`` reports the
    cell's spec name (not the instance's ``describe()`` text) and the
    cell coordinates ride along for grouping.
    """
    row = result_row(payload)
    row["scheduler"] = cell.scheduler  # spec name, not describe() text
    row["trial"] = cell.trial
    row["seed"] = cell.seed
    return row


def run_cell(cell: SweepCell) -> Dict[str, object]:
    """Run one cell to quiescence and return its flat result row."""
    result = run_experiment(cell.to_experiment_spec())
    return cell_row(cell, result_to_payload(result))


def _record_for_cell(
    indexed_cell: Tuple[int, SweepCell]
) -> Tuple[int, Dict[str, object]]:
    """Pool worker: run one cell, return its archived-record dict.

    Records (not rows) cross the process boundary so the parent can
    stream them straight into the store; the row is derived afterwards
    via :func:`cell_row`, exactly as on the cache-hit path.
    """
    index, cell = indexed_cell
    spec = cell.to_experiment_spec()
    result = run_experiment(spec)
    return index, result.to_record(spec).to_dict()


def _row_for_cell(
    indexed_cell: Tuple[int, SweepCell]
) -> Tuple[int, Dict[str, object]]:
    """Pool worker for storeless sweeps: flat rows only, no record
    envelope (spec dict + env fingerprint) to build, ship and re-parse."""
    index, cell = indexed_cell
    return index, run_cell(cell)


def _archived_records(
    store: RunStore, cells: Sequence[SweepCell]
) -> List[Optional[RunRecord]]:
    """Each cell's archived record, or None where the store lacks it.

    Refreshes first, to see cells other writers archived since the
    handle opened.  Then one :meth:`~repro.store.jsonl.RunStore.get_many`
    call resolves every cell hash in one indexed query and reads the
    hits with one open per shard: on a fully warm resume this is the
    whole sweep, so per-cell lookups and opens would dominate it.
    """
    store.refresh()
    return store.get_many(cell_hashes(cells), default=None)


@dataclass(frozen=True)
class SweepOutcome:
    """What one sweep invocation did: the rows plus cache accounting."""

    rows: List[Dict[str, object]]
    total: int
    executed: int
    cached: int

    def describe(self) -> str:
        return (
            f"{self.total} cells: {self.executed} executed, "
            f"{self.cached} cached"
        )


def execute_sweep(
    spec: SweepSpec,
    processes: Optional[int] = None,
    *,
    store: Optional[RunStore] = None,
    resume: bool = True,
    progress: Optional[Callable[[Dict[str, object]], None]] = None,
    backend: str = "object",
    validate_backend: bool = False,
) -> SweepOutcome:
    """Run ``spec`` through an optional run store; return rows + stats.

    Without a store this is exactly the classic sweep.  With one:

    * ``resume=True`` (default) serves every cell whose spec content
      hash is already archived straight from the store — re-running a
      completed sweep executes **zero** cells.  The archive is asked
      about all cells at once: one ``get_many`` resolves their hashes in
      one indexed query (per chunk of hashes, whatever the store's
      size) and reads the hits with one open per shard,
    * every freshly executed cell is archived *as its worker finishes*,
      so the store is a live checkpoint: killing the sweep loses at most
      the in-flight cells and a later ``resume`` run completes the
      remainder losslessly,
    * rows come back in canonical cell order regardless of which cells
      were cached, which were computed, and in what order workers
      finished — byte-identical to a storeless serial run.

    ``backend="batch"`` executes the pending cells that
    :func:`repro.sim.batch.batch_supported` accepts (``known_k_full`` /
    ``known_n_full`` under ``sync``) on the columnar engine: they are
    grouped per (algorithm, n, k, scheduler, budget) and each group runs
    as one vectorized batch in the parent process.  Every declined cell
    runs on the object pool as with ``backend="object"``.  Results —
    rows, archived records, content hashes — are byte-identical to the
    object path by construction.  ``validate_backend=True`` additionally
    re-runs a deterministic sample of every batch on the object engine
    and raises :class:`~repro.errors.BackendMismatch` on any
    divergence (the differential-oracle gate).

    ``progress({"done", "pending", "total"})`` is called after each
    *executed* cell is safely archived (or completed, when storeless):
    ``done`` of the ``pending`` cells have run, out of ``total`` in the
    grid.  A callback that raises aborts the sweep without losing
    archived cells.  ``processes`` (default: the CPU count) must be at
    least 1; the pending cells go through
    :func:`repro.executor.completed`.
    """
    if backend not in ("object", "batch"):
        raise ConfigurationError(
            f"unknown sweep backend {backend!r} (choose 'object' or 'batch')"
        )
    cells = expand_cells(spec)
    if not cells:
        return SweepOutcome(rows=[], total=0, executed=0, cached=0)
    rows: List[Optional[Dict[str, object]]] = [None] * len(cells)
    pending: List[Tuple[int, SweepCell]] = []
    cached = 0
    if store is not None and resume:
        archived = _archived_records(store, cells)
        for index, (cell, record) in enumerate(zip(cells, archived)):
            if record is None:
                pending.append((index, cell))
            else:
                rows[index] = cell_row(cell, record.result)
        cached = len(cells) - len(pending)
        warn_foreign_envs([r for r in archived if r is not None], "cell")
    else:
        pending = list(enumerate(cells))

    # Storeless sweeps ship flat rows (the historical fast path); only
    # archiving sweeps pay for the record envelope crossing the pool.
    worker = _row_for_cell if store is None else _record_for_cell

    # Batch backend: peel the batchable cells off the pool's work list
    # and group them into homogeneous vectorizable batches; declined
    # cells stay on `pool_pending` and run exactly as with the object
    # backend.
    pool_pending = pending
    batch_groups: List[List[Tuple[int, SweepCell]]] = []
    if backend == "batch" and pending:
        from repro.sim.batch import batch_supported, run_batch

        grouped: Dict[Tuple[object, ...], List[Tuple[int, SweepCell]]] = {}
        pool_pending = []
        for index, cell in pending:
            if batch_supported(cell.to_experiment_spec()) is None:
                key = (
                    cell.algorithm,
                    cell.ring_size,
                    cell.agent_count,
                    cell.scheduler,
                    cell.max_steps,
                )
                grouped.setdefault(key, []).append((index, cell))
            else:
                pool_pending.append((index, cell))
        batch_groups = list(grouped.values())

    executed = 0

    def _complete(index: int, payload: Dict[str, object]) -> None:
        nonlocal executed
        if store is None:
            rows[index] = payload
        else:
            record = RunRecord.from_dict(payload)
            # Checkpoint before anything else sees the row.  A
            # --no-resume run recomputed this cell on purpose, so the
            # fresh record must supersede any archived one — otherwise
            # the printed rows and the archive silently diverge.
            store.put(record, replace=not resume)
            rows[index] = cell_row(cells[index], record.result)
        executed += 1
        if progress is not None:
            progress(
                {"done": executed, "pending": len(pending), "total": len(cells)}
            )

    if processes is None:
        processes = multiprocessing.cpu_count()
    try:
        for group in batch_groups:
            specs = [cell.to_experiment_spec() for _, cell in group]
            results = run_batch(specs, validate=validate_backend)
            for (index, cell), cell_spec, result in zip(group, specs, results):
                if store is None:
                    _complete(index, cell_row(cell, result_to_payload(result)))
                else:
                    _complete(index, result.to_record(cell_spec).to_dict())
        # Not bound to a name: an exception out of this loop drops the
        # iterator at once, and with it the pool.
        for index, payload in completed(worker, pool_pending, processes):
            _complete(index, payload)
    except KeyboardInterrupt:
        # Graceful degradation: everything completed so far is already
        # flushed (the store is written per-completion, before the row
        # is exposed), so tear down the pool and hand the caller an
        # honest partial outcome plus the exact way to finish the job —
        # never a raw traceback over work that is safely archived.
        partial = SweepOutcome(
            rows=[row for row in rows if row is not None],
            total=len(cells),
            executed=executed,
            cached=cached,
        )
        if store is not None:
            resume_hint = (
                f"re-run the same sweep with store={store.root} and "
                f"resume=True to finish the remaining "
                f"{len(pending) - executed} cell(s)"
            )
        else:
            resume_hint = (
                "no store was attached, so the partial rows are lost on "
                "exit; re-run with a store to make sweeps resumable"
            )
        raise CampaignInterrupted(
            f"sweep interrupted: {executed + cached} of {len(cells)} "
            f"cells done ({executed} executed, {cached} cached)",
            outcome=partial,
            resume_hint=resume_hint,
        ) from None
    return SweepOutcome(
        rows=rows, total=len(cells), executed=len(pending), cached=cached
    )


def rows_from_store(
    store: RunStore, spec: SweepSpec, *, strict: bool = False
) -> List[Dict[str, object]]:
    """The canonical rows of ``spec`` served purely from an archive.

    No cell is executed: rows are reconstructed (in canonical cell
    order, byte-identical to a live sweep) for every cell whose spec
    hash is archived.  Missing cells are skipped — or, with
    ``strict=True``, raise a :class:`ConfigurationError` naming how
    many are absent (use :func:`execute_sweep` to fill them in).
    """
    cells = expand_cells(spec)
    rows = [
        cell_row(cell, record.result)
        for cell, record in zip(cells, _archived_records(store, cells))
        if record is not None
    ]
    missing = len(cells) - len(rows)
    if strict and missing:
        raise ConfigurationError(
            f"store {store.root} is missing {missing} of the sweep's "
            f"{missing + len(rows)} cells; run execute_sweep(..., "
            f"store=...) to fill them in"
        )
    return rows


#: The coordinates one summary row aggregates over (trials collapse).
SUMMARY_GROUP_KEYS: Tuple[str, ...] = ("algorithm", "n", "k", "scheduler")


def summarize_rows(
    rows: Sequence[Dict[str, object]]
) -> List[Dict[str, object]]:
    """Aggregate trial rows per :data:`SUMMARY_GROUP_KEYS` group.

    Means are reported for moves/time, maxima for memory (a high-water
    measure), and ``uniform`` is the conjunction over trials.
    """
    groups: Dict[Tuple[object, ...], List[Dict[str, object]]] = {}
    for row in rows:
        key = tuple(row[name] for name in SUMMARY_GROUP_KEYS)
        groups.setdefault(key, []).append(row)
    summary = []
    for key, members in groups.items():
        trials = len(members)
        mean_moves = sum(int(m["total_moves"]) for m in members) / trials
        times = [m["ideal_time"] for m in members if m["ideal_time"] is not None]
        entry: Dict[str, object] = dict(zip(SUMMARY_GROUP_KEYS, key))
        entry.update(
            {
                "trials": trials,
                "mean_moves": round(mean_moves, 1),
                "mean_ideal_time": (
                    round(sum(times) / len(times), 1) if times else None
                ),
                "max_memory_bits": max(int(m["max_memory_bits"]) for m in members),
                "uniform": all(bool(m["uniform"]) for m in members),
            }
        )
        summary.append(entry)
    return summary


def rows_to_json(
    spec: SweepSpec, rows: Sequence[Dict[str, object]], indent: int = 2
) -> str:
    """Serialise a sweep (spec + rows) for trajectory tracking."""
    payload = {"spec": spec.to_dict(), "rows": list(rows)}
    return json.dumps(payload, indent=indent)
