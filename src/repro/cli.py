"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``list``          — registered algorithms and schedulers (Table 1 rows;
  ``--json`` emits the machine-readable registry dump),
* ``run``           — one experiment on a random or explicit placement
  (``--spec file.json`` runs a serialized experiment spec instead),
* ``spec``          — emit the :class:`repro.spec.ExperimentSpec` JSON a
  ``run`` command line denotes (pipe it to a file, run it anywhere),
* ``sweep``         — Table 1 style (n, k) grids with log-log slopes,
* ``psweep``        — full (algorithm, n, k, scheduler, trial) grids
  fanned across a process pool with deterministic per-cell seeds
  (``--store DIR`` archives every cell as it completes and ``--resume``
  skips cells already archived — a killed sweep picks up where it
  left off),
* ``query``         — filter a run store by algorithm / scheduler /
  n / k / hash prefix without executing anything,
* ``symmetry``      — Result 4 adaptivity sweep over symmetry degrees,
* ``impossibility`` — the Theorem 5 / Figure 7 construction,
* ``lower-bound``   — Theorem 1 quarter-packed comparison vs optimum,
* ``compare``       — all algorithms head-to-head on one placement,
* ``timeline``      — ASCII space-time diagram of one run,
* ``mc``            — exhaustive interleaving model checking with
  replayable counterexample schedules,
* ``fuzz``          — coverage-guided schedule fuzzing on instances the
  checker cannot exhaust: mutated activation schedules, online property
  oracles, delta-debugged minimal counterexamples archived as failure
  artifacts,
* ``campaign``      — fault-tolerant multi-worker orchestration of a
  sweep grid or fuzzing budget: spec-hash-keyed work units under
  expiring leases, crashed/stalled/silent workers replaced and their
  units re-issued with backoff, permanently wedged units quarantined
  as poison artifacts, everything journaled for exact resume
  (``--chaos`` injects deterministic worker faults for testing),
* ``report``        — re-run the experiment suite, emit markdown
  (``--store DIR`` renders archived runs without re-executing).

Commands that execute experiments accept ``--store DIR``: completed
runs are archived in a content-addressed run store keyed by the
experiment spec's SHA-256 content hash, and any run whose hash is
already archived is served from the store instead of simulated.

Schedulers are named by registry *spec strings* everywhere — bare names
(``sync``, ``random``) or parameterised forms such as
``laggard:victims=0-2,patience=5,seed=3`` (see :mod:`repro.registry`).
The CLI never constructs an algorithm or scheduler directly; every
command resolves names through the registry and, where a single
experiment is run, through a declarative ``ExperimentSpec``.

Every command prints aligned text tables (no plotting dependencies) and
exits non-zero if a run unexpectedly fails verification.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.analysis.render import render_gaps, render_positions
from repro.errors import CampaignInterrupted, ReproError
from repro.experiments.impossibility import demonstrate_impossibility
from repro.experiments.lower_bound import quarter_sweep
from repro.experiments.table1 import format_rows, symmetry_sweep, table1_sweep
from repro.jobs import KINDS
from repro.registry import algorithm_names, get_algorithm, registry_dump
from repro.ring.placement import placement_from_distances, random_placement
from repro.spec import ExperimentSpec, PlacementSpec

__all__ = ["main", "build_parser"]


def _parse_grid(text: str) -> List[Tuple[int, int]]:
    """Parse ``"64x8,128x16"`` into ``[(64, 8), (128, 16)]``."""
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            n_text, k_text = chunk.lower().split("x")
            pairs.append((int(n_text), int(k_text)))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad grid entry {chunk!r}; expected NxK like 64x8"
            ) from None
    if not pairs:
        raise argparse.ArgumentTypeError("grid is empty")
    return pairs


def _parse_ints(text: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad integer list {text!r}; expected e.g. 1,2,4,8"
        ) from None


def _parse_links(text: str):
    """Parse a ``--links`` value like ``delay=2,loss=1,seed=7``."""
    from repro.ring.faults import parse_link_spec

    try:
        return parse_link_spec(text)
    except ReproError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _add_links_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--links",
        type=_parse_links,
        default=None,
        metavar="SPEC",
        help=(
            "link-fault model, e.g. delay=2,loss=1,dup=1,seed=7: each "
            "forward move may be delayed up to `delay` link ticks, at "
            "most `loss` agents dropped and `dup` duplicated in total "
            "(deterministic draws from `seed`; omit for reliable links)"
        ),
    )


def _parse_scheduler_list(text: str) -> List[str]:
    """Split a CLI scheduler list into individual spec strings.

    Parameterised specs contain commas (``laggard:victims=0,patience=5``),
    so ``;`` separates entries whenever a spec string appears; the plain
    legacy form (``sync,random,chaos``) still splits on commas.
    """
    separator = ";" if (";" in text or ":" in text) else ","
    return [part.strip() for part in text.split(separator) if part.strip()]


def _require_positive_workers(value: Optional[int], flag: str) -> None:
    """Reject zero/negative worker counts with the usage-error exit (2).

    ``None`` means "use the default" and is fine; an explicit 0 or
    negative is always a mistake and deserves a one-line diagnosis
    instead of a pool traceback.
    """
    if value is not None and value < 1:
        raise ReproError(
            f"{flag} must be >= 1 (got {value}); "
            f"omit {flag} to use the default"
        )


def _placement_spec(args: argparse.Namespace) -> PlacementSpec:
    """The placement a run-style command line denotes."""
    if getattr(args, "distances", None):
        return PlacementSpec(kind="distances", distances=tuple(args.distances))
    return PlacementSpec(
        kind="random", ring_size=args.n, agent_count=args.k, seed=args.seed
    )


def _experiment_spec(args: argparse.Namespace) -> ExperimentSpec:
    """The full :class:`ExperimentSpec` a run-style command line denotes."""
    return ExperimentSpec(
        algorithm=args.algorithm,
        placement=_placement_spec(args),
        scheduler=args.scheduler,
        scheduler_seed=args.scheduler_seed,
        max_steps=getattr(args, "max_steps", None),
        links=getattr(args, "links", None),
    )


def _add_run_style_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared experiment-denoting flags of ``run`` and ``spec``."""
    parser.add_argument(
        "--algorithm", default="known_k_full", choices=algorithm_names()
    )
    parser.add_argument("--n", type=int, default=60, help="ring size")
    parser.add_argument("--k", type=int, default=6, help="agent count")
    parser.add_argument("--seed", type=int, default=0, help="placement seed")
    parser.add_argument(
        "--distances",
        type=_parse_ints,
        default=None,
        help="explicit distance sequence (overrides --n/--k/--seed)",
    )
    parser.add_argument(
        "--scheduler",
        default="sync",
        help=(
            "scheduler spec string, e.g. sync, random:seed=7, "
            "laggard:victims=0-2,patience=5 (see `repro list --json`)"
        ),
    )
    parser.add_argument(
        "--scheduler-seed", type=int, default=0,
        help="context seed for seed parameters the spec leaves unset",
    )
    parser.add_argument(
        "--max-steps", type=int, default=None,
        help="abort the run after this many atomic actions",
    )
    _add_links_argument(parser)


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse parser with every subcommand registered."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Uniform deployment of mobile agents in asynchronous rings "
            "(PODC 2016 / JPDC 2018 reproduction)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    list_parser = commands.add_parser(
        "list", help="list registered algorithms and schedulers"
    )
    list_parser.add_argument(
        "--json", action="store_true",
        help="machine-readable dump of both registries",
    )

    run_parser = commands.add_parser("run", help="run one experiment")
    _add_run_style_arguments(run_parser)
    run_parser.add_argument(
        "--spec", default=None, metavar="PATH",
        help="run a serialized ExperimentSpec (other experiment flags ignored)",
    )
    run_parser.add_argument(
        "--render", action="store_true", help="draw the ring before/after"
    )
    run_parser.add_argument(
        "--store", default=None, metavar="DIR",
        help=(
            "content-addressed run store: serve the run from the archive "
            "on a spec-hash hit, archive it otherwise"
        ),
    )

    spec_parser = commands.add_parser(
        "spec",
        help="emit the ExperimentSpec JSON a `run` command line denotes",
        description=(
            "Takes the same experiment flags as `run` and prints the "
            "declarative spec instead of executing it.  The JSON "
            "round-trips losslessly (`repro run --spec file.json` "
            "reproduces the run byte for byte) and its content hash is "
            "stable across machines."
        ),
    )
    _add_run_style_arguments(spec_parser)
    spec_parser.add_argument(
        "--output", default=None, help="write to a file instead of stdout"
    )

    query_parser = commands.add_parser(
        "query",
        help="filter archived runs in a run store (no execution)",
        description=(
            "Search a content-addressed run store written by `run --store`, "
            "`psweep --store`, `sweep --store` or `report --store`.  "
            "Filters combine conjunctively; `--hash` matches a content-hash "
            "prefix like git's abbreviated object names."
        ),
    )
    query_parser.add_argument("--store", required=True, metavar="DIR")
    query_parser.add_argument("--algorithm", default=None)
    query_parser.add_argument(
        "--scheduler", default=None,
        help="canonical scheduler spec string (e.g. random:seed=7)",
    )
    query_parser.add_argument("--n", type=int, default=None, help="ring size")
    query_parser.add_argument("--k", type=int, default=None, help="agent count")
    query_parser.add_argument(
        "--hash", default=None, metavar="PREFIX",
        help="content-hash prefix of the spec (see `repro spec`)",
    )
    query_parser.add_argument(
        "--failed", action="store_true",
        help="only runs that did not deploy uniformly",
    )
    query_parser.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help=(
            "page size: print at most N matches (matches are ordered by "
            "content hash, so pages are stable across invocations)"
        ),
    )
    query_parser.add_argument(
        "--offset", type=int, default=0, metavar="N",
        help="skip the first N matches (pagination, with --limit)",
    )
    query_parser.add_argument(
        "--failures", action="store_true",
        help=(
            "list the store's archived failure artifacts "
            "(<store>/failures/) instead of run records"
        ),
    )
    query_parser.add_argument(
        "--quarantine", action="store_true",
        help=(
            "list the store's quarantined-unit artifacts "
            "(<store>/quarantine/) instead of run records"
        ),
    )
    query_parser.add_argument(
        "--json", action="store_true",
        help="emit the full matching records as JSON",
    )
    query_parser.add_argument(
        "--digest", action="store_true",
        help=(
            "print only the store's logical content digest (order- and "
            "shard-independent SHA-256 over all records; two stores with "
            "identical digests archived identical runs)"
        ),
    )
    query_parser.add_argument(
        "--compact", action="store_true",
        help=(
            "rewrite the store's shards keeping only the winning line of "
            "each record (drops superseded replacements, duplicate appends "
            "and fenced-off garbage; the logical digest is unchanged).  "
            "Run only when no writers are live."
        ),
    )

    sweep_parser = commands.add_parser("sweep", help="Table 1 style (n,k) sweep")
    sweep_parser.add_argument(
        "--algorithm", default="known_k_full", choices=algorithm_names()
    )
    sweep_parser.add_argument(
        "--grid", type=_parse_grid, default=[(64, 8), (128, 8), (256, 8)],
        help="comma-separated NxK pairs, e.g. 64x8,128x8",
    )
    sweep_parser.add_argument("--trials", type=int, default=1)
    sweep_parser.add_argument("--seed", type=int, default=0)
    _add_links_argument(sweep_parser)
    sweep_parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="archive runs / reuse archived runs from this run store",
    )

    psweep_parser = commands.add_parser(
        "psweep", help="parallel sweep over a full experiment grid"
    )
    psweep_parser.add_argument(
        "--algorithms",
        default="known_k_full",
        help="comma-separated algorithm names (see `repro list`)",
    )
    psweep_parser.add_argument(
        "--grid", type=_parse_grid, default=[(64, 8), (128, 16), (256, 16)],
        help="comma-separated NxK pairs, e.g. 64x8,128x16",
    )
    psweep_parser.add_argument(
        "--schedulers", default="sync",
        help=(
            "scheduler spec strings; separate with ';' when specs carry "
            "parameters (sync;laggard:patience=5), ',' works for bare "
            "names (sync,random,chaos)"
        ),
    )
    psweep_parser.add_argument("--trials", type=int, default=1)
    psweep_parser.add_argument("--seed", type=int, default=0, help="base seed")
    _add_links_argument(psweep_parser)
    psweep_parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: CPU count; 1 disables the pool)",
    )
    psweep_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the full row set as JSON for trajectory tracking",
    )
    psweep_parser.add_argument(
        "--summary", action="store_true",
        help="print the per-(algorithm,n,k,scheduler) aggregate instead of raw rows",
    )
    psweep_parser.add_argument(
        "--store", default=None, metavar="DIR",
        help=(
            "stream completed cells into this content-addressed run store "
            "(a killed sweep resumes losslessly from it)"
        ),
    )
    psweep_parser.add_argument(
        "--resume", action=argparse.BooleanOptionalAction, default=None,
        help=(
            "with --store: skip cells whose spec hash is already archived "
            "(the default; --no-resume recomputes everything).  Requires "
            "--store either way."
        ),
    )
    psweep_parser.add_argument(
        "--backend", choices=("object", "batch"), default="object",
        help=(
            "execution backend: 'batch' runs the known_k_full/known_n_full "
            "cells under sync as one vectorized numpy batch per cell "
            "(byte-identical rows); every other cell runs on 'object'"
        ),
    )
    psweep_parser.add_argument(
        "--validate-backend", action="store_true",
        help=(
            "with --backend batch: re-run a deterministic sample of every "
            "batch on the object engine and fail loudly on any divergence"
        ),
    )

    symmetry_parser = commands.add_parser(
        "symmetry", help="Result 4 adaptivity sweep over symmetry degrees"
    )
    symmetry_parser.add_argument("--n", type=int, default=240)
    symmetry_parser.add_argument("--k", type=int, default=16)
    symmetry_parser.add_argument("--degrees", type=_parse_ints, default=[1, 2, 4, 8])
    symmetry_parser.add_argument(
        "--algorithm", default="unknown", choices=algorithm_names()
    )
    symmetry_parser.add_argument("--seed", type=int, default=0)

    impossibility_parser = commands.add_parser(
        "impossibility", help="Theorem 5 / Figure 7 construction"
    )
    impossibility_parser.add_argument(
        "--distances", type=_parse_ints, default=[5, 7, 4, 8],
        help="base-ring distance sequence (n must be a multiple of k)",
    )
    impossibility_parser.add_argument(
        "--algorithm", default="known_k_full",
        choices=["known_k_full", "known_k_logspace"],
    )

    bound_parser = commands.add_parser(
        "lower-bound", help="Theorem 1 quarter-packed comparison"
    )
    bound_parser.add_argument(
        "--sizes", type=_parse_grid, default=[(64, 8), (128, 16)]
    )

    compare_parser = commands.add_parser(
        "compare", help="all algorithms head-to-head on one placement"
    )
    compare_parser.add_argument("--n", type=int, default=60)
    compare_parser.add_argument("--k", type=int, default=6)
    compare_parser.add_argument("--seed", type=int, default=0)
    compare_parser.add_argument(
        "--distances", type=_parse_ints, default=None,
        help="explicit distance sequence (overrides --n/--k/--seed)",
    )

    report_parser = commands.add_parser(
        "report", help="re-run the experiment suite, emit a markdown report"
    )
    report_parser.add_argument("--profile", default="quick", choices=["quick", "full"])
    report_parser.add_argument("--seed", type=int, default=0)
    report_parser.add_argument(
        "--output", default=None, help="write to a file instead of stdout"
    )
    report_parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="render archived runs from this store instead of re-executing",
    )

    timeline_parser = commands.add_parser(
        "timeline", help="ASCII space-time diagram of one run"
    )
    timeline_parser.add_argument(
        "--algorithm", default="known_k_full", choices=algorithm_names()
    )
    timeline_parser.add_argument("--n", type=int, default=16)
    timeline_parser.add_argument("--k", type=int, default=4)
    timeline_parser.add_argument("--seed", type=int, default=0)
    timeline_parser.add_argument(
        "--distances", type=_parse_ints, default=None,
        help="explicit distance sequence (overrides --n/--k/--seed)",
    )
    timeline_parser.add_argument("--sample-every", type=int, default=1)
    timeline_parser.add_argument("--limit", type=int, default=60)

    mc_parser = commands.add_parser(
        "mc",
        help="exhaust every interleaving of an (n, k) instance",
        description=(
            "Explore ALL enabled-agent choices from each initial "
            "configuration (breadth-first, with canonical-state "
            "memoisation), check safety properties on every transition, "
            "uniform deployment on every terminal state and livelock "
            "cycles in the explored state graph, and print any violation "
            "as a replayable schedule.  A clean exhaustive run is a proof "
            "of the paper's claim at this size."
        ),
    )
    mc_parser.add_argument(
        "--algorithm",
        default="known_k_full",
        choices=algorithm_names(include_selftest=True),
        help="registered algorithm (wake_race is the broken self-test agent)",
    )
    mc_parser.add_argument("--n", type=int, default=6, help="ring size")
    mc_parser.add_argument("--k", type=int, default=2, help="agent count")
    mc_parser.add_argument(
        "--distances",
        type=_parse_ints,
        default=None,
        help="check one explicit configuration instead of all placements",
    )
    mc_parser.add_argument(
        "--spec", default=None, metavar="PATH",
        help=(
            "check the algorithm and placement of a serialized "
            "ExperimentSpec (scheduler/engine options are irrelevant to "
            "an exhaustive search and are ignored)"
        ),
    )
    _add_links_argument(mc_parser)
    mc_parser.add_argument(
        "--depth-limit", type=int, default=None,
        help="bound the schedule prefix length (result becomes a bounded check)",
    )
    mc_parser.add_argument(
        "--max-states", type=int, default=None,
        help="stop after this many distinct states (safety valve)",
    )
    mc_parser.add_argument(
        "--keep-going", action="store_true",
        help="collect every violation instead of stopping at the first",
    )
    mc_parser.add_argument(
        "--progress", action="store_true",
        help="print exploration counters to stderr while searching",
    )
    mc_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help=(
            "process-parallel exploration: placements fan across a pool "
            "on a grid, a single configuration expands each wave of the "
            "search in N worker processes (same results as --jobs 1)"
        ),
    )
    mc_parser.add_argument(
        "--no-por", action="store_true",
        help=(
            "disable the sleep-set partial-order reduction (full "
            "expansion; verdicts are identical, transitions roughly double)"
        ),
    )
    mc_parser.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable results document instead of tables",
    )
    mc_parser.add_argument(
        "--store", default=None, metavar="DIR",
        help=(
            "spill the frontier, visited memo and successor edges to "
            "DIR/mc/<check-hash>/ every wave so a killed check can be "
            "resumed"
        ),
    )
    mc_parser.add_argument(
        "--resume", action="store_true",
        help="continue a killed --store run from its last committed wave",
    )

    fuzz_parser = commands.add_parser(
        "fuzz",
        help="coverage-guided schedule fuzzing with shrinking",
        description=(
            "Search the schedule space of instances the exhaustive checker "
            "cannot enumerate: execute mutated activation schedules, keep "
            "the ones reaching novel canonical states or enabled-set "
            "patterns as a corpus, check the model checker's property "
            "oracles at every atomic action, and delta-debug any violation "
            "to a minimal schedule that replays deterministically "
            "(archived as a failure artifact when --store is given).  "
            "Exit code 1 means a violation was found."
        ),
    )
    fuzz_parser.add_argument(
        "--algorithm",
        default="known_k_full",
        choices=algorithm_names(include_selftest=True),
        help="registered algorithm (wake_race is the broken self-test agent)",
    )
    fuzz_parser.add_argument("--n", type=int, default=16, help="ring size")
    fuzz_parser.add_argument("--k", type=int, default=4, help="agent count")
    fuzz_parser.add_argument(
        "--distances",
        type=_parse_ints,
        default=None,
        help="fuzz one explicit configuration instead of random placements",
    )
    fuzz_parser.add_argument("--seed", type=int, default=0, help="campaign seed")
    _add_links_argument(fuzz_parser)
    fuzz_parser.add_argument(
        "--budget", type=int, default=1000,
        help="total schedule executions (adversary seed runs included)",
    )
    fuzz_parser.add_argument(
        "--max-steps", type=int, default=None,
        help="per-run atomic-action cap (default: derived from n and k)",
    )
    fuzz_parser.add_argument(
        "--placements", type=int, default=4,
        help="distinct random placements to fuzz (ignored with --distances)",
    )
    fuzz_parser.add_argument(
        "--corpus", type=int, default=64,
        help="max retained coverage-novel schedule prefixes",
    )
    fuzz_parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes; the budget is sharded across them",
    )
    fuzz_parser.add_argument(
        "--spec", default=None, metavar="PATH",
        help="run a serialized FuzzSpec (other campaign flags ignored)",
    )
    fuzz_parser.add_argument(
        "--store", default=None, metavar="DIR",
        help=(
            "run store directory; failures are archived under "
            "failures/<spec-hash>.json keyed by the triggering "
            "ExperimentSpec content hash"
        ),
    )
    fuzz_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the campaign outcome (failures included) as JSON",
    )
    fuzz_parser.add_argument(
        "--keep-going", action="store_true",
        help="spend the whole budget instead of stopping at the first failure",
    )
    fuzz_parser.add_argument(
        "--no-shrink", action="store_true",
        help="skip delta-debugging (archive the raw violating schedule)",
    )
    fuzz_parser.add_argument(
        "--progress", action="store_true",
        help=(
            "print per-run coverage counters to stderr while fuzzing "
            "(single-job campaigns only)"
        ),
    )

    campaign_parser = commands.add_parser(
        "campaign",
        help="fault-tolerant multi-worker campaign over a sweep or fuzz workload",
        description=(
            "Decompose a sweep grid or a fuzzing budget into spec-hash-keyed "
            "work units and drive them to convergence on a fleet of worker "
            "processes under expiring leases: crashed, wedged or silent "
            "workers are detected (heartbeat TTL + per-unit wall-clock "
            "timeout), their units re-issued with exponential backoff, and "
            "units that exhaust the retry budget are quarantined as poison "
            "artifacts under <store>/quarantine/ while the rest of the "
            "campaign completes.  All progress is journaled in the store; "
            "re-running the same command resumes from where it stopped.  "
            "Exit code: 0 converged clean, 1 quarantined units or fuzz "
            "violations, 130 interrupted (SIGINT/SIGTERM)."
        ),
    )
    campaign_parser.add_argument(
        "--spec", default=None, metavar="PATH",
        help="run a serialized CampaignSpec JSON (workload flags ignored)",
    )
    campaign_parser.add_argument(
        "--fuzz-spec", default=None, metavar="PATH",
        help="fuzz campaign: shard this serialized FuzzSpec across the fleet",
    )
    campaign_parser.add_argument(
        "--algorithms", default="known_k_full",
        help="sweep campaign: comma-separated algorithm names",
    )
    campaign_parser.add_argument(
        "--grid", type=_parse_grid, default=[(64, 8), (128, 16)],
        help="sweep campaign: comma-separated NxK pairs, e.g. 64x8,128x16",
    )
    campaign_parser.add_argument(
        "--schedulers", default="sync",
        help="sweep campaign: scheduler spec strings (';' or ',' separated)",
    )
    campaign_parser.add_argument("--trials", type=int, default=1)
    campaign_parser.add_argument("--seed", type=int, default=0, help="base seed")
    campaign_parser.add_argument(
        "--max-steps", type=int, default=None,
        help="sweep campaign: per-run atomic-action cap",
    )
    campaign_parser.add_argument(
        "--workers", type=int, default=2,
        help="worker processes in the fleet (dead ones are replaced)",
    )
    campaign_parser.add_argument(
        "--lease-ttl", type=float, default=10.0, metavar="SECONDS",
        help="lease expires after this much heartbeat silence",
    )
    campaign_parser.add_argument(
        "--unit-timeout", type=float, default=120.0, metavar="SECONDS",
        help=(
            "hard per-unit wall-clock budget; heartbeats cannot extend it "
            "(catches workers that stall without crashing)"
        ),
    )
    campaign_parser.add_argument(
        "--max-retries", type=int, default=3,
        help="re-issues per unit before it is quarantined",
    )
    campaign_parser.add_argument(
        "--backoff-base", type=float, default=0.5, metavar="SECONDS",
        help="base of the exponential re-issue backoff (with jitter)",
    )
    campaign_parser.add_argument(
        "--shards", type=int, default=4,
        help="fuzz campaign: independent shards the budget is split into",
    )
    campaign_parser.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help=(
            "fault-injection plan for testing the campaign machinery, e.g. "
            "'seed=1,kill=0.3' or 'kill=0.2,stall=0.1,poison=ab12' "
            "(keys: seed, kill, stall, silence, stall_seconds, "
            "silence_seconds, poison)"
        ),
    )
    campaign_parser.add_argument(
        "--store", required=True, metavar="DIR",
        help="run store receiving all records, failures, ledger and quarantine",
    )
    campaign_parser.add_argument(
        "--resume", action=argparse.BooleanOptionalAction, default=True,
        help=(
            "skip units already completed per the store and campaign ledger "
            "(the default; --no-resume re-executes everything)"
        ),
    )

    serve_parser = commands.add_parser(
        "serve",
        help="run the experiment service: the run store behind an HTTP API",
        description=(
            "Start a long-lived daemon exposing a run store over a "
            "versioned JSON API: POST /v1/jobs submits an experiment, "
            "sweep, fuzz or campaign spec for in-process execution, "
            "GET /v1/jobs/{id} polls live progress, GET /v1/runs queries "
            "archived records with filters and pagination, and "
            "GET /v1/store/digest exposes the logical content digest.  "
            "Stdlib only; stop with ^C."
        ),
    )
    serve_parser.add_argument(
        "--store", required=True, metavar="DIR",
        help="run store the service reads and writes (created if absent)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=8765,
        help="TCP port to bind (0 picks an ephemeral port)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=2,
        help="job-executor threads draining the submission queue",
    )
    serve_parser.add_argument(
        "--quiet", action="store_true", help="suppress per-request log lines"
    )

    submit_parser = commands.add_parser(
        "submit",
        help="submit a spec file to a running experiment service",
        description=(
            "POST a serialized ExperimentSpec/SweepSpec/FuzzSpec/"
            "CampaignSpec to `repro serve` and print the job id; with "
            "--wait, poll until the job finishes and exit 0/1 on "
            "completed/failed."
        ),
    )
    submit_parser.add_argument(
        "--url", default="http://127.0.0.1:8765",
        help="service base URL (default %(default)s)",
    )
    submit_parser.add_argument("--kind", required=True, choices=tuple(KINDS))
    submit_parser.add_argument(
        "--spec", required=True, metavar="PATH",
        help="JSON spec file of the given kind",
    )
    submit_parser.add_argument(
        "--processes", type=int, default=None,
        help="sweep jobs: worker processes on the server (default 1)",
    )
    submit_parser.add_argument(
        "--wait", action="store_true",
        help="poll until the job completes or fails",
    )
    submit_parser.add_argument(
        "--poll", type=float, default=0.5, metavar="SECONDS",
        help="polling interval with --wait (default %(default)s)",
    )
    submit_parser.add_argument(
        "--timeout", type=float, default=3600.0, metavar="SECONDS",
        help="give up waiting after this long (default %(default)s)",
    )
    submit_parser.add_argument(
        "--json", action="store_true", help="print the final job as JSON"
    )

    jobs_parser = commands.add_parser(
        "jobs",
        help="list or inspect jobs on a running experiment service",
    )
    jobs_parser.add_argument(
        "--url", default="http://127.0.0.1:8765",
        help="service base URL (default %(default)s)",
    )
    jobs_parser.add_argument(
        "job_id", nargs="?", default=None,
        help="job id to inspect (omit to list all jobs)",
    )
    jobs_parser.add_argument(
        "--json", action="store_true", help="print raw JSON"
    )

    return parser


def _command_list(args: argparse.Namespace) -> int:
    dump = registry_dump()
    if args.json:
        print(json.dumps(dump, indent=2))
        return 0
    rows = [
        {
            "name": entry["name"],
            "knowledge": entry["knowledge"],
            "memory": entry["memory_bound"],
            "time": entry["time_bound"],
            "halts": entry["halts"],
            "description": entry["description"],
        }
        for entry in dump["algorithms"]
        if not entry["selftest"]
    ]
    print(format_rows(rows))
    print()
    scheduler_rows = [
        {
            "scheduler": entry["name"],
            "counts_time": entry["counts_time"],
            "parameters": ",".join(
                param["name"] for param in entry["params"]
            ) or "-",
            "description": entry["description"],
        }
        for entry in dump["schedulers"]
    ]
    print(format_rows(scheduler_rows))
    return 0


def _command_run(args: argparse.Namespace) -> int:
    if args.spec:
        spec = ExperimentSpec.load(args.spec)
    else:
        spec = _experiment_spec(args)
    placement = spec.build_placement()
    print(f"configuration: {placement.describe()}")
    if args.render:
        print("  before:", render_positions(placement.ring_size, placement.homes))
    result, job = KINDS["experiment"].run(spec, {}, store_root=args.store)
    if args.store:
        short = job["content_hash"][:16]
        if job["cached"]:
            print(f"cache hit: archived run {short} (0 simulations executed)")
        else:
            print(f"archived run {short} to {args.store}")
    if args.render:
        print("  after :", render_positions(placement.ring_size, result.final_positions))
        print(" ", render_gaps(placement.ring_size, result.final_positions))
    print(format_rows([result.row()]))
    return 0 if result.ok else 1


def _command_spec(args: argparse.Namespace) -> int:
    spec = _experiment_spec(args)
    text = spec.to_json()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output} (content hash {spec.content_hash()[:16]})")
    else:
        print(text)
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    store = None
    if args.store:
        from repro.store import RunStore

        store = RunStore(args.store)
    results = table1_sweep(
        args.algorithm, args.grid, seed=args.seed, trials=args.trials,
        store=store, links=args.links,
    )
    print(format_rows([result.row() for result in results]))
    ns = sorted({result.placement.ring_size for result in results})
    if len(ns) >= 2:
        from repro.analysis.chart import scaling_chart

        by_n = {
            n: [r for r in results if r.placement.ring_size == n][0] for n in ns
        }
        print()
        print(
            scaling_chart(
                ns,
                [by_n[n].total_moves for n in ns],
                x_name="n",
                y_name="total moves",
            )
        )
        times = [by_n[n].ideal_time for n in ns]
        if all(times):
            print()
            print(scaling_chart(ns, times, x_name="n", y_name="ideal time"))
    return 0 if all(result.ok for result in results) else 1


def _sweep_spec(args: argparse.Namespace, **extra):
    """The SweepSpec that psweep/campaign grid flags denote."""
    from repro.experiments.sweep import SweepSpec

    return SweepSpec(
        algorithms=tuple(
            name.strip() for name in args.algorithms.split(",") if name.strip()
        ),
        grid=tuple(args.grid),
        schedulers=tuple(_parse_scheduler_list(args.schedulers)),
        trials=args.trials,
        base_seed=args.seed,
        **extra,
    )


def _command_psweep(args: argparse.Namespace) -> int:
    from repro.experiments.sweep import rows_to_json, summarize_rows

    _require_positive_workers(args.jobs, "--jobs")
    if args.validate_backend and args.backend != "batch":
        raise ReproError(
            "--validate-backend cross-checks the batch backend against the "
            "object engine and therefore requires --backend batch"
        )
    if args.resume is not None and not args.store:
        raise ReproError(
            "--resume/--no-resume controls how archived cells are reused "
            "and therefore requires --store DIR"
        )
    resume = True if args.resume is None else args.resume
    spec = _sweep_spec(args, links=args.links)
    options = {"processes": args.jobs, "resume": resume, "backend": args.backend}
    try:
        outcome, _ = KINDS["sweep"].run(
            spec, options, store_root=args.store,
            validate_backend=args.validate_backend,
        )
    except CampaignInterrupted as interrupt:
        # Graceful degradation: everything completed before the ^C is
        # already flushed (and archived when --store was given) — report
        # the partial accounting and how to pick the sweep back up.
        partial = interrupt.outcome
        print(f"\ninterrupted: {interrupt}")
        if partial is not None:
            print(
                f"progress: {len(partial.rows)}/{partial.total} cells done "
                f"({partial.executed} executed, {partial.cached} cached)"
            )
        if interrupt.resume_hint:
            print(f"resume: {interrupt.resume_hint}")
        return 130
    rows = outcome.rows
    print(f"{len(rows)} cells "
          f"({len(spec.algorithms)} algorithms x {len(spec.grid)} sizes x "
          f"{len(spec.schedulers)} schedulers x {spec.trials} trials)")
    if args.store:
        from repro.store import RunStore

        print(
            f"store: {outcome.executed} executed, {outcome.cached} cached "
            f"({args.store}, {len(RunStore(args.store))} records)"
        )
    print(format_rows(summarize_rows(rows) if args.summary else rows))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(rows_to_json(spec, rows) + "\n")
        print(f"wrote {args.json}")
    return 0 if all(row["uniform"] for row in rows) else 1


def _command_symmetry(args: argparse.Namespace) -> int:
    results = symmetry_sweep(
        args.n, args.k, args.degrees, algorithm=args.algorithm, seed=args.seed
    )
    print(format_rows([result.row() for result in results]))
    if len(args.degrees) >= 2:
        from repro.analysis.complexity import loglog_slope

        slope = loglog_slope(args.degrees, [result.total_moves for result in results])
        print(f"\nlog-log slope of moves vs l: {slope:.2f} (Theorem 6 predicts ~ -1)")
    return 0 if all(result.ok for result in results) else 1


def _command_impossibility(args: argparse.Namespace) -> int:
    base = placement_from_distances(tuple(args.distances))
    outcome = demonstrate_impossibility(base, algorithm=args.algorithm)
    print(
        f"base ring R: n={outcome.base.ring_size} k={outcome.base.agent_count} "
        f"d={outcome.base_gap}; solving execution T={outcome.rounds_in_base} rounds"
    )
    print(
        f"expanded R': n={outcome.expanded.ring_size} "
        f"k={outcome.expanded.agent_count} (q={outcome.q}), "
        f"required gap 2d={outcome.expanded_gap}"
    )
    print(f"deceived halting positions: {outcome.final_positions}")
    print(f"gaps inside the repeated window: {outcome.observed_prefix_gaps}")
    print(f"uniform on R'? {outcome.report.ok}  (the theorem predicts False)")
    return 0 if outcome.failed_as_predicted else 1


def _command_compare(args: argparse.Namespace) -> int:
    from repro.experiments.comparison import compare_algorithms

    if args.distances:
        placement = placement_from_distances(tuple(args.distances))
    else:
        placement = random_placement(args.n, args.k, random.Random(args.seed))
    print(f"configuration: {placement.describe()}")
    comparison = compare_algorithms(placement)
    print(format_rows(comparison.rows()))
    print(f"\nomniscient optimum: {comparison.optimal_moves} moves")
    print(f"fewest moves : {comparison.winner('moves')}")
    print(f"least memory : {comparison.winner('memory_bits')}")
    print(f"fastest      : {comparison.winner('ideal_time')}")
    return 0 if comparison.all_uniform else 1


def _command_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_report

    store = None
    if args.store:
        from repro.store import RunStore

        store = RunStore(args.store)
    text = generate_report(profile_name=args.profile, seed=args.seed, store=store)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _command_timeline(args: argparse.Namespace) -> int:
    from repro.analysis.timeline import record_timeline
    from repro.experiments.runner import build_engine

    if args.distances:
        placement = placement_from_distances(tuple(args.distances))
    else:
        placement = random_placement(args.n, args.k, random.Random(args.seed))
    print(f"configuration: {placement.describe()}")
    print("legend: digit/letter = staying agent, + = queued, - = token, . = empty")
    engine = build_engine(args.algorithm, placement)
    timeline = record_timeline(engine, sample_every=max(1, args.sample_every))
    print(timeline.render(limit=args.limit))
    return 0


def _command_mc(args: argparse.Namespace) -> int:
    from repro.mc import all_placements, check_frontier, check_placements_pool

    if args.jobs < 1:
        raise ReproError(f"--jobs must be >= 1, got {args.jobs}")
    if args.resume and not args.store:
        raise ReproError("--resume needs --store (nothing spilled to resume from)")
    por = not args.no_por
    links = args.links
    if args.spec:
        experiment = ExperimentSpec.load(args.spec)
        algorithm = experiment.algorithm
        placements = [experiment.build_placement()]
        links = experiment.links  # the spec's fault model, not the flag's
        scope = f"1 configuration from spec {args.spec}"
    elif args.distances:
        algorithm = args.algorithm
        placements = [placement_from_distances(tuple(args.distances))]
        scope = "1 explicit configuration"
    else:
        algorithm = args.algorithm
        if not 1 <= args.k <= args.n:
            raise ReproError(
                f"k must be in [1, n]: got k={args.k}, n={args.n}"
            )
        placements = list(all_placements(args.n, args.k))
        scope = (
            f"all {len(placements)} rotation-distinct placements "
            "(one home fixed at node 0)"
        )
    get_algorithm(algorithm)  # fail fast with the registry's error message
    n = placements[0].ring_size
    k = placements[0].agent_count
    progress = None
    if args.progress and not args.json:
        progress = lambda stats: print(  # noqa: E731 - tiny local callback
            f"  ... {stats.describe()}", file=sys.stderr
        )
    if links is not None and not links.active:
        links = None
    if links is not None:
        por = False  # the reduction is unsound under faults (repro.mc.por)
    limits = {
        "depth_limit": args.depth_limit,
        "max_states": args.max_states,
        "stop_at_first": not args.keep_going,
        "por": por,
        "links": links,
    }
    if not args.json:
        faulty = f" under link faults ({links.describe()})" if links else ""
        print(f"model checking {algorithm} on n={n} k={k}: {scope}{faulty}")
    if args.jobs > 1 and len(placements) > 1 and args.store is None:
        if progress is not None:
            print(
                "note: --progress is a per-search view; with --jobs > 1 the "
                "placements run in separate processes, so it is not shown",
                file=sys.stderr,
            )
        results = check_placements_pool(
            algorithm, placements, jobs=args.jobs, **limits
        )
    else:
        # One breadth-first search per placement: parallel waves with
        # --jobs > 1, and a resumable journal per placement with --store.
        results = [
            check_frontier(
                algorithm, placement, jobs=args.jobs, store_root=args.store,
                resume=args.resume, progress=progress, **limits,
            )
            for placement in placements
        ]

    violations = [v for result in results for v in result.violations]
    complete = all(result.complete for result in results)
    if args.json:
        document = {
            "algorithm": algorithm,
            "n": n,
            "k": k,
            "por": por,
            "jobs": args.jobs,
            "ok": all(result.ok for result in results),
            "complete": complete,
            "totals": {
                "placements": len(results),
                "states": sum(r.explored for r in results),
                "transitions": sum(r.transitions for r in results),
                "deduped": sum(r.deduped for r in results),
                "por_skipped": sum(r.por_skipped for r in results),
                "terminals": sum(r.terminals for r in results),
                "max_depth": max(r.max_depth for r in results),
                "memo_bytes": sum(r.memo_bytes for r in results),
            },
            "results": [result.to_dict() for result in results],
        }
        print(json.dumps(document, indent=2, sort_keys=True))
        return 1 if (violations or not complete) else 0

    rows = []
    for placement, result in zip(placements, results):
        rows.append(
            {
                "D": "-".join(str(d) for d in placement.distances),
                "states": result.explored,
                "transitions": result.transitions,
                "deduped": result.deduped,
                "por_skipped": result.por_skipped,
                "terminal": result.terminals,
                "max_depth": result.max_depth,
                "exhausted": result.complete,
                "violations": len(result.violations),
            }
        )
    print(format_rows(rows))
    total_states = sum(row["states"] for row in rows)
    total_transitions = sum(row["transitions"] for row in rows)
    total_deduped = sum(row["deduped"] for row in rows)
    total_skipped = sum(row["por_skipped"] for row in rows)
    print(
        f"\ntotal: {total_states} states, {total_transitions} transitions, "
        f"{total_deduped} deduped, {total_skipped} por-skipped "
        f"across {len(rows)} configurations"
    )
    if violations:
        print(f"\n{len(violations)} VIOLATION(S):")
        for violation in violations:
            print(f"  {violation.describe()}")
            print(f"  replay: {violation.replay_line()}")
        return 1
    if not complete:
        print("\nsearch truncated (depth/state limit hit): bounded check only")
        return 1
    print(
        "\nno violations: every fair schedule of every checked configuration "
        f"deploys uniformly (exhaustive at n={n}, k={k})"
    )
    return 0


def _command_fuzz(args: argparse.Namespace) -> int:
    from repro.analysis.fuzzing import coverage_growth_rows, describe_growth
    from repro.fuzz import FuzzSpec

    _require_positive_workers(args.jobs, "--jobs")
    if args.spec:
        spec = FuzzSpec.load(args.spec)
    else:
        if args.distances:
            placement = PlacementSpec(
                kind="distances", distances=tuple(args.distances)
            )
            placements = 1
        else:
            placement = PlacementSpec(
                kind="random", ring_size=args.n, agent_count=args.k,
                seed=args.seed,
            )
            placements = args.placements
        spec = FuzzSpec(
            algorithm=args.algorithm,
            placement=placement,
            budget=args.budget,
            max_steps=args.max_steps,
            seed=args.seed,
            placements=placements,
            corpus_size=args.corpus,
            links=args.links,
        )
    print(
        f"fuzzing {spec.algorithm} ({spec.placements} placement(s), "
        f"budget {spec.budget} runs, campaign {spec.content_hash()[:16]})"
    )
    if args.jobs > 1 and args.progress:
        print(
            "note: --progress and the coverage-growth table are "
            "per-campaign views; with --jobs > 1 the budget is "
            "sharded into independent campaigns, so neither is shown",
            file=sys.stderr,
        )
    options = {"jobs": args.jobs, "keep_going": args.keep_going,
               "shrink": not args.no_shrink}
    try:
        outcome, _ = KINDS["fuzz"].run(
            spec, options, store_root=args.store,
            progress=_print_fuzz_progress if args.progress else None,
        )
    except CampaignInterrupted as interrupt:
        print(f"\ninterrupted: {interrupt}")
        partial = interrupt.outcome
        if partial is not None:
            print(f"progress: {partial.describe()}")
            _print_archived(args.store, partial.failures)
        if interrupt.resume_hint:
            print(f"resume: {interrupt.resume_hint}")
        return 130
    print(outcome.describe())
    if outcome.history:
        print()
        print(format_rows(coverage_growth_rows(outcome.history)))
        print()
        print(describe_growth(outcome.history))
    if args.json:
        payload = {
            "spec": spec.to_dict(),
            "runs": outcome.runs,
            "steps": outcome.steps,
            "states": outcome.states,
            "patterns": outcome.patterns,
            "corpus_size": outcome.corpus_size,
            "complete": outcome.complete,
            "history": list(outcome.history),
            "failures": [failure.to_dict() for failure in outcome.failures],
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")
    _print_archived(args.store, outcome.failures)
    if outcome.failures:
        print(f"\n{len(outcome.failures)} FAILURE(S):")
        for failure in outcome.failures:
            print(f"  {failure.describe()}")
            print(f"  replay: {failure.replay_line()}")
        return 1
    print(
        "\nno violations: every fuzzed schedule deployed uniformly "
        f"({outcome.runs} runs, {outcome.steps} atomic actions)"
    )
    return 0


def _print_fuzz_progress(update) -> None:
    if "coverage" in update:  # the final counters are not printed
        print(
            f"  ... run {update['runs']}/{update['budget']}: "
            f"{update['coverage']}",
            file=sys.stderr,
        )


def _print_archived(store: Optional[str], failures) -> None:
    """One line per failure the fuzz body archived under ``store``."""
    if store:
        for failure in failures:
            path = Path(store, "failures", f"{failure.content_hash}.json")
            print(f"archived failure {failure.content_hash[:16]} -> {path}")


def _print_campaign_event(update) -> None:
    if "last_event" in update:  # the final counters are not printed
        print(f"  {update['last_event']}")


def _command_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignSpec, parse_chaos_spec

    _require_positive_workers(args.workers, "--workers")
    _require_positive_workers(args.shards, "--shards")
    fleet = {
        "workers": args.workers,
        "lease_ttl": args.lease_ttl,
        "unit_timeout": args.unit_timeout,
        "max_retries": args.max_retries,
        "backoff_base": args.backoff_base,
    }
    if args.spec:
        spec = CampaignSpec.load(args.spec)
    elif args.fuzz_spec:
        from repro.fuzz import FuzzSpec

        spec = CampaignSpec(
            kind="fuzz", fuzz=FuzzSpec.load(args.fuzz_spec),
            shards=args.shards, **fleet,
        )
    else:
        sweep = _sweep_spec(args, max_steps=args.max_steps)
        spec = CampaignSpec(kind="sweep", sweep=sweep, **fleet)
    chaos = parse_chaos_spec(args.chaos) if args.chaos else None
    print(f"campaign {spec.content_hash()[:16]}: {spec.describe()}")
    if chaos:
        print(f"fault injection: {chaos.describe()}")
    outcome, _ = KINDS["campaign"].run(
        spec,
        {"resume": args.resume},
        store_root=args.store,
        progress=_print_campaign_event,
        chaos=chaos,
        install_signal_handlers=True,
    )
    print(outcome.describe())
    for report in outcome.quarantined:
        print(
            f"quarantined {report['unit'][:16]} after {report['attempts']} "
            f"attempt(s) (last cause: {report['last_cause']}); artifact in "
            f"{args.store}/quarantine/"
        )
    if outcome.failures:
        print(f"{len(outcome.failures)} fuzz failure(s) archived in "
              f"{args.store}/failures/")
    if outcome.interrupted:
        print(f"interrupted; resume with: {outcome.resume_command}")
    return outcome.exit_code


def _command_query(args: argparse.Namespace) -> int:
    from repro.store import RunStore

    store = RunStore(args.store, create=False)
    if args.compact:
        before = store.digest()
        reclaimed = store.compact()
        after = store.digest()
        if after != before:
            # compact() preserves winners byte for byte, so this can
            # only mean concurrent writers or on-disk corruption.
            print(
                f"error: digest changed across compaction "
                f"({before[:16]} -> {after[:16]}); "
                f"was a writer live?", file=sys.stderr,
            )
            return 1
        print(
            f"compacted {args.store}: reclaimed {reclaimed} bytes, "
            f"{len(store)} records kept (digest {after[:16]} unchanged)"
        )
        return 0
    if args.digest:
        # The logical content digest: stable across shard layout, write
        # order and timestamps, so CI can assert two stores archived
        # identical runs with a one-line comparison.
        print(store.digest())
        return 0
    if args.failures or args.quarantine:
        # Artifact discovery without globbing the store directory: the
        # same listing the service serves at /v1/failures|/v1/quarantine.
        archive = store.quarantine if args.quarantine else store.failures
        if args.json:
            print(json.dumps(archive.list(), indent=2))
            return 0
        for content_hash, payload in archive:
            kind = payload.get("kind", payload.get("reason", "?"))
            print(f"{content_hash[:16]}  {kind}")
        print(f"\n{archive.describe()}")
        return 0
    if args.limit is not None and args.limit < 1:
        raise ReproError(f"--limit must be >= 1, got {args.limit}")
    if args.offset < 0:
        raise ReproError(f"--offset must be >= 0, got {args.offset}")
    total = store.count(
        algorithm=args.algorithm,
        scheduler=args.scheduler,
        ring_size=args.n,
        agent_count=args.k,
        uniform=False if args.failed else None,
        hash_prefix=args.hash,
    )
    # Matches come back in content-hash order — stable across shard
    # layouts and invocations, which is what makes --limit/--offset
    # real pagination.  (Before pagination existed, output order was
    # shard-scan order, i.e. dependent on which pid wrote which cell.)
    records = list(
        store.query(
            algorithm=args.algorithm,
            scheduler=args.scheduler,
            ring_size=args.n,
            agent_count=args.k,
            uniform=False if args.failed else None,
            hash_prefix=args.hash,
            limit=args.limit,
            offset=args.offset,
        )
    )
    if args.hash and total > 1:
        # An abbreviated hash is a *prefix*, like git's short object
        # names: when it (together with the other filters) matches
        # several records, say so and list every match rather than
        # silently picking one.  The note goes to stderr so --json
        # output stays machine-readable.
        print(
            f"hash prefix {args.hash!r} is ambiguous: {total} "
            "archived runs match; listing all of them",
            file=sys.stderr if args.json else sys.stdout,
        )
    if args.json:
        print(json.dumps([record.to_dict() for record in records], indent=2))
        return 0
    rows = []
    for record in records:
        # One row schema everywhere: RunResult.row() shapes the metrics;
        # query only prefixes the content hash and swaps the scheduler
        # description for the producing spec's canonical string.
        row = {"hash": record.content_hash[:16]}
        row.update(record.to_run_result().row())
        spec = record.spec or {}
        row["scheduler"] = (spec.get("scheduler") or {}).get(
            "spec", row["scheduler"]
        )
        rows.append(row)
    print(format_rows(rows))
    if args.limit is not None or args.offset:
        print(
            f"\npage: {len(rows)} of {total} matched runs "
            f"(offset {args.offset}, {len(store)} archived)"
        )
    else:
        print(f"\n{len(rows)} of {len(store)} archived runs matched")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.serve import serve_forever

    _require_positive_workers(args.workers, "--workers")
    return serve_forever(
        args.store,
        host=args.host,
        port=args.port,
        workers=args.workers,
        quiet=args.quiet,
    )


def _command_submit(args: argparse.Namespace) -> int:
    from repro.serve import ServeClient

    with open(args.spec, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    options = {}
    if args.processes is not None:
        if "processes" not in KINDS[args.kind].options:
            raise ReproError(
                f"--processes sets the 'processes' option, which {args.kind} "
                f"jobs do not take"
            )
        _require_positive_workers(args.processes, "--processes")
        options["processes"] = args.processes
    client = ServeClient(args.url)
    job = client.submit(args.kind, spec, options)
    if not args.wait:
        if args.json:
            print(json.dumps(job, indent=2))
        else:
            print(f"submitted {job['id']} ({job['kind']} "
                  f"{job['spec_hash'][:16]}, state {job['state']})")
        return 0

    last = {"line": None}

    def on_progress(polled) -> None:
        progress = polled.get("progress") or {}
        line = ", ".join(f"{k}={v}" for k, v in progress.items())
        if line and line != last["line"] and not args.json:
            print(f"  ... {line}", file=sys.stderr)
            last["line"] = line

    job = client.wait(
        job["id"], poll=args.poll, timeout=args.timeout,
        on_progress=on_progress,
    )
    if args.json:
        print(json.dumps(job, indent=2))
    elif job["state"] == "completed":
        result = job.get("result") or {}
        summary = result.get("summary") or json.dumps(result)
        print(f"{job['id']} completed: {summary}")
    else:
        print(f"{job['id']} failed: {job.get('error')}")
    return 0 if job["state"] == "completed" else 1


def _command_jobs(args: argparse.Namespace) -> int:
    from repro.serve import ServeClient

    client = ServeClient(args.url)
    if args.job_id:
        job = client.job(args.job_id)
        if args.json:
            print(json.dumps(job, indent=2))
            return 0
        print(f"{job['id']}: {job['kind']} {job['spec_hash'][:16]} "
              f"[{job['state']}]")
        progress = job.get("progress") or {}
        if progress:
            print("  progress: "
                  + ", ".join(f"{k}={v}" for k, v in progress.items()))
        if job.get("error"):
            print(f"  error: {job['error']}")
        result = job.get("result") or {}
        if result.get("summary"):
            print(f"  result: {result['summary']}")
        return 0
    listing = client.jobs()
    if args.json:
        print(json.dumps(listing, indent=2))
        return 0
    jobs = listing.get("jobs") or []
    if not jobs:
        print("no jobs")
        return 0
    rows = [
        {
            "id": job["id"],
            "kind": job["kind"],
            "spec": job["spec_hash"][:16],
            "state": job["state"],
        }
        for job in jobs
    ]
    print(format_rows(rows))
    return 0


def _command_lower_bound(args: argparse.Namespace) -> int:
    rows = []
    for row in quarter_sweep(args.sizes):
        entry = {
            "n": row.ring_size,
            "k": row.agent_count,
            "kn/16": row.quarter_floor,
            "optimal": row.optimal_moves,
        }
        for algorithm, moves in sorted(row.algorithm_moves.items()):
            entry[algorithm] = moves
        rows.append(entry)
    print(format_rows(rows))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code (0 ok, 1 fail, 2 error)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "list": _command_list,
        "run": _command_run,
        "spec": _command_spec,
        "query": _command_query,
        "sweep": _command_sweep,
        "psweep": _command_psweep,
        "symmetry": _command_symmetry,
        "impossibility": _command_impossibility,
        "lower-bound": _command_lower_bound,
        "timeline": _command_timeline,
        "mc": _command_mc,
        "fuzz": _command_fuzz,
        "campaign": _command_campaign,
        "compare": _command_compare,
        "report": _command_report,
        "serve": _command_serve,
        "submit": _command_submit,
        "jobs": _command_jobs,
    }
    handler = handlers.get(args.command)
    if handler is None:
        parser.error(f"unhandled command {args.command!r}")
    try:
        return handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
