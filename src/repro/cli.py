"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``list``          — registered algorithms and schedulers (Table 1 rows;
  ``--json`` emits the machine-readable registry dump),
* ``run``           — one experiment on a random or explicit placement
  (``--spec file.json`` runs a serialized experiment spec instead),
* ``spec``          — emit the :class:`repro.spec.ExperimentSpec` JSON a
  ``run`` command line denotes (pipe it to a file, run it anywhere),
* ``psweep``        — Table 1 grids: full (algorithm, n, k, scheduler,
  trial) grids fanned across a process pool with deterministic per-cell
  seeds (``--summary`` aggregates trials and charts moves and ideal time
  against n with log-log slopes; ``--store DIR`` archives every cell as
  it completes and ``--resume`` skips cells already archived — a killed
  sweep picks up where it left off),
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
  (``--store DIR`` renders archived runs without re-executing),
* ``serve``         — the run store behind a versioned HTTP API that
  also executes submitted jobs; ``submit`` and ``jobs`` are its client.

The job commands (``psweep``, ``fuzz``, ``campaign`` and ``submit``)
take their option flags from the declarations in
:data:`repro.jobs.KINDS`, and every flag that sets a spec field takes
its default from the spec dataclass, so each option and default is
written once.

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
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.render import render_gaps, render_positions
from repro.campaign import CampaignSpec
from repro.errors import CampaignInterrupted, ReproError
from repro.experiments.impossibility import demonstrate_impossibility
from repro.experiments.lower_bound import quarter_sweep
from repro.experiments.sweep import SweepSpec
from repro.experiments.table1 import format_rows, symmetry_sweep
from repro.fuzz import FuzzSpec
from repro.jobs import KINDS, Option
from repro.registry import algorithm_names, get_algorithm, registry_dump
from repro.ring.placement import placement_from_distances
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


def _parse_scheduler_list(text: str) -> List[str]:
    """Split a CLI scheduler list into individual spec strings.

    Parameterised specs contain commas (``laggard:victims=0,patience=5``),
    so ``;`` separates entries whenever a spec string appears; the plain
    legacy form (``sync,random,chaos``) still splits on commas.
    """
    separator = ";" if (";" in text or ":" in text) else ","
    return [part.strip() for part in text.split(separator) if part.strip()]


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _counted(parser: argparse.ArgumentParser, action: argparse.Action):
    """Mark ``action`` a process or worker count: :func:`main` rejects a
    given value below 1 before the command runs."""
    parser.set_defaults(counts=(*(parser.get_default("counts") or ()), action))
    return action


def _add_field(
    parser: argparse.ArgumentParser, spec_class: type, field: str,
    flag: Optional[str] = None, **kwargs,
) -> argparse.Action:
    """A flag that sets ``spec_class.field``, with the field's default."""
    (default,) = [
        entry.default for entry in dataclasses.fields(spec_class)
        if entry.name == field
    ]
    kwargs.setdefault("type", type(default))
    return parser.add_argument(flag or _flag(field), default=default, **kwargs)


#: The help of each job option's flag, by option name.
_OPTION_HELP = {
    "processes": (
        "sweep worker processes (default 1, psweep's the CPU count; 1 "
        "disables the pool)"
    ),
    "resume": (
        "skip work whose spec hash is already archived (the default; "
        "--no-resume recomputes everything); psweep needs --store for either"
    ),
    "backend": (
        "sweep execution backend (default object): 'batch' runs the "
        "known_k_full/known_n_full cells under sync as one vectorized numpy "
        "batch per cell (byte-identical rows); every other cell runs on "
        "'object'"
    ),
    "jobs": "fuzz worker processes (default 1); the budget is sharded across them",
    "keep_going": (
        "spend the whole fuzz budget instead of stopping at the first failure"
    ),
    "shrink": (
        "delta-debug each fuzz violation to a minimal schedule (the default; "
        "--no-shrink archives the raw violating schedule)"
    ),
}


def _add_option(
    parser: argparse.ArgumentParser, name: str, option: Option,
    flag: Optional[str] = None,
) -> None:
    """The flag of job option ``name``.  It defaults to ``None``, "not
    given", so the kind's declared default applies (see
    :func:`_job_options`)."""
    if option.type is bool:
        kwargs = {"action": argparse.BooleanOptionalAction}
    else:
        kwargs = {"type": option.type, "choices": option.choices or None,
                  "metavar": "N" if option.type is int else None}
    action = parser.add_argument(
        flag or _flag(name), dest=name, default=None,
        help=_OPTION_HELP[name], **kwargs,
    )
    if option.workers:
        _counted(parser, action)


def _add_options(
    parser: argparse.ArgumentParser, kind: str, **flags: str
) -> None:
    """One flag per option of job kind ``kind``; ``flags`` respells some."""
    for name, option in KINDS[kind].options.items():
        _add_option(parser, name, option, flags.get(name))


def _submit_options() -> Dict[str, Option]:
    """Every job option of every kind."""
    return {
        name: option for kind in KINDS.values()
        for name, option in kind.options.items()
    }


def _given(args: argparse.Namespace, names) -> Dict[str, object]:
    """The options among ``names`` that the command line gave."""
    return {
        name: getattr(args, name) for name in names
        if getattr(args, name) is not None
    }


def _job_options(
    args: argparse.Namespace, kind: str, **defaults: object
) -> Dict[str, object]:
    """The options of ``kind`` that the command line gave, completed
    with ``defaults`` and then the declared ones."""
    given = _given(args, KINDS[kind].options)
    return KINDS[kind].check_options({**defaults, **given})


def _add_links(parser: argparse.ArgumentParser, spec_class: type) -> None:
    _add_field(
        parser, spec_class, "links", type=_parse_links, metavar="SPEC",
        help=(
            "link-fault model, e.g. delay=2,loss=1,dup=1,seed=7: each forward "
            "move may be delayed up to `delay` link ticks, at most `loss` "
            "agents dropped and `dup` duplicated in total (deterministic "
            "draws from `seed`; omit for reliable links)"
        ),
    )


def _placement_spec(args: argparse.Namespace) -> PlacementSpec:
    """The placement a run-style command line denotes."""
    if args.distances:
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
        max_steps=args.max_steps,
        links=args.links,
    )


def _add_placement_arguments(
    parser: argparse.ArgumentParser, n: int, k: int, *, seed: bool = True,
    distances: str = "explicit distance sequence (overrides --n/--k/--seed)",
) -> None:
    """The flags :func:`_placement_spec` reads (``--seed`` may come later)."""
    parser.add_argument("--n", type=int, default=n, help="ring size")
    parser.add_argument("--k", type=int, default=k, help="agent count")
    if seed:
        parser.add_argument("--seed", type=int, default=0, help="placement seed")
    parser.add_argument("--distances", type=_parse_ints, help=distances)


def _add_run_style_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared experiment-denoting flags of ``run`` and ``spec``."""
    parser.add_argument(
        "--algorithm", default="known_k_full", choices=algorithm_names()
    )
    _add_placement_arguments(parser, 60, 6)
    _add_field(
        parser, ExperimentSpec, "scheduler",
        help=(
            "scheduler spec string, e.g. sync, random:seed=7, "
            "laggard:victims=0-2,patience=5 (see `repro list --json`)"
        ),
    )
    _add_field(
        parser, ExperimentSpec, "scheduler_seed",
        help="context seed for seed parameters the spec leaves unset",
    )
    _add_field(
        parser, ExperimentSpec, "max_steps", type=int,
        help="abort the run after this many atomic actions",
    )
    _add_links(parser, ExperimentSpec)


def _add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    """The grid flags of ``psweep`` and ``campaign``: one SweepSpec each."""
    parser.add_argument(
        "--algorithms", default="known_k_full",
        help="comma-separated algorithm names (see `repro list`)",
    )
    parser.add_argument(
        "--grid", type=_parse_grid, default=[(64, 8), (128, 16), (256, 16)],
        help="comma-separated NxK pairs, e.g. 64x8,128x16",
    )
    _add_field(
        parser, SweepSpec, "schedulers", type=_parse_scheduler_list,
        help=(
            "scheduler spec strings; separate with ';' when specs carry "
            "parameters (sync;laggard:patience=5), ',' works for bare "
            "names (sync,random,chaos)"
        ),
    )
    _add_field(parser, SweepSpec, "trials")
    _add_field(parser, SweepSpec, "base_seed", "--seed", help="base seed")
    _add_field(
        parser, SweepSpec, "max_steps", type=int,
        help="per-run atomic-action cap",
    )
    _add_links(parser, SweepSpec)


def _sweep_spec(args: argparse.Namespace) -> SweepSpec:
    """The SweepSpec that psweep/campaign grid flags denote."""
    return SweepSpec(
        algorithms=tuple(
            name.strip() for name in args.algorithms.split(",") if name.strip()
        ),
        grid=tuple(args.grid),
        schedulers=tuple(args.schedulers),
        trials=args.trials,
        base_seed=args.seed,
        max_steps=args.max_steps,
        links=args.links,
    )


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

    def command(name: str, handler, **kwargs) -> argparse.ArgumentParser:
        subparser = commands.add_parser(name, **kwargs)
        subparser.set_defaults(handler=handler)
        return subparser

    list_parser = command(
        "list", _command_list, help="list registered algorithms and schedulers"
    )
    list_parser.add_argument(
        "--json", action="store_true",
        help="machine-readable dump of both registries",
    )

    run_parser = command("run", _command_run, help="run one experiment")
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

    spec_parser = command(
        "spec", _command_spec,
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

    query_parser = command(
        "query", _command_query,
        help="filter archived runs in a run store (no execution)",
        description=(
            "Search a content-addressed run store written by `run --store`, "
            "`psweep --store`, `campaign` or `report --store`.  "
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

    psweep_parser = command(
        "psweep", _command_psweep,
        help="parallel sweep over a full experiment grid (Table 1)",
    )
    _add_sweep_arguments(psweep_parser)
    _add_options(psweep_parser, "sweep", processes="--jobs")
    psweep_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the full row set as JSON for trajectory tracking",
    )
    psweep_parser.add_argument(
        "--summary", action="store_true",
        help=(
            "print the per-(algorithm,n,k,scheduler) aggregate instead of "
            "raw rows, and chart moves and ideal time against n"
        ),
    )
    psweep_parser.add_argument(
        "--store", default=None, metavar="DIR",
        help=(
            "stream completed cells into this content-addressed run store "
            "(a killed sweep resumes losslessly from it)"
        ),
    )
    psweep_parser.add_argument(
        "--validate-backend", action="store_true",
        help=(
            "with --backend batch: re-run a deterministic sample of every "
            "batch on the object engine and fail loudly on any divergence"
        ),
    )

    symmetry_parser = command(
        "symmetry", _command_symmetry,
        help="Result 4 adaptivity sweep over symmetry degrees",
    )
    symmetry_parser.add_argument("--n", type=int, default=240)
    symmetry_parser.add_argument("--k", type=int, default=16)
    symmetry_parser.add_argument("--degrees", type=_parse_ints, default=[1, 2, 4, 8])
    symmetry_parser.add_argument(
        "--algorithm", default="unknown", choices=algorithm_names()
    )
    symmetry_parser.add_argument("--seed", type=int, default=0)

    impossibility_parser = command(
        "impossibility", _command_impossibility,
        help="Theorem 5 / Figure 7 construction",
    )
    impossibility_parser.add_argument(
        "--distances", type=_parse_ints, default=[5, 7, 4, 8],
        help="base-ring distance sequence (n must be a multiple of k)",
    )
    impossibility_parser.add_argument(
        "--algorithm", default="known_k_full",
        choices=["known_k_full", "known_k_logspace"],
    )

    bound_parser = command(
        "lower-bound", _command_lower_bound,
        help="Theorem 1 quarter-packed comparison",
    )
    bound_parser.add_argument(
        "--sizes", type=_parse_grid, default=[(64, 8), (128, 16)]
    )

    compare_parser = command(
        "compare", _command_compare,
        help="all algorithms head-to-head on one placement",
    )
    _add_placement_arguments(compare_parser, 60, 6)

    report_parser = command(
        "report", _command_report,
        help="re-run the experiment suite, emit a markdown report",
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

    timeline_parser = command(
        "timeline", _command_timeline,
        help="ASCII space-time diagram of one run",
    )
    timeline_parser.add_argument(
        "--algorithm", default="known_k_full", choices=algorithm_names()
    )
    _add_placement_arguments(timeline_parser, 16, 4)
    timeline_parser.add_argument("--sample-every", type=int, default=1)
    timeline_parser.add_argument("--limit", type=int, default=60)

    mc_parser = command(
        "mc", _command_mc,
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
    _add_placement_arguments(
        mc_parser, 6, 2, seed=False,
        distances="check one explicit configuration instead of all placements",
    )
    mc_parser.add_argument(
        "--spec", default=None, metavar="PATH",
        help=(
            "check the algorithm and placement of a serialized "
            "ExperimentSpec (scheduler/engine options are irrelevant to "
            "an exhaustive search and are ignored)"
        ),
    )
    _add_links(mc_parser, ExperimentSpec)
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
    _counted(mc_parser, mc_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help=(
            "placements of a grid fan across a pool of N processes, with "
            "or without --store (one journal per placement); one search "
            "always runs in one process (same results as --jobs 1)"
        ),
    ))
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

    fuzz_parser = command(
        "fuzz", _command_fuzz,
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
    _add_placement_arguments(
        fuzz_parser, 16, 4, seed=False,
        distances="fuzz one explicit configuration instead of random placements",
    )
    _add_field(fuzz_parser, FuzzSpec, "seed", help="campaign seed")
    _add_links(fuzz_parser, FuzzSpec)
    _add_field(
        fuzz_parser, FuzzSpec, "budget",
        help="total schedule executions (adversary seed runs included)",
    )
    _add_field(
        fuzz_parser, FuzzSpec, "max_steps", type=int,
        help="per-run atomic-action cap (default: derived from n and k)",
    )
    _add_field(
        fuzz_parser, FuzzSpec, "placements",
        help="distinct random placements to fuzz (ignored with --distances)",
    )
    _add_field(
        fuzz_parser, FuzzSpec, "corpus_size", "--corpus",
        help="max retained coverage-novel schedule prefixes",
    )
    _add_options(fuzz_parser, "fuzz")
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
        "--progress", action="store_true",
        help=(
            "print per-run coverage counters to stderr while fuzzing "
            "(single-job campaigns only)"
        ),
    )

    campaign_parser = command(
        "campaign", _command_campaign,
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
    _add_sweep_arguments(campaign_parser)
    _counted(campaign_parser, _add_field(
        campaign_parser, CampaignSpec, "workers",
        help="worker processes in the fleet (dead ones are replaced)",
    ))
    _add_field(
        campaign_parser, CampaignSpec, "lease_ttl", metavar="SECONDS",
        help="lease expires after this much heartbeat silence",
    )
    _add_field(
        campaign_parser, CampaignSpec, "unit_timeout", metavar="SECONDS",
        help=(
            "hard per-unit wall-clock budget; heartbeats cannot extend it "
            "(catches workers that stall without crashing)"
        ),
    )
    _add_field(
        campaign_parser, CampaignSpec, "max_retries",
        help="re-issues per unit before it is quarantined",
    )
    _add_field(
        campaign_parser, CampaignSpec, "backoff_base", metavar="SECONDS",
        help="base of the exponential re-issue backoff (with jitter)",
    )
    _counted(campaign_parser, _add_field(
        campaign_parser, CampaignSpec, "shards",
        help="fuzz campaign: independent shards the budget is split into",
    ))
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
    _add_options(campaign_parser, "campaign")

    serve_parser = command(
        "serve", _command_serve,
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
    _counted(serve_parser, serve_parser.add_argument(
        "--workers", type=int, default=2,
        help="job-executor threads draining the submission queue",
    ))
    serve_parser.add_argument(
        "--quiet", action="store_true", help="suppress per-request log lines"
    )

    submit_parser = command(
        "submit", _command_submit,
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
    for name, option in _submit_options().items():
        _add_option(submit_parser, name, option)
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

    jobs_parser = command(
        "jobs", _command_jobs,
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


def _command_psweep(args: argparse.Namespace) -> int:
    from repro.experiments.sweep import rows_to_json, summarize_rows

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
    spec = _sweep_spec(args)
    options = _job_options(args, "sweep", processes=os.cpu_count() or 1)
    try:
        outcome, result = KINDS["sweep"].run(
            spec, options, store_root=args.store,
            validate_backend=args.validate_backend,
        )
    except CampaignInterrupted as interrupt:
        return _report_interrupt(interrupt, lambda partial: (
            f"{len(partial.rows)}/{partial.total} cells done "
            f"({partial.executed} executed, {partial.cached} cached)"
        ))
    rows = outcome.rows
    print(f"{len(rows)} cells "
          f"({len(spec.algorithms)} algorithms x {len(spec.grid)} sizes x "
          f"{len(spec.schedulers)} schedulers x {spec.trials} trials)")
    if args.store:
        print(
            f"store: {outcome.executed} executed, {outcome.cached} cached "
            f"({args.store}, {result['records']} records)"
        )
    if args.summary:
        summary = summarize_rows(rows)
        print(format_rows(summary))
        _print_scaling_charts(summary)
    else:
        print(format_rows(rows))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(rows_to_json(spec, rows) + "\n")
        print(f"wrote {args.json}")
    return 0 if all(row["uniform"] for row in rows) else 1


def _print_scaling_charts(summary: Sequence[Dict[str, object]]) -> None:
    """Moves, and ideal time where every size has one, against n: one
    chart pair per (algorithm, k, scheduler) series of >= 2 sizes."""
    from repro.analysis.chart import scaling_chart

    series: Dict[Tuple[object, ...], List[Dict[str, object]]] = {}
    for entry in summary:
        key = (entry["algorithm"], entry["k"], entry["scheduler"])
        series.setdefault(key, []).append(entry)
    for (algorithm, k, scheduler), entries in series.items():
        if len(entries) < 2:
            continue
        entries.sort(key=lambda entry: entry["n"])
        ns = [entry["n"] for entry in entries]
        for column, name in (("mean_moves", "total moves"),
                             ("mean_ideal_time", "ideal time")):
            values = [entry[column] for entry in entries]
            if all(values):
                print(f"\n{algorithm} k={k} {scheduler}:")
                print(scaling_chart(ns, values, x_name="n", y_name=name))


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

    placement = _placement_spec(args).build()
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

    placement = _placement_spec(args).build()
    print(f"configuration: {placement.describe()}")
    print("legend: digit/letter = staying agent, + = queued, - = token, . = empty")
    engine = build_engine(args.algorithm, placement)
    timeline = record_timeline(engine, sample_every=max(1, args.sample_every))
    print(timeline.render(limit=args.limit))
    return 0


def _command_mc(args: argparse.Namespace) -> int:
    from repro.executor import in_process
    from repro.mc import SearchStats, all_placements, check_placements

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
        progress = lambda update: print(  # noqa: E731 - tiny local callback
            f"  ... {SearchStats(**update).describe()}", file=sys.stderr
        )
    if links is not None and not links.active:
        links = None
    if links is not None:
        por = False  # the reduction is unsound under faults (repro.mc.por)
    if not args.json:
        faulty = f" under link faults ({links.describe()})" if links else ""
        print(f"model checking {algorithm} on n={n} k={k}: {scope}{faulty}")
    if progress is not None and not in_process(args.jobs, len(placements)):
        print(
            "note: --progress is a per-search view; with --jobs > 1 the "
            "placements run in separate processes, so it is not shown",
            file=sys.stderr,
        )
    try:
        results = check_placements(
            algorithm, placements, jobs=args.jobs, store_root=args.store,
            resume=args.resume, progress=progress,
            depth_limit=args.depth_limit, max_states=args.max_states,
            stop_at_first=not args.keep_going, por=por, links=links,
        )
    except CampaignInterrupted as interrupt:
        return _report_interrupt(interrupt, lambda finished: (
            f"{len(finished)}/{len(placements)} placements checked "
            f"({sum(result.explored for result in finished)} states)"
        ))

    violations = [v for result in results for v in result.violations]
    complete = all(result.complete for result in results)
    if args.json:
        document = {
            "algorithm": algorithm,
            "n": n,
            "k": k,
            "por": por,
            # Sleep sets keep every state but not every cycle (repro.mc.por).
            "cycle_graph": "sleep-set-reduced" if por else "full",
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
    graph = (
        ", with livelock cycles searched on the sleep-set-reduced graph only "
        "(--no-por searches the full graph)" if por else ""
    )
    print(
        "\nno violations: every fair schedule of every checked configuration "
        f"deploys uniformly (exhaustive at n={n}, k={k}){graph}"
    )
    return 0


def _command_fuzz(args: argparse.Namespace) -> int:
    from repro.analysis.fuzzing import coverage_growth_rows, describe_growth

    options = _job_options(args, "fuzz")
    if args.spec:
        spec = FuzzSpec.load(args.spec)
    else:
        spec = FuzzSpec(
            algorithm=args.algorithm,
            placement=_placement_spec(args),
            budget=args.budget,
            max_steps=args.max_steps,
            seed=args.seed,
            placements=1 if args.distances else args.placements,
            corpus_size=args.corpus,
            links=args.links,
        )
    print(
        f"fuzzing {spec.algorithm} ({spec.placements} placement(s), "
        f"budget {spec.budget} runs, campaign {spec.content_hash()[:16]})"
    )
    if options["jobs"] > 1 and args.progress:
        print(
            "note: --progress and the coverage-growth table are "
            "per-campaign views; with --jobs > 1 the budget is "
            "sharded into independent campaigns, so neither is shown",
            file=sys.stderr,
        )
    try:
        outcome, _ = KINDS["fuzz"].run(
            spec, options, store_root=args.store,
            progress=_print_fuzz_progress if args.progress else None,
        )
    except CampaignInterrupted as interrupt:
        return _report_interrupt(interrupt, lambda partial: "\n".join(
            [partial.describe(), *_archived(args.store, partial.failures)]
        ))
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
    for line in _archived(args.store, outcome.failures):
        print(line)
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


def _archived(store: Optional[str], failures) -> List[str]:
    """One line per failure the fuzz body archived under ``store``."""
    return [
        f"archived failure {failure.content_hash[:16]} -> "
        f"{Path(store, 'failures', f'{failure.content_hash}.json')}"
        for failure in failures
    ] if store else []


def _report_interrupt(
    interrupt: CampaignInterrupted, describe: Callable[[object], str]
) -> int:
    """Print what an interrupted psweep, fuzz or mc run finished (already
    flushed) and how to pick it back up; return the exit code, 130."""
    print(f"\ninterrupted: {interrupt}")
    if interrupt.outcome is not None:
        print(f"progress: {describe(interrupt.outcome)}")
    if interrupt.resume_hint:
        print(f"resume: {interrupt.resume_hint}")
    return 130


def _print_campaign_event(update) -> None:
    if "last_event" in update:  # the final counters are not printed
        print(f"  {update['last_event']}")


def _command_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import parse_chaos_spec

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
        spec = CampaignSpec(
            kind="fuzz", fuzz=FuzzSpec.load(args.fuzz_spec),
            shards=args.shards, **fleet,
        )
    else:
        spec = CampaignSpec(kind="sweep", sweep=_sweep_spec(args), **fleet)
    chaos = parse_chaos_spec(args.chaos) if args.chaos else None
    print(f"campaign {spec.content_hash()[:16]}: {spec.describe()}")
    if chaos:
        print(f"fault injection: {chaos.describe()}")
    outcome, _ = KINDS["campaign"].run(
        spec,
        _job_options(args, "campaign"),
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
    from repro.store import RunStore, result_row

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
        # One row schema everywhere: result_row shapes the metrics;
        # query only prefixes the content hash and swaps the scheduler
        # description for the producing spec's canonical string.
        row = {"hash": record.content_hash[:16]}
        row.update(result_row(record.result))
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
    options = _given(args, _submit_options())
    for name in options:
        if name not in KINDS[args.kind].options:
            raise ReproError(
                f"{_flag(name)} sets the {name!r} option, which {args.kind} "
                f"jobs do not take"
            )
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
    args = build_parser().parse_args(argv)
    try:
        for action in getattr(args, "counts", ()):
            value = getattr(args, action.dest)
            if value is not None and value < 1:
                flag = action.option_strings[0]
                raise ReproError(
                    f"{flag} must be >= 1 (got {value}); "
                    f"omit {flag} to use the default"
                )
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
