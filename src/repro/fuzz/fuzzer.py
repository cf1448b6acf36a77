"""The coverage-guided schedule fuzzer (randomized schedule-space search).

The verification ladder so far has two rungs: ``repro mc`` *exhausts*
every interleaving on tiny instances, and the experiment suite samples
a handful of adversarial schedulers on large ones.  The fuzzer is the
bridge: on mid-size instances (n=16..256) it searches the schedule
space the checker cannot enumerate, guided by the same canonical-state
vocabulary and checking the same property oracles online at every
atomic action.

One campaign (:class:`ScheduleFuzzer`, described by a
:class:`~repro.fuzz.spec.FuzzSpec`) loops:

1. **seed** — run every registered adversary family (random, burst,
   chaos, one laggard per victim) once per placement, harvesting its
   executed activation log through the oracle-checked executor,
2. **mutate** — pick a coverage-novel corpus schedule, apply stacked
   mutation operators (:mod:`repro.fuzz.mutate`) or splice two
   entries, and execute the result: recorded entries drive the engine
   (skip-disabled semantics), then seeded randomness takes over,
3. **feed back** — a run that reached a canonical state (by
   :meth:`~repro.ring.configuration.Configuration.canonical_key`, the
   checker's memo key) or enabled-pattern no run had seen donates its
   executed prefix to the corpus (:mod:`repro.fuzz.corpus`),
4. **on violation** — delta-debug the executed schedule to a 1-minimal
   reproduction (:func:`repro.mc.shrink.shrink_schedule` against
   :func:`~repro.mc.oracle.drive_schedule` on
   :meth:`~repro.mc.oracle.PropertyOracle.fork_root` engines), verify
   the shrunk schedule replays to the same defect from a fresh engine
   — and through the stock ``run_experiment`` +
   :class:`~repro.sim.scheduler.ReplayScheduler` path for terminal
   violations — and emit a :class:`~repro.fuzz.failure.FailureCase`.

Campaigns are deterministic functions of their spec: every RNG is
seeded from the spec's content hash, so a failing campaign replays
anywhere.  :func:`fuzz_parallel` shards a budget across the process
pool of :mod:`repro.executor` (the one sweep cells and mc placements
use): shards are independent deterministic campaigns whose coverage
maps merge by key-set union.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import CampaignInterrupted
from repro.executor import completed
from repro.fuzz.corpus import Corpus, CorpusEntry
from repro.fuzz.coverage import CoverageMap
from repro.fuzz.failure import FailureCase
from repro.fuzz.mutate import mutate_schedule, splice
from repro.fuzz.spec import FuzzSpec
from repro.mc.oracle import PropertyOracle, Violation, drive_schedule
from repro.mc.shrink import shrink_schedule
from repro.registry import build_scheduler
from repro.ring.placement import Placement
from repro.sim.scheduler import Scheduler

__all__ = [
    "FuzzOutcome",
    "ScheduleFuzzer",
    "fuzz",
    "fuzz_parallel",
    "merge_outcomes",
    "shard_specs",
]

#: Adversary families whose decisions seed the corpus (plus one laggard
#: spec per victim id, added per instance at campaign start).
_SEED_SCHEDULERS: Tuple[str, ...] = ("random", "burst", "chaos")

#: Probability weights of the mutation phase's input sources.
_FRESH_PROB = 0.15  # brand new random-tail input
_SPLICE_PROB = 0.2  # crossover of two corpus entries


@dataclass(frozen=True)
class _RunOutcome:
    """What one executed schedule did."""

    executed: Tuple[int, ...]
    steps: int
    quiesced: bool
    novelty: int
    last_novel_step: int
    violation: Optional[Violation]


@dataclass(frozen=True)
class FuzzOutcome:
    """Everything one fuzzing campaign produced."""

    spec: FuzzSpec
    runs: int
    steps: int
    failures: Tuple[FailureCase, ...]
    states: int
    patterns: int
    corpus_size: int
    history: Tuple[Dict[str, object], ...]
    complete: bool  # True when the full budget was spent

    @property
    def found(self) -> bool:
        return bool(self.failures)

    def describe(self) -> str:
        verdict = (
            f"{len(self.failures)} FAILURE(S)" if self.failures else "no violations"
        )
        return (
            f"{self.runs} runs, {self.steps} actions: {self.states} canonical "
            f"states, {self.patterns} enabled patterns, corpus {self.corpus_size} "
            f"-> {verdict}"
        )


class ScheduleFuzzer:
    """One deterministic coverage-guided fuzzing campaign."""

    def __init__(
        self,
        spec: FuzzSpec,
        *,
        keep_going: bool = False,
        shrink: bool = True,
        shrink_evals: int = 800,
        history_points: int = 20,
        progress: Optional[Callable[[Dict[str, object]], None]] = None,
    ) -> None:
        self.spec = spec
        self.keep_going = keep_going
        self.shrink = shrink
        self.shrink_evals = shrink_evals
        self.progress = progress
        self.coverage = CoverageMap()
        self.corpus = Corpus(spec.corpus_size)
        # The campaign so far (see :meth:`outcome`).
        self.runs = 0
        self.steps = 0
        self.failures: List[FailureCase] = []
        self.history: List[Dict[str, object]] = []
        self._history_every = max(1, spec.budget // max(1, history_points))
        self._rng = random.Random(spec.derive_seed("driver"))
        self._placements: List[Placement] = [
            spec.build_placement(index) for index in range(spec.placements)
        ]
        self._oracles: List[PropertyOracle] = [
            PropertyOracle(spec.algorithm, placement, links=spec.links)
            for placement in self._placements
        ]
        # Shrink replays of terminal defects skip the per-edge safety
        # suite (the defect lives in the quiescent state; candidates
        # only need the same terminal property to fail), which makes
        # delta debugging ~5x cheaper.
        self._terminal_oracles: List[PropertyOracle] = [
            PropertyOracle(spec.algorithm, placement, safety=(), links=spec.links)
            for placement in self._placements
        ]

    # -- execution -----------------------------------------------------------

    def _execute(
        self,
        placement_index: int,
        schedule: Sequence[int],
        run_rng: random.Random,
        scheduler: Optional[Scheduler] = None,
    ) -> _RunOutcome:
        """Run one input through the oracle-checked, coverage-observed loop.

        ``schedule`` entries drive the engine with skip-disabled
        semantics; after exhaustion ``run_rng`` picks uniformly among
        enabled agents — unless ``scheduler`` is given (seed phase), in
        which case its batches drive the run from the start.
        """
        oracle = self._oracles[placement_index]
        engine = oracle.fresh_engine()
        cap = self.spec.run_step_cap(self._placements[placement_index])
        cursor = 0
        pending: deque = deque()
        steps = 0
        novelty = 0
        last_novel_step = 0
        violation: Optional[Violation] = None
        quiesced = False
        # The pre-state of every step is the snapshot taken after the
        # previous one; this first one is never observed for coverage.
        snapshot = engine.snapshot()
        while steps < cap:
            enabled = engine.enabled_agents()
            if not enabled:
                quiesced = True
                violation = oracle.check_terminal(engine, snapshot)
                break
            agent: Optional[int] = None
            if scheduler is not None:
                while agent is None:
                    if not pending:
                        pending.extend(scheduler.next_batch(enabled))
                        if not pending:
                            break
                    candidate = pending.popleft()
                    if candidate in enabled:
                        agent = candidate
            else:
                while cursor < len(schedule):
                    candidate = schedule[cursor]
                    cursor += 1
                    if candidate in enabled:
                        agent = candidate
                        break
            if agent is None:
                agent = run_rng.choice(enabled)
            engine.step(agent)
            steps += 1
            pre, snapshot = snapshot, engine.snapshot()
            violation = oracle.check_step(pre, engine, snapshot, agent)
            if violation is not None:
                break
            gain = self.coverage.observe(engine, snapshot)
            if gain:
                novelty += gain
                last_novel_step = steps
        return _RunOutcome(
            executed=engine.activation_log,
            steps=steps,
            quiesced=quiesced,
            novelty=novelty,
            last_novel_step=last_novel_step,
            violation=violation,
        )

    # -- failure pipeline ----------------------------------------------------

    def _build_failure(
        self, placement_index: int, outcome: _RunOutcome, run_index: int
    ) -> FailureCase:
        """Shrink, verify and package one violating run."""
        placement = self._placements[placement_index]
        violation = outcome.violation
        assert violation is not None
        cap = self.spec.run_step_cap(placement)
        oracle = (
            self._terminal_oracles[placement_index]
            if violation.kind == "terminal"
            else self._oracles[placement_index]
        )

        def still_fails(candidate: Tuple[int, ...]) -> bool:
            replay = drive_schedule(
                oracle, candidate, max_steps=cap, engine=oracle.fork_root()
            )
            return violation.same_defect(replay.violation)

        shrunk = outcome.executed
        if self.shrink:
            shrunk = shrink_schedule(
                outcome.executed, still_fails, max_evals=self.shrink_evals
            )

        # Verification 1: the shrunk schedule, replayed from a brand new
        # engine under the *full* property suite, reproduces the defect.
        replay = drive_schedule(
            self._oracles[placement_index], shrunk, max_steps=cap
        )
        verified = violation.same_defect(replay.violation)
        message = replay.violation.message if verified else violation.message

        # Verification 2 (terminal defects): the stock experiment path —
        # a real ReplayScheduler inside run_experiment — must agree the
        # deployment is not uniform.
        spec = self.spec.experiment_spec(placement, shrunk)
        if verified and violation.kind == "terminal":
            from repro.experiments.runner import run_experiment

            verified = not run_experiment(spec).ok

        return FailureCase(
            algorithm=self.spec.algorithm,
            ring_size=placement.ring_size,
            homes=placement.homes,
            kind=violation.kind,
            property_name=violation.property_name,
            message=message,
            schedule=outcome.executed,
            shrunk=shrunk,
            spec=spec.to_dict(),
            content_hash=spec.content_hash(),
            fuzz_spec_hash=self.spec.content_hash(),
            run_index=run_index,
            replay_verified=verified,
        )

    # -- campaign driver -----------------------------------------------------

    def _seed_inputs(self) -> List[Tuple[int, Optional[str]]]:
        """The seed-phase work list: (placement index, scheduler spec)."""
        inputs: List[Tuple[int, Optional[str]]] = []
        specs: List[str] = list(_SEED_SCHEDULERS)
        agent_count = self._placements[0].agent_count
        specs.extend(f"laggard:victims={victim}" for victim in range(agent_count))
        for spec_string in specs:
            for index in range(len(self._placements)):
                inputs.append((index, spec_string))
        return inputs

    def run(self) -> FuzzOutcome:
        """Execute the campaign; deterministic for a given spec."""
        spec = self.spec
        seeds = deque(self._seed_inputs())

        def record_history(force: bool = False) -> None:
            if force or self.runs % self._history_every == 0:
                self.history.append(
                    {
                        "run": self.runs,
                        "steps": self.steps,
                        "states": self.coverage.states,
                        "patterns": self.coverage.patterns,
                        "corpus": len(self.corpus),
                        "failures": len(self.failures),
                    }
                )

        while self.runs < spec.budget:
            if seeds:
                placement_index, scheduler_spec = seeds.popleft()
                scheduler = build_scheduler(
                    scheduler_spec,
                    seed=spec.derive_seed(f"harvest|{scheduler_spec}|{placement_index}"),
                )
                schedule: Tuple[int, ...] = ()
            else:
                scheduler = None
                placement_index, schedule = self._next_mutated_input()
            run_rng = random.Random(spec.derive_seed(f"run|{self.runs}"))
            outcome = self._execute(
                placement_index, schedule, run_rng, scheduler=scheduler
            )
            self.runs += 1
            self.steps += outcome.steps
            if outcome.violation is not None:
                self.failures.append(
                    self._build_failure(placement_index, outcome, self.runs)
                )
                if not self.keep_going:
                    record_history(force=True)
                    break
            elif outcome.novelty:
                self.corpus.add(
                    CorpusEntry(
                        placement_index=placement_index,
                        schedule=outcome.executed[: outcome.last_novel_step],
                        gain=outcome.novelty,
                        run_index=self.runs,
                    )
                )
            record_history()
            if self.progress is not None:
                self.progress({
                    "runs": self.runs, "budget": spec.budget,
                    "coverage": self.coverage.describe(),
                })
        if not self.history or self.history[-1]["run"] != self.runs:
            record_history(force=True)
        return self.outcome(complete=self.runs >= spec.budget)

    def outcome(self, complete: bool) -> FuzzOutcome:
        """The campaign as far as :meth:`run` got."""
        return FuzzOutcome(
            spec=self.spec,
            runs=self.runs,
            steps=self.steps,
            failures=tuple(self.failures),
            states=self.coverage.states,
            patterns=self.coverage.patterns,
            corpus_size=len(self.corpus),
            history=tuple(self.history),
            complete=complete,
        )

    def _next_mutated_input(self) -> Tuple[int, Tuple[int, ...]]:
        """Pick the next input from the corpus (or a fresh random one)."""
        rng = self._rng
        entry = self.corpus.pick(rng)
        if entry is None or rng.random() < _FRESH_PROB:
            return rng.randrange(len(self._placements)), ()
        agents = range(self._placements[entry.placement_index].agent_count)
        if rng.random() < _SPLICE_PROB:
            pair = self.corpus.pick_pair(rng)
            if pair is not None and pair[0].placement_index == entry.placement_index:
                spliced = splice(rng, pair[0].schedule, pair[1].schedule)
                return pair[0].placement_index, mutate_schedule(
                    rng, spliced, tuple(agents), max_ops=1
                )
        mutated = mutate_schedule(
            rng, entry.schedule, tuple(agents), max_ops=self.spec.mutations
        )
        return entry.placement_index, mutated


def fuzz(spec: FuzzSpec, **kwargs) -> FuzzOutcome:
    """Run one campaign (see :class:`ScheduleFuzzer` for the knobs)."""
    return ScheduleFuzzer(spec, **kwargs).run()


def shard_specs(spec: FuzzSpec, shards: int) -> List[FuzzSpec]:
    """Split ``spec``'s budget into ``shards`` independent campaign specs.

    The one shard-decomposition in the codebase: :func:`fuzz_parallel`
    and the campaign coordinator's fuzz work units both call it, so a
    pool shard and a leased shard with the same index are the *same*
    deterministic campaign (same derived seed, same content hash).
    Shards whose budget share rounds to zero are dropped.
    """
    shards = max(1, shards)
    share, remainder = divmod(spec.budget, shards)
    specs = []
    for index in range(shards):
        budget = share + (1 if index < remainder else 0)
        if budget < 1:
            continue
        specs.append(
            spec.with_options(
                budget=budget, seed=spec.derive_seed(f"shard|{index}")
            )
        )
    return specs


def merge_outcomes(
    spec: FuzzSpec,
    results: Sequence[Tuple[FuzzOutcome, List[int], List[int]]],
    *,
    complete: Optional[bool] = None,
) -> FuzzOutcome:
    """Merge shard campaign outcomes into one campaign-level outcome.

    Coverage keys union (shard-mergeable by design), failures
    concatenate in the given order deduplicated by triggering spec
    hash, runs/steps sum, and the corpus reports the largest shard's
    (every real corpus is bounded by the spec's cap, so the merged
    number is too).  Per-shard growth histories do not merge
    meaningfully (their run counters and coverage maps are disjoint),
    so the merged ``history`` is empty rather than misleading — run
    single-job campaigns for growth curves.  ``complete`` overrides
    the all-shards conjunction (a partially merged interrupt is never
    "complete" even if every *received* shard was).
    """
    coverage = CoverageMap()
    failures: List[FailureCase] = []
    seen_hashes = set()
    runs = total_steps = corpus_size = 0
    all_complete = True
    for outcome, state_keys, pattern_keys in results:
        coverage.merge_keys(state_keys, pattern_keys)
        runs += outcome.runs
        total_steps += outcome.steps
        corpus_size = max(corpus_size, outcome.corpus_size)
        all_complete = all_complete and outcome.complete
        for failure in outcome.failures:
            if failure.content_hash not in seen_hashes:
                seen_hashes.add(failure.content_hash)
                failures.append(failure)
    return FuzzOutcome(
        spec=spec,
        runs=runs,
        steps=total_steps,
        failures=tuple(failures),
        states=coverage.states,
        patterns=coverage.patterns,
        corpus_size=corpus_size,
        history=(),
        complete=all_complete if complete is None else complete,
    )


def _fuzz_shard(
    payload: Tuple[int, Dict[str, object], bool, bool]
) -> Tuple[int, Tuple[FuzzOutcome, List[int], List[int]]]:
    """Pool worker: one deterministic shard campaign plus its raw coverage."""
    index, spec_dict, keep_going, shrink = payload
    fuzzer = ScheduleFuzzer(
        FuzzSpec.from_dict(spec_dict), keep_going=keep_going, shrink=shrink
    )
    outcome = fuzzer.run()
    return index, (outcome, *fuzzer.coverage.export_keys())


def fuzz_parallel(
    spec: FuzzSpec,
    jobs: int,
    *,
    keep_going: bool = False,
    shrink: bool = True,
    progress: Optional[Callable[[Dict[str, object]], None]] = None,
) -> FuzzOutcome:
    """Run ``spec`` in this process at ``jobs == 1`` (``progress`` then
    receives its per-run counters), else as ``jobs`` shards.

    Each shard is an independent deterministic campaign
    (:func:`shard_specs`: seeds derived from the parent spec and the
    shard index, so shards explore *different* placements and
    schedules) run through :func:`repro.executor.completed`; shard
    results merge via :func:`merge_outcomes` in shard order, so the
    returned outcome is identical regardless of which worker finished
    first.  Shards report no progress.

    A ``KeyboardInterrupt`` raises
    :class:`~repro.errors.CampaignInterrupted` carrying the outcome so
    far (the in-process campaign's, or the merge of the shards that
    finished), flagged ``complete=False``, so the CLI can archive
    partial failures instead of dumping a traceback.
    """
    if jobs == 1:
        fuzzer = ScheduleFuzzer(
            spec, keep_going=keep_going, shrink=shrink, progress=progress
        )
        try:
            return fuzzer.run()
        except KeyboardInterrupt:
            partial = fuzzer.outcome(complete=False)
            done = f"{partial.runs} of {spec.budget} runs"
            raise _interrupted(partial, done) from None
    shards = [
        (index, shard.to_dict(), keep_going, shrink)
        for index, shard in enumerate(shard_specs(spec, jobs))
    ]
    received: Dict[int, Tuple[FuzzOutcome, List[int], List[int]]] = {}
    try:
        for index, result in completed(_fuzz_shard, shards, jobs):
            received[index] = result
    except KeyboardInterrupt:
        partial = merge_outcomes(
            spec, [received[i] for i in sorted(received)], complete=False
        )
        done = f"{len(received)} of {len(shards)} shards"
        raise _interrupted(partial, done) from None
    return merge_outcomes(spec, [received[i] for i in sorted(received)])


def _interrupted(partial: FuzzOutcome, finished: str) -> CampaignInterrupted:
    return CampaignInterrupted(
        f"fuzz campaign interrupted: {finished} finished ({partial.runs} "
        f"runs, {len(partial.failures)} failure(s))",
        outcome=partial,
        resume_hint="fuzz campaigns are deterministic: re-run the same spec "
        "to repeat the campaign, or lower --budget for a shorter one",
    )
