"""The benchmark's workloads, their phases and every output check.

Every workload runs every phase, so every workload reports every
end-to-end metric: the phases a workload exists for run at ``full``
size, the others as a small ``probe`` (see CONTRACT.md).  ``smoke``
shrinks every phase for the tests.

The phases run interleaved in rounds, each phase doing its units for the
round in turn; a metric is the median over all of its phase's units, so
a few seconds of interference from other tenants of the host lands on
every phase alike instead of on one.  The number of rounds is fixed by
``--seconds`` and the workload's nominal round length, so every run of a
workload does the same work however fast the host is at the time.
Checks run after each unit, outside its timing, and every checked
output counts as one operation toward ``failed_frac``.

The timings of interpreted-Python phases are scaled to a reference host
speed.  A small pure-Python kernel is timed after every
:data:`CALIBRATE_EVERY_S` of such units and at the end of each chunk,
and the units' seconds are multiplied by :data:`REFERENCE_KERNEL_S`
over the kernel's time around them.  On a shared host whose speed drifts
by tens of percent within a minute, such scaled times often vary several
times less than the raw ones; the program's own speed is untouched by
the scaling, since the kernel runs none of it.
HTTP latency, the spilled check (worker processes, fsync) and the set-up
(a process start) follow the kernel only part of the way and stay
unscaled.  The unscaled values of the scaled phases are printed as
well.
"""

from __future__ import annotations

import gc
import http.client
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.parse
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Tuple

_now = time.perf_counter

ALGORITHMS = ("known_k_full", "known_n_full", "known_k_logspace", "unknown")
SCHEDULERS = ("sync", "random", "burst", "chaos", "laggard")

#: Per-phase inputs at each size.  ``states`` is the pinned cell's
#: explored-state count, the same for every seed.
SIZES: Dict[str, Dict[str, dict]] = {
    "sweep": {
        "full": {"grid": ((64, 4), (256, 8)), "schedulers": SCHEDULERS, "trials": 3},
        "probe": {"grid": ((32, 4),), "schedulers": SCHEDULERS, "trials": 2},
        "smoke": {"grid": ((12, 3),), "schedulers": ("sync", "random"), "trials": 1},
    },
    "http": {"full": {"requests": 1000}, "probe": {"requests": 1000}, "smoke": {"requests": 20}},
    "mc": {
        "full": {"ring": 10, "homes": (0, 3, 7), "states": 8009, "grid": ((6, 3), (8, 2))},
        "probe": {"ring": 9, "homes": (0, 3, 6), "states": 666, "grid": ()},
        "smoke": {"ring": 6, "homes": (0, 2, 4), "states": 240, "grid": ((5, 2),)},
    },
    "fuzz": {
        "full": {"ring": 32, "agents": 4, "budget": 10},
        "probe": {"ring": 16, "agents": 3, "budget": 8},
        "smoke": {"ring": 8, "agents": 2, "budget": 7},
    },
}
SIZES["warm"] = SIZES["cold"] = SIZES["sweep"]
SIZES["spill"] = SIZES["mc"]

#: workload -> phase -> (size, units per round), in run order.  An HTTP
#: unit is one request.  Units per round are sized so that the probes
#: add little to a round.
WORKLOADS: Dict[str, Dict[str, Tuple[str, int]]] = {
    "sweep": {
        "cold": ("full", 1), "warm": ("full", 6), "http": ("full", 250),
        "mc": ("probe", 2), "spill": ("probe", 2), "fuzz": ("probe", 1),
    },
    "sweep_batch": {
        "cold": ("full", 4), "warm": ("full", 12), "http": ("probe", 1000),
        "mc": ("probe", 4), "spill": ("probe", 3), "fuzz": ("probe", 2),
    },
    "verify": {
        "cold": ("probe", 2), "warm": ("probe", 12), "http": ("probe", 500),
        "mc": ("full", 1), "spill": ("full", 1), "fuzz": ("full", 1),
    },
}
BACKENDS = {"sweep": "object", "sweep_batch": "batch", "verify": "object"}

#: A round's length at the reference host speed, in seconds: a run makes
#: ``round(seconds / ROUND_SECONDS)`` rounds, at least one.
ROUND_SECONDS = {"sweep": 5.0, "sweep_batch": 22.0, "verify": 11.0}

#: A run stops early, after a round, once it has taken this many times
#: ``--seconds``: on a very slow host it then does less work instead of
#: overrunning its time.
OVERRUN = 1.5

#: End-to-end metric -> unit.  ``failed_frac`` is the result line's
#: ``failed`` / ``attempted``, so it is not repeated here.
END_TO_END = {
    "setup_s": "s",
    "sweep_actions_per_s": "1/s",
    "resume_cells_per_s": "1/s",
    "query_p50_ms": "ms",
    "mc_states_per_s": "1/s",
    "mc_spill_states_per_s": "1/s",
    "fuzz_actions_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Measured and printed, but not part of the contract: over ten seeds on a
#: shared 2-vCPU host its spread reached 0.28 to 0.58 of its median.
PRINTED_ONLY = {"query_p99_ms": "ms"}

SETUP_REPS = 5

#: The calibration kernel's median seconds at the reference host speed.
#: A quiet 2-vCPU cloud virtual machine running CPython 3.11 takes about
#: this long.
REFERENCE_KERNEL_S = 0.0065

#: Scaled units are grouped until they add up to this many seconds, then
#: the kernel is timed again; shorter units share one kernel time.
CALIBRATE_EVERY_S = 0.1

_SETUP_IMPORTS = (
    "import repro.experiments.sweep, repro.store, repro.serve.server, "
    "repro.mc, repro.fuzz, repro.sim.batch"
)


def _kernel() -> int:
    table: Dict[int, tuple] = {}
    total = 0
    for i in range(40000):
        table[i & 1023] = (i, total)
        total += len(table) ^ i
    return total


def calibrate() -> float:
    """Median seconds of five runs of the calibration kernel."""
    times = []
    for _ in range(5):
        start = _now()
        _kernel()
        times.append(_now() - start)
    return statistics.median(times)


@dataclass
class Run:
    """One pass over a workload's phases, with its operation ledger."""

    workload: str
    seed: int
    seconds: float
    plan: Dict[str, Tuple[str, int]]
    work_dir: Path
    once: bool = False  # traced passes run one round of one unit per phase
    tracer: object = None
    expect: Dict[str, object] = field(default_factory=dict)  # forged "states", "digest"
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    raw_metrics: Dict[str, float] = field(default_factory=dict)
    speeds: List[float] = field(default_factory=list)  # reference / kernel
    kernel: float = field(default_factory=calibrate)
    facts: Dict[str, object] = field(default_factory=dict)
    unit_seconds: float = 0.0  # all timed units, for the tracing overhead
    processes: int = field(default_factory=lambda: min(2, os.cpu_count() or 1))

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def fresh_dir(self, label: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{label}-", dir=self.work_dir))

    def size(self, phase: str) -> dict:
        return SIZES[phase][self.plan[phase][0]]

    def speed(self) -> float:
        """Reference over the kernel's mean time before and after the units
        timed since the previous call."""
        after = calibrate()
        speed = REFERENCE_KERNEL_S / ((self.kernel + after) / 2)
        self.speeds.append(speed)
        self.kernel = after
        return speed


class Phase:
    """One timed unit of work of a run, repeated; see :func:`run_phases`."""

    name = ""
    minimum = 1  # units a run makes at least
    whole_units = 1  # units that make one whole pass over the phase's inputs
    host_scaled = True  # interpreted Python, short units: follows the kernel

    def __init__(self, run: Run) -> None:
        self.run = run
        self.params = run.size(self.name)
        self.times: List[float] = []  # unscaled seconds per unit
        self.scaled: List[float] = []

    def unit(self) -> float:
        """Run and check one unit; return its timed seconds."""
        raise NotImplementedError

    def metrics(self, times: List[float]) -> Dict[str, float]:
        """This phase's end-to-end metrics from per-unit seconds."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need every unit done."""

    def close(self) -> None:
        """Release what the phase holds, whether or not it finished."""


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------


def setup_once(run: Run, src: Path) -> float:
    """A fresh interpreter importing the entry points, then a daemon bound
    to a port over a fresh store, closed again.  The daemon's serving
    thread is not started: stopping it waits out a poll interval."""
    from repro.serve.server import ServeDaemon

    start = _now()
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run(
        [sys.executable, "-c", _SETUP_IMPORTS], env=env, check=True,
        stdout=subprocess.DEVNULL,
    )
    ServeDaemon(str(run.fresh_dir("setup")), port=0, quiet=True, workers=1).close()
    return _now() - start


# ----------------------------------------------------------------------
# Sweep phases: cold, warm, http
# ----------------------------------------------------------------------


def _execute(run: Run, spec, store, backend: str):
    from repro.experiments import sweep

    return sweep.execute_sweep(spec, run.processes, store=store, backend=backend)


class Cold(Phase):
    """A cold ``execute_sweep`` of the grid into a fresh store.  The first
    round's store stays for the read phases; the batch workload checks its
    digest against an object-engine sweep of the same cells.

    The batch backend runs the grid one algorithm at a time, into the same
    store: its groups run serially in the parent either way, and four
    parts of a few seconds each follow the host speed far better than one
    part of twenty.  The object backend runs the grid as one sweep, since
    splitting it would change how the pool's work balances.
    """

    name = "cold"

    def __init__(self, run: Run) -> None:
        from repro.experiments.sweep import SweepSpec

        super().__init__(run)
        run.facts["sweep_spec"] = self.spec = SweepSpec(
            algorithms=ALGORITHMS, grid=self.params["grid"],
            schedulers=self.params["schedulers"], trials=self.params["trials"],
            base_seed=run.seed,
        )
        self.backend = BACKENDS[run.workload]
        self.parts = [self.spec]
        if self.backend == "batch":
            self.parts = [replace(self.spec, algorithms=(name,)) for name in ALGORITHMS]
        self.whole_units = len(self.parts)
        self.roots: List[Path] = []
        self.store = None
        self.units = 0

    def unit(self) -> float:
        from repro.store import RunStore

        run = self.run
        part = self.units % len(self.parts)
        self.units += 1
        if part == 0:
            root = run.fresh_dir("cold")
            self.roots.append(root)
            self.store = RunStore(str(root))
            self.rows: List[dict] = []
        start = _now()
        outcome = _execute(run, self.parts[part], self.store, self.backend)
        seconds = _now() - start
        run.op(outcome.executed == outcome.total, "cold sweep reused cached cells")
        self.rows.extend(outcome.rows)
        if part == len(self.parts) - 1:
            self.check_round()
        return seconds

    def check_round(self) -> None:
        run = self.run
        digest = self.store.digest()
        self.store.close()
        if len(self.roots) == 1:
            run.facts.update(store_root=self.roots[0], cold_rows=self.rows, cold_digest=digest)
        else:
            shutil.rmtree(self.roots.pop())
        run.op(digest == run.facts["cold_digest"], "cold sweep digest differs between rounds")
        for row, first in zip(self.rows, run.facts["cold_rows"]):
            run.op(bool(row["uniform"]) and row == first, f"cold row {row}")

    def metrics(self, times: List[float]) -> Dict[str, float]:
        actions = sum(int(row["total_moves"]) for row in self.run.facts["cold_rows"])
        return {"sweep_actions_per_s": actions / self.round_median(times)}

    def round_median(self, times: List[float]) -> float:
        """Median over rounds of a whole grid's seconds."""
        parts = len(self.parts)
        return statistics.median(
            sum(times[begin:begin + parts]) for begin in range(0, len(times), parts)
        )

    def finish(self) -> None:
        self.run.facts["cold_seconds"] = self.round_median(self.times)
        if self.backend == "batch":
            self.check_against_object()

    def check_against_object(self) -> None:
        """The batch store must digest exactly like an object-engine sweep."""
        from repro.store import RunStore

        run = self.run
        run.phase("reference")
        root = run.fresh_dir("reference")
        store = RunStore(str(root))
        outcome = _execute(run, self.spec, store, "object")
        digest = run.expect.get("digest", store.digest())
        store.close()
        shutil.rmtree(root)
        run.op(digest == run.facts["cold_digest"], "batch digest differs from object sweep")
        run.op(outcome.rows == run.facts["cold_rows"], "batch rows differ from object sweep")

    def close(self) -> None:
        if self.store is not None:
            self.store.close()
        for root in self.roots:
            shutil.rmtree(root, ignore_errors=True)


class Warm(Phase):
    """A warm re-run of the same spec: every cell is served from the store."""

    name = "warm"

    def unit(self) -> float:
        from repro.store import RunStore

        run = self.run
        store = RunStore(str(run.facts["store_root"]))
        start = _now()
        outcome = _execute(run, run.facts["sweep_spec"], store, "object")
        seconds = _now() - start
        store.close()
        run.op(outcome.executed == 0, "warm re-run executed cells")
        for row, cold in zip(outcome.rows, run.facts["cold_rows"]):
            run.op(row == cold, f"warm row differs: {row}")
        return seconds

    def metrics(self, times: List[float]) -> Dict[str, float]:
        cells = len(self.run.facts["cold_rows"])
        return {"resume_cells_per_s": cells / statistics.median(times)}


class Http(Phase):
    """A closed loop: one client, one ``GET /v1/runs`` at a time, against a
    daemon on the cold store; filters, limit and offset come from the seed."""

    name = "http"
    host_scaled = False  # latency follows the kernel only part of the way

    def __init__(self, run: Run) -> None:
        super().__init__(run)
        self.rng = random.Random(f"http|{run.seed}")
        self.daemon = None
        self.minimum = self.params["requests"]

    def _start(self) -> None:
        """Expected totals for every filter the client can draw, then the daemon."""
        from repro.serve.server import ServeDaemon
        from repro.store import RunStore

        run = self.run
        spec = run.facts["sweep_spec"]
        self.space = {
            "algorithm": [None, *spec.algorithms],
            "scheduler": [None, *spec.schedulers],
            "n": [None, *sorted({n for n, _ in spec.grid})],
            "uniform": [None, True],
        }
        run.phase("http-check")
        store = RunStore(str(run.facts["store_root"]))
        self.totals = {
            key: store.count(
                algorithm=key[0], scheduler=key[1], ring_size=key[2], uniform=key[3]
            )
            for key in itertools.product(*self.space.values())
        }
        store.close()
        run.phase("http")
        self.daemon = ServeDaemon(str(run.facts["store_root"]), port=0, quiet=True, workers=1)
        self.daemon.start()

    def unit(self) -> float:
        if self.daemon is None:
            self._start()
        key = tuple(self.rng.choice(values) for values in self.space.values())
        limit, offset = self.rng.randint(1, 50), self.rng.randint(0, 40)
        params = {"limit": limit, "offset": offset}
        for name, value in zip(self.space, key):
            if value is not None:
                params[name] = "true" if value is True else value
        path = "/v1/runs?" + urllib.parse.urlencode(params)
        host, port = self.daemon.address
        sent = _now()
        connection = http.client.HTTPConnection(host, port, timeout=30)
        connection.request("GET", path)
        response = connection.getresponse()
        body = response.read()
        connection.close()
        seconds = _now() - sent
        ok = response.status == 200
        if ok:
            payload = json.loads(body)
            total = self.totals[key]
            ok = payload["total"] == total and len(payload["runs"]) == min(
                limit, max(0, total - offset)
            )
        self.run.op(ok, f"GET {path} -> {response.status}")
        return seconds

    def metrics(self, times: List[float]) -> Dict[str, float]:
        return {
            "query_p50_ms": 1000 * statistics.median(times),
            "query_p99_ms": 1000 * statistics.quantiles(times, n=100)[98],
        }

    def finish(self) -> None:
        self.run.facts["http_latencies"] = self.times

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()


# ----------------------------------------------------------------------
# Verification phases: mc, spill, fuzz
# ----------------------------------------------------------------------


class Mc(Phase):
    """The in-memory ``repro mc`` path: the pinned cell plus the grid."""

    name = "mc"

    def __init__(self, run: Run) -> None:
        from repro.ring.placement import Placement

        super().__init__(run)
        self.placement = Placement(ring_size=self.params["ring"], homes=self.params["homes"])
        self.expected = run.expect.get("states", self.params["states"])

    def unit(self) -> float:
        import repro.mc.checker as checker

        run = self.run
        start = _now()
        results = [checker.check_interleavings("unknown", self.placement)]
        for algorithm in ALGORITHMS:
            for n, k in self.params["grid"]:
                results.extend(checker.exhaust_placements(algorithm, n, k))
        seconds = _now() - start
        pinned = results[0]
        run.op(pinned.explored == self.expected, f"pinned cell: {pinned.explored} states")
        counts = [result.explored for result in results]
        run.facts.setdefault("mc_counts", counts)
        run.op(counts == run.facts["mc_counts"], "mc state counts differ between units")
        for result in results:
            run.op(result.ok, f"mc: {result.describe()}")
        run.facts.update(mc_results=results, mc_pinned=pinned)
        return seconds

    def metrics(self, times: List[float]) -> Dict[str, float]:
        return {"mc_states_per_s": sum(self.run.facts["mc_counts"]) / statistics.median(times)}


class Spill(Phase):
    """The ``repro mc --store`` path: the pinned cell through the frontier
    driver, spilled to disk with ``jobs = processes``."""

    name = "spill"
    host_scaled = False

    def __init__(self, run: Run) -> None:
        from repro.ring.placement import Placement

        super().__init__(run)
        self.placement = Placement(ring_size=self.params["ring"], homes=self.params["homes"])
        self.expected = run.expect.get("states", self.params["states"])

    def unit(self) -> float:
        import repro.mc.parallel as parallel

        run = self.run
        root = run.fresh_dir("spill")
        start = _now()
        result = parallel.check_frontier(
            "unknown", self.placement, store_root=str(root), jobs=run.processes
        )
        seconds = _now() - start
        shutil.rmtree(root)
        memory = run.facts["mc_pinned"]
        run.op(
            memory.placement == self.placement
            and (result.verdict, result.explored, result.terminals)
            == (memory.verdict, memory.explored, memory.terminals)
            and result.explored == self.expected,
            f"spilled check disagrees with in-memory: {result.describe()}",
        )
        run.facts["spill_result"] = result
        return seconds

    def metrics(self, times: List[float]) -> Dict[str, float]:
        explored = self.run.facts["spill_result"].explored
        return {"mc_spill_states_per_s": explored / statistics.median(times)}


class Fuzz(Phase):
    """A core-algorithm campaign plus a ``wake_race`` campaign that must
    find, shrink and verify exactly one injected failure."""

    name = "fuzz"

    def __init__(self, run: Run) -> None:
        from repro.fuzz import FuzzSpec
        from repro.spec import PlacementSpec

        super().__init__(run)
        params = self.params
        self.core = FuzzSpec(
            algorithm="unknown",
            placement=PlacementSpec(
                kind="random", ring_size=params["ring"], agent_count=params["agents"],
                seed=run.seed,
            ),
            budget=params["budget"],
            seed=run.seed,
            placements=1,  # one placement, so the budget reaches the mutation phase
        )
        self.wake = FuzzSpec(
            algorithm="wake_race",
            placement=PlacementSpec(kind="random", ring_size=16, agent_count=4, seed=0),
            budget=120,
            placements=2,
            seed=0,  # its shrink cost varies by seed; keep it fixed
        )

    def unit(self) -> float:
        import repro.fuzz.fuzzer as fuzzer

        run = self.run
        start = _now()
        core = fuzzer.fuzz(self.core)
        wake = fuzzer.fuzz(self.wake)
        seconds = _now() - start
        trajectory = (core.runs, core.steps, core.states, wake.runs, wake.steps)
        run.facts.setdefault("fuzz_trajectory", trajectory)
        run.op(trajectory == run.facts["fuzz_trajectory"], "fuzz trajectory differs between units")
        run.attempted += core.runs + wake.runs - 1
        run.failed += len(core.failures)
        verified = [failure for failure in wake.failures if failure.replay_verified]
        run.op(
            len(wake.failures) == 1 and len(verified) == 1,
            f"wake_race found {len(wake.failures)} failure(s), {len(verified)} verified",
        )
        return seconds

    def metrics(self, times: List[float]) -> Dict[str, float]:
        _, core_steps, _, _, wake_steps = self.run.facts["fuzz_trajectory"]
        return {"fuzz_actions_per_s": (core_steps + wake_steps) / statistics.median(times)}


PHASES = (Cold, Warm, Http, Mc, Spill, Fuzz)


def run_phases(run: Run) -> Run:
    """The workload's rounds of every phase's units, then its metrics.

    A phase short of its minimum units makes up the difference at the
    end.
    """
    rounds = 1 if run.once else max(1, round(run.seconds / ROUND_SECONDS[run.workload]))
    phases: List[Phase] = []

    def chunk(phase: Phase, units: int) -> None:
        """``units`` of ``phase``.

        Everything alive before the chunk is frozen out of the garbage
        collector during it: the results the benchmark keeps for its
        checks would otherwise be scanned by the program's full
        collections, which a process of the program's own would not do.
        (A collection first would cost more than the garbage it frees.)
        """
        run.phase(phase.name)
        gc.freeze()
        try:
            timed_units(phase, units)
        finally:
            gc.unfreeze()

    def timed_units(phase: Phase, units: int) -> None:
        """The kernel is timed after every :data:`CALIBRATE_EVERY_S` of
        scaled units and after the last unit, so the next chunk starts
        from a fresh kernel time."""
        pending: List[float] = []
        for index in range(units):
            pending.append(phase.unit())
            if index == units - 1 or (
                phase.host_scaled and sum(pending) >= CALIBRATE_EVERY_S
            ):
                speed = run.speed()
                if not phase.host_scaled:
                    speed = 1.0
                phase.times.extend(pending)
                phase.scaled.extend(seconds * speed for seconds in pending)
                pending = []

    try:
        for cls in PHASES:
            phases.append(cls(run))
        started = _now()
        for _ in range(rounds):
            for phase in phases:
                units = 1 if run.once else run.plan[phase.name][1]
                chunk(phase, max(units, phase.whole_units))
            if _now() - started > OVERRUN * run.seconds:
                break
        for phase in phases:
            if len(phase.times) < phase.minimum:
                chunk(phase, phase.minimum - len(phase.times))
        for phase in phases:
            run.phase(phase.name)
            run.metrics.update(phase.metrics(phase.scaled))
            if phase.host_scaled:
                run.raw_metrics.update(phase.metrics(phase.times))
            phase.finish()
            run.unit_seconds += sum(phase.scaled)
    finally:
        run.phase("-")
        for phase in reversed(phases):
            phase.close()
    return run


def peak_rss_mb() -> float:
    """High-water RSS of this process or any pool child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024
