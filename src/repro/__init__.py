"""Uniform deployment of mobile agents in asynchronous unidirectional rings.

A from-scratch reproduction of Shibata, Mega, Ooshita, Kakugawa,
Masuzawa — "Uniform deployment of mobile agents in asynchronous rings"
(PODC 2016; JPDC 119, 2018).  See README.md for a tour and DESIGN.md for
the paper-to-module map.

Public API highlights:

>>> import random
>>> from repro import run_experiment, random_placement
>>> placement = random_placement(60, 6, random.Random(1))
>>> result = run_experiment("known_k_full", placement)
>>> result.ok
True

Experiments are also declarative: an :class:`ExperimentSpec` names the
algorithm, placement, scheduler spec string, engine options and limits,
round-trips losslessly through JSON, and drives every entry point
(``run_experiment``, ``build_engine``, sweeps, the model checker and
the CLI's ``--spec``/``spec`` commands):

>>> from repro import ExperimentSpec, PlacementSpec
>>> spec = ExperimentSpec(
...     algorithm="known_k_full",
...     placement=PlacementSpec(kind="random", ring_size=60, agent_count=6, seed=1),
...     scheduler="laggard:victims=0,patience=5",
... )
>>> ExperimentSpec.from_json(spec.to_json()) == spec
True
>>> spec.run().ok
True
"""

from repro.analysis.verification import (
    VerificationReport,
    allowed_gaps,
    require_uniform_deployment,
    verify_positions,
    verify_uniform_deployment,
)
from repro.core.known_k_full import KnownKFullAgent
from repro.core.known_k_logspace import KnownKLogSpaceAgent
from repro.core.known_n_full import KnownNFullAgent
from repro.core.unknown import UnknownKAgent
from repro.errors import (
    ConfigurationError,
    ProtocolViolation,
    ReproError,
    SimulationError,
    SimulationLimitExceeded,
    VerificationError,
)
from repro.experiments.runner import RunResult, run_experiment
from repro.registry import (
    AlgorithmInfo,
    SchedulerInfo,
    SchedulerParam,
    SchedulerSpec,
    algorithm_names,
    build_scheduler,
    format_scheduler_spec,
    get_algorithm,
    get_scheduler,
    parse_scheduler_spec,
    register_algorithm,
    register_scheduler,
    registry_dump,
    scheduler_names,
)
from repro.ring.placement import (
    Placement,
    equidistant_placement,
    periodic_placement,
    placement_from_distances,
    quarter_packed_placement,
    random_placement,
)
from repro.sim.engine import Engine
from repro.sim.scheduler import (
    BurstScheduler,
    LaggardScheduler,
    RandomScheduler,
    SynchronousScheduler,
)
from repro.spec import ExperimentSpec, PlacementSpec, run_spec
from repro.store import RunRecord, RunStore, cached_run

__version__ = "1.1.0"

__all__ = [
    "AlgorithmInfo",
    "BurstScheduler",
    "ConfigurationError",
    "Engine",
    "ExperimentSpec",
    "KnownKFullAgent",
    "KnownKLogSpaceAgent",
    "KnownNFullAgent",
    "LaggardScheduler",
    "Placement",
    "PlacementSpec",
    "ProtocolViolation",
    "RandomScheduler",
    "ReproError",
    "RunRecord",
    "RunResult",
    "RunStore",
    "SchedulerInfo",
    "SchedulerParam",
    "SchedulerSpec",
    "SimulationError",
    "SimulationLimitExceeded",
    "SynchronousScheduler",
    "UnknownKAgent",
    "VerificationError",
    "VerificationReport",
    "algorithm_names",
    "allowed_gaps",
    "build_scheduler",
    "cached_run",
    "equidistant_placement",
    "format_scheduler_spec",
    "get_algorithm",
    "get_scheduler",
    "parse_scheduler_spec",
    "periodic_placement",
    "placement_from_distances",
    "quarter_packed_placement",
    "random_placement",
    "register_algorithm",
    "register_scheduler",
    "registry_dump",
    "require_uniform_deployment",
    "run_experiment",
    "run_spec",
    "scheduler_names",
    "verify_positions",
    "verify_uniform_deployment",
    "__version__",
]
