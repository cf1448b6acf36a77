"""Typed algorithm and scheduler registries (the declarative experiment API).

Every entry point of the reproduction — ``run_experiment``, the sweep
runner, the model checker and the CLI — needs to name algorithms and
schedulers without constructing them by hand.  This module is the single
source of truth for both:

* :class:`AlgorithmInfo` — a frozen record per deployment algorithm
  (factory, halting behaviour, knowledge regime, the paper's Table 1
  memory/time bounds, description), registered by decorating the agent
  class with :func:`register_algorithm`.  The four core algorithms, the
  ``known_n_full`` variant and the model checker's deliberately broken
  self-test agent (``wake_race``, flagged ``selftest=True``) all
  register themselves this way.
* :class:`SchedulerInfo` — a frozen record per scheduler (class, typed
  parameter declarations, fairness/time semantics), registered by
  decorating the scheduler class with :func:`register_scheduler`.

Scheduler *spec strings* give every entry point one shared syntax for
parameterised schedulers::

    sync
    random:seed=7
    laggard:victims=0-2,patience=5,seed=3

:func:`parse_scheduler_spec` turns the string into a canonical frozen
:class:`SchedulerSpec`, :func:`format_scheduler_spec` prints it back
(parse -> format -> parse is the identity), and
:func:`build_scheduler` instantiates it.  A ``seed`` parameter left
unset in the spec is filled from the *context seed* (the sweep cell
seed, ``--scheduler-seed``, ...), so one spec string can drive many
deterministic trials.

Lookups never require manual imports: the registries lazily import the
modules that carry the built-in registrations the first time a name is
resolved, so ``build_scheduler("chaos", seed=1)`` works from a cold
interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    Union,
)

from repro.errors import ConfigurationError

__all__ = [
    "AlgorithmInfo",
    "SchedulerInfo",
    "SchedulerParam",
    "SchedulerSpec",
    "algorithm_names",
    "build_scheduler",
    "format_scheduler_spec",
    "get_algorithm",
    "get_scheduler",
    "parse_scheduler_spec",
    "register_algorithm",
    "register_algorithm_info",
    "register_scheduler",
    "registry_dump",
    "scheduler_names",
    "unregister_algorithm",
]

T = TypeVar("T")

#: Sentinel default for seed-like parameters: "use the context seed".
CONTEXT_SEED = None


@dataclass(frozen=True)
class AlgorithmInfo:
    """Everything the harness knows about one registered algorithm.

    ``factory(k, n)`` returns one fresh agent for an instance with ``k``
    agents on an ``n``-node ring (``n`` may be 0 for algorithms that do
    not use it).  ``halts`` selects the terminal-state requirement the
    verifier applies (halted for termination-detecting algorithms,
    suspended for the relaxed problem).  ``knowledge``, the bounds and
    ``table1_row`` carry the paper's Table 1 metadata; ``selftest``
    marks deliberately broken agents that exist to prove the model
    checker can find bugs (they are hidden from experiment-facing
    listings such as :func:`algorithm_names` and the ``repro run`` choices).
    """

    name: str
    factory: Callable[[int, int], object]
    halts: bool
    knowledge: str
    memory_bound: str
    time_bound: str
    table1_row: str
    description: str
    selftest: bool = False

    def make_agents(self, agent_count: int, ring_size: int = 0) -> Tuple[object, ...]:
        """One fresh agent per home (``ring_size`` only matters for n-aware ones)."""
        return tuple(self.factory(agent_count, ring_size) for _ in range(agent_count))

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready metadata row (the factory itself is not serialisable)."""
        return {
            "name": self.name,
            "halts": self.halts,
            "knowledge": self.knowledge,
            "memory_bound": self.memory_bound,
            "time_bound": self.time_bound,
            "table1_row": self.table1_row,
            "description": self.description,
            "selftest": self.selftest,
        }


@dataclass(frozen=True)
class SchedulerParam:
    """One typed, defaultable parameter of a registered scheduler.

    ``kind`` is ``"int"`` or ``"int_list"`` (lists are written with
    ``-`` between elements: ``victims=0-2``).  A default of
    :data:`CONTEXT_SEED` (``None``) marks a seed-like parameter that is
    filled from the context seed when the spec string leaves it unset.
    ``aliases`` are accepted on parse but always formatted back under
    the canonical ``name``.
    """

    name: str
    kind: str = "int"
    default: object = 0
    aliases: Tuple[str, ...] = ()
    doc: str = ""

    def parse(self, text: str) -> object:
        """Parse one ``key=value`` right-hand side into a typed value."""
        try:
            if self.kind == "int":
                return int(text)
            if self.kind == "int_list":
                if text == "":
                    return ()
                parts = text.split("-")
                # An empty chunk means a stray sign or separator
                # ("-1", "1--2", "1-"): reject rather than silently
                # dropping it and parsing a different id list.
                if any(part == "" for part in parts):
                    raise ValueError(text)
                return tuple(int(part) for part in parts)
        except ValueError:
            pass
        raise ConfigurationError(
            f"bad value {text!r} for scheduler parameter {self.name!r} "
            f"(expected {self.kind}, e.g. "
            f"{'3' if self.kind == 'int' else '0-2-5'})"
        )

    def format(self, value: object) -> str:
        """Print a typed value back into spec-string syntax."""
        if self.kind == "int_list":
            return "-".join(str(item) for item in value)  # type: ignore[union-attr]
        return str(value)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready parameter declaration."""
        return {
            "name": self.name,
            "kind": self.kind,
            "default": (
                list(self.default)
                if isinstance(self.default, tuple)
                else self.default
            ),
            "aliases": list(self.aliases),
            "doc": self.doc,
        }


@dataclass(frozen=True)
class SchedulerInfo:
    """Everything the harness knows about one registered scheduler."""

    name: str
    cls: Type
    params: Tuple[SchedulerParam, ...]
    counts_time: bool
    description: str
    builder: Callable[..., object] = field(repr=False, default=None)

    def param(self, key: str) -> SchedulerParam:
        """Resolve ``key`` (canonical name or alias) to its declaration."""
        for param in self.params:
            if key == param.name or key in param.aliases:
                return param
        known = [param.name for param in self.params]
        raise ConfigurationError(
            f"scheduler {self.name!r} has no parameter {key!r}; "
            f"known parameters: {known or '(none)'}"
        )

    def build(
        self, args: Optional[Dict[str, object]] = None, seed: int = 0
    ) -> object:
        """Instantiate the scheduler from typed args plus the context seed."""
        resolved: Dict[str, object] = {}
        args = dict(args or {})
        for param in self.params:
            if param.name in args:
                resolved[param.name] = args.pop(param.name)
            elif param.default is CONTEXT_SEED:
                resolved[param.name] = seed
            else:
                resolved[param.name] = param.default
        if args:
            raise ConfigurationError(
                f"scheduler {self.name!r} got unknown arguments {sorted(args)}"
            )
        return self.builder(self.cls, resolved)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready metadata row (class and builder are not serialisable)."""
        return {
            "name": self.name,
            "class": self.cls.__name__,
            "counts_time": self.counts_time,
            "description": self.description,
            "params": [param.to_dict() for param in self.params],
        }


_ALGORITHMS: Dict[str, AlgorithmInfo] = {}
_SCHEDULERS: Dict[str, SchedulerInfo] = {}
_BUILTINS_LOADED = False

#: Modules whose import registers the built-in algorithms and schedulers.
_BUILTIN_MODULES = (
    "repro.sim.scheduler",
    "repro.core.known_k_full",
    "repro.core.known_n_full",
    "repro.core.known_k_logspace",
    "repro.core.unknown",
    "repro.mc.selftest",
)


def _ensure_builtins() -> None:
    """Import the modules carrying built-in registrations (idempotent)."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    import importlib

    for module in _BUILTIN_MODULES:
        importlib.import_module(module)


def register_algorithm_info(info: AlgorithmInfo, *, replace: bool = False) -> None:
    """Register a fully built :class:`AlgorithmInfo` record."""
    if not replace and info.name in _ALGORITHMS:
        raise ConfigurationError(
            f"algorithm {info.name!r} is already registered"
        )
    _ALGORITHMS[info.name] = info


def unregister_algorithm(name: str) -> None:
    """Remove a registered algorithm (back-compat mutation path)."""
    _ensure_builtins()
    if name not in _ALGORITHMS:
        raise ConfigurationError(f"algorithm {name!r} is not registered")
    del _ALGORITHMS[name]


def register_algorithm(
    name: str,
    *,
    build: Callable[[Type, int, int], object],
    halts: bool,
    knowledge: str,
    memory_bound: str,
    time_bound: str,
    table1_row: str,
    description: str,
    selftest: bool = False,
) -> Callable[[Type[T]], Type[T]]:
    """Class decorator: register an agent class as a named algorithm.

    ``build(cls, k, n)`` adapts the class constructor to the uniform
    ``factory(k, n)`` signature — e.g. ``lambda cls, k, n: cls(k)`` for
    knowledge-of-k agents, ``lambda cls, k, n: cls(n)`` for
    knowledge-of-n ones.
    """

    def decorate(cls: Type[T]) -> Type[T]:
        register_algorithm_info(
            AlgorithmInfo(
                name=name,
                factory=lambda k, n, _cls=cls: build(_cls, k, n),
                halts=halts,
                knowledge=knowledge,
                memory_bound=memory_bound,
                time_bound=time_bound,
                table1_row=table1_row,
                description=description,
                selftest=selftest,
            )
        )
        return cls

    return decorate


def register_scheduler(
    name: str,
    *,
    params: Sequence[SchedulerParam] = (),
    build: Optional[Callable[[Type, Dict[str, object]], object]] = None,
    description: str = "",
) -> Callable[[Type[T]], Type[T]]:
    """Class decorator: register a scheduler class under a spec name.

    ``build(cls, args)`` receives fully resolved typed arguments (every
    declared parameter present, seeds already substituted); the default
    passes them as keyword arguments.
    """
    param_tuple = tuple(params)
    seen: set = set()
    for param in param_tuple:
        for key in (param.name, *param.aliases):
            if key in seen:
                raise ConfigurationError(
                    f"scheduler {name!r} declares parameter name {key!r} twice"
                )
            seen.add(key)

    def decorate(cls: Type[T]) -> Type[T]:
        if name in _SCHEDULERS:
            raise ConfigurationError(
                f"scheduler {name!r} is already registered"
            )
        builder = build or (lambda _cls, args: _cls(**args))
        doc_lines = (cls.__doc__ or "").splitlines()
        _SCHEDULERS[name] = SchedulerInfo(
            name=name,
            cls=cls,
            params=param_tuple,
            counts_time=bool(getattr(cls, "counts_time", False)),
            description=description or (doc_lines[0] if doc_lines else ""),
            builder=builder,
        )
        return cls

    return decorate


def get_algorithm(name: str) -> AlgorithmInfo:
    """Look up a registered algorithm; raise with the known names otherwise."""
    _ensure_builtins()
    try:
        return _ALGORITHMS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown algorithm {name!r}; choose from {algorithm_names()}"
        ) from None


def get_scheduler(name: str) -> SchedulerInfo:
    """Look up a registered scheduler; raise with the known names otherwise."""
    _ensure_builtins()
    try:
        return _SCHEDULERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scheduler {name!r}; choose from {scheduler_names()}"
        ) from None


def algorithm_names(*, include_selftest: bool = False) -> List[str]:
    """Sorted registered algorithm names (self-test agents opt-in)."""
    _ensure_builtins()
    return sorted(
        name
        for name, info in _ALGORITHMS.items()
        if include_selftest or not info.selftest
    )


def scheduler_names() -> List[str]:
    """Sorted registered scheduler spec names."""
    _ensure_builtins()
    return sorted(_SCHEDULERS)


@dataclass(frozen=True)
class SchedulerSpec:
    """A parsed scheduler spec: canonical name plus typed arguments.

    ``args`` holds only the parameters the spec string pinned
    explicitly, as ``(canonical_name, value)`` pairs in the scheduler's
    declaration order — so equal specs compare equal and
    ``parse(format(spec)) == spec``.  Unpinned parameters fall back to
    their declared defaults (seed-like ones to the context seed) at
    :meth:`build` time.
    """

    name: str
    args: Tuple[Tuple[str, object], ...] = ()

    def arg_dict(self) -> Dict[str, object]:
        """The pinned arguments as a plain dict."""
        return dict(self.args)

    def describe(self) -> str:
        """The canonical spec string (see :func:`format_scheduler_spec`)."""
        return format_scheduler_spec(self)

    def build(self, seed: int = 0) -> object:
        """Instantiate the scheduler, filling unpinned seeds from ``seed``."""
        return get_scheduler(self.name).build(self.arg_dict(), seed=seed)


def parse_scheduler_spec(text: Union[str, SchedulerSpec]) -> SchedulerSpec:
    """Parse ``"name:key=value,key=value"`` into a canonical spec.

    Aliases resolve to canonical parameter names, values are typed per
    the declaration, duplicate keys are rejected, and the resulting
    argument tuple is ordered by declaration — the same spec string
    always produces the same (hashable, comparable) :class:`SchedulerSpec`.
    Passing an already parsed spec returns it unchanged (after
    re-validation against the registry).
    """
    if isinstance(text, SchedulerSpec):
        info = get_scheduler(text.name)
        for key, _ in text.args:
            info.param(key)
        return text
    if not isinstance(text, str) or not text.strip():
        raise ConfigurationError(
            f"bad scheduler spec {text!r}: expected 'name' or "
            "'name:key=value,...'"
        )
    name, _, arg_text = text.strip().partition(":")
    info = get_scheduler(name)
    pinned: Dict[str, object] = {}
    if arg_text:
        for chunk in arg_text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            key, sep, value_text = chunk.partition("=")
            if not sep or not key:
                raise ConfigurationError(
                    f"bad scheduler spec {text!r}: argument {chunk!r} is not "
                    "key=value"
                )
            param = info.param(key.strip())
            if param.name in pinned:
                raise ConfigurationError(
                    f"bad scheduler spec {text!r}: parameter {param.name!r} "
                    "given twice"
                )
            pinned[param.name] = param.parse(value_text.strip())
    args = tuple(
        (param.name, pinned[param.name])
        for param in info.params
        if param.name in pinned
    )
    return SchedulerSpec(name=info.name, args=args)


def format_scheduler_spec(spec: Union[str, SchedulerSpec]) -> str:
    """Print a spec back into its canonical string form.

    The canonical form uses canonical parameter names, declaration
    order, and no whitespace, so ``parse(format(parse(s))) ==
    parse(s)`` for every valid ``s``.
    """
    spec = parse_scheduler_spec(spec)
    if not spec.args:
        return spec.name
    info = get_scheduler(spec.name)
    parts = [
        f"{key}={info.param(key).format(value)}" for key, value in spec.args
    ]
    return f"{spec.name}:{','.join(parts)}"


def build_scheduler(spec: Union[str, SchedulerSpec], seed: int = 0) -> object:
    """One-call construction: parse (if needed) and instantiate.

    ``seed`` is the context seed filling any seed-like parameter the
    spec leaves unpinned; a ``seed=...`` inside the spec always wins.
    """
    return parse_scheduler_spec(spec).build(seed=seed)


def registry_dump() -> Dict[str, List[Dict[str, object]]]:
    """Machine-readable dump of both registries (``repro list --json``)."""
    _ensure_builtins()
    return {
        "algorithms": [
            _ALGORITHMS[name].to_dict()
            for name in algorithm_names(include_selftest=True)
        ],
        "schedulers": [
            _SCHEDULERS[name].to_dict() for name in scheduler_names()
        ],
    }
