"""One body per job kind, shared by the CLI and ``repro serve``.

:data:`KINDS` declares the four kinds — ``experiment``, ``sweep``,
``fuzz`` and ``campaign`` — once each: the spec class, the options the
service accepts (each with a type and a default) and the body.  A body,
``run(spec, options, *, store_root, progress, **cli_only)``, is the only
code that opens the run store for its kind, calls the library entry
point, archives fuzz failures and builds the JSON ``result``.  It
returns ``(outcome, result)``: the library's outcome object, which the
CLI renders, and the dict ``repro serve`` publishes as ``job.result``.
``progress`` goes to the subsystem unchanged, since every subsystem
publishes one flat dict per event (sweep ``{done, pending, total}``,
fuzz ``{runs, budget, coverage}``, campaign ``{events, last_event}``);
the body adds a last one with the final counters.  Serve publishes
each as ``job.progress``.
Arguments that only the CLI has (``validate_backend``, ``chaos``,
``install_signal_handlers``) are keywords of the body, never options.

Subsystem imports stay inside the bodies, so importing the service
loads no simulation, fuzzing or campaign code before a job needs it.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import CampaignInterrupted, ConfigurationError

__all__ = ["KINDS", "Kind", "Option", "OptionError", "get_kind"]

Progress = Optional[Callable[[Dict[str, object]], None]]

_JSON_TYPE = {bool: "boolean", int: "integer", str: "string"}


class OptionError(ConfigurationError):
    """A job option the kind does not accept; ``option`` names it."""

    def __init__(self, option: str, message: str) -> None:
        super().__init__(message)
        self.option = option


@dataclass(frozen=True)
class Option:
    """A job option, declared once for the service and the CLI flags.
    ``workers`` marks a process count, which must be at least 1 and, when
    ``cap`` is given, at most ``cap``."""

    type: type
    default: object
    choices: Tuple[str, ...] = ()
    workers: bool = False

    def check(self, name: str, value: object, cap: Optional[int] = None) -> object:
        if type(value) is not self.type:  # JSON true is not the integer 1
            wanted = f"a JSON {_JSON_TYPE[self.type]}"
        elif self.choices and value not in self.choices:
            wanted = f"one of {', '.join(self.choices)}"
        elif self.workers and not 1 <= value <= (cap or value):
            wanted = f"between 1 and {cap} (the host's CPU count)" if cap else ">= 1"
        else:
            return value
        raise OptionError(name, f"option {name!r} must be {wanted}, got {value!r}")


@dataclass(frozen=True)
class Kind:
    """A job kind: spec class (``"module:Class"``, imported on first
    use), service options and body."""

    name: str
    spec: str
    options: Mapping[str, Option]
    run: Callable[..., Tuple[object, Dict[str, object]]]

    def spec_class(self) -> type:
        module, _, name = self.spec.partition(":")
        return getattr(importlib.import_module(module), name)

    def check_options(
        self, options: Mapping[str, object], cap: Optional[int] = None
    ) -> Dict[str, object]:
        """``options`` validated and completed with the defaults.  The
        service passes its CPU count as ``cap``, since a pool forked for a
        client must fit the host; a CLI pool may oversubscribe."""
        unknown = sorted(set(options) - set(self.options))
        if unknown:
            raise OptionError(
                unknown[0], f"unknown option {unknown[0]!r} for {self.name} "
                f"jobs (accepted: {', '.join(self.options) or 'none'})",
            )
        return {
            name: option.check(name, options[name], cap) if name in options
            else option.default
            for name, option in self.options.items()
        }


def get_kind(name: str) -> Kind:
    """The kind called ``name``; an unknown name is a ConfigurationError."""
    if name not in KINDS:
        *others, last = KINDS
        raise ConfigurationError(
            f"unknown job kind {name!r} (expected {', '.join(others)} or {last})"
        )
    return KINDS[name]


def _publish(progress: Progress, update: Dict[str, object]) -> None:
    if progress is not None:
        progress(update)


def _open_store(store_root: Optional[str]):
    if store_root is None:
        return None
    from repro.store import RunStore

    return RunStore(store_root)


def experiment_job(spec, options, *, store_root=None, progress=None):
    store = _open_store(store_root)
    if store is None:
        from repro.experiments.runner import run_experiment

        outcome, hit = run_experiment(spec), False
    else:
        from repro.store import cached_run

        outcome, hit = cached_run(spec, store)
    _publish(progress, {"executed": int(not hit), "cached": int(hit)})
    return outcome, {
        "content_hash": spec.content_hash(), "cached": hit, "row": outcome.row(),
    }


def sweep_job(
    spec, options, *, store_root=None, progress=None, validate_backend=False
):
    from repro.experiments.sweep import execute_sweep

    store = _open_store(store_root)
    outcome = execute_sweep(
        spec, processes=options["processes"], store=store,
        resume=options["resume"], progress=progress,
        backend=options["backend"], validate_backend=validate_backend,
    )
    counts = {
        "total": outcome.total, "executed": outcome.executed,
        "cached": outcome.cached,
    }
    _publish(progress, {"done": outcome.executed, **counts})
    result = {"summary": outcome.describe(), **counts}
    if store is not None:
        store.refresh()  # records other writers archived meanwhile count too
        result["records"] = len(store)
    return outcome, result


def _archive_failures(store_root: Optional[str], outcome) -> List[str]:
    """Archive ``outcome``'s failures in the store; their hashes."""
    store = _open_store(store_root)
    if store is None:
        return []
    for failure in outcome.failures:
        store.failures.put(failure.content_hash, failure.to_dict())
    return [failure.content_hash for failure in outcome.failures]


def fuzz_job(spec, options, *, store_root=None, progress=None):
    """Failures are archived under ``<store>/failures/``, also those of
    an interrupted campaign."""
    from repro.fuzz import fuzz_parallel

    try:
        outcome = fuzz_parallel(
            spec, options["jobs"], keep_going=options["keep_going"],
            shrink=options["shrink"], progress=progress,
        )
    except CampaignInterrupted as interrupt:
        if interrupt.outcome is not None:
            _archive_failures(store_root, interrupt.outcome)
        raise
    archived = _archive_failures(store_root, outcome)
    _publish(progress, {
        "runs": outcome.runs, "budget": spec.budget, "states": outcome.states,
        "patterns": outcome.patterns, "failures": len(outcome.failures),
    })
    return outcome, {
        "summary": outcome.describe(), "runs": outcome.runs,
        "steps": outcome.steps, "states": outcome.states,
        "patterns": outcome.patterns, "complete": outcome.complete,
        "failures": archived,
    }


def campaign_job(
    spec, options, *, store_root, progress=None, chaos=None,
    install_signal_handlers=False,
):
    from repro.campaign import run_campaign

    outcome = run_campaign(
        spec, store_root, chaos=chaos, resume=options["resume"],
        progress=progress, install_signal_handlers=install_signal_handlers,
    )
    _publish(progress, {
        "events": outcome.events, "completed": outcome.completed,
        "cached": outcome.cached, "total": outcome.total,
        "quarantined": len(outcome.quarantined),
    })
    return outcome, {
        "summary": outcome.describe(), "total": outcome.total,
        "completed": outcome.completed, "cached": outcome.cached,
        "quarantined": len(outcome.quarantined),
        "failures": len(outcome.failures), "exit_code": outcome.exit_code,
    }


#: Every job kind, in the order the service lists them.
KINDS: Dict[str, Kind] = {
    kind.name: kind
    for kind in (
        Kind("experiment", "repro.spec:ExperimentSpec", {}, experiment_job),
        Kind("sweep", "repro.experiments.sweep:SweepSpec", {
            # A pool forked from a serve worker thread is opt-in.
            "processes": Option(int, 1, workers=True),
            "resume": Option(bool, True),
            "backend": Option(str, "object", choices=("object", "batch")),
        }, sweep_job),
        Kind("fuzz", "repro.fuzz:FuzzSpec", {
            "jobs": Option(int, 1, workers=True),
            "keep_going": Option(bool, False),
            "shrink": Option(bool, True),
        }, fuzz_job),
        Kind("campaign", "repro.campaign:CampaignSpec", {
            "resume": Option(bool, True),
        }, campaign_job),
    )
}
