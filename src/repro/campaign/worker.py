"""The campaign worker process: execute leased units, stream, heartbeat.

One worker is one OS process in the coordinator's fleet.  Its loop is
deliberately dumb — all protocol intelligence (leases, retries,
quarantine) lives in the coordinator; the worker just:

1. announces ``ready``, blocks on its inbox for a work unit,
2. starts a daemon heartbeat thread renewing its lease every
   ``heartbeat_interval`` seconds,
3. consults the :class:`~repro.campaign.chaos.ChaosPlan` (the fault it
   suffers, if any, is a pure function of unit key and attempt),
4. executes the unit, streaming results *directly* into the
   content-addressed store — workers write their own pid shards, so a
   SIGKILL can never tear another worker's records, and duplicate
   executions of the same deterministic unit collapse by content hash,
5. reports a compact ``done`` summary (never the bulky results — those
   are already durable) and goes back to ``ready``.

Fuzz shards additionally stream periodic **coverage deltas** so the
coordinator's campaign-global :class:`~repro.fuzz.coverage.CoverageMap`
compounds across workers while shards are still running.  Deltas are
chunked small: a worker SIGKILLed mid-message must not be able to
corrupt the shared result queue with a torn multi-page pipe write, so
no single message carries more than a few KB.

Message grammar (worker -> coordinator), all plain picklable tuples::

    ("ready",     worker_id)
    ("heartbeat", worker_id, unit_key)
    ("coverage",  worker_id, unit_key, state_keys, pattern_keys)
    ("done",      worker_id, unit_key, summary_dict)
    ("error",     worker_id, unit_key, message)

Coordinator -> worker (inbox): ``{"unit": ..., "attempt": ...,
"options": ...}`` dicts, or ``None`` to shut down cleanly.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Set

from repro.campaign.chaos import ChaosPlan
from repro.campaign.spec import WorkUnit

__all__ = ["worker_main"]

#: Max coverage keys per streamed delta message (keep pipe writes small
#: enough to stay atomic; see module docstring).
_COVERAGE_CHUNK = 400


class _Heartbeat:
    """Daemon thread renewing the worker's lease while a unit runs."""

    def __init__(self, outbox, worker_id: int, unit_key: str, interval: float):
        self._outbox = outbox
        self._worker_id = worker_id
        self._unit_key = unit_key
        self._interval = interval
        self.stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self.stop.wait(self._interval):
            try:
                self._outbox.put(
                    ("heartbeat", self._worker_id, self._unit_key)
                )
            except Exception:  # queue torn down mid-shutdown
                return

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop.set()


def _stream_coverage_delta(
    outbox,
    worker_id: int,
    unit_key: str,
    coverage,
    sent_states: Set[int],
    sent_patterns: Set[int],
) -> None:
    """Send the not-yet-sent coverage keys, in bounded chunks."""
    state_keys, pattern_keys = coverage.export_keys()
    new_states = [key for key in state_keys if key not in sent_states]
    new_patterns = [key for key in pattern_keys if key not in sent_patterns]
    while new_states or new_patterns:
        chunk_states = new_states[:_COVERAGE_CHUNK]
        chunk_patterns = new_patterns[:_COVERAGE_CHUNK]
        new_states = new_states[_COVERAGE_CHUNK:]
        new_patterns = new_patterns[_COVERAGE_CHUNK:]
        outbox.put(
            ("coverage", worker_id, unit_key, chunk_states, chunk_patterns)
        )
        sent_states.update(chunk_states)
        sent_patterns.update(chunk_patterns)


def _execute_cell(
    unit: WorkUnit, attempt: int, store, chaos: ChaosPlan, fault
) -> Dict[str, object]:
    """One sweep cell: run the experiment, archive the record."""
    from repro.experiments.runner import run_experiment
    from repro.spec import ExperimentSpec

    spec = ExperimentSpec.from_dict(unit.payload["spec"])
    result = run_experiment(spec)
    # The mid-cell crash window: the result exists only in this
    # process's memory until the put below commits it.
    chaos.inject(fault, "mid")
    record = result.to_record(spec)
    store.put(record)
    return {"kind": "cell", "uniform": bool(result.ok)}


def _execute_fuzz_shard(
    unit: WorkUnit,
    attempt: int,
    store,
    chaos: ChaosPlan,
    fault,
    *,
    outbox,
    worker_id: int,
    options: Dict[str, object],
) -> Dict[str, object]:
    """One fuzz shard campaign: run, stream coverage, archive failures."""
    from repro.fuzz.fuzzer import ScheduleFuzzer
    from repro.fuzz.spec import FuzzSpec

    shard = FuzzSpec.from_dict(unit.payload["spec"])
    sent_states: Set[int] = set()
    sent_patterns: Set[int] = set()
    stride = max(1, shard.budget // 8)

    fuzzer: Optional[ScheduleFuzzer] = None

    def on_progress(update: Dict[str, object]) -> None:
        if update["runs"] % stride == 0 and fuzzer is not None:
            _stream_coverage_delta(
                outbox, worker_id, unit.key, fuzzer.coverage,
                sent_states, sent_patterns,
            )

    fuzzer = ScheduleFuzzer(
        shard,
        keep_going=bool(options.get("keep_going", True)),
        shrink=bool(options.get("shrink", True)),
        progress=on_progress,
    )
    outcome = fuzzer.run()
    # Computed-but-uncommitted crash window, the shard analogue of the
    # mid-cell kill: the campaign ran, nothing reached the store yet.
    chaos.inject(fault, "mid")
    for failure in outcome.failures:
        store.failures.put(failure.content_hash, failure.to_dict())
    _stream_coverage_delta(
        outbox, worker_id, unit.key, fuzzer.coverage,
        sent_states, sent_patterns,
    )
    return {
        "kind": "fuzz-shard",
        "runs": outcome.runs,
        "steps": outcome.steps,
        "corpus_size": outcome.corpus_size,
        "complete": outcome.complete,
        "failures": [failure.to_dict() for failure in outcome.failures],
    }


def worker_main(
    worker_id: int,
    inbox,
    outbox,
    store_root: str,
    chaos_dict: Optional[Dict[str, object]],
    heartbeat_interval: float,
) -> None:
    """Entry point of one worker process (target of ``Process``)."""
    from repro.store import RunStore

    chaos = (
        ChaosPlan.from_dict(chaos_dict) if chaos_dict else ChaosPlan()
    )
    store = RunStore(store_root)
    outbox.put(("ready", worker_id))
    while True:
        message = inbox.get()
        if message is None:
            return
        unit = WorkUnit.from_dict(message["unit"])
        attempt = int(message["attempt"])
        options = message.get("options", {})
        fault = chaos.decide(unit.key, attempt)
        try:
            with _Heartbeat(
                outbox, worker_id, unit.key, heartbeat_interval
            ) as heartbeat:
                # `silence` stops this very heartbeat before sleeping;
                # `kill` at the start point never returns from here.
                chaos.inject(fault, "start", heartbeat_stop=heartbeat.stop)
                if unit.kind == "cell":
                    summary = _execute_cell(unit, attempt, store, chaos, fault)
                elif unit.kind == "fuzz-shard":
                    summary = _execute_fuzz_shard(
                        unit, attempt, store, chaos, fault,
                        outbox=outbox, worker_id=worker_id, options=options,
                    )
                else:
                    raise ValueError(f"unknown work unit kind {unit.kind!r}")
        except Exception as error:  # report, stay alive for the next unit
            outbox.put(("error", worker_id, unit.key, repr(error)))
        else:
            outbox.put(("done", worker_id, unit.key, summary))
        outbox.put(("ready", worker_id))
