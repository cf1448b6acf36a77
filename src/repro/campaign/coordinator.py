"""The campaign coordinator: leases out units, survives its workers.

``run_campaign`` drives a :class:`~repro.campaign.spec.CampaignSpec`
to completion against a fleet of worker processes that are *expected*
to die.  The protocol, end to end:

* units issue to ready workers under expiring leases
  (:class:`~repro.campaign.lease.LeaseTable`); workers heartbeat every
  quarter-TTL,
* a dead worker (SIGKILL, OOM, chaos) is noticed two ways — process
  death immediately, heartbeat silence within one TTL — and either way
  its unit re-enters the pending queue behind a deterministic
  exponential-backoff-with-jitter gate, and a replacement worker is
  spawned,
* a worker that heartbeats but never finishes (the slow loris) is
  caught by the per-unit wall-clock deadline, SIGKILLed and replaced,
* a unit that keeps failing is re-issued at most ``max_retries`` times
  and then **quarantined**: a poison artifact with its full lease
  history lands in ``<store>/quarantine/`` and the campaign moves on
  instead of looping forever,
* every protocol transition is journaled to the store's append-only
  :class:`~repro.store.campaigns.CampaignLedger`, which is also what
  ``resume=True`` reads to skip completed units (sweep cells are
  additionally skipped by run-store content hashes — belt and braces),
* fuzz shards stream coverage deltas that merge into one
  campaign-global :class:`~repro.fuzz.coverage.CoverageMap`, so
  coverage accounting compounds across the fleet instead of double
  counting,
* SIGINT/SIGTERM degrade gracefully: stop issuing, give in-flight
  units a short grace to land, tear the fleet down, and report
  per-unit accounting plus the exact resume command.

Every queue between coordinator and workers is *per worker*: a worker
SIGKILLed mid-message can corrupt or deadlock only its own channel,
which dies with it — never the fleet's.  Results never ride the queues
at all; workers write them straight into the content-addressed store,
where duplicate executions of deterministic units collapse by hash.
That is what makes the chaos acceptance test possible: a campaign
disturbed by arbitrary kills converges to a store byte-identical
(by :meth:`~repro.store.jsonl.RunStore.digest`) to an undisturbed
serial run's.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import signal
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.campaign.chaos import ChaosPlan
from repro.campaign.lease import (
    CACHED,
    COMPLETED,
    LEASED,
    PENDING,
    QUARANTINED,
    LeaseTable,
    UnitTracker,
)
from repro.campaign.spec import CampaignSpec, WorkUnit
from repro.errors import ProvenanceWarning, ReproError
from repro.fuzz.coverage import CoverageMap
from repro.store import RunRecord, RunStore, env_fingerprint

__all__ = ["CampaignOutcome", "run_campaign"]

#: Coordinator loop tick (seconds): queue poll + expiry check cadence.
_TICK = 0.02

#: Grace given to in-flight units on SIGINT/SIGTERM before teardown.
_SHUTDOWN_GRACE = 5.0


@dataclass
class CampaignOutcome:
    """Everything one campaign invocation did (the accounting object)."""

    spec: CampaignSpec
    total: int
    completed: int
    cached: int
    quarantined: List[Dict[str, object]]  # per-unit reports
    reissues: int
    worker_deaths: int
    stale_results: int
    failures: Tuple[Dict[str, object], ...]  # fuzz FailureCase dicts
    fuzz_runs: int
    fuzz_steps: int
    coverage_states: int
    coverage_patterns: int
    interrupted: bool
    resume_command: str
    unit_reports: List[Dict[str, object]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Fully converged: nothing quarantined, nothing interrupted,
        no property violations found."""
        return not (self.quarantined or self.interrupted or self.failures)

    @property
    def exit_code(self) -> int:
        """CLI convention: 0 converged clean, 1 quarantine/violations,
        130 interrupted."""
        if self.interrupted:
            return 130
        return 0 if self.ok else 1

    def describe(self) -> str:
        parts = [
            f"{self.total} unit(s): {self.completed} completed, "
            f"{self.cached} cached, {len(self.quarantined)} quarantined"
        ]
        parts.append(
            f"{self.reissues} re-issue(s), {self.worker_deaths} worker "
            f"death(s), {self.stale_results} stale result(s)"
        )
        if self.fuzz_runs:
            parts.append(
                f"fuzz: {self.fuzz_runs} runs, {self.fuzz_steps} actions, "
                f"{self.coverage_states} canonical states, "
                f"{self.coverage_patterns} enabled patterns, "
                f"{len(self.failures)} failure(s)"
            )
        return "; ".join(parts)


class _Fleet:
    """The worker processes plus their per-worker channels."""

    def __init__(
        self,
        spec: CampaignSpec,
        store_root: str,
        chaos: Optional[ChaosPlan],
    ) -> None:
        self._spec = spec
        self._store_root = store_root
        self._chaos_dict = chaos.to_dict() if chaos else None
        self._context = multiprocessing.get_context()
        self._next_id = 0
        self.procs: Dict[int, multiprocessing.Process] = {}
        self.inboxes: Dict[int, object] = {}
        self.outboxes: Dict[int, object] = {}
        self.deaths = 0

    def spawn(self) -> int:
        from repro.campaign.worker import worker_main

        worker_id = self._next_id
        self._next_id += 1
        inbox = self._context.Queue()
        outbox = self._context.Queue()
        proc = self._context.Process(
            target=worker_main,
            args=(
                worker_id,
                inbox,
                outbox,
                self._store_root,
                self._chaos_dict,
                self._spec.heartbeat_interval,
            ),
            daemon=True,
        )
        proc.start()
        self.procs[worker_id] = proc
        self.inboxes[worker_id] = inbox
        self.outboxes[worker_id] = outbox
        return worker_id

    def kill(self, worker_id: int) -> None:
        """SIGKILL one worker and discard its (possibly torn) channels."""
        proc = self.procs.pop(worker_id, None)
        if proc is None:
            return
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=2.0)
        self.inboxes.pop(worker_id, None)
        outbox = self.outboxes.pop(worker_id, None)
        if outbox is not None:
            outbox.cancel_join_thread()
        self.deaths += 1

    def drain(self) -> List[Tuple]:
        """Every pending worker message, per-worker FIFO order."""
        messages: List[Tuple] = []
        for worker_id in list(self.outboxes):
            outbox = self.outboxes[worker_id]
            while True:
                try:
                    messages.append(outbox.get_nowait())
                except queue_module.Empty:
                    break
                except (EOFError, OSError):  # torn channel of a dead worker
                    break
        return messages

    def shutdown(self) -> None:
        """Clean stop: poison pills, short join, then force-kill."""
        for worker_id, inbox in list(self.inboxes.items()):
            try:
                inbox.put(None)
            except (ValueError, OSError):
                pass
        deadline = time.monotonic() + 2.0
        for proc in self.procs.values():
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for worker_id in list(self.procs):
            proc = self.procs[worker_id]
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
        for outbox in self.outboxes.values():
            outbox.cancel_join_thread()
        self.procs.clear()
        self.inboxes.clear()
        self.outboxes.clear()


def _warn_foreign_provenance(records: List[RunRecord]) -> None:
    """Satellite: archived records reused by --resume must not silently
    mix environments with freshly computed ones."""
    if not records:
        return
    current = env_fingerprint()
    foreign = 0
    examples: Dict[Tuple[Tuple[str, str], ...], int] = {}
    for record in records:
        if record.env and record.env != current:
            foreign += 1
            key = tuple(sorted(record.env.items()))
            examples[key] = examples.get(key, 0) + 1
    if foreign:
        details = "; ".join(
            f"{count} from {dict(env)}" for env, count in sorted(examples.items())
        )
        warnings.warn(
            f"campaign resume reuses {foreign} archived unit(s) computed "
            f"under a different environment than the current {current} "
            f"({details}); pass resume=False to recompute",
            ProvenanceWarning,
            stacklevel=3,
        )


def run_campaign(
    spec: CampaignSpec,
    store_root: str,
    *,
    chaos: Optional[ChaosPlan] = None,
    resume: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    stop_when: Optional[Callable[[Dict[str, int]], bool]] = None,
    install_signal_handlers: bool = False,
) -> CampaignOutcome:
    """Run ``spec`` to convergence against a fault-tolerant worker fleet.

    ``chaos`` injects deterministic worker faults (tests/CI only).
    ``resume`` skips units already completed per the store + ledger.
    ``progress`` receives one human-readable line per notable event.
    ``stop_when`` is polled each tick with the current counts — return
    True to trigger the same graceful shutdown as SIGINT (tests use
    this to exercise interruption deterministically).
    ``install_signal_handlers`` converts SIGINT/SIGTERM into that
    graceful shutdown (CLI foreground mode); leave False in library or
    test contexts.
    """
    units = spec.build_units()
    if not units:
        raise ReproError("campaign has no work units")
    by_key: Dict[str, WorkUnit] = {unit.key: unit for unit in units}
    store = RunStore(store_root)
    work_hash = spec.work_hash()
    ledger = store.campaign_ledger(work_hash)

    # Persist the spec beside the ledger so the resume command is exact.
    spec_path = ledger.root / f"{work_hash}.spec.json"
    if not spec_path.exists():
        spec_path.write_text(spec.to_json() + "\n", encoding="utf-8")
    resume_command = (
        f"repro campaign --spec {spec_path} --store {store_root} --resume"
    )

    tracker = UnitTracker(
        [unit.key for unit in units],
        max_retries=spec.max_retries,
        backoff_base=spec.backoff_base,
        backoff_cap=spec.backoff_cap,
    )
    leases = LeaseTable(ttl=spec.lease_ttl, unit_timeout=spec.unit_timeout)
    coverage = CoverageMap()

    def note(text: str) -> None:
        if progress is not None:
            progress(text)

    # -- resume: mark already-finished units cached --------------------------
    if resume:
        store.refresh()
        finished = ledger.completed_units()
        previously_quarantined = ledger.quarantined_units()
        cells = [unit.key for unit in units if unit.kind == "cell"]
        archived = dict(zip(cells, store.get_many(cells, default=None)))
        cached_records: List[RunRecord] = []
        for unit in units:
            record = archived.get(unit.key)
            if unit.kind == "cell" and record is not None:
                tracker.on_cached(unit.key)
                cached_records.append(record)
            elif unit.key in finished:
                tracker.on_cached(unit.key)
        _warn_foreign_provenance(cached_records)
        retrying = previously_quarantined & set(tracker.in_state(PENDING))
        if retrying:
            note(
                f"retrying {len(retrying)} previously quarantined unit(s) "
                f"with a fresh retry budget"
            )

    ledger.append(
        "begin",
        campaign=spec.content_hash(),
        units=len(units),
        cached=len(tracker.in_state(CACHED)),
        resume=resume,
        chaos=chaos.describe() if chaos else None,
    )

    # -- state shared by the loop --------------------------------------------
    fleet = _Fleet(spec, store_root, chaos)
    ready: List[int] = []
    assignment: Dict[int, str] = {}  # worker -> unit key in flight
    summaries: Dict[str, Dict[str, object]] = {}  # unit key -> done summary
    stale_results = 0
    interrupted = False

    previous_handlers = {}
    if install_signal_handlers:

        def _on_signal(signum, frame):
            nonlocal interrupted
            interrupted = True

        for signum in (signal.SIGINT, signal.SIGTERM):
            previous_handlers[signum] = signal.signal(signum, _on_signal)

    def fail_attempt(unit_key: str, cause: str) -> None:
        """One execution attempt ended without completion."""
        leases.revoke(unit_key)
        new_state = tracker.on_expire(unit_key, cause)
        ledger.append("expire", unit=unit_key, cause=cause, state=new_state)
        if new_state == QUARANTINED:
            report = tracker.report(unit_key)
            unit = by_key[unit_key]
            store.quarantine.put(
                unit_key,
                {
                    "content_hash": unit_key,
                    "unit": unit.to_dict(),
                    "campaign": spec.content_hash(),
                    "work_hash": work_hash,
                    "report": report,
                    "chaos": chaos.to_dict() if chaos else None,
                },
            )
            ledger.append("quarantine", unit=unit_key, attempts=report["attempts"])
            note(f"QUARANTINED {unit.label} after {report['attempts']} attempt(s)")
        else:
            note(f"re-issuing {by_key[unit_key].label} ({cause})")

    def handle(message: Tuple) -> None:
        nonlocal stale_results
        kind = message[0]
        if kind == "ready":
            worker_id = message[1]
            if worker_id in fleet.procs and worker_id not in ready:
                ready.append(worker_id)
        elif kind == "heartbeat":
            _, worker_id, unit_key = message
            leases.renew(unit_key, worker_id)
        elif kind == "coverage":
            _, _, _, state_keys, pattern_keys = message
            coverage.merge_keys(state_keys, pattern_keys)
        elif kind == "done":
            _, worker_id, unit_key, summary = message
            if leases.release(unit_key, worker_id):
                assignment.pop(worker_id, None)
                tracker.on_complete(unit_key)
                summaries[unit_key] = summary
                ledger.append("complete", unit=unit_key, worker=worker_id)
                counts = tracker.counts()
                note(
                    f"completed {by_key[unit_key].label} "
                    f"({counts[COMPLETED] + counts[CACHED]}/{len(units)})"
                )
            else:
                # A zombie attempt finished after its lease expired.  The
                # store already absorbed its (identical, content-addressed)
                # records; protocol credit stays with the live holder.
                stale_results += 1
                ledger.append("stale-done", unit=unit_key, worker=worker_id)
        elif kind == "error":
            _, worker_id, unit_key, text = message
            lease = leases.holder(unit_key)
            if lease is not None and lease.worker == worker_id:
                assignment.pop(worker_id, None)
                fail_attempt(unit_key, f"worker-error:{text}")

    # -- main loop -----------------------------------------------------------
    try:
        if not tracker.done:  # fully-cached resumes need no fleet at all
            for _ in range(spec.workers):
                fleet.spawn()

        while not tracker.done:
            if interrupted or (
                stop_when is not None and stop_when(tracker.counts())
            ):
                interrupted = True
                break

            # Dead workers: immediate expiry of their in-flight unit.
            for worker_id in [
                wid for wid, proc in fleet.procs.items() if not proc.is_alive()
            ]:
                unit_key = assignment.pop(worker_id, None)
                fleet.kill(worker_id)
                if worker_id in ready:
                    ready.remove(worker_id)
                ledger.append("worker-death", worker=worker_id, unit=unit_key)
                if unit_key is not None and unit_key in leases:
                    fail_attempt(unit_key, "worker-death")

            # Expired leases: silence or wall-clock overrun.  The holder
            # is not making progress — kill it and replace it.
            for lease in leases.expired():
                cause = lease.expiry_cause(time.monotonic())
                worker_id = lease.worker
                assignment.pop(worker_id, None)
                if worker_id in ready:
                    ready.remove(worker_id)
                fleet.kill(worker_id)
                ledger.append(
                    "lease-expired", unit=lease.unit_key, worker=worker_id,
                    cause=cause, attempt=lease.attempt,
                )
                fail_attempt(lease.unit_key, cause)

            for message in fleet.drain():
                handle(message)

            # Keep the fleet at strength while issuable work remains.
            outstanding = len(tracker.in_state(PENDING)) + len(
                tracker.in_state(LEASED)
            )
            while len(fleet.procs) < min(spec.workers, max(outstanding, 1)):
                fleet.spawn()

            while ready:
                unit_key = tracker.next_issuable()
                if unit_key is None:
                    break
                worker_id = ready.pop(0)
                if worker_id not in fleet.procs:
                    continue
                attempt = tracker.on_issue(unit_key)
                leases.issue(unit_key, worker_id, attempt)
                assignment[worker_id] = unit_key
                fleet.inboxes[worker_id].put(
                    {
                        "unit": by_key[unit_key].to_dict(),
                        "attempt": attempt,
                        "options": {"keep_going": True, "shrink": True},
                    }
                )
                ledger.append(
                    "issue", unit=unit_key, worker=worker_id, attempt=attempt
                )

            time.sleep(_TICK)

        if interrupted and assignment:
            # Graceful degradation: let in-flight units land within a
            # short grace window so their records are not wasted.
            grace_deadline = time.monotonic() + min(
                _SHUTDOWN_GRACE, spec.unit_timeout
            )
            note(
                f"interrupted: waiting up to "
                f"{min(_SHUTDOWN_GRACE, spec.unit_timeout):.1f}s for "
                f"{len(assignment)} in-flight unit(s)"
            )
            while assignment and time.monotonic() < grace_deadline:
                for message in fleet.drain():
                    handle(message)
                time.sleep(_TICK)
    finally:
        fleet.shutdown()
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)

    # -- accounting ----------------------------------------------------------
    counts = tracker.counts()
    quarantined_reports = [
        tracker.report(key) for key in tracker.in_state(QUARANTINED)
    ]
    failures: List[Dict[str, object]] = []
    seen_failure_hashes = set()
    fuzz_runs = fuzz_steps = 0
    for unit in units:  # canonical unit order keeps reports deterministic
        summary = summaries.get(unit.key)
        if not summary or summary.get("kind") != "fuzz-shard":
            continue
        fuzz_runs += int(summary.get("runs", 0))
        fuzz_steps += int(summary.get("steps", 0))
        for failure in summary.get("failures", []):
            failure_hash = failure.get("content_hash")
            if failure_hash not in seen_failure_hashes:
                seen_failure_hashes.add(failure_hash)
                failures.append(failure)

    ledger.append(
        "end",
        completed=counts[COMPLETED],
        cached=counts[CACHED],
        quarantined=counts[QUARANTINED],
        reissues=counts["reissues"],
        worker_deaths=fleet.deaths,
        interrupted=interrupted,
    )

    return CampaignOutcome(
        spec=spec,
        total=len(units),
        completed=counts[COMPLETED],
        cached=counts[CACHED],
        quarantined=quarantined_reports,
        reissues=counts["reissues"],
        worker_deaths=fleet.deaths,
        stale_results=stale_results,
        failures=tuple(failures),
        fuzz_runs=fuzz_runs,
        fuzz_steps=fuzz_steps,
        coverage_states=coverage.states,
        coverage_patterns=coverage.patterns,
        interrupted=interrupted,
        resume_command=resume_command,
        unit_reports=[tracker.report(unit.key) for unit in units],
    )
