"""In-process job manager behind the experiment service.

``POST /v1/jobs`` lands here: a submitted spec becomes a :class:`Job`
on a FIFO queue, and a small pool of daemon worker threads runs each
job through its kind's body in :data:`repro.jobs.KINDS`, the body the
matching CLI command calls, against the service's run store.  A job
therefore stores exactly what the CLI would (records keyed by spec
content hash, fuzz failures in ``<store>/failures/``): a sweep
submitted over HTTP digests byte-identically to the same ``repro
psweep``.  :meth:`JobManager.submit` validates the options against the
kind's declared ones and fills in the defaults, so a bad option fails
the submission, not the job.

Each worker thread only ever replaces its own job's ``progress`` dict
(assignment is atomic under the GIL), so ``GET /v1/jobs/{id}`` reads
live progress without blocking on a running job.
"""

from __future__ import annotations

import queue
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ReproError

__all__ = ["Job", "JobManager"]

#: Job lifecycle states, in order.
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"


@dataclass
class Job:
    """One submitted unit of service work and its live accounting."""

    id: str
    kind: str
    spec_hash: str
    spec: object
    options: Dict[str, object]
    state: str = QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    progress: Dict[str, object] = field(default_factory=dict)
    result: Optional[Dict[str, object]] = None
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "kind": self.kind,
            "spec_hash": self.spec_hash,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "progress": dict(self.progress),
            "result": self.result,
            "error": self.error,
        }


class JobManager:
    """A FIFO queue of jobs drained by daemon worker threads.

    One manager per server process; each worker thread opens its own
    :class:`~repro.store.RunStore` handle on the shared store root
    (handles are cheap — the SQLite index is shared on disk), so jobs
    never contend on a store handle with the HTTP read path.
    """

    def __init__(self, store_root: str, *, workers: int = 2) -> None:
        self.store_root = store_root
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue()
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._lock = threading.Lock()
        self._seq = 0
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"serve-job-{i}", daemon=True
            )
            for i in range(max(1, workers))
        ]
        for thread in self._threads:
            thread.start()

    # -- submission ----------------------------------------------------------

    def submit(self, kind: str, spec, options: Dict[str, object]) -> Job:
        from repro.jobs import get_kind

        options = get_kind(kind).check_options(options)
        spec_hash = spec.content_hash()
        with self._lock:
            self._seq += 1
            job = Job(
                id=f"job-{self._seq:04d}-{spec_hash[:12]}",
                kind=kind,
                spec_hash=spec_hash,
                spec=spec,
                options=options,
            )
            self._jobs[job.id] = job
            self._order.append(job.id)
        self._queue.put(job)
        return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def list(self) -> List[Job]:
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the workers after the jobs already running finish."""
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=timeout)

    # -- execution -----------------------------------------------------------

    def _worker(self) -> None:
        from repro.jobs import KINDS

        while True:
            job = self._queue.get()
            if job is None:
                return
            job.state = RUNNING
            job.started_at = time.time()

            def publish(update: Dict[str, object]) -> None:
                job.progress = update

            try:
                _, job.result = KINDS[job.kind].run(
                    job.spec, job.options, store_root=self.store_root,
                    progress=publish,
                )
                job.state = COMPLETED
            except ReproError as error:
                job.error = str(error)
                job.state = FAILED
            except Exception:
                job.error = traceback.format_exc(limit=8)
                job.state = FAILED
            finally:
                job.finished_at = time.time()
