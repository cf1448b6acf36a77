"""The experiment service: the run store behind a long-lived HTTP API.

Every consumer used to shell into the CLI and pay a full store open per
invocation; this package keeps one process resident against the archive
and serves everything over a versioned JSON API instead:

* :class:`~repro.serve.jobs.JobManager` — in-process execution of
  submitted ExperimentSpec/SweepSpec/FuzzSpec/CampaignSpec payloads on
  worker threads, through the CLI's own job bodies
  (:data:`repro.jobs.KINDS`), with live progress counters,
* :class:`~repro.serve.api.ServeApi` — the socket-free route layer
  (``/v1/jobs``, ``/v1/runs``, ``/v1/failures``, ``/v1/registry``,
  ``/v1/store/digest``); unit-testable without binding a port,
* :class:`~repro.serve.server.ServeDaemon` — the stdlib
  ``ThreadingHTTPServer`` shell (``repro serve``),
* :class:`~repro.serve.client.ServeClient` — the stdlib ``urllib``
  client (``repro submit`` / ``repro jobs``).

Core contract, pinned by tests and the CI ``serve-smoke`` job: a sweep
submitted over HTTP produces a store digest byte-identical to the same
sweep run via ``repro psweep`` — the service is a transport, never a
semantic fork.
"""

from repro.serve.api import ServeApi
from repro.serve.client import ServeClient, ServeError
from repro.serve.jobs import Job, JobManager
from repro.serve.server import ServeDaemon, serve_forever

__all__ = [
    "Job",
    "JobManager",
    "ServeApi",
    "ServeClient",
    "ServeDaemon",
    "ServeError",
    "serve_forever",
]
