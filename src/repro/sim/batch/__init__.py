"""Columnar batch-simulation backend (numpy state-as-columns engine).

The object engine in :mod:`repro.sim.engine` executes one trial at a
time, one Python-level atomic action at a time.  This package executes
*B synchronous trials of one (algorithm, n, k) cell as a single
vectorized batch*:

* agent state lives in ``(B, k)`` numpy columns (location codes, phase
  counters, token tallies, terminal flags),
* link queues are ``(B, n, k)`` ring buffers with head/length cursors,
* the two full-information agents of Algorithm 1 (``known_k_full``,
  ``known_n_full``) are rewritten as masked column updates over an
  explicit phase machine (:mod:`repro.sim.batch.kernels`),
* one ``sync`` round of every trial runs as one kernel call.

That is the only place batching wins: at large batch sizes the full
kernels under ``sync`` beat the object engine several times over, while
every other algorithm or scheduler family measured slower than the
object engine.  :func:`batch_supported` encodes that rule, and sweeps
run every declined cell on the object engine.

The object engine stays on as the *differential oracle*: on shared
seeds the batch backend reproduces the object engine's activation log,
Metrics and final positions bit for bit, and
:func:`repro.sim.batch.runner.run_batch` can sample-check that promise
(``validate=True``) on every production sweep.
"""

from repro.sim.batch.engine import BatchEngine
from repro.sim.batch.kernels import KERNELS
from repro.sim.batch.runner import batch_supported, run_batch

__all__ = ["BatchEngine", "KERNELS", "batch_supported", "run_batch"]
