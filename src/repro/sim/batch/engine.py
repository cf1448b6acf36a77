"""The columnar batch engine: B synchronous trials of one cell as numpy columns.

One :class:`BatchEngine` advances *every* trial of one (algorithm, n,
k) cell under the ``sync`` scheduler together.  The per-trial state the
object engine keeps in Python objects becomes arrays:

==================  ==========  ==========================================
column              shape       object-engine counterpart
==================  ==========  ==========================================
``loc``             (B, k)      ``Ring.locations`` (same code: node index
                                for halted agents, ``-(node+1)`` while
                                queued toward ``node``)
``halted``          (B, k)      ``Agent._halted``
``enabled``         (B, k)      ``Engine._enabled``
``tokens``          (B, n)      ``Ring.tokens``
``qbuf/qhead/qlen`` (B, n, k)   ``Ring.queues[node]`` as a ring buffer
``steps``           (B,)        ``Engine._steps``
==================  ==========  ==========================================

The kernels (:mod:`repro.sim.batch.kernels`) cover the two
full-information agents of Algorithm 1, whose every action moves or
halts.  So every enabled agent is the head of a link queue, nobody
messages, suspends or reads the co-located agents, and a halted agent
never acts again.

One object-engine ``sync`` batch is the sorted enabled list, re-checked
per entry.  Because the round's entries are independent for these
agents, :meth:`BatchEngine._fused_round` runs a whole round of every
trial as one multi-entry kernel call.  When a round could hit some
trial's step budget, the round instead dispatches agent column by agent
column through :meth:`BatchEngine._dispatch`, a replay of
:meth:`repro.sim.engine.Engine._activate` with an exact per-action
budget check: budget, dequeue, kernel transition, token release,
move/halt, metrics and the ``steps % interval == 0 or halt`` memory
audit, in that order.

A trial that exhausts its step budget is quarantined: its columns
freeze, the recorded exception — message-identical to the object
engine's — is re-raised when the trial's result is materialised, and
every other trial runs on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.verification import VerificationReport, verify_positions
from repro.errors import (
    ConfigurationError,
    SimulationError,
    SimulationLimitExceeded,
)
from repro.ring.placement import Placement
from repro.sim.batch.kernels import KERNELS
from repro.sim.engine import _default_step_budget
from repro.sim.metrics import Metrics
from repro.sim.scheduler import Scheduler, SynchronousScheduler

__all__ = ["BatchEngine"]


def _sub(asel: Union[int, np.ndarray], mask: np.ndarray):
    """Restrict an agent selector to a boolean mask over the dispatch."""
    return asel if isinstance(asel, int) else asel[mask]


class BatchEngine:
    """Drive B synchronous trials of one algorithm cell to quiescence."""

    def __init__(
        self,
        algorithm: str,
        placements: Sequence[Placement],
        schedulers: Sequence[Scheduler],
        max_steps: Sequence[Optional[int]],
        memory_audit_interval: int = 16,
        collect_metrics: bool = True,
        record_log: bool = False,
    ) -> None:
        if algorithm not in KERNELS:
            raise ConfigurationError(
                f"algorithm {algorithm!r} has no batch kernel "
                f"(available: {sorted(KERNELS)})"
            )
        if not placements:
            raise ConfigurationError("a batch needs at least one trial")
        if not (len(placements) == len(schedulers) == len(max_steps)):
            raise ConfigurationError(
                "placements, schedulers and max_steps must align per trial"
            )
        if not all(isinstance(s, SynchronousScheduler) for s in schedulers):
            raise ConfigurationError(
                "the batch engine runs synchronous schedules only"
            )
        n = placements[0].ring_size
        k = placements[0].agent_count
        for placement in placements:
            if placement.ring_size != n or placement.agent_count != k:
                raise ConfigurationError(
                    "all trials of one batch must share (n, k); got "
                    f"{placement.ring_size}x{placement.agent_count} vs {n}x{k}"
                )
        if memory_audit_interval < 1:
            raise ConfigurationError("memory audit interval must be >= 1")
        B = len(placements)
        self.B, self.n, self.k = B, n, k
        self.algorithm = algorithm
        self.placements = list(placements)
        self.schedulers = list(schedulers)
        self.collect_metrics = collect_metrics
        self.audit_interval = memory_audit_interval
        self.record_log = record_log
        self.logs: List[List[int]] = [[] for _ in range(B)] if record_log else []
        self.kernel = KERNELS[algorithm](B, k, n)

        default_budget = _default_step_budget(n, k)
        self.budget = np.array(
            [default_budget if m is None else int(m) for m in max_steps],
            dtype=np.int64,
        )
        self.steps = np.zeros(B, dtype=np.int64)
        # Budget checks are elided while this per-dispatch upper bound on
        # any trial's step count stays within the smallest budget.
        self._dispatches = 0
        self._budget_min = int(self.budget.min())

        # -- ring + agent columns ---------------------------------------
        homes = np.array([p.homes for p in placements], dtype=np.int64)  # (B, k)
        self.loc = -(homes + 1)  # C0: everyone queued toward home
        self.halted = np.zeros((B, k), dtype=bool)
        self.tokens = np.zeros((B, n), dtype=np.int64)
        self.qbuf = np.zeros((B, n, k), dtype=np.int64)
        self.qhead = np.zeros((B, n), dtype=np.int64)
        self.qlen = np.zeros((B, n), dtype=np.int64)
        # Homes are distinct per placement, so every initial queue holds
        # exactly one agent and every agent starts as a queue head.
        t_grid = np.arange(B, dtype=np.int64)
        agent_ids = np.tile(np.arange(k, dtype=np.int64), B)
        self.qbuf[np.repeat(t_grid, k), homes.reshape(-1), 0] = agent_ids
        self.qlen[np.repeat(t_grid, k), homes.reshape(-1)] = 1
        self.enabled = np.ones((B, k), dtype=bool)
        self.enabled_count = np.full(B, k, dtype=np.int64)

        self.failed = np.zeros(B, dtype=bool)
        self.failures: Dict[int, BaseException] = {}
        self.active = np.ones(B, dtype=bool)

        # -- metrics columns --------------------------------------------
        self.m_moves = np.zeros((B, k), dtype=np.int64)
        self.m_activations = np.zeros((B, k), dtype=np.int64)
        self.m_mem = np.zeros((B, k), dtype=np.int64)
        self.m_mem_seen = np.zeros((B, k), dtype=bool)
        self.m_tokens = np.zeros(B, dtype=np.int64)
        self.m_rounds = np.zeros(B, dtype=np.int64)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def _refresh_active(self) -> None:
        np.greater(self.enabled_count, 0, out=self.active)
        self.active &= ~self.failed

    def run(self) -> None:
        """Run every trial to quiescence (or individual failure).

        Iterating agent columns in id order over a round-start snapshot
        of the enabled set is the object ``sync`` batch order per trial.
        """
        enabled = self.enabled
        while True:
            round_trials = np.flatnonzero(self.active)
            if round_trials.size == 0:
                return
            if self._fused_round():
                self._refresh_active()
                continue
            snapshot = enabled.copy()
            for agent in range(self.k):
                t_sel = np.flatnonzero(snapshot[:, agent] & enabled[:, agent])
                if t_sel.size:
                    self._dispatch(t_sel, agent)
            if self.collect_metrics:
                survived = round_trials[~self.failed[round_trials]]
                self.m_rounds[survived] += 1
            self._refresh_active()

    def _fused_round(self) -> bool:
        """One whole sync round as a single multi-entry dispatch.

        Every enabled agent is the head of a single-occupancy queue and
        either moves or halts, so dequeuing everyone first and enqueuing
        all movers at the post-dequeue heads reaches the exact
        end-of-round state the per-agent dispatch sequence would, and
        the final enabled set is exactly the mover set.  Per-agent step
        numbers (for the memory audit) are the agent's rank in its
        trial's round, as the column-by-column path would assign them.

        Returns ``False`` without touching state when any trial could
        hit its step budget this round — the caller then runs the
        round through the per-column path, which performs exact
        per-action budget checks.
        """
        k = self.k
        if int(self.steps.max()) + k > self._budget_min:
            return False
        # (te, ae) is the round-start enabled set in row-major order —
        # exactly the per-trial sorted batch the object sync scheduler
        # issues.  All reads below use these index arrays, so the
        # end-of-round scatters into `self.enabled` cannot alias them.
        te, ae = np.nonzero(self.enabled)
        if te.size == 0:
            return True
        cnt = np.bincount(te, minlength=self.B)
        starts = np.cumsum(cnt) - cnt  # first entry index per trial
        if self.record_log:
            logs = self.logs
            for t in np.flatnonzero(cnt).tolist():
                first = starts[t]
                logs[t].extend(ae[first : first + cnt[t]].tolist())
        if self.collect_metrics:
            # Entry j of trial t acts at step steps[t] + (rank of j in
            # the trial's round), matching per-column dispatch order.
            steps_now = self.steps[te] + (
                np.arange(te.size, dtype=np.int64) - starts[te] + 1
            )
        self.steps += cnt
        self._dispatches += k

        node = -self.loc[te, ae] - 1
        self.qlen[te, node] = 0
        qh = self.qhead[te, node] + 1
        qh[qh == k] = 0
        self.qhead[te, node] = qh

        move, release, halt = self.kernel.step(te, ae, self.tokens[te, node])

        if release.any():
            rel_t, rel_node = te[release], node[release]
            self.tokens[rel_t, rel_node] += 1
            if self.collect_metrics:
                # several entries of one trial may release in one round
                self.m_tokens += np.bincount(rel_t, minlength=self.B)
        if move.any():
            mv_t, mv_a = te[move], ae[move]
            dest = node[move] + 1
            dest[dest == self.n] = 0
            tail = self.qhead[mv_t, dest]  # post-dequeue head, len 0
            self.qbuf[mv_t, dest, tail] = mv_a
            self.qlen[mv_t, dest] = 1
            self.loc[mv_t, mv_a] = -(dest + 1)
            if self.collect_metrics:
                self.m_moves[mv_t, mv_a] += 1
        if halt.any():
            h_t, h_a = te[halt], ae[halt]
            self.halted[h_t, h_a] = True
            self.loc[h_t, h_a] = node[halt]

        # The post-round enabled set is exactly the mover set: clear the
        # non-movers (every (te, ae) entry was enabled at round start).
        stopped = ~move
        self.enabled[te[stopped], ae[stopped]] = False
        self.enabled_count = np.bincount(te[move], minlength=self.B)
        if self.collect_metrics:
            self.m_activations[te, ae] += 1
            self._audit(te, ae, steps_now, halt)
            self.m_rounds += cnt > 0
        return True

    def _fail(self, trial: int, error: BaseException) -> None:
        self.failed[trial] = True
        self.failures.setdefault(trial, error)
        self.enabled[trial, :] = False
        self.enabled_count[trial] = 0

    # ------------------------------------------------------------------
    # One vectorized atomic action per trial
    # ------------------------------------------------------------------

    def _dispatch(self, t_arr: np.ndarray, asel: Union[int, np.ndarray]) -> None:
        """Replay ``Engine._activate`` for the (t_arr[i], asel[i]) pairs.

        ``asel`` is an agent-id array or one agent id for every trial.
        Callers guarantee at most one entry per trial, so every
        fancy-indexed in-place update below touches distinct elements.
        """
        n, k = self.n, self.k
        self.steps[t_arr] += 1
        steps_now = self.steps[t_arr]
        if self.record_log:
            agents = [asel] * t_arr.size if isinstance(asel, int) else asel.tolist()
            for t, a in zip(t_arr.tolist(), agents):
                self.logs[t].append(a)
        self._dispatches += 1
        if self._dispatches > self._budget_min:
            over = steps_now > self.budget[t_arr]
            if over.any():
                for t in t_arr[over].tolist():
                    self._fail(
                        t,
                        SimulationLimitExceeded(
                            f"exceeded {self.budget[t]} atomic actions without "
                            f"quiescence (n={n}, k={k}, "
                            f"scheduler={self.schedulers[t].describe()})"
                        ),
                    )
                keep = ~over
                t_arr = t_arr[keep]
                asel = _sub(asel, keep)
                steps_now = steps_now[keep]
                if t_arr.size == 0:
                    return

        self.enabled[t_arr, asel] = False
        self.enabled_count[t_arr] -= 1

        # Every enabled agent heads the queue toward its node: dequeue it
        # and enable the agent behind it, if any.
        node = -self.loc[t_arr, asel] - 1
        new_len = self.qlen[t_arr, node] - 1
        self.qlen[t_arr, node] = new_len
        qh = self.qhead[t_arr, node] + 1
        qh[qh == k] = 0
        self.qhead[t_arr, node] = qh
        has_next = new_len > 0
        if has_next.any():
            next_t = t_arr[has_next]
            heads = self.qbuf[next_t, node[has_next], qh[has_next]]
            self.enabled[next_t, heads] = True
            self.enabled_count[next_t] += 1

        move, release, halt = self.kernel.step(t_arr, asel, self.tokens[t_arr, node])

        if release.any():
            rel_t = t_arr[release]
            self.tokens[rel_t, node[release]] += 1
            if self.collect_metrics:
                self.m_tokens[rel_t] += 1
        if move.any():
            dest = node[move] + 1
            dest[dest == n] = 0
            mv_t, mv_a = t_arr[move], _sub(asel, move)
            self.loc[mv_t, mv_a] = -(dest + 1)
            old_len = self.qlen[mv_t, dest]
            tail = self.qhead[mv_t, dest] + old_len
            tail[tail >= k] -= k
            self.qbuf[mv_t, dest, tail] = mv_a
            self.qlen[mv_t, dest] = old_len + 1
            is_head = old_len == 0
            if is_head.any():
                self.enabled[mv_t[is_head], _sub(mv_a, is_head)] = True
                self.enabled_count[mv_t[is_head]] += 1
            if self.collect_metrics:
                self.m_moves[mv_t, mv_a] += 1
        if halt.any():
            h_t, h_a = t_arr[halt], _sub(asel, halt)
            self.halted[h_t, h_a] = True
            self.loc[h_t, h_a] = node[halt]

        if self.collect_metrics:
            self.m_activations[t_arr, asel] += 1
            self._audit(t_arr, asel, steps_now, halt)

    def _audit(
        self,
        t_arr: np.ndarray,
        asel: Union[int, np.ndarray],
        steps_now: np.ndarray,
        halt: np.ndarray,
    ) -> None:
        """The object engine's memory audit: every ``interval`` steps and
        on halting, raise the agent's high-water memory mark."""
        audit = steps_now % self.audit_interval == 0
        audit |= halt
        if audit.any():
            aud_t, aud_a = t_arr[audit], _sub(asel, audit)
            bits = self.kernel.memory_bits(aud_t, aud_a)
            self.m_mem[aud_t, aud_a] = np.maximum(self.m_mem[aud_t, aud_a], bits)
            self.m_mem_seen[aud_t, aud_a] = True

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------

    def metrics_for(self, trial: int) -> Metrics:
        """Rebuild the object-engine :class:`Metrics` of one trial.

        Dict keys appear exactly when the object engine would have
        created them (first move / first activation / first audit).
        """
        metrics = Metrics()
        metrics.moves_per_agent = {
            a: int(v) for a, v in enumerate(self.m_moves[trial]) if v > 0
        }
        metrics.activations_per_agent = {
            a: int(v) for a, v in enumerate(self.m_activations[trial]) if v > 0
        }
        metrics.memory_bits_per_agent = {
            a: int(self.m_mem[trial, a])
            for a in range(self.k)
            if self.m_mem_seen[trial, a]
        }
        metrics.tokens_released = int(self.m_tokens[trial])
        if self.m_rounds[trial]:
            metrics.rounds = int(self.m_rounds[trial])
        return metrics

    def activation_log_for(self, trial: int) -> Tuple[int, ...]:
        if not self.record_log:
            raise SimulationError("engine built without record_log=True")
        return tuple(self.logs[trial])

    def final_positions_for(self, trial: int) -> Dict[int, int]:
        codes = self.loc[trial]
        if (codes < 0).any():
            stuck = int(np.flatnonzero(codes < 0)[0])
            raise SimulationError(
                f"agent {stuck} is still in transit toward node "
                f"{-int(codes[stuck]) - 1}"
            )
        return {a: int(codes[a]) for a in range(self.k)}

    def report_for(self, trial: int) -> VerificationReport:
        """Replay :func:`verify_uniform_deployment` on the columns."""
        failures: List[str] = []
        if self.qlen[trial].any():
            failures.append("agents still in transit on links")
        for agent in range(self.k):
            if not self.halted[trial, agent]:
                failures.append(f"agent {agent} is not halted")
        if failures:
            return VerificationReport(
                False, self.n, self.k, (), tuple(failures)
            )
        positions = sorted(self.final_positions_for(trial).values())
        return verify_positions(positions, self.n)

    def result_for(self, trial: int) -> "RunResult":
        """The trial's :class:`~repro.experiments.runner.RunResult`.

        Raises the trial's recorded step-budget failure exactly as the
        object-engine path would have.
        """
        from repro.experiments.runner import RunResult

        if self.failed[trial]:
            raise self.failures[trial]
        metrics = self.metrics_for(trial)
        report = self.report_for(trial)
        positions = tuple(sorted(self.final_positions_for(trial).values()))
        return RunResult(
            algorithm=self.algorithm,
            placement=self.placements[trial],
            scheduler=self.schedulers[trial].describe(),
            total_moves=metrics.total_moves,
            max_moves=metrics.max_moves,
            ideal_time=metrics.rounds,
            max_memory_bits=metrics.max_memory_bits,
            messages_sent=metrics.messages_sent,
            report=report,
            final_positions=positions,
        )
