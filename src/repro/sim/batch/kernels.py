"""Batch kernels for Algorithm 1 (``known_k_full`` / ``known_n_full``).

A *kernel* is one algorithm's protocol generator rewritten as masked
column updates: where the object engine resumes a Python generator per
atomic action, a kernel advances an explicit per-(trial, agent) phase
machine stored in flat ``B * k`` numpy columns.  The translation is
exact — the action emitted for any (phase, view) pair, and the
declared-state values visible to the memory audit at the yield point,
match the object agent bit for bit.  ``tests/test_batch_differential.py``
holds both kernels to that standard against the object engine on
shared seeds.

Both agents run the same two-phase linearisation:

* **CIRCUIT** — walk the ring once, appending inter-token distances to
  ``D`` (circuit detection: ``k`` tokens seen, or ``n`` moves made),
* **DEPLOY** — after the completion arithmetic (rotation rank, §3.1.1
  target offset), walk ``remaining`` hops and halt.

Every action moves or halts, and tokens are only released at the
agents' distinct homes, so the entries of one synchronous round are
independent: the engine may pass a whole round to :meth:`step` at once,
several entries per trial.  All updates below are per (trial, agent)
flat index, so such calls never alias.

The audit subtlety baked in below: the object generator decrements
``remaining`` *before* the deployment yield, so the completion step
stores ``rem - 1``, not ``rem``.
"""

from __future__ import annotations

from typing import Dict, Tuple, Type

import numpy as np

__all__ = [
    "KERNELS",
    "KnownKFullKernel",
    "KnownNFullKernel",
    "bit_cost",
    "minimal_period_batch",
    "minimal_rotation_index_batch",
]


def bit_cost(values: np.ndarray) -> np.ndarray:
    """Vectorized :meth:`repro.sim.agent.Agent.memory_bits` scalar cost.

    For a non-negative counter ``v`` the audit charges
    ``max(1, (v + 1).bit_length())`` bits.  ``frexp`` returns the
    binary exponent ``e`` with ``x = m * 2**e, 0.5 <= m < 1``, which
    for integer ``x >= 1`` is exactly ``x.bit_length()`` — exact up to
    2**53, far beyond any counter a simulation can reach.  An unset
    (``None``) scalar also costs one bit, the same as value 0, which is
    why kernels may represent "unset" as 0 without breaking audit
    parity.
    """
    return np.frexp(np.asarray(values, dtype=np.float64) + 1.0)[1].astype(np.int64)


def minimal_rotation_index_batch(rows: np.ndarray) -> np.ndarray:
    """Row-wise :func:`repro.analysis.sequences.minimal_rotation_index`.

    Elimination tournament over the ``k`` rotation starts of each row:
    at offset ``o`` every still-alive start whose ``o``-th rotation
    element is not the row minimum (among alive starts) is eliminated.
    After ``k`` offsets the survivors are exactly the starts of the
    lexicographically minimal rotation (several iff the row is
    periodic); ``argmax`` picks the smallest surviving index, matching
    Booth's smallest-index tie-break.  O(k^2) per row but fully
    vectorized — the rows here are short (one entry per agent).
    """
    count, k = rows.shape
    if k == 0:
        return np.zeros(count, dtype=np.int64)
    doubled = np.concatenate([rows, rows], axis=1)
    sentinel = np.iinfo(rows.dtype).max
    alive = np.ones((count, k), dtype=bool)
    for offset in range(k):
        vals = np.where(alive, doubled[:, offset : offset + k], sentinel)
        alive &= vals == vals.min(axis=1, keepdims=True)
        if offset and int(alive.sum()) == count:
            break  # every row is down to one candidate already
    return alive.argmax(axis=1).astype(np.int64)


def minimal_period_batch(rows: np.ndarray) -> np.ndarray:
    """Row-wise :func:`repro.analysis.sequences.minimal_period`.

    A rotation period of a length-``k`` sequence always divides ``k``,
    so the minimal period is the smallest divisor ``d`` of ``k`` with
    ``shift(D, d) == D`` — one rolled comparison per divisor.
    """
    count, k = rows.shape
    period = np.full(count, k, dtype=np.int64)
    for d in range(1, k):
        if k % d != 0:
            continue
        matches = (rows == np.roll(rows, -d, axis=1)).all(axis=1)
        period = np.where(matches & (period == k), d, period)
        if int((period < k).sum()) == count:
            break
    return period


_INIT, _CIRCUIT, _DEPLOY, _DONE = 0, 1, 2, 3


class _FullInfoKernel:
    """Shared state layout and transition of the two Algorithm 1 kernels."""

    def __init__(self, trials: int, agent_count: int, ring_size: int) -> None:
        self.B = trials
        self.k = agent_count
        self.n = ring_size
        flats = trials * agent_count
        self.phase = np.full(flats, _INIT, dtype=np.int64)
        self.dis = np.zeros(flats, dtype=np.int64)
        self.counter = np.zeros(flats, dtype=np.int64)  # j (KF) / moved (NF)
        self.learned = np.zeros(flats, dtype=np.int64)  # n (KF) / k (NF)
        self.rank = np.zeros(flats, dtype=np.int64)
        self.dis_base = np.zeros(flats, dtype=np.int64)
        self.remaining = np.zeros(flats, dtype=np.int64)
        self.D = np.zeros((flats, agent_count), dtype=np.int64)
        self.D_len = np.zeros(flats, dtype=np.int64)
        self.D_max = np.zeros(flats, dtype=np.int64)

    # -- hooks the two variants specialise -----------------------------

    def _known_constant(self) -> int:
        raise NotImplementedError

    def _circuit_done(
        self, flat: np.ndarray, circ: np.ndarray, saw_token: np.ndarray
    ) -> np.ndarray:
        """Mask (over the dispatch) of entries completing their circuit."""
        raise NotImplementedError

    def _learned_batch(self, df: np.ndarray, rows: np.ndarray):
        """Store the learned quantity; return ``(n, k)`` (either may be
        a scalar or a per-entry vector, numpy broadcasting does the
        rest)."""
        raise NotImplementedError

    def _complete_batch(self, df: np.ndarray) -> None:
        """Algorithm 1 lines 12-15 for every entry finishing its circuit.

        A finished circuit has recorded exactly ``k`` inter-token
        distances (there are ``k`` tokens and the walk covers the ring
        once), so the rows form a dense ``(C, k)`` matrix and the
        rotation analysis vectorizes.  The arithmetic mirrors
        ``rotation_rank`` / ``minimal_period`` / ``target_offset``
        exactly; ``tests/test_batch_kernels.py`` pins the batched
        helpers against the scalar originals.
        """
        rows = self.D[df]
        rank = minimal_rotation_index_batch(rows)
        period = minimal_period_batch(rows)
        n_vec, k = self._learned_batch(df, rows)
        self.rank[df] = rank
        base_count = k // period
        floor_gap = n_vec // k
        large_gaps = (n_vec % k) // base_count
        cumulative = np.cumsum(rows, axis=1)
        dis_base = np.where(
            rank > 0, cumulative[np.arange(df.size), rank - 1], 0
        )
        self.dis_base[df] = dis_base
        self.remaining[df] = (
            dis_base + rank * floor_gap + np.minimum(rank, large_gaps)
        )

    # -- transition and audit ------------------------------------------

    def step(
        self, t_idx: np.ndarray, a_idx, vtokens: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance one atomic action for each (t_idx[i], a_idx[i]) pair.

        ``a_idx`` is an agent-id array or one scalar id for every entry;
        ``vtokens`` is the token count at each entry's node.  Returns
        the ``(move, release, halt)`` masks aligned with the dispatch.
        """
        m = t_idx.size
        flat = t_idx * self.k + a_idx
        ph = self.phase[flat]
        move = np.zeros(m, dtype=bool)
        release = np.zeros(m, dtype=bool)
        halt = np.zeros(m, dtype=bool)

        init = ph == _INIT
        if init.any():
            self.phase[flat[init]] = _CIRCUIT
            move[init] = True
            release[init] = True

        circ = ph == _CIRCUIT
        if circ.any():
            cf = flat[circ]
            self.dis[cf] += 1
            move[circ] = True
            saw_token = circ & (vtokens > 0)
            if saw_token.any():
                tf = flat[saw_token]
                d_val = self.dis[tf]
                self.D[tf, self.D_len[tf]] = d_val
                self.D_len[tf] += 1
                self.D_max[tf] = np.maximum(self.D_max[tf], d_val)
                self.dis[tf] = 0
            done = self._circuit_done(flat, circ, saw_token)
            if done.any():
                df = flat[done]
                self._complete_batch(df)
                # Generator: `while remaining > 0: remaining -= 1; yield
                # move` — or the immediate halt when the target is home.
                walking = self.remaining[df] > 0
                self.remaining[df[walking]] -= 1
                self.phase[df] = np.where(walking, _DEPLOY, _DONE)
                at_home = np.flatnonzero(done)[~walking]
                move[at_home] = False
                halt[at_home] = True

        dep = ph == _DEPLOY
        if dep.any():
            walking = dep & (self.remaining[flat] > 0)
            if walking.any():
                self.remaining[flat[walking]] -= 1
                move[walking] = True
            finished = dep & ~walking
            if finished.any():
                self.phase[flat[finished]] = _DONE
                halt[finished] = True

        return move, release, halt

    def memory_bits(self, t_idx: np.ndarray, a_idx) -> np.ndarray:
        """Audited state size in bits for each pair, post-action."""
        flat = t_idx * self.k + a_idx
        # One frexp over all scalar counters at once (same arithmetic as
        # summing bit_cost per column, see bit_cost's exactness note).
        scalars = np.stack(
            (
                self.counter[flat],
                self.dis[flat],
                self.learned[flat],
                self.rank[flat],
                self.dis_base[flat],
                self.remaining[flat],
                self.D_max[flat],
            )
        )
        bits = np.frexp(scalars + 1.0)[1].astype(np.int64)
        total = bits[:6].sum(axis=0)
        total += int(bit_cost(np.array([self._known_constant()]))[0])
        total += np.maximum(1, self.D_len[flat]) * bits[6]
        return total


class KnownKFullKernel(_FullInfoKernel):
    """Algorithm 1: circuit detected by counting ``k`` token nodes."""

    def _known_constant(self) -> int:
        return self.k

    def _circuit_done(
        self, flat: np.ndarray, circ: np.ndarray, saw_token: np.ndarray
    ) -> np.ndarray:
        done = np.zeros(flat.size, dtype=bool)
        if saw_token.any():
            self.counter[flat[saw_token]] += 1  # j += 1 per token node
            done[saw_token] = self.counter[flat[saw_token]] == self.k
        return done

    def _learned_batch(self, df: np.ndarray, rows: np.ndarray):
        n_vec = rows.sum(axis=1)  # n = sum(D)
        self.learned[df] = n_vec
        return n_vec, self.k


class KnownNFullKernel(_FullInfoKernel):
    """Footnote 2: circuit detected by counting ``n`` moves."""

    def _known_constant(self) -> int:
        return self.n

    def _circuit_done(
        self, flat: np.ndarray, circ: np.ndarray, saw_token: np.ndarray
    ) -> np.ndarray:
        # moved += 1 on every circuit step, token or not.
        done = np.zeros(flat.size, dtype=bool)
        cf = flat[circ]
        self.counter[cf] += 1
        done[circ] = self.counter[cf] == self.n
        return done

    def _learned_batch(self, df: np.ndarray, rows: np.ndarray):
        self.learned[df] = self.k  # k = len(D)
        return self.n, self.k


#: algorithm name -> kernel class; the batch backend's coverage.
KERNELS: Dict[str, Type[_FullInfoKernel]] = {
    "known_k_full": KnownKFullKernel,
    "known_n_full": KnownNFullKernel,
}
