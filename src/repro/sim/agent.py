"""Agent base class: anonymous state machines with audited memory.

Agents in the model are anonymous deterministic state machines, and
concrete agents are written as exactly that.  An agent's whole state is
a set of plain instance fields:

* **Paper variables**, named in the class-level tuples
  :attr:`Agent.SCALARS` and :attr:`Agent.SEQUENCES` (arrays such as the
  distance sequence ``D``).  :meth:`Agent.memory_bits` audits them
  after actions, giving the Table 1 memory measurements their meaning,
  and :meth:`Agent.state_fingerprint` exposes them to the model
  checker's state keys.
* **One control field**, :attr:`Agent.stage`: a plain string naming
  where in its protocol the agent resumes (``None`` until it starts).

One subclass hook, :meth:`Agent.transition`, maps the :class:`NodeView`
of an atomic action (steps 1-2) to the :class:`Action` it takes (steps
3-5), dispatching on ``stage`` and updating fields on the way.  Values
that one action computes and the same action consumes (a pending
broadcast, a received notice) stay local to the hook; anything that
lives from one action to the next is a field.

The control field is left out of the audit and the fingerprint.  It
costs O(1) bits, so the memory bounds do not depend on it, and every
protocol here is written so that its declared variables already pin it
down: ``tests/test_fingerprint_completeness.py`` explores small cells
exhaustively and checks that each ``(type, started, fingerprint)`` is
seen at one stage only, which is what mc memoisation and partial-order
reduction rely on.

Because the state is plain fields, :meth:`Agent.fork` is a field copy
and any engine can be forked (the model checker's copy-on-branch
primitive).  ``stage`` must therefore hold a plain value, never a bound
method, which a copy would leave pointing at the original agent.

Agents never see node identities.  The engine hands them node views
only; home detection, circuit detection etc. must be done the way the
paper does it (token counting, knowledge of k, ...).
"""

from __future__ import annotations

from copy import copy
from typing import Iterable, Optional, Tuple

from repro.errors import ProtocolViolation, SimulationError
from repro.sim.actions import Action, NodeView

__all__ = ["Agent"]


class Agent:
    """Base class for all protocol agents.

    Subclasses name their paper-level variables in :attr:`SCALARS` and
    :attr:`SEQUENCES` and implement :meth:`transition`.  The engine owns
    the lifecycle: it calls :meth:`start` once, then :meth:`act` once
    per scheduled atomic action.
    """

    #: Scalar paper variables, in sorted order (the fingerprint's order).
    SCALARS: Tuple[str, ...] = ()
    #: Sequence-valued paper variables, in sorted order.
    SEQUENCES: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self.stage: Optional[str] = None
        self._halted = False
        self._suspended = False

    def transition(self, view: NodeView) -> Action:
        """Run one atomic action from the current ``stage``.

        ``stage`` is ``"start"`` on the very first action (the agent
        starting at its home node).  Returning a halting or suspending
        action ends the agent's activity until the engine wakes it.
        """
        raise NotImplementedError

    def memory_bits(self) -> int:
        """Return the current size of the declared algorithm state in bits.

        Scalars cost ``ceil(log2(v+2))`` bits (booleans cost 1); sequences
        cost ``len * bits(max element)``.  ``None`` (unset) costs one bit.
        """
        total = 0
        for name in self.SCALARS:
            value = getattr(self, name, None)
            if value is None:
                total += 1
            elif isinstance(value, bool):
                total += 1
            elif isinstance(value, int):
                # ceil(log2(|v| + 2)), at least one bit, inline: this
                # audit runs every few steps for every agent.
                bits = (value + 1 if value >= 0 else 1 - value).bit_length()
                total += bits if bits > 1 else 1
            else:
                raise SimulationError(
                    f"declared scalar {name!r} has non-integer value {value!r}"
                )
        for name in self.SEQUENCES:
            value = getattr(self, name, None)
            if value is None:
                total += 1
                continue
            items: Iterable[int] = value
            if not hasattr(items, "__len__"):
                items = tuple(items)
            # max(map(abs, ...)) runs at C speed; sequences like the
            # distance sequence D have k entries and dominate the audit.
            largest = max(map(abs, map(int, items)), default=0)
            width = max(1, (largest + 1).bit_length())
            total += max(1, len(items)) * width
        return total

    # ------------------------------------------------------------------
    # Engine-facing lifecycle
    # ------------------------------------------------------------------

    @property
    def halted(self) -> bool:
        """True once the agent entered the paper's halt state."""
        return self._halted

    @property
    def suspended(self) -> bool:
        """True while the agent is in a suspended state (message-wakeable)."""
        return self._suspended

    def fork(self) -> "Agent":
        """Return an independent agent in exactly this state.

        A copy of every field; declared sequences are copied too, so the
        clone appending to its ``D`` never touches the original's.  Every
        other field holds an immutable value.
        """
        clone = object.__new__(type(self))
        fields = clone.__dict__
        fields.update(self.__dict__)
        for name in self.SEQUENCES:
            value = fields.get(name)
            if value is not None:
                fields[name] = copy(value)
        return clone

    def start(self, first_view: NodeView) -> Action:
        """Run the first atomic action (the agent starting at its home)."""
        if self.stage is not None:
            raise SimulationError("agent started twice")
        self.stage = "start"
        return self._register(self.transition(first_view))

    def act(self, view: NodeView) -> Action:
        """Run one atomic action: deliver ``view``, collect the action."""
        if self.stage is None:
            raise SimulationError("agent activated before start()")
        if self._halted:
            raise SimulationError("halted agent activated")
        self._suspended = False
        action = self.transition(view)
        if not isinstance(action, Action):
            self._reject(action)
        # Inline of _register: this runs once per atomic action.
        if action.halt:
            self._halted = True
        elif action.suspend:
            self._suspended = True
        return action

    def state_fingerprint(self) -> Tuple[object, ...]:
        """Opaque state used for Lemma 1's local-configuration comparison.

        Returns the values of all declared variables plus the terminal
        flags.  Two agents with equal fingerprints are in the same
        algorithm state.
        """
        scalars = tuple([(name, getattr(self, name, None)) for name in self.SCALARS])
        sequences = tuple(
            [(name, tuple(getattr(self, name, None) or ())) for name in self.SEQUENCES]
        )
        return (type(self).__name__, self._halted, self._suspended, scalars, sequences)

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    def _register(self, action: Action) -> Action:
        if not isinstance(action, Action):
            self._reject(action)
        if action.halt:
            self._halted = True
        elif action.suspend:
            self._suspended = True
        return action

    def _reject(self, action: object) -> None:
        raise ProtocolViolation(
            f"{type(self).__name__}.transition returned {action!r} in "
            f"stage {self.stage!r}, not an Action"
        )
