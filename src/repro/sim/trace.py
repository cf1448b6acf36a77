"""Structured execution traces (optional, for examples, tests and debugging).

A :class:`TraceRecorder` attached to the engine receives one
:class:`TraceEvent` per atomic action plus lifecycle events (token
releases, broadcasts, halts, suspensions).  Tests read traces for
event-level facts and examples pretty-print them.  The model rules
themselves (FIFO no-overtaking, token monotonicity) are checked on
snapshots by the property oracle (:mod:`repro.mc.properties`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional

__all__ = ["TraceEventKind", "TraceEvent", "TraceRecorder", "format_trace"]


class TraceEventKind(Enum):
    """The observable event types of one execution."""

    ARRIVE = "arrive"  # agent popped from a link queue onto a node
    ACT_IN_PLACE = "act"  # staying agent activated without arrival
    MOVE = "move"  # agent left a node onto its out-link
    SETTLE = "settle"  # agent decided to stay at the node
    TOKEN = "token"  # agent released its token
    BROADCAST = "broadcast"  # agent sent a message to co-located agents
    HALT = "halt"  # agent entered the halt state
    SUSPEND = "suspend"  # agent entered a suspended state
    WAKE = "wake"  # suspended/waiting agent re-enabled by a message


@dataclass(frozen=True)
class TraceEvent:
    """One observable event.

    ``step`` is the global activation counter, ``node`` the simulator's
    node index (invisible to agents, visible to the observer), ``detail``
    an event-specific payload (e.g. the broadcast message).
    """

    step: int
    kind: TraceEventKind
    agent_id: int
    node: int
    detail: Optional[object] = None


class TraceRecorder:
    """Collects trace events; optionally filters to reduce memory.

    ``keep`` is a predicate over :class:`TraceEvent`; the default keeps
    everything.  Long benchmark runs attach no recorder at all, so
    tracing costs nothing unless requested.
    """

    def __init__(self, keep: Optional[Callable[[TraceEvent], bool]] = None) -> None:
        self._keep = keep
        self.events: List[TraceEvent] = []

    def record(self, event: TraceEvent) -> None:
        if self._keep is None or self._keep(event):
            self.events.append(event)

    def of_kind(self, kind: TraceEventKind) -> List[TraceEvent]:
        """Return all recorded events of one kind, in order."""
        return [event for event in self.events if event.kind is kind]

    def for_agent(self, agent_id: int) -> List[TraceEvent]:
        """Return all recorded events of one agent, in order."""
        return [event for event in self.events if event.agent_id == agent_id]


def format_trace(events: List[TraceEvent], limit: Optional[int] = None) -> str:
    """Render events as aligned text lines (used by examples)."""
    lines = []
    for event in events[: limit if limit is not None else len(events)]:
        detail = "" if event.detail is None else f" {event.detail!r}"
        lines.append(
            f"[{event.step:>7}] agent {event.agent_id:>3} "
            f"{event.kind.value:<9} @node {event.node:>4}{detail}"
        )
    if limit is not None and len(events) > limit:
        lines.append(f"... ({len(events) - limit} more events)")
    return "\n".join(lines)
