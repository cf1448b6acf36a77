"""Atomic-action simulation engine, schedulers, metrics and traces."""

from repro.sim.actions import Action, Move, NodeView, Stay
from repro.sim.agent import Agent
from repro.sim.engine import Engine
from repro.sim.metrics import Metrics
from repro.sim.scheduler import (
    BurstScheduler,
    ChaosScheduler,
    LaggardScheduler,
    RandomScheduler,
    ReplayScheduler,
    Scheduler,
    SynchronousScheduler,
)
from repro.sim.trace import TraceEvent, TraceEventKind, TraceRecorder, format_trace

__all__ = [
    "Action",
    "Move",
    "NodeView",
    "Stay",
    "Agent",
    "Engine",
    "Metrics",
    "Scheduler",
    "SynchronousScheduler",
    "RandomScheduler",
    "ReplayScheduler",
    "LaggardScheduler",
    "BurstScheduler",
    "ChaosScheduler",
    "TraceEvent",
    "TraceEventKind",
    "TraceRecorder",
    "format_trace",
]
