"""Span tracer that wraps each layer's public functions from outside ``src/``.

The benchmark never edits the program to trace it:
:func:`instrument_coarse` and :func:`instrument_hot` replace the layer
entry points with timing wrappers, and :meth:`Tracer.restore` puts the
originals back.

* A span's *self* time is its duration minus the time its child spans
  cover; each thread keeps its own span stack, so the HTTP server
  thread's spans never nest under the client loop.
* Coarse spans (one per cell, request, check, campaign or wave) are kept
  in memory as records; hot spans (engine steps, agent actions,
  scheduler batches, encodings, property checks) run millions of times
  per run, so they are folded into per-name totals as they close.
* Pool workers are forked after the wrappers are installed.  Each worker
  resets its inherited state at fork, and after every task it ships its
  totals and span records to the parent over a pipe; a reader thread in
  the parent merges them, so one trace covers every process.
"""

from __future__ import annotations

import functools
import multiprocessing
import multiprocessing.pool
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

_now = time.perf_counter

Key = Tuple[str, str]  # (phase, span name)


class Tracer:
    """Per-run span and counter store (one per benchmark invocation)."""

    def __init__(self) -> None:
        self.phase = "-"
        self.pid = os.getpid()
        self.spans: List[dict] = []
        self.counters: Dict[Key, float] = {}
        self.worker_totals: Dict[Key, List[float]] = {}
        self._local = threading.local()
        self._tables: List[Dict[Key, List[float]]] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._queue = multiprocessing.get_context("fork").SimpleQueue()
        self._synced = threading.Event()
        self._reader = threading.Thread(
            target=self._read, name="perfbench-trace", daemon=True
        )
        self._reader.start()
        self._in_worker = False
        os.register_at_fork(after_in_child=self._after_fork)

    # -- per-thread state ------------------------------------------------

    def _thread_state(self) -> list:
        self._local.stack = []
        self._local.totals = {}
        self._tables.append(self._local.totals)
        return self._local.stack

    def _after_fork(self) -> None:
        if not self._patches:
            return
        self._in_worker = True
        self.pid = os.getpid()
        self.spans = []
        self.counters = {}
        self.worker_totals = {}
        self._tables = []
        self._thread_state()

    # -- recording -------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        keep: Optional[Callable[[tuple], dict]] = None,
        consume: bool = False,
    ) -> Callable:
        """``fn`` timed as span ``name``.

        ``keep`` turns the span into a kept record whose attributes it
        derives from the call arguments; ``consume`` drains a returned
        iterator inside the span, so a lazy query is timed where its
        work happens.
        """
        tracer = self
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = tracer._thread_state()
            frame = [0.0, name]
            stack.append(frame)
            start = _now()
            try:
                result = fn(*args, **kwargs)
                if consume:
                    result = list(result)
            finally:
                end = _now()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                key = (tracer.phase, name)
                totals = local.totals
                entry = totals.get(key)
                if entry is None:
                    totals[key] = [1, duration, duration - frame[0]]
                else:
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - frame[0]
                if keep is not None:
                    tracer.spans.append(
                        {
                            "name": name,
                            "phase": tracer.phase,
                            "pid": tracer.pid,
                            "start": start,
                            "end": end,
                            "parent": stack[-1][1] if stack else None,
                            "attrs": keep(args),
                        }
                    )
            return iter(result) if consume else result

        return traced

    def count(self, name: str, value: float = 1) -> None:
        key = (self.phase, name)
        self.counters[key] = self.counters.get(key, 0) + value

    def worker_entry(self, name: str, fn: Callable) -> Callable:
        """``fn`` as a pool task span whose worker ships its data after."""
        traced = self.wrap(name, fn, keep=_no_attrs)
        tracer = self

        @functools.wraps(fn)
        def entry(*args, **kwargs):
            try:
                return traced(*args, **kwargs)
            finally:
                if tracer._in_worker:
                    tracer._ship()

        return entry

    # -- worker -> parent merge ------------------------------------------

    def _ship(self) -> None:
        totals: Dict[Key, List[float]] = {}
        for table in self._tables:
            _merge(totals, table)
            table.clear()
        self._queue.put(("data", totals, self.counters, self.spans))
        self.counters = {}
        self.spans = []

    def _read(self) -> None:
        while True:
            message = self._queue.get()
            if message[0] == "stop":
                return
            if message[0] == "sync":
                self._synced.set()
                continue
            _, totals, counters, spans = message
            _merge(self.worker_totals, totals)
            for key, value in counters.items():
                self.counters[key] = self.counters.get(key, 0) + value
            self.spans.extend(spans)

    def sync(self) -> None:
        """Wait until every message workers sent so far is merged."""
        self._synced.clear()
        self._queue.put(("sync",))
        if not self._synced.wait(timeout=60):
            raise RuntimeError("trace reader did not drain the worker pipe")

    # -- results ---------------------------------------------------------

    def totals(self, source: str = "all") -> Dict[Key, List[float]]:
        """(phase, name) -> [calls, total_s, self_s] over ``source``:
        ``all`` processes, the ``main`` process or pool ``workers``."""
        self.sync()
        merged: Dict[Key, List[float]] = {}
        if source != "main":
            _merge(merged, self.worker_totals)
        if source != "workers":
            for table in self._tables:
                _merge(merged, table)
        return merged

    def reset(self) -> None:
        self.sync()
        for table in self._tables:
            table.clear()
        self.worker_totals.clear()
        self.counters.clear()
        self.spans = []

    # -- patching --------------------------------------------------------

    def patch(self, owner: object, attr: str, replacement: Callable) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def close(self) -> None:
        self.restore()
        self._queue.put(("stop",))
        self._reader.join(timeout=10)
        self._queue.close()


def _merge(into: Dict[Key, List[float]], table: Dict[Key, List[float]]) -> None:
    for key, (calls, total, own) in list(table.items()):
        entry = into.setdefault(key, [0, 0.0, 0.0])
        entry[0] += calls
        entry[1] += total
        entry[2] += own


# ----------------------------------------------------------------------
# What is traced
# ----------------------------------------------------------------------


def _no_attrs(args: tuple) -> None:
    return None


def _cell_attrs(args: tuple) -> dict:
    spec = args[0]
    return {
        "algorithm": spec.algorithm,
        "n": spec.placement.ring_size,
        "scheduler": spec.scheduler,
    }


def _batch_attrs(args: tuple) -> dict:
    attrs = _cell_attrs((args[0][0],))
    attrs["trials"] = len(args[0])
    return attrs


def _subclasses(base: type) -> List[type]:
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def _patch_method_family(tracer: Tracer, base: type, attr: str, name: str) -> None:
    """Wrap ``attr`` on ``base`` and on every subclass that overrides it."""
    for cls in _subclasses(base):
        if attr in vars(cls):
            tracer.patch(cls, attr, tracer.wrap(name, vars(cls)[attr]))


def instrument_coarse(tracer: Tracer) -> None:
    """Wrap the once-per-cell/request/check entry points of every layer."""
    import repro.fuzz.fuzzer as fuzzer
    import repro.mc.checker as checker
    import repro.mc.parallel as parallel
    import repro.sim.batch as batch
    from repro.experiments import sweep
    from repro.mc.frontier import FrontierSpill
    from repro.serve.api import ServeApi
    from repro.sim.engine import Engine
    from repro.store.jsonl import RunStore, _StoreView

    wrap = functools.partial(tracer.wrap, keep=_no_attrs)
    tracer.patch(sweep, "execute_sweep", wrap("sweep.execute_sweep", sweep.execute_sweep))
    for attr in ("_record_for_cell", "_row_for_cell"):
        tracer.patch(sweep, attr, tracer.worker_entry("sweep.task", vars(sweep)[attr]))
    tracer.patch(
        sweep, "run_experiment",
        wrap("runner.run_experiment", sweep.run_experiment, keep=_cell_attrs),
    )
    tracer.patch(Engine, "run", wrap("engine.run", Engine.run))
    tracer.patch(
        batch, "run_batch", wrap("batch.run_batch", batch.run_batch, keep=_batch_attrs)
    )

    supported = batch.batch_supported

    def batch_supported(spec):
        reason = supported(spec)
        if reason is not None:
            tracer.count("batch.declined_cells")
        return reason

    tracer.patch(batch, "batch_supported", batch_supported)
    tracer.patch(
        multiprocessing.pool.IMapIterator, "__next__",
        wrap("pool.wait", multiprocessing.pool.IMapIterator.__next__),
    )
    tracer.patch(
        multiprocessing.pool.Pool, "map", wrap("pool.wait", multiprocessing.pool.Pool.map)
    )

    tracer.patch(RunStore, "put", wrap("store.put", RunStore.put))
    tracer.patch(RunStore, "refresh", wrap("store.refresh", RunStore.refresh))
    tracer.patch(_StoreView, "get_many", wrap("store.get_many", _StoreView.get_many))
    tracer.patch(_StoreView, "count", wrap("store.count", _StoreView.count))
    tracer.patch(
        _StoreView, "query", wrap("store.query", _StoreView.query, consume=True)
    )
    tracer.patch(ServeApi, "handle", wrap("serve.handle", ServeApi.handle))

    tracer.patch(
        checker, "check_interleavings",
        wrap("mc.check_interleavings", checker.check_interleavings),
    )
    tracer.patch(
        parallel, "check_frontier", wrap("mc.check_frontier", parallel.check_frontier)
    )
    tracer.patch(
        parallel, "_expand_batch", tracer.worker_entry("spill.task", parallel._expand_batch)
    )
    append_wave = wrap("spill.append_wave", FrontierSpill.append_wave)

    def counted_append_wave(spill, *args, **kwargs):
        journal = Path(spill.directory) / "journal.jsonl"
        before = journal.stat().st_size if journal.exists() else 0
        append_wave(spill, *args, **kwargs)
        tracer.count("spill.append_wave.bytes", journal.stat().st_size - before)

    tracer.patch(FrontierSpill, "append_wave", counted_append_wave)

    tracer.patch(fuzzer.ScheduleFuzzer, "run", wrap("fuzz.campaign", fuzzer.ScheduleFuzzer.run))
    tracer.patch(fuzzer, "mutate_schedule", wrap("mutate", fuzzer.mutate_schedule))
    tracer.patch(fuzzer, "splice", wrap("mutate", fuzzer.splice))
    shrink = wrap("shrink", fuzzer.shrink_schedule)

    def counted_shrink(schedule, fails, *args, **kwargs):
        def counted(candidate):
            tracer.count("shrink.evals")
            return fails(candidate)

        return shrink(schedule, counted, *args, **kwargs)

    tracer.patch(fuzzer, "shrink_schedule", counted_shrink)


def instrument_hot(tracer: Tracer) -> None:
    """Wrap the per-action and per-state functions (high call counts)."""
    import repro.mc.checker as checker
    import repro.mc.parallel as parallel
    from repro.fuzz.coverage import CoverageMap
    from repro.mc.properties import SafetyProperty, TerminalProperty
    from repro.ring.configuration import Configuration
    from repro.sim.agent import Agent
    from repro.sim.engine import Engine
    from repro.sim.scheduler import Scheduler

    wrap = tracer.wrap
    tracer.patch(Agent, "act", wrap("agent.act", Agent.act))
    _patch_method_family(tracer, Scheduler, "next_batch", "scheduler.next_batch")
    for attr in ("step", "fork", "snapshot"):
        tracer.patch(Engine, attr, wrap(f"engine.{attr}", vars(Engine)[attr]))
    for attr in ("canonical", "packed_layout"):
        tracer.patch(
            Configuration, attr, wrap(f"configuration.{attr}", vars(Configuration)[attr])
        )
    for module in (checker, parallel):
        for attr in ("sleep_after", "slots_of_agents", "agents_of_slots"):
            tracer.patch(module, attr, wrap("por", vars(module)[attr]))
    _patch_method_family(tracer, SafetyProperty, "check", "properties.check")
    _patch_method_family(tracer, TerminalProperty, "check", "properties.check")
    observe = wrap("coverage.observe", CoverageMap.observe)

    def counted_observe(coverage, *args, **kwargs):
        gain = observe(coverage, *args, **kwargs)
        if gain:
            tracer.count("coverage.novel")
        return gain

    tracer.patch(CoverageMap, "observe", counted_observe)
