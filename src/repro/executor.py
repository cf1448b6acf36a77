"""The one in-process executor: sweep cells, fuzz shards, mc placements.

:func:`completed` yields ``worker(item)`` for every item as it finishes:
in order in this process at ``jobs == 1`` or for a single item, else
from one ``multiprocessing.Pool`` of ``min(jobs, len(items))`` processes
(``imap_unordered``).  Callers that need an order carry an index in each
item.  Pool workers ignore SIGINT, so a ^C at a terminal (which signals
the whole process group) surfaces only in the parent, as a
``KeyboardInterrupt`` out of the iteration; leaving the pool's ``with``
block then terminates the workers.  The campaign fleet
(:mod:`repro.campaign`) is the other executor: it can kill and respawn a
single worker, which a pool cannot.
"""

from __future__ import annotations

import multiprocessing
import signal
from typing import Callable, Iterator, Sequence, TypeVar

__all__ = ["completed", "in_process"]

Item = TypeVar("Item")
Result = TypeVar("Result")


def in_process(jobs: int, count: int) -> bool:
    """Whether :func:`completed` runs ``count`` items in this process;
    ``jobs`` below 1 is a ValueError."""
    if jobs < 1:
        raise ValueError(f"the executor needs jobs >= 1, got {jobs}")
    return jobs == 1 or count <= 1


def completed(
    worker: Callable[[Item], Result], items: Sequence[Item], jobs: int
) -> Iterator[Result]:
    """``worker(item)`` for every item, in completion order.  ``jobs``
    is checked at the call; a pool starts at the first ``next``."""
    if in_process(jobs, len(items)):
        return map(worker, items)
    return _pooled(worker, items, min(jobs, len(items)))


def _ignore_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _pooled(worker, items, processes: int) -> Iterator:
    chunksize = max(1, len(items) // (4 * processes))
    with multiprocessing.Pool(processes, initializer=_ignore_sigint) as pool:
        yield from pool.imap_unordered(worker, items, chunksize=chunksize)
