"""Execution backends: where work units run.

Both backends present the same contract: ``run(units)`` yields one
result per unit, **ordered by** ``unit_id`` and **streamed** — a result
is yielded as soon as it (and everything before it) is available, so
consumers can ingest while later units are still executing.

:class:`ProcessPoolBackend` keeps the stream bit-identical to
:class:`SerialBackend` by construction: units are chunked in canonical
order, chunks are submitted to a :class:`concurrent.futures`
process pool with a bounded in-flight window (memory stays proportional
to ``workers``, not to the build size), and results are merged back in
chunk order.  Worker count therefore changes wall-clock time only,
never output.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Iterator, Protocol, Sequence, runtime_checkable

from repro.pipeline.unit import WorkUnit


@runtime_checkable
class ExecutionBackend(Protocol):
    """Anything that can execute a batch of work units."""

    def run(self, units: Sequence[WorkUnit]) -> Iterator[object]:
        """Yield each unit's result in ``unit_id`` order, streaming."""
        ...


class SerialBackend:
    """Run every unit in the calling process, one after another."""

    def run(self, units: Sequence[WorkUnit]) -> Iterator[object]:
        for unit in sorted(units, key=lambda u: u.unit_id):
            yield unit.run()


def _run_chunk(units: list[WorkUnit]) -> list[object]:
    """Worker-side entry point: execute one chunk of units in order."""
    return [unit.run() for unit in units]


class ProcessPoolBackend:
    """Fan units out over worker processes.

    Args:
        workers: Worker process count (default: ``os.cpu_count()``).
        chunk_size: Units per submitted task.  Larger chunks amortize
            pickling; smaller chunks balance better.  The default aims
            for ~4 tasks per worker.
        max_inflight_chunks: Submission window — how many chunks may be
            queued or running at once (default ``2 * workers``).  This
            bounds both scheduler memory and the reorder buffer.
    """

    def __init__(
        self,
        workers: int | None = None,
        chunk_size: int | None = None,
        max_inflight_chunks: int | None = None,
    ):
        self.workers = max(workers if workers is not None else os.cpu_count() or 1, 1)
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.chunk_size = chunk_size
        self.max_inflight_chunks = max_inflight_chunks or 2 * self.workers

    def _chunked(self, ordered: list[WorkUnit]) -> list[list[WorkUnit]]:
        size = self.chunk_size
        if size is None:
            size = max(1, -(-len(ordered) // (self.workers * 4)))
        return [ordered[i : i + size] for i in range(0, len(ordered), size)]

    def run(self, units: Sequence[WorkUnit]) -> Iterator[object]:
        ordered = sorted(units, key=lambda u: u.unit_id)
        if not ordered:
            return
        if self.workers == 1 and len(ordered) <= 1:
            # Nothing to parallelize; skip the pool entirely.
            yield from SerialBackend().run(ordered)
            return
        chunks = self._chunked(ordered)
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            inflight: dict[int, Future] = {}
            next_submit = 0
            for next_yield in range(len(chunks)):
                while next_submit < len(chunks) and len(inflight) < self.max_inflight_chunks:
                    inflight[next_submit] = pool.submit(_run_chunk, chunks[next_submit])
                    next_submit += 1
                # Blocking on the next-in-order chunk *is* the ordered
                # merge: later chunks keep executing meanwhile, and their
                # finished futures wait in the window until their turn.
                for result in inflight.pop(next_yield).result():
                    yield result


def default_workers() -> int:
    """Default worker count: the ``REPRO_WORKERS`` env var, or 1 when unset.

    Raises:
        ValueError: the variable is set to anything but an integer >= 1.
    """
    raw = os.environ.get("REPRO_WORKERS")
    if raw is None:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"REPRO_WORKERS must be an integer >= 1, got {raw!r}")
    return workers


def resolve_backend(
    workers: int | None = None, backend: ExecutionBackend | None = None
) -> ExecutionBackend:
    """The backend a build should use.

    An explicit ``backend`` wins; otherwise ``workers`` picks between
    the serial path (``None`` / ``<= 1``) and a process pool.
    """
    if backend is not None:
        return backend
    if workers is None or workers <= 1:
        return SerialBackend()
    return ProcessPoolBackend(workers=workers)
