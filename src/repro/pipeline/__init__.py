"""Work-unit execution pipeline.

The paper's datasets are embarrassingly parallel: D2 is millions of
configuration samples from dozens of volunteers' *independent*
collection sessions, and D1 is hundreds of independent drives.  This
package turns that structure into an explicit pipeline:

* a :class:`WorkUnit` is one self-contained, self-seeded job — one D2
  session, one D1 drive, one server patch — that can run anywhere a
  ``repro`` import is possible;
* an :class:`ExecutionBackend` decides *where* units run.
  :class:`SerialBackend` runs them in-process;
  :class:`ProcessPoolBackend` fans them out over worker processes with
  chunked submission and an ordered result merge, so the output stream
  is bit-identical to the serial one regardless of worker count;
* :func:`process_cached` gives units a per-process home for expensive
  shared context (deployments, scenarios) that every unit of a build
  would otherwise rebuild.

Builders consume ``backend.run(units)`` as a *stream*: each unit's
harvest (already-crawled samples/instances, not raw log bytes) is
ingested as it completes, so no build ever materializes the full log
archive.
"""

from repro.pipeline.backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    default_workers,
    resolve_backend,
)
from repro.pipeline.context import clear_process_cache, process_cached
from repro.pipeline.unit import WorkUnit

__all__ = [
    "ExecutionBackend",
    "ProcessPoolBackend",
    "SerialBackend",
    "WorkUnit",
    "clear_process_cache",
    "default_workers",
    "process_cached",
    "resolve_backend",
]
