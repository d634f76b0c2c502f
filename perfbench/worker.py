"""One cold run of one workload, in the fresh interpreter ``run.py`` spawns.

Prints one JSON object on its last stdout line: set-up and wall time,
peak resident memory, the workload's rate, one digest per operation,
the operations whose oracle check failed and, in a traced run, every
per-layer metric plus the digest of the span-name structure.

An untraced cold run times the host-speed probe (``probe.py``) through
set-up and the workload, and reports ``setup_s``, ``wall_s`` and
``items_per_s`` at the probe's reference speed; ``raw_wall_s`` and
``probe_us`` keep what the clock read.  A traced run has no probe, and
its times are as read.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="perf_counter() of the parent just before the spawn")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="record spans and write the trace here")
    parser.add_argument("--oracles", action="store_true",
                        help="also run the expensive any-seed oracle checks")
    args = parser.parse_args()

    from probe import WORKLOAD_PROBES, SpeedProbe

    probe = None if args.trace_out is not None else SpeedProbe(WORKLOAD_PROBES[args.workload])
    if probe is not None:
        probe.start()
    from repro.lint.engine import ConfigLintWarning
    from workloads import SIZES, WORKLOADS

    warnings.simplefilter("ignore", ConfigLintWarning)
    workload = WORKLOADS[args.workload]
    try:
        state = workload.setup(SIZES[args.size][args.workload], args.seed, args.workdir)
        recorder = None
        if args.trace_out is not None:
            import spans

            recorder = spans.Recorder()
            spans.install(recorder)
        started = time.perf_counter()
        out = workload.run(state)
        ended = time.perf_counter()
        if probe is not None:
            probe.stop()
            seconds = probe.reference_seconds
            raw_wall_s, probe_s = probe.span(started, ended)
        else:
            def seconds(start: float, end: float) -> float:
                return end - start
            raw_wall_s, probe_s = ended - started, 0.0
        wall_s = seconds(started, ended)
        count, span = workload.items(out)
        result = {
            "setup_s": seconds(args.spawned_at, started),
            "wall_s": wall_s,
            "raw_wall_s": raw_wall_s,
            "probe_us": probe_s * 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "items_per_s": count / seconds(*(span or (started, ended))),
        }
        values = workload.values(state, out)
        if recorder is not None:
            result["layers"] = spans.layer_metrics(recorder, values)
            result["structure"] = recorder.structure_digest()
            recorder.write(str(args.trace_out), {
                "workload": args.workload, "seed": args.seed, "size": args.size,
                "wall_s": raw_wall_s,
            })
        result["digests"], result["oracle_failed"] = workload.check(
            state, out, oracles=args.oracles
        )
    except Exception:
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    status = main()
    sys.stdout.flush()
    # Skip interpreter teardown: freeing a large heap object by object
    # takes seconds that belong to no metric.
    os._exit(status)
