"""Repository benchmark: four workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload d2-crowd --seed 0 --seconds 30 --trace 0

Each run is a sequence of cold runs of one workload, each in a fresh
interpreter, repeated until ``--seconds`` are used up (at least three,
or two untraced plus two traced with ``--trace 1``).  The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: with ``--trace 0`` the end-to-end metrics (medians over the
cold runs, times at the host-speed probe's reference speed, see
``probe.py``), with ``--trace 1`` the per-layer metrics from the traced
runs.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("d2-crowd", "d1-drives", "fleet-city", "lint-audit")

#: End-to-end metrics: (name, unit), each the median over untraced runs.
#: Times and rates are at the host-speed probe's reference speed.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("items_per_s", "1/s"),
)

#: No cold run starts after this many seconds of a run, and every cold
#: run is killed by DEADLINE_S, so a run ends within 180 s whatever
#: --seconds says.
HARD_STOP_S = 120.0
DEADLINE_S = 170.0

#: One cold run may take at most this long.
CHILD_TIMEOUT_S = 60.0


def child_env(root: Path) -> dict[str, str]:
    """Environment of a cold run: checkout sources, capped threads, local temp.

    Temporary files go under ``.perfbench/`` in the checkout.  ``REPRO_*``
    switches of the caller are dropped: they select other
    code paths (scalar oracle, profiling, workers) than the benchmark's.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["TMPDIR"] = str(root / ".perfbench")
    return env


def cold_run(
    args, env: dict, workdir: Path, trace_out: Path | None, oracles: bool, timeout: float
) -> dict:
    """Spawn one fresh interpreter running the workload once."""
    workdir.mkdir(parents=True, exist_ok=True)
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
        "--workdir", str(workdir),
    ]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    if oracles:
        command.append("--oracles")
    try:
        spawned_at = time.perf_counter()
        proc = subprocess.run(
            command + ["--spawned-at", repr(spawned_at)],
            env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"cold run exceeded {timeout:.0f} s"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    if "error" in result:
        print(f"cold run failed: {result['error']}", file=sys.stderr)
    else:
        print(f"cold run: setup {result['setup_s']:.3f} s, wall {result['wall_s']:.3f} s"
              f" (read {result['raw_wall_s']:.3f} s, probe {result['probe_us']:.0f} us)"
              f"{' traced' if trace_out else ''}", file=sys.stderr)
    return result


def load_canonical(size: str, workload: str) -> dict:
    """The committed seed-0 digests ({} when none are recorded)."""
    path = HERE / "digests.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text()).get(size, {}).get(workload, {})


def count_failures(runs: list[dict], canonical: dict | None) -> tuple[int, int]:
    """(attempted, failed) operations over all cold runs.

    An operation fails when its run raised, its oracle check failed, its
    digest differs from the first run's, or (canonical seed) from the
    committed digest.
    """
    reference = next((r["digests"] for r in runs if "digests" in r), None)
    attempted = failed = 0
    for run in runs:
        if "digests" not in run:
            ops = len(reference) if reference else 1
            attempted += ops
            failed += ops
            continue
        digests = run["digests"]
        bad = set(run["oracle_failed"])
        bad |= {op for op, d in digests.items() if reference.get(op) != d}
        bad |= set(reference) - set(digests)
        if canonical is not None:
            bad |= {op for op, d in digests.items() if canonical.get(op) != d}
            bad |= set(canonical) - set(digests)
        attempted += max(len(digests), len(reference))
        failed += len(bad)
    return attempted, failed


def layer_summary(traced: list[dict], untraced: list[dict]) -> tuple[dict, bool]:
    """Per-layer metrics over the traced runs, and whether counts repeat."""
    from spans import HOST_METRICS, LAYER_METRICS, OVERHEAD_METRIC

    repeat = len({r["structure"] for r in traced}) == 1
    metrics = {}
    for name, unit, _source in LAYER_METRICS:
        values = [r["layers"][name] for r in traced]
        if unit == "ms" or name == "pipeline.unit_ms.p90_beyond":
            value = statistics.median(values)
        else:
            repeat = repeat and len(set(values)) == 1
            value = values[0]
        metrics[name] = {"value": value, "unit": unit}
    # Traced runs have no probe, so the ratio compares times as read.
    ratio = statistics.median(r["raw_wall_s"] for r in traced) / statistics.median(
        r["raw_wall_s"] for r in untraced
    )
    metrics[OVERHEAD_METRIC[0]] = {"value": ratio, "unit": OVERHEAD_METRIC[1]}
    for name, unit, key, scale in HOST_METRICS:
        value = statistics.median(r[key] for r in untraced) * scale
        metrics[name] = {"value": value, "unit": unit}
    return metrics, repeat


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="workload size (smoke: seconds, for the smoke test)")
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's digests as the canonical ones "
                             "(seed 0 only)")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {root / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    if args.record_digests and args.seed != 0:
        parser.error("--record-digests needs --seed 0")

    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    env = child_env(root)
    trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    minimum = 4 if args.trace else 3
    runs: list[dict] = []
    traced_flags: list[bool] = []
    spans_s: list[float] = []
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(runs) % 2 == 1
        t0 = time.perf_counter()
        runs.append(cold_run(
            args, env, out_dir / f"work-{os.getpid()}",
            trace_path if traced else None, oracles=not runs,
            timeout=min(CHILD_TIMEOUT_S, DEADLINE_S - (t0 - started)),
        ))
        traced_flags.append(traced)
        spans_s.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - started
        if elapsed > HARD_STOP_S or (
            len(runs) >= minimum and elapsed + statistics.median(spans_s) > args.seconds
        ):
            break

    canonical = None
    if args.seed == 0 and not args.record_digests:
        canonical = load_canonical(args.size, args.workload)
    attempted, failed = count_failures(runs, canonical)
    ok = [(r, t) for r, t in zip(runs, traced_flags) if "error" not in r]
    untraced = [r for r, t in ok if not t]
    traced_runs = [r for r, t in ok if t]
    correct = failed == 0 and len(ok) == len(runs)
    if args.trace:
        metrics, repeat = (
            layer_summary(traced_runs, untraced) if traced_runs and untraced else ({}, False)
        )
        correct = correct and repeat
    else:
        metrics = {
            name: {"value": statistics.median(r[name] for r in untraced), "unit": unit}
            for name, unit in END_TO_END
        } if untraced else {}

    if args.record_digests and correct:
        path = HERE / "digests.json"
        table = json.loads(path.read_text()) if path.is_file() else {}
        table.setdefault(args.size, {})[args.workload] = runs[0]["digests"]
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
