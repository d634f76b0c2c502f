"""Smoke test of the benchmark at reduced sizes.

Run from the repository root (about a minute):

    python3 -m pytest perfbench -q

Every workload runs at ``--size smoke`` on the canonical seed, untraced
and traced.  Every end-to-end and per-layer metric must print with the
unit ``BENCHMARK.json`` gives it, all output checks must pass, and a
layer that does not run on a workload must report no work there.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Layers each workload runs.  Every metric of any other layer must read
#: zero on that workload.
RUNS = {
    "d2-crowd": {
        "cellnet.cells_near", "config.observed_lte_config", "config.lte_config",
        "rrc.sib_messages", "rrc.diag_write", "rrc.diag_read", "core.crawl",
        "core.to_config_samples", "core.analysis", "datasets.store",
    },
    "d1-drives": {
        "cellnet.cells_near", "cellnet.snapshot", "config.lte_config",
        "rrc.sib_messages", "rrc.diag_write", "rrc.diag_read", "core.extract_handoffs",
        "ue.tick", "ue.measure", "ue.events", "ue.handover", "ue.handoffs",
        "simulate.drive", "simulate.throughput", "lint.snapshots", "lint.cell_rules",
        "lint.findings", "lint.preflight",
    },
    "fleet-city": {
        "cellnet.cells_near", "cellnet.snapshot", "config.lte_config",
        "rrc.sib_messages", "rrc.diag_write", "ue.tick", "ue.quiet_tick",
        "ue.measure", "ue.events", "ue.handover", "ue.handoffs",
        "simulate.throughput", "simulate.fleet_shard",
    },
    "lint-audit": {
        "cellnet.cells_near", "config.lte_config", "lint.snapshots", "lint.cell_rules",
        "lint.graph", "lint.coverage", "lint.render", "lint.warm_audit_ms",
        "lint.findings",
    },
}

#: Layers every workload runs.
EVERYWHERE = {"pipeline", "trace", "host"}

#: Metrics that may read zero even where their layer runs.
MAY_BE_ZERO = {"config.repeat_share", "pipeline.units_failed", "pipeline.unit_ms.p90_beyond"}


def layer_of(metric: str) -> str:
    """The layer a per-layer metric belongs to (its name minus the last part)."""
    for layer in set().union(*RUNS.values(), EVERYWHERE):
        if metric == layer or metric.startswith(layer + "."):
            return layer
    if metric.startswith("cellnet.snapshot_cache"):
        return "cellnet.snapshot"
    if metric.startswith("config.repeat_share"):
        return "config.lte_config"
    raise AssertionError(f"{metric} belongs to no layer")


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(RUNS))
def test_end_to_end_metrics(workload):
    result = bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(RUNS))
def test_per_layer_metrics(workload):
    result = bench(workload, trace=1)
    assert result["correct"] is True, "counts or span structure did not repeat"
    assert result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    runs = RUNS[workload] | EVERYWHERE
    for name, entry in metrics.items():
        layer = layer_of(name)
        if layer not in runs:
            assert entry["value"] == 0, f"{name} reports work on {workload}"
        elif name not in MAY_BE_ZERO:
            assert entry["value"] > 0, f"{name} reports no work on {workload}"


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "d2-crowd", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
