"""The benchmark's four workloads: inputs, timed call, outputs to check.

Every workload is serial (one worker) and builds its inputs from the
benchmark seed.  Seed 0 is the canonical seed: every builder runs at its
repository default (world 7, configurations 2018, volunteers 11, fleet
2024).  Seed ``n`` changes every cell's configuration (configuration
seed 2018 + n) and keeps the deployment, the volunteers and every
trajectory canonical: the trajectories' lengths, and so the number of
ticks, would otherwise swing with the seed while the fixed costs of a
run do not.

A workload has three phases, and only ``run`` is timed:

* ``setup`` builds the world, scenario or context (set-up time);
* ``run`` is the workload proper, from inputs to a complete result;
* ``check`` returns one digest per operation plus the operations whose
  any-seed oracle check failed.  Digests of the canonical seed are
  committed in ``digests.json``, and every cold run of a benchmark run
  must reproduce the first cold run's digests.

``items`` gives the workload's item count and the span it is counted
over (``None``: the whole timed run), and ``values`` what it measures
itself for the per-layer table (cache hit rates, store bytes, handoffs).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import replace
from pathlib import Path

import repro.lint.engine as lint_engine
import repro.lint.report as lint_report
from repro.datasets.d1 import build_d1, d1_scenario, d1_work_units
from repro.datasets.d2 import D2Build, D2Options, build_d2, d2_context, d2_world
from repro.datasets.store import ConfigSampleStore
from repro.experiments import registry
from repro.experiments.common import DEFAULT_D1_OPTIONS
from repro.lint.coverage import CoverageAnalyzer
from repro.lint.graph import GraphAnalyzer
from repro.rrc.broadcast import ConfigServer
from repro.simulate.fleet import (
    FleetOptions,
    make_traffic,
    run_fleet,
    trajectory_for,
    ue_specs,
)
from repro.simulate.runner import DriveSimulator
from repro.simulate.scenarios import ScenarioSpec

#: Workload sizes.  ``full`` is what the benchmark measures; ``smoke``
#: runs the same code paths in a few seconds for the smoke test.
SIZES = {
    "full": {
        "d2-crowd": {"n_volunteers": 5},
        "d1-drives": {"scale": 0.75, "drive_duration_s": 60.0},
        "fleet-city": {"n_ues": 96, "duration_s": 60.0, "shard_size": 32},
        "lint-audit": {"max_cells_per_carrier": 60},
    },
    "smoke": {
        "d2-crowd": {"n_volunteers": 2},
        "d1-drives": {"scale": 0.5, "drive_duration_s": 20.0},
        "fleet-city": {"n_ues": 12, "duration_s": 10.0, "shard_size": 4},
        "lint-audit": {"max_cells_per_carrier": 8},
    },
}

#: The Q1 figure and table drivers run on the reloaded D2 store.
Q1_EXPERIMENTS = (
    "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
    "fig18", "fig19", "fig20", "fig21", "fig22", "tab04",
)

#: Fleet member checked against its solo drive (index 2 is a pedestrian
#: in the default mix, so it moves, hands off and shares no trajectory).
FLEET_PROBE = 2


def seeds(seed: int) -> dict[str, int]:
    """Builder seeds for benchmark seed ``seed`` (0 = repository defaults)."""
    return {"world": 7, "config": 2018 + seed, "volunteers": 11, "fleet": 2024}


def _sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _sample_key(sample) -> tuple:
    return (sample.carrier, sample.gci, sample.rat, sample.channel, sample.city,
            sample.parameter, sample.value_key, sample.observed_day, sample.round_index)


class D2Crowd:
    """Crowd D2 build, store save and reload, and the Q1 figure drivers."""

    name = "d2-crowd"

    def setup(self, size: dict, seed: int, workdir: Path) -> dict:
        s = seeds(seed)
        options = D2Options(
            seed=s["world"],
            config_seed=s["config"],
            volunteer_seed=s["volunteers"],
            include_dense=False,
            workers=1,
            **size,
        )
        d2_context(options)
        return {"options": options, "path": workdir / "d2-store.jsonl"}

    def run(self, state: dict) -> dict:
        build = build_d2(state["options"])
        build.store.save(state["path"])
        loaded = ConfigSampleStore.load(state["path"])
        reloaded = D2Build(
            store=loaded,
            plan=build.plan,
            env=build.env,
            server=build.server,
            n_sessions=build.n_sessions,
            n_logs_bytes=build.n_logs_bytes,
        )
        reports = [registry.run(exp_id, d2=reloaded) for exp_id in Q1_EXPERIMENTS]
        return {"build": build, "loaded": loaded, "reports": reports}

    def items(self, out: dict) -> tuple[int, tuple | None]:
        """D2 samples, per second of the timed run."""
        return len(out["build"].store), None

    def values(self, state: dict, out: dict) -> dict:
        build = out["build"]
        cache = build.env.snapshot_cache_stats()
        return {
            "snapshot_cache.hit_rate": cache["hit_rate"],
            "store.bytes": os.path.getsize(state["path"]),
        }

    def check(self, state: dict, out: dict, oracles: bool) -> tuple[dict, list]:
        build, loaded = out["build"], out["loaded"]
        saved = Path(state["path"]).read_bytes()
        # One operation per session: the store keeps each session's
        # samples contiguous, tagged with its day and round; the saved
        # file holds one JSON row per sample, in store order.
        digests: dict[str, str] = {}
        group_key, rows = None, []
        for sample, row in zip(build.store, saved.splitlines()):
            key = (sample.observed_day, sample.round_index)
            if key != group_key and rows:
                digests[f"session-{len(digests):03d}"] = _sha(b"\n".join(rows))
                rows = []
            group_key = key
            rows.append(row)
        if rows:
            digests[f"session-{len(digests):03d}"] = _sha(b"\n".join(rows))
        digests["store"] = _sha(saved)
        digests["report"] = _sha("\n\n".join(r.formatted() for r in out["reports"]))
        # Built samples hold list values where reloaded ones hold tuples,
        # so samples are compared with the value in its hashable form.
        same = [_sample_key(s) for s in loaded] == [_sample_key(s) for s in build.store]
        return digests, ([] if same else ["store"])


class D1Drives:
    """Solo Type-II drives on four carriers, with handoff extraction."""

    name = "d1-drives"

    def setup(self, size: dict, seed: int, workdir: Path) -> dict:
        s = seeds(seed)
        # The highway corridor runs have a fixed ~1 400 s length that no
        # option shortens; four of them would take longer than the other
        # twenty drives together, so the corridor is left out.
        options = replace(
            DEFAULT_D1_OPTIONS,
            seed=s["world"],
            config_seed=s["config"],
            highway_drives=0,
            workers=1,
            **size,
        )
        return {"options": options, "scenario": d1_scenario(options)}

    def run(self, state: dict) -> dict:
        return {"build": build_d1(state["options"])}

    def items(self, out: dict) -> tuple[int, tuple | None]:
        """UE ticks, per second of the timed run."""
        return sum(len(d.samples) for d in out["build"].drives), None

    def values(self, state: dict, out: dict) -> dict:
        cache = state["scenario"].env.snapshot_cache_stats()
        return {
            "snapshot_cache.hit_rate": cache["hit_rate"],
            "handoffs": sum(len(d.handoffs) for d in out["build"].drives),
        }

    @staticmethod
    def _drive_digest(drive) -> str:
        return _sha(
            repr((drive.samples, drive.handoffs, drive.ping_rtts_ms)) + _sha(drive.diag_log)
        )

    def check(self, state: dict, out: dict, oracles: bool) -> tuple[dict, list]:
        build = out["build"]
        digests = {
            f"drive-{i:03d}": self._drive_digest(d) for i, d in enumerate(build.drives)
        }
        digests["instances"] = _sha("\n".join(i.to_json() for i in build.store))
        failed = []
        if oracles:
            # Drive 0 again on the scalar reference path: bit for bit.
            unit = d1_work_units(state["options"], state["scenario"])[0]
            previous = os.environ.get("REPRO_SCALAR")
            os.environ["REPRO_SCALAR"] = "1"
            try:
                scalar = unit.run().drive
            finally:
                if previous is None:
                    del os.environ["REPRO_SCALAR"]
                else:
                    os.environ["REPRO_SCALAR"] = previous
            if self._drive_digest(scalar) != digests["drive-000"]:
                failed.append("drive-000")
        return digests, failed


class FleetCity:
    """A three-shard city fleet in lockstep with the default UE mix."""

    name = "fleet-city"

    def setup(self, size: dict, seed: int, workdir: Path) -> dict:
        s = seeds(seed)
        options = FleetOptions(
            scenario=ScenarioSpec(seed=s["world"], config_seed=s["config"]),
            fleet_seed=s["fleet"],
            **size,
        )
        return {"options": options, "scenario": options.scenario.build()}

    def run(self, state: dict) -> dict:
        return {"result": run_fleet(state["options"], workers=1)}

    def items(self, out: dict) -> tuple[int, tuple | None]:
        """UE-ticks, per second of the timed run."""
        return out["result"].aggregates.total_ticks, None

    def values(self, state: dict, out: dict) -> dict:
        result = out["result"]
        return {
            "snapshot_cache.hit_rate": result.snapshot_cache["hit_rate"],
            "handoffs": result.aggregates.total_handoffs,
        }

    def check(self, state: dict, out: dict, oracles: bool) -> tuple[dict, list]:
        options, result = state["options"], out["result"]
        shard = options.shard_size
        digests = {}
        for start in range(0, options.n_ues, shard):
            members = result.ues[start:start + shard]
            digests[f"shard-{start // shard}"] = _sha(repr([
                (ue.summary_row(), ue.handoffs, ue.ping_rtts_ms) for ue in members
            ]))
        digests["aggregates"] = _sha(json.dumps(result.aggregates.to_dict(), sort_keys=True))
        failed = []
        if oracles:
            # One member against its solo DriveSimulator run.
            scenario = state["scenario"]
            spec = ue_specs(options)[FLEET_PROBE]
            solo = DriveSimulator(
                scenario.env, scenario.server, spec.carrier, seed=spec.seed,
                tick_ms=options.tick_ms, config_lint=False,
            ).run(trajectory_for(scenario, options, spec), make_traffic(options.traffic))
            member = result.ues[FLEET_PROBE]
            if (
                solo.handoffs != member.handoffs
                or solo.ping_rtts_ms != member.ping_rtts_ms
                or _sha(solo.diag_log) != member.diag_sha256
            ):
                failed.append(f"shard-{FLEET_PROBE // shard}")
        return digests, failed


class LintAudit:
    """Cold audit with graph and coverage passes, SARIF, warm re-audit."""

    name = "lint-audit"

    def setup(self, size: dict, seed: int, workdir: Path) -> dict:
        s = seeds(seed)
        world = d2_world(seed=s["world"], config_seed=s["config"])
        return {"world": world, "config_seed": s["config"], **size}

    def run(self, state: dict) -> dict:
        env = state["world"].env
        t0 = time.perf_counter()
        server = ConfigServer(env, seed=state["config_seed"])
        graph, coverage = GraphAnalyzer(), CoverageAnalyzer()

        def audit():
            return lint_engine.lint_world(
                env, server,
                max_cells_per_carrier=state["max_cells_per_carrier"],
                graph=True, coverage=True,
                graph_analyzer=graph, coverage_analyzer=coverage,
            )

        cold = audit()
        t1 = time.perf_counter()
        sarif = lint_report.render_sarif(cold)
        t2 = time.perf_counter()
        warm = audit()
        t3 = time.perf_counter()
        return {"cold": cold, "sarif": sarif, "warm": warm,
                "cold_span": (t0, t1), "warm_s": t3 - t2}

    def items(self, out: dict) -> tuple[int, tuple | None]:
        """Cells audited, per second of the cold audit."""
        return out["cold"].snapshots_audited, out["cold_span"]

    def values(self, state: dict, out: dict) -> dict:
        cold, warm = out["cold"], out["warm"]
        graphs = (cold.graph_stats, warm.graph_stats)
        cover = (cold.coverage_stats, warm.coverage_stats)
        components = sum(g.components for g in graphs)
        cells = sum(c.cells for c in cover)
        return {
            "snapshot_cache.hit_rate": state["world"].env.snapshot_cache_stats()["hit_rate"],
            "lint.warm_audit_ms": out["warm_s"] * 1000.0,
            "lint.graph.cache_hit_rate":
                sum(g.components_cached for g in graphs) / components if components else 0.0,
            "lint.coverage.cache_hit_rate":
                sum(c.cells_cached for c in cover) / cells if cells else 0.0,
        }

    def check(self, state: dict, out: dict, oracles: bool) -> tuple[dict, list]:
        cold, warm = out["cold"], out["warm"]
        digests = {
            "cold": _sha(repr((cold.snapshots_audited, cold.findings))),
            "render": _sha(out["sarif"]),
            "warm": _sha(repr((warm.snapshots_audited, warm.findings))),
        }
        same = warm.findings == cold.findings and warm.witnesses == cold.witnesses
        return digests, ([] if same else ["warm"])


WORKLOADS = {w.name: w for w in (D2Crowd(), D1Drives(), FleetCity(), LintAudit())}
