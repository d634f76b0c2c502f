"""Span recorder for the traced run, and the layer table it reports.

The traced run wraps the public function or method at each module
boundary of ``repro`` (see :data:`METHODS` and :data:`FUNCTIONS`).  A
function imported by name into another module is replaced there too,
so every call site records.  Nothing is wrapped in an untraced run.

Each span is ``[name, start_ns, end_ns, parent, unit]``: ``parent`` is
the index of the enclosing span (-1 at top level) and ``unit`` the id
of the :mod:`repro.pipeline` work unit that was running, or ``main``.
Spans stay in memory and are written as one JSON file at exit.  A
span's self time is its duration minus the time its child spans cover;
:func:`layer_metrics` sums self times and call counts per layer.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import Counter

#: Methods wrapped in the traced run: (module, class, attribute, span).
METHODS = (
    ("repro.cellnet.world", "RadioEnvironment", "cells_near", "cellnet.cells_near"),
    ("repro.cellnet.world", "RadioEnvironment", "snapshot", "cellnet.snapshot"),
    ("repro.cellnet.world", "RadioEnvironment", "prepared_for", "cellnet.prepared_for"),
    ("repro.cellnet.world", "RadioEnvironment", "snapshot_batch", "cellnet.snapshot_batch"),
    ("repro.config.profiles", "CarrierProfile", "lte_config", "config.lte_config"),
    ("repro.config.profiles", "CarrierProfile", "observed_lte_config",
     "config.observed_lte_config"),
    ("repro.rrc.broadcast", "ConfigServer", "sib_messages", "rrc.sib_messages"),
    ("repro.rrc.diag", "DiagWriter", "write", "rrc.diag_write"),
    ("repro.rrc.diag", "DiagReader", "__iter__", "rrc.diag_read"),
    ("repro.core.crawler", "ConfigCrawler", "feed", "core.crawl.feed"),
    ("repro.core.crawler", "ConfigCrawler", "finish", "core.crawl.finish"),
    ("repro.core.crawler", "CellConfigSnapshot", "to_config_samples",
     "core.to_config_samples"),
    ("repro.core.mmlab", "MMLab", "extract_handoffs", "core.extract_handoffs"),
    ("repro.datasets.store", "ConfigSampleStore", "extend", "datasets.store.extend"),
    ("repro.datasets.store", "ConfigSampleStore", "save", "datasets.store.save"),
    ("repro.datasets.store", "ConfigSampleStore", "load", "datasets.store.load"),
    ("repro.datasets.store", "ConfigSampleStore", "unique_values", "datasets.store.query"),
    ("repro.datasets.store", "ConfigSampleStore", "group_by", "datasets.store.query"),
    ("repro.datasets.store", "ConfigSampleStore", "filter", "datasets.store.query"),
    ("repro.ue.device", "UserEquipment", "tick", "ue.tick"),
    ("repro.ue.device", "UserEquipment", "quiet_tick", "ue.quiet_tick"),
    ("repro.ue.measurement", "MeasurementEngine", "step", "ue.measure"),
    ("repro.ue.measurement", "BatchMeasurementState", "step", "ue.measure"),
    ("repro.ue.reporting", "EventMonitor", "step", "ue.events"),
    ("repro.ue.reporting", "EventMonitor", "step_round", "ue.events"),
    ("repro.ue.handover", "NetworkController", "on_measurement_report", "ue.handover"),
    ("repro.simulate.runner", "DriveSimulator", "run", "simulate.drive"),
    ("repro.simulate.throughput", "ThroughputModel", "capacity_bps", "simulate.throughput"),
    ("repro.simulate.throughput", "ThroughputModel", "rtt_ms", "simulate.throughput"),
    ("repro.simulate.throughput", "ThroughputModel", "ping_lost", "simulate.throughput"),
    ("repro.simulate.fleet", "FleetSimulator", "simulate_shard", "simulate.fleet_shard"),
    ("repro.lint.rules", "RegisteredRule", "check", "lint.cell_rules"),
    ("repro.lint.graph", "GraphAnalyzer", "analyze", "lint.graph"),
    ("repro.lint.coverage", "CoverageAnalyzer", "analyze", "lint.coverage"),
)

#: Module-level functions wrapped in the traced run: (module, name, span).
FUNCTIONS = (
    ("repro.cellnet.radio", "compute_metrics_batch", "cellnet.compute_metrics_batch"),
    ("repro.lint.engine", "world_snapshots", "lint.snapshots"),
    ("repro.lint.engine", "warn_before_run", "lint.preflight"),
    ("repro.lint.report", "render_sarif", "lint.render"),
    ("repro.lint.engine", "lint_snapshots", "lint.audit"),
)

#: Work units: their ``run`` is a span that also sets the unit id.
UNITS = (
    ("repro.datasets.d2", "D2SessionUnit", "pipeline.unit.d2_session"),
    ("repro.datasets.d1", "D1DriveUnit", "pipeline.unit.d1_drive"),
    ("repro.simulate.fleet", "FleetShardUnit", "pipeline.unit.fleet_shard"),
    ("repro.lint.graph", "GraphComponentUnit", "pipeline.unit.graph_component"),
    ("repro.lint.coverage", "CellCoverageUnit", "pipeline.unit.coverage_cell"),
)

#: The Q1 figure drivers: each module's ``run`` is a ``core.analysis`` span.
ANALYSIS_MODULES = (
    "fig11_threshold_gaps", "fig12_dataset", "fig13_temporal",
    "fig14_param_distributions", "fig15_carrier_distributions",
    "fig16_diversity_all", "fig17_carrier_diversity", "fig18_priority_frequency",
    "fig19_freq_dependence", "fig20_city_priorities", "fig21_spatial_diversity",
    "fig22_rat_evolution", "tab04_rat_breakdown",
)

#: Layer groups: metric prefix -> the span names summed into it (a
#: prefix missing here is one span name).  A work unit's own self time
#: counts toward the layer that runs it where one layer owns the unit.
GROUPS = {
    "cellnet.snapshot": ("cellnet.snapshot", "cellnet.prepared_for",
                         "cellnet.snapshot_batch", "cellnet.compute_metrics_batch"),
    "core.crawl": ("core.crawl.feed", "core.crawl.finish"),
    "simulate.fleet_shard": ("simulate.fleet_shard", "pipeline.unit.fleet_shard"),
    "lint.graph": ("lint.graph", "pipeline.unit.graph_component"),
    "lint.coverage": ("lint.coverage", "pipeline.unit.coverage_cell"),
}

#: Every per-layer metric: (name, unit, source).  ``source`` is
#: ``(kind, key)``: ``calls``/``self`` of a group, ``yields`` of a
#: generator group, or ``count``/``value`` read from the counters the
#: recorder and the workload keep.  Metrics in ms are timings; all
#: others are counts that must repeat exactly for one seed.
LAYER_METRICS = (
    ("cellnet.cells_near.calls", "count", ("calls", "cellnet.cells_near")),
    ("cellnet.cells_near.self_ms", "ms", ("self", "cellnet.cells_near")),
    ("cellnet.snapshot.calls", "count", ("calls", "cellnet.snapshot")),
    ("cellnet.snapshot.self_ms", "ms", ("self", "cellnet.snapshot")),
    ("cellnet.snapshot_cache.hit_rate", "ratio", ("value", "snapshot_cache.hit_rate")),
    ("config.observed_lte_config.calls", "count", ("calls", "config.observed_lte_config")),
    ("config.observed_lte_config.self_ms", "ms", ("self", "config.observed_lte_config")),
    ("config.lte_config.calls", "count", ("calls", "config.lte_config")),
    ("config.lte_config.self_ms", "ms", ("self", "config.lte_config")),
    ("config.repeat_share", "ratio", ("value", "config.repeat_share")),
    ("rrc.sib_messages.calls", "count", ("calls", "rrc.sib_messages")),
    ("rrc.sib_messages.self_ms", "ms", ("self", "rrc.sib_messages")),
    ("rrc.diag_write.records", "count", ("calls", "rrc.diag_write")),
    ("rrc.diag_write.bytes", "bytes", ("count", "rrc.diag_write.payload_bytes")),
    ("rrc.diag_write.self_ms", "ms", ("self", "rrc.diag_write")),
    ("rrc.diag_read.records", "count", ("yields", "rrc.diag_read")),
    ("rrc.diag_read.self_ms", "ms", ("self", "rrc.diag_read")),
    ("core.crawl.self_ms", "ms", ("self", "core.crawl")),
    ("core.to_config_samples.calls", "count", ("calls", "core.to_config_samples")),
    ("core.to_config_samples.self_ms", "ms", ("self", "core.to_config_samples")),
    ("core.extract_handoffs.calls", "count", ("calls", "core.extract_handoffs")),
    ("core.extract_handoffs.self_ms", "ms", ("self", "core.extract_handoffs")),
    ("core.analysis.calls", "count", ("calls", "core.analysis")),
    ("core.analysis.self_ms", "ms", ("self", "core.analysis")),
    ("datasets.store.extend_ms", "ms", ("self", "datasets.store.extend")),
    ("datasets.store.save_ms", "ms", ("self", "datasets.store.save")),
    ("datasets.store.load_ms", "ms", ("self", "datasets.store.load")),
    ("datasets.store.query_ms", "ms", ("self", "datasets.store.query")),
    ("datasets.store.bytes", "bytes", ("value", "store.bytes")),
    ("ue.tick.calls", "count", ("calls", "ue.tick")),
    ("ue.tick.self_ms", "ms", ("self", "ue.tick")),
    ("ue.quiet_tick.calls", "count", ("calls", "ue.quiet_tick")),
    ("ue.measure.calls", "count", ("calls", "ue.measure")),
    ("ue.measure.self_ms", "ms", ("self", "ue.measure")),
    ("ue.events.calls", "count", ("calls", "ue.events")),
    ("ue.events.self_ms", "ms", ("self", "ue.events")),
    ("ue.handover.calls", "count", ("calls", "ue.handover")),
    ("ue.handover.self_ms", "ms", ("self", "ue.handover")),
    ("ue.handoffs", "count", ("value", "handoffs")),
    ("simulate.drive.self_ms", "ms", ("self", "simulate.drive")),
    ("simulate.throughput.calls", "count", ("calls", "simulate.throughput")),
    ("simulate.throughput.self_ms", "ms", ("self", "simulate.throughput")),
    ("simulate.fleet_shard.self_ms", "ms", ("self", "simulate.fleet_shard")),
    ("lint.snapshots.self_ms", "ms", ("self", "lint.snapshots")),
    ("lint.cell_rules.self_ms", "ms", ("self", "lint.cell_rules")),
    ("lint.graph.self_ms", "ms", ("self", "lint.graph")),
    ("lint.coverage.self_ms", "ms", ("self", "lint.coverage")),
    ("lint.render.self_ms", "ms", ("self", "lint.render")),
    ("lint.warm_audit_ms", "ms", ("value", "lint.warm_audit_ms")),
    ("lint.graph.cache_hit_rate", "ratio", ("value", "lint.graph.cache_hit_rate")),
    ("lint.coverage.cache_hit_rate", "ratio", ("value", "lint.coverage.cache_hit_rate")),
    ("lint.findings", "count", ("count", "lint.findings")),
    ("lint.preflight.self_ms", "ms", ("self", "lint.preflight")),
    ("pipeline.units", "count", ("value", "pipeline.units")),
    ("pipeline.units_failed", "count", ("count", "pipeline.units_failed")),
    ("pipeline.unit_ms.p50", "ms", ("value", "pipeline.unit_ms.p50")),
    ("pipeline.unit_ms.p90", "ms", ("value", "pipeline.unit_ms.p90")),
    ("pipeline.unit_ms.p90_beyond", "count", ("value", "pipeline.unit_ms.p90_beyond")),
)

#: Reported by the parent from traced against untraced wall times.
OVERHEAD_METRIC = ("trace.overhead_ratio", "ratio")

#: Read by the parent from the untraced cold runs of a traced run:
#: (name, unit, key of the cold run's result, scale).  They show how
#: fast the host ran and what the clock read before the probe's scaling.
HOST_METRICS = (
    ("host.probe_us", "us", "probe_us", 1.0),
    ("host.raw_wall_ms", "ms", "raw_wall_s", 1000.0),
)


class Recorder:
    """Keeps spans and counters in memory for one traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.units: list[str] = ["main"]
        self.spans: list[list[int]] = []
        self.counts: Counter = Counter()
        self.unit = 0
        self._stack: list[int] = []
        self._ids: dict[str, int] = {}
        self.t0 = time.perf_counter_ns()

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(args, result)`` runs on return."""
        nid = self._intern(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [nid, clock(), 0, stack[-1] if stack else -1, recorder.unit]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if after is not None:
                after(args, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """A generator function recording one span per resumption."""
        nid = self._intern(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        recorder = self
        yields = name + ".yields"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                record = [nid, clock(), 0, stack[-1] if stack else -1, recorder.unit]
                stack.append(len(spans))
                spans.append(record)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    stack.pop()
                    record[2] = clock()
                recorder.counts[yields] += 1
                yield item

        return traced

    def wrap_unit(self, name: str, fn):
        """A work unit's ``run``: one span carrying the unit's own id."""
        traced = self.wrap(name, fn)
        recorder = self

        @functools.wraps(fn)
        def run(unit):
            previous = recorder.unit
            recorder.unit = len(recorder.units)
            recorder.units.append(f"{type(unit).__name__}#{unit.unit_id}")
            try:
                return traced(unit)
            except Exception:
                recorder.counts["pipeline.units_failed"] += 1
                raise
            finally:
                recorder.unit = previous

        return run

    # -- reading the spans back ------------------------------------------------

    def durations(self) -> tuple[list[int], list[int]]:
        """(total, self) nanoseconds per span."""
        total = [end - start for _, start, end, _, _ in self.spans]
        own = list(total)
        for index, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                own[parent] -= total[index]
        return total, own

    def structure_digest(self) -> str:
        """Digest of the span-name tree: (parent name, name) edge counts."""
        edges: Counter = Counter()
        names = self.names
        for nid, _, _, parent, _ in self.spans:
            edges[(names[self.spans[parent][0]] if parent >= 0 else "", names[nid])] += 1
        return hashlib.sha256(repr(sorted(edges.items())).encode()).hexdigest()

    def write(self, path: str, header: dict) -> None:
        """Write the whole trace as one JSON document."""
        t0 = self.t0
        payload = dict(header)
        payload.update(
            names=self.names,
            units=self.units,
            span_fields=["name", "start_us", "end_us", "parent", "unit"],
            spans=[
                [nid, (start - t0) // 1000, (end - t0) // 1000, parent, unit]
                for nid, start, end, parent, unit in self.spans
            ],
            counts=dict(sorted(self.counts.items())),
        )
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f, separators=(",", ":"))


def _wrap_callable(recorder: Recorder, name: str, raw, after=None):
    if isinstance(raw, classmethod):
        return classmethod(_wrap_callable(recorder, name, raw.__func__, after))
    if inspect.isgeneratorfunction(raw):
        return recorder.wrap_generator(name, raw)
    return recorder.wrap(name, raw, after)


def _replace_everywhere(original, replacement) -> None:
    """Rebind ``original`` in every loaded ``repro`` module that holds it."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary of ``repro`` for this process."""
    import repro.rrc.diag as diag

    seen_cells: set = set()

    def lte_config_after(args, _result) -> None:
        cell_id = args[1].cell_id
        if cell_id in seen_cells:
            recorder.counts["config.lte_config.repeats"] += 1
        seen_cells.add(cell_id)

    def findings_after(_args, report) -> None:
        recorder.counts["lint.findings"] += len(report.findings)

    hooks = {"config.lte_config": lte_config_after, "lint.audit": findings_after}
    for module_name, class_name, attr, span in METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        raw = inspect.getattr_static(cls, attr)
        setattr(cls, attr, _wrap_callable(recorder, span, raw, hooks.get(span)))
    for module_name, class_name, span in UNITS:
        cls = getattr(importlib.import_module(module_name), class_name)
        cls.run = recorder.wrap_unit(span, cls.run)
    for module_name in ANALYSIS_MODULES:
        module = importlib.import_module(f"repro.experiments.{module_name}")
        module.run = recorder.wrap("core.analysis", module.run)
    for module_name, name, span in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), name)
        _replace_everywhere(original, recorder.wrap(span, original, hooks.get(span)))

    # Counting passthrough, no span: the payload bytes DiagWriter.write
    # encodes (record headers are not counted).
    encode = diag.encode_message

    def counted_encode(message):
        payload = encode(message)
        recorder.counts["rrc.diag_write.payload_bytes"] += len(payload)
        return payload

    diag.encode_message = counted_encode


def layer_metrics(recorder: Recorder, values: dict) -> dict[str, float]:
    """Every per-layer metric of one traced process.

    ``values`` holds what the workload measured itself (cache hit
    rates, store bytes, handoffs, the warm-audit time).
    """
    total, own = recorder.durations()
    names = recorder.names
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    unit_ms: list[float] = []
    for index, (nid, _, _, _, _) in enumerate(recorder.spans):
        name = names[nid]
        calls[name] += 1
        self_ns[name] += own[index]
        if name.startswith("pipeline.unit."):
            unit_ms.append(total[index] / 1e6)
    counts = dict(recorder.counts)
    lte_calls = calls["config.lte_config"]
    derived = dict(values)
    derived["config.repeat_share"] = (
        counts.get("config.lte_config.repeats", 0) / lte_calls if lte_calls else 0.0
    )
    derived["pipeline.units"] = len(unit_ms)
    p50 = p90 = 0.0
    beyond = 0
    if len(unit_ms) >= 2:
        cuts = statistics.quantiles(unit_ms, n=10, method="inclusive")
        p50, p90 = cuts[4], cuts[8]
        beyond = sum(1 for ms in unit_ms if ms > p90)
    elif unit_ms:
        p50 = p90 = unit_ms[0]
    derived.update({
        "pipeline.unit_ms.p50": p50,
        "pipeline.unit_ms.p90": p90,
        "pipeline.unit_ms.p90_beyond": beyond,
    })
    out: dict[str, float] = {}
    for metric, _unit, (kind, key) in LAYER_METRICS:
        group = GROUPS.get(key, (key,))
        if kind == "calls":
            out[metric] = sum(calls[s] for s in group)
        elif kind == "self":
            out[metric] = sum(self_ns[s] for s in group) / 1e6
        elif kind == "yields":
            out[metric] = sum(counts.get(s + ".yields", 0) for s in group)
        elif kind == "count":
            out[metric] = counts.get(key, 0)
        else:
            out[metric] = derived.get(key, 0)
    return out
