"""Differential tests of the fleet's batched measurement and quiet passes.

:func:`~repro.ue.reporting.step_events_batch` marks a UE quiet only when
its own :meth:`~repro.ue.reporting.EventMonitor.step_round` would change
nothing; :class:`~repro.ue.measurement.BatchMeasurementState` borrows
each engine's noise tap and must hand back exactly the draws it did not
read.  Both are checked against the per-UE paths they stand in for.
"""

from __future__ import annotations

import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.cellnet.rat import RAT
from repro.config.events import EventConfig, EventType, PeriodicConfig
from repro.config.lte import MeasurementConfig
from repro.config.units import REPORT_INTERVAL_MS, TIME_TO_TRIGGER_MS
from repro.ue.measurement import BatchMeasurementState, MeasurementEngine
from repro.ue.reporting import EventMonitor, step_events_batch

_CARRIER = "A"
_TICK_MS = 200
_N_TICKS = 3

#: A small pool of event types, so monitors often arm the same
#: (event, metric) pair twice and members share slots.
_EVENTS = (
    EventType.A1, EventType.A2, EventType.A3, EventType.A4,
    EventType.A5, EventType.A6, EventType.B1, EventType.B2,
)
_NEEDS_T1 = (EventType.A1, EventType.A2, EventType.A4, EventType.A5, EventType.B1, EventType.B2)
_NEEDS_T2 = (EventType.A5, EventType.B2)


@st.composite
def _event(draw, like: EventConfig | None = None):
    """An armed event; ``like`` fixes its (event, metric) pair."""
    event = draw(st.sampled_from(_EVENTS)) if like is None else like.event
    metric = draw(st.sampled_from(("rsrp", "rsrq"))) if like is None else like.metric
    # Thresholds relative to the serving cell's level (see _at_level),
    # so each entry condition holds about half the time.
    span = 12.0 if metric == "rsrp" else 5.0
    level = st.floats(-span, span, allow_nan=False)
    return EventConfig(
        event=event,
        metric=metric,
        threshold1=draw(level) if event in _NEEDS_T1 else None,
        threshold2=draw(level) if event in _NEEDS_T2 else None,
        offset=draw(st.floats(-6.0, 6.0, allow_nan=False)),
        hysteresis=draw(st.floats(0.0, 4.0, allow_nan=False)),
        time_to_trigger_ms=draw(st.sampled_from(TIME_TO_TRIGGER_MS[:9])),
    )


@st.composite
def _events(draw):
    """Up to four armed events, often arming one (event, metric) pair twice."""
    events = draw(st.lists(_event(), max_size=3))
    if events and draw(st.booleans()):
        events.insert(draw(st.integers(0, len(events))), draw(_event(like=events[0])))
    return tuple(events)


#: True one time in five: most members are plain connected UEs.
_RARELY = st.sampled_from((False, False, False, False, True))

_MEMBER = st.fixed_dictionaries({
    "spot": st.integers(0, 5),
    "seed": st.integers(0, 2**16),
    "events": _events(),
    "periodic": st.one_of(
        st.none(),
        st.none(),
        st.builds(PeriodicConfig, report_interval_ms=st.sampled_from(REPORT_INTERVAL_MS)),
    ),
    # None: -44 dBm, which never closes the gate; else relative to the
    # serving RSRP, closing it about half the time.
    "s_measure": st.one_of(st.none(), st.floats(-6.0, 6.0, allow_nan=False)),
    "no_monitor": _RARELY,
    "pending": _RARELY,
    "inaudible": _RARELY,
    "ttt_state": _RARELY,
})


def _at_level(config: EventConfig, serving: dict) -> EventConfig:
    """``config`` with its thresholds shifted by the serving cell's level."""
    base = serving[config.metric]
    return replace(
        config,
        threshold1=None if config.threshold1 is None else base + config.threshold1,
        threshold2=None if config.threshold2 is None else base + config.threshold2,
    )


class _Member:
    """What step_events_batch reads of a UE, and the verdict it leaves."""

    def __init__(self, meas, monitor, pending_handover, location, serving):
        self.meas = meas
        self.monitor = monitor
        self.pending_handover = pending_handover
        self.location = location
        self.serving = serving
        self.quiet = None

    def mark_quiet(self, rsrp: float, rsrq: float) -> None:
        self.quiet = (rsrp, rsrq)


def _monitor_state(monitor: EventMonitor) -> tuple:
    return copy.deepcopy(
        ([(s.entry_since, s.reported) for s in monitor._states], monitor._last_periodic_ms)
    )


def _is_clean(monitor: EventMonitor) -> bool:
    return monitor.meas_config.periodic is None and not any(
        s.entry_since or s.reported for s in monitor._states
    )


@pytest.fixture(scope="module")
def spots(env):
    """Six (location, strongest LTE cell, its levels, an inaudible A cell) tuples."""
    cells = sorted(
        (c for c in env.registry if c.carrier == _CARRIER and c.rat is RAT.LTE),
        key=lambda c: c.cell_id,
    )
    out = []
    for cell in cells[:: max(len(cells) // 6, 1)][:6]:
        location = cell.location.offset(140.0, -90.0)
        snap = env.snapshot(location, _CARRIER)
        far = max(cells, key=lambda c: c.location.distance_to(location))
        assert far not in snap
        strongest = snap.strongest(rat=RAT.LTE)
        measured = snap.measure(strongest)
        levels = {"rsrp": measured.rsrp_dbm, "rsrq": measured.rsrq_db}
        out.append((location, strongest, levels, far))
    return out


@seed(50517)
@settings(max_examples=200, deadline=None, database=None)
@given(members=st.lists(_MEMBER, min_size=1, max_size=6))
def test_quiet_verdict_matches_own_step_round(env, spots, members):
    ues = []
    for spec in members:
        location, strongest, levels, far = spots[spec["spot"]]
        monitor = None
        if not spec["no_monitor"]:
            monitor = EventMonitor(MeasurementConfig(
                events=tuple(_at_level(e, levels) for e in spec["events"]),
                periodic=spec["periodic"],
                s_measure=-44.0 if spec["s_measure"] is None else levels["rsrp"] + spec["s_measure"],
            ))
            if spec["ttt_state"] and monitor._states:
                monitor._states[0].entry_since[strongest.cell_id] = -_TICK_MS
        meas = MeasurementEngine(env, np.random.default_rng(spec["seed"]))
        ues.append(_Member(
            meas, monitor, object() if spec["pending"] else None, location,
            far if spec["inaudible"] else strongest,
        ))
    state = BatchMeasurementState(len(ues))
    rows = list(range(len(ues)))
    for tick in range(_N_TICKS):
        now_ms = tick * _TICK_MS
        snaps = [ue.meas.snapshot(ue.location, _CARRIER) for ue in ues]
        matrices = state.step(rows, [ue.meas for ue in ues], snaps, [ue.serving for ue in ues])
        step_events_batch(now_ms, ues, rows, state, *matrices)
        for row, ue in enumerate(ues):
            verdict, ue.quiet = ue.quiet, None
            if verdict is not None:
                # A quiet member's own round, as its tick would see it.
                assert ue.monitor is not None and ue.pending_handover is None
                state.install_round(row, ue.meas)
            round_ = ue.meas.step(ue.location, _CARRIER, ue.serving)
            serving = round_.get(ue.serving.cell_id)
            if ue.monitor is None or ue.pending_handover is not None or serving is None:
                assert verdict is None
                continue
            clean = _is_clean(ue.monitor)
            before = _monitor_state(ue.monitor)
            reports = ue.monitor.step_round(now_ms, round_, serving)
            unchanged = not reports and _monitor_state(ue.monitor) == before
            if verdict is not None:
                assert verdict == (serving.rsrp_dbm, serving.rsrq_db)
                assert unchanged
            elif clean:
                # Not quiet with no state and no periodic: an armed
                # event's entry condition holds, so step_round acts.
                assert not unchanged


def test_tap_lent_mid_slab_serves_the_unbatched_sequence(env, spots):
    # An engine batched for a few ticks, detached mid-slab, stepped on
    # its own and batched again draws exactly the noise sequence of an
    # engine that was never batched.
    location, serving, _, _ = spots[0]
    n = len(env.snapshot(location, _CARRIER).prepared.cells)
    batched = MeasurementEngine(env, np.random.default_rng(9))
    solo = MeasurementEngine(env, np.random.default_rng(9))
    state = BatchMeasurementState(2)
    other = MeasurementEngine(env, np.random.default_rng(10))
    plan = ["batch"] * 5 + ["solo"] * 3 + ["batch"] * 80 + ["solo"]
    for step in plan:
        snap = batched.snapshot(location, _CARRIER)
        if step == "batch":
            rows, engines = [0, 1], [other, batched]
            state.step(rows, engines, [other.snapshot(location, _CARRIER), snap], [serving] * 2)
            state.install_round(1, batched)
        else:
            state.detach(batched)
            state.step([0], [other], [other.snapshot(location, _CARRIER)], [serving])
        got = batched.step(location, _CARRIER, serving)
        want = solo.step(location, _CARRIER, serving)
        assert got.rsrp.tolist() == want.rsrp.tolist()
        assert got.rsrq.tolist() == want.rsrq.tolist()
        assert got.mask.tolist() == want.mask.tolist()
    # 80 batched steps of 2n draws cross at least one refill of the row.
    assert 80 * 2 * n > BatchMeasurementState._TAP_WIDTH
    assert batched._noise(7).tolist() == solo._noise(7).tolist()
