"""Vectorized-vs-scalar parity and the perf plumbing around it.

The vectorized UE tick loop is only acceptable if it is *bit-identical*
to the scalar reference: same tick samples, same handoffs, same diag
log bytes.  These tests drive both paths over multi-handoff drives and
compare the full result bundles, plus the supporting machinery (snapshot
reuse across the runner tick, the ``REPRO_SCALAR`` opt-out).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cellnet.world import RadioEnvironment
from repro.simulate.runner import DriveSimulator
from repro.simulate.traffic import NoTraffic, Speedtest
from repro.ue.measurement import MeasurementEngine, default_vectorized


def _drive(scenario, vectorized, traffic, duration_s=240.0, seed=3):
    sim = DriveSimulator(
        scenario.env, scenario.server, "A", seed=seed,
        vectorized=vectorized, config_lint=False,
    )
    trajectory = scenario.urban_trajectory(
        np.random.default_rng(99), duration_s=duration_s
    )
    return sim.run(trajectory, traffic)


@pytest.mark.parametrize("traffic_cls", [Speedtest, NoTraffic], ids=["active", "idle"])
def test_vectorized_drive_bit_identical(scenario, traffic_cls):
    scalar = _drive(scenario, False, traffic_cls())
    vector = _drive(scenario, True, traffic_cls())
    # The drives must cross cells, or parity is vacuous.
    assert len(scalar.handoffs) >= 2
    assert vector.samples == scalar.samples
    assert vector.handoffs == scalar.handoffs
    assert vector.diag_log == scalar.diag_log
    assert vector.ping_rtts_ms == scalar.ping_rtts_ms


def test_runner_reuses_ue_snapshot(scenario, monkeypatch):
    """Ground-truth sampling shares the tick's snapshot: one physics
    pass per tick, not two."""
    calls = {"n": 0}
    orig = RadioEnvironment.snapshot

    def counting(self, *args, **kwargs):
        calls["n"] += 1
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(RadioEnvironment, "snapshot", counting)
    result = _drive(scenario, True, Speedtest(), duration_s=60.0)
    assert calls["n"] == len(result.samples)


def test_engine_snapshot_memoized(scenario):
    origin = scenario.cities[0].origin
    engine = MeasurementEngine(scenario.env, np.random.default_rng(5))
    first = engine.snapshot(origin, "A")
    assert engine.snapshot(origin, "A") is first
    moved = engine.snapshot(origin.offset(40.0, 0.0), "A")
    assert moved is not first


def test_scalar_env_opt_out(monkeypatch):
    monkeypatch.delenv("REPRO_SCALAR", raising=False)
    assert default_vectorized() is True
    monkeypatch.setenv("REPRO_SCALAR", "1")
    assert default_vectorized() is False
