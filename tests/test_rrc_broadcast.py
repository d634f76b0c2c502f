"""Tests for the configuration broadcast server."""

import numpy as np
import pytest

from repro.cellnet.rat import RAT
from repro.config.profiles import profile_for_carrier
from repro.rrc.broadcast import ConfigServer
from repro.rrc.messages import LegacySystemInfo, Sib1, Sib3, Sib4, Sib5


def test_sib_sequence_starts_with_identity(server, lte_cell):
    sibs = server.sib_messages(lte_cell)
    assert isinstance(sibs[0], Sib1)
    assert sibs[0].gci == lte_cell.cell_id.gci
    assert isinstance(sibs[1], Sib3)
    assert isinstance(sibs[2], Sib4)


def test_sib5_lists_real_neighbor_layers(server, lte_cell, env):
    sibs = server.sib_messages(lte_cell)
    sib5 = next((s for s in sibs if isinstance(s, Sib5)), None)
    assert sib5 is not None
    deployed = {
        c.channel
        for c in env.cells_near(lte_cell.location, carrier=lte_cell.carrier,
                                radius_m=4000.0)
        if c.rat is RAT.LTE
    }
    for layer in sib5.layers:
        assert layer.dl_carrier_freq in deployed
        assert layer.dl_carrier_freq != lte_cell.channel


def test_base_config_cached(server, lte_cell):
    assert server.lte_config(lte_cell) is server.lte_config(lte_cell)


def test_legacy_cell_broadcasts_system_info(server, scenario):
    legacy = next(
        c for c in scenario.plan.registry.by_carrier("A") if c.rat is RAT.UMTS
    )
    messages = server.sib_messages(legacy)
    assert len(messages) == 1
    assert isinstance(messages[0], LegacySystemInfo)
    assert messages[0].rat == "UMTS"


def test_lte_config_rejects_legacy_cell(server, scenario):
    legacy = next(
        c for c in scenario.plan.registry.by_carrier("A") if c.rat is RAT.UMTS
    )
    with pytest.raises(ValueError, match="not an LTE cell"):
        server.lte_config(legacy)


def test_connection_reconfiguration_carries_meas_config(server, lte_cell):
    reconfiguration = server.connection_reconfiguration(lte_cell)
    assert reconfiguration.meas_config is not None
    assert reconfiguration.mobility is None
    assert reconfiguration.meas_config.events  # at least A2 armed


def test_observed_config_with_rng_may_differ(server, lte_cell):
    base = server.lte_config(lte_cell)
    rng = np.random.default_rng(0)
    observed = [
        server.observed_lte_config(lte_cell, rng, days_since_first=0.0)
        for _ in range(40)
    ]
    # Idle part never churns at day 0; measurement part may.
    assert all(o.serving == base.serving for o in observed)


def test_config_consistency_between_sibs_and_lte_config(server, lte_cell):
    """The SIB content must be exactly the cell's configuration."""
    sibs = server.sib_messages(lte_cell)
    config = server.lte_config(lte_cell)
    sib3 = next(s for s in sibs if isinstance(s, Sib3))
    assert sib3.config == config.serving


@pytest.mark.parametrize("days", [0.0, 89.9, 90.0, 180.0, 3600.0])
def test_observed_config_equals_unmemoized_profile(server, scenario, days):
    """Building observations on the server's cached base config changes
    neither the observation nor how far ``obs_rng`` advances."""
    cells = [
        c for c in scenario.plan.registry.by_carrier("A") if c.rat is RAT.LTE
    ][:12]
    profile = profile_for_carrier("A", seed=server.seed)
    churned = 0
    for cell in cells:
        memo_rng, plain_rng = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(3):
            memo = server.observed_lte_config(cell, memo_rng, days_since_first=days)
            plain = profile.observed_lte_config(
                cell, profile.lte_config(cell, server.context_for(cell)), plain_rng,
                days_since_first=days,
            )
            assert memo == plain
        assert memo_rng.bit_generator.state == plain_rng.bit_generator.state
        churned += memo.serving != server.lte_config(cell).serving
    if days >= 3600.0:
        assert churned  # the idle-churn branch was exercised
