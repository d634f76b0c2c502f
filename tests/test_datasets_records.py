"""Tests for dataset record types."""

import json
from dataclasses import asdict

import pytest

from repro.datasets.records import ConfigSample, HandoffInstance


def test_config_sample_json_roundtrip():
    sample = ConfigSample(
        carrier="A", gci=12, rat="LTE", channel=850, city="Chicago",
        parameter="q_hyst", value=4.0, observed_day=120.5, round_index=2,
    )
    assert ConfigSample.from_json(sample.to_json()) == sample


def test_config_sample_list_value_roundtrip():
    sample = ConfigSample(
        carrier="A", gci=12, rat="LTE", channel=850, city="Chicago",
        parameter="carrier_freqs_geran", value=[128, 190],
    )
    rebuilt = ConfigSample.from_json(sample.to_json())
    assert rebuilt.value == (128, 190)
    assert rebuilt.value_key == (128, 190)


@pytest.mark.parametrize(
    "value", [23, -3.5, 1e-7, "A3", None, True, (128, 190), [128, 190], (), (-1.5, 2)]
)
def test_config_sample_to_json_matches_asdict_dumps(value):
    sample = ConfigSample(
        carrier="T", gci=2**40, rat="LTE", channel=9820, city="São Paulo",
        parameter="p", value=value, observed_day=120.5, round_index=2,
    )
    assert sample.to_json() == json.dumps(asdict(sample), separators=(",", ":"))


def test_value_key_hashable():
    sample = ConfigSample(
        carrier="A", gci=1, rat="LTE", channel=850, city="X",
        parameter="p", value=[1, 2],
    )
    assert hash(sample.value_key) == hash((1, 2))


def test_handoff_instance_json_roundtrip():
    instance = HandoffInstance(
        kind="active", carrier="A", time_ms=1234, source_gci=1, target_gci=2,
        source_channel=850, target_channel=9820, intra_freq=False,
        decisive_event="A3", decisive_metric="rsrp",
        decisive_config={"offset": 3.0, "hysteresis": 1.0},
        rsrp_before=-108.0, rsrp_after=-98.0,
        min_throughput_before_bps=1.2e6, report_to_handover_ms=150,
    )
    assert HandoffInstance.from_json(instance.to_json()) == instance


def test_delta_rsrp():
    instance = HandoffInstance(
        kind="idle", carrier="A", time_ms=0, source_gci=1, target_gci=2,
        source_channel=850, target_channel=850, intra_freq=True,
        rsrp_before=-110.0, rsrp_after=-102.5,
    )
    assert instance.delta_rsrp == 7.5


def test_delta_rsrp_none_when_missing():
    instance = HandoffInstance(
        kind="idle", carrier="A", time_ms=0, source_gci=1, target_gci=2,
        source_channel=850, target_channel=850, intra_freq=True,
    )
    assert instance.delta_rsrp is None
