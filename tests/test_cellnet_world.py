"""Tests for the radio environment."""

import math

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.cellnet.rat import RAT


def test_cells_near_filters(env, scenario):
    origin = scenario.cities[0].origin
    all_near = env.cells_near(origin, radius_m=2000.0)
    att = env.cells_near(origin, carrier="A", radius_m=2000.0)
    lte = env.cells_near(origin, carrier="A", rat=RAT.LTE, radius_m=2000.0)
    assert len(all_near) >= len(att) >= len(lte) > 0
    assert all(c.carrier == "A" for c in att)
    assert all(c.rat is RAT.LTE for c in lte)


def test_cells_near_radius_respected(env, scenario):
    origin = scenario.cities[0].origin
    for cell in env.cells_near(origin, radius_m=1500.0):
        assert cell.location.distance_to(origin) <= 1500.0


def test_measure_all_sorted_strongest_first(env, scenario):
    origin = scenario.cities[0].origin
    measurements = env.measure_all(origin, "A")
    rsrps = [m.rsrp_dbm for m in measurements]
    assert rsrps == sorted(rsrps, reverse=True)


def test_strongest_cell(env, scenario):
    origin = scenario.cities[0].origin
    best = env.strongest_cell(origin, "A")
    assert best is not None
    measurements = env.measure_all(origin, "A")
    assert best.cell_id == measurements[0].cell.cell_id


def test_snapshot_matches_measure_all(env, scenario):
    origin = scenario.cities[0].origin
    snap = env.snapshot(origin, "A")
    for cell in snap.cells[:10]:
        direct = env.radio.rsrp_dbm(cell, origin)
        assert snap.rsrp(cell) == pytest.approx(direct)


def test_snapshot_metric_arrays_consistent(env, scenario):
    origin = scenario.cities[0].origin
    snap = env.snapshot(origin, "A")
    rsrp, rsrq, sinr = snap.metric_arrays()
    assert len(rsrp) == len(snap.cells)
    for i, cell in enumerate(snap.cells[:8]):
        m = snap.measure(cell)
        assert m.rsrp_dbm == pytest.approx(float(rsrp[i]))
        assert m.rsrq_db == pytest.approx(float(rsrq[i]), abs=1e-6)
        assert m.sinr_db == pytest.approx(float(sinr[i]), abs=1e-6)


def test_snapshot_cache_is_location_stable(env, scenario):
    origin = scenario.cities[0].origin
    a = env.snapshot(origin, "A")
    b = env.snapshot(origin.offset(1.0, 0.0), "A")
    # Same 200 m grid square: the same prepared cell list is reused.
    assert [c.cell_id for c in a.cells] == [c.cell_id for c in b.cells]


def test_snapshot_strongest_by_rat(env, scenario):
    origin = scenario.cities[0].origin
    snap = env.snapshot(origin, "A")
    best_lte = snap.strongest(rat=RAT.LTE)
    assert best_lte is not None and best_lte.rat is RAT.LTE


def test_co_channel_interferers_same_channel_only(env, scenario):
    origin = scenario.cities[0].origin
    cell = env.cells_near(origin, carrier="A", rat=RAT.LTE)[0]
    for interferer in env.co_channel_interferers(cell, origin):
        assert interferer.channel == cell.channel
        assert interferer.rat is cell.rat
        assert interferer.cell_id != cell.cell_id


def test_co_channel_interferers_match_bruteforce(env, scenario):
    """The spatial-index route returns exactly the brute-force set."""
    origin = scenario.cities[0].origin
    for cell in env.cells_near(origin, carrier="A")[:5]:
        expected = sorted(
            (
                c
                for c in env.registry
                if c.rat is cell.rat
                and c.channel == cell.channel
                and c.cell_id != cell.cell_id
                and c.location.distance_to(origin) <= env.audible_radius_m
            ),
            key=lambda c: c.cell_id,
        )
        assert env.co_channel_interferers(cell, origin) == expected


@seed(20410)
@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_cells_near_matches_scalar_rule(env, data):
    """Membership is ``distance_to(location) <= radius``, to the last bit.

    Radii exactly at a cell's distance (and one ulp either side of it)
    exercise the band the squared-distance prefilter re-checks.
    """
    cells = sorted(env.registry, key=lambda c: c.cell_id)
    anchor = data.draw(st.sampled_from(cells))
    location = anchor.location.offset(
        data.draw(st.floats(-3000.0, 3000.0)), data.draw(st.floats(-3000.0, 3000.0))
    )
    carrier = data.draw(st.one_of(st.none(), st.sampled_from(sorted({c.carrier for c in cells}))))
    edge = data.draw(st.sampled_from(cells)).location.distance_to(location)
    radius = data.draw(st.one_of(
        st.floats(0.0, 8000.0),
        st.just(edge),
        st.just(math.nextafter(edge, -math.inf)),
        st.just(math.nextafter(edge, math.inf)),
        st.just(0.0),
    ))
    expected = [
        c for c in cells
        if (carrier is None or c.carrier == carrier)
        and c.location.distance_to(location) <= radius
    ]
    assert env.cells_near(location, carrier=carrier, radius_m=radius) == expected


def test_cells_near_includes_a_cell_exactly_at_the_radius(env, scenario):
    origin = scenario.cities[0].origin
    cell = env.cells_near(origin, carrier="A")[3]
    exact = cell.location.distance_to(origin)
    assert cell in env.cells_near(origin, carrier="A", radius_m=exact)
    assert cell not in env.cells_near(origin, carrier="A", radius_m=math.nextafter(exact, 0.0))
    # Sector cells share their site's location.
    site = env.cells_near(cell.location, radius_m=0.0)
    assert cell in site
    assert all(c.location == cell.location for c in site)


def _fresh_env(scenario, cache_size):
    from repro.cellnet.world import RadioEnvironment

    env = RadioEnvironment(scenario.plan)
    env.snapshot_cache_size = cache_size
    return env


def _far_apart_points(scenario, n):
    origin = scenario.cities[0].origin
    # 400 m apart: each lands in its own 200 m snapshot-cache square.
    return [origin.offset(400.0 * i, 0.0) for i in range(n)]


@pytest.mark.parametrize("cache_size", [3, 5, 64])
def test_snapshot_batch_counts_like_per_spot_lookups(scenario, cache_size):
    # Grid keys repeat out of order and some are already cached; a
    # small LRU evicts mid-chunk, and a chunk wider than the LRU takes
    # its spots one by one.  Counters, LRU order and every snapshot
    # must match one prepared_for call per spot.
    points = _far_apart_points(scenario, 6)
    spots = [(points[i], "A") for i in (0, 1, 0, 2, 1, 0, 3)]
    batched, single = _fresh_env(scenario, cache_size), _fresh_env(scenario, cache_size)
    for env in (batched, single):
        for i in (4, 5, 2, 0):
            env.prepared_for(points[i], "A")
    snaps = batched.snapshot_batch(spots)
    for location, carrier in spots:
        single.prepared_for(location, carrier)
    stats = batched.snapshot_cache_stats()
    assert stats == single.snapshot_cache_stats()
    assert stats["hits"] + stats["misses"] == 4 + len(spots)
    assert list(batched._snapshot_cache) == list(single._snapshot_cache)
    for (location, carrier), snap in zip(spots, snaps):
        want = single.snapshot(location, carrier)
        assert snap.prepared.cell_ids == want.prepared.cell_ids
        assert [a.tolist() for a in snap.metric_arrays()] == [
            a.tolist() for a in want.metric_arrays()
        ]


def test_snapshot_cache_evicts_least_recently_used(scenario):
    env = _fresh_env(scenario, cache_size=2)
    a, b, c = _far_apart_points(scenario, 3)
    env.snapshot(a, "A")
    env.snapshot(b, "A")
    key_a, key_b = list(env._snapshot_cache)
    env.snapshot(c, "A")
    # Oldest entry (a) evicted, not the whole cache.
    assert key_a not in env._snapshot_cache
    assert key_b in env._snapshot_cache
    assert len(env._snapshot_cache) == 2


def test_snapshot_cache_hit_refreshes_entry(scenario):
    env = _fresh_env(scenario, cache_size=2)
    a, b, c = _far_apart_points(scenario, 3)
    env.snapshot(a, "A")
    env.snapshot(b, "A")
    key_a, key_b = list(env._snapshot_cache)
    env.snapshot(a, "A")  # Hit: a becomes most recently used.
    env.snapshot(c, "A")  # Evicts b, the now-least-recent entry.
    assert key_a in env._snapshot_cache
    assert key_b not in env._snapshot_cache


def test_snapshot_cache_hit_reuses_prepared(scenario):
    env = _fresh_env(scenario, cache_size=8)
    origin = scenario.cities[0].origin
    first = env.snapshot(origin, "A")
    second = env.snapshot(origin.offset(1.0, 0.0), "A")
    assert second.prepared is first.prepared


def test_get_cell_roundtrip(env, scenario):
    cell = next(iter(scenario.plan.registry))
    assert env.get_cell(cell.cell_id) is cell
