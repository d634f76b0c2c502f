"""Tests for the dataset stores."""

import pytest

from repro.datasets.d2 import D2Options, build_d2
from repro.datasets.records import ConfigSample, HandoffInstance
from repro.datasets.store import ConfigSampleStore, HandoffInstanceStore


def _sample(carrier="A", gci=1, parameter="q_hyst", value=4.0, city="X",
            rat="LTE", day=0.0, round_index=0):
    return ConfigSample(
        carrier=carrier, gci=gci, rat=rat, channel=850, city=city,
        parameter=parameter, value=value, observed_day=day,
        round_index=round_index,
    )


def test_filters_chain():
    store = ConfigSampleStore([
        _sample(carrier="A", gci=1),
        _sample(carrier="A", gci=2, parameter="p_max", value=23),
        _sample(carrier="T", gci=1),
    ])
    assert len(store.for_carrier("A")) == 2
    assert len(store.for_carrier("A").for_parameter("q_hyst")) == 1
    assert len(store.for_rat("LTE")) == 3
    assert len(store.for_city("X")) == 3


def test_unique_cells():
    store = ConfigSampleStore([
        _sample(carrier="A", gci=1), _sample(carrier="A", gci=1),
        _sample(carrier="T", gci=1),
    ])
    assert store.unique_cells() == {("A", 1), ("T", 1)}


def test_unique_values_deduplicates_per_cell():
    """The paper's unique-sample convention (Section 5.1)."""
    store = ConfigSampleStore([
        _sample(gci=1, value=4.0, day=0.0),
        _sample(gci=1, value=4.0, day=100.0),  # same cell, same value
        _sample(gci=1, value=2.0, day=200.0),  # same cell, new value
        _sample(gci=2, value=4.0),
    ])
    values = store.unique_values("q_hyst")
    assert sorted(values) == [2.0, 4.0, 4.0]
    raw = store.unique_values("q_hyst", deduplicate_cells=False)
    assert len(raw) == 4


def test_group_by():
    store = ConfigSampleStore([
        _sample(city="X"), _sample(city="Y", gci=2), _sample(city="X", gci=3),
    ])
    groups = store.group_by(lambda s: s.city)
    assert set(groups) == {"X", "Y"}
    assert len(groups["X"]) == 2


def test_samples_per_cell():
    store = ConfigSampleStore([
        _sample(gci=1), _sample(gci=1, day=10.0), _sample(gci=2),
    ])
    assert store.samples_per_cell("q_hyst") == {("A", 1): 2, ("A", 2): 1}


def test_config_store_save_load(tmp_path):
    store = ConfigSampleStore([_sample(), _sample(gci=2, value=[1, 2], parameter="x")])
    path = tmp_path / "d2.jsonl"
    store.save(path)
    loaded = ConfigSampleStore.load(path)
    assert len(loaded) == 2
    assert loaded.unique_cells() == store.unique_cells()


def _instance(kind="active", carrier="A", event="A3", t=0):
    return HandoffInstance(
        kind=kind, carrier=carrier, time_ms=t, source_gci=1, target_gci=2,
        source_channel=850, target_channel=850, intra_freq=True,
        decisive_event=event if kind == "active" else None,
    )


def test_handoff_store_filters():
    store = HandoffInstanceStore([
        _instance(), _instance(kind="idle"), _instance(carrier="T", event="A5"),
    ])
    assert len(store.active()) == 2
    assert len(store.idle()) == 1
    assert len(store.for_carrier("A").active()) == 1
    assert len(store.for_event("A5")) == 1


def test_handoff_store_save_load(tmp_path):
    store = HandoffInstanceStore([_instance(), _instance(kind="idle", t=5)])
    path = tmp_path / "d1.jsonl"
    store.save(path)
    loaded = HandoffInstanceStore.load(path)
    assert len(loaded) == 2
    assert len(loaded.idle()) == 1


# -- atomic persistence -------------------------------------------------------

@pytest.mark.parametrize("store_cls,record", [
    (ConfigSampleStore, _sample()),
    (HandoffInstanceStore, _instance()),
])
def test_save_load_roundtrip_including_empty(tmp_path, store_cls, record):
    empty_path = tmp_path / "empty.jsonl"
    store_cls().save(empty_path)
    assert empty_path.exists()
    assert len(store_cls.load(empty_path)) == 0
    full_path = tmp_path / "full.jsonl"
    store = store_cls([record])
    store.save(full_path)
    loaded = store_cls.load(full_path)
    assert [r.to_json() for r in loaded] == [r.to_json() for r in store]


def test_save_replaces_atomically_and_leaves_no_temp_files(tmp_path):
    path = tmp_path / "d2.jsonl"
    path.write_text("corrupt half-written garbage\n")
    store = ConfigSampleStore([_sample(), _sample(gci=2)])
    store.save(path)
    assert len(ConfigSampleStore.load(path)) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["d2.jsonl"]


def test_failed_save_preserves_existing_file(tmp_path):
    path = tmp_path / "d2.jsonl"
    ConfigSampleStore([_sample()]).save(path)
    before = path.read_bytes()

    class Exploding:
        def to_json(self):
            raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        ConfigSampleStore([Exploding()]).save(path)  # type: ignore[list-item]
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["d2.jsonl"]


# -- per-parameter index ------------------------------------------------------

def _naive_store_views(store):
    """Recompute the per-parameter reads by scanning, index-free."""
    samples = list(store)
    parameters = sorted({s.parameter for s in samples})
    unique = {
        p: list({
            (s.carrier, s.gci, s.value_key): s.value_key
            for s in samples if s.parameter == p
        }.values())
        for p in parameters
    }
    per_cell = {}
    for p in parameters:
        counts = {}
        for s in samples:
            if s.parameter == p:
                counts[(s.carrier, s.gci)] = counts.get((s.carrier, s.gci), 0) + 1
        per_cell[p] = counts
    return parameters, unique, per_cell


def test_parameter_index_matches_naive_scan():
    store = ConfigSampleStore([
        _sample(gci=1, value=4.0),
        _sample(gci=1, value=4.0, day=9.0),
        _sample(gci=1, value=2.0, day=20.0),
        _sample(gci=2, value=4.0),
        _sample(gci=2, parameter="p_max", value=23),
        _sample(carrier="T", gci=1, parameter="p_max", value=21),
    ])
    parameters, unique, per_cell = _naive_store_views(store)
    assert store.parameters() == parameters
    for p in parameters:
        assert sorted(map(str, store.unique_values(p))) == sorted(map(str, unique[p]))
        assert store.samples_per_cell(p) == per_cell[p]
        assert len(store.for_parameter(p)) == sum(per_cell[p].values())


def test_parameter_index_invalidated_on_mutation():
    store = ConfigSampleStore([_sample(gci=1)])
    assert store.parameters() == ["q_hyst"]  # builds the index
    store.add(_sample(gci=2, parameter="p_max", value=23))
    assert store.parameters() == ["p_max", "q_hyst"]
    assert store.samples_per_cell("p_max") == {("A", 2): 1}
    store.extend([_sample(gci=3, parameter="p_max", value=20)])
    assert store.samples_per_cell("p_max") == {("A", 2): 1, ("A", 3): 1}
    store.ingest([[_sample(gci=4, parameter="p_max", value=18)]])
    assert store.samples_per_cell("p_max") == {
        ("A", 2): 1, ("A", 3): 1, ("A", 4): 1,
    }


def test_parameter_index_invalidated_when_mutation_raises():
    """A generator that dies mid-extend/ingest still mutates the list
    (``list.extend`` keeps consumed elements), so the lazy index must be
    invalidated even on the exception path."""

    def exploding_samples():
        yield _sample(gci=2, parameter="p_max", value=23)
        raise RuntimeError("source died")

    store = ConfigSampleStore([_sample(gci=1)])
    assert store.parameters() == ["q_hyst"]  # builds the index
    with pytest.raises(RuntimeError):
        store.extend(exploding_samples())
    assert len(store) == 2  # the consumed sample did land
    assert store.parameters() == ["p_max", "q_hyst"]
    assert store.samples_per_cell("p_max") == {("A", 2): 1}

    def exploding_batches():
        yield [_sample(gci=3, parameter="p_max", value=20)]
        raise RuntimeError("source died")

    assert store.parameters() == ["p_max", "q_hyst"]  # rebuild the index
    with pytest.raises(RuntimeError):
        store.ingest(exploding_batches())
    assert store.samples_per_cell("p_max") == {("A", 2): 1, ("A", 3): 1}


def _mixed_store():
    return ConfigSampleStore([
        _sample(carrier="A", gci=1),
        _sample(carrier="T", gci=1, rat="UMTS"),
        _sample(carrier="A", gci=2, parameter="p_max", value=23),
        _sample(carrier="S", gci=5, rat="UMTS", parameter="p_max", value=21),
    ])


def _assert_slices_match_scan(store):
    for carrier in ("A", "S", "T", "missing"):
        assert list(store.for_carrier(carrier)) == list(
            store.filter(lambda s: s.carrier == carrier)
        )
    for rat in ("LTE", "UMTS", "GSM"):
        assert list(store.for_rat(rat)) == list(store.filter(lambda s: s.rat == rat))


def _exploding(samples):
    yield from samples
    raise RuntimeError("source died")


_MUTATIONS = {
    "add": lambda store, new: store.add(new[0]),
    "extend": lambda store, new: store.extend(new),
    "ingest": lambda store, new: store.ingest([new[:1], new[1:]]),
    "extend-raises": lambda store, new: store.extend(_exploding(new)),
    "ingest-raises": lambda store, new: store.ingest(_exploding([new])),
}


@pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
def test_carrier_and_rat_indexes_invalidated_on_mutation(mutation):
    store = _mixed_store()
    _assert_slices_match_scan(store)  # builds both indexes
    new = [
        _sample(carrier="T", gci=9, rat="GSM", parameter="p_max", value=5),
        _sample(carrier="A", gci=3, rat="UMTS"),
    ]
    if mutation.endswith("-raises"):
        with pytest.raises(RuntimeError):
            _MUTATIONS[mutation](store, new)
    else:
        _MUTATIONS[mutation](store, new)
    assert len(store) > 4  # the consumed samples landed
    _assert_slices_match_scan(store)


def test_built_store_roundtrips_equal_and_hashable(tmp_path):
    """Built samples hold tuples, as reloaded ones do, so a built store
    equals its save/load round trip and every sample hashes."""
    store = build_d2(D2Options(n_volunteers=1, include_dense=False)).store
    assert any(isinstance(s.value, tuple) for s in store)
    path = tmp_path / "d2.jsonl"
    store.save(path)
    loaded = ConfigSampleStore.load(path)
    assert list(loaded) == list(store)
    assert len({hash(s) for s in store}) > 1


# -- iterator ingest ----------------------------------------------------------

def test_ingest_streams_batches_lazily():
    store = ConfigSampleStore()
    seen = []

    def batches():
        for gci in (1, 2):
            batch = [_sample(gci=gci)]
            seen.append(len(store))  # store grows between batches
            yield batch

    added = store.ingest(batches())
    assert added == 2
    assert len(store) == 2
    assert seen == [0, 1]


def test_handoff_ingest_counts():
    store = HandoffInstanceStore()
    assert store.ingest([[_instance()], [], [_instance(kind="idle")]]) == 2
    assert len(store.active()) == 1 and len(store.idle()) == 1
