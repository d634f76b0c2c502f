"""Tests for the modem diag log format."""

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from repro.cellnet.rat import RAT, RSRP_RANGE_DBM, RSRQ_RANGE_DB
from repro.rrc.codec import _encode_uncached, encode_message
from repro.rrc.diag import DiagError, DiagReader, DiagWriter
from repro.rrc.messages import PhyServingMeas, Sib1


def test_write_read_roundtrip():
    writer = DiagWriter.in_memory()
    messages = [Sib1(carrier="A", gci=i) for i in range(5)]
    for i, message in enumerate(messages):
        writer.write(i * 100, message)
    records = DiagReader(writer.getvalue()).records()
    assert [r.timestamp_ms for r in records] == [0, 100, 200, 300, 400]
    assert [r.message for r in records] == messages


def test_empty_log():
    assert DiagReader(b"").records() == []


def test_bad_magic_raises():
    writer = DiagWriter.in_memory()
    writer.write(0, Sib1())
    data = bytearray(writer.getvalue())
    data[0] ^= 0xFF
    with pytest.raises(DiagError, match="bad magic"):
        DiagReader(bytes(data)).records()


def test_checksum_mismatch_raises():
    writer = DiagWriter.in_memory()
    writer.write(0, Sib1(carrier="A", gci=1))
    data = bytearray(writer.getvalue())
    data[-1] ^= 0xFF  # corrupt payload
    with pytest.raises(DiagError, match="checksum"):
        DiagReader(bytes(data)).records()


def test_truncated_log_raises():
    writer = DiagWriter.in_memory()
    writer.write(0, Sib1(carrier="A", gci=1, city="Chicago"))
    data = writer.getvalue()
    with pytest.raises(DiagError, match="truncated"):
        DiagReader(data[:-4]).records()


def test_error_reports_record_index():
    writer = DiagWriter.in_memory()
    writer.write(0, Sib1(gci=1))
    writer.write(1, Sib1(gci=2))
    data = bytearray(writer.getvalue())
    data[-1] ^= 0xFF
    with pytest.raises(DiagError, match="record 1"):
        DiagReader(bytes(data)).records()


def test_records_written_counter():
    writer = DiagWriter.in_memory()
    writer.write(0, Sib1())
    writer.write(1, PhyServingMeas())
    assert writer.records_written == 2


def test_file_roundtrip(tmp_path):
    writer = DiagWriter.in_memory()
    writer.write(7, Sib1(carrier="V", gci=2))
    path = tmp_path / "trace.diag"
    path.write_bytes(writer.getvalue())
    records = DiagReader.from_file(path).records()
    assert records[0].timestamp_ms == 7
    assert records[0].message.carrier == "V"


def test_getvalue_requires_memory_stream(tmp_path):
    with open(tmp_path / "x.diag", "wb") as f:
        writer = DiagWriter(f)
        writer.write(0, Sib1())
        with pytest.raises(TypeError):
            writer.getvalue()


_metrics = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.sampled_from((-0.0, 0.0, *RSRP_RANGE_DBM, *RSRQ_RANGE_DB)),
)


@seed(20181031)
@settings(max_examples=200, deadline=None)
@given(rsrp=_metrics, rsrq=_metrics, t_ms=st.integers(min_value=0, max_value=2**40))
@example(rsrp=-0.0, rsrq=-0.0, t_ms=0)
@example(rsrp=RSRP_RANGE_DBM[0], rsrq=RSRQ_RANGE_DB[0], t_ms=200)
@example(rsrp=RSRP_RANGE_DBM[1], rsrq=RSRQ_RANGE_DB[1], t_ms=400)
def test_phy_template_matches_codec(lte_cell, rsrp, rsrq, t_ms):
    """The spliced PHY record is the byte-exact twin of ``write``, and
    the template both use matches the codec's generic encoder."""
    message = PhyServingMeas(
        carrier=lte_cell.carrier,
        gci=lte_cell.cell_id.gci,
        channel=lte_cell.channel,
        rat=lte_cell.rat.value,
        rsrp_dbm=rsrp,
        rsrq_db=rsrq,
        sinr_db=0.0,
        rrc_connected=True,
    )
    assert encode_message(message) == _encode_uncached(message)
    spliced = DiagWriter.in_memory()
    reference = DiagWriter.in_memory()
    # Twice, so the second record reuses the writer's held template.
    for _ in range(2):
        spliced.write_phy_serving(t_ms, lte_cell, rsrp, rsrq)
        reference.write(t_ms, message)
    assert spliced.getvalue() == reference.getvalue()
    assert spliced.records_written == reference.records_written == 2


def test_phy_serving_follows_serving_cell(scenario):
    """A change of serving cell swaps the held template."""
    first, second = [
        c for c in scenario.plan.registry.by_carrier("A") if c.rat is RAT.LTE
    ][:2]
    writer = DiagWriter.in_memory()
    for t_ms, cell in enumerate((first, second, first)):
        writer.write_phy_serving(t_ms, cell, -90.5, -10.0)
    records = DiagReader(writer.getvalue()).records()
    assert [r.message.gci for r in records] == [
        first.cell_id.gci, second.cell_id.gci, first.cell_id.gci
    ]
    assert all(r.message.rsrp_dbm == -90.5 for r in records)
