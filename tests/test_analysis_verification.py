"""The paper's configuration-verification checks (Section 6), through
:mod:`repro.lint`: per-cell audits, priority conflicts and loops."""

from repro.config.events import EventConfig, EventType
from repro.config.lte import (
    InterFreqLayerConfig,
    LteCellConfig,
    MeasurementConfig,
    ServingCellConfig,
)
from repro.core.crawler import CellConfigSnapshot
from repro.lint import all_rules, lint_snapshots, summarize

_CELL_CODES = [r.code for r in all_rules() if r.scope == "cell"]


def _findings(snapshots, codes=None):
    return lint_snapshots(snapshots, codes=codes).findings


def _snapshot(gci=1, channel=850, serving=None, layers=(), meas=None):
    config = LteCellConfig(
        serving=serving or ServingCellConfig(),
        inter_freq_layers=tuple(layers),
    )
    return CellConfigSnapshot(
        carrier="A", gci=gci, rat="LTE", channel=channel, city="X",
        first_seen_ms=0, lte_config=config, meas_config=meas,
    )


def test_clean_snapshot_minimal_findings():
    snapshot = _snapshot(
        serving=ServingCellConfig(
            s_intra_search_p=30.0, s_non_intra_search_p=8.0,
            thresh_serving_low_p=6.0,
        )
    )
    findings = _findings([snapshot], _CELL_CODES)
    assert findings == []


def test_negative_a3_offset_flagged():
    meas = MeasurementConfig(events=(
        EventConfig(event=EventType.A3, offset=-1.0, hysteresis=1.0),
    ))
    findings = _findings([_snapshot(meas=meas)], _CELL_CODES)
    flagged = [f for f in findings if f.code == "HC002"]
    assert flagged and flagged[0].name == "a3-negative-offset"


def test_a5_no_serving_requirement_flagged():
    meas = MeasurementConfig(events=(
        EventConfig(event=EventType.A5, threshold1=-44.0, threshold2=-114.0),
    ))
    findings = _findings([_snapshot(meas=meas)], _CELL_CODES)
    codes = {f.code for f in findings}
    assert "HC003" in codes
    assert "HC004" in codes


def test_premature_measurement_flagged():
    snapshot = _snapshot(
        serving=ServingCellConfig(
            s_intra_search_p=62.0, s_non_intra_search_p=8.0,
            thresh_serving_low_p=6.0,
        )
    )
    findings = _findings([snapshot], _CELL_CODES)
    assert any(f.code == "HC006" for f in findings)


def test_late_nonintra_flagged():
    snapshot = _snapshot(
        serving=ServingCellConfig(
            s_intra_search_p=20.0, s_non_intra_search_p=2.0,
            thresh_serving_low_p=6.0,
        )
    )
    findings = _findings([snapshot], _CELL_CODES)
    assert any(f.code == "HC007" for f in findings)


def test_nonintra_above_intra_is_problem():
    snapshot = _snapshot(
        serving=ServingCellConfig(
            s_intra_search_p=8.0, s_non_intra_search_p=20.0,
            thresh_serving_low_p=6.0,
        )
    )
    findings = _findings([snapshot], _CELL_CODES)
    problem = [f for f in findings if f.code == "HC005"]
    assert problem and problem[0].severity == "problem"


def test_priority_conflict_detection():
    snapshots = [
        _snapshot(gci=1, channel=850,
                  serving=ServingCellConfig(cell_reselection_priority=3)),
        _snapshot(gci=2, channel=850,
                  serving=ServingCellConfig(cell_reselection_priority=4)),
    ]
    findings = _findings(snapshots, ["HC101"])
    assert len(findings) == 1
    assert findings[0].code == "HC101"


def test_priority_loop_detection():
    """Cell on 850 prefers 1975; cell on 1975 prefers 850: a loop."""
    snapshots = [
        _snapshot(
            gci=1, channel=850,
            serving=ServingCellConfig(cell_reselection_priority=3),
            layers=[InterFreqLayerConfig(dl_carrier_freq=1975,
                                         cell_reselection_priority=5)],
        ),
        _snapshot(
            gci=2, channel=1975,
            serving=ServingCellConfig(cell_reselection_priority=3),
            layers=[InterFreqLayerConfig(dl_carrier_freq=850,
                                         cell_reselection_priority=5)],
        ),
    ]
    findings = _findings(snapshots, ["HC103"])
    assert any(f.code == "HC103" for f in findings)
    assert findings[0].severity == "problem"


def test_no_loop_with_consistent_priorities():
    snapshots = [
        _snapshot(
            gci=1, channel=850,
            serving=ServingCellConfig(cell_reselection_priority=3),
            layers=[InterFreqLayerConfig(dl_carrier_freq=1975,
                                         cell_reselection_priority=5)],
        ),
        _snapshot(
            gci=2, channel=1975,
            serving=ServingCellConfig(cell_reselection_priority=5),
            layers=[InterFreqLayerConfig(dl_carrier_freq=850,
                                         cell_reselection_priority=3)],
        ),
    ]
    assert _findings(snapshots, ["HC103"]) == []


def test_summarize_counts():
    meas = MeasurementConfig(events=(
        EventConfig(event=EventType.A3, offset=-1.0, hysteresis=1.0),
    ))
    findings = _findings([_snapshot(meas=meas), _snapshot(gci=2, meas=meas)])
    summary = summarize(findings)
    assert summary["HC002"] == 2


def test_audit_real_population(tiny_d2, server):
    """The synthetic carriers should trip some of the paper's findings."""
    from repro.core.crawler import ConfigCrawler

    snapshots = []
    from repro.cellnet.rat import RAT
    from repro.rrc.diag import DiagWriter

    cells = [c for c in tiny_d2.plan.registry.by_carrier("A")
             if c.rat is RAT.LTE][:200]
    writer = DiagWriter.in_memory()
    for cell in cells:
        for message in tiny_d2.server.sib_messages(cell):
            writer.write(0, message)
        writer.write(0, tiny_d2.server.connection_reconfiguration(cell))
    snapshots = ConfigCrawler.crawl(writer.getvalue())
    findings = _findings(snapshots)
    codes = {f.code for f in findings}
    assert "HC006" in codes
