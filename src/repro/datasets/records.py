"""Dataset record types.

``ConfigSample`` is D2's unit ("we treat each parameter observed as one
sample", Section 5): one parameter value observed at one cell at one
time.  ``HandoffInstance`` is D1's unit: one handoff with its decisive
context and the performance series around it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

#: Compact JSON encoder shared by every row; ``json.dumps`` would build
#: a new one per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


@dataclass(frozen=True)
class ConfigSample:
    """One observed configuration parameter value at one cell.

    Attributes:
        carrier: Carrier acronym.
        gci: Global cell identity within the carrier.
        rat: RAT name ("LTE", "UMTS", ...).
        channel: The cell's channel number.
        city: City where the observation was made.
        parameter: Registry parameter name.
        value: Observed value (scalar, or tuple for list parameters).
        observed_day: Collection day (days since the study epoch).
        round_index: Which collection round/session produced it.
    """

    carrier: str
    gci: int
    rat: str
    channel: int
    city: str
    parameter: str
    value: object
    observed_day: float = 0.0
    round_index: int = 0

    def to_json(self) -> str:
        # The bytes of ``json.dumps(asdict(self), ...)`` without the deep
        # copy.  Not ``vars(self)``: that would give every saved sample
        # its own ``__dict__`` for as long as it lives.
        return _ENCODER.encode({name: getattr(self, name) for name in _SAMPLE_FIELDS})

    @classmethod
    def from_json(cls, line: str) -> "ConfigSample":
        data = json.loads(line)
        if isinstance(data.get("value"), list):
            data["value"] = tuple(data["value"])
        return cls(**data)

    @property
    def value_key(self) -> object:
        """Hashable form of the value (lists become tuples)."""
        if isinstance(self.value, list):
            return tuple(self.value)
        return self.value


_SAMPLE_FIELDS = tuple(f.name for f in fields(ConfigSample))


@dataclass(frozen=True)
class HandoffInstance:
    """One handoff instance in D1, as extracted from a device trace.

    Attributes:
        kind: "active" or "idle".
        carrier: Carrier acronym.
        time_ms: Trace-relative handoff execution time.
        source_gci / target_gci: Cell identities.
        source_channel / target_channel: Channel numbers.
        intra_freq: Same-RAT same-channel handoff.
        decisive_event: Last reporting event before the handover command
            (active only): "A1".."A5", "P".
        decisive_metric: Trigger quantity of the decisive event.
        decisive_config: Main parameters of the decisive event config,
            e.g. {"offset": 3.0, "hysteresis": 1.0} for A3.
        priority_class: higher/equal/lower (idle only).
        rsrp_before / rsrp_after: Serving RSRP just before the handoff
            and just after (new serving), from PHY measurement records.
        rsrq_before / rsrq_after: Same for RSRQ.
        min_throughput_before_bps: Minimum 1 s throughput in the window
            before the handoff (active drives with traffic; None
            otherwise) — the paper's Fig. 8 metric.
        report_to_handover_ms: Latency from the decisive measurement
            report to the handover command (active only).
    """

    kind: str
    carrier: str
    time_ms: int
    source_gci: int
    target_gci: int
    source_channel: int
    target_channel: int
    intra_freq: bool
    decisive_event: str | None = None
    decisive_metric: str | None = None
    decisive_config: dict = field(default_factory=dict)
    priority_class: str | None = None
    rsrp_before: float | None = None
    rsrp_after: float | None = None
    rsrq_before: float | None = None
    rsrq_after: float | None = None
    min_throughput_before_bps: float | None = None
    report_to_handover_ms: int | None = None

    @property
    def delta_rsrp(self) -> float | None:
        """RSRP change across the handoff (Fig. 6/10's delta)."""
        if self.rsrp_before is None or self.rsrp_after is None:
            return None
        return self.rsrp_after - self.rsrp_before

    def to_json(self) -> str:
        return json.dumps(asdict(self), separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "HandoffInstance":
        return cls(**json.loads(line))
