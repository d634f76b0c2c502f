"""MMLab's configuration crawler.

Parses a diag log back into per-cell configuration snapshots — the step
the paper describes as "extract[ing] all configuration parameters from
the signaling messages received at the mobile device".  The crawler
never sees simulator state: its only input is the binary log, exactly
like MobileInsight parsing a rooted phone's diag stream.

A snapshot is assembled per camping episode: a SIB1 (or legacy system
information) opens the episode for the cell it identifies, subsequent
SIB3-8 fill in the idle-state configuration, and a measConfig-bearing
RRC reconfiguration adds the active-state configuration.  A new SIB1
closes the previous episode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cellnet.rat import RAT
from repro.config.legacy import LegacyCellConfig
from repro.config.lte import LteCellConfig, MeasurementConfig
from repro.datasets.records import ConfigSample
from repro.rrc.diag import DiagReader, DiagRecord
from repro.rrc.messages import (
    LegacySystemInfo,
    RrcConnectionReconfiguration,
    Sib1,
    Sib3,
    Sib4,
    Sib5,
    Sib6,
    Sib7,
    Sib8,
)
from repro.ue.device import lte_config_from_sibs


@dataclass
class CellConfigSnapshot:
    """One observed configuration of one cell.

    Attributes:
        carrier / gci / rat / channel / city: Cell identity as learned
            from the log (SIB1 or legacy system information).
        first_seen_ms: Timestamp of the opening message.
        lte_config: Rebuilt LTE configuration (None for legacy cells or
            when the episode ended before SIB3 arrived).
        legacy_config: Rebuilt legacy configuration (legacy cells).
        meas_config: Active-state measConfig, when one was received
            during the episode.
    """

    carrier: str
    gci: int
    rat: str
    channel: int
    city: str
    first_seen_ms: int
    lte_config: LteCellConfig | None = None
    legacy_config: LegacyCellConfig | None = None
    meas_config: MeasurementConfig | None = None
    _sibs: list = field(default_factory=list, repr=False)

    def parameter_samples(self) -> list[tuple[str, object]]:
        """All flat (parameter, value) samples of this snapshot."""
        samples: list[tuple[str, object]] = []
        if self.lte_config is not None:
            samples.extend(self.lte_config.idle_parameter_samples())
        if self.meas_config is not None:
            samples.extend(self.meas_config.parameter_samples())
        if self.legacy_config is not None:
            samples.extend(self.legacy_config.parameter_samples())
        return samples

    def to_config_samples(
        self, observed_day: float = 0.0, round_index: int = 0
    ) -> list[ConfigSample]:
        """Flatten into dataset-D2 records.

        List-valued parameters become tuples, the form ``ConfigSample.
        from_json`` reloads, so a built sample is hashable and equal to
        its saved-and-reloaded copy (JSON writes both as arrays).
        """
        return [
            ConfigSample(
                carrier=self.carrier,
                gci=self.gci,
                rat=self.rat,
                channel=self.channel,
                city=self.city,
                parameter=name,
                value=tuple(value) if isinstance(value, list) else value,
                observed_day=observed_day,
                round_index=round_index,
            )
            for name, value in self.parameter_samples()
        ]


class ConfigCrawler:
    """Streams diag records into configuration snapshots."""

    def __init__(self):
        self._open: CellConfigSnapshot | None = None
        self._closed: list[CellConfigSnapshot] = []

    def feed(self, record: DiagRecord) -> None:
        """Consume one diag record."""
        message = record.message
        if isinstance(message, Sib1):
            self._finish_open()
            self._open = CellConfigSnapshot(
                carrier=message.carrier,
                gci=message.gci,
                rat=message.rat,
                channel=message.channel,
                city=message.city,
                first_seen_ms=record.timestamp_ms,
            )
            self._open._sibs.append(message)
        elif isinstance(message, LegacySystemInfo):
            self._finish_open()
            self._open = CellConfigSnapshot(
                carrier=message.carrier,
                gci=message.gci,
                rat=message.rat,
                channel=message.channel,
                city=message.city,
                first_seen_ms=record.timestamp_ms,
                legacy_config=message.to_config(),
            )
        elif isinstance(message, (Sib3, Sib4, Sib5, Sib6, Sib7, Sib8)):
            if self._open is not None:
                self._open._sibs.append(message)
        elif isinstance(message, RrcConnectionReconfiguration):
            if self._open is not None and message.meas_config is not None:
                self._open.meas_config = message.meas_config

    def _finish_open(self) -> None:
        snapshot = self._open
        self._open = None
        if snapshot is None:
            return
        if snapshot.rat == RAT.LTE.value and any(
            isinstance(s, Sib3) for s in snapshot._sibs
        ):
            lte = lte_config_from_sibs(snapshot._sibs)
            if snapshot.meas_config is not None:
                lte = LteCellConfig(
                    serving=lte.serving,
                    intra_neighbors=lte.intra_neighbors,
                    inter_freq_layers=lte.inter_freq_layers,
                    utra_layers=lte.utra_layers,
                    geran_layers=lte.geran_layers,
                    cdma_layers=lte.cdma_layers,
                    measurement=snapshot.meas_config,
                )
            snapshot.lte_config = lte
        self._closed.append(snapshot)

    def finish(self) -> list[CellConfigSnapshot]:
        """Close the trailing episode and return all snapshots."""
        self._finish_open()
        closed = self._closed
        self._closed = []
        return closed

    @classmethod
    def crawl(cls, log_bytes: bytes) -> list[CellConfigSnapshot]:
        """Parse a whole diag log into snapshots."""
        crawler = cls()
        for record in DiagReader(log_bytes):
            crawler.feed(record)
        return crawler.finish()


def crawl_config_samples(
    log_bytes: bytes, observed_day: float = 0.0, round_index: int = 0
) -> list[ConfigSample]:
    """Convenience: diag log straight to flat D2 samples."""
    samples: list[ConfigSample] = []
    for snapshot in ConfigCrawler.crawl(log_bytes):
        samples.extend(
            snapshot.to_config_samples(observed_day=observed_day, round_index=round_index)
        )
    return samples
