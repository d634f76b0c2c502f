"""The drive simulator: one device, one trajectory, one data service.

``DriveSimulator.run`` is the reproduction of one Type-II measurement
run: the UE ticks along the trajectory, its signaling is logged to a
diag buffer by the attached collector listener (exactly what MMLab does
on a rooted phone), and the traffic model converts the serving link's
capacity into delivered throughput (the role of tcpdump in the paper).

The per-tick body lives in :class:`DriveLane`, and only there: a solo
drive runs one lane, and the fleet simulator
(:mod:`repro.simulate.fleet`) runs many in lockstep.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.cellnet.cell import CellId
from repro.cellnet.world import RadioEnvironment
from repro.rrc.broadcast import ConfigServer
from repro.rrc.diag import DiagWriter
from repro.simulate.mobility import Trajectory
from repro.simulate.throughput import ThroughputModel
from repro.simulate.traffic import NoTraffic, Ping, Speedtest, TrafficModel
from repro.ue.device import HandoffEvent, UserEquipment


@dataclass(frozen=True)
class TickSample:
    """Per-tick ground truth: where the device was and what it got."""

    t_ms: int
    serving: CellId
    rsrp_dbm: float
    sinr_db: float
    capacity_bps: float
    delivered_bps: float
    interrupted: bool


@dataclass
class DriveResult:
    """Everything one simulated drive produces.

    ``diag_log`` is the device-side artifact MMLab parses; ``samples``
    and ``handoffs`` are simulator ground truth used for validation and
    for throughput alignment (the tcpdump side).
    """

    carrier: str
    tick_ms: int
    samples: list[TickSample] = field(default_factory=list)
    handoffs: list[HandoffEvent] = field(default_factory=list)
    diag_log: bytes = b""
    ping_rtts_ms: list[tuple[int, float | None]] = field(default_factory=list)

    def throughput_series(self, bin_ms: int = 1000) -> list[tuple[int, float]]:
        """(bin start, mean delivered bps) series at ``bin_ms`` bins.

        A single accumulation pass (running sum/count per bin) — long
        drives do not materialize a per-bin list of every sample.
        """
        if not self.samples:
            return []
        bins: dict[int, list[float]] = {}
        for sample in self.samples:
            acc = bins.get(sample.t_ms // bin_ms * bin_ms)
            if acc is None:
                bins[sample.t_ms // bin_ms * bin_ms] = [sample.delivered_bps, 1]
            else:
                acc[0] += sample.delivered_bps
                acc[1] += 1
        return [(start, total / count) for start, (total, count) in sorted(bins.items())]


class DriveLane:
    """One device on one trajectory, advanced one tick at a time.

    This is the simulator's only per-tick body.  The caller assigns
    ``location`` and calls :meth:`step` once per tick;
    :class:`DriveSimulator` does so for one lane, the fleet simulator
    for many in lockstep.  The UE is seeded ``seed * 1009 + run_index``
    and the throughput model ``(seed, run_index, 0x7A)``, so a fleet
    member and a solo drive with the same seed are the same device.

    The fleet front-loads work :meth:`step` would otherwise do itself,
    never different work, and only through the UE's own interfaces: it
    installs snapshots into the UE's engine, its batch matrices hold the
    engine's filter state and noise tap while ``batched``, and its
    quiet-verdict pass (:func:`~repro.ue.reporting.step_events_batch`)
    leaves the UE a measurement round or a quiet verdict that its next
    :meth:`~repro.ue.device.UserEquipment.tick` consumes.  ``row`` and
    ``batched`` are the fleet's bookkeeping; a solo drive never sets them.
    """

    __slots__ = (
        "trajectory",
        "carrier",
        "tick_ms",
        "traffic",
        "is_ping",
        "is_speedtest",
        "ue",
        "writer",
        "throughput",
        "samples",
        "ping_rtts",
        "delivered_bits",
        "interrupted_ticks",
        "n_ticks",
        "location",
        "row",
        "batched",
        "_occupancy",
        "_gt_snap",
        "_gt_serving",
        "_gt_rsrp",
        "_gt_sinr",
        "_cap_serving",
        "_cap_sinr",
        "_cap_epoch",
        "_cap_value",
        "_occ_cell",
        "_occ_run",
    )

    def __init__(
        self,
        env: RadioEnvironment,
        server: ConfigServer,
        carrier: str,
        trajectory: Trajectory,
        traffic: TrafficModel,
        tick_ms: int = 200,
        seed: int = 0,
        run_index: int = 0,
        vectorized: bool | None = None,
        keep_samples: bool = True,
    ):
        self.trajectory = trajectory
        self.carrier = carrier
        self.tick_ms = tick_ms
        self.traffic = traffic
        self.is_ping = isinstance(traffic, Ping)
        self.is_speedtest = type(traffic) is Speedtest
        self.ue = UserEquipment(
            env, server, carrier, seed=seed * 1009 + run_index, vectorized=vectorized
        )
        self.writer = DiagWriter.in_memory()
        self.ue.attach_diag(self.writer)
        self.throughput = ThroughputModel(
            rng=np.random.default_rng((seed, run_index, 0x7A))
        )
        self.samples: list[TickSample] | None = [] if keep_samples else None
        self.ping_rtts: list[tuple[int, float | None]] = []
        self._occupancy: Counter = Counter()
        self.delivered_bits = 0.0
        self.interrupted_ticks = 0
        self.n_ticks = 0
        self.row = -1
        self.batched = False
        # Ground-truth serving measurement and capacity memos: a parked
        # UE's (snapshot, serving) pair and load-share epoch repeat for
        # many consecutive ticks, and both lookups are pure given them.
        self._gt_snap = None
        self._gt_serving = None
        self._gt_rsrp = -140.0
        self._gt_sinr = -20.0
        self._cap_serving = None
        self._cap_sinr = 0.0
        self._cap_epoch = -1
        self._cap_value = 0.0
        # Serving-cell occupancy as run lengths (flushed on change).
        self._occ_cell = None
        self._occ_run = 0
        self.location = trajectory.position(0)
        self.ue.initial_camp(self.location, 0)
        if traffic.generates_user_traffic:
            self.ue.connect(0)

    def step(self, now_ms: int) -> None:
        """One tick at the already-assigned ``location``."""
        ue = self.ue
        ue.tick(now_ms, self.location)
        serving = ue.serving
        # The UE's tick (or, in a fleet, the spots pass or the initial
        # camp) left this tick's snapshot in the engine memo.
        snap = ue.meas.snapshot(self.location, self.carrier)
        if snap is self._gt_snap and serving is self._gt_serving:
            rsrp, sinr = self._gt_rsrp, self._gt_sinr
        else:
            if serving in snap:
                measurement = snap.measure(serving)
                rsrp, sinr = measurement.rsrp_dbm, measurement.sinr_db
            else:
                rsrp, sinr = -140.0, -20.0
            self._gt_snap, self._gt_serving = snap, serving
            self._gt_rsrp, self._gt_sinr = rsrp, sinr
        if now_ms < ue.interrupted_until_ms:
            interrupted = True
            capacity = 0.0
            self.interrupted_ticks += 1
        else:
            interrupted = False
            epoch = now_ms // 4000
            if (
                serving is self._cap_serving
                and sinr == self._cap_sinr
                and epoch == self._cap_epoch
            ):
                capacity = self._cap_value
            else:
                capacity = self.throughput.capacity_bps(serving, sinr, now_ms)
                self._cap_serving, self._cap_sinr = serving, sinr
                self._cap_epoch, self._cap_value = epoch, capacity
        if self.is_speedtest:
            delivered_bits = capacity * self.tick_ms / 1000.0
        else:
            delivered_bits = self.traffic.delivered_bits(capacity, self.tick_ms, now_ms)
        self.delivered_bits += delivered_bits
        if serving is self._occ_cell:
            self._occ_run += 1
        else:
            if self._occ_run:
                self._occupancy[self._occ_cell.cell_id] += self._occ_run
            self._occ_cell = serving
            self._occ_run = 1
        self.n_ticks += 1
        if self.samples is not None:
            self.samples.append(
                TickSample(
                    t_ms=now_ms,
                    serving=serving.cell_id,
                    rsrp_dbm=rsrp,
                    sinr_db=sinr,
                    capacity_bps=capacity,
                    delivered_bps=delivered_bits * 1000.0 / self.tick_ms,
                    interrupted=interrupted,
                )
            )
        if self.is_ping and self.traffic.probe_due(now_ms, self.tick_ms):
            if self.throughput.ping_lost(sinr, interrupted):
                self.ping_rtts.append((now_ms, None))
            else:
                self.ping_rtts.append((now_ms, self.throughput.rtt_ms(sinr)))

    def occupancy(self) -> dict[str, int]:
        """Ticks spent on each serving cell so far, keyed by cell id string."""
        if self._occ_run:
            self._occupancy[self._occ_cell.cell_id] += self._occ_run
            self._occ_run = 0
        return {str(k): v for k, v in sorted(self._occupancy.items())}

    def result(self) -> DriveResult:
        """The drive so far as a :class:`DriveResult`."""
        return DriveResult(
            carrier=self.carrier,
            tick_ms=self.tick_ms,
            samples=self.samples if self.samples is not None else [],
            handoffs=list(self.ue.handoffs),
            diag_log=self.writer.getvalue(),
            ping_rtts_ms=self.ping_rtts,
        )


class DriveSimulator:
    """Runs Type-II drives against one deployment, one :class:`DriveLane` each.

    Args:
        env: Radio environment.
        server: Configuration oracle for the deployment.
        carrier: Carrier the device subscribes to.
        seed: Seeds the UE, the network controller and traffic noise.
        tick_ms: Simulation step (the paper bins throughput at 100 ms;
            200 ms keeps long sweeps fast while preserving shapes).
        config_lint: Preflight-audit the carrier's configurations before
            the first drive and surface findings as a
            :class:`~repro.lint.engine.ConfigLintWarning`.  The audit is
            cached per (server, carrier), so fleets pay for it once.
        vectorized: Run the UE's array-resident hot path (default) or
            the scalar reference loop; drives are bit-identical either
            way.
    """

    def __init__(
        self,
        env: RadioEnvironment,
        server: ConfigServer,
        carrier: str,
        seed: int = 0,
        tick_ms: int = 200,
        config_lint: bool = True,
        vectorized: bool | None = None,
    ):
        self.env = env
        self.server = server
        self.carrier = carrier
        self.seed = seed
        self.tick_ms = tick_ms
        self.config_lint = config_lint
        self.vectorized = vectorized

    def run(
        self,
        trajectory: Trajectory,
        traffic: TrafficModel | None = None,
        run_index: int = 0,
    ) -> DriveResult:
        """Simulate one drive; returns the full result bundle.

        With a traffic model that generates user traffic the UE runs RRC
        connected (active-state handoffs); with ``NoTraffic`` it stays
        idle (idle-state handoffs), matching the paper's two Type-II
        modes.
        """
        if self.config_lint:
            # Imported here: repro.lint reaches repro.core, whose package
            # init imports this module back (core.server drives fleets).
            from repro.lint.engine import warn_before_run

            warn_before_run(self.env, self.server, self.carrier)
        lane = DriveLane(
            self.env,
            self.server,
            self.carrier,
            trajectory,
            traffic if traffic is not None else NoTraffic(),
            tick_ms=self.tick_ms,
            seed=self.seed,
            run_index=run_index,
            vectorized=self.vectorized,
        )
        now_ms = 0
        while now_ms <= trajectory.duration_ms:
            lane.location = trajectory.position(now_ms)
            lane.step(now_ms)
            now_ms += self.tick_ms
        return lane.result()
