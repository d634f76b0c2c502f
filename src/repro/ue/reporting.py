"""Event-triggered reporting (active-state step 3 of the paper's Fig. 1).

An :class:`EventMonitor` holds the armed events of the current
measConfig and tracks, per (event, neighbor) pair, how long the entry
condition has held.  When it has held for the configured
time-to-trigger, the event *fires* and a measurement report is due;
the leave condition (hysteresis-mirrored) disarms it.

The monitor is rebuilt whenever the UE receives a new measConfig —
after every handoff, exactly as in a real network.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cellnet.cell import CellId
from repro.config.events import (
    EventConfig,
    EventType,
    entry_mask,
    evaluate_entry,
    evaluate_leave,
)
from repro.config.lte import MeasurementConfig
from repro.ue.measurement import (
    BatchMeasurementState,
    FilteredMeasurement,
    MeasurementRound,
)


@dataclass(frozen=True)
class TriggeredReport:
    """One due measurement report.

    Attributes:
        event: The reporting event that fired (PERIODIC for periodic).
        config: The firing event's configuration.
        serving: Serving-cell measurement at fire time.
        neighbors: Neighbors satisfying the condition (or the strongest
            cells for periodic reports), best first.
    """

    event: EventType
    config: EventConfig
    serving: FilteredMeasurement
    neighbors: tuple[FilteredMeasurement, ...]


#: Sentinel key for serving-only events (A1/A2), which have no neighbor.
_SERVING_KEY = CellId("", -1)


def _best_first(
    config: EventConfig, serving: FilteredMeasurement, neighbors: list[FilteredMeasurement]
) -> TriggeredReport:
    """The report of ``neighbors`` firing ``config``, best first by its metric."""
    return TriggeredReport(
        config.event,
        config,
        serving,
        tuple(sorted(neighbors, key=lambda m: (-m.metric(config.metric), m.cell.cell_id))),
    )


@dataclass
class _EventState:
    """TTT and reporting state of one armed event."""

    config: EventConfig
    #: (event, neighbor) -> time entry condition started holding.
    entry_since: dict[CellId, int] = field(default_factory=dict)
    #: Neighbors already reported (until their leave condition holds).
    reported: set[CellId] = field(default_factory=set)


class EventMonitor:
    """Evaluates armed reporting events against measurement rounds."""

    def __init__(self, meas_config: MeasurementConfig):
        self.meas_config = meas_config
        events = meas_config.events
        self._states = [_EventState(config=e) for e in events]
        self._last_periodic_ms: int | None = None
        #: The armed ``(event, metric)`` pairs, in arming order: the
        #: batched quiet pass gives each occurrence its own slot.
        self.signature = tuple((c.event, c.metric) for c in events)
        #: One ``[hysteresis, threshold1, threshold2, offset]`` row per
        #: armed event (absent thresholds as NaN; their events never
        #: read them), laid into per-member columns by the batch.
        self.entry_params = np.array(
            [(c.hysteresis, c.threshold1, c.threshold2, c.offset) for c in events],
            dtype=np.float64,
        ).reshape(len(events), 4)

    @property
    def armed_events(self) -> list[EventType]:
        """Event types currently armed (paper: multiple per handoff)."""
        events = [s.config.event for s in self._states]
        if self.meas_config.periodic is not None:
            events.append(EventType.PERIODIC)
        return events

    def s_measure_gate_open(self, serving: FilteredMeasurement) -> bool:
        """Whether neighbor measurement is allowed by s-Measure.

        TS 36.331: neighbor measurements run when serving RSRP falls
        below s-Measure.  The permissive -44 value disables the gate.
        """
        return serving.rsrp_dbm <= self.meas_config.s_measure

    def quiet(self, now_ms: int, gate_open: bool, entry_holds: bool) -> bool:
        """Whether :meth:`step_round` would change nothing this round.

        True when no armed event's entry condition holds, no event has
        TTT or report state, and no periodic report is due (periodic
        reports need the s-Measure gate open).
        """
        if entry_holds:
            return False
        for state in self._states:
            if state.entry_since or state.reported:
                return False
        return not self._periodic_due(now_ms, gate_open)

    def _periodic_due(self, now_ms: int, gate_open: bool) -> bool:
        """Whether a periodic report is due (it needs the s-Measure gate open)."""
        periodic = self.meas_config.periodic
        last = self._last_periodic_ms
        return (
            periodic is not None
            and gate_open
            and (last is None or now_ms - last >= periodic.report_interval_ms)
        )

    def _periodic_report(
        self, now_ms: int, serving: FilteredMeasurement, neighbors: list[FilteredMeasurement]
    ) -> TriggeredReport:
        """The due periodic report of the strongest ``neighbors``, best first."""
        periodic = self.meas_config.periodic
        self._last_periodic_ms = now_ms
        return TriggeredReport(
            EventType.PERIODIC,
            periodic.as_event_config(),
            serving,
            tuple(neighbors[: periodic.max_report_cells]),
        )

    def step(
        self,
        now_ms: int,
        serving: FilteredMeasurement,
        intra_rat_neighbors: list[FilteredMeasurement],
        inter_rat_neighbors: list[FilteredMeasurement],
    ) -> list[TriggeredReport]:
        """One evaluation round; returns reports due at ``now_ms``."""
        reports: list[TriggeredReport] = []
        gate_open = self.s_measure_gate_open(serving)
        for state in self._states:
            config = state.config
            if not config.event.needs_neighbor:
                if self._step_serving_only(now_ms, state, serving):
                    reports.append(TriggeredReport(config.event, config, serving, ()))
                continue
            if not gate_open:
                candidates = []
            elif config.event.is_inter_rat:
                candidates = inter_rat_neighbors
            else:
                candidates = intra_rat_neighbors
            fired: list[FilteredMeasurement] = []
            seen_keys: set[CellId] = set()
            serving_value = serving.metric(config.metric)
            for neighbor in candidates:
                key = neighbor.cell.cell_id
                seen_keys.add(key)
                neighbor_value = neighbor.metric(config.metric)
                if key in state.reported:
                    if evaluate_leave(config, serving_value, neighbor_value):
                        state.reported.discard(key)
                        state.entry_since.pop(key, None)
                    continue
                if evaluate_entry(config, serving_value, neighbor_value):
                    started = state.entry_since.setdefault(key, now_ms)
                    if now_ms - started >= config.time_to_trigger_ms:
                        state.reported.add(key)
                        fired.append(neighbor)
                elif evaluate_leave(config, serving_value, neighbor_value):
                    state.entry_since.pop(key, None)
            # Neighbors that disappeared from measurement: clear state.
            for key in [k for k in state.entry_since if k not in seen_keys]:
                del state.entry_since[key]
            state.reported &= seen_keys
            if fired:
                fired = [m for m in fired if m.cell.cell_id != serving.cell.cell_id]
                reports.append(_best_first(config, serving, fired))
        if intra_rat_neighbors and self._periodic_due(now_ms, gate_open):
            reports.append(self._periodic_report(now_ms, serving, intra_rat_neighbors))
        return reports

    def _step_serving_only(
        self, now_ms: int, state: _EventState, serving: FilteredMeasurement
    ) -> bool:
        """A1/A2 evaluation (no neighbor axis); True when the event fires."""
        config = state.config
        serving_value = serving.metric(config.metric)
        key = _SERVING_KEY
        if key in state.reported:
            if evaluate_leave(config, serving_value, None):
                state.reported.discard(key)
                state.entry_since.pop(key, None)
            return False
        if evaluate_entry(config, serving_value, None):
            started = state.entry_since.setdefault(key, now_ms)
            if now_ms - started >= config.time_to_trigger_ms:
                state.reported.add(key)
                return True
        elif evaluate_leave(config, serving_value, None):
            state.entry_since.pop(key, None)
        return False

    def step_round(
        self, now_ms: int, round_: MeasurementRound, serving: FilteredMeasurement
    ) -> list[TriggeredReport]:
        """One evaluation round over an array-resident measurement round.

        Semantically identical to :meth:`step` fed the sorted neighbor
        lists of the same round, but each event's entry/leave conditions
        are evaluated as one masked array pass over the candidate metric
        values; per-neighbor Python work happens only where a mask is
        hot (a condition holds), which on a steady drive is almost
        never.
        """
        reports: list[TriggeredReport] = []
        gate_open = self.s_measure_gate_open(serving)
        prepared = round_.prepared
        cell_ids = prepared.cell_ids
        index = prepared.index
        if gate_open:
            intra_cand, inter_cand = round_.neighbor_masks(serving.cell)
        else:
            intra_cand = inter_cand = None
        for state in self._states:
            config = state.config
            if not config.event.needs_neighbor:
                if self._step_serving_only(now_ms, state, serving):
                    reports.append(TriggeredReport(config.event, config, serving, ()))
                continue
            cand = inter_cand if config.event.is_inter_rat else intra_cand
            serving_value = serving.metric(config.metric)
            fired: list[int] = []
            entry = None
            if cand is not None:
                # One masked array pass over the whole prepared cell
                # list; only positions where the entry condition holds
                # (on a steady drive: almost none) cost Python work.
                values = round_.metric_values(config.metric)
                entry = entry_mask(
                    config.event,
                    serving_value,
                    values,
                    config.hysteresis,
                    config.threshold1,
                    config.threshold2,
                    config.offset,
                ) & cand
                for i in np.flatnonzero(entry):
                    key = cell_ids[i]
                    if key in state.reported:
                        # Entry and leave are mutually exclusive (hys
                        # >= 0): a reported neighbor whose entry holds
                        # cannot satisfy leave, so nothing to do.
                        continue
                    started = state.entry_since.setdefault(key, now_ms)
                    if now_ms - started >= config.time_to_trigger_ms:
                        state.reported.add(key)
                        fired.append(int(i))
            # Leave conditions only matter for keys with state — the
            # reported set and pending TTT timers, which are near-empty
            # on a steady drive — so they are consulted scalar-wise.
            if state.reported:
                for key in list(state.reported):
                    i = index.get(key)
                    if cand is None or i is None or not cand[i]:
                        # Disappeared from this round's candidates:
                        # clear state, as the scalar pass's stale
                        # cleanup does.
                        state.reported.discard(key)
                        state.entry_since.pop(key, None)
                        continue
                    if evaluate_leave(config, serving_value, float(values[i])):
                        state.reported.discard(key)
                        state.entry_since.pop(key, None)
            if state.entry_since:
                for key in list(state.entry_since):
                    if key in state.reported:
                        continue
                    i = index.get(key)
                    if cand is None or i is None or not cand[i]:
                        del state.entry_since[key]
                        continue
                    if entry is not None and entry[i]:
                        continue
                    if evaluate_leave(config, serving_value, float(values[i])):
                        del state.entry_since[key]
            if fired:
                reports.append(
                    _best_first(config, serving, [round_.measurement_at(i) for i in fired])
                )
        # The best-first sort is only paid when a report is due and
        # there is at least one intra-RAT neighbor to report.
        if self._periodic_due(now_ms, gate_open) and intra_cand.any():
            intra_idx, _ = round_.neighbor_order(serving.cell)
            intra_idx = intra_idx[: self.meas_config.periodic.max_report_cells]
            neighbors = [round_.measurement_at(i) for i in intra_idx]
            reports.append(self._periodic_report(now_ms, serving, neighbors))
        return reports


class _MemberPlan:
    """Who the batched quiet pass evaluates, and with which parameters.

    Kept while the batched rows, their serving columns (None: inaudible)
    and monitors (None: no events armed, or a handover pending) repeat
    tick over tick.  Each armed ``(event, metric, occurrence)`` slot of
    any member holds one ``(member, 1)`` column per :func:`entry_mask`
    parameter; a member that does not arm the slot holds NaN there, so
    every comparison of its row is False.
    """

    def __init__(self, rows: list[int], cols: list, monitors: list):
        self.rows, self.cols, self.monitors = list(rows), cols, monitors
        inside = [mon is not None and col is not None for mon, col in zip(monitors, cols)]
        self.outsiders = [k for k, ok in enumerate(inside) if not ok]
        self.members = [(k, monitors[k]) for k, ok in enumerate(inside) if ok]
        self.mrows = np.array([rows[k] for k, _ in self.members], dtype=np.intp)
        self.scols = np.array([cols[k] for k, _ in self.members], dtype=np.intp)
        self.gates = np.array([mon.meas_config.s_measure for _, mon in self.members])
        params: dict[tuple, np.ndarray] = {}
        for i, (_, monitor) in enumerate(self.members):
            for e_i, pair in enumerate(monitor.signature):
                slot = pair + (monitor.signature[:e_i].count(pair),)
                if slot not in params:
                    params[slot] = np.full((len(self.members), 4), np.nan)
                params[slot][i] = monitor.entry_params[e_i]
        self.slots = [(event, metric, *p.T[:, :, None]) for (event, metric, _), p in params.items()]


def step_events_batch(
    now_ms: int,
    ues: list,
    rows: list[int],
    state: BatchMeasurementState,
    filt_rsrp: np.ndarray,
    filt_rsrq: np.ndarray,
    eligible: np.ndarray,
) -> None:
    """The quiet verdicts of many connected UEs' next ticks, in one pass.

    ``state`` has just stepped UE ``k``'s round in row ``rows[k]``
    (``filt_rsrp``, ``filt_rsrq`` and ``eligible`` are its output).  A
    UE whose monitor is :meth:`EventMonitor.quiet` is marked quiet
    (:meth:`~repro.ue.device.UserEquipment.mark_quiet`); every other
    UE's engine gets its round installed, and its own
    :meth:`EventMonitor.step_round` evaluates it as in a solo drive.

    The pass costs a fixed number of array operations per armed slot,
    whatever the mix of monitors: one :func:`entry_mask` per slot over
    all members (per-member parameter columns, NaN where a member does
    not arm the slot), reduced to one any-entry flag per member.  The
    member plan is rebuilt only when the rows, a serving column or a
    monitor changes.  Each verdict is bit-identical to what the UE's
    own step would compute.
    """
    cols = state.serving_columns()
    monitors = [None if ue.pending_handover is not None else ue.monitor for ue in ues]
    plan = state.event_plan
    if plan is None or plan.cols != cols or plan.monitors != monitors or plan.rows != rows:
        plan = state.event_plan = _MemberPlan(rows, cols, monitors)
    for k in plan.outsiders:
        # Nothing to batch (no events armed, or a handover pending), or
        # the serving cell is inaudible and the UE's own step handles
        # the radio link failure.
        state.install_round(rows[k], ues[k].meas)
    if not plan.members:
        return
    mrows, scols = plan.mrows, plan.scols
    serving = {"rsrp": filt_rsrp[mrows, scols], "rsrq": filt_rsrq[mrows, scols]}
    # The s-Measure gate, one comparison for all members (exactly the
    # per-monitor check).
    gate_open = serving["rsrp"] <= plan.gates
    any_entry = np.zeros(len(mrows), dtype=bool)
    values = None
    # OR of the neighbor slots' entry rows per candidate class (intra-,
    # inter-RAT): masking the OR once equals masking every row.
    hot: list = [None, None]
    for event, metric, hys, th1, th2, offset in plan.slots:
        if not event.needs_neighbor:
            any_entry |= entry_mask(event, serving[metric][:, None], None, hys, th1, th2, offset)[:, 0]
            continue
        if values is None:
            values = {"rsrp": filt_rsrp[mrows], "rsrq": filt_rsrq[mrows]}
        entry = entry_mask(event, serving[metric][:, None], values[metric], hys, th1, th2, offset)
        inter = event.is_inter_rat
        hot[inter] = entry if hot[inter] is None else hot[inter] | entry
    if values is not None:
        # Neighbor candidates: eligibility minus the serving column,
        # zeroed wholesale for gate-closed members (step_round hands
        # them no candidates, so their neighbor events never fire).
        base = eligible[mrows]  # fancy indexing copies
        base[np.arange(len(mrows)), scols] = False
        base &= gate_open[:, None]
        lte = state.rat_lte[mrows]
        for entry, candidates in zip(hot, (lte, ~lte)):
            if entry is not None:
                entry &= candidates
                entry &= base
                any_entry |= entry.any(axis=1)
    opens, entered = gate_open.tolist(), any_entry.tolist()
    rsrp, rsrq = serving["rsrp"].tolist(), serving["rsrq"].tolist()
    for i, (k, monitor) in enumerate(plan.members):
        if monitor.quiet(now_ms, opens[i], entered[i]):
            ues[k].mark_quiet(rsrp[i], rsrq[i])
        else:
            state.install_round(rows[k], ues[k].meas)
