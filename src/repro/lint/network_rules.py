"""Cross-cell network lint rules (codes HC101-HC104).

These rules only make sense over a *population* of snapshots: they catch
the emergent misconfigurations behind the paper's instability case
studies (Section 5.4.1) — channels carrying multiple priorities,
cells disagreeing about a layer's priority, priority preference cycles
between channels, and inter-channel threshold gaps that bounce idle
devices between layers.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator

from repro.core.crawler import CellConfigSnapshot
from repro.lint.graph import strongly_connected
from repro.lint.rules import Issue, rule


def _lte_snapshots(snapshots: list[CellConfigSnapshot]) -> list[CellConfigSnapshot]:
    return [s for s in snapshots if s.lte_config is not None]


@rule("HC101", "priority-conflict", scope="network", severity="warning",
      summary="One EARFCN observed with multiple serving priorities")
def priority_conflict(snapshots: list[CellConfigSnapshot]) -> Iterator[Issue]:
    per_channel: dict[tuple[str, int], set[int]] = defaultdict(set)
    for snapshot in _lte_snapshots(snapshots):
        per_channel[(snapshot.carrier, snapshot.channel)].add(
            snapshot.lte_config.serving.cell_reselection_priority
        )
    for (carrier, channel), priorities in sorted(per_channel.items()):
        if len(priorities) > 1:
            yield Issue(
                f"channel {channel} carries multiple priorities "
                f"{sorted(priorities)}: prone to inconsistent handoffs",
                carrier=carrier,
                channel=channel,
            )


@rule("HC102", "layer-priority-disagreement", scope="network", severity="warning",
      summary="Cells disagree about an inter-freq layer's priority")
def layer_priority_disagreement(snapshots: list[CellConfigSnapshot]) -> Iterator[Issue]:
    per_target: dict[tuple[str, int], set[int]] = defaultdict(set)
    for snapshot in _lte_snapshots(snapshots):
        for layer in snapshot.lte_config.inter_freq_layers:
            per_target[(snapshot.carrier, layer.dl_carrier_freq)].add(
                layer.cell_reselection_priority
            )
    for (carrier, channel), priorities in sorted(per_target.items()):
        if len(priorities) > 1:
            yield Issue(
                f"SIB5 entries assign channel {channel} conflicting "
                f"priorities {sorted(priorities)}: reselection order "
                "depends on which cell a device camps on",
                carrier=carrier,
                channel=channel,
            )


@rule("HC103", "priority-loop", scope="network", severity="problem",
      summary="Priority preference cycle between channels (handoff loops)")
def priority_loop(snapshots: list[CellConfigSnapshot]) -> Iterator[Issue]:
    # Edge ch_a -> ch_b when some cell on ch_a assigns ch_b a strictly
    # higher priority than its own: the device on ch_a defers to ch_b.
    # A cycle means two (or more) channels each defer to the other — a
    # device can bounce between them indefinitely (paper Section 5.4.1).
    graphs: dict[str, dict[int, set[int]]] = defaultdict(lambda: defaultdict(set))
    for snapshot in _lte_snapshots(snapshots):
        own = snapshot.lte_config.serving.cell_reselection_priority
        for layer in snapshot.lte_config.inter_freq_layers:
            if layer.cell_reselection_priority > own:
                graphs[snapshot.carrier][snapshot.channel].add(layer.dl_carrier_freq)
    for carrier, graph in sorted(graphs.items()):
        for component in strongly_connected(dict(graph)):
            if len(component) < 2:
                continue
            yield Issue(
                "priority preference loop between channels "
                f"{' -> '.join(str(c) for c in component)} -> {component[0]}: "
                "devices may handoff in circles",
                carrier=carrier,
                subject="<->".join(str(c) for c in component),
            )


@rule("HC104", "reselection-gap", scope="network", severity="warning",
      summary="Inter-channel threshold gap bounces devices between layers")
def reselection_gap(snapshots: list[CellConfigSnapshot]) -> Iterator[Issue]:
    # A device leaves channel X downward (to lower-priority Y) once X
    # drops below X-cells' thresh_serving_low; from Y it climbs back the
    # moment X exceeds the thresh_x_high that Y-cells configure for X.
    # If that return threshold sits *below* the leave threshold (both
    # are relative levels against comparable floors), the two regions
    # overlap and idle devices bounce X -> Y -> X.
    leave: dict[tuple[str, int, int], float] = {}
    ret: dict[tuple[str, int, int], float] = {}
    for snapshot in _lte_snapshots(snapshots):
        config = snapshot.lte_config
        own = config.serving.cell_reselection_priority
        for layer in config.inter_freq_layers:
            key = (snapshot.carrier, snapshot.channel, layer.dl_carrier_freq)
            if layer.cell_reselection_priority < own:
                threshold = config.serving.thresh_serving_low_p
                leave[key] = max(leave.get(key, threshold), threshold)
            elif layer.cell_reselection_priority > own:
                threshold = layer.thresh_x_high_p
                ret[key] = min(ret.get(key, threshold), threshold)
    for (carrier, x, y), leave_at in sorted(leave.items()):
        return_at = ret.get((carrier, y, x))
        if return_at is not None and return_at < leave_at:
            yield Issue(
                f"threshold gap between channels {x} and {y}: devices "
                f"leave {x} below serving-low {leave_at:g} dB but return "
                f"from {y} once {x} exceeds thresh-x-high {return_at:g} dB "
                f"({leave_at - return_at:g} dB overlap invites reselection "
                "bouncing)",
                carrier=carrier,
                channel=x,
                subject=f"{x}->{y}",
            )
