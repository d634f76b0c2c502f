"""The radio environment: deployment + propagation, queryable by UEs.

``RadioEnvironment`` is what a simulated device "sees": given a location
and a carrier subscription, it answers which cells are audible, how
strong each is, and which co-channel cells interfere.  A spatial index
of per-carrier coordinate arrays keeps neighbor queries fast enough for
the long drive simulations behind datasets D1/D2.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.cellnet.cell import Cell, CellId, CellRegistry
from repro.cellnet.deployment import DeploymentPlan
from repro.cellnet.geo import Point
from repro.cellnet.radio import (
    Measurement,
    PreparedCells,
    RadioModel,
    RadioSnapshot,
    compute_metrics_batch,
)
from repro.cellnet.rat import RAT


class _SpatialIndex:
    """Cell-location index: coordinate arrays in cell-id order.

    All cells, and each carrier's cells, are kept sorted by cell id with
    their coordinates as arrays, so a query is one vectorized distance
    pass and its result needs no sort.  Squared distances decide every
    cell clearly inside or outside the radius; the few within a narrow
    relative band of it are re-checked with :meth:`Point.distance_to`,
    so membership is exactly the scalar rule
    ``cell.location.distance_to(location) <= radius_m``.
    """

    #: Relative half-width of the re-checked band around the radius:
    #: far wider than the rounding of a squared distance (a few ulps).
    _BAND = 1e-9

    def __init__(self, cells: list[Cell]):
        ordered = sorted(cells, key=lambda c: c.cell_id)
        self._all = self._arrays(ordered)
        by_carrier: dict[str, list[Cell]] = {}
        for cell in ordered:
            by_carrier.setdefault(cell.carrier, []).append(cell)
        self._by_carrier = {carrier: self._arrays(group) for carrier, group in by_carrier.items()}

    @staticmethod
    def _arrays(cells: list[Cell]) -> tuple[list[Cell], np.ndarray, np.ndarray]:
        xs = np.array([c.location.x for c in cells], dtype=np.float64)
        ys = np.array([c.location.y for c in cells], dtype=np.float64)
        return cells, xs, ys

    def near(self, location: Point, radius_m: float, carrier: str | None = None) -> list[Cell]:
        """Indexed cells (of ``carrier``, if given) within ``radius_m``, in cell-id order."""
        group = self._all if carrier is None else self._by_carrier.get(carrier)
        if group is None:
            return []
        cells, xs, ys = group
        dx = xs - location.x
        dy = ys - location.y
        d2 = dx * dx + dy * dy
        inner = (radius_m * (1.0 - self._BAND)) ** 2
        outer = (radius_m * (1.0 + self._BAND)) ** 2
        keep = d2 < inner
        for i in np.flatnonzero((d2 >= inner) & (d2 <= outer)).tolist():
            keep[i] = cells[i].location.distance_to(location) <= radius_m
        return [cells[i] for i in np.flatnonzero(keep).tolist()]


class RadioEnvironment:
    """Queryable world model combining deployment and propagation.

    Args:
        plan: The deployment to expose.
        radio: Propagation model; a default seeded model is built when
            omitted.
        audible_radius_m: Cells farther than this are never returned —
            beyond a few kilometres RSRP falls below the -140 dBm floor
            anyway, so this is purely a performance cutoff.
    """

    def __init__(
        self,
        plan: DeploymentPlan,
        radio: RadioModel | None = None,
        audible_radius_m: float = 6000.0,
    ):
        self.plan = plan
        self.radio = radio or RadioModel(seed=1)
        self.audible_radius_m = audible_radius_m
        self._index = _SpatialIndex(list(plan.registry))
        #: Prepared-neighborhood LRU: hits move to the back, inserts past
        #: ``snapshot_cache_size`` evict the least recently used entry, so
        #: long multi-city sweeps keep their working set warm instead of
        #: periodically re-preparing every neighborhood.
        self.snapshot_cache_size = 4096
        self._snapshot_cache: OrderedDict = OrderedDict()
        #: Prepared-cache hit/miss counters; surfaced by
        #: :meth:`snapshot_cache_stats` and fleet results.
        self.snapshot_cache_hits = 0
        self.snapshot_cache_misses = 0

    @property
    def registry(self) -> CellRegistry:
        """The cell registry backing this environment."""
        return self.plan.registry

    def cells_near(
        self,
        location: Point,
        carrier: str | None = None,
        rat: RAT | None = None,
        radius_m: float | None = None,
    ) -> list[Cell]:
        """Audible cells around ``location``, optionally filtered.

        Results are sorted by (carrier, gci) for determinism.
        """
        radius = radius_m if radius_m is not None else self.audible_radius_m
        cells = self._index.near(location, radius, carrier)
        if rat is not None:
            cells = [c for c in cells if c.rat is rat]
        return cells

    def co_channel_interferers(self, cell: Cell, location: Point) -> list[Cell]:
        """Other same-channel cells audible at ``location``.

        Served from the spatial index (which already bounds candidates by
        the audible radius) rather than scanning the deployment's full
        per-(RAT, channel) cell list; sorted by cell id for determinism.
        """
        return [
            c
            for c in self._index.near(location, self.audible_radius_m)
            if c.rat is cell.rat
            and c.channel == cell.channel
            and c.cell_id != cell.cell_id
        ]

    def measure(self, cell: Cell, location: Point) -> Measurement:
        """Measure one cell at a location, with co-channel interference."""
        return self.radio.measure(
            cell, location, co_channel=self.co_channel_interferers(cell, location)
        )

    def measure_all(
        self,
        location: Point,
        carrier: str,
        rat: RAT | None = None,
        radius_m: float | None = None,
    ) -> list[Measurement]:
        """Measurements of all audible cells of one carrier.

        Sorted strongest-first by RSRP, which is the order a modem's
        cell-search reports candidates.
        """
        measurements = [
            self.measure(cell, location)
            for cell in self.cells_near(location, carrier=carrier, rat=rat, radius_m=radius_m)
        ]
        measurements.sort(key=lambda m: (-m.rsrp_dbm, m.cell.cell_id))
        return measurements

    def strongest_cell(
        self, location: Point, carrier: str, rat: RAT | None = None
    ) -> Cell | None:
        """The strongest audible cell of ``carrier`` at ``location``."""
        measurements = self.measure_all(location, carrier, rat=rat)
        return measurements[0].cell if measurements else None

    def snapshot(
        self,
        location: Point,
        carrier: str,
        radius_m: float = 3000.0,
    ) -> RadioSnapshot:
        """Vectorized per-tick measurement of one carrier's nearby cells.

        This is the hot path of the drive simulation: RSRP for every
        audible cell is computed in one numpy pass, and the snapshot
        serves RSRQ/SINR lazily from the same co-channel power sums.
        """
        prepared = self.prepared_for(location, carrier, radius_m)
        rsrp = self.radio.rsrp_prepared(prepared, location)
        return RadioSnapshot(self.radio, prepared, rsrp, location)

    def prepared_for(
        self, location: Point, carrier: str, radius_m: float = 3000.0
    ) -> PreparedCells:
        """The prepared audible-cell set covering ``location`` (LRU).

        Cached on a 200 m location grid: a moving UE re-queries nearly
        identical neighborhoods tick after tick.  The extra 200 m guard
        band keeps the cached list a superset of the exact query
        anywhere inside the grid square.
        """
        key = (round(location.x / 200.0), round(location.y / 200.0), carrier, radius_m)
        return self._prepared(key, location, 1)

    def _prepared(self, key: tuple, location: Point, uses: int) -> PreparedCells:
        """The LRU entry of grid ``key``, counted as ``uses`` lookups in a row.

        A miss prepares the neighborhood around ``location`` (a point of
        the key's grid square) and counts the other ``uses - 1`` lookups
        as hits, exactly as that many :meth:`prepared_for` calls would.
        """
        cache = self._snapshot_cache
        prepared = cache.get(key)
        if prepared is None:
            self.snapshot_cache_misses += 1
            self.snapshot_cache_hits += uses - 1
            carrier, radius_m = key[2], key[3]
            cells = self.cells_near(location, carrier=carrier, radius_m=radius_m + 200.0)
            prepared = self.radio.prepare(cells)
            while len(cache) >= self.snapshot_cache_size:
                cache.popitem(last=False)
            cache[key] = prepared
        else:
            self.snapshot_cache_hits += uses
            cache.move_to_end(key)
        return prepared

    def snapshot_batch(
        self, spots: list[tuple[Point, str]], radius_m: float = 3000.0
    ) -> list[RadioSnapshot]:
        """Snapshots of many (location, carrier) spots, batched physics.

        The spots' 200 m grid keys are computed at once and each
        distinct key is looked up once; hits, misses and the LRU order
        end up exactly as one :meth:`prepared_for` call per spot leaves
        them.  Spots sharing a prepared neighborhood run the RSRP chain
        as one broadcast pass (:meth:`RadioModel.rsrp_prepared_batch`),
        and their RSRQ/SINR arrays are primed in one more
        (:func:`compute_metrics_batch`), so no consumer pays the lazy
        per-snapshot computation.  A lone spot keeps the single-location
        chain and lazy RSRQ/SINR.  Entry ``j`` is bit-identical to
        ``snapshot(spots[j][0], spots[j][1])``.
        """
        count = len(spots)
        xs = np.fromiter((spot[0].x for spot in spots), float, count=count)
        ys = np.fromiter((spot[0].y for spot in spots), float, count=count)
        # rint rounds half to even, as round() does, on the same quotient.
        kxs = np.rint(xs / 200.0).astype(np.int64).tolist()
        kys = np.rint(ys / 200.0).astype(np.int64).tolist()
        groups: dict[tuple, list[int]] = {}
        for j, (kx, ky, spot) in enumerate(zip(kxs, kys, spots)):
            groups.setdefault((kx, ky, spot[1], radius_m), []).append(j)
        if len(groups) >= self.snapshot_cache_size:
            # A chunk this wide could evict its own keys mid-chunk.
            return [self.snapshot(location, carrier, radius_m) for location, carrier in spots]
        resolved = [
            (self._prepared(key, spots[idxs[0]][0], len(idxs)), idxs)
            for key, idxs in groups.items()
        ]
        if len(groups) > 1:
            # Per-spot lookups leave the keys in last-use order.
            for key in sorted(groups, key=lambda k: groups[k][-1]):
                self._snapshot_cache.move_to_end(key)
        out: list[RadioSnapshot | None] = [None] * count
        for prepared, idxs in resolved:
            if len(idxs) == 1 or not prepared.cells:
                # Lone spots keep the scratch-buffered single-location
                # chain (the broadcast pass only pays off shared).
                for j in idxs:
                    rsrp = self.radio.rsrp_prepared(prepared, spots[j][0])
                    out[j] = RadioSnapshot(self.radio, prepared, rsrp, spots[j][0])
                continue
            rsrp = self.radio.rsrp_prepared_batch(prepared, xs[idxs], ys[idxs])
            rsrq, sinr, power_mw, own_totals = compute_metrics_batch(prepared, rsrp)
            for k, j in enumerate(idxs):
                out[j] = RadioSnapshot(
                    self.radio, prepared, rsrp[k], spots[j][0],
                    (rsrq[k], sinr[k], power_mw[k], own_totals[k]),
                )
        return out

    def reserve_snapshot_capacity(self, occupied_keys: int) -> None:
        """Grow the prepared-cache capacity to fit a fleet's working set.

        A fleet occupying ``occupied_keys`` distinct (grid cell, carrier)
        keys per tick would thrash an LRU smaller than that count; the
        capacity is raised (never shrunk) to twice the occupancy plus
        slack, so every occupied neighborhood stays resident between
        ticks.
        """
        needed = 2 * occupied_keys + 64
        if needed > self.snapshot_cache_size:
            self.snapshot_cache_size = needed

    def snapshot_cache_stats(self) -> dict:
        """Hit/miss counters and sizing of the prepared-neighborhood LRU."""
        hits, misses = self.snapshot_cache_hits, self.snapshot_cache_misses
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "hit_rate": (hits / total) if total else 0.0,
            "entries": len(self._snapshot_cache),
            "capacity": self.snapshot_cache_size,
        }

    def get_cell(self, cell_id: CellId) -> Cell:
        """Resolve a cell identity to its :class:`Cell`."""
        return self.plan.registry.get(cell_id)
