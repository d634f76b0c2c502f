"""JSONL-backed dataset stores with the filters the analyses need.

The stores are deliberately simple append-and-scan containers: the
paper's analyses are all full-population statistics (distributions,
diversity indices, CDFs), so the useful operations are filtering and
grouping, not point lookup.  Two concessions to scale:

* ``ConfigSampleStore`` keeps lazy per-attribute indexes (parameter,
  carrier, RAT) so the hot reads (``for_parameter``, ``for_carrier``,
  ``for_rat``, ``unique_values``, ``samples_per_cell``, ``parameters``)
  stop rescanning millions of rows on every call.  Each index maps an
  attribute value to its samples in store order; all are dropped on
  any mutation and each is rebuilt on its next read.
* ``ingest`` consumes an *iterator* of row batches, which is how the
  pipelined builders stream a harvest in without ever materializing
  the full archive, and ``save`` writes atomically (temp file +
  ``os.replace``) so a crashed build never leaves a torn JSONL behind.
"""

from __future__ import annotations

import os
import tempfile
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.datasets.records import ConfigSample, HandoffInstance


def _atomic_write_jsonl(path: str | Path, records: Iterable) -> None:
    """Write ``record.to_json()`` lines to ``path`` atomically.

    The temp file lives in the target's directory so ``os.replace`` is
    a same-filesystem rename: readers see either the old file or the
    complete new one, never a partial write.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            for record in records:
                f.write(record.to_json())
                f.write("\n")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class ConfigSampleStore:
    """All configuration samples of one D2 build."""

    def __init__(self, samples: Iterable[ConfigSample] = ()):
        self._samples: list[ConfigSample] = list(samples)
        self._indexes: dict[str, dict[object, list[ConfigSample]]] = {}

    def add(self, sample: ConfigSample) -> None:
        self._samples.append(sample)
        self._indexes = {}

    def extend(self, samples: Iterable[ConfigSample]) -> None:
        # Invalidate in a finally: ``list.extend`` keeps the elements it
        # consumed before a mid-iteration exception, so bailing out
        # before the invalidation would leave stale indexes over a
        # mutated sample list.
        try:
            self._samples.extend(samples)
        finally:
            self._indexes = {}

    def ingest(self, batches: Iterable[Iterable[ConfigSample]]) -> int:
        """Stream batches of samples in (one batch per work unit).

        Returns the number of samples added.  The batches iterator is
        consumed lazily, so a pipelined build's harvest flows straight
        into the store as units complete.
        """
        before = len(self._samples)
        try:
            for batch in batches:
                self._samples.extend(batch)
        finally:
            self._indexes = {}
        return len(self._samples) - before

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self) -> Iterator[ConfigSample]:
        return iter(self._samples)

    def _index(self, attribute: str) -> dict[object, list[ConfigSample]]:
        """Samples grouped by one attribute, in store order (rebuilt
        after mutations)."""
        index = self._indexes.get(attribute)
        if index is None:
            groups: dict[object, list[ConfigSample]] = defaultdict(list)
            for sample in self._samples:
                groups[getattr(sample, attribute)].append(sample)
            index = self._indexes[attribute] = dict(groups)
        return index

    def filter(self, predicate: Callable[[ConfigSample], bool]) -> "ConfigSampleStore":
        """A new store holding only samples matching ``predicate``."""
        return ConfigSampleStore(s for s in self._samples if predicate(s))

    def for_carrier(self, carrier: str) -> "ConfigSampleStore":
        return ConfigSampleStore(self._index("carrier").get(carrier, ()))

    def for_rat(self, rat: str) -> "ConfigSampleStore":
        return ConfigSampleStore(self._index("rat").get(rat, ()))

    def for_parameter(self, parameter: str) -> "ConfigSampleStore":
        return ConfigSampleStore(self._index("parameter").get(parameter, ()))

    def for_city(self, city: str) -> "ConfigSampleStore":
        return self.filter(lambda s: s.city == city)

    def unique_cells(self) -> set[tuple[str, int]]:
        """(carrier, gci) pairs present in the store."""
        return {(s.carrier, s.gci) for s in self._samples}

    def parameters(self) -> list[str]:
        """Distinct parameter names, sorted."""
        return sorted(self._index("parameter"))

    def unique_values(
        self, parameter: str, deduplicate_cells: bool = True
    ) -> list[object]:
        """Observed values of one parameter.

        With ``deduplicate_cells`` (the paper's "we consider unique
        samples, so as not to tip distributions in favor of cells with
        many same samples"), each (cell, value) pair counts once.
        """
        samples = self._index("parameter").get(parameter, ())
        if deduplicate_cells:
            seen = {(s.carrier, s.gci, s.value_key): s.value_key for s in samples}
            return list(seen.values())
        return [s.value_key for s in samples]

    def group_by(
        self, key: Callable[[ConfigSample], object]
    ) -> dict[object, "ConfigSampleStore"]:
        """Partition into sub-stores by an arbitrary key function."""
        groups: dict[object, list[ConfigSample]] = defaultdict(list)
        for sample in self._samples:
            groups[key(sample)].append(sample)
        return {k: ConfigSampleStore(v) for k, v in sorted(groups.items(), key=lambda kv: str(kv[0]))}

    def samples_per_cell(self, parameter: str) -> dict[tuple[str, int], int]:
        """How many samples each cell contributed for one parameter."""
        counts: dict[tuple[str, int], int] = defaultdict(int)
        for s in self._index("parameter").get(parameter, ()):
            counts[(s.carrier, s.gci)] += 1
        return dict(counts)

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the store as JSONL (atomically: temp file + rename)."""
        _atomic_write_jsonl(path, self._samples)

    @classmethod
    def load(cls, path: str | Path) -> "ConfigSampleStore":
        """Read a store from JSONL."""
        store = cls()
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if line:
                    store.add(ConfigSample.from_json(line))
        return store


class HandoffInstanceStore:
    """All handoff instances of one D1 build."""

    def __init__(self, instances: Iterable[HandoffInstance] = ()):
        self._instances: list[HandoffInstance] = list(instances)

    def add(self, instance: HandoffInstance) -> None:
        self._instances.append(instance)

    def extend(self, instances: Iterable[HandoffInstance]) -> None:
        self._instances.extend(instances)

    def ingest(self, batches: Iterable[Iterable[HandoffInstance]]) -> int:
        """Stream batches of instances in (one batch per work unit)."""
        before = len(self._instances)
        for batch in batches:
            self._instances.extend(batch)
        return len(self._instances) - before

    def __len__(self) -> int:
        return len(self._instances)

    def __iter__(self) -> Iterator[HandoffInstance]:
        return iter(self._instances)

    def filter(
        self, predicate: Callable[[HandoffInstance], bool]
    ) -> "HandoffInstanceStore":
        return HandoffInstanceStore(i for i in self._instances if predicate(i))

    def active(self) -> "HandoffInstanceStore":
        return self.filter(lambda i: i.kind == "active")

    def idle(self) -> "HandoffInstanceStore":
        return self.filter(lambda i: i.kind == "idle")

    def for_carrier(self, carrier: str) -> "HandoffInstanceStore":
        return self.filter(lambda i: i.carrier == carrier)

    def for_event(self, event: str) -> "HandoffInstanceStore":
        return self.filter(lambda i: i.decisive_event == event)

    def save(self, path: str | Path) -> None:
        """Write the store as JSONL (atomically: temp file + rename)."""
        _atomic_write_jsonl(path, self._instances)

    @classmethod
    def load(cls, path: str | Path) -> "HandoffInstanceStore":
        store = cls()
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if line:
                    store.add(HandoffInstance.from_json(line))
        return store
