"""Tests for the work-unit execution backends."""

import time
from dataclasses import dataclass

import pytest

from repro.pipeline import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    WorkUnit,
    clear_process_cache,
    default_workers,
    process_cached,
    resolve_backend,
)


@dataclass(frozen=True)
class SquareUnit(WorkUnit):
    """Toy unit: picklable, deterministic, order-revealing."""

    unit_id: int
    value: int

    def run(self) -> int:
        return self.value * self.value


@dataclass(frozen=True)
class SlowFirstUnit(WorkUnit):
    """Unit 0 finishes last, exercising the reorder buffer."""

    unit_id: int

    def run(self) -> int:
        if self.unit_id == 0:
            time.sleep(0.2)
        return self.unit_id


@dataclass(frozen=True)
class FailingUnit(WorkUnit):
    unit_id: int

    def run(self) -> int:
        raise RuntimeError(f"unit {self.unit_id} failed")


def test_serial_backend_orders_by_unit_id():
    units = [SquareUnit(unit_id=i, value=i) for i in (3, 0, 2, 1)]
    assert list(SerialBackend().run(units)) == [0, 1, 4, 9]


def test_serial_backend_streams():
    units = [SquareUnit(unit_id=i, value=i) for i in range(3)]
    stream = SerialBackend().run(units)
    assert next(stream) == 0  # results available before full consumption


def test_process_pool_matches_serial():
    units = [SquareUnit(unit_id=i, value=i + 1) for i in range(20)]
    serial = list(SerialBackend().run(units))
    pooled = list(ProcessPoolBackend(workers=2).run(units))
    assert pooled == serial


@pytest.mark.parametrize("chunk_size", [1, 3, 7, 100])
def test_process_pool_chunking_preserves_order(chunk_size):
    units = [SquareUnit(unit_id=i, value=i) for i in range(11)]
    backend = ProcessPoolBackend(workers=2, chunk_size=chunk_size)
    assert list(backend.run(units)) == [i * i for i in range(11)]


def test_process_pool_reorders_out_of_order_completions():
    units = [SlowFirstUnit(unit_id=i) for i in range(6)]
    backend = ProcessPoolBackend(workers=2, chunk_size=1)
    assert list(backend.run(units)) == list(range(6))


def test_process_pool_empty_batch():
    assert list(ProcessPoolBackend(workers=2).run([])) == []


def test_process_pool_propagates_unit_errors():
    units = [FailingUnit(unit_id=0)]
    with pytest.raises(RuntimeError, match="unit 0 failed"):
        list(ProcessPoolBackend(workers=2).run(units))


def test_process_pool_rejects_bad_chunk_size():
    with pytest.raises(ValueError):
        ProcessPoolBackend(workers=2, chunk_size=0)


def test_resolve_backend():
    assert isinstance(resolve_backend(), SerialBackend)
    assert isinstance(resolve_backend(1), SerialBackend)
    pool = resolve_backend(3)
    assert isinstance(pool, ProcessPoolBackend)
    assert pool.workers == 3
    explicit = SerialBackend()
    assert resolve_backend(8, backend=explicit) is explicit
    # Both backend classes satisfy the protocol.
    assert isinstance(SerialBackend(), ExecutionBackend)
    assert isinstance(pool, ExecutionBackend)


def test_default_workers_reads_env(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert default_workers() == 1
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert default_workers() == 3


@pytest.mark.parametrize("raw", ["abc", "0", "-2", "2.5", ""])
def test_default_workers_rejects_bad_env(monkeypatch, raw):
    monkeypatch.setenv("REPRO_WORKERS", raw)
    with pytest.raises(ValueError, match=f"REPRO_WORKERS.*{raw!r}"):
        default_workers()


def test_process_cached_builds_once():
    clear_process_cache()
    calls = []

    def factory():
        calls.append(1)
        return object()

    first = process_cached(("test-key", 1), factory)
    second = process_cached(("test-key", 1), factory)
    assert first is second
    assert len(calls) == 1
    clear_process_cache()
    third = process_cached(("test-key", 1), factory)
    assert third is not first
    clear_process_cache()
