"""Small shared utilities."""

from __future__ import annotations

import zlib
from collections.abc import Hashable, Iterable


def stable_hash(value: str) -> int:
    """Process-stable 32-bit hash of a string.

    Python's built-in ``hash`` for strings is salted per interpreter
    process; anything feeding RNG seeds must use this instead, or
    dataset builds would differ run to run.
    """
    return zlib.crc32(value.encode("utf-8"))


#: A return to the previous cell within this window is a ping-pong.
PING_PONG_WINDOW_MS = 10_000


def count_ping_pong_hops(
    hops: Iterable[tuple[Hashable, Hashable, int]],
    window_ms: int | None = PING_PONG_WINDOW_MS,
) -> int:
    """A->B->A pairs in time-ordered ``(source, target, time_ms)`` hops.

    A hop counts when it undoes the hop before it (its source is that
    hop's target and its target that hop's source) at most
    ``window_ms`` later; ``window_ms=None`` counts every reversal.
    """
    count = 0
    previous = None
    for hop in hops:
        if (
            previous is not None
            and hop[0] == previous[1]
            and hop[1] == previous[0]
            and (window_ms is None or hop[2] - previous[2] <= window_ms)
        ):
            count += 1
        previous = hop
    return count
