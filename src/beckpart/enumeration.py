"""The plain partition stream.

The class-constrained enumerators built on it are test oracles and live
in ``tests/helpers.py``.
"""

from __future__ import annotations

from typing import Iterator

from .partition import Partition, from_canonical

# Guard against accidental combinatorial explosion: p(120) ~ 1.8e9.
MAX_ENUM_N = 120


def partitions_of(n: int) -> Iterator[Partition]:
    """Yield every partition of n once, in decreasing lexicographic order."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n > MAX_ENUM_N:
        raise ValueError(f"n={n} exceeds enumeration bound {MAX_ENUM_N}")
    yield from _gen_plain(n, n, ())


def _gen_plain(remaining: int, max_part: int,
               acc: tuple[tuple[int, int], ...]) -> Iterator[Partition]:
    if remaining == 0:
        yield from_canonical(acc)
        return
    for part in range(min(max_part, remaining), 1, -1):
        for mult in range(remaining // part, 0, -1):
            yield from _gen_plain(remaining - part * mult, part - 1,
                                  acc + ((part, mult),))
    if max_part >= 1:
        yield from_canonical(acc + ((1, remaining),))
