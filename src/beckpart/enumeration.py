"""The plain partition stream.

``partitions_of`` walks the partitions of n in reverse lexicographic
order with one stack of (part, mult) pairs: the multiplicity form of
algorithm ZS1 of Zoghbi and Stojmenović.  Each step pops the ones, takes
one copy off the smallest part q >= 2 and refills the freed amount with
parts q - 1 and one remainder part: it replaces at most the last two
pairs with at most three, all taken from ``partition.PAIRS``.  The
class-constrained enumerators built on it are test oracles and live in
``tests/helpers.py``.
"""

from __future__ import annotations

from typing import Iterator

from .partition import MAX_ENUM_N, PAIRS, Partition, from_canonical


def partitions_of(n: int) -> Iterator[Partition]:
    """Yield every partition of n once, in decreasing lexicographic order."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n > MAX_ENUM_N:
        raise ValueError(f"n={n} exceeds enumeration bound {MAX_ENUM_N}")
    if n == 0:
        yield Partition()
        return
    stack = [PAIRS[n][1]]
    while True:
        yield from_canonical(stack)
        part, mult = stack.pop()
        ones = 0
        if part == 1:
            if not stack:
                return
            ones = mult
            part, mult = stack.pop()
        if mult > 1:
            stack.append(PAIRS[part][mult - 1])
        # refill part + ones with parts part - 1 and a smaller remainder;
        # the stack holds only parts >= part, so it stays decreasing
        mult, rest = divmod(part + ones, part - 1)
        stack.append(PAIRS[part - 1][mult])
        if rest:
            stack.append(PAIRS[rest][1])
