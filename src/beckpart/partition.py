"""Canonical integer partitions and their class indices.

A partition is the tuple of its strictly decreasing (part, multiplicity)
pairs, so every statistic of it is linear in the number of *distinct*
parts.  All objects are immutable and hashable; functions here are pure.

``PAIRS`` holds one tuple ``(p, m)`` for every p*m <= ``MAX_ENUM_N``, the
enumeration bound, so a pair of a partition of any n the stream reaches
is a table entry.  ``pair(p, m)`` returns that entry, or a new tuple
above the bound.  The constructor, the partition stream and Franklin's
maps take every pair they make from the table, so equal pairs are one
object instead of many short-lived copies.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple


class PartitionParseError(ValueError):
    """Raised when a partition string contains an invalid token."""


# The enumeration bound, against accidental combinatorial explosion
# (p(120) ~ 1.8e9), and so the pair table's bound.
MAX_ENUM_N = 120

# PAIRS[p][m] is (p, m) for 1 <= p and 1 <= m <= MAX_ENUM_N // p; index 0
# of every row, and row 0, hold no pair.
PAIRS = ((),) + tuple(
    (None,) + tuple((p, m) for m in range(1, MAX_ENUM_N // p + 1))
    for p in range(1, MAX_ENUM_N + 1))


def pair(part: int, mult: int) -> tuple[int, int]:
    """The table's ``(part, mult)`` for positive ints with part*mult <=
    ``MAX_ENUM_N``, else a new tuple."""
    return PAIRS[part][mult] if part * mult <= MAX_ENUM_N else (part, mult)


def _canonical_pairs(pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    acc: dict[int, int] = {}
    for part, mult in pairs:
        if type(part) is not int or type(mult) is not int:
            raise ValueError("part and multiplicity must be integers, "
                             f"got ({part!r}, {mult!r})")
        if part <= 0:
            raise ValueError(f"part must be positive, got {part}")
        if mult <= 0:
            raise ValueError(f"multiplicity must be positive, got {mult}")
        acc[part] = acc.get(part, 0) + mult
    return [pair(p, acc[p]) for p in sorted(acc, reverse=True)]


class Partition(tuple):
    """A partition of a non-negative integer: the tuple of its (part, mult)
    pairs, parts strictly decreasing and all multiplicities >= 1.  The
    empty tuple is the unique partition of 0.  Equality, hashing, order,
    pickling and copying are the tuple's, so ``lam == lam.pairs``."""

    __slots__ = ()

    def __new__(cls, pairs: Iterable[tuple[int, int]] = ()):
        return tuple.__new__(cls, _canonical_pairs(pairs))

    pairs = property(tuple, doc="The (part, mult) pairs as a plain tuple.")

    @property
    def size(self) -> int:
        """The integer partitioned: the sum of all parts."""
        return sum(p * m for p, m in self)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse comma-separated ``part`` or ``part^mult`` tokens.

        Tokens may appear in any order; multiplicities accumulate.  The
        empty string parses to the empty partition.
        """
        text = text.strip()
        if not text:
            return cls()
        pairs = []
        for token in text.split(","):
            tok = token.strip()
            part_s, sep, mult_s = tok.partition("^")
            try:
                part = int(part_s)
                mult = int(mult_s) if sep else 1
            except ValueError:
                raise PartitionParseError(f"invalid token {tok!r}") from None
            if part <= 0 or mult <= 0:
                raise PartitionParseError(f"invalid token {tok!r}")
            pairs.append((part, mult))
        return cls(pairs)

    def render(self) -> str:
        """Canonical text form: decreasing parts, ``^mult`` for mult >= 2."""
        return ",".join(f"{p}^{m}" if m > 1 else str(p) for p, m in self)

    def union(self, other: "Partition") -> "Partition":
        """Multiset union: all parts of both partitions."""
        return Partition(self + other)

    def __repr__(self) -> str:
        return f"Partition({self.render()!r})"

    def __str__(self) -> str:
        return self.render()


def from_canonical(pairs: list[tuple[int, int]]) -> Partition:
    """Trusted constructor: copy canonical ``pairs`` (a list, or any
    sequence) into a ``Partition`` without checking them."""
    return tuple.__new__(Partition, pairs)


class ClassIndex(NamedTuple):
    """Class indices of a partition for a fixed modulus r."""

    j_div: int  # distinct part values divisible by r
    j_rep: int  # distinct part values with multiplicity >= r


def classify(lam: Partition, r: int) -> ClassIndex:
    """Count distinct parts divisible by r, and distinct parts repeated >= r times."""
    if r < 2:
        raise ValueError(f"modulus r must be >= 2, got {r}")
    j_div = sum(1 for p, _ in lam if p % r == 0)
    j_rep = sum(1 for _, m in lam if m >= r)
    return ClassIndex(j_div, j_rep)
