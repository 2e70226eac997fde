"""Canonical integer partitions and their class indices.

A partition is stored as strictly decreasing (part, multiplicity) pairs, so
every statistic of it is linear in the number of *distinct* parts.  All
objects are immutable and hashable; functions here are pure.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple


class PartitionParseError(ValueError):
    """Raised when a partition string contains an invalid token."""


def _canonical_pairs(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    acc: dict[int, int] = {}
    for part, mult in pairs:
        if part <= 0:
            raise ValueError(f"part must be positive, got {part}")
        if mult <= 0:
            raise ValueError(f"multiplicity must be positive, got {mult}")
        acc[part] = acc.get(part, 0) + mult
    return tuple(sorted(acc.items(), reverse=True))


class Partition:
    """A partition of a non-negative integer.

    ``pairs`` is a tuple of (part, mult) with parts strictly decreasing and
    all multiplicities >= 1.  The empty tuple is the unique partition of 0.
    """

    __slots__ = ("pairs",)

    pairs: tuple[tuple[int, int], ...]

    def __init__(self, pairs: Iterable[tuple[int, int]] = ()):
        object.__setattr__(self, "pairs", _canonical_pairs(pairs))

    @property
    def size(self) -> int:
        """The integer partitioned: the sum of all parts."""
        return sum(p * m for p, m in self.pairs)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

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
        return ",".join(
            f"{p}^{m}" if m > 1 else str(p) for p, m in self.pairs
        )

    def union(self, other: "Partition") -> "Partition":
        """Multiset union: all parts of both partitions."""
        return Partition(self.pairs + other.pairs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __repr__(self) -> str:
        return f"Partition({self.render()!r})"

    def __str__(self) -> str:
        return self.render()


_set_pairs = Partition.pairs.__set__


def from_canonical(pairs: tuple[tuple[int, int], ...]) -> Partition:
    """Trusted constructor: wrap canonical ``pairs`` without checking them."""
    lam = object.__new__(Partition)
    _set_pairs(lam, pairs)
    return lam


class ClassIndex(NamedTuple):
    """Class indices of a partition for a fixed modulus r."""

    j_div: int  # distinct part values divisible by r
    j_rep: int  # distinct part values with multiplicity >= r


def classify(lam: Partition, r: int) -> ClassIndex:
    """Count distinct parts divisible by r, and distinct parts repeated >= r times."""
    if r < 2:
        raise ValueError(f"modulus r must be >= 2, got {r}")
    j_div = sum(1 for p, _ in lam.pairs if p % r == 0)
    j_rep = sum(1 for _, m in lam.pairs if m >= r)
    return ClassIndex(j_div, j_rep)
