"""Euler pairs of order r: the same identity family over restricted part
sets.

S1 is materialized as an explicit finite window so membership and the
closure condition (r*S1 inside S1, S2 = S1 minus r*S1) are decidable.  A
pair failing the closure condition can still be constructed, which is how
the counterexample search is exercised; the theorem verifier refuses such
pairs.  The restricted-class totals are ``identities.totals_table`` on
the pair's S1 and S2, the builder of the unrestricted totals, so a pair's
record is a ``ClassTotals`` with every field, read by the same
statements.  Items 1-4 are the ``STATEMENTS`` of ``beck_cumulative``,
``beck_main``, ``distinct_cumulative`` and ``distinct_parts``, checked
on it by the theorems' own loop, ``theorems.check``, with the classes
marked ~: the unrestricted theorems are the pair S1 = all positive integers.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .identities import totals_table
from .theorems import ClassTotals, VerificationRecord, check

EULER_ITEM_IDS = ("euler_item1", "euler_item2", "euler_item3", "euler_item4")
# item k is the unrestricted theorem ITEM_THEOREMS[k - 1] over the pair
ITEM_THEOREMS = ("beck_cumulative", "beck_main", "distinct_cumulative",
                 "distinct_parts")


class EulerPair(NamedTuple):
    """Modulus r with explicit part sets realized up to ``bound``."""

    r: int
    bound: int
    s1: tuple[int, ...]
    s2: tuple[int, ...]

    @property
    def subbarao_ok(self) -> bool:
        """The closure condition, read from the sets: r*S1 stays inside S1
        on the window, and S2 is exactly S1 minus r*S1."""
        r, bound, s1, s2 = self
        return s2 == _without_r_multiples(r, s1) and set(s1).issuperset(
            r * s for s in s1 if r * s <= bound)


def _without_r_multiples(r: int, s1: tuple[int, ...]) -> tuple[int, ...]:
    """S1 minus r*S1: the members that are not r times another member."""
    members = set(s1)
    return tuple(s for s in s1 if not (s % r == 0 and s // r in members))


def _members(name: str, given: Iterable[int], bound: int) -> tuple[int, ...]:
    """The distinct members given, in increasing order, each in 1..bound."""
    ordered = tuple(sorted(set(given)))
    for s in ordered:
        if s <= 0:
            raise ValueError(f"{name} member {s} must be positive")
        if s > bound:
            raise ValueError(f"{name} member {s} exceeds bound {bound}")
    return ordered


def make_euler_pair(r: int, s1_members: Iterable[int], bound: int,
                    s2_override: Iterable[int] | None = None) -> EulerPair:
    """Build a pair, closed or not (its ``subbarao_ok`` says); s2
    defaults to s1 minus r*s1 within the bound."""
    if r < 2:
        raise ValueError(f"modulus r must be >= 2, got {r}")
    if bound < 0:
        raise ValueError(f"bound must be non-negative, got {bound}")
    s1 = _members("s1", s1_members, bound)
    s2 = (_without_r_multiples(r, s1) if s2_override is None
          else _members("s2", s2_override, bound))
    return EulerPair(r, bound, s1, s2)


def tilde_totals(pair: EulerPair, n_max: int) -> list[ClassTotals]:
    """The pair's ClassTotals of every n <= n_max: ``totals_table`` on its
    S1 and S2, built on each call and indexed by n."""
    if n_max > pair.bound:
        raise ValueError(f"n={n_max} exceeds the realized window {pair.bound}")
    return totals_table(pair.r, n_max, pair.s1, pair.s2)


def verify_tilde(item: int | str, pair: EulerPair, n_values: Iterable[int],
                 j_max: int) -> Iterator[VerificationRecord]:
    """All instances of item k, or of items 1-4 in turn for "all", over the
    grid in (n, j) order: ``check`` of theorem ``ITEM_THEOREMS[k - 1]`` on
    the pair's totals, built once for every item, with its classes
    labelled O~, D~ and T~.  An iterator; the arguments are checked and
    the table built on the call."""
    if item not in ("all", 1, 2, 3, 4):
        raise ValueError(f"item must be in 1..4, got {item}")
    if not pair.subbarao_ok:
        raise ValueError(
            "pair fails the closure condition (r*S1 inside S1 and "
            "S2 = S1 minus r*S1); the identities are not asserted for it")
    items = list(zip(EULER_ITEM_IDS, ITEM_THEOREMS))
    return check(items if item == "all" else [items[item - 1]], "~",
                 lambda r, n: tilde_totals(pair, n), n_values, (pair.r,),
                 j_max, None)


def subbarao_counterexample(pair: EulerPair, n_max: int
                            ) -> tuple[int, int, int] | None:
    """Search the window for an n where the j=0 restricted classes differ.

    Returns (n, o_count, d_count) for the first witness, or None if the
    window is inconclusive.  A None on a pair with ``subbarao_ok`` False
    does not certify anything: the finite window may simply be too small.
    """
    top = min(n_max, pair.bound)
    for n, tot in enumerate(tilde_totals(pair, top) if top >= 0 else []):
        o, d = tot.o_count.get(0, 0), tot.d_count.get(0, 0)
        if o != d:
            return (n, o, d)
    return None
