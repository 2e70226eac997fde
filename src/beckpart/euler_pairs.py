"""Euler pairs of order r: the same identity family over restricted part
sets.

S1 is materialized as an explicit finite window so membership and the
closure condition (r*S1 inside S1, S2 = S1 minus r*S1) are decidable.  A
pair failing the closure condition can still be constructed, which is how
the counterexample search is exercised; the theorem verifier refuses such
pairs.  The restricted-class totals are ``identities.totals_table`` on
the pair's S1 and S2, the builder of the unrestricted totals, so a pair's
record is a ``ClassTotals`` with every field: one table per pair holds
every n up to the largest asked for.  Items 1-4 are the statements of
``beck_cumulative``, ``beck_main``, ``distinct_cumulative`` and
``distinct_parts`` from ``identities``, evaluated on that record: the
unrestricted theorems are the pair S1 = all positive integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .identities import (STATEMENTS, ClassTotals, TotalsCache,
                         VerificationRecord, _check_family, _check_j,
                         _class_size, _record, totals_table)

EULER_ITEM_IDS = ("euler_item1", "euler_item2", "euler_item3", "euler_item4")
# item k is the unrestricted theorem ITEM_THEOREMS[k - 1] over the pair
ITEM_THEOREMS = ("beck_cumulative", "beck_main", "distinct_cumulative",
                 "distinct_parts")


@dataclass(frozen=True)
class EulerPair:
    """Modulus r with explicit part sets realized up to ``bound``."""

    r: int
    bound: int
    s1: tuple[int, ...]
    s2: tuple[int, ...]
    subbarao_ok: bool


def make_euler_pair(r: int, s1_members: Iterable[int], bound: int,
                    s2_override: Iterable[int] | None = None) -> EulerPair:
    """Build a pair; s2 defaults to s1 minus r*s1 within the bound.

    ``subbarao_ok`` records whether r*s1 stays inside s1 on the window and
    s2 is exactly the derived set.
    """
    if r < 2:
        raise ValueError(f"modulus r must be >= 2, got {r}")
    if bound < 0:
        raise ValueError(f"bound must be non-negative, got {bound}")
    s1 = sorted(set(s1_members))
    for s in s1:
        if s <= 0:
            raise ValueError(f"s1 member {s} must be positive")
        if s > bound:
            raise ValueError(f"s1 member {s} exceeds bound {bound}")
    s1_set = set(s1)
    # s1 \ r*s1: drop members expressible as r times another member
    derived_s2 = tuple(s for s in s1 if not (s % r == 0 and s // r in s1_set))
    if s2_override is None:
        s2 = derived_s2
    else:
        s2 = tuple(sorted(set(s2_override)))
        for s in s2:
            if s <= 0:
                raise ValueError(f"s2 member {s} must be positive")
            if s > bound:
                raise ValueError(f"s2 member {s} exceeds bound {bound}")
    closure = all(r * s in s1_set for s in s1 if r * s <= bound)
    return EulerPair(r, bound, tuple(s1), s2,
                     subbarao_ok=closure and s2 == derived_s2)


def _pair_table(pair: EulerPair, n_max: int) -> list[ClassTotals]:
    """The pair's ClassTotals of every n <= n_max."""
    return totals_table(pair.r, n_max, pair.s1, pair.s2)


def _tilde_key(pair: EulerPair, n: int) -> tuple[EulerPair, int]:
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n > pair.bound:
        raise ValueError(f"n={n} exceeds the realized window {pair.bound}")
    return pair, n


# tilde_totals(pair, n) -> ClassTotals: one table per pair, at most
# TotalsCache.MAXSIZE pairs
tilde_totals = TotalsCache(_pair_table, _tilde_key)


def tilde_count(n: int, pair: EulerPair, j: int, family: str,
                mode: str = "exact") -> int:
    """Size of the restricted class: family 'O' counts partitions with
    exactly j distinct parts from r*S1 and all other parts from S2;
    family 'D' counts partitions with parts in S1 and exactly j distinct
    parts repeated >= r times."""
    _check_j(j)
    _check_family(family)
    return _class_size(tilde_totals(pair, n), family, j, mode)


def verify_tilde_instance(item: int, pair: EulerPair, n: int,
                          j: int) -> VerificationRecord:
    """One instance of the restricted-identity family: item k is the
    statement of theorem ``ITEM_THEOREMS[k - 1]`` evaluated on the pair's
    totals, with its classes labelled O~, D~ and T~."""
    if item not in (1, 2, 3, 4):
        raise ValueError(f"item must be in 1..4, got {item}")
    if not pair.subbarao_ok:
        raise ValueError(
            "pair fails the closure condition (r*S1 inside S1 and "
            "S2 = S1 minus r*S1); the identities are not asserted for it")
    _check_j(j)
    statement, mode = STATEMENTS[ITEM_THEOREMS[item - 1]]
    lhs, rhs, note = statement(tilde_totals(pair, n), pair.r, j, mode, "~")
    return _record(EULER_ITEM_IDS[item - 1], n, pair.r, j, None, lhs, rhs,
                   note)


def verify_tilde(item: int, pair: EulerPair, n_values: Iterable[int],
                 j_max: int) -> list[VerificationRecord]:
    """All instances of one item over the grid, in (n, j) order."""
    ns = sorted(set(n_values))
    if ns and ns[-1] >= 0:
        # the pair's table is built once, at the largest n in the window
        tilde_totals(pair, min(ns[-1], pair.bound))
    records = []
    for n in ns:
        for j in range(j_max + 1):
            records.append(verify_tilde_instance(item, pair, n, j))
    return records


def subbarao_counterexample(pair: EulerPair, n_max: int
                            ) -> tuple[int, int, int] | None:
    """Search the window for an n where the j=0 restricted classes differ.

    Returns (n, o_count, d_count) for the first witness, or None if the
    window is inconclusive.  A None on a pair with ``subbarao_ok`` False
    does not certify anything: the finite window may simply be too small.
    """
    top = min(n_max, pair.bound)
    if top >= 0:
        tilde_totals(pair, top)  # one table build for the whole search
    for n in range(0, top + 1):
        o = tilde_count(n, pair, 0, "O")
        d = tilde_count(n, pair, 0, "D")
        if o != d:
            return (n, o, d)
    return None
