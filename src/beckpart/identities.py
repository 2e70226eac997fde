"""Aggregate class statistics by one dynamic program over part values.

The totals come from one dynamic program over part values, run over the
part sets of an Euler pair of order r; the unrestricted classes are the
pair S1 = all positive integers, S2 = the non-multiples of r.  Every
aggregated statistic is a sum over the distinct parts of a partition, so
giving part p multiplicity m in each partition of n - p*m adds (number of
those partitions) x (that part's contribution) to every total of n.
Adding the allowed part values one at a time fills the totals of every
n <= N in a single pass: a run of multiplicities along which that
contribution is affine in m is one running sum over n, and every class j
that can be non-empty sits in one packed row integer.  The program works from the class
definitions alone; the q-series module reproduces the same numbers by a
different route and is deliberately not used here.

A command builds ``class_totals(r, n_max)`` once per r and indexes it
by n; no table is kept between calls.  ``verify`` checks the statements
of ``theorems`` on those tables.

The left side of ``diff3`` sums |O_1(n - r*w)| over index tuples (m, k),
m strictly increasing in S1 and k positive, of weight w = sum m_i*k_i.
Its generating function is |O_1|(q) times O's marked factors, so it is
one more run of the program: from |O_1| as class 0, over the marked part
values r*S1.  The table keeps its class sizes as ``o1_tuples``.
"""

from __future__ import annotations

import math
import sys
from typing import Iterable, Iterator

from .theorems import THEOREM_IDS, ClassTotals, VerificationRecord, check

# The largest n of a totals table, and so of every command.
MAX_N = 120


def _j_cap(r: int, n_max: int) -> int:
    """The largest j whose class can be non-empty at n <= n_max: its j
    marked distinct parts weigh at least r*(1 + ... + j)."""
    return (math.isqrt(8 * (n_max // r) + 1) - 1) // 2


def _class_dp(n_max: int, j_max: int, width: int, start: list[int],
              groups: list[tuple[list, list[int]]]
              ) -> list[dict[int, list[int]]]:
    """rows[n][j] = [size, *sums] over the partitions of n into the given
    part values with exactly j marked distinct parts, for n <= n_max and
    j <= j_max, class 0 of n starting at size start[n] ([1, 0, ...]: the
    empty partition); j is absent when there are none.  ``groups`` pairs
    runs of multiplicities with the part values that share them, in the
    order the values are added; values above n_max are skipped.  A run
    (m0, k, mark, b, a) is the multiplicities m = m0 + k*i, i >= 0 (m0
    alone if k = 0, else m0 >= k), each adding the lanes b + i*a ({lane:
    coeff}), and 1 to j if marked.  Over the rows without p, S[x] =
    row[x] + S[x - k*p] and W[x] = size(S[x - k*p]) + W[x - k*p]; the run
    adds S[x] + size(S[x])*b + W[x]*a to row x + p*m0, a class up if marked.

    A row is one int, lane i of class j in bits [64*(j*width + i), ...):
    a mark is a shift by one block, and the size lanes times a vector in
    one block add to every j at once.  Every term is non-negative and sums
    into one total of some n <= n_max, at most max(1, n*p(n)), which is
    below 2**64 for every n <= 326 and not at 327, so no lane carries into
    the next up to MAX_N; tests/test_identities.py's
    test_64_bit_dp_lanes_fit_every_total_bound_to_326 pins 326 and the cap.
    The o1_tuples run counts pairs (index tuple, lambda in O_1), each fixed
    by mu = lambda + the tuple's parts and one of mu's parts in r*S1 (the
    paper's adjoin map), so at most sum of l(mu) over mu |- n <= n*p(n).
    """
    block = 64 * width
    every_j = (1 << (j_max + 1) * block) - 1
    sizes = sum(0xFFFF_FFFF_FFFF_FFFF << j * block for j in range(j_max + 1))

    def pack(lanes: dict[int, int]) -> int:
        return sum(c << 64 * i for i, c in lanes.items())
    rows = start[:]
    for runs, values in groups:
        runs = [(m0, k, mark, pack(b), pack(a)) for m0, k, mark, b, a in runs]
        for p in (p for p in values if p <= n_max):
            unmarked, marked = rows[:], [0] * (n_max + 1 - p)  # n >= p
            sums = {}  # step -> S, size(S), W up to n_max - max(p, step)
            for m0, k, mark, b, a in runs:
                lo, step = m0 * p, k * p
                if lo > n_max:
                    continue
                if step not in sums:
                    run = rows[:n_max + 1 - max(p, step)]
                    weights = [0] * len(run)
                    for x in range(step, len(run)) if step else ():
                        below = run[x - step]
                        weights[x] = (below & sizes) + weights[x - step]
                        run[x] += below
                    sums[step] = run, [s & sizes for s in run], weights
                run, size, weights = sums[step]
                out, at = (marked, lo - p) if mark else (unmarked, lo)
                out[at:] = [o + s + z * b + w * a for o, s, z, w
                            in zip(out[at:], run, size, weights)]
            if any(marked):
                unmarked[p:] = [u + (m << block & every_j)
                                for u, m in zip(unmarked[p:], marked)]
            rows = unmarked
    nbytes = 8 * width * (j_max + 1)
    return [{j: v[j * width:(j + 1) * width] for j in range(j_max + 1)
             if v[j * width]}
            for v in (memoryview(row.to_bytes(nbytes, sys.byteorder))
                      .cast("Q").tolist() for row in rows)]


def totals_table(r: int, n_max: int, s1: Iterable[int], s2: Iterable[int]
                 ) -> list[ClassTotals]:
    """ClassTotals of every n <= n_max for the part sets S1 and S2 of an
    Euler pair of order r; members above n_max are never used.  Those sets
    are subsets of the unrestricted ones, so the classes above ``_j_cap``
    are empty here too."""
    if n_max < 0:
        raise ValueError(f"n must be non-negative, got {n_max}")
    if n_max > MAX_N:
        raise ValueError(f"n={n_max} exceeds the totals bound {MAX_N}")
    # parts and multiplicities <= n_max have residues below res; the lanes
    # of residues res..r-1 would stay 0, so those are padded on at the end
    top, res = _j_cap(r, n_max), min(r, n_max + 1)
    s1, pad = [s for s in s1 if s <= n_max], [0] * (r - res)
    marked = {r * s for s in s1}
    # O lanes: 1 ell_bar, 2 + t ell_mod[t]; m copies of p add m to
    # ell_mod[p % r], marked when p is in r*S1.  Unmarked parts go first,
    # on rows of class 0 alone.
    o_parts, empty = marked.union(s2), [1] + [0] * n_max
    o_rows = _class_dp(n_max, top, 2 + res, empty, [
        ([(1, 1, mark, {1: 1, 2 + t: 1}, {2 + t: 1})],
         sorted(p for p in o_parts if p % r == t and (p in marked) == mark))
        for mark in (False, True) for t in range(res)])
    # D lanes: 1 ell, 2 multiplicity in [r+1, 2r-1], 3 + t residual
    # multiplicity m % r >= t.  m = r*i + d is marked when i >= 1; i = 0
    # is one term per d, so is the window (i = 1, d >= 1), and the rest
    # are chains of step r.  Largest parts first keeps the rows short.
    d_runs = [(m0, k, m0 >= r, {1: m0, 2: int(r < m0 < 2 * r),
                                **{3 + t: 1 for t in range(m0 % r + 1)}},
               {1: r} if k else {}) for m0, k in
              [(m, 0) for m in range(1, 2 * r) if m != r] + [(r, r)]
              + [(2 * r + d, r) for d in range(1, r)] if m0 <= n_max]
    d_rows = _class_dp(n_max, top, 3 + res, empty, [(d_runs, s1[::-1])])
    # diff3's left side: from |O_1| as class 0, every r*m of r*S1 marked
    o1_rows = _class_dp(n_max, top, 1, [row.get(1, [0])[0] for row in o_rows],
                        [([(1, 1, True, {}, {})], sorted(marked))])
    tables = []
    for o_row, d_row, o1 in zip(o_rows, d_rows, o1_rows):
        o, d = o_row.items(), d_row.items()
        tables.append(ClassTotals(  # each field one lane, in lane order
            {j: v[0] for j, v in o}, {j: v[1] for j, v in o},
            {j: v[2:] + pad for j, v in o}, {j: v[0] for j, v in d},
            {j: v[1] for j, v in d}, {j: v[2] for j, v in d},
            {j: v[3:] + pad for j, v in d}, {j: v[0] for j, v in o1.items()}))
    return tables


def class_totals(r: int, n_max: int) -> list[ClassTotals]:
    """``totals_table`` on S1 = 1..n_max and S2 its non-multiples of r."""
    if r < 2:
        raise ValueError(f"modulus r must be >= 2, got {r}")
    return totals_table(r, n_max, range(1, n_max + 1),
                        [p for p in range(1, n_max + 1) if p % r])


def verify(theorem: str, n_values: Iterable[int], r_values: Iterable[int],
           j_max: int, t: int | str = "all") -> Iterator[VerificationRecord]:
    """All instances of one theorem, or of each of ``THEOREM_IDS`` in turn
    for "all", over a parameter grid: ``check`` on the unrestricted
    classes' ``class_totals``, an iterator whose arguments are checked on
    the call."""
    if theorem not in THEOREM_IDS and theorem != "all":
        raise ValueError(f"unknown theorem {theorem!r}; "
                         f"choose from {', '.join(THEOREM_IDS)}")
    names = THEOREM_IDS if theorem == "all" else (theorem,)
    return check(zip(names, names), "", class_totals, n_values, r_values,
                 j_max, t)
