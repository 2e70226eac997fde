"""Aggregate class statistics, and theorem verification.

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
by n; no table is kept between calls.  ``STATS`` reads each statistic
from a record and ``STATEMENTS`` states each theorem on one (of an Euler
pair too).  ``check`` is the one grid loop that makes each instance a
``VerificationRecord``, from any table builder, as its iterator is read:
``verify`` passes it ``class_totals``, and ``euler_pairs.verify_tilde`` a
pair's totals.

The left side of ``diff3`` sums |O_1(n - r*w)| over index tuples (m, k),
m strictly increasing in S1 and k positive, of weight w = sum m_i*k_i.
Its generating function is |O_1|(q) times O's marked factors, so it is
one more run of the program: from |O_1| as class 0, over the marked part
values r*S1.  The table keeps its class sizes as ``o1_tuples``.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple

# The largest n of a totals table, and so of every command.
MAX_N = 120


class ClassTotals(NamedTuple):
    """Per-class totals for one n over the part sets of an Euler pair of
    order r: index j maps to the total over the non-empty exactly-j class of each family.  The O-class takes its parts
    from r*S1 and S2, j counting its distinct parts from r*S1; the D-class
    takes its parts from S1, j counting its distinct parts repeated at
    least r times.  ``o_parts_mod[j][t]`` counts O's parts congruent to t
    mod r, and ``d_depth[j][t]`` D's distinct parts with residual
    multiplicity >= t.  ``o1_tuples`` is diff3's left side: j maps to the
    sum of |O_1(n - r*w)| over the index j-tuples of weight w <= n/r,
    index parts from S1, present when that sum is non-zero."""

    o_count: dict[int, int]
    o_parts: dict[int, int]
    o_distinct: dict[int, int]
    d_count: dict[int, int]
    d_parts: dict[int, int]
    d_distinct: dict[int, int]
    d_window: dict[int, int]
    d_nonresid: dict[int, int]
    o_parts_mod: dict[int, list[int]]
    d_depth: dict[int, list[int]]
    o1_tuples: dict[int, int]


def _lane_bits(n_max: int) -> int:
    """Unsigned lane width of the DP rows up to n_max: the bit length of
    the p(n) bound at n_max plus n_max.bit_length() bounds every n*p(n),
    as p increases, and one more bit holds the size 1 at n = 0."""
    return (math.ceil(math.pi * math.sqrt(2 * n_max / 3) * math.log2(math.e))
            + n_max.bit_length() + 1)


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

    A row is one int, lane i of class j in bits [(j*width + i)*bits, ...):
    a mark is a shift by one block, and the size lanes times a vector in
    one block add to every j at once.  Every term is non-negative and sums
    into one total of some n <= n_max, at most max(1, n*p(n)) < 2**bits
    as p(n) < exp(pi*sqrt(2n/3)) for n >= 1 (Apostol, Introduction to
    Analytic Number Theory, Thm 14.5), so no lane carries into the next.
    The o1_tuples run counts pairs (index tuple, lambda in O_1), each fixed
    by mu = lambda + the tuple's parts and one of mu's parts in r*S1 (the
    paper's adjoin map), so at most sum of l(mu) over mu |- n <= n*p(n).
    """
    bits = _lane_bits(n_max)
    block, lane = width * bits, (1 << bits) - 1
    every_j = (1 << (j_max + 1) * block) - 1
    sizes = sum(lane << j * block for j in range(j_max + 1))

    def pack(lanes: dict[int, int]) -> int:
        return sum(c << i * bits for i, c in lanes.items())
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
    blocks = [[row >> j * block & (1 << block) - 1 for j in range(j_max + 1)]
              for row in rows]
    return [{j: [x >> i * bits & lane for i in range(width)]
             for j, x in enumerate(row) if x & lane} for row in blocks]


def totals_table(r: int, n_max: int, s1: Iterable[int], s2: Iterable[int]
                 ) -> list[ClassTotals]:
    """ClassTotals of every n <= n_max for the part sets S1 and S2 of an
    Euler pair of order r; members above n_max are never used.  Those sets
    are subsets of the unrestricted ones, so the classes above ``_j_cap``
    are empty here too."""
    _check_n(n_max)
    if n_max > MAX_N:
        raise ValueError(f"n={n_max} exceeds the totals bound {MAX_N}")
    top = _j_cap(r, n_max)
    s1 = [s for s in s1 if s <= n_max]
    marked = {r * s for s in s1}
    # O lanes: 1 ell_bar, 2 + t ell_mod[t]; m copies of p add m to
    # ell_mod[p % r], marked when p is in r*S1.  Unmarked parts go first,
    # on rows of class 0 alone.
    o_parts, empty = marked.union(s2), [1] + [0] * n_max
    o_rows = _class_dp(n_max, top, 2 + r, empty, [
        ([(1, 1, mark, {1: 1, 2 + t: 1}, {2 + t: 1})],
         sorted(p for p in o_parts if p % r == t and (p in marked) == mark))
        for mark in (False, True) for t in range(r)])
    # D lanes: 1 ell, 2 multiplicity in [r+1, 2r-1], 3 + t residual
    # multiplicity m % r >= t.  m = r*i + d is marked when i >= 1; i = 0
    # is one term per d, so is the window (i = 1, d >= 1), and the rest
    # are chains of step r.  Largest parts first keeps the rows short.
    d_runs = [(m0, k, m0 >= r, {1: m0, 2: int(r < m0 < 2 * r),
                                **{3 + t: 1 for t in range(m0 % r + 1)}},
               {1: r} if k else {}) for m0, k in
              [(m, 0) for m in range(1, 2 * r) if m != r] + [(r, r)]
              + [(2 * r + d, r) for d in range(1, r)]]
    d_rows = _class_dp(n_max, top, 3 + r, empty, [(d_runs, s1[::-1])])
    # diff3's left side: from |O_1| as class 0, every r*m of r*S1 marked
    o1_rows = _class_dp(n_max, top, 1, [row.get(1, [0])[0] for row in o_rows],
                        [([(1, 1, True, {}, {})], sorted(marked))])
    tables = []
    for o_row, d_row, o1_row in zip(o_rows, d_rows, o1_rows):
        o, d = o_row.items(), d_row.items()
        tables.append(ClassTotals(
            {j: v[0] for j, v in o}, {j: sum(v[2:]) for j, v in o},
            {j: v[1] for j, v in o}, {j: v[0] for j, v in d},
            {j: v[1] for j, v in d}, {j: v[3] for j, v in d},
            {j: v[2] for j, v in d},
            # nonresidual m - m % r: m % r counts the depths t >= 1 reached
            {j: v[1] - sum(v[4:]) for j, v in d},
            {j: v[2:] for j, v in o}, {j: v[3:] for j, v in d},
            {j: v[0] for j, v in o1_row.items()}))
    return tables


def _check_n(n: int, j: int = 0) -> None:
    """Refuse a negative n, or a negative class index j."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if j < 0:
        raise ValueError(f"class index j must be >= 0, got {j}")


def class_totals(r: int, n_max: int) -> list[ClassTotals]:
    """``totals_table`` on S1 = 1..n_max and S2 its non-multiples of r."""
    if r < 2:
        raise ValueError(f"modulus r must be >= 2, got {r}")
    return totals_table(r, n_max, range(1, n_max + 1),
                        [p for p in range(1, n_max + 1) if p % r])


def _modular_gap(tot: ClassTotals, j: int, t: int) -> int:
    o_row, d_row = tot.o_parts_mod.get(j), tot.d_depth.get(j)
    return ((o_row[t] - o_row[0]) if o_row else 0) - (d_row[t] if d_row else 0)


# stat -> value(tot, j, t) over the exactly-j class; only modular-gap reads
# the residue t.  The gaps are O minus D, except distinct-gap (D minus O).
STATS: dict[str, Callable[[ClassTotals, int, int | None], int]] = {
    "count_O": lambda tot, j, t: tot.o_count.get(j, 0),
    "count_D": lambda tot, j, t: tot.d_count.get(j, 0),
    "parts-gap": lambda tot, j, t: (tot.o_parts.get(j, 0)
                                    - tot.d_parts.get(j, 0)),
    # O: parts congruent to t minus parts divisible by r; D: distinct
    # parts with residual multiplicity >= t
    "modular-gap": _modular_gap,
    "distinct-gap": lambda tot, j, t: (tot.d_distinct.get(j, 0)
                                       - tot.o_distinct.get(j, 0)),
    # D: distinct parts with multiplicity in [r+1, 2r-1]
    "repeat-window": lambda tot, j, t: tot.d_window.get(j, 0),
}
READS_T = ("modular_refine", "modular-gap")  # theorem and stat


def t_values(name: str, r: int, t: int | str | None):
    """The residues theorem or stat ``name`` is evaluated at, modulus r:
    (None,) when it reads no t, every 1..r-1 for t = "all", else t."""
    if name not in READS_T:
        return (None,)
    if t == "all":
        return range(1, r)
    if t is None:
        raise ValueError(f"{name} requires t")
    if not 1 <= t <= r - 1:
        raise ValueError(f"t must satisfy 1 <= t <= r-1={r - 1}, got {t}")
    return (t,)


def stat_value(tot: ClassTotals, stat: str, j: int, mode: str = "exact",
               t: int | None = None) -> int:
    """``STATS[stat]`` over the exactly-j class of ``tot`` (mode "exact")
    or summed over the classes j' <= j (mode "at_most")."""
    if stat not in STATS:
        raise ValueError(f"unknown stat {stat!r}")
    if j < 0:
        raise ValueError(f"class index j must be >= 0, got {j}")
    if (t is None) == (stat in READS_T):
        raise ValueError(f"{stat} {'requires' if t is None else 'takes no'} t")
    if mode not in ("exact", "at_most"):
        raise ValueError(f"mode must be 'exact' or 'at_most', got {mode!r}")
    return _read(tot, stat, j, mode, t)


def _read(tot, stat, j, mode="exact", t=None):
    """``stat_value`` on arguments already checked."""
    value = STATS[stat]
    if mode == "exact":
        return value(tot, j, t)
    return sum(value(tot, i, t) for i in range(j + 1))


class VerificationRecord(NamedTuple):
    """One theorem instance: parameters, left side, labelled right sides.
    A tuple, so it compares and unpacks as one, ``_replace`` returns a
    changed copy, and it has no per-instance ``__dict__``."""

    theorem: str
    n: int
    r: int
    j: int
    t: int | None
    lhs: int
    rhs: tuple[tuple[str, int], ...]
    ok: bool
    note: str = ""


# -- the statements: ``STATEMENTS[theorem](mark)`` builds a theorem's labels
# once, ``mark`` tagging the class names ("~" for the restricted classes), as
# statement(tot, r, j, t): on one totals record, of the unrestricted classes
# or of an Euler pair, it returns (lhs, labelled right sides, note).

def _beck(mode: str, mark: str, modular: bool = False):
    """The parts gap over r-1, noted when r-1 does not divide it, or the
    modular gap at t (modular), against (j+1)|O_{j+1}| - j|O_j| and the
    same for D (exact), or (j+1)|O_{j+1}| and (j+1)|D_{j+1}| (at_most, the
    telescoped sum)."""
    exact = mode == "exact"  # 0 or 1: the weight of the -j|X_j| terms
    o_label, d_label = (f"(j+1)|{f}{mark}_{{j+1}}|"
                        + (f"-j|{f}{mark}_j|" if exact else "") for f in "OD")
    o_count, d_count = STATS["count_O"], STATS["count_D"]

    def statement(tot, r, j, t):
        rhs = ((o_label, (j + 1) * o_count(tot, j + 1, None)
                - exact * j * o_count(tot, j, None)),
               (d_label, (j + 1) * d_count(tot, j + 1, None)
                - exact * j * d_count(tot, j, None)))
        if modular:
            return _read(tot, "modular-gap", j, t=t), rhs, ""
        gap = _read(tot, "parts-gap", j, mode)
        if gap % (r - 1):
            return gap, rhs, f"gap {gap} not divisible by r-1={r - 1}"
        return gap // (r - 1), rhs, ""
    return statement


def _distinct(mode: str, mark: str):
    """The distinct-count gap (D minus O) against T_{j+1} - T_j (exact) or
    T_{j+1} (at_most), T being the repeat-window total."""
    exact = mode == "exact"
    label = f"T{mark}_{{j+1}}" + (f"-T{mark}_j" if exact else "")
    window = STATS["repeat-window"]
    return lambda tot, r, j, t: (
        _read(tot, "distinct-gap", j, mode),
        ((label, window(tot, j + 1, None) - exact * window(tot, j, None)),),
        "")


def _franklin(mark: str):
    label = f"|D{mark}_j|"
    return lambda tot, r, j, t: (_read(tot, "count_O", j),
                                 ((label, _read(tot, "count_D", j)),), "")


def _diff3(mark: str):
    label = f"(j+1)|O{mark}_{{j+1}}|-j|O{mark}_j|+sum ell_0"
    return lambda tot, r, j, t: (tot.o1_tuples.get(j, 0), ((label, (
        (j + 1) * _read(tot, "count_O", j + 1) - j * _read(tot, "count_O", j)
        + tot.o_parts_mod.get(j, [0])[0]),),), "")


def _nonresidual(mark: str):
    label = f"sum nonresidual mult over D{mark}_j"
    return lambda tot, r, j, t: (r * tot.o_parts_mod.get(j, [0])[0],
                                 ((label, tot.d_nonresid.get(j, 0)),), "")


# theorem id -> statement builder; o_parts_mod[j][0] totals the parts
# divisible by r over O_j
STATEMENTS = {
    "franklin": _franklin,
    "beck_main": partial(_beck, "exact"),
    "beck_cumulative": partial(_beck, "at_most"),
    "modular_refine": partial(_beck, "exact", modular=True),
    "sum_reduction": lambda mark: lambda tot, r, j, t: (
        sum(_read(tot, "modular-gap", j, t=s) for s in range(1, r)),
        (("b_{j,r}(n)", _read(tot, "parts-gap", j)),), ""),
    "distinct_parts": partial(_distinct, "exact"),
    "distinct_cumulative": partial(_distinct, "at_most"),
    "diff3": _diff3,
    "nonresidual_balance": _nonresidual,
}
THEOREM_IDS = tuple(STATEMENTS)


def check(names: Iterable[tuple[str, str]], mark: str,
          totals: Callable[[int, int], list[ClassTotals]],
          n_values: Iterable[int], r_values: Iterable[int], j_max: int,
          t: int | str | None) -> Iterator[VerificationRecord]:
    """A record per instance of each (record name, theorem id) of ``names``
    over the grid, in (name, n, r, j, t) order: the theorem's statement,
    classes tagged ``mark``, on ``totals(r, n_max)[n]``.  Every argument is
    checked, each theorem's residues taken once per r (even on an empty
    grid of n) and then each r's table built once, at the largest n, when
    ``check`` is called; the records are made as they are iterated."""
    statements = [(name, theorem, STATEMENTS[theorem](mark))
                  for name, theorem in names]
    ns, rs = sorted(set(n_values)), sorted(set(r_values))
    _check_n(min(ns, default=0), j_max)
    if rs and rs[0] < 2:
        raise ValueError(f"modulus r must be >= 2, got {rs[0]}")
    residues = {(theorem, r): t_values(theorem, r, t)
                for _, theorem, _ in statements for r in rs}
    tables = {r: totals(r, ns[-1]) for r in rs} if ns else {}
    return _records(statements, ns, rs, range(j_max + 1), tables, residues)


def _records(statements, ns, rs, js, tables, residues):
    """``check``'s records, each one tuple made in place: ok when there is
    no note and the one or two right sides (first, last) equal lhs."""
    new = tuple.__new__
    for name, theorem, statement in statements:
        for n in ns:
            for r in rs:
                tot, ts = tables[r][n], residues[theorem, r]
                for j in js:
                    for t in ts:
                        lhs, rhs, note = statement(tot, r, j, t)
                        yield new(VerificationRecord, (
                            name, n, r, j, t, lhs, rhs,
                            not note and rhs[0][1] == rhs[-1][1] == lhs,
                            note))


def verify(theorem: str, n_values: Iterable[int], r_values: Iterable[int],
           j_max: int, t: int | str = "all") -> Iterator[VerificationRecord]:
    """All instances of one theorem, or of each of ``THEOREM_IDS`` in turn
    for "all", over a parameter grid: ``check`` on the unrestricted
    classes' ``class_totals``, an iterator whose arguments are checked on
    the call."""
    if theorem not in STATEMENTS and theorem != "all":
        raise ValueError(f"unknown theorem {theorem!r}; "
                         f"choose from {', '.join(THEOREM_IDS)}")
    names = THEOREM_IDS if theorem == "all" else (theorem,)
    return check(zip(names, names), "", class_totals, n_values, r_values,
                 j_max, t)
