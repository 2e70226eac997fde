"""Aggregate class statistics, and theorem verification.

The totals come from one dynamic program over part values, run over the
part sets of an Euler pair of order r; the unrestricted classes are the
pair S1 = all positive integers, S2 = the non-multiples of r.  Every
aggregated statistic is a sum over the distinct parts of a partition, so
giving part p multiplicity m in each partition of n - p*m adds (number of
those partitions) x (that part's contribution) to every total of n.
Adding the allowed part values one at a time fills the totals of every
n <= N in a single pass.  The program works from the class definitions
alone; the q-series module reproduces the same numbers by a different
route and is deliberately not used here.

A command builds ``class_totals(r, n_max)`` once per r and indexes it
by n; no table is kept between calls.  ``STATS`` reads each statistic
from a record, ``STATEMENTS`` states each theorem on one (of an Euler
pair too), and ``verify`` makes each instance a ``VerificationRecord``.

The left side of ``diff3`` sums |O_1(n - r*w)| over index tuples (m, k),
m strictly increasing in S1 and k positive, of weight w = sum m_i*k_i.
Such a j-tuple is a partition of w into exactly j distinct part values
from S1, so the same program with every part marked counts the tuples of
each weight, and the table stores the sum per j as one more field,
``o1_tuples``.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Iterable, NamedTuple

# The largest n of a totals table, and so of every command.
MAX_N = 120

THEOREM_IDS = ("franklin", "beck_main", "beck_cumulative", "modular_refine",
               "sum_reduction", "distinct_parts", "distinct_cumulative",
               "diff3", "nonresidual_balance")


class ClassTotals(NamedTuple):
    """Per-class totals for one n over the part sets of an Euler pair of
    order r: index j maps to the total over the exactly-j class of each
    family.  The O-class takes its parts from r*S1 and S2, j counting its
    distinct parts from r*S1; the D-class takes its parts from S1, j
    counting its distinct parts repeated at least r times.
    ``o_parts_mod[j][t]`` counts O's parts congruent to t mod r, and
    ``d_depth[j][t]`` D's distinct parts with residual multiplicity >= t.
    ``o1_tuples`` is diff3's left side: j maps to the sum of |O_1(n - r*w)|
    over the index j-tuples of weight w <= n/r, index parts from S1,
    present when one exists."""

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


_Step = Callable[[int, int], tuple[int, list[int]]]


def _lane_bits(n_max: int) -> int:
    """Unsigned lane width of the DP rows up to n_max: the bit length of
    the p(n) bound at n_max plus n_max.bit_length() bounds every n*p(n),
    as p increases, and one more bit holds the size 1 at n = 0."""
    return (math.ceil(math.pi * math.sqrt(2 * n_max / 3) * math.log2(math.e))
            + n_max.bit_length() + 1)


def _part_value_dp(n_max: int, width: int, step: _Step, parts: Iterable[int]
                   ) -> list[dict[int, list[int]]]:
    """rows[n][j] = [size, *sums] over the partitions of n into the given
    parts with exactly j marked distinct parts, for every n <= n_max; j is
    absent when there are none.  Parts above n_max are skipped.

    ``step(p, m)`` returns (mark, sums) for part p taken m times: mark is
    1 when that part counts towards j, sums its width - 1 contributions.
    Part values are added one at a time and n walks downwards, so each
    source row n - p*m still holds the partitions without part p.

    Each row vector is packed into one int, lane i in bits [i*bits,
    (i+1)*bits), and adding a part's contribution to every lane is one
    multiply-add of the packed size.  Every total is at most
    max(1, n*p(n)), and p(n) < exp(pi*sqrt(2n/3)) for n >= 1 (Apostol,
    Introduction to Analytic Number Theory, Thm 14.5), so ``_lane_bits``
    bounds every total of n <= n_max and no lane carries into the next:
    31 bits at n_max = 40, 49 at 120 and 75 at 300.
    """
    bits = _lane_bits(n_max)
    mask = (1 << bits) - 1
    rows: list[dict[int, int]] = [{} for _ in range(n_max + 1)]
    rows[0][0] = 1
    for p in sorted(parts):
        if p > n_max:
            break
        steps = []
        for m in range(1, n_max // p + 1):
            mark, sums = step(p, m)
            steps.append((mark, sum(s << (i * bits)
                                    for i, s in enumerate(sums, 1))))
        for n in range(n_max, p - 1, -1):
            row = rows[n]
            for m in range(1, n // p + 1):
                mark, vec = steps[m - 1]
                for j, src in rows[n - p * m].items():
                    row[j + mark] = (row.get(j + mark, 0) + src
                                     + (src & mask) * vec)
    return [{j: [x >> (i * bits) & mask for i in range(width)]
             for j, x in sorted(row.items())} for row in rows]


def _columns(row: dict[int, list[int]], width: int) -> list[dict[int, int]]:
    """Split the first ``width`` columns of a DP row {j: [size, *sums]}
    into one {j: value} per column."""
    return [{j: vec[i] for j, vec in row.items()} for i in range(width)]


def totals_table(r: int, n_max: int, s1: Iterable[int],
                 s2: Iterable[int]) -> list[ClassTotals]:
    """ClassTotals of every n <= n_max for the part sets S1 and S2 of an
    Euler pair of order r; members above n_max are never used."""
    if n_max > MAX_N:
        raise ValueError(f"n={n_max} exceeds the totals bound {MAX_N}")
    s1 = [s for s in s1 if s <= n_max]
    marked = {r * s for s in s1}

    def o_step(p, m):
        # marked when p is in r*S1; sums: ell, ell_bar, ell_mod[0..r-1]
        mod = [0] * r
        mod[p % r] = m
        return int(p in marked), [m, 1, *mod]

    def d_step(p, m):
        # marked when m >= r; sums: ell, ell_bar, multiplicity in
        # [r+1, 2r-1], nonresidual multiplicity, ell_bar_resid[0..r-1]
        d = m % r
        depth = [1] * (d + 1) + [0] * (r - d - 1)
        return int(m >= r), [m, 1, int(r < m < 2 * r), m - d, *depth]

    o_rows = _part_value_dp(n_max, 3 + r, o_step, marked.union(s2))
    d_rows = _part_value_dp(n_max, 5 + r, d_step, s1)
    # tuple_rows[w][j] = [number of index j-tuples of weight w]
    tuple_rows = _part_value_dp(n_max // r, 1, lambda p, m: (1, []), s1)
    o1 = [row.get(1, [0])[0] for row in o_rows]
    tables = []
    for n, (o_row, d_row) in enumerate(zip(o_rows, d_rows)):
        o1_tuples: dict[int, int] = {}
        for w in range(n // r + 1):
            for j, (count,) in tuple_rows[w].items():
                o1_tuples[j] = o1_tuples.get(j, 0) + count * o1[n - r * w]
        tables.append(ClassTotals(
            *_columns(o_row, 3), *_columns(d_row, 5),
            {j: vec[3:] for j, vec in o_row.items()},
            {j: vec[5:] for j, vec in d_row.items()}, o1_tuples))
    return tables


def _check_n(n: int, j: int = 0) -> None:
    """Refuse a negative n, or a negative class index j."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if j < 0:
        raise ValueError(f"class index j must be >= 0, got {j}")


def class_totals(r: int, n_max: int) -> list[ClassTotals]:
    """ClassTotals of every n <= n_max for the unrestricted classes: S1 =
    1..n_max, S2 its non-multiples of r."""
    _check_n(n_max)
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

    def rhs_value(self, idx: int):
        return self.rhs[idx][1] if idx < len(self.rhs) else None


def _record(theorem, n, r, j, t, lhs, rhs, note=""):
    # ok: no note, and the one or two right sides (first, last) equal lhs
    return VerificationRecord(theorem, n, r, j, t, lhs, tuple(rhs),
                              not note and rhs[0][1] == rhs[-1][1] == lhs,
                              note)


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


# theorem id -> statement builder, in THEOREM_IDS order; o_parts_mod[j][0]
# totals the parts divisible by r over O_j
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
    "diff3": lambda mark: lambda tot, r, j, t: (
        tot.o1_tuples.get(j, 0),
        (("(j+1)|O_{j+1}|-j|O_j|+sum ell_0",
          (j + 1) * _read(tot, "count_O", j + 1)
          - j * _read(tot, "count_O", j)
          + tot.o_parts_mod.get(j, [0])[0]),), ""),
    "nonresidual_balance": lambda mark: lambda tot, r, j, t: (
        r * tot.o_parts_mod.get(j, [0])[0],
        (("sum nonresidual mult over D_j", tot.d_nonresid.get(j, 0)),), ""),
}


def verify(theorem: str, n_values: Iterable[int], r_values: Iterable[int],
           j_max: int, t: int | str = "all") -> list[VerificationRecord]:
    """All instances of one theorem, or of each of ``THEOREM_IDS`` in turn
    for "all", over a parameter grid in canonical (n, r, j, t) order, one
    ``VerificationRecord`` each.  Each r's totals table is built once, at
    the largest n, for every theorem; each theorem's labels once, and its
    residues once per r, even on an empty grid of n."""
    if theorem not in STATEMENTS and theorem != "all":
        raise ValueError(f"unknown theorem {theorem!r}; "
                         f"choose from {', '.join(THEOREM_IDS)}")
    statements = {name: STATEMENTS[name]("") for name in
                  (THEOREM_IDS if theorem == "all" else (theorem,))}
    ns, rs = sorted(set(n_values)), sorted(set(r_values))
    _check_n(min(ns, default=0), j_max)
    tables = {r: class_totals(r, ns[-1]) for r in rs} if ns else {}
    residues = {(name, r): t_values(name, r, t)
                for name in statements for r in rs}
    return [_record(name, n, r, j, t_, *statement(tables[r][n], r, j, t_))
            for name, statement in statements.items() for n in ns
            for r in rs for j in range(j_max + 1) for t_ in residues[name, r]]
