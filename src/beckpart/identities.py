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
route and is deliberately not used here.  The verifier reads every number
of an instance from one totals record, and the statements it shares with
the Euler-pair items read the record of a pair in the same way.

The left side of ``diff3`` sums |O_1(n - r*w)| over index tuples (m, k),
m strictly increasing in S1 and k positive, of weight w = sum m_i*k_i.
Such a j-tuple is a partition of w into exactly j distinct part values
from S1, so the same program with every part marked counts the tuples of
each weight, and the table stores the sum per j as one more field,
``o1_tuples``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, NamedTuple

# The largest n of a totals table, and so of every command.
MAX_N = 120

THEOREM_IDS = (
    "franklin",
    "beck_main",
    "beck_cumulative",
    "modular_refine",
    "sum_reduction",
    "distinct_parts",
    "distinct_cumulative",
    "diff3",
    "nonresidual_balance",
)


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
    (i+1)*bits): every total is at most n*p(n) <= n*2^(n-1), so no lane
    carries into the next, and adding a part's contribution to every lane
    is one multiply-add of the packed size.
    """
    bits = n_max + n_max.bit_length() + 1
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


def _class_table(r: int, n_max: int) -> list[ClassTotals]:
    """The unrestricted classes: S1 = 1..n_max, S2 its non-multiples of
    r."""
    return totals_table(r, n_max, range(1, n_max + 1),
                        [p for p in range(1, n_max + 1) if p % r])


class CacheInfo(NamedTuple):
    """The fields of ``functools.lru_cache``'s ``cache_info()``."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


def _class_key(n: int, r: int) -> tuple[int, int]:
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if r < 2:
        raise ValueError(f"modulus r must be >= 2, got {r}")
    if n > MAX_N:
        raise ValueError(f"n={n} exceeds the totals bound {MAX_N}")
    return r, n


class TotalsCache:
    """Totals by (key, n), kept as one table per key.

    ``key(*args)`` checks a call's arguments and returns (key, n);
    ``build(key, n)`` returns the totals of every n' <= n as a list.  A
    table holds every n up to the largest n asked for; a call beyond it
    rebuilds the table at the new n, so a caller that will need a range
    of n asks for the largest first.  At most ``MAXSIZE`` keys are kept,
    dropping the least recently used.  ``cache_info`` counts table
    lookups as hits and table builds as misses.
    """

    MAXSIZE = 8

    def __init__(self, build: Callable[[Hashable, int], list],
                 key: Callable[..., tuple[Hashable, int]]):
        self._build, self._key = build, key
        self._tables: OrderedDict[Hashable, list] = OrderedDict()
        self._hits = self._misses = 0

    def __call__(self, *args):
        key, n = self._key(*args)
        table = self._tables.get(key)
        if table is not None and n < len(table):
            self._hits += 1
        else:
            self._misses += 1
            table = self._tables[key] = self._build(key, n)
        self._tables.move_to_end(key)
        if len(self._tables) > self.MAXSIZE:
            self._tables.popitem(last=False)
        return table[n]

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self._hits, self._misses, self.MAXSIZE,
                         len(self._tables))


# class_totals(n, r) -> ClassTotals, keyed by r, behind every accessor below
class_totals = TotalsCache(_class_table, _class_key)


def _check_j(j: int) -> None:
    if j < 0:
        raise ValueError(f"class index j must be >= 0, got {j}")


def _totals(n: int, r: int, j: int) -> ClassTotals:
    """class_totals(n, r), whose key checks n and r, after checking j."""
    tot = class_totals(n, r)
    _check_j(j)
    return tot


def _check_t(r: int, t: int) -> None:
    if not 1 <= t <= r - 1:
        raise ValueError(f"t must satisfy 1 <= t <= r-1={r - 1}, got {t}")


def _check_family(family: str) -> None:
    if family not in ("O", "D"):
        raise ValueError(f"family must be 'O' or 'D', got {family!r}")


def _exact_or_cumulative(table: dict[int, int], j: int, mode: str) -> int:
    if mode == "exact":
        return table.get(j, 0)
    if mode == "at_most":
        return sum(v for i, v in table.items() if i <= j)
    raise ValueError(f"mode must be 'exact' or 'at_most', got {mode!r}")


def _gap(plus: dict[int, int], minus: dict[int, int], j: int,
         mode: str) -> int:
    return (_exact_or_cumulative(plus, j, mode)
            - _exact_or_cumulative(minus, j, mode))


def _modular_gap(tot: ClassTotals, j: int, t: int) -> int:
    o_row = tot.o_parts_mod.get(j)
    d_row = tot.d_depth.get(j)
    o_term = (o_row[t] - o_row[0]) if o_row else 0
    return o_term - (d_row[t] if d_row else 0)


def _class_size(tot: ClassTotals, family: str, j: int, mode: str) -> int:
    """Size of the exactly-j (or at-most-j) class of a family in ``tot``;
    the family is checked by the caller, before it looks ``tot`` up."""
    return _exact_or_cumulative(tot.o_count if family == "O" else tot.d_count,
                                j, mode)


def class_count(family: str, n: int, r: int, j: int, mode: str = "exact") -> int:
    """Size of the exactly-j (or at-most-j) class of the given family."""
    _check_family(family)
    return _class_size(_totals(n, r, j), family, j, mode)


def part_count_gap(n: int, r: int, j: int, mode: str = "exact") -> int:
    """Total parts over the O-class minus total parts over the D-class.

    May be negative for j >= 1.
    """
    tot = _totals(n, r, j)
    return _gap(tot.o_parts, tot.d_parts, j, mode)


def modular_part_gap(n: int, r: int, j: int, t: int) -> int:
    """Sum over the O-class of (parts congruent to t minus parts divisible
    by r), minus the sum over the D-class of distinct parts with residual
    multiplicity >= t."""
    tot = _totals(n, r, j)
    _check_t(r, t)
    return _modular_gap(tot, j, t)


def distinct_count_gap(n: int, r: int, j: int, mode: str = "exact") -> int:
    """Total distinct parts over the D-class minus the same over the
    O-class (note the D-minus-O orientation)."""
    tot = _totals(n, r, j)
    return _gap(tot.d_distinct, tot.o_distinct, j, mode)


def repeat_window_total(n: int, r: int, j: int) -> int:
    """Distinct parts with multiplicity in [r+1, 2r-1], totalled over the
    exactly-j D-class."""
    return _totals(n, r, j).d_window.get(j, 0)


@dataclass(frozen=True)
class VerificationRecord:
    """One theorem instance: parameters, left side, labelled right sides."""

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
    ok = not note and all(v == lhs for _, v in rhs)
    return VerificationRecord(theorem, n, r, j, t, lhs, tuple(rhs), ok, note)


# -- the statements shared with the Euler-pair items ----------------------
# Each reads one totals record, of the unrestricted classes or of an Euler
# pair, and returns (lhs, labelled right sides, note); ``mark`` tags the class
# names in the labels ("~" for the restricted classes).

def beck_statement(tot, r: int, j: int, mode: str, mark: str = ""):
    """Part-count gap over r-1 against (j+1)|O_{j+1}| - j|O_j| and the same
    for D (exact), or against (j+1)|O_{j+1}| and (j+1)|D_{j+1}| (at_most,
    the telescoped sum)."""
    gap = _gap(tot.o_parts, tot.d_parts, j, mode)
    rhs = []
    for family, counts in (("O", tot.o_count), ("D", tot.d_count)):
        label = f"(j+1)|{family}{mark}_{{j+1}}|"
        value = (j + 1) * counts.get(j + 1, 0)
        if mode == "exact":
            label += f"-j|{family}{mark}_j|"
            value -= j * counts.get(j, 0)
        rhs.append((label, value))
    if gap % (r - 1):
        return gap, rhs, f"gap {gap} not divisible by r-1={r - 1}"
    return gap // (r - 1), rhs, ""


def distinct_statement(tot, r: int, j: int, mode: str, mark: str = ""):
    """Distinct-count gap (D minus O) against T_{j+1} - T_j (exact) or
    T_{j+1} (at_most), T being the repeat-window total."""
    label, value = f"T{mark}_{{j+1}}", tot.d_window.get(j + 1, 0)
    if mode == "exact":
        label += f"-T{mark}_j"
        value -= tot.d_window.get(j, 0)
    return _gap(tot.d_distinct, tot.o_distinct, j, mode), [(label, value)], ""


# theorem id -> (statement, mode)
STATEMENTS = {
    "beck_main": (beck_statement, "exact"),
    "beck_cumulative": (beck_statement, "at_most"),
    "distinct_parts": (distinct_statement, "exact"),
    "distinct_cumulative": (distinct_statement, "at_most"),
}


def verify_instance(theorem: str, n: int, r: int, j: int,
                    t: int | None = None) -> VerificationRecord:
    """Evaluate one theorem instance exactly; never rounds."""
    tot = _totals(n, r, j)
    if theorem in STATEMENTS:
        statement, mode = STATEMENTS[theorem]
        lhs, rhs, note = statement(tot, r, j, mode)
        return _record(theorem, n, r, j, None, lhs, rhs, note)
    if theorem == "franklin":
        return _record(theorem, n, r, j, None, tot.o_count.get(j, 0),
                       [("|D_j|", tot.d_count.get(j, 0))])
    if theorem == "modular_refine":
        if t is None:
            raise ValueError("modular_refine requires t")
        _check_t(r, t)
        return _record(theorem, n, r, j, t, _modular_gap(tot, j, t),
                       beck_statement(tot, r, j, "exact")[1])
    if theorem == "sum_reduction":
        lhs = sum(_modular_gap(tot, j, t_) for t_ in range(1, r))
        return _record(theorem, n, r, j, None, lhs,
                       [("b_{j,r}(n)", _gap(tot.o_parts, tot.d_parts, j,
                                            "exact"))])
    row = tot.o_parts_mod.get(j)
    divisible = row[0] if row else 0
    if theorem == "diff3":
        rhs_val = ((j + 1) * tot.o_count.get(j + 1, 0)
                   - j * tot.o_count.get(j, 0) + divisible)
        return _record(theorem, n, r, j, None, tot.o1_tuples.get(j, 0),
                       [("(j+1)|O_{j+1}|-j|O_j|+sum ell_0", rhs_val)])
    if theorem == "nonresidual_balance":
        return _record(theorem, n, r, j, None, r * divisible,
                       [("sum nonresidual mult over D_j",
                         tot.d_nonresid.get(j, 0))])
    raise ValueError(f"unknown theorem {theorem!r}")


def verify(theorem: str, n_values: Iterable[int], r_values: Iterable[int],
           j_max: int, t: int | str = "all") -> list[VerificationRecord]:
    """All instances of one theorem over a parameter grid, in canonical
    (n, r, j, t) order."""
    if theorem not in THEOREM_IDS:
        raise ValueError(f"unknown theorem {theorem!r}; "
                         f"choose from {', '.join(THEOREM_IDS)}")
    ns, rs = sorted(set(n_values)), sorted(set(r_values))
    records = []
    # r outermost and n downwards: each r's totals table is built once, at
    # the largest n, and stays in use while that r's records are made
    for r in rs:
        for n in reversed(ns):
            for j in range(j_max + 1):
                if theorem == "modular_refine":
                    if t == "all":
                        ts = range(1, r)
                    else:
                        _check_t(r, int(t))
                        ts = (int(t),)
                    for t_ in ts:
                        records.append(verify_instance(theorem, n, r, j, t_))
                else:
                    records.append(verify_instance(theorem, n, r, j))
    records.sort(key=lambda rec: rec.n)  # stable: (n, r, j, t) order
    return records
