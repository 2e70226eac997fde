"""Aggregate class statistics, and theorem verification.

The totals come from one dynamic program over part values per modulus r.
Every aggregated statistic is a sum over the distinct parts of a
partition, so giving part p multiplicity m in each partition of n - p*m
adds (number of those partitions) x (that part's contribution) to every
total of n.  Adding the part values 1..N one at a time fills the totals of
every n <= N in a single pass.  The program works from the class
definitions alone; the q-series module reproduces the same numbers by a
different route and is deliberately not used here.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, NamedTuple

from .enumeration import (MAX_ENUM_N, enumerate_fixed_repeats,
                          index_weight_tuples)

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


class ClassTotals:
    """Per-class accumulators for one (n, r): index j maps to the totals
    over the exactly-j class of each family."""

    __slots__ = ("n", "r", "o_count", "o_parts", "o_parts_mod", "o_distinct",
                 "d_count", "d_parts", "d_depth", "d_distinct",
                 "d_nonresid", "d_window")

    def __init__(self, n: int, r: int):
        self.n = n
        self.r = r
        self.o_count: dict[int, int] = {}
        self.o_parts: dict[int, int] = {}
        self.o_parts_mod: dict[int, list[int]] = {}
        self.o_distinct: dict[int, int] = {}
        self.d_count: dict[int, int] = {}
        self.d_parts: dict[int, int] = {}
        self.d_depth: dict[int, list[int]] = {}
        self.d_distinct: dict[int, int] = {}
        self.d_nonresid: dict[int, int] = {}
        self.d_window: dict[int, int] = {}


_Step = Callable[[int, int], tuple[int, list[int]]]


def _part_value_dp(n_max: int, width: int, step: _Step,
                   parts: Iterable[int] | None = None
                   ) -> list[dict[int, list[int]]]:
    """rows[n][j] = [size, *sums] over the partitions of n with exactly j
    marked distinct parts, for every n <= n_max; j is absent when there
    are none.

    Parts are drawn from ``parts`` (default 1..n_max; values above n_max
    are skipped).  ``step(p, m)`` returns (mark, vec) for part p taken m
    times: mark is 1 when that part counts towards j, vec its contribution
    to each sum (vec[0] is 0, so the size carries over).  Part values are
    added one at a time and n walks downwards, so each source row n - p*m
    still holds the partitions without part p.
    """
    rows: list[dict[int, list[int]]] = [{} for _ in range(n_max + 1)]
    rows[0][0] = [1] + [0] * (width - 1)
    for p in range(1, n_max + 1) if parts is None else sorted(parts):
        if p > n_max:
            break
        steps = [step(p, m) for m in range(1, n_max // p + 1)]
        for n in range(n_max, p - 1, -1):
            row = rows[n]
            for m in range(1, n // p + 1):
                mark, vec = steps[m - 1]
                for j, src in rows[n - p * m].items():
                    size = src[0]
                    add = [s + size * v for s, v in zip(src, vec)]
                    dst = row.get(j + mark)
                    row[j + mark] = add if dst is None else [
                        a + b for a, b in zip(dst, add)]
    return rows


def _totals_table(r: int, n_max: int) -> list[ClassTotals]:
    """ClassTotals of every n <= n_max for modulus r."""

    def o_step(p, m):
        # marked when p is divisible by r; sums: ell, ell_bar, ell_mod[0..r-1]
        mod = [0] * r
        mod[p % r] = m
        return int(p % r == 0), [0, m, 1, *mod]

    def d_step(p, m):
        # marked when m >= r; sums: ell, ell_bar, ell_bar_resid[0..r-1],
        # nonresidual multiplicity, multiplicity in [r+1, 2r-1]
        d = m % r
        depth = [1] * (d + 1) + [0] * (r - d - 1)
        return int(m >= r), [0, m, 1, *depth, m - d, int(r < m < 2 * r)]

    o_rows = _part_value_dp(n_max, 3 + r, o_step)
    d_rows = _part_value_dp(n_max, 5 + r, d_step)
    table = []
    for n in range(n_max + 1):
        tot = ClassTotals(n, r)
        for j, (size, ell, ell_bar, *mod) in sorted(o_rows[n].items()):
            tot.o_count[j] = size
            tot.o_parts[j] = ell
            tot.o_distinct[j] = ell_bar
            tot.o_parts_mod[j] = mod
        for j, (size, ell, ell_bar, *rest) in sorted(d_rows[n].items()):
            tot.d_count[j] = size
            tot.d_parts[j] = ell
            tot.d_distinct[j] = ell_bar
            tot.d_depth[j] = rest[:r]
            tot.d_nonresid[j] = rest[r]
            tot.d_window[j] = rest[r + 1]
        table.append(tot)
    return table


class CacheInfo(NamedTuple):
    """The fields of ``functools.lru_cache``'s ``cache_info()``."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


def _class_key(n: int, r: int) -> tuple[int, int]:
    if r < 2:
        raise ValueError(f"modulus r must be >= 2, got {r}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n > MAX_ENUM_N:
        raise ValueError(f"n={n} exceeds the totals bound {MAX_ENUM_N}")
    return r, n


class TotalsCache:
    """Totals by (key, n), kept as one table per key.

    ``key(*args)`` checks a call's arguments and returns (key, n);
    ``build(key, n)`` returns the totals of every n' <= n as a list.  The
    default is the class totals: ``class_totals(n, r)``, keyed by r.  A
    table holds every n up to the largest n asked for; a call beyond it
    rebuilds the table at the new n, so a caller that will need a range
    of n asks for the largest first.  At most ``MAXSIZE`` keys are kept,
    dropping the least recently used.  ``cache_info`` counts table
    lookups as hits and table builds as misses.
    """

    MAXSIZE = 8

    def __init__(self, build: Callable[[Hashable, int], list] = _totals_table,
                 key: Callable[..., tuple[Hashable, int]] = _class_key):
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


# class_totals(n, r) -> ClassTotals, behind every accessor below
class_totals = TotalsCache()


def _check_args(n: int, r: int, j: int) -> None:
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if r < 2:
        raise ValueError(f"modulus r must be >= 2, got {r}")
    if j < 0:
        raise ValueError(f"class index j must be >= 0, got {j}")


def _check_t(r: int, t: int) -> None:
    if not 1 <= t <= r - 1:
        raise ValueError(f"t must satisfy 1 <= t <= r-1={r - 1}, got {t}")


def _exact_or_cumulative(table: dict[int, int], j: int, mode: str) -> int:
    if mode == "exact":
        return table.get(j, 0)
    if mode == "at_most":
        return sum(v for i, v in table.items() if i <= j)
    raise ValueError(f"mode must be 'exact' or 'at_most', got {mode!r}")


def class_count(family: str, n: int, r: int, j: int, mode: str = "exact") -> int:
    """Size of the exactly-j (or at-most-j) class of the given family."""
    _check_args(n, r, j)
    tot = class_totals(n, r)
    table = tot.o_count if family == "O" else tot.d_count
    if family not in ("O", "D"):
        raise ValueError(f"family must be 'O' or 'D', got {family!r}")
    return _exact_or_cumulative(table, j, mode)


def part_count_gap(n: int, r: int, j: int, mode: str = "exact") -> int:
    """Total parts over the O-class minus total parts over the D-class.

    May be negative for j >= 1.
    """
    _check_args(n, r, j)
    tot = class_totals(n, r)
    return (_exact_or_cumulative(tot.o_parts, j, mode)
            - _exact_or_cumulative(tot.d_parts, j, mode))


def modular_part_gap(n: int, r: int, j: int, t: int) -> int:
    """Sum over the O-class of (parts congruent to t minus parts divisible
    by r), minus the sum over the D-class of distinct parts with residual
    multiplicity >= t."""
    _check_args(n, r, j)
    _check_t(r, t)
    tot = class_totals(n, r)
    o_row = tot.o_parts_mod.get(j)
    d_row = tot.d_depth.get(j)
    o_term = (o_row[t] - o_row[0]) if o_row else 0
    return o_term - (d_row[t] if d_row else 0)


def distinct_count_gap(n: int, r: int, j: int, mode: str = "exact") -> int:
    """Total distinct parts over the D-class minus the same over the
    O-class (note the D-minus-O orientation)."""
    _check_args(n, r, j)
    tot = class_totals(n, r)
    return (_exact_or_cumulative(tot.d_distinct, j, mode)
            - _exact_or_cumulative(tot.o_distinct, j, mode))


def repeat_window_total(n: int, r: int, j: int) -> int:
    """Distinct parts with multiplicity in [r+1, 2r-1], totalled over the
    exactly-j D-class."""
    _check_args(n, r, j)
    return class_totals(n, r).d_window.get(j, 0)


def divisible_parts_total(n: int, r: int, j: int) -> int:
    """Parts divisible by r (with multiplicity), totalled over the
    exactly-j O-class."""
    _check_args(n, r, j)
    row = class_totals(n, r).o_parts_mod.get(j)
    return row[0] if row else 0


def congruent_parts_total(n: int, r: int, j: int, t: int) -> int:
    """Parts congruent to t mod r, totalled over the exactly-j O-class."""
    _check_args(n, r, j)
    if not 0 <= t <= r - 1:
        raise ValueError(f"t must satisfy 0 <= t <= r-1, got {t}")
    row = class_totals(n, r).o_parts_mod.get(j)
    return row[t] if row else 0


def residual_depth_total(n: int, r: int, j: int, t: int) -> int:
    """Distinct parts with residual multiplicity >= t, totalled over the
    exactly-j D-class."""
    _check_args(n, r, j)
    _check_t(r, t)
    row = class_totals(n, r).d_depth.get(j)
    return row[t] if row else 0


def distinct_parts_total(family: str, n: int, r: int, j: int) -> int:
    """Distinct-part count totalled over the exactly-j class of a family."""
    _check_args(n, r, j)
    tot = class_totals(n, r)
    if family == "O":
        return tot.o_distinct.get(j, 0)
    if family == "D":
        return tot.d_distinct.get(j, 0)
    raise ValueError(f"family must be 'O' or 'D', got {family!r}")


def nonresidual_sum_total(n: int, r: int, j: int) -> int:
    """Sum of nonresidual multiplicities, totalled over the exactly-j
    D-class."""
    _check_args(n, r, j)
    return class_totals(n, r).d_nonresid.get(j, 0)


def fiber_ragged_repeat_count(n: int, r: int, m_vec, k_vec) -> int:
    """In the D-side fiber where the over-repeated parts are exactly the
    m_i with nonresidual multiplicity r*k_i: count distinct parts that
    appear with multiplicity >= r but not divisible by r, over the whole
    fiber."""
    total = 0
    for mu in enumerate_fixed_repeats(n, r, m_vec, k_vec):
        total += sum(1 for _, mult in mu.pairs if mult >= r and mult % r != 0)
    return total


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


def _beck_rhs(n: int, r: int, j: int) -> list[tuple[str, int]]:
    o1 = (j + 1) * class_count("O", n, r, j + 1) - j * class_count("O", n, r, j)
    d1 = (j + 1) * class_count("D", n, r, j + 1) - j * class_count("D", n, r, j)
    return [("(j+1)|O_{j+1}|-j|O_j|", o1), ("(j+1)|D_{j+1}|-j|D_j|", d1)]


def verify_instance(theorem: str, n: int, r: int, j: int,
                    t: int | None = None) -> VerificationRecord:
    """Evaluate one theorem instance exactly; never rounds."""
    _check_args(n, r, j)
    if theorem == "franklin":
        return _record(theorem, n, r, j, None,
                       class_count("O", n, r, j),
                       [("|D_j|", class_count("D", n, r, j))])
    if theorem == "beck_main":
        gap = part_count_gap(n, r, j, "exact")
        rhs = _beck_rhs(n, r, j)
        if gap % (r - 1):
            return _record(theorem, n, r, j, None, gap, rhs,
                           note=f"gap {gap} not divisible by r-1={r - 1}")
        return _record(theorem, n, r, j, None, gap // (r - 1), rhs)
    if theorem == "beck_cumulative":
        gap = part_count_gap(n, r, j, "at_most")
        rhs = [("(j+1)|O_{j+1}|", (j + 1) * class_count("O", n, r, j + 1)),
               ("(j+1)|D_{j+1}|", (j + 1) * class_count("D", n, r, j + 1))]
        if gap % (r - 1):
            return _record(theorem, n, r, j, None, gap, rhs,
                           note=f"gap {gap} not divisible by r-1={r - 1}")
        return _record(theorem, n, r, j, None, gap // (r - 1), rhs)
    if theorem == "modular_refine":
        if t is None:
            raise ValueError("modular_refine requires t")
        return _record(theorem, n, r, j, t,
                       modular_part_gap(n, r, j, t), _beck_rhs(n, r, j))
    if theorem == "sum_reduction":
        lhs = sum(modular_part_gap(n, r, j, t_) for t_ in range(1, r))
        return _record(theorem, n, r, j, None, lhs,
                       [("b_{j,r}(n)", part_count_gap(n, r, j, "exact"))])
    if theorem == "diff3":
        lhs = sum(
            class_count("O", n - r * sum(m * k for m, k in zip(mv, kv)), r, 1)
            for mv, kv in index_weight_tuples(j, n // r))
        rhs_val = ((j + 1) * class_count("O", n, r, j + 1)
                   - j * class_count("O", n, r, j)
                   + divisible_parts_total(n, r, j))
        return _record(theorem, n, r, j, None, lhs,
                       [("(j+1)|O_{j+1}|-j|O_j|+sum ell_0", rhs_val)])
    if theorem == "distinct_parts":
        return _record(theorem, n, r, j, None,
                       distinct_count_gap(n, r, j, "exact"),
                       [("T_{j+1}-T_j", repeat_window_total(n, r, j + 1)
                         - repeat_window_total(n, r, j))])
    if theorem == "distinct_cumulative":
        return _record(theorem, n, r, j, None,
                       distinct_count_gap(n, r, j, "at_most"),
                       [("T_{j+1}", repeat_window_total(n, r, j + 1))])
    if theorem == "nonresidual_balance":
        return _record(theorem, n, r, j, None,
                       r * divisible_parts_total(n, r, j),
                       [("sum nonresidual mult over D_j",
                         nonresidual_sum_total(n, r, j))])
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
