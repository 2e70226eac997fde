"""Shared test helpers: independent oracles and hypothesis strategies."""

import csv
import io
import json
from dataclasses import dataclass
from functools import cache
from math import comb
from pathlib import Path

from hypothesis import strategies as st

from beckpart import euler_pairs, identities, qseries
from beckpart.enumeration import partitions_of
from beckpart.euler_pairs import EulerPair
from beckpart.identities import (ClassTotals, class_totals, stat_value,
                                 totals_table)
from beckpart.partition import Partition, classify, from_canonical
from beckpart.qseries import KINDS, Series

# The benchmark's regression digests; tests only read them.
EXPECTED = json.loads((Path(__file__).resolve().parent.parent / "perfbench"
                       / "expected.json").read_text(encoding="utf-8"))


def pentagonal_counts(n_max: int) -> list[int]:
    """Partition counts p(0..n_max) via Euler's recurrence with generalized
    pentagonal numbers; independent of every enumeration code path."""
    p = [0] * (n_max + 1)
    p[0] = 1
    for n in range(1, n_max + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > n:
                break
            g2 = k * (3 * k + 1) // 2
            sign = 1 if k % 2 else -1
            total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


@dataclass(frozen=True)
class PartStats:
    """All per-partition statistics for a fixed modulus r.

    ell_mod[t]        number of parts congruent to t (mod r), 0 <= t < r
    ell_bar_resid[t]  number of distinct parts whose multiplicity mod r is
                      >= t; index 0 is vacuous and equals ell_bar
    per_part          (part, mult, mult mod r, mult - mult mod r) per
                      distinct part, decreasing part order
    t_window_count    distinct parts with multiplicity in [r+1, 2r-1]
    """

    r: int
    ell: int
    ell_mod: tuple[int, ...]
    ell_bar_resid: tuple[int, ...]
    ell_bar: int
    per_part: tuple[tuple[int, int, int, int], ...]
    t_window_count: int

    @property
    def nonresidual_total(self) -> int:
        """Sum of nonresidual multiplicities over distinct parts."""
        return sum(nr for _, _, _, nr in self.per_part)


def stats(lam: Partition, r: int) -> PartStats:
    """Compute every modulus-r statistic of ``lam`` in one pass."""
    if r < 2:
        raise ValueError(f"modulus r must be >= 2, got {r}")
    ell = 0
    ell_mod = [0] * r
    resid_hist = [0] * r  # resid_hist[d] = #distinct parts with mult % r == d
    per_part = []
    window = 0
    for part, mult in lam.pairs:
        ell += mult
        ell_mod[part % r] += mult
        d = mult % r
        resid_hist[d] += 1
        per_part.append((part, mult, d, mult - d))
        if r + 1 <= mult <= 2 * r - 1:
            window += 1
    # suffix sums: parts with residual multiplicity >= t
    ell_bar_resid = [0] * r
    running = 0
    for t in range(r - 1, -1, -1):
        running += resid_hist[t]
        ell_bar_resid[t] = running
    return PartStats(r, ell, tuple(ell_mod), tuple(ell_bar_resid),
                     len(lam.pairs), tuple(per_part), window)


@dataclass(frozen=True)
class ClassSpec:
    """Names one constrained class: family O or D, modulus r, index j.

    Family O counts distinct part values divisible by r; family D counts
    distinct part values with multiplicity >= r.  ``mode`` selects exactly-j
    or at-most-j.
    """

    family: str
    r: int
    j: int
    mode: str = "exact"

    def __post_init__(self):
        if self.family not in ("O", "D"):
            raise ValueError(f"family must be 'O' or 'D', got {self.family!r}")
        if self.r < 2:
            raise ValueError(f"modulus r must be >= 2, got {self.r}")
        if self.j < 0:
            raise ValueError(f"class index j must be >= 0, got {self.j}")
        if self.mode not in ("exact", "at_most"):
            raise ValueError(f"mode must be 'exact' or 'at_most', got {self.mode!r}")

    def matches(self, lam: Partition) -> bool:
        idx = classify(lam, self.r)
        got = idx.j_div if self.family == "O" else idx.j_rep
        return got == self.j if self.mode == "exact" else got <= self.j


def enumerate_class(n: int, spec: ClassSpec, *, method: str = "direct"):
    """Yield the members of the class named by ``spec``, each exactly once.

    ``method='filter'`` scans all partitions of n; ``method='direct'``
    generates with branch pruning.  The two are independent routes, and
    both yield in decreasing lexicographic order.
    """
    if method == "filter":
        yield from filter(spec.matches, partitions_of(n))
    elif method == "direct":
        yield from _gen_class(n, n, 0, spec, ())
    else:
        raise ValueError(f"unknown method {method!r}")


def _exact_reachable(need: int, remaining: int, max_part: int,
                     spec: ClassSpec) -> bool:
    # Can `need` more marked distinct values still fit below max_part?  An
    # O value needs a multiple of r; a D value a multiplicity of r or more.
    if need <= 0:
        return True
    if (max_part // spec.r if spec.family == "O" else max_part) < need:
        return False
    return spec.r * need * (need + 1) // 2 <= remaining


def _gen_class(remaining, max_part, count, spec, acc):
    if remaining == 0:
        if spec.mode == "at_most" or count == spec.j:
            yield from_canonical(acc)
        return
    if spec.mode == "exact" and not _exact_reachable(
            spec.j - count, remaining, max_part, spec):
        return
    r, j = spec.r, spec.j
    for part in range(min(max_part, remaining), 1, -1):
        for mult in range(remaining // part, 0, -1):
            marked = (part % r == 0 if spec.family == "O" else mult >= r)
            if marked and count >= j:
                continue
            yield from _gen_class(remaining - part * mult, part - 1,
                                  count + marked, spec, acc + ((part, mult),))
    if max_part >= 1:
        # part 1 forces multiplicity == remaining; 1 is never divisible by r
        final = count + (spec.family == "D" and remaining >= r)
        if final == j or (spec.mode == "at_most" and final < j):
            yield from_canonical(acc + ((1, remaining),))


def count_class(n: int, spec: ClassSpec, *, method: str = "direct") -> int:
    """Size of the class: length of the ``enumerate_class`` stream."""
    return sum(1 for _ in enumerate_class(n, spec, method=method))


def _mk_pairs(m_vec, k_vec) -> list[tuple[int, int]]:
    m_vec, k_vec = tuple(m_vec), tuple(k_vec)
    if len(m_vec) != len(k_vec):
        raise ValueError("m and k tuples must have equal length")
    if any(m <= 0 for m in m_vec) or any(k <= 0 for k in k_vec):
        raise ValueError("m and k components must be positive")
    if len(set(m_vec)) != len(m_vec):
        raise ValueError(f"m components must be distinct, got {m_vec}")
    return list(zip(m_vec, k_vec))


def _fiber(n: int, base: ClassSpec, fixed: Partition):
    # every member of the j=0 class of n - |fixed|, with ``fixed`` adjoined
    if fixed.size <= n:
        for lam in enumerate_class(n - fixed.size, base):
            yield lam.union(fixed)


def enumerate_fixed_divisible(n: int, r: int, m_vec, k_vec):
    """Partitions of n whose parts divisible by r are exactly (m_i*r)^(k_i).

    Over all admissible (m, k) of length j these streams partition the
    exactly-j O-class disjointly.
    """
    base = ClassSpec("O", r, 0)
    return _fiber(n, base, Partition((m * r, k)
                                     for m, k in _mk_pairs(m_vec, k_vec)))


def enumerate_fixed_repeats(n: int, r: int, m_vec, k_vec):
    """Partitions of n whose parts repeated >= r times are exactly the m_i,
    each with nonresidual multiplicity r*k_i (the D-side fiber): each
    partition with no part repeated r times, with m_i^(r*k_i) adjoined."""
    base = ClassSpec("D", r, 0)
    return _fiber(n, base, Partition((m, r * k)
                                     for m, k in _mk_pairs(m_vec, k_vec)))


def fiber_ragged_repeat_count(n: int, r: int, m_vec, k_vec) -> int:
    """In the D-side fiber where the over-repeated parts are exactly the
    m_i with nonresidual multiplicity r*k_i: count distinct parts that
    appear with multiplicity >= r but not divisible by r, over the whole
    fiber."""
    return sum(sum(1 for _, mult in mu.pairs if mult >= r and mult % r)
               for mu in enumerate_fixed_repeats(n, r, m_vec, k_vec))


def index_weight_tuples(j: int, budget: int):
    """Yield all (m, k) j-tuples: m strictly increasing, k positive,
    dot(m, k) <= budget.  Deterministic lexicographic order."""
    if j < 0:
        raise ValueError(f"tuple length j must be >= 0, got {j}")
    if j == 0:
        if budget >= 0:
            yield ((), ())
        return
    yield from _gen_mk(j, budget, 1, (), ())


def _tail_min(m: int, slots: int) -> int:
    # cheapest completion: slots values m+1, ..., m+slots each with k=1
    return slots * m + slots * (slots + 1) // 2


def _gen_mk(j, left, m_min, m_acc, k_acc):
    slots_after = j - len(m_acc) - 1
    m = m_min
    while m + _tail_min(m, slots_after) <= left:
        k = 1
        while m * k + _tail_min(m, slots_after) <= left:
            if slots_after == 0:
                yield (m_acc + (m,), k_acc + (k,))
            else:
                yield from _gen_mk(j, left - m * k, m + 1,
                                   m_acc + (m,), k_acc + (k,))
            k += 1
        m += 1


def record(n: int, r: int) -> ClassTotals:
    """The unrestricted totals record of one (n, r)."""
    return class_totals(r, n)[n]


RECORD_HEADER = ("theorem", "n", "r", "j", "t", "lhs", "rhs1", "rhs2", "ok")


def record_rows(records, *, as_json: bool = False) -> list[tuple]:
    """The CLI row of each ``VerificationRecord`` under RECORD_HEADER: the
    first and second right sides (None when there is one), ok a bool for
    JSON and the text true/false otherwise."""
    return [(rec.theorem, rec.n, rec.r, rec.j, rec.t, rec.lhs, rec.rhs[0][1],
             rec.rhs[1][1] if len(rec.rhs) > 1 else None,
             rec.ok if as_json else "true" if rec.ok else "false")
            for rec in records]


def reference_csv(header, rows) -> str:
    """Header and rows as ``csv.writer`` writes them, one line each, None
    an empty field."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def reference_json(meta: dict, header, rows) -> str:
    """The CLI's JSON document of ``rows`` under ``header``, as one
    ``json.dumps`` of every row dict with indent 2."""
    return json.dumps({"meta": meta, "records": [
        dict(zip(header, row)) for row in rows]}, indent=2) + "\n"


def count_table_builds(monkeypatch) -> list[tuple[int, int]]:
    """Record the (r, n_max) of every ``totals_table`` build from here on.
    euler_pairs imports it by name, so both modules' names are patched."""
    builds = []

    def spy(r, n_max, s1, s2):
        builds.append((r, n_max))
        return totals_table(r, n_max, s1, s2)
    for module in (identities, euler_pairs):
        monkeypatch.setattr(module, "totals_table", spy)
    return builds


def reference_part_value_dp(n_max: int, width: int, step, parts
                            ) -> list[dict[int, list[int]]]:
    """rows[n][j] = [size, *sums] over the partitions of n into the given
    parts with exactly j marked distinct parts, for every n <= n_max; j is
    absent when there are none.  Parts above n_max are skipped.

    ``step(p, m)`` returns (mark, sums) for part p taken m times: mark is
    1 when that part counts towards j, sums its width - 1 contributions.
    Part values are added one at a time, n walks downwards so each source
    row n - p*m still holds the partitions without part p, and every
    multiplicity m <= n/p of every part is its own step over every j: the
    per-multiplicity reference for the packed program of ``identities``.
    A row vector is packed into one int of ``_lane_bits`` lanes.
    """
    bits = identities._lane_bits(n_max)
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


def reference_totals_table(r: int, n_max: int, s1, s2) -> list[ClassTotals]:
    """``identities.totals_table`` over every j, from the per-multiplicity
    reference program with every field its own lane."""
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

    o_rows = reference_part_value_dp(n_max, 3 + r, o_step, marked.union(s2))
    d_rows = reference_part_value_dp(n_max, 5 + r, d_step, s1)
    # tuple_rows[w][j] = [number of index j-tuples of weight w]
    tuple_rows = reference_part_value_dp(n_max // r, 1, lambda p, m: (1, []),
                                         s1)
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
            {j: vec[5:] for j, vec in d_row.items()},
            {j: v for j, v in o1_tuples.items() if v}))
    return tables


def total_of(tot: ClassTotals, field: str, j: int, t: int = 0) -> int:
    """Class j's entry of one field of a totals record, column t of a
    per-residue field; 0 when the class is empty."""
    value = getattr(tot, field).get(j, 0)
    return value[t] if isinstance(value, list) else value


def assert_same_totals(got, want, label) -> None:
    """Every field of two totals records is equal."""
    for field in type(want)._fields:
        # dict equality also compares the key sets: a class index is
        # present exactly when its class is non-empty
        assert getattr(got, field) == getattr(want, field), (label, field)


def _add_o(tot: ClassTotals, j: int, st_) -> None:
    """Scatter one O-class partition's ``stats`` into class j of ``tot``."""
    tot.o_count[j] = tot.o_count.get(j, 0) + 1
    tot.o_parts[j] = tot.o_parts.get(j, 0) + st_.ell
    tot.o_distinct[j] = tot.o_distinct.get(j, 0) + st_.ell_bar
    row = tot.o_parts_mod.setdefault(j, [0] * st_.r)
    for t in range(st_.r):
        row[t] += st_.ell_mod[t]


def _add_d(tot: ClassTotals, j: int, st_) -> None:
    """Scatter one D-class partition's ``stats`` into class j of ``tot``."""
    tot.d_count[j] = tot.d_count.get(j, 0) + 1
    tot.d_parts[j] = tot.d_parts.get(j, 0) + st_.ell
    tot.d_distinct[j] = tot.d_distinct.get(j, 0) + st_.ell_bar
    tot.d_nonresid[j] = tot.d_nonresid.get(j, 0) + st_.nonresidual_total
    tot.d_window[j] = tot.d_window.get(j, 0) + st_.t_window_count
    depth = tot.d_depth.setdefault(j, [0] * st_.r)
    for t in range(st_.r):
        depth[t] += st_.ell_bar_resid[t]


def _add_o1_tuples(tot: ClassTotals, n: int, r: int, o1_count,
                   index_ok=lambda m_vec: True) -> None:
    """diff3's left side: for each j, sum o1_count(n - r*w) over the index
    j-tuples of weight w <= n/r whose parts all pass ``index_ok``, kept
    when the sum is non-zero."""
    j = 0
    while True:
        tuples = [(mv, kv) for mv, kv in index_weight_tuples(j, n // r)
                  if index_ok(mv)]
        if not tuples:  # a longer tuple weighs more still
            return
        total = sum(o1_count(n - r * sum(m * k for m, k in zip(mv, kv)))
                    for mv, kv in tuples)
        if total:
            tot.o1_tuples[j] = total
        j += 1


def _empty_totals() -> ClassTotals:
    return ClassTotals(*({} for _ in ClassTotals._fields))


@cache
def enumerated_o1_count(n: int, r: int) -> int:
    """|O_1(n)|: partitions of n with exactly one distinct part divisible
    by r, counted by walking every partition of n."""
    return sum(1 for lam in partitions_of(n)
               if sum(1 for p, _ in lam.pairs if p % r == 0) == 1)


def enumerated_class_totals(n: int, r: int) -> ClassTotals:
    """ClassTotals by walking every partition of n and scattering its
    ``stats`` into the accumulators of its two classes, and diff3's left
    side by summing |O_1| over every index tuple: the small-n oracle for
    the part-value dynamic program in ``identities``."""
    tot = _empty_totals()
    for lam in partitions_of(n):
        st_ = stats(lam, r)
        _add_o(tot, sum(1 for p, _ in lam.pairs if p % r == 0), st_)
        _add_d(tot, sum(1 for _, m in lam.pairs if m >= r), st_)
    _add_o1_tuples(tot, n, r, lambda k: enumerated_o1_count(k, r))
    return tot


def restricted_partitions(n: int, values_desc: tuple[int, ...]):
    """Canonical (part, mult) tuples of the partitions of n with parts
    drawn from the given strictly decreasing value list."""
    def rec(remaining, idx, acc):
        if remaining == 0:
            yield acc
            return
        for i in range(idx, len(values_desc)):
            v = values_desc[i]
            if v > remaining:
                continue
            for mult in range(remaining // v, 0, -1):
                yield from rec(remaining - v * mult, i + 1, acc + ((v, mult),))
    yield from rec(n, 0, ())


def _o_values(pair: EulerPair) -> tuple[frozenset[int], tuple[int, ...]]:
    """The pair's marked O parts r*S1, and every allowed O part, in
    decreasing order."""
    marked = frozenset(pair.r * s for s in pair.s1
                       if pair.r * s <= pair.bound)
    return marked, tuple(sorted(marked.union(pair.s2), reverse=True))


@cache
def enumerated_tilde_o1_count(pair: EulerPair, n: int) -> int:
    """|O~_1(n)|: the pair's O-class partitions of n with exactly one
    distinct part from r*S1, counted by walking them all."""
    marked, allowed = _o_values(pair)
    return sum(1 for pairs in restricted_partitions(n, allowed)
               if sum(1 for p, _ in pairs if p in marked) == 1)


def enumerated_tilde_totals(pair: EulerPair, n: int) -> ClassTotals:
    """The pair's ClassTotals by walking every restricted partition of n
    once per family and scattering its ``stats``, and diff3's left side by
    summing |O~_1| over every index tuple with parts in S1: the small-n
    oracle for the part-value dynamic program on a pair."""
    r = pair.r
    tot = _empty_totals()
    marked, allowed = _o_values(pair)
    for pairs in restricted_partitions(n, allowed):
        _add_o(tot, sum(1 for p, _ in pairs if p in marked),
               stats(Partition(pairs), r))
    for pairs in restricted_partitions(n, tuple(sorted(pair.s1,
                                                       reverse=True))):
        _add_d(tot, sum(1 for _, m in pairs if m >= r),
               stats(Partition(pairs), r))
    s1 = frozenset(pair.s1)
    _add_o1_tuples(tot, n, r, lambda k: enumerated_tilde_o1_count(pair, k),
                   lambda m_vec: s1.issuperset(m_vec))
    return tot


def glaisher_reference(lam: Partition, r: int) -> Partition:
    """Glaisher's map from its definition, with no precondition check:
    each part p^m with m = sum(a_v * r^v) becomes the union of the
    (p*r^v)^(a_v).  Shares no code with ``bijections``."""
    image = Partition()
    for p, m in lam.pairs:
        for v in range(m.bit_length()):  # r^v >= 2^v > m beyond this
            a = m // r ** v % r
            if a:
                image = image.union(Partition([(p * r ** v, a)]))
    return image


def glaisher_inverse_reference(mu: Partition, r: int) -> Partition:
    """The inverse from its definition: each part (s*r^v)^a, with s not
    divisible by r, becomes s^(a*r^v), and the images are united."""
    image = Partition()
    for q, a in mu.pairs:
        v = max(v for v in range(q.bit_length()) if q % r ** v == 0)
        image = image.union(Partition([(q // r ** v, a * r ** v)]))
    return image


def composed_franklin_map(lam: Partition, r: int) -> Partition:
    """Franklin's map as the paper builds it: strip each divisible part
    (m*r)^k, apply Glaisher's map to the rest, then take the union with
    the adjoined m^(k*r).  The oracle for the one-pass ``franklin_map``."""
    rest = Partition((p, m) for p, m in lam.pairs if p % r)
    stripped = Partition((p // r, m * r) for p, m in lam.pairs
                         if p % r == 0)
    return glaisher_reference(rest, r).union(stripped)


def composed_franklin_inverse(mu: Partition, r: int) -> Partition:
    """The paper's inverse: split each multiplicity a = k*r + d, apply
    Glaisher's inverse to the parts with their remainders d, then take
    the union with the adjoined (part*r)^k."""
    rest = Partition((p, m % r) for p, m in mu.pairs if m % r)
    stripped = Partition((p * r, m // r) for p, m in mu.pairs if m >= r)
    return glaisher_inverse_reference(rest, r).union(stripped)


def assert_canonical(lam: Partition, size: int) -> None:
    """``lam`` is in the form ``Partition`` would build: a plain
    ``Partition`` whose pairs are a tuple of (int, int) tuples, positive
    parts, strictly decreasing, every multiplicity >= 1, hashing as the
    validated rebuild does, and its parts summing to ``size``, the size
    the caller knows it must have.  Guards maps that skip validation and
    share pair objects with their input."""
    assert type(lam) is Partition, type(lam)
    assert type(lam.pairs) is tuple, lam.pairs
    assert all(type(pair) is tuple and len(pair) == 2
               and type(pair[0]) is int and type(pair[1]) is int
               for pair in lam.pairs), lam.pairs
    assert hash(lam) == hash(Partition(lam.pairs)), lam.pairs
    parts = [p for p, _ in lam.pairs]
    assert all(p >= 1 for p in parts), lam.pairs
    assert all(a > b for a, b in zip(parts, parts[1:])), lam.pairs
    assert all(m >= 1 for _, m in lam.pairs), lam.pairs
    assert sum(p * m for p, m in lam.pairs) == size, (lam.pairs, size)


def reference_times_count_product(X: list[int], r: int, B: int,
                                  M: int) -> list[int]:
    """X times C(q, w) as packed rows (the lanes of ``qseries``), one marked
    factor at a time: a descending masked step per factor 1 - (1-w)q^p,
    p = r, 2r, ... (b << B is w*b), about N^2/(2r) row steps.  The
    per-factor reference for the Euler expansion of
    ``qseries._times_count_product``; X is left as it is.  The division
    by prod_k (1 - q^k) is that function's at a modulus above N, where C
    has no marked factor below q^(N+1)."""
    X = X[:]
    N = len(X) - 1
    for p in range(r, N + 1, r):
        for n in range(N, p - 1, -1):
            b = X[n - p]
            X[n] = (X[n] - b + (b << B)) & M
    qseries._times_count_product(X, N + 1, B, M)
    return X


# -- series product forms ----------------------------------------------------
# ``qseries.series`` writes one sparse multiplier as packed rows and applies
# the count product's factors to them in place; it has no general product.
# These build the same generating functions with ``mul``, one general
# product per factor, so the reference shares no product code with the
# route it checks.

def _check_compatible(a: Series, b: Series) -> None:
    if a.N != b.N or a.J != b.J:
        raise ValueError(f"mismatched truncation bounds: ({a.N},{a.J}) vs "
                         f"({b.N},{b.J})")


def one(N: int, J: int) -> Series:
    s = Series(N, J)
    s.c[0][0] = 1
    return s


def nnz(s: Series) -> int:
    return sum(1 for _ in s.items())


def add(a: Series, b: Series, sign: int = 1) -> Series:
    """a + sign * b."""
    _check_compatible(a, b)
    return Series(a.N, a.J, [[x + sign * y for x, y in zip(ra, rb)]
                             for ra, rb in zip(a.c, b.c)])


def sub(a: Series, b: Series) -> Series:
    return add(a, b, -1)


def scale(s: Series, factor: int) -> Series:
    return Series(s.N, s.J, [[factor * v for v in row] for row in s.c])


def shift(s: Series, dn: int, dj: int = 0) -> Series:
    """Multiply by q^dn w^dj; coefficients past the bounds are dropped."""
    out = Series(s.N, s.J)
    for n, j, v in s.items():
        if n + dn <= s.N and j + dj <= s.J:
            out.c[n + dn][j + dj] = v
    return out


def mul(a: Series, b: Series) -> Series:
    """a * b, truncated to the common bounds."""
    _check_compatible(a, b)
    # iterate the sparser operand's nonzeros against the other's table
    if nnz(a) < nnz(b):
        a, b = b, a
    N, J = a.N, a.J
    out = Series(N, J)
    for n2, j2, v2 in b.items():
        for n1 in range(N - n2 + 1):
            row, orow = a.c[n1], out.c[n1 + n2]
            for j1 in range(J - j2 + 1):
                v1 = row[j1]
                if v1:
                    orow[j1 + j2] += v1 * v2
    return out


def monomial(N: int, J: int, n: int, j: int = 0, coeff: int = 1) -> Series:
    s = Series(N, J)
    if n <= N and j <= J:
        s.c[n][j] = coeff
    return s


def geometric_factor(k: int, N: int, J: int) -> Series:
    """1/(1 - q^k) = 1 + q^k + q^(2k) + ..."""
    if k < 1:
        raise ValueError(f"exponent k must be >= 1, got {k}")
    s = Series(N, J)
    for i in range(0, N // k + 1):
        s.c[i * k][0] = 1
    return s


def repeat_marker(p: int, N: int, J: int) -> Series:
    """1 + w*q^p/(1 - q^p): one distinct part value p, marked by w."""
    if p < 1:
        raise ValueError(f"part value p must be >= 1, got {p}")
    s = one(N, J)
    if J >= 1:
        for i in range(1, N // p + 1):
            s.c[i * p][1] = 1
    return s


def finite_run(p: int, lo: int, hi: int, N: int, J: int) -> Series:
    """q^(lo*p) + ... + q^((hi-1)*p): part p with multiplicity in [lo, hi)."""
    s = Series(N, J)
    for d in range(lo, hi):
        if d * p <= N:
            s.c[d * p][0] = 1
    return s


def one_minus_w(N: int, J: int) -> Series:
    s = one(N, J)
    if J >= 1:
        s.c[0][1] = -1
    return s


def marked_geometric(p: int, N: int, J: int) -> Series:
    """1/(1 - (1-w)*q^p) = sum_i (1-w)^i q^(p*i), with (1-w)^i expanded
    to a w-polynomial and truncated at degree J."""
    if p < 1:
        raise ValueError(f"exponent p must be >= 1, got {p}")
    s = Series(N, J)
    for i in range(0, N // p + 1):
        row = s.c[i * p]
        for sgn in range(min(i, J) + 1):
            row[sgn] = -comb(i, sgn) if sgn % 2 else comb(i, sgn)
    return s


def lambert_by_parts(r: int, t: int, N: int, J: int) -> Series:
    """sum over parts p = t, t+r, t+2r, ... of q^p/(1 - q^p)."""
    s = Series(N, J)
    for p in range(t, N + 1, r):
        for i in range(1, N // p + 1):
            s.c[i * p][0] += 1
    return s


def lambert_by_mult(r: int, t: int, N: int, J: int) -> Series:
    """sum over m >= 1 of q^(t*m)/(1 - q^(r*m)); equals
    ``lambert_by_parts(r, t, ...)`` as a truncated series."""
    s = Series(N, J)
    for m in range(1, N // t + 1):
        for e in range(t * m, N + 1, r * m):
            s.c[e][0] += 1
    return s


def product(factors, N: int, J: int) -> Series:
    s = one(N, J)
    for f in factors:
        s = mul(s, f)
    return s


def _d_factor(m: int, r: int, N: int, J: int) -> Series:
    """The D product's factor for part m: repeat_marker(rm) * (1 + q^m +
    ... + q^((r-1)m))."""
    return mul(repeat_marker(r * m, N, J), finite_run(m, 0, r, N, J))


@cache
def count_product(family: str, r: int, N: int, J: int) -> Series:
    if family == "O":
        factors = [repeat_marker(r * m, N, J) for m in range(1, N // r + 1)]
        factors += [geometric_factor(k, N, J)
                    for k in range(1, N + 1) if k % r]
    else:
        factors = [_d_factor(m, r, N, J) for m in range(1, N + 1)]
    return product(factors, N, J)


@cache
def _d_products_without(r: int, N: int, J: int) -> list[Series | None]:
    """[m] = the D product over every part k != m, for m = 1..N."""
    factors = [None] + [_d_factor(m, r, N, J) for m in range(1, N + 1)]
    prefix = [one(N, J)]
    for m in range(1, N + 1):
        prefix.append(mul(prefix[-1], factors[m]))
    suffix = [one(N, J)] * (N + 2)
    for m in range(N, 0, -1):
        suffix[m] = mul(factors[m], suffix[m + 1])
    return [None] + [mul(prefix[m - 1], suffix[m + 1])
                     for m in range(1, N + 1)]


def leave_one_out(r: int, N: int, J: int, part_term) -> Series:
    """sum_m part_term(m) * prod_{k != m} F_k: the D product with part m's
    factor F_m replaced by the series of the part m being counted."""
    total = Series(N, J)
    rest = _d_products_without(r, N, J)
    for m in range(1, N + 1):
        term = part_term(m)
        if nnz(term):
            total = add(total, mul(term, rest[m]))
    return total


def marked_block_product(r: int, N: int, J: int) -> Series:
    total = Series(N, J)
    for m in range(1, N // r + 1):
        p = r * m
        total = add(total, shift(
            mul(geometric_factor(p, N, J), marked_geometric(p, N, J)), p, 1))
    return total


def distinct_multiplier(family: str, r: int, N: int, J: int) -> Series:
    total = Series(N, J)
    if family == "O":
        for m in range(1, N + 1):
            if m % r:
                total = add(total, monomial(N, J, m))
        for m in range(1, N // r + 1):
            total = add(total, shift(marked_geometric(r * m, N, J), r * m, 1))
    else:
        for m in range(1, N + 1):
            total = add(total, sub(one(N, J), mul(
                sub(one(N, J), monomial(N, J, m)),
                marked_geometric(r * m, N, J))))
    return total


def beck_delta_multiplier(r: int, N: int, J: int) -> Series:
    total = Series(N, J)
    for m in range(1, N // r + 1):
        total = add(total, sub(marked_geometric(r * m, N, J), one(N, J)))
    return total


def product_form(kind: str, r: int, t: int | None, N: int,
                 J: int) -> Series:
    """``qseries.series(kind, r, t, N, J)`` from its product form."""
    if kind == "residual-depth":
        # part m with residual multiplicity t..r-1, any multiple of r more
        return leave_one_out(r, N, J, lambda m: mul(repeat_marker(
            r * m, N, J), finite_run(m, t, r, N, J)))
    if kind == "repeat-window":
        # multiplicity r+1..2r-1; its one w is dropped (exactly-(j+1))
        return leave_one_out(r, N, J,
                             lambda m: finite_run(m, r + 1, 2 * r, N, J))
    family, multiplier = {
        "count-O": ("O", lambda: one(N, J)),
        "count-D": ("D", lambda: one(N, J)),
        "congruent-parts": ("O", lambda: lambert_by_parts(r, t, N, J)),
        "divisible-parts": ("O", lambda: marked_block_product(r, N, J)),
        "nonresidual-sum": ("D", lambda: scale(
            marked_block_product(r, N, J), r)),
        "distinct-O": ("O", lambda: distinct_multiplier("O", r, N, J)),
        "distinct-D": ("D", lambda: distinct_multiplier("D", r, N, J)),
        "beck-delta": ("O", lambda: beck_delta_multiplier(r, N, J)),
    }[kind]
    return mul(count_product(family, r, N, J), multiplier())


def series_tables(r: int):
    """(kind, t) of every `beckpart series` table at modulus r."""
    return [(kind, t) for kind, needs_t in KINDS.items()
            for t in (range(1, r) if needs_t else (None,))]


_TOTALS_FIELD = {"congruent-parts": "o_parts_mod", "residual-depth": "d_depth",
                 "divisible-parts": "o_parts_mod", "nonresidual-sum":
                 "d_nonresid", "distinct-O": "o_distinct",
                 "distinct-D": "d_distinct"}


def dp_total(kind: str, tot: ClassTotals, j: int, t: int | None) -> int:
    """The value of totals record ``tot`` (of n) that [q^n w^j] of kind's
    series equals."""
    if kind in ("count-O", "count-D"):
        return stat_value(tot, f"count_{kind[-1]}", j)
    if kind == "beck-delta":
        return stat_value(tot, "modular-gap", j, t=t)
    if kind == "repeat-window":
        return stat_value(tot, "repeat-window", j + 1)
    return total_of(tot, _TOTALS_FIELD[kind], j, t or 0)

partitions = st.lists(
    st.integers(min_value=1, max_value=12), max_size=10
).map(lambda parts: Partition((p, 1) for p in parts))


def partitions_avoiding_multiples(r: int, max_part: int = 13,
                                  max_len: int = 10):
    """Partitions with no part divisible by r."""
    values = [v for v in range(1, max_part + 1) if v % r]
    return st.lists(st.sampled_from(values), max_size=max_len).map(
        lambda parts: Partition((p, 1) for p in parts))


def partitions_with_low_multiplicity(r: int, max_part: int = 12,
                                     max_distinct: int = 6):
    """Partitions with every multiplicity below r."""
    return st.dictionaries(
        keys=st.integers(min_value=1, max_value=max_part),
        values=st.integers(min_value=1, max_value=r - 1),
        max_size=max_distinct,
    ).map(lambda d: Partition(d.items()))


def partitions_with_high_multiplicity(r: int, max_part: int = 40,
                                      max_distinct: int = 6):
    """Partitions whose multiplicities are all at least r^2, so that
    Glaisher's rewrite expands them into two or more base-r digits."""
    return st.dictionaries(
        keys=st.integers(min_value=1, max_value=max_part),
        values=st.integers(min_value=r * r, max_value=r ** 4),
        max_size=max_distinct,
    ).map(lambda d: Partition(d.items()))
