"""Deterministic partition streams, plain and class-constrained.

Two independent routes are provided for every constrained class: a direct
backtracking generator (the fast path) and a filter over ``partitions_of``
(the trusted baseline).  Tests assert they agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .partition import Partition, classify

# Guard against accidental combinatorial explosion: p(120) ~ 1.8e9.
MAX_ENUM_N = 120


def _check_n(n: int, max_n: int) -> None:
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n > max_n:
        raise ValueError(f"n={n} exceeds enumeration bound {max_n}")


def partitions_of(n: int, *, max_n: int = MAX_ENUM_N) -> Iterator[Partition]:
    """Yield every partition of n once, in decreasing lexicographic order."""
    _check_n(n, max_n)
    yield from _gen_plain(n, n, ())


def _gen_plain(remaining: int, max_part: int,
               acc: tuple[tuple[int, int], ...]) -> Iterator[Partition]:
    if remaining == 0:
        yield Partition._from_canonical(acc)
        return
    for part in range(min(max_part, remaining), 1, -1):
        for mult in range(remaining // part, 0, -1):
            yield from _gen_plain(remaining - part * mult, part - 1,
                                  acc + ((part, mult),))
    if max_part >= 1:
        yield Partition._from_canonical(acc + ((1, remaining),))


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


def enumerate_class(n: int, spec: ClassSpec, *, method: str = "direct",
                    max_n: int = MAX_ENUM_N) -> Iterator[Partition]:
    """Yield the members of the class named by ``spec``, each exactly once.

    ``method='filter'`` scans all partitions of n (the oracle route);
    ``method='direct'`` generates with branch pruning.  Both yield in
    decreasing lexicographic order.
    """
    _check_n(n, max_n)
    if method == "filter":
        for lam in partitions_of(n, max_n=max_n):
            if spec.matches(lam):
                yield lam
    elif method == "direct":
        yield from _gen_class(n, n, 0, spec, ())
    else:
        raise ValueError(f"unknown method {method!r}")


def _exact_reachable(need: int, remaining: int, max_part: int, spec: ClassSpec) -> bool:
    # Can `need` more marked distinct values still fit below max_part?
    if need <= 0:
        return True
    r = spec.r
    if spec.family == "O":
        # need distinct multiples of r, each used at least once
        if max_part // r < need:
            return False
        return r * need * (need + 1) // 2 <= remaining
    # family D: need distinct values, each with multiplicity >= r
    if max_part < need:
        return False
    return r * need * (need + 1) // 2 <= remaining


def _gen_class(remaining: int, max_part: int, count: int, spec: ClassSpec,
               acc: tuple[tuple[int, int], ...]) -> Iterator[Partition]:
    if remaining == 0:
        if spec.mode == "at_most" or count == spec.j:
            yield Partition._from_canonical(acc)
        return
    if spec.mode == "exact" and not _exact_reachable(
            spec.j - count, remaining, max_part, spec):
        return
    r, j = spec.r, spec.j
    for part in range(min(max_part, remaining), 1, -1):
        top = remaining // part
        if spec.family == "O":
            marked = part % r == 0
            if marked and count >= j:
                continue
            new_count = count + 1 if marked else count
            for mult in range(top, 0, -1):
                yield from _gen_class(remaining - part * mult, part - 1,
                                      new_count, spec, acc + ((part, mult),))
        else:
            for mult in range(top, 0, -1):
                marked = mult >= r
                if marked and count >= j:
                    continue
                yield from _gen_class(remaining - part * mult, part - 1,
                                      count + 1 if marked else count, spec,
                                      acc + ((part, mult),))
    if max_part >= 1:
        # part 1 forces multiplicity == remaining; 1 is never divisible by r
        marked = spec.family == "D" and remaining >= r
        final = count + 1 if marked else count
        if (spec.mode == "at_most" and final <= j) or (
                spec.mode == "exact" and final == j):
            yield Partition._from_canonical(acc + ((1, remaining),))


def count_class(n: int, spec: ClassSpec, *, method: str = "direct",
                max_n: int = MAX_ENUM_N) -> int:
    """Size of the class: length of the ``enumerate_class`` stream."""
    return sum(1 for _ in enumerate_class(n, spec, method=method, max_n=max_n))


def _canonical_mk(m_vec, k_vec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    m_vec, k_vec = tuple(m_vec), tuple(k_vec)
    if len(m_vec) != len(k_vec):
        raise ValueError("m and k tuples must have equal length")
    if any(m <= 0 for m in m_vec) or any(k <= 0 for k in k_vec):
        raise ValueError("m and k components must be positive")
    if len(set(m_vec)) != len(m_vec):
        raise ValueError(f"m components must be distinct, got {m_vec}")
    order = sorted(range(len(m_vec)), key=lambda i: m_vec[i])
    return (tuple(m_vec[i] for i in order), tuple(k_vec[i] for i in order))


def enumerate_fixed_divisible(n: int, r: int, m_vec, k_vec, *,
                              max_n: int = MAX_ENUM_N) -> Iterator[Partition]:
    """Partitions of n whose parts divisible by r are exactly (m_i*r)^(k_i).

    The (m, k) pairs are canonicalized to strictly increasing m.  Over all
    admissible (m, k) of length j these streams partition the exactly-j
    O-class disjointly.
    """
    if r < 2:
        raise ValueError(f"modulus r must be >= 2, got {r}")
    _check_n(n, max_n)
    m_vec, k_vec = _canonical_mk(m_vec, k_vec)
    fixed_total = r * sum(m * k for m, k in zip(m_vec, k_vec))
    if fixed_total > n:
        return
    fixed = Partition((m * r, k) for m, k in zip(m_vec, k_vec))
    base = ClassSpec("O", r, 0)
    for lam in enumerate_class(n - fixed_total, base, max_n=max_n):
        yield lam.union(fixed)


def enumerate_fixed_repeats(n: int, r: int, m_vec, k_vec, *,
                            max_n: int = MAX_ENUM_N) -> Iterator[Partition]:
    """Partitions of n whose parts repeated >= r times are exactly the m_i,
    each with nonresidual multiplicity r*k_i (the D-side fiber).

    Constructed by adjoining m_i^(r*k_i) to each partition with no part
    repeated r times; this hits every fiber member exactly once.
    """
    if r < 2:
        raise ValueError(f"modulus r must be >= 2, got {r}")
    _check_n(n, max_n)
    m_vec, k_vec = _canonical_mk(m_vec, k_vec)
    fixed_total = r * sum(m * k for m, k in zip(m_vec, k_vec))
    if fixed_total > n:
        return
    fixed = Partition((m, r * k) for m, k in zip(m_vec, k_vec))
    base = ClassSpec("D", r, 0)
    for mu in enumerate_class(n - fixed_total, base, max_n=max_n):
        yield mu.union(fixed)


def fiber_ragged_repeat_count(n: int, r: int, m_vec, k_vec) -> int:
    """In the D-side fiber where the over-repeated parts are exactly the
    m_i with nonresidual multiplicity r*k_i: count distinct parts that
    appear with multiplicity >= r but not divisible by r, over the whole
    fiber."""
    total = 0
    for mu in enumerate_fixed_repeats(n, r, m_vec, k_vec):
        total += sum(1 for _, mult in mu.pairs if mult >= r and mult % r != 0)
    return total


def index_weight_tuples(j: int, budget: int) -> Iterator[
        tuple[tuple[int, ...], tuple[int, ...]]]:
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
