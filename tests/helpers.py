"""Shared test helpers: independent oracles and hypothesis strategies."""

from hypothesis import strategies as st

from beckpart.enumeration import partitions_of
from beckpart.identities import ClassTotals
from beckpart.partition import Partition, stats


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


def enumerated_class_totals(n: int, r: int) -> ClassTotals:
    """ClassTotals by walking every partition of n and scattering its
    ``stats`` into the accumulators of its two classes: the small-n oracle
    for the part-value dynamic program in ``identities``."""
    tot = ClassTotals(n, r)
    for lam in partitions_of(n):
        st_ = stats(lam, r)
        j_div = sum(1 for p, _ in lam.pairs if p % r == 0)
        j_rep = sum(1 for _, m in lam.pairs if m >= r)

        tot.o_count[j_div] = tot.o_count.get(j_div, 0) + 1
        tot.o_parts[j_div] = tot.o_parts.get(j_div, 0) + st_.ell
        tot.o_distinct[j_div] = tot.o_distinct.get(j_div, 0) + st_.ell_bar
        row = tot.o_parts_mod.setdefault(j_div, [0] * r)
        for t in range(r):
            row[t] += st_.ell_mod[t]

        tot.d_count[j_rep] = tot.d_count.get(j_rep, 0) + 1
        tot.d_parts[j_rep] = tot.d_parts.get(j_rep, 0) + st_.ell
        tot.d_distinct[j_rep] = tot.d_distinct.get(j_rep, 0) + st_.ell_bar
        tot.d_nonresid[j_rep] = (tot.d_nonresid.get(j_rep, 0)
                                 + st_.nonresidual_total)
        tot.d_window[j_rep] = tot.d_window.get(j_rep, 0) + st_.t_window_count
        depth = tot.d_depth.setdefault(j_rep, [0] * r)
        for t in range(r):
            depth[t] += st_.ell_bar_resid[t]
    return tot


partitions = st.lists(
    st.integers(min_value=1, max_value=12), max_size=10
).map(Partition.from_parts)


def partitions_avoiding_multiples(r: int, max_part: int = 13,
                                  max_len: int = 10):
    """Partitions with no part divisible by r."""
    values = [v for v in range(1, max_part + 1) if v % r]
    return st.lists(st.sampled_from(values), max_size=max_len).map(
        Partition.from_parts)


def partitions_with_low_multiplicity(r: int, max_part: int = 12,
                                     max_distinct: int = 6):
    """Partitions with every multiplicity below r."""
    return st.dictionaries(
        keys=st.integers(min_value=1, max_value=max_part),
        values=st.integers(min_value=1, max_value=r - 1),
        max_size=max_distinct,
    ).map(lambda d: Partition(d.items()))
