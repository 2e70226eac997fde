import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beckpart import cli
from beckpart import identities as ids
from beckpart import qseries as qs
from beckpart.qseries import Series
from helpers import EXPECTED, pentagonal_counts, total_of

small_series = st.builds(
    lambda rows: Series(4, 2, rows),
    st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
             min_size=5, max_size=5))


def test_one_is_multiplicative_identity():
    s = qs.geometric_factor(2, 10, 3)
    assert s * qs.one(10, 3) == s
    assert qs.one(10, 3) * s == s
    assert (s * qs.zero(10, 3)).nnz() == 0


@settings(max_examples=60)
@given(small_series, small_series, small_series)
def test_ring_laws_under_truncation(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a


def test_mismatched_bounds_raise():
    with pytest.raises(ValueError, match="mismatched truncation"):
        qs.one(5, 2) * qs.one(6, 2)
    with pytest.raises(ValueError, match="mismatched truncation"):
        qs.one(5, 2) + qs.one(5, 3)


def test_truncation_cap():
    with pytest.raises(ValueError, match="exceeds cap"):
        qs.one(121, 0)


def test_scaling_and_shift():
    s = qs.monomial(6, 2, 2, 1, coeff=3)
    assert (2 * s)[2, 1] == 6
    assert s.scale(-1)[2, 1] == -3
    assert s.shift(3, 1)[5, 2] == 3
    assert s.shift(5, 0).nnz() == 0  # dropped past the q bound


def test_repeat_marker_leading_term():
    assert qs.repeat_marker(2, 8, 2)[2, 1] == 1
    assert qs.repeat_marker(2, 8, 2)[0, 0] == 1
    assert qs.repeat_marker(2, 8, 2)[4, 1] == 1


def test_marked_geometric_inverts_its_denominator():
    for p in (1, 3):
        denom = qs.one(12, 4)
        denom.c[p][0] -= 1  # subtract (1-w) q^p
        denom.c[p][1] += 1
        assert denom * qs.marked_geometric(p, 12, 4) == qs.one(12, 4)


def test_geometric_product_counts_partitions():
    N = 60
    s = qs.one(N, 0)
    for k in range(1, N + 1):
        s = s * qs.geometric_factor(k, N, 0)
    oracle = pentagonal_counts(N)
    assert [s[n, 0] for n in range(N + 1)] == oracle
    assert s[9, 0] == 30


def test_lambert_identity_both_orders():
    N = 40
    for r in (2, 3, 4):
        for t in range(1, r):
            assert qs.lambert_by_parts(r, t, N, 0) == \
                qs.lambert_by_mult(r, t, N, 0)


def test_count_series_spot_values():
    s = qs.count_series("O", 2, 10, 3)
    assert s[5, 0] == 3
    assert s[4, 1] == 3
    assert s[0, 0] == 1
    assert qs.count_series("D", 3, 10, 2)[0, 0] == 1


def test_derivative_series_spot_values():
    assert qs.congruent_parts_series(3, 1, 8, 2)[4, 0] == 7
    assert qs.residual_depth_series(2, 1, 8, 2)[4, 0] == 3
    assert qs.divisible_parts_series(2, 8, 2)[4, 1] == 4


def test_beck_delta_spot_values_and_t_independence():
    assert qs.beck_delta_series(2, 1, 8, 2)[4, 0] == 3
    assert qs.beck_delta_series(3, 1, 8, 2)[4, 0] == 1
    assert qs.beck_delta_series(3, 2, 8, 2) == qs.beck_delta_series(3, 1, 8, 2)
    s = qs.beck_delta_series(4, 3, 8, 2)
    assert all(s[0, j] == 0 for j in range(3))


def test_repeat_window_spot_values():
    s = qs.repeat_window_series(2, 10, 2)
    assert s[3, 0] == 1
    assert s[4, 0] == 0
    for r in (2, 3):
        s = qs.repeat_window_series(r, 10, 2)
        for n in range(r + 1):
            assert all(s[n, j] == 0 for j in range(3))


@pytest.mark.parametrize("r", [2, 3])
def test_all_series_match_enumeration(r):
    N, J = 14, 3
    checks = [(qs.count_series("O", r, N, J),
               lambda n, j: ids.class_count("O", n, r, j)),
              (qs.count_series("D", r, N, J),
               lambda n, j: ids.class_count("D", n, r, j)),
              (qs.divisible_parts_series(r, N, J),
               lambda n, j: total_of(n, r, "o_parts_mod", j)),
              (qs.nonresidual_sum_series(r, N, J),
               lambda n, j: total_of(n, r, "d_nonresid", j)),
              (qs.distinct_parts_series("O", r, N, J),
               lambda n, j: total_of(n, r, "o_distinct", j)),
              (qs.distinct_parts_series("D", r, N, J),
               lambda n, j: total_of(n, r, "d_distinct", j)),
              (qs.repeat_window_series(r, N, J),
               lambda n, j: ids.repeat_window_total(n, r, j + 1))]
    for t in range(1, r):
        checks += [(qs.congruent_parts_series(r, t, N, J),
                    lambda n, j, t=t: total_of(n, r, "o_parts_mod", j, t)),
                   (qs.residual_depth_series(r, t, N, J),
                    lambda n, j, t=t: total_of(n, r, "d_depth", j, t)),
                   (qs.beck_delta_series(r, t, N, J),
                    lambda n, j, t=t: ids.modular_part_gap(n, r, j, t))]
    for series, expected in checks:
        for n in range(N + 1):
            for j in range(J + 1):
                assert series[n, j] == expected(n, j)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_nonresidual_series_is_r_times_divisible_series(r):
    # the two prefactors are built by different routes, so this still
    # cross-validates the product constructions
    N, J = 18, 3
    assert qs.nonresidual_sum_series(r, N, J) == \
        qs.divisible_parts_series(r, N, J).scale(r)


def test_beck_delta_matches_weighted_count_difference():
    N, J = 12, 3
    for r in (2, 3):
        counts = qs.count_series("O", r, N, J + 1)
        delta = qs.beck_delta_series(r, 1, N, J)
        for n in range(N + 1):
            for j in range(J + 1):
                assert delta[n, j] == \
                    (j + 1) * counts[n, j + 1] - j * counts[n, j]


def test_one_minus_w_times_window_series_gives_distinct_gap():
    N, J = 12, 2
    for r in (2, 3):
        gap = qs.one_minus_w(N, J) * qs.repeat_window_series(r, N, J)
        for n in range(N + 1):
            for j in range(J + 1):
                assert gap[n, j] == ids.distinct_count_gap(n, r, j)


def test_builder_validation():
    with pytest.raises(ValueError, match="r must be >= 2"):
        qs.count_series("O", 1, 5, 1)
    with pytest.raises(ValueError, match="family"):
        qs.count_series("Z", 2, 5, 1)
    with pytest.raises(ValueError, match="t must satisfy"):
        qs.congruent_parts_series(2, 2, 5, 1)
    with pytest.raises(ValueError, match="t must satisfy"):
        qs.beck_delta_series(3, 0, 5, 1)
    with pytest.raises(ValueError, match="k must be >= 1"):
        qs.geometric_factor(0, 5, 1)


@pytest.mark.parametrize("builder,cached", [
    (lambda N: qs.count_series("O", 2, N, 1), qs._count_series),
    (lambda N: qs.divisible_parts_series(2, N, 1), qs._marked_block_sum),
])
def test_series_caches_are_bounded(builder, cached):
    maxsize = cached.cache_info().maxsize
    assert maxsize is not None and maxsize >= 16
    for N in range(maxsize + 5):
        builder(N)
    assert cached.cache_info().currsize == maxsize


def test_series_tables_match_the_recorded_digests():
    # every `beckpart series` kind, r = 2..5 and every t, at N=120, J=8;
    # the rows hashed are the "n,j,coefficient" rows the command prints
    N, J = 120, 8
    digests = {}
    for kind, build in cli.SERIES_KINDS.items():
        for r in range(2, 6):
            for t in (range(1, r) if kind in cli._NEEDS_T else (None,)):
                s = build(r, t, N, J)
                rows = "".join(f"{n},{j},{s[n, j]}\n" for n in range(N + 1)
                               for j in range(J + 1))
                key = f"{kind} r={r}" + ("" if t is None else f" t={t}")
                digests[key] = hashlib.sha256(rows.encode()).hexdigest()
    assert len(digests) == 58
    assert digests == EXPECTED["series_table_sha256"]


# Product forms, one general product per factor, from the public factor
# helpers: the reference for the builders' in-place steps and sparse
# multipliers.

def _product(factors, N, J):
    s = qs.one(N, J)
    for f in factors:
        s = s * f
    return s


def _count_product(family, r, N, J):
    factors = [qs.repeat_marker(r * m, N, J) for m in range(1, N // r + 1)]
    if family == "O":
        factors += [qs.geometric_factor(k, N, J)
                    for k in range(1, N + 1) if k % r]
    else:
        factors += [qs.finite_run(k, r, N, J) for k in range(1, N + 1)]
    return _product(factors, N, J)


def _repeat_window_product(r, N, J):
    factors = [qs.one(N, J)]  # index 0 unused placeholder
    for m in range(1, N + 1):
        factors.append(qs.repeat_marker(r * m, N, J) * qs.finite_run(m, r, N, J))
    prefix = [qs.one(N, J)]
    for m in range(1, N + 1):
        prefix.append(prefix[-1] * factors[m])
    suffix = [qs.one(N, J)] * (N + 2)
    for m in range(N, 0, -1):
        suffix[m] = factors[m] * suffix[m + 1]
    total = qs.zero(N, J)
    for m in range(1, N // (r + 1) + 1):
        window = qs.zero(N, J)
        for d in range(r + 1, 2 * r):
            if d * m <= N:
                window.c[d * m][0] = 1
        total = total + window * (prefix[m - 1] * suffix[m + 1])
    return total


def _marked_block_product(r, N, J):
    total = qs.zero(N, J)
    for m in range(1, N // r + 1):
        p = r * m
        total = total + (qs.geometric_factor(p, N, J)
                         * qs.marked_geometric(p, N, J)).shift(p, 1)
    return total


def _distinct_multiplier(family, r, N, J):
    total = qs.zero(N, J)
    if family == "O":
        for m in range(1, N + 1):
            if m % r:
                total = total + qs.monomial(N, J, m)
        for m in range(1, N // r + 1):
            total = total + qs.marked_geometric(r * m, N, J).shift(r * m, 1)
    else:
        for m in range(1, N + 1):
            total = total + (qs.one(N, J) - (qs.one(N, J) - qs.monomial(
                N, J, m)) * qs.marked_geometric(r * m, N, J))
    return total


def _beck_delta_multiplier(r, N, J):
    total = qs.zero(N, J)
    for m in range(1, N // r + 1):
        total = total + (qs.marked_geometric(r * m, N, J) - qs.one(N, J))
    return total


@pytest.mark.parametrize("J", range(5))
@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_builders_equal_their_product_forms(r, J):
    # J = 0 and J = 1 reach the top-row edge of the in-place w-step
    N = 40
    count = {f: _count_product(f, r, N, J) for f in ("O", "D")}
    for f in ("O", "D"):
        assert qs.count_series(f, r, N, J) == count[f], f
        assert qs.distinct_parts_series(f, r, N, J) == \
            count[f] * _distinct_multiplier(f, r, N, J), f
    assert qs._marked_block_sum(r, N, J) == _marked_block_product(r, N, J)
    assert qs.beck_delta_series(r, 1, N, J) == \
        count["O"] * _beck_delta_multiplier(r, N, J)
    assert qs.repeat_window_series(r, N, J) == _repeat_window_product(r, N, J)
