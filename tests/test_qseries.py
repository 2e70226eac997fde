import ast
import hashlib
import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beckpart import qseries as qs
from beckpart.identities import class_totals
from beckpart.theorems import stat_value
from beckpart.qseries import Series
from helpers import (EXPECTED, add, dp_total, geometric_factor,
                     lambert_by_mult, lambert_by_parts, marked_geometric,
                     monomial, mul, nnz, one, one_minus_w, pentagonal_counts,
                     product_form, reference_times_count_product,
                     reference_unpack, repeat_marker, scale, series_tables,
                     shift, terms)

small_series = st.builds(
    lambda rows: Series(4, 2, rows),
    st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
             min_size=5, max_size=5))


def test_one_is_multiplicative_identity():
    s = geometric_factor(2, 10, 3)
    assert mul(s, one(10, 3)) == s
    assert mul(one(10, 3), s) == s
    assert nnz(mul(s, Series(10, 3))) == 0


@settings(max_examples=60)
@given(small_series, small_series, small_series)
def test_ring_laws_under_truncation(a, b, c):
    assert mul(a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, b) == add(b, a)


def test_mismatched_bounds_raise():
    with pytest.raises(ValueError, match="mismatched truncation"):
        mul(one(5, 2), one(6, 2))
    with pytest.raises(ValueError, match="mismatched truncation"):
        add(one(5, 2), one(5, 3))


def test_truncation_cap():
    with pytest.raises(ValueError, match="exceeds cap"):
        one(121, 0)


def test_scaling_and_shift():
    s = monomial(6, 2, 2, 1, coeff=3)
    assert scale(s, 2)[2, 1] == 6
    assert scale(s, -1)[2, 1] == -3
    assert shift(s, 3, 1)[5, 2] == 3
    assert nnz(shift(s, 5, 0)) == 0  # dropped past the q bound


def test_repeat_marker_leading_term():
    assert repeat_marker(2, 8, 2)[2, 1] == 1
    assert repeat_marker(2, 8, 2)[0, 0] == 1
    assert repeat_marker(2, 8, 2)[4, 1] == 1


def test_marked_geometric_inverts_its_denominator():
    for p in (1, 3):
        denom = one(12, 4)
        denom.c[p][0] -= 1  # subtract (1-w) q^p
        denom.c[p][1] += 1
        assert mul(denom, marked_geometric(p, 12, 4)) == one(12, 4)


def test_geometric_product_counts_partitions():
    N = 60
    s = one(N, 0)
    for k in range(1, N + 1):
        s = mul(s, geometric_factor(k, N, 0))
    oracle = pentagonal_counts(N)
    assert [s[n, 0] for n in range(N + 1)] == oracle
    assert s[9, 0] == 30


def test_lambert_identity_both_orders():
    N = 40
    for r in (2, 3, 4):
        for t in range(1, r):
            assert lambert_by_parts(r, t, N, 0) == \
                lambert_by_mult(r, t, N, 0)


def test_count_series_spot_values():
    s = qs.series("count-O", 2, None, 10, 3)
    assert s[5, 0] == 3
    assert s[4, 1] == 3
    assert s[0, 0] == 1
    assert qs.series("count-D", 3, None, 10, 2)[0, 0] == 1


def test_derivative_series_spot_values():
    assert qs.series("congruent-parts", 3, 1, 8, 2)[4, 0] == 7
    assert qs.series("residual-depth", 2, 1, 8, 2)[4, 0] == 3
    assert qs.series("divisible-parts", 2, None, 8, 2)[4, 1] == 4


def test_beck_delta_spot_values_and_t_independence():
    assert qs.series("beck-delta", 2, 1, 8, 2)[4, 0] == 3
    assert qs.series("beck-delta", 3, 1, 8, 2)[4, 0] == 1
    assert qs.series("beck-delta", 3, 2, 8, 2) == \
        qs.series("beck-delta", 3, 1, 8, 2)
    s = qs.series("beck-delta", 4, 3, 8, 2)
    assert all(s[0, j] == 0 for j in range(3))


def test_repeat_window_spot_values():
    s = qs.series("repeat-window", 2, None, 10, 2)
    assert s[3, 0] == 1
    assert s[4, 0] == 0
    for r in (2, 3):
        s = qs.series("repeat-window", r, None, 10, 2)
        for n in range(r + 1):
            assert all(s[n, j] == 0 for j in range(3))


@pytest.mark.parametrize("r", [2, 3])
def test_all_series_match_enumeration(r):
    N, J = 14, 3
    table = class_totals(r, N)
    for kind, t in series_tables(r):
        s = qs.series(kind, r, t, N, J)
        for n in range(N + 1):
            for j in range(J + 1):
                assert s[n, j] == dp_total(kind, table[n], j, t), \
                    (kind, t, n, j)


def test_all_series_match_the_dp_at_the_cap():
    # both routes' packed lanes at their widest, N = MAX_Q_ORDER, for
    # every kind, r = 2..5 and every t
    N, J = qs.MAX_Q_ORDER, 5
    for r in range(2, 6):
        table = class_totals(r, N)
        for kind, t in series_tables(r):
            s = qs.series(kind, r, t, N, J)
            for n, row in enumerate(s.c):
                assert row == [dp_total(kind, table[n], j, t)
                               for j in range(J + 1)], (kind, r, t, n)


def test_count_and_window_series_match_the_dp_at_full_w_width():
    # every class index at N = J = MAX_Q_ORDER: both count kinds come
    # from one shared product, so the DP's own d_count keeps count-D
    # honest, and every lane of the widest rows is read back
    N = J = qs.MAX_Q_ORDER
    for r in range(2, 6):
        table = class_totals(r, N)
        for kind in ("count-O", "count-D", "repeat-window"):
            s = qs.series(kind, r, None, N, J)
            for n, row in enumerate(s.c):
                assert row == [dp_total(kind, table[n], j, None)
                               for j in range(J + 1)], (kind, r, n)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_nonresidual_series_is_r_times_divisible_series(r):
    # the two prefactors are built by different routes, so this still
    # cross-validates the product constructions
    N, J = 18, 3
    assert qs.series("nonresidual-sum", r, None, N, J) == \
        scale(qs.series("divisible-parts", r, None, N, J), r)


def test_beck_delta_matches_weighted_count_difference():
    N, J = 12, 3
    for r in (2, 3):
        counts = qs.series("count-O", r, None, N, J + 1)
        delta = qs.series("beck-delta", r, 1, N, J)
        for n in range(N + 1):
            for j in range(J + 1):
                assert delta[n, j] == \
                    (j + 1) * counts[n, j + 1] - j * counts[n, j]


def test_one_minus_w_times_window_series_gives_distinct_gap():
    N, J = 12, 2
    for r in (2, 3):
        gap = mul(one_minus_w(N, J),
                  qs.series("repeat-window", r, None, N, J))
        for n, tot in enumerate(class_totals(r, N)):
            for j in range(J + 1):
                assert gap[n, j] == stat_value(tot, "distinct-gap", j)


def test_builder_validation():
    with pytest.raises(ValueError, match="r must be >= 2"):
        qs.series("count-O", 1, None, 5, 1)
    with pytest.raises(ValueError, match="unknown series kind"):
        qs.series("count-Z", 2, None, 5, 1)
    with pytest.raises(ValueError, match="t must satisfy"):
        qs.series("congruent-parts", 2, 2, 5, 1)
    with pytest.raises(ValueError, match="t must satisfy"):
        qs.series("beck-delta", 3, 0, 5, 1)
    with pytest.raises(ValueError, match="t must satisfy"):
        qs.series("residual-depth", 3, None, 5, 1)
    with pytest.raises(ValueError, match="takes no t"):
        qs.series("count-D", 3, 1, 5, 1)
    with pytest.raises(ValueError, match="k must be >= 1"):
        geometric_factor(0, 5, 1)


def test_series_route_is_independent_and_has_one_builder():
    # the q-series witness must not lean on the definition witness: it
    # imports no module of the package, relatively or by name
    tree = ast.parse(inspect.getsource(qs))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module != "beckpart" and \
                not node.module.startswith("beckpart."), node.module
        elif isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[0] == "beckpart"
                           for alias in node.names)
    # one builder: nothing is cached, the general product is gone, and
    # so are the per-kind builders
    decorated = [node.name for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.decorator_list]
    assert decorated == []
    assert not any(hasattr(Series, name)
                   for name in ("__mul__", "nnz", "_check_compatible"))
    # what only the tests read lives in the test helpers (helpers.terms)
    assert not {"items", "__repr__"} & set(vars(Series))
    assert not any(hasattr(qs, f"{name}_series") for name in (
        "count", "congruent_parts", "residual_depth", "divisible_parts",
        "nonresidual_sum", "distinct_parts", "beck_delta", "repeat_window"))
    # no fork: the list row helpers and the dense multiplier table gave
    # way to the packed rows, from the multiplier to the one unpack
    assert not any(hasattr(qs, name) for name in (
        "_divide_by_one_minus", "_times_one_minus", "_times_marked_step",
        "_pack", "one", "comb"))
    # one 64-bit lane: no lane width is computed or passed, and a marked
    # run is given its packed first term, not knobs that build it
    assert not hasattr(qs, "_lane_bits")
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert "math" not in imported, imported
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            args = node.args
            assert "B" not in {a.arg for a in (*args.posonlyargs, *args.args,
                                                *args.kwonlyargs)}, node.name
    assert list(inspect.signature(qs._add_marked_run).parameters) == [
        "X", "M", "p", "first", "term"]


def test_series_tables_match_the_recorded_digests():
    # every `beckpart series` kind, r = 2..5 and every t, at N=120, J=8;
    # the rows hashed are the "n,j,coefficient" rows the command prints
    N, J = 120, 8
    digests = {}
    for r in range(2, 6):
        for kind, t in series_tables(r):
            s = qs.series(kind, r, t, N, J)
            rows = "".join(f"{n},{j},{s[n, j]}\n" for n in range(N + 1)
                           for j in range(J + 1))
            key = f"{kind} r={r}" + ("" if t is None else f" t={t}")
            digests[key] = hashlib.sha256(rows.encode()).hexdigest()
    assert len(digests) == 58
    assert digests == EXPECTED["series_table_sha256"]


@pytest.mark.parametrize("J", range(5))
@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_builders_equal_their_product_forms(r, J):
    # one general product per factor (helpers.mul) against the sparse
    # multiplier times the count factors in place, for every kind and t;
    # J = 0 and J = 1 reach the top-row edge of the in-place w-step
    N = 40
    for kind, t in series_tables(r):
        assert qs.series(kind, r, t, N, J) == \
            product_form(kind, r, t, N, J), (kind, t)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_small_tables_equal_their_product_forms(r):
    # N = 0 packs a single row, and N < r applies no marked step at all;
    # N one below and at the generalized pentagonal numbers 12, 15, 22 and
    # 26 is where the division's recurrence takes on a term.  Each
    # family's product form is built from its own per-part factors, so
    # this also checks the Franklin identity that lets both families share
    # one product
    for N in (*range(8), 11, 12, 14, 15, 21, 22, 25, 26):
        for J in range(4):
            for kind, t in series_tables(r):
                assert qs.series(kind, r, t, N, J) == \
                    product_form(kind, r, t, N, J), (kind, t, N, J)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_count_product_equals_the_per_factor_reference(r):
    # Euler's expansion of the marked factors against one descending step
    # per factor, on each kind's multiplier rows (t = 1 where it takes a
    # t).  Term k first reaches row N at N = r*k(k+1)/2, so N runs through
    # those and one below each; N = 400 passes the rows in directly, past
    # MAX_Q_ORDER, at the widest J only.  Past N = 316 a 64-bit lane may
    # overflow, but both sides are compared mod M, so the check stays exact
    edges = {r * k * (k + 1) // 2 - d for k in range(1, 11) for d in (0, 1)}
    grid = [(N, J) for N in sorted({*range(9), *(e for e in edges
                                                 if e <= 120), 120})
            for J in (0, 1, 8)] + [(400, 8)]
    for N, J in grid:
        M = (1 << 64 * (J + 1)) - 1
        for kind, takes_t in qs.KINDS.items():
            X = qs.multiplier(kind, r, 1 if takes_t else None, N, M)
            want = reference_times_count_product(X, r, M)
            qs._times_count_product(X, r, M)
            assert [x & M for x in X] == [x & M for x in want], (kind, N, J)


def _pack(rows: list[list[int]], B: int) -> list[int]:
    # the lanes of qseries' lane comment, packed straight from a table
    M = (1 << len(rows[0]) * B) - 1
    return [sum(v << j * B for j, v in enumerate(row)) & M for row in rows]


@pytest.mark.parametrize("N,J", [(0, 0), (0, 3), (7, 0), (7, 3), (120, 8),
                                 (120, 120)])
def test_packed_rows_round_trip_signed_lanes(N, J):
    # every table has 64-bit lanes; N only sets its widest coefficient,
    # max(1, N*p(N)) by the exact p(N)
    top = (1 << 63) - 1
    bottom = -top - 1  # its lane reads 2^63, the least that borrows
    widest = max(1, N * pentagonal_counts(N)[N])
    for v in (-1, 0, top, -top, bottom, widest, -widest - 1):
        rows = [[0] * (J + 1) for _ in range(3)]
        rows[0][0] = v  # lane 0
        rows[1][J] = v  # lane J
        rows[2][0] = rows[2][J] = v  # both ends
        assert qs._unpack(_pack(rows, 64), J) == rows, v
    # the top and the bottom value in turn across every lane
    rows = [[bottom if j % 2 else top for j in range(J + 1)]]
    assert qs._unpack(_pack(rows, 64), J) == rows
    # one past the top does not fit: it reads back as the bottom
    assert qs._unpack(_pack([[top + 1] + [0] * J], 64), J)[0][0] == bottom
    # seeded random rows, packed from signed lanes and as any int (negative
    # or past the modulus), read as the lane-by-lane borrow reads them
    rng = random.Random(J)
    rows = [[rng.randrange(-1 << 63, 1 << 63) for _ in range(J + 1)]
            for _ in range(20)]
    wide = 64 * (J + 1) + 6
    X = _pack(rows, 64) + [rng.randrange(-1 << wide, 1 << wide)
                           for _ in range(20)]
    want = [[9] * (J + 1) for _ in X]
    reference_unpack(X, want, 64)
    assert want[:20] == rows
    assert qs._unpack(X, J) == want


def test_64_bit_lanes_fit_every_coefficient_bound_to_316():
    # the signed-lane fit of qseries' lane comment against the exact p(n):
    # max(1, n*p(n)) < 2^63 for every n <= 316 and for no n past it, so a
    # cap past 316 needs wider lanes
    p = pentagonal_counts(400)
    fits = [n for n in range(401) if max(1, n * p[n]) < 1 << 63]
    assert fits == list(range(317))
    assert qs.MAX_Q_ORDER <= 316


def test_widest_coefficients_fit_the_lane_bound():
    # the bound the packed lanes are sized from: every coefficient of the
    # N = 120 tables is at most max(1, n*p(n)) in absolute value
    N, J = 120, 8
    p = pentagonal_counts(N)
    for r in range(2, 6):
        for kind, t in series_tables(r):
            s = qs.series(kind, r, t, N, J)
            for n, j, v in terms(s):
                assert abs(v) <= max(1, n * p[n]), (kind, r, t, n, j)
