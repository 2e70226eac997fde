import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beckpart import euler_pairs, theorems
from beckpart.euler_pairs import (EULER_ITEM_IDS, make_euler_pair,
                                  subbarao_counterexample, tilde_totals,
                                  verify_tilde)
from beckpart.identities import class_totals, verify
from beckpart.theorems import ClassTotals, stat_value
from helpers import (assert_same_totals, count_table_builds,
                     enumerated_tilde_totals)

BOUND = 24


@pytest.fixture(scope="module")
def classical():
    return make_euler_pair(2, range(1, BOUND + 1), BOUND)


@pytest.fixture(scope="module")
def triples():
    return make_euler_pair(2, range(3, BOUND + 1, 3), BOUND)


@pytest.fixture(scope="module")
def broken():
    return make_euler_pair(2, [1], 10, s2_override=[1])


def test_classical_pair_derives_odds(classical):
    assert classical.subbarao_ok
    assert classical.s2 == tuple(range(1, BOUND + 1, 2))


def test_triples_pair_derives_odd_triples(triples):
    assert triples.subbarao_ok
    assert triples.s2 == tuple(range(3, BOUND + 1, 6))


def test_broken_pair_is_flagged(broken):
    assert not broken.subbarao_ok


def test_make_euler_pair_validation():
    with pytest.raises(ValueError, match="^s1 member 40 exceeds bound 30$"):
        make_euler_pair(2, [40], 30)
    with pytest.raises(ValueError, match="^s1 member 0 must be positive$"):
        make_euler_pair(2, [0, 3], 10)
    with pytest.raises(ValueError, match="^s2 member 11 exceeds bound 10$"):
        make_euler_pair(2, [1, 2], 10, s2_override=[1, 11])
    with pytest.raises(ValueError, match="^s2 member -1 must be positive$"):
        make_euler_pair(2, [1, 2], 10, s2_override=[1, -1, 20])
    with pytest.raises(ValueError, match="r must be >= 2"):
        make_euler_pair(1, [1], 10)


def tilde_count(tot, j, family):
    return stat_value(tot, f"count_{family}", j)


def test_tilde_counts_triples_example(triples):
    tot = tilde_totals(triples, 9)[9]
    assert tilde_count(tot, 0, "O") == 2  # 9 and 3+3+3
    assert tilde_count(tot, 0, "D") == 2  # 9 and 6+3


def test_tilde_counts_broken_example(broken):
    tot = tilde_totals(broken, 2)[2]
    assert tilde_count(tot, 0, "O") == 1
    assert tilde_count(tot, 0, "D") == 0


def test_tilde_counts_trivial_rows(classical, triples):
    for pair in (classical, triples):
        tot = tilde_totals(pair, 0)[0]
        assert tilde_count(tot, 0, "O") == 1
        assert tilde_count(tot, 0, "D") == 1
        assert tilde_count(tot, 1, "O") == 0
        assert tilde_count(tot, 2, "D") == 0


def test_tilde_count_window_guard(classical):
    with pytest.raises(ValueError, match="exceeds the realized window"):
        tilde_totals(classical, BOUND + 1)


def test_classical_pair_reduces_to_unrestricted_statistics():
    for r in (2, 3, 4, 5):
        pair = make_euler_pair(r, range(1, BOUND + 1), BOUND)
        table = class_totals(r, BOUND)
        for n, tot in enumerate(tilde_totals(pair, BOUND)):
            assert type(tot) is ClassTotals
            # every field, residue columns and diff3's tuples included
            assert_same_totals(tot, table[n], (r, n))


def test_scaling_embedding(triples):
    # parts are all multiples of 3: statistics at n are the unrestricted
    # ones at n/3, and zero when 3 does not divide n
    base = class_totals(2, BOUND // 3)
    for n, tot in enumerate(tilde_totals(triples, BOUND)):
        for j in range(3):
            for family in ("O", "D"):
                expected = (tilde_count(base[n // 3], j, family)
                            if n % 3 == 0 else 0)
                assert tilde_count(tot, j, family) == expected


def test_good_pairs_have_equinumerous_classes(classical, triples):
    for pair in (classical, triples):
        for tot in tilde_totals(pair, BOUND):
            for j in range(3):
                assert tilde_count(tot, j, "O") == tilde_count(tot, j, "D")


def test_items_reduce_to_unrestricted_theorems():
    # over S1 = all positive integers, item k is the unrestricted theorem
    theorems = {1: "beck_cumulative", 2: "beck_main",
                3: "distinct_cumulative", 4: "distinct_parts"}
    for r in (2, 3):
        pair = make_euler_pair(r, range(1, BOUND + 1), BOUND)
        for item, theorem in theorems.items():
            got = list(verify_tilde(item, pair, range(BOUND + 1), 2))
            wanted = list(verify(theorem, range(BOUND + 1), [r], 2))
            assert len(got) == len(wanted) == 3 * (BOUND + 1)
            for rec, want in zip(got, wanted):
                assert rec.ok and want.ok
                assert (rec.n, rec.j, rec.lhs, rec.note) == \
                    (want.n, want.j, want.lhs, want.note)
                # the same values, with the restricted classes marked
                assert rec.rhs == tuple(
                    (re.sub(r"([ODT])_", r"\1~_", label), value)
                    for label, value in want.rhs)


@pytest.mark.parametrize("item", [1, 2, 3, 4])
def test_items_verify_on_good_pairs(classical, triples, item):
    for pair in (classical, triples):
        records = list(verify_tilde(item, pair, range(BOUND + 1), 2))
        assert records and all(rec.ok for rec in records)
        assert all(rec.theorem == EULER_ITEM_IDS[item - 1] for rec in records)


def test_verify_refuses_broken_pair(broken):
    with pytest.raises(ValueError, match="closure condition"):
        verify_tilde(1, broken, [2], 0)


def test_verify_decides_closure_from_the_sets_not_the_flag():
    # the flag is read from the sets, so a _replace cannot leave it stale:
    # the first S1 is not closed (2*1 is missing from it), and the second
    # S2 is not S1 minus 2*S1; both are refused as when built directly
    closed = make_euler_pair(2, range(1, 21), 20)
    for stale in (closed._replace(s1=(1, 3, 5, 6, 7, 9), s2=(1, 3, 5, 7, 9)),
                  closed._replace(s2=closed.s2[1:])):
        assert not stale.subbarao_ok
        assert not make_euler_pair(2, stale.s1, 20, stale.s2).subbarao_ok
        with pytest.raises(ValueError, match="closure condition"):
            verify_tilde("all", stale, range(21), 2)


def test_counterexample_search(broken):
    assert subbarao_counterexample(broken, 10) == (2, 1, 0)


def test_counterexample_search_can_be_inconclusive():
    # closure fails only at 2*2=4, which no partition of size <= 1 can see
    pair = make_euler_pair(2, [1, 2], 4)
    assert not pair.subbarao_ok
    assert subbarao_counterexample(pair, 1) is None


def test_item_validation(classical):
    with pytest.raises(ValueError, match="item must be in 1..4"):
        verify_tilde(5, classical, [3], 0)
    # a negative n must not index a table from its end
    with pytest.raises(ValueError, match="non-negative"):
        verify_tilde(1, classical, [3, -1], 0)
    # a negative class index selects no class; refused, not an empty grid
    for item in (1, "all"):
        with pytest.raises(ValueError, match=re.escape(
                "class index j must be >= 0, got -1")):
            verify_tilde(item, classical, [3], -1)
    with pytest.raises(ValueError, match="non-negative"):
        tilde_totals(classical, -1)
    # a pair's window may reach past the totals bound; its table may not
    wide = make_euler_pair(2, range(1, 122), 121)
    with pytest.raises(ValueError, match="n=121 exceeds the totals bound 120"):
        tilde_totals(wide, 121)


def test_r3_pair_items(classical):
    pair = make_euler_pair(3, range(1, 19), 18)
    assert pair.subbarao_ok
    assert pair.s2 == tuple(v for v in range(1, 19) if v % 3)
    for item in (1, 2, 3, 4):
        records = verify_tilde(item, pair, range(19), 2)
        assert all(rec.ok for rec in records)


def test_sum_reduction_holds_where_the_modular_gaps_differ():
    # on S1 = {1, 2}*3^k at r = 3 the residues of S2's members matter: the
    # modular gaps at t = 1 and t = 2 differ and modular_refine fails, but
    # their sum over t is still the parts gap
    pair = make_euler_pair(3, [m * 3 ** k for m in (1, 2) for k in range(3)],
                           BOUND)
    assert pair.subbarao_ok and pair.s2 == (1, 2)
    records = list(theorems.check(
        [("sum", "sum_reduction"), ("modular", "modular_refine")], "~",
        lambda r, n: tilde_totals(pair, n), range(BOUND + 1), [3], 3, "all"))
    assert all(rec.ok for rec in records if rec.theorem == "sum")
    assert not all(rec.ok for rec in records if rec.theorem == "modular")


# -- the part-value DP against the enumeration oracle ------------------------

ORACLE_PAIRS = {
    "classical": make_euler_pair(2, range(1, BOUND + 1), BOUND),
    "triples": make_euler_pair(2, range(3, BOUND + 1, 3), BOUND),
    "r=3": make_euler_pair(3, range(1, BOUND + 1), BOUND),
    # S2 = {2}: a part divisible by r that is not in r*S1
    "powers of two": make_euler_pair(2, [2, 4, 8, 16], BOUND),
    "s2 override": make_euler_pair(2, [1], BOUND, s2_override=[1]),
    # the override puts 2, a member of r*S1, into S2 as well
    "overlapping s2": make_euler_pair(
        2, range(1, BOUND + 1), BOUND,
        s2_override=[2] + list(range(1, BOUND + 1, 2))),
    "not closed": make_euler_pair(2, [1, 2], BOUND),
}


@pytest.mark.parametrize("name", list(ORACLE_PAIRS))
def test_tilde_dp_equals_enumeration(name):
    pair = ORACLE_PAIRS[name]
    table = tilde_totals(pair, BOUND)
    for n in range(BOUND, -1, -1):
        assert_same_totals(table[n], enumerated_tilde_totals(pair, n),
                           (name, n))


@st.composite
def small_pairs(draw):
    r = draw(st.integers(min_value=2, max_value=4))
    bound = draw(st.integers(min_value=16, max_value=20))
    s1 = draw(st.sets(st.integers(min_value=1, max_value=16), max_size=8))
    if draw(st.booleans()):  # close S1 under multiplication by r
        s1 = {s * r ** k for s in s1 for k in range(5) if s * r ** k <= bound}
    s2 = draw(st.none() | st.sets(st.integers(min_value=1, max_value=16),
                                  max_size=8))
    return make_euler_pair(r, s1, bound, s2_override=s2)


@settings(max_examples=60, deadline=None)
@given(small_pairs(), st.integers(min_value=0, max_value=20))
def test_tilde_dp_equals_enumeration_random(pair, n):
    n = min(n, pair.bound)
    assert_same_totals(tilde_totals(pair, n)[n],
                       enumerated_tilde_totals(pair, n), n)


@pytest.mark.parametrize("item", [1, 2, 3, 4])
def test_verify_tilde_builds_each_table_once(classical, triples, item,
                                             monkeypatch):
    builds = count_table_builds(monkeypatch)
    for pair in (classical, triples):
        assert all(rec.ok for rec in verify_tilde(item, pair,
                                                  range(BOUND + 1), 2))
    assert len(builds) == 2


def test_counterexample_search_builds_each_table_once(broken, monkeypatch):
    builds = count_table_builds(monkeypatch)
    assert subbarao_counterexample(broken, 10) == (2, 1, 0)
    pair = make_euler_pair(2, [1, 2], 4)
    assert subbarao_counterexample(pair, 4) == (4, 1, 0)
    assert len(builds) == 2


def test_tilde_cache_stays_bounded(monkeypatch):
    # no pair table is kept between calls: every call builds its own,
    # a repeated call builds again, and there is no cache to outgrow
    pairs = [make_euler_pair(2, range(1, b + 1), b) for b in range(1, 13)]
    builds = count_table_builds(monkeypatch)
    for pair in pairs:
        tilde_totals(pair, pair.bound)
    assert (tilde_totals(pairs[-1], pairs[-1].bound)
            == tilde_totals(pairs[-1], pairs[-1].bound))
    assert builds == [(2, b) for b in range(1, 13)] + [(2, 12), (2, 12)]
    assert not hasattr(tilde_totals, "cache_info")


def test_euler_pairs_is_independent_of_the_series_route():
    import inspect
    assert "qseries" not in inspect.getsource(euler_pairs)
