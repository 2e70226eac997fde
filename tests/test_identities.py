import pytest
from hypothesis import given, strategies as st

from beckpart.enumeration import ClassSpec, enumerate_class, index_weight_tuples
from beckpart.identities import (THEOREM_IDS, ClassTotals, TotalsCache,
                                 _record, class_count, class_totals,
                                 distinct_count_gap,
                                 fiber_ragged_repeat_count, modular_part_gap,
                                 part_count_gap, repeat_window_total, verify,
                                 verify_instance)
from helpers import enumerated_class_totals, pentagonal_counts


def _assert_same_totals(got, want):
    for field in ClassTotals.__slots__:
        # dict equality also compares the key sets: a class index is
        # present exactly when its class is non-empty
        assert getattr(got, field) == getattr(want, field), (
            got.n, got.r, field)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_totals_dp_equals_enumeration(r):
    for n in range(30, -1, -1):
        _assert_same_totals(class_totals(n, r), enumerated_class_totals(n, r))


@given(st.integers(min_value=0, max_value=24),
       st.integers(min_value=2, max_value=7))
def test_totals_dp_equals_enumeration_random(n, r):
    _assert_same_totals(class_totals(n, r), enumerated_class_totals(n, r))


def test_class_sizes_sum_to_partition_counts_up_to_120():
    oracle = pentagonal_counts(120)
    for r in (2, 3, 4, 5):
        for n in range(120, -1, -1):
            tot = class_totals(n, r)
            assert (sum(tot.o_count.values()) == sum(tot.d_count.values())
                    == oracle[n]), (n, r)


def test_totals_cache_stays_bounded():
    cache = TotalsCache()
    for r in range(2, 51):
        assert sum(cache(12, r).o_count.values()) == 77
        assert cache.cache_info().currsize <= TotalsCache.MAXSIZE
    info = cache.cache_info()
    assert (info.misses, info.currsize) == (49, TotalsCache.MAXSIZE)
    cache(12, 50)
    cache(6, 49)
    assert cache.cache_info().hits == 2
    # the module-wide cache has the same bound
    for r in range(2, 51):
        class_totals(3, r)
    assert class_totals.cache_info().currsize == TotalsCache.MAXSIZE


def test_totals_table_is_built_once_for_a_range_of_n():
    cache = TotalsCache()
    cache(20, 3)
    for n in range(21):
        cache(n, 3)
    assert cache.cache_info().misses == 1
    cache(21, 3)  # beyond the table: rebuilt at the new n
    assert cache.cache_info().misses == 2


def test_totals_reject_out_of_range_n():
    with pytest.raises(ValueError, match="non-negative"):
        class_totals(-1, 2)
    with pytest.raises(ValueError, match="exceeds the totals bound"):
        class_totals(121, 2)
    with pytest.raises(ValueError, match="r must be >= 2"):
        class_totals(5, 1)


def test_part_count_gap_examples():
    assert part_count_gap(4, 2, 0) == 3
    assert part_count_gap(4, 3, 0) == 2
    for r in (2, 3, 5):
        for j in (0, 1, 2):
            assert part_count_gap(0, r, j) == 0


def test_modular_part_gap_examples():
    assert modular_part_gap(4, 2, 0, 1) == 3 == class_count("O", 4, 2, 1)
    assert modular_part_gap(4, 3, 0, 1) == 1 == class_count("O", 4, 3, 1)
    assert modular_part_gap(0, 2, 1, 1) == 0


def test_distinct_count_gap_examples():
    assert distinct_count_gap(3, 2, 0) == 1
    assert distinct_count_gap(4, 2, 0) == 0
    assert distinct_count_gap(0, 4, 2) == 0


def test_repeat_window_examples():
    assert repeat_window_total(3, 2, 1) == 1
    assert repeat_window_total(4, 2, 1) == 0
    # the j=0 class forbids multiplicities >= r, so the window is empty
    for n in range(12):
        for r in (2, 3):
            assert repeat_window_total(n, r, 0) == 0


def test_fiber_ragged_repeat_examples():
    assert fiber_ragged_repeat_count(4, 2, (1,), (1,)) == 0
    assert fiber_ragged_repeat_count(3, 2, (1,), (1,)) == 1
    assert fiber_ragged_repeat_count(3, 2, (2,), (1,)) == 0  # empty fiber


@pytest.mark.parametrize("r,j", [(2, 1), (2, 2), (3, 1)])
def test_fiber_ragged_counts_sum_to_overlong_parts(r, j):
    # summed over all fibers: parts with multiplicity above r and not
    # divisible by r, over the whole exactly-j class
    for n in (9, 13):
        total = sum(
            fiber_ragged_repeat_count(n, r, m_vec, k_vec)
            for m_vec, k_vec in index_weight_tuples(j, n // r))
        direct = sum(
            sum(1 for _, m in mu.pairs if m > r and m % r != 0)
            for mu in enumerate_class(n, ClassSpec("D", r, j)))
        assert total == direct


def test_verify_instance_spec_examples():
    rec = verify_instance("beck_main", 4, 2, 0)
    assert rec.lhs == 3 and [v for _, v in rec.rhs] == [3, 3] and rec.ok

    rec = verify_instance("modular_refine", 4, 3, 0, t=1)
    assert rec.lhs == 1 and [v for _, v in rec.rhs] == [1, 1] and rec.ok

    rec = verify_instance("diff3", 4, 2, 1)
    assert rec.lhs == 1 and rec.rhs[0][1] == 1 and rec.ok


def test_franklin_instance():
    rec = verify_instance("franklin", 9, 2, 1)
    assert rec.lhs == rec.rhs[0][1] and rec.ok


def test_telescoping():
    for n in (7, 12):
        for r in (2, 3):
            for j in range(3):
                assert part_count_gap(n, r, j, "at_most") == sum(
                    part_count_gap(n, r, i) for i in range(j + 1))
                assert distinct_count_gap(n, r, j, "at_most") == sum(
                    distinct_count_gap(n, r, i) for i in range(j + 1))
                assert class_count("O", n, r, j, "at_most") == sum(
                    class_count("O", n, r, i) for i in range(j + 1))


def test_gap_divisible_by_r_minus_one():
    for n in range(15):
        for r in (2, 3, 4):
            for j in range(3):
                assert part_count_gap(n, r, j) % (r - 1) == 0
                assert part_count_gap(n, r, j, "at_most") % (r - 1) == 0


def test_sum_of_modular_gaps_is_part_count_gap():
    for n in (6, 11, 14):
        for r in (2, 3, 4):
            for j in range(3):
                assert sum(modular_part_gap(n, r, j, t)
                           for t in range(1, r)) == part_count_gap(n, r, j)


def test_modular_gap_value_is_t_independent():
    for n in (8, 13):
        for j in (0, 1):
            values = {modular_part_gap(n, 4, j, t) for t in (1, 2, 3)}
            assert len(values) == 1


def test_verify_grid_order_and_shape():
    records = verify("modular_refine", [3, 2], [3, 2], 1, "all")
    keys = [(rec.n, rec.r, rec.j, rec.t) for rec in records]
    assert keys == sorted(keys)
    assert all(rec.theorem == "modular_refine" for rec in records)
    # r=2 has one residue, r=3 has two
    assert len(records) == 2 * (1 + 2) * 2
    assert all(rec.ok for rec in records)


def test_verify_accepts_one_shot_iterables():
    records = verify("franklin", range(3), (r for r in [2, 3]), 0)
    assert [(rec.n, rec.r) for rec in records] == [
        (0, 2), (0, 3), (1, 2), (1, 3), (2, 2), (2, 3)]
    assert verify("franklin", iter([2, 0]), [2], 0) == verify(
        "franklin", [0, 2], [2], 0)


def test_verify_single_t():
    records = verify("modular_refine", [6], [4], 0, t=2)
    assert [rec.t for rec in records] == [2]


def test_all_theorems_pass_small_grid():
    for theorem in THEOREM_IDS:
        records = verify(theorem, range(13), [2, 3], 2, "all")
        assert records and all(rec.ok for rec in records), theorem


def test_modular_gap_is_defined_without_any_bijection():
    # the statistic is pure enumeration; the module must not lean on the
    # bijection machinery
    import inspect

    import beckpart.identities as module
    assert "bijection" not in inspect.getsource(module)


def test_totals_engine_is_independent_of_enumeration_and_series():
    # the definition witness must not lean on the q-series witness, and
    # enumeration is only its test oracle
    import inspect

    import beckpart.identities as module
    source = inspect.getsource(module)
    assert "qseries" not in source
    assert not hasattr(module, "partitions_of")
    assert not hasattr(module, "stats")


def test_record_flags_non_divisible_gap():
    rec = _record("beck_main", 5, 3, 0, None, 7, [("x", 7)],
                  note="gap 7 not divisible by r-1=2")
    assert not rec.ok and "not divisible" in rec.note


def test_parameter_errors():
    with pytest.raises(ValueError, match="unknown theorem"):
        verify("fermat", [4], [2], 1)
    with pytest.raises(ValueError, match="t must satisfy"):
        modular_part_gap(5, 2, 0, 2)
    with pytest.raises(ValueError, match="t must satisfy"):
        verify("modular_refine", [4], [2], 0, t=5)
    with pytest.raises(ValueError, match="r must be >= 2"):
        part_count_gap(4, 1, 0)
    with pytest.raises(ValueError, match="non-negative"):
        class_count("O", -1, 2, 0)
    with pytest.raises(ValueError, match="family"):
        class_count("Q", 4, 2, 0)
    with pytest.raises(ValueError, match="modular_refine requires t"):
        verify_instance("modular_refine", 4, 2, 0)
