import pickle
import re

import pytest
from hypothesis import given, strategies as st

from beckpart import identities
from beckpart.euler_pairs import make_euler_pair, tilde_totals
from beckpart.identities import (STATS, THEOREM_IDS, ClassTotals,
                                 VerificationRecord, class_totals, stat_value,
                                 verify)
from helpers import (ClassSpec, assert_same_totals, count_table_builds,
                     enumerate_class, enumerated_class_totals,
                     fiber_ragged_repeat_count, index_weight_tuples,
                     pentagonal_counts, record, reference_totals_table)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_totals_dp_equals_enumeration(r):
    table = class_totals(r, 30)
    for n in range(30, -1, -1):
        assert_same_totals(table[n], enumerated_class_totals(n, r), (n, r))


@given(st.integers(min_value=0, max_value=24),
       st.integers(min_value=2, max_value=7))
def test_totals_dp_equals_enumeration_random(n, r):
    assert_same_totals(record(n, r), enumerated_class_totals(n, r), (n, r))


def test_class_sizes_sum_to_partition_counts_up_to_120():
    oracle = pentagonal_counts(120)
    for r in (2, 3, 4, 5):
        for n, tot in enumerate(class_totals(r, 120)):
            assert (sum(tot.o_count.values()) == sum(tot.d_count.values())
                    == oracle[n]), (n, r)


def _reference_class_totals(r, n_max):
    return reference_totals_table(r, n_max, range(1, n_max + 1),
                                  [p for p in range(1, n_max + 1) if p % r])


@pytest.fixture(scope="module")
def reference_at_120():
    return {r: _reference_class_totals(r, 120) for r in (2, 3, 4, 5)}


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_packed_dp_equals_the_per_multiplicity_reference(reference_at_120,
                                                         r):
    # every field of every n <= 120; the reference runs every class j, so
    # the packed table's cap at _j_cap drops only empty classes
    wants = {n_max: _reference_class_totals(r, n_max) for n_max in (0, 1, 7)}
    wants[120] = reference_at_120[r]
    for n_max, want in wants.items():
        for n, got in enumerate(class_totals(r, n_max)):
            assert_same_totals(got, want[n], (n_max, n))


def test_packed_dp_equals_the_reference_on_euler_pairs():
    # criterion 9's three window pairs and its broken pair, at their bounds
    for r, s1, bound, s2 in ((2, range(1, 31), 30, None),
                             (2, range(3, 31, 3), 30, None),
                             (3, range(1, 31), 30, None), (2, [1], 10, [1])):
        pair = make_euler_pair(r, s1, bound, s2_override=s2)
        want = reference_totals_table(r, bound, pair.s1, pair.s2)
        for n, got in enumerate(tilde_totals(pair, bound)):
            assert_same_totals(got, want[n], (pair, n))


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_j_cap_is_the_largest_non_empty_class(r):
    # r*J(J+1)/2 <= n_max: class J is non-empty at n_max in both families
    for n_max in (0, 1, 2, 5, 17, 40):
        top = identities._j_cap(r, n_max)
        tot = class_totals(r, n_max)[n_max]
        assert max(tot.o_count) == max(tot.d_count) == top, n_max
    assert [identities._j_cap(2, n) for n in (0, 2, 6, 40, 120)] == \
        [0, 1, 2, 5, 10]


def test_dp_lane_width_fits_every_total_bound_to_400():
    # every DP lane holds a total of at most max(1, n*p(n)) unsigned
    p = pentagonal_counts(400)
    for n_max in range(401):
        assert max(1, n_max * p[n_max]) < 1 << identities._lane_bits(n_max), \
            n_max
    assert [identities._lane_bits(n) for n in (0, 40, 120, 300)] == \
        [1, 31, 49, 75]


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_widest_totals_at_120_match_classical_sums(r):
    # the largest totals of the packed DP lanes: over all partitions of n,
    # parts total sum_k tau(k) p(n-k) and distinct parts sum_k p(n-k)
    n = 120
    p = pentagonal_counts(n)
    tau = [0] + [sum(1 for d in range(1, k + 1) if k % d == 0)
                 for k in range(1, n + 1)]
    parts = sum(tau[k] * p[n - k] for k in range(1, n + 1))
    distinct = sum(p[n - k] for k in range(1, n + 1))
    pair = make_euler_pair(r, range(1, n + 1), n)
    for tot in (record(n, r), tilde_totals(pair, n)[n]):
        assert sum(tot.o_parts.values()) == sum(tot.d_parts.values()) == parts
        assert (sum(tot.o_distinct.values()) == sum(tot.d_distinct.values())
                == distinct)


def test_totals_cache_stays_bounded(monkeypatch):
    # no class table is kept between calls: every call builds its own,
    # a repeated call builds again, and there is no cache to outgrow
    builds = count_table_builds(monkeypatch)
    for r in range(2, 51):
        assert sum(class_totals(r, 12)[12].o_count.values()) == 77
    assert class_totals(3, 12) == class_totals(3, 12)
    assert builds == [(r, 12) for r in range(2, 51)] + [(3, 12), (3, 12)]
    assert not hasattr(class_totals, "cache_info")


def test_totals_table_is_built_once_for_a_range_of_n(monkeypatch):
    table = class_totals(3, 20)
    assert len(table) == 21
    builds = count_table_builds(monkeypatch)
    assert all(rec.ok for rec in verify("beck_main", range(21), [3], 2))
    assert builds == [(3, 20)]
    # a table's records do not depend on its n_max
    assert class_totals(3, 12) == table[:13]


def test_totals_reject_out_of_range_n():
    with pytest.raises(ValueError, match="non-negative"):
        class_totals(2, -1)
    with pytest.raises(ValueError, match="non-negative"):
        identities.totals_table(2, -1, [1], [1])
    with pytest.raises(ValueError, match="exceeds the totals bound"):
        class_totals(2, 121)
    with pytest.raises(ValueError, match="r must be >= 2"):
        class_totals(1, 5)


def test_part_count_gap_examples():
    assert stat_value(record(4, 2), "parts-gap", 0) == 3
    assert stat_value(record(4, 3), "parts-gap", 0) == 2
    for r in (2, 3, 5):
        for j in (0, 1, 2):
            assert stat_value(record(0, r), "parts-gap", j) == 0


def test_modular_part_gap_examples():
    for r, want in ((2, 3), (3, 1)):
        tot = record(4, r)
        assert stat_value(tot, "modular-gap", 0, t=1) == want == \
            stat_value(tot, "count_O", 1)
    assert stat_value(record(0, 2), "modular-gap", 1, t=1) == 0


def test_distinct_count_gap_examples():
    assert stat_value(record(3, 2), "distinct-gap", 0) == 1
    assert stat_value(record(4, 2), "distinct-gap", 0) == 0
    assert stat_value(record(0, 4), "distinct-gap", 2) == 0


def test_repeat_window_examples():
    assert stat_value(record(3, 2), "repeat-window", 1) == 1
    assert stat_value(record(4, 2), "repeat-window", 1) == 0
    # the j=0 class forbids multiplicities >= r, so the window is empty
    for r in (2, 3):
        for tot in class_totals(r, 11):
            assert stat_value(tot, "repeat-window", 0) == 0


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


def test_single_instance_spec_examples():
    # one instance is the record at j of a one-point grid
    rec = list(verify("beck_main", [4], [2], 0))[0]
    assert rec.lhs == 3 and [v for _, v in rec.rhs] == [3, 3] and rec.ok

    rec = list(verify("modular_refine", [4], [3], 0, t=1))[0]
    assert rec.lhs == 1 and [v for _, v in rec.rhs] == [1, 1] and rec.ok

    rec = list(verify("diff3", [4], [2], 1))[1]
    assert rec.lhs == 1 and rec.rhs[0][1] == 1 and rec.ok


def test_statement_labels():
    labels = {
        "beck_cumulative": ["(j+1)|O_{j+1}|", "(j+1)|D_{j+1}|"],
        "beck_main": ["(j+1)|O_{j+1}|-j|O_j|", "(j+1)|D_{j+1}|-j|D_j|"],
        "modular_refine": ["(j+1)|O_{j+1}|-j|O_j|", "(j+1)|D_{j+1}|-j|D_j|"],
        "distinct_cumulative": ["T_{j+1}"],
        "distinct_parts": ["T_{j+1}-T_j"],
    }
    for theorem, want in labels.items():
        rec = list(verify(theorem, [6], [3], 1, t=1))[1]
        assert [label for label, _ in rec.rhs] == want, theorem


def test_statement_labels_carry_the_mark_on_every_class():
    # a record per theorem on a pair's totals: "~" tags each O, D and T
    # class of every label, and nothing else
    pair = make_euler_pair(3, range(1, 7), 6)
    unmarked, marked = (list(identities.check(
        zip(THEOREM_IDS, THEOREM_IDS), mark,
        lambda r, n: tilde_totals(pair, n), [6], [3], 0, 1))
        for mark in ("", "~"))
    assert [rec.theorem for rec in marked] == list(THEOREM_IDS)
    for plain, tagged in zip(unmarked, marked):
        assert [label for label, _ in tagged.rhs] == [
            re.sub(r"([ODT])_", r"\1~_", label) for label, _ in plain.rhs
        ], plain.theorem


def test_o1_tuples_keys_are_non_zero_and_within_the_lane_bound():
    # a j is kept exactly when its sum is non-zero, and every sum is at
    # most n*p(n) (each pair of an index tuple and an O_1 partition is
    # fixed by their union and one of its parts), as _class_dp states
    p = pentagonal_counts(120)
    tables = [class_totals(r, 120) for r in (2, 3, 4, 5)] + [
        tilde_totals(make_euler_pair(r, s1, bound, s2_override=s2), bound)
        for r, s1, bound, s2 in ((2, range(1, 31), 30, None),
                                 (2, range(3, 31, 3), 30, None),
                                 (3, range(1, 31), 30, None),
                                 (2, [1], 10, [1]))]
    for table in tables:
        for n, tot in enumerate(table):
            for j, value in tot.o1_tuples.items():
                assert 0 < value <= max(1, n * p[n]), (n, j)


def test_one_totals_lookup_per_call(monkeypatch):
    # verify reads every number of a one-point grid from one record of one
    # table, and on a larger grid fetches one table per r, at the largest n
    calls = []

    def lookup(r, n_max):
        calls.append((r, n_max))
        return class_totals(r, n_max)
    monkeypatch.setattr(identities, "class_totals", lookup)
    for theorem in THEOREM_IDS:
        calls.clear()
        verify(theorem, [9], [3], 1, t=1)
        assert calls == [(3, 9)]
    calls.clear()
    verify("modular_refine", range(10), [3, 2], 2)
    assert calls == [(2, 9), (3, 9)]


def test_franklin_instance():
    rec = list(verify("franklin", [9], [2], 1))[1]
    assert rec.lhs == rec.rhs[0][1] and rec.ok


def test_telescoping():
    for r in (2, 3):
        table = class_totals(r, 12)
        for tot in (table[7], table[12]):
            for stat in STATS:
                for t in (range(1, r) if stat == "modular-gap" else (None,)):
                    for j in range(3):
                        assert stat_value(tot, stat, j, "at_most", t) == sum(
                            stat_value(tot, stat, i, t=t)
                            for i in range(j + 1))


def test_gap_divisible_by_r_minus_one():
    for r in (2, 3, 4):
        for tot in class_totals(r, 14):
            for j in range(3):
                for mode in ("exact", "at_most"):
                    assert stat_value(tot, "parts-gap", j, mode) % (r - 1) == 0


def test_sum_of_modular_gaps_is_part_count_gap():
    for r in (2, 3, 4):
        table = class_totals(r, 14)
        for n in (6, 11, 14):
            for j in range(3):
                assert sum(stat_value(table[n], "modular-gap", j, t=t)
                           for t in range(1, r)) == \
                    stat_value(table[n], "parts-gap", j)


def test_modular_gap_value_is_t_independent():
    for n in (8, 13):
        for j in (0, 1):
            values = {stat_value(record(n, 4), "modular-gap", j, t=t)
                      for t in (1, 2, 3)}
            assert len(values) == 1


def test_verify_grid_order_and_shape():
    records = list(verify("modular_refine", [3, 2], [3, 2], 1, "all"))
    keys = [(rec.n, rec.r, rec.j, rec.t) for rec in records]
    assert keys == sorted(keys)
    assert all(rec.theorem == "modular_refine" for rec in records)
    # r=2 has one residue, r=3 has two
    assert len(records) == 2 * (1 + 2) * 2
    assert all(rec.ok for rec in records)


def test_verify_accepts_one_shot_iterables():
    records = list(verify("franklin", range(3), (r for r in [2, 3]), 0))
    assert [(rec.n, rec.r) for rec in records] == [
        (0, 2), (0, 3), (1, 2), (1, 3), (2, 2), (2, 3)]
    assert list(verify("franklin", iter([2, 0]), [2], 0)) == list(verify(
        "franklin", [0, 2], [2], 0))


def test_verify_single_t():
    records = verify("modular_refine", [6], [4], 0, t=2)
    assert [rec.t for rec in records] == [2]


def test_all_theorems_pass_small_grid():
    for theorem in THEOREM_IDS:
        records = list(verify(theorem, range(13), [2, 3], 2, "all"))
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
    import ast
    import inspect

    import beckpart.identities as module
    source = inspect.getsource(module)
    assert "qseries" not in source
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.add(getattr(node, "module", None) or "")
            imported.update(alias.name for alias in node.names)
    assert not any("enumeration" in name for name in imported), imported
    assert not hasattr(module, "MAX_ENUM_N")
    assert not hasattr(module, "partitions_of")
    assert not hasattr(module, "stats")


def test_verification_record_is_an_immutable_named_tuple():
    assert VerificationRecord._fields == (
        "theorem", "n", "r", "j", "t", "lhs", "rhs", "ok", "note")
    assert VerificationRecord._field_defaults == {"note": ""}
    rec = list(verify("beck_main", [4], [2], 0))[0]
    assert rec == ("beck_main", 4, 2, 0, None, 3,
                   (("(j+1)|O_{j+1}|-j|O_j|", 3),
                    ("(j+1)|D_{j+1}|-j|D_j|", 3)), True, "")
    with pytest.raises(AttributeError):
        rec.lhs = 4
    assert not hasattr(rec, "__dict__")
    copy = pickle.loads(pickle.dumps(rec))
    assert type(copy) is VerificationRecord and copy == rec
    assert rec._replace(lhs=4).lhs == 4 and rec.lhs == 3


def test_check_reads_the_residues_of_the_theorem_not_the_record_name(
        monkeypatch):
    # modular_refine on the pair S1 = all positive integers of each r, under
    # a record name of its own: the unrestricted records, renamed and with
    # the restricted classes marked, from one table per r
    ns = range(13)
    wanted = [rec._replace(theorem="x", rhs=tuple(
        (re.sub(r"([OD])_", r"\1~_", label), value)
        for label, value in rec.rhs))
        for rec in verify("modular_refine", ns, [2, 3], 2)]
    builds = count_table_builds(monkeypatch)
    got = list(identities.check(
        [("x", "modular_refine")], "~",
        lambda r, n: tilde_totals(make_euler_pair(r, range(1, n + 1), n), n),
        ns, [3, 2], 2, "all"))
    assert got == wanted
    assert {rec.t for rec in got} == {1, 2}
    assert builds == [(2, 12), (3, 12)]


def test_record_flags_non_divisible_gap():
    tot = ClassTotals(*({} for _ in ClassTotals._fields))._replace(
        o_parts={0: 7})
    [rec] = identities.check([("beck_main", "beck_main")], "",
                             lambda r, n: [tot], [0], [3], 0, None)
    assert (rec.lhs, rec.ok, rec.note) == (
        7, False, "gap 7 not divisible by r-1=2")


def test_verify_refuses_its_arguments_on_the_call(monkeypatch):
    # the records are made as they are iterated, but every argument is
    # checked, and every table built, when verify is called
    builds = count_table_builds(monkeypatch)
    with pytest.raises(ValueError, match=re.escape(
            "t must satisfy 1 <= t <= r-1=3, got 9")):
        verify("modular_refine", [3], [4], 0, t=9)
    assert builds == []
    records = verify("modular_refine", [3], [4], 0, t=3)
    assert builds == [(4, 3)] and iter(records) is records
    assert [rec.t for rec in records] == [3]


def test_parameter_errors():
    tot = record(4, 2)
    with pytest.raises(ValueError, match="unknown theorem"):
        verify("fermat", [4], [2], 1)
    with pytest.raises(ValueError, match="t must satisfy"):
        verify("modular_refine", [5], [2], 0, t=2)
    with pytest.raises(ValueError, match="t must satisfy"):
        verify("modular_refine", [4], [2], 0, t=5)
    # the residues are checked once per (theorem, r), so on an empty grid
    # of n too
    with pytest.raises(ValueError, match="t must satisfy"):
        verify("modular_refine", [], [2], 0, t=5)
    # a negative class index selects no class; refused, not an empty grid
    for theorem in ("franklin", "all"):
        with pytest.raises(ValueError, match=re.escape(
                "class index j must be >= 0, got -1")):
            verify(theorem, [4], [2], -1)
    with pytest.raises(ValueError, match="r must be >= 2"):
        verify("franklin", [4], [1], 0)
    # a negative n must not index a table from its end
    with pytest.raises(ValueError, match="non-negative"):
        verify("franklin", [-1], [2], 0)
    with pytest.raises(ValueError, match="non-negative"):
        verify("franklin", [5, -1], [2], 0)
    with pytest.raises(ValueError, match="unknown stat"):
        stat_value(tot, "count_Q", 0)
    with pytest.raises(ValueError, match="class index j"):
        stat_value(tot, "parts-gap", -1)
    with pytest.raises(ValueError, match="mode must be"):
        stat_value(tot, "count_O", 0, "below")
    with pytest.raises(ValueError, match="modular_refine requires t"):
        verify("modular_refine", [4], [2], 0, t=None)
    with pytest.raises(ValueError, match="modular-gap requires t"):
        stat_value(tot, "modular-gap", 0)
    with pytest.raises(ValueError, match="parts-gap takes no t"):
        stat_value(tot, "parts-gap", 0, t=1)
