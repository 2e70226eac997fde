import pickle
import re

import pytest
from hypothesis import given, strategies as st

from beckpart import identities, theorems
from beckpart.euler_pairs import make_euler_pair, tilde_totals
from beckpart.identities import class_totals, verify
from beckpart.theorems import (STATS, THEOREM_IDS, ClassTotals,
                               VerificationRecord, stat_value)
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


@pytest.mark.parametrize("r", [2, 3, 4, 5, 8, 13, 50])
def test_packed_dp_equals_the_per_multiplicity_reference(reference_at_120,
                                                         r):
    # every field of every n <= 120; the reference runs every class j, so
    # the packed table's cap at _j_cap drops only empty classes, and it
    # keeps all r residue lanes, so r > n_max checks the packed table's pad
    wants = {n_max: _reference_class_totals(r, n_max)
             for n_max in (0, 1, 7, 12)}
    if r in reference_at_120:
        wants[120] = reference_at_120[r]
    for n_max, want in wants.items():
        for n, got in enumerate(class_totals(r, n_max)):
            assert_same_totals(got, want[n], (n_max, n))


def test_packed_dp_equals_the_reference_on_euler_pairs():
    # criterion 9's three window pairs and its broken pair, at their bounds,
    # and a pair whose r exceeds its bound
    for r, s1, bound, s2 in ((2, range(1, 31), 30, None),
                             (2, range(3, 31, 3), 30, None),
                             (3, range(1, 31), 30, None), (2, [1], 10, [1]),
                             (13, range(1, 11), 10, None)):
        pair = make_euler_pair(r, s1, bound, s2_override=s2)
        want = reference_totals_table(r, bound, pair.s1, pair.s2)
        for n, got in enumerate(tilde_totals(pair, bound)):
            assert_same_totals(got, want[n], (pair, n))


def test_dp_work_stops_growing_with_r_past_n_max(monkeypatch):
    # parts and multiplicities <= n_max have residues <= n_max, so past
    # r = n_max + 1 the lanes and runs of each DP are the same for every r
    work, dp = [], identities._class_dp

    def spy(n_max, j_max, width, start, groups):
        work.append((width, sum(len(runs) for runs, _ in groups)))
        return dp(n_max, j_max, width, start, groups)
    monkeypatch.setattr(identities, "_class_dp", spy)
    for r in (13, 50, 1000):
        class_totals(r, 12)
    # O: 2 + 13 lanes, a run per residue and mark; D: 3 + 13 lanes, a run
    # per multiplicity 1..12; diff3's left side: one lane, one run
    assert work == [(15, 26), (16, 12), (1, 1)] * 3


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_j_cap_is_the_largest_non_empty_class(r):
    # r*J(J+1)/2 <= n_max: class J is non-empty at n_max in both families
    for n_max in (0, 1, 2, 5, 17, 40):
        top = identities._j_cap(r, n_max)
        tot = class_totals(r, n_max)[n_max]
        assert max(tot.o_count) == max(tot.d_count) == top, n_max
    assert [identities._j_cap(2, n) for n in (0, 2, 6, 40, 120)] == \
        [0, 1, 2, 5, 10]


def test_64_bit_dp_lanes_fit_every_total_bound_to_326():
    # every DP lane holds a total of at most max(1, n*p(n)) unsigned, and
    # by the exact p(n) that is below 2^64 for every n <= 326 and for no n
    # past it, so a cap past 326 needs wider lanes
    p = pentagonal_counts(400)
    fits = [n for n in range(401) if max(1, n * p[n]) < 1 << 64]
    assert fits == list(range(327))
    assert identities.MAX_N <= 326
    # the read-back: lane i of class j in bits [64*(j*width + i), ...),
    # unsigned to 2^64 - 1, and a class kept when its size lane is non-zero
    top = (1 << 64) - 1
    lanes = [[top, 1, 2], [0, 3, 0], [4, 0, top]]
    row = sum(v << 64 * (3 * j + i) for j, vec in enumerate(lanes)
              for i, v in enumerate(vec))
    assert identities._class_dp(0, 2, 3, [row], []) == [
        {0: [top, 1, 2], 2: [4, 0, top]}]


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
        assert (sum(map(sum, tot.o_parts_mod.values()))
                == sum(tot.d_parts.values()) == parts)
        assert (sum(tot.o_distinct.values())
                == sum(row[0] for row in tot.d_depth.values()) == distinct)


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
        "franklin": ["|D_j|"],
        "beck_cumulative": ["(j+1)|O_{j+1}|", "(j+1)|D_{j+1}|"],
        "beck_main": ["(j+1)|O_{j+1}|-j|O_j|", "(j+1)|D_{j+1}|-j|D_j|"],
        "modular_refine": ["(j+1)|O_{j+1}|-j|O_j|", "(j+1)|D_{j+1}|-j|D_j|"],
        "distinct_cumulative": ["T_{j+1}"],
        "distinct_parts": ["T_{j+1}-T_j"],
        "sum_reduction": ["b_{j,r}(n)"],
        "diff3": ["(j+1)|O_{j+1}|-j|O_j|+sum ell_0"],
        "nonresidual_balance": ["sum nonresidual mult over D_j"],
    }
    assert sorted(labels) == sorted(THEOREM_IDS)
    for theorem, want in labels.items():
        # one residue each: t = 1 where it is read, none elsewhere
        t = 1 if theorem in theorems.READS_T else "all"
        rec = list(verify(theorem, [6], [3], 1, t))[1]
        assert [label for label, _ in rec.rhs] == want, theorem


def test_statement_labels_carry_the_mark_on_every_class():
    # a record per theorem on a pair's totals: "~" tags each O, D and T
    # class of every label, and nothing else
    pair = make_euler_pair(3, range(1, 7), 6)
    unmarked, marked = (list(theorems.check(
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
        verify(theorem, [9], [3], 1,
               1 if theorem in theorems.READS_T else "all")
        assert calls == [(3, 9)]
    calls.clear()
    verify("modular_refine", range(10), [3, 2], 2)
    assert calls == [(2, 9), (3, 9)]


def test_franklin_instance():
    rec = list(verify("franklin", [9], [2], 1))[1]
    assert rec.lhs == rec.rhs[0][1] and rec.ok


def test_telescoping():
    # at_most sums the classes a record holds, and is the sum of the exact
    # rows past them too; in the two broken pairs O alone holds class 0 at
    # n >= 2 (S2 = {1}), and D alone at n = 1 (S2 empty)
    records = [(r, class_totals(r, 12)[n]) for r in (2, 3) for n in (7, 12)]
    broken = [tilde_totals(make_euler_pair(2, [1], 10, s2_override=s2), 10)
              for s2 in ([1], [])]
    assert broken[0][2].o_count.keys() - broken[0][2].d_count.keys() == {0}
    assert broken[1][1].d_count.keys() - broken[1][1].o_count.keys() == {0}
    records += [(2, tot) for table in broken for tot in table]
    for r, tot in records:
        for stat in STATS:
            for t in (range(1, r) if stat == "modular-gap" else (None,)):
                for j in range(8):
                    assert stat_value(tot, stat, j, "at_most", t) == sum(
                        stat_value(tot, stat, i, t=t)
                        for i in range(j + 1))


def test_cumulative_statements_sum_only_the_held_classes(monkeypatch):
    # re-summing every class j' <= j for each j <= 120 would read
    # parts-gap sum(j + 1) = 7,381 times at n = 40, r = 2
    calls = []
    parts_gap = STATS["parts-gap"]

    def spy(tot, j, t):
        calls.append(j)
        return parts_gap(tot, j, t)
    monkeypatch.setattr(theorems, "STATS", {**STATS, "parts-gap": spy})
    records = list(verify("beck_cumulative", [40], [2], 120))
    assert all(rec.ok for rec in records) and len(records) == 121
    held = class_totals(2, 40)[40].o_count.keys()
    assert len(calls) <= 121 * len(held) < 1000


def test_stat_value_refuses_a_residue_outside_the_modulus():
    tot = class_totals(3, 10)[10]
    for t in (-1, 0, 3):
        with pytest.raises(ValueError, match="1 <= t <= r-1=2"):
            stat_value(tot, "modular-gap", 1, t=t)
    assert stat_value(tot, "modular-gap", 1, t=1) == \
        stat_value(tot, "modular-gap", 1, t=2)
    # a record holding no residue row still refuses t < 1: with S1 = {2}
    # and S2 empty, neither family has a partition of 1
    empty = tilde_totals(make_euler_pair(2, [2], 10, s2_override=[]), 10)[1]
    assert empty.o_parts_mod == empty.d_depth == {}
    with pytest.raises(ValueError, match="1 <= t"):
        stat_value(empty, "modular-gap", 0, t=0)
    assert stat_value(empty, "modular-gap", 0, t=1) == 0


def test_a_residue_that_is_not_an_int_is_refused():
    # refused as out of range, never compared with r or used as an index
    for t in (1.5, "2", True):
        with pytest.raises(ValueError, match="1 <= t <= r-1=3"):
            verify("modular_refine", [3], [4], 0, t=t)
    tot, empty = class_totals(3, 10)[10], ClassTotals(
        *({} for _ in ClassTotals._fields))
    for t in (1.5, "2", "all"):
        for record_ in (tot, empty):
            with pytest.raises(ValueError):
                stat_value(record_, "modular-gap", 0, t=t)


def test_a_t_that_no_theorem_reads_is_refused(monkeypatch):
    builds = count_table_builds(monkeypatch)
    for t in (99, 1):
        with pytest.raises(ValueError, match="^franklin takes no t$"):
            verify("franklin", range(2), [2], 0, t)
    assert builds == []
    assert {rec.t for rec in verify("all", [2], [3], 0, t=1)} == {None, 1}


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
    # one 64-bit lane width, computed nowhere
    assert not hasattr(module, "_lane_bits")


def _top_level_names(module) -> set[str]:
    """The names a module's own top-level statements define."""
    import ast
    import inspect

    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets)
        elif isinstance(node, ast.AnnAssign):
            names.add(node.target.id)
    return names


def test_statements_live_apart_from_the_dp():
    # a theorem is a statement about totals, whatever computed them:
    # theorems imports no package module, identities holds the DP and
    # verify alone, and nothing reaches a statement through identities
    import ast
    import inspect
    from pathlib import Path

    for node in ast.walk(ast.parse(inspect.getsource(theorems))):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not node.module.startswith(
                "beckpart"), ast.dump(node)
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("beckpart")
                           for a in node.names), ast.dump(node)
    assert _top_level_names(identities) == {
        "MAX_N", "_j_cap", "_class_dp", "totals_table", "class_totals",
        "verify"}
    moved = _top_level_names(theorems)
    root = Path(__file__).resolve().parent.parent
    for path in [p for d in ("src", "tests", "scripts")
                 for p in sorted((root / d).rglob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.module == "beckpart.identities"
                    or (node.level == 1 and node.module == "identities")):
                assert not moved & {a.name for a in node.names}, (
                    path.name, node.lineno)
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "identities"):
                assert node.attr not in moved, (path.name, node.lineno)


@pytest.mark.parametrize("name", ["identities", "theorems", "qseries",
                                  "partition", "bijections", "euler_pairs",
                                  "enumeration"])
def test_computation_modules_use_no_floating_point(name):
    # every count is an exact integer: no float constant, true division,
    # float() call or math function but isqrt.  oeis is not scanned: its
    # network timeout is I/O, not arithmetic
    import ast
    import importlib
    import inspect

    tree = ast.parse(inspect.getsource(importlib.import_module(
        f"beckpart.{name}")))
    for node in ast.walk(tree):
        where = (name, getattr(node, "lineno", None))
        assert not (isinstance(node, ast.Constant)
                    and isinstance(node.value, (float, complex))), where
        assert not (isinstance(node, (ast.BinOp, ast.AugAssign))
                    and isinstance(node.op, ast.Div)), where
        assert not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "float"), where
        assert not (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "math"
                    and node.attr != "isqrt"), where
        assert not (isinstance(node, ast.ImportFrom)
                    and node.module == "math"
                    and any(a.name != "isqrt" for a in node.names)), where


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
    got = list(theorems.check(
        [("x", "modular_refine")], "~",
        lambda r, n: tilde_totals(make_euler_pair(r, range(1, n + 1), n), n),
        ns, [3, 2], 2, "all"))
    assert got == wanted
    assert {rec.t for rec in got} == {1, 2}
    assert builds == [(2, 12), (3, 12)]


def test_record_flags_non_divisible_gap():
    tot = ClassTotals(*({} for _ in ClassTotals._fields))._replace(
        o_parts_mod={0: [0, 3, 4]})
    [rec] = theorems.check([("beck_main", "beck_main")], "",
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
