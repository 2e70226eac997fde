import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import beckpart
from beckpart import (cli, enumeration, euler_pairs, identities, oeis,
                      partition, qseries, theorems)
from beckpart.bijections import adjoin_and_classify
from beckpart.enumeration import partitions_of
from beckpart.partition import Partition, classify
from helpers import (ClassSpec, count_class, enumerate_class,
                     enumerate_fixed_divisible, enumerate_fixed_repeats,
                     enumerated_tilde_o1_count, index_weight_tuples,
                     pentagonal_counts, recursive_partitions)


def test_partitions_of_4_in_order():
    got = [p.render() for p in partitions_of(4)]
    assert got == ["4", "3,1", "2^2", "2,1^2", "1^4"]


def test_partitions_of_0_and_1():
    assert [p.pairs for p in partitions_of(0)] == [()]
    assert [p.render() for p in partitions_of(1)] == ["1"]


def test_counts_match_pentagonal_recurrence():
    oracle = pentagonal_counts(35)
    for n in (0, 1, 2, 5, 9, 17, 25, 35):
        assert sum(1 for _ in partitions_of(n)) == oracle[n]
    assert oracle[9] == 30


def test_partitions_are_unique_and_decreasing_lex():
    for n in range(13):
        seen = list(partitions_of(n))
        assert len(set(seen)) == len(seen)
        flat = [tuple(p for p, m in lam.pairs for _ in range(m))
                for lam in seen]
        assert flat == sorted(flat, reverse=True)


def test_stream_equals_the_recursive_oracle():
    # the stack walk yields the recursion's partitions, in its order
    for n in range(41):
        got = list(partitions_of(n))
        assert got == list(recursive_partitions(n)), n
        assert all(type(lam) is Partition for lam in got), n


def test_bounds():
    with pytest.raises(ValueError, match="non-negative"):
        list(partitions_of(-1))
    with pytest.raises(ValueError, match="exceeds enumeration bound"):
        list(partitions_of(121))


def test_class_spec_validation():
    with pytest.raises(ValueError, match="family"):
        ClassSpec("X", 2, 0)
    with pytest.raises(ValueError, match="r must be >= 2"):
        ClassSpec("O", 1, 0)
    with pytest.raises(ValueError, match="j must be >= 0"):
        ClassSpec("O", 2, -1)
    with pytest.raises(ValueError, match="mode"):
        ClassSpec("O", 2, 0, "sometimes")


def test_enumerate_class_spec_examples():
    assert {p.render() for p in enumerate_class(4, ClassSpec("O", 2, 1))} == \
        {"4", "2^2", "2,1^2"}
    assert {p.render() for p in enumerate_class(4, ClassSpec("D", 2, 1))} == \
        {"2^2", "2,1^2", "1^4"}
    assert {p.render() for p in enumerate_class(5, ClassSpec("O", 2, 0))} == \
        {"5", "3,1^2", "1^5"}


def test_count_class_spec_examples():
    assert count_class(4, ClassSpec("O", 2, 1)) == 3
    assert count_class(4, ClassSpec("O", 2, 2)) == 0
    assert count_class(0, ClassSpec("D", 3, 0)) == 1


@pytest.mark.parametrize("family", ["O", "D"])
@pytest.mark.parametrize("r", [2, 3])
def test_class_counts_partition_pn(family, r):
    oracle = pentagonal_counts(20)
    for n in (0, 3, 8, 14, 20):
        total = sum(count_class(n, ClassSpec(family, r, j))
                    for j in range(n // r + 1))
        assert total == oracle[n]


def test_at_most_is_cumulative():
    for n in (6, 11):
        for j in range(3):
            assert count_class(n, ClassSpec("O", 2, j, "at_most")) == sum(
                count_class(n, ClassSpec("O", 2, i)) for i in range(j + 1))


@pytest.mark.parametrize("mode", ["exact", "at_most"])
@pytest.mark.parametrize("family", ["O", "D"])
@pytest.mark.parametrize("r", [2, 3])
def test_direct_equals_filter(family, r, mode):
    for n in range(16):
        for j in range(3):
            spec = ClassSpec(family, r, j, mode)
            direct = list(enumerate_class(n, spec, method="direct"))
            filtered = list(enumerate_class(n, spec, method="filter"))
            assert direct == filtered


def test_every_member_classifies_correctly():
    for n in (7, 12):
        for spec in (ClassSpec("O", 3, 1), ClassSpec("D", 2, 2),
                     ClassSpec("O", 2, 1, "at_most")):
            for lam in enumerate_class(n, spec):
                assert spec.matches(lam)
                assert lam.size == n


def test_streams_are_deterministic():
    spec = ClassSpec("D", 2, 1)
    assert list(enumerate_class(9, spec)) == list(enumerate_class(9, spec))
    assert list(partitions_of(9)) == list(partitions_of(9))


def test_unknown_method():
    with pytest.raises(ValueError, match="unknown method"):
        list(enumerate_class(4, ClassSpec("O", 2, 0), method="guess"))


def test_fixed_divisible_spec_examples():
    assert [p.render() for p in enumerate_fixed_divisible(4, 2, (1,), (2,))] \
        == ["2^2"]
    assert [p.render() for p in enumerate_fixed_divisible(4, 2, (2,), (1,))] \
        == ["4"]
    assert [p.render() for p in enumerate_fixed_divisible(4, 2, (1,), (1,))] \
        == ["2,1^2"]


def test_fixed_divisible_canonicalizes_and_validates():
    a = list(enumerate_fixed_divisible(12, 2, (3, 1), (1, 2)))
    b = list(enumerate_fixed_divisible(12, 2, (1, 3), (2, 1)))
    assert a == b
    with pytest.raises(ValueError, match="distinct"):
        list(enumerate_fixed_divisible(8, 2, (1, 1), (1, 1)))
    with pytest.raises(ValueError, match="positive"):
        list(enumerate_fixed_divisible(8, 2, (1,), (0,)))


@pytest.mark.parametrize("r,j", [(2, 0), (2, 1), (2, 2), (3, 1)])
def test_fixed_divisible_streams_cover_class_disjointly(r, j):
    for n in (8, 13):
        members = []
        for m_vec, k_vec in index_weight_tuples(j, n // r):
            members.extend(enumerate_fixed_divisible(n, r, m_vec, k_vec))
        assert len(members) == len(set(members))
        assert set(members) == set(enumerate_class(n, ClassSpec("O", r, j)))


def test_fixed_repeats_members_have_prescribed_repeats():
    for mu in enumerate_fixed_repeats(11, 2, (1, 3), (1, 1)):
        repeated = {p: m for p, m in mu.pairs if m >= 2}
        assert set(repeated) == {1, 3}
        assert all(m - m % 2 == 2 for m in repeated.values())
        assert mu.size == 11


@pytest.mark.parametrize("r,j", [(2, 1), (3, 1), (2, 2)])
def test_fixed_repeats_streams_cover_class_disjointly(r, j):
    for n in (9, 12):
        members = []
        for m_vec, k_vec in index_weight_tuples(j, n // r):
            members.extend(enumerate_fixed_repeats(n, r, m_vec, k_vec))
        assert len(members) == len(set(members))
        assert set(members) == set(enumerate_class(n, ClassSpec("D", r, j)))


def test_index_weight_tuples_small():
    assert list(index_weight_tuples(0, 5)) == [((), ())]
    assert set(index_weight_tuples(1, 2)) == {((1,), (1,)), ((1,), (2,)),
                                              ((2,), (1,))}
    for m_vec, k_vec in index_weight_tuples(2, 9):
        assert list(m_vec) == sorted(set(m_vec))
        assert all(k >= 1 for k in k_vec)
        assert sum(m * k for m, k in zip(m_vec, k_vec)) <= 9
    runs = [list(index_weight_tuples(2, 8)) for _ in range(2)]
    assert runs[0] == runs[1]


def test_o_class_members_really_have_j_divisible_values():
    spec = ClassSpec("O", 2, 2)
    for lam in enumerate_class(10, spec):
        assert classify(lam, 2).j_div == 2
    # sanity spot: two distinct even values require at least 2+4
    assert count_class(5, spec) == 0
    assert Partition.parse("4,2") in set(enumerate_class(6, spec))


def test_public_names_resolve_and_test_oracles_are_not_exported():
    assert all(hasattr(beckpart, name) for name in beckpart.__all__)
    gone = {"ClassSpec", "EMPTY", "PartStats", "congruent_parts_total",
            "count_class", "difference", "distinct_parts_total",
            "divisible_parts_total", "enumerate_class",
            "enumerate_fixed_divisible", "enumerate_fixed_repeats",
            "fiber_ragged_repeat_count", "index_weight_tuples",
            "nonresidual_sum_total", "parse_partition",
            "residual_depth_total", "stats", "union",
            # one totals table per command, one stat and statement table
            "TotalsCache", "CacheInfo", "_class_key", "_tilde_key",
            "_class_table", "_pair_table", "class_count", "part_count_gap",
            "modular_part_gap", "distinct_count_gap", "repeat_window_total",
            "tilde_count", "verify_tilde_instance", "beck_statement",
            "distinct_statement", "_totals", "_check_j", "_check_t",
            "_check_family", "_class_size", "_gap", "_exact_or_cumulative",
            "_STAT_FNS", "_sort_records",
            # the count factors are applied to the multiplier in place
            "_count_series", "SERIES_CACHE_SIZE",
            # one path per job: packed multiplier rows, and the entry
            # points and parameters that only tests used
            "verify_instance", "RunConfig", "from_parts", "parts",
            "full_match", "_pack",
            # the output file is opened where the rows are written
            "_output"}
    assert not gone & set(beckpart.__all__)
    assert not any(hasattr(module, name) for name in gone
                   for module in (enumeration, identities, theorems,
                                  partition, euler_pairs, cli, qseries, oeis))
    assert not any(hasattr(Partition, name) for name in
                   ("difference", "num_distinct", "num_parts", "parts",
                    "from_parts"))
    assert not hasattr(oeis.MatchReport, "full_match")
    for fn in (oeis.crosscheck, oeis.best_prefix_match, oeis.load_reference,
               oeis._online_text):
        params = inspect.signature(fn).parameters
        assert not {"start_index", "max_shift", "timeout"} & set(params)


def test_package_import_leaves_the_partition_stream_unloaded():
    # no command enumerates: the stream is a test oracle and a benchmark
    # input, so neither the package nor the CLI loads it.  Nor do they load
    # dataclasses (and through it inspect), importlib.resources, which
    # only a fixture read needs, or pathlib; -S keeps site from loading
    # them first
    src = str(Path(beckpart.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, beckpart; "
         "a = 'beckpart.enumeration' in sys.modules; import beckpart.cli; "
         "print(a, 'beckpart.enumeration' in sys.modules, [name for name in "
         "('dataclasses', 'inspect', 'importlib.resources', 'pathlib') "
         "if name in sys.modules])"],
        capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (0, "False False []\n", "")


def test_every_source_file_parses_as_python_3_10():
    # pyproject.toml says requires-python >= 3.10, and CI runs tier-1 on
    # 3.10 too: no file may use syntax that 3.10 lacks
    import ast

    root = Path(__file__).resolve().parent.parent
    paths = [p for d in ("src", "tests", "scripts")
             for p in sorted((root / d).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))


@pytest.mark.parametrize("build, fields, defaults", [
    (lambda: euler_pairs.make_euler_pair(2, range(1, 11), 10),
     ("r", "bound", "s1", "s2"), {}),
    (lambda: adjoin_and_classify(Partition.parse("2"), 2, (1,), (1,)),
     ("image", "case", "collided_index"), {"collided_index": None}),
    (lambda: oeis.crosscheck("A090867", [0, 0, 5]),
     ("sequence_id", "status", "matched", "offset", "total", "source",
      "mismatch"), {"mismatch": None}),
], ids=["EulerPair", "ZetaOutcome", "MatchReport"])
def test_records_are_immutable_and_hashable_named_tuples(build, fields,
                                                          defaults):
    rec = build()
    assert isinstance(rec, tuple)
    assert (type(rec)._fields, type(rec)._field_defaults) == (fields, defaults)
    with pytest.raises(AttributeError):
        setattr(rec, fields[-1], None)
    assert rec == build() and len({rec, build(), type(rec)(*rec)}) == 1
    if isinstance(rec, euler_pairs.EulerPair):
        # the enumerated |O~_1| oracle is cached on the pair
        enumerated_tilde_o1_count(rec, 6)
        hits = enumerated_tilde_o1_count.cache_info().hits
        enumerated_tilde_o1_count(build(), 6)
        assert enumerated_tilde_o1_count.cache_info().hits == hits + 1
