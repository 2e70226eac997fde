"""Acceptance suite: every criterion is an exact integer equality on a
fixed desk-scale grid.  Run ``pytest -s tests/test_acceptance.py -v`` to
see one PASS line (with timing) per criterion.
"""

import time
from collections import Counter, defaultdict

from beckpart import qseries as qs
from beckpart.bijections import (franklin_inverse, franklin_map,
                                 glaisher_inverse, glaisher_map)
from beckpart.enumeration import partitions_of
from beckpart.euler_pairs import (make_euler_pair, subbarao_counterexample,
                                  verify_tilde)
from beckpart.identities import class_totals, verify
from beckpart.oeis import crosscheck
from beckpart.partition import classify
from beckpart.theorems import stat_value
from helpers import (ClassSpec, dp_total, enumerate_class, geometric_factor,
                     mul, one, pentagonal_counts, record, scale,
                     series_tables, total_of)

GRID_N = 40
GRID_R = (2, 3, 4, 5)
GRID_J = 3


def _announce(num, text, t0=None):
    stamp = f"  [{time.monotonic() - t0:.1f}s]" if t0 is not None else ""
    print(f"\nPASS criterion {num}: {text}{stamp}")


def _all_ok(records):
    bad = [rec for rec in records if not rec.ok]
    assert not bad, f"{len(bad)} failing instances, first: {bad[0]}"
    return records


def test_criterion_01_franklin_counts_agree():
    t0 = time.monotonic()
    records = _all_ok(list(verify("franklin", range(GRID_N + 1), GRID_R,
                                   GRID_J)))
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s"
    _announce(1, f"|O_j| = |D_j| on {len(records)} instances "
                 f"(n<=40, r in 2..5, j<=3)", t0)


def test_criterion_02_part_count_gap_identities():
    t0 = time.monotonic()
    _all_ok(verify("beck_main", range(GRID_N + 1), GRID_R, GRID_J))
    _all_ok(verify("beck_cumulative", range(GRID_N + 1), GRID_R, GRID_J))
    for r in GRID_R:
        for tot in class_totals(r, GRID_N):
            for j in range(GRID_J + 1):
                for mode in ("exact", "at_most"):
                    assert stat_value(tot, "parts-gap", j, mode) % (r - 1) == 0
    _announce(2, "exact and cumulative part-count gaps match both right "
                 "sides; every gap divisible by r-1", t0)


def test_criterion_03_modular_refinement():
    t0 = time.monotonic()
    records = _all_ok(list(verify("modular_refine", range(GRID_N + 1), GRID_R,
                                  GRID_J, "all")))
    _all_ok(verify("sum_reduction", range(GRID_N + 1), GRID_R, GRID_J))
    _announce(3, f"modular gaps match both right sides for every t "
                 f"({len(records)} instances) and sum back to the plain gap",
              t0)


def test_criterion_04_distinct_count_identities():
    t0 = time.monotonic()
    _all_ok(verify("distinct_parts", range(GRID_N + 1), GRID_R, GRID_J))
    _all_ok(verify("distinct_cumulative", range(GRID_N + 1), GRID_R, GRID_J))
    for n, want in ((3, 1), (4, 0)):
        tot = record(n, 2)
        assert stat_value(tot, "distinct-gap", 0) == want == \
            stat_value(tot, "repeat-window", 1)
    _announce(4, "distinct-part gaps equal repeat-window differences, "
                 "spot values included", t0)


def test_criterion_05_bijection_suite():
    t0 = time.monotonic()
    checked = 0
    for r in (2, 3, 4):
        for n in range(31):
            o_groups, d_groups = defaultdict(set), defaultdict(set)
            for lam in partitions_of(n):
                idx = classify(lam, r)
                o_groups[idx.j_div].add(lam)
                d_groups[idx.j_rep].add(lam)
            for j, group in o_groups.items():
                images = set()
                for lam in group:
                    mu = franklin_map(lam, r)
                    assert mu.size == n
                    assert franklin_inverse(mu, r) == lam
                    images.add(mu)
                assert images == d_groups.get(j, set()), (n, r, j)
                checked += len(group)
            base_images = set()
            for lam in o_groups.get(0, ()):
                mu = glaisher_map(lam, r)
                assert mu.size == n
                assert glaisher_inverse(mu, r) == lam
                base_images.add(mu)
            assert base_images == d_groups.get(0, set()), (n, r)
    elapsed = time.monotonic() - t0
    assert elapsed < 30, f"criterion 5 took {elapsed:.1f}s"
    _announce(5, f"roundtrips, size preservation and levelwise image-set "
                 f"equality on {checked} partitions (n<=30, r in 2..4)", t0)


def test_criterion_06_adjoin_double_count():
    t0 = time.monotonic()
    records = _all_ok(list(verify("diff3", range(31), (2, 3), 2)))
    rec = list(verify("diff3", [4], [2], 1))[1]
    assert rec.lhs == 1 and rec.rhs[0][1] == 1
    assert 2 * stat_value(record(4, 2), "count_O", 2) == 0
    assert -1 * stat_value(record(4, 2), "count_O", 1) == -3
    assert total_of(record(4, 2), "o_parts_mod", 1) == 4
    _announce(6, f"fiber-sum double count matches on {len(records)} "
                 f"instances (n<=30, r in 2..3, j<=2); spot 1 = -3+0+4", t0)


def test_criterion_07_nonresidual_balance():
    t0 = time.monotonic()
    records = _all_ok(list(verify("nonresidual_balance", range(GRID_N + 1),
                                  GRID_R, GRID_J)))
    _announce(7, f"r x divisible-part totals equal nonresidual totals on "
                 f"{len(records)} instances", t0)


def test_criterion_08_series_match_enumeration():
    t0 = time.monotonic()
    N, J = 30, 5
    coeffs_checked = 0
    for r in (2, 3, 4):
        table = class_totals(r, N)
        built = {(kind, t): qs.series(kind, r, t, N, J)
                 for kind, t in series_tables(r)}
        for (kind, t), series in built.items():
            for n in range(N + 1):
                for j in range(J + 1):
                    assert series[n, j] == dp_total(kind, table[n], j, t), \
                        (kind, t, r, n, j)
                    coeffs_checked += 1
        assert built["nonresidual-sum", None] == \
            scale(built["divisible-parts", None], r)
        deltas = [built["beck-delta", t] for t in range(1, r)]
        assert all(d == deltas[0] for d in deltas)
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"criterion 8 took {elapsed:.1f}s"
    _announce(8, f"{coeffs_checked} series coefficients equal their "
                 f"DP totals (N=30, J=5, r in 2..4, all t)", t0)


def test_criterion_09_euler_pairs():
    t0 = time.monotonic()
    pairs = [make_euler_pair(2, range(1, 31), 30),
             make_euler_pair(2, range(3, 31, 3), 30),
             make_euler_pair(3, range(1, 31), 30)]
    for pair in pairs:
        assert pair.subbarao_ok
        for item in (1, 2, 3, 4):
            _all_ok(verify_tilde(item, pair, range(31), 2))
    broken = make_euler_pair(2, [1], 10, s2_override=[1])
    assert not broken.subbarao_ok
    assert subbarao_counterexample(broken, 10) == (2, 1, 0)
    _announce(9, "items 1-4 hold for the three window pairs (n<=30); the "
                 "broken pair is witnessed at n=2 with counts 1 vs 0", t0)


def test_criterion_10_oracle_independence():
    t0 = time.monotonic()
    streams = 0
    for r in (2, 3):
        for family in ("O", "D"):
            for mode in ("exact", "at_most"):
                for j in range(4):
                    spec = ClassSpec(family, r, j, mode)
                    for n in range(26):
                        direct = Counter(
                            enumerate_class(n, spec, method="direct"))
                        filtered = Counter(
                            enumerate_class(n, spec, method="filter"))
                        assert direct == filtered, (spec, n)
                        streams += 1
    oracle = pentagonal_counts(100)
    series = one(100, 0)
    for k in range(1, 101):
        series = mul(series, geometric_factor(k, 100, 0))
    for n in range(101):
        assert series[n, 0] == oracle[n], n
    for n, tot in enumerate(class_totals(2, GRID_N)):
        assert sum(tot.o_count.values()) == oracle[n]
    _announce(10, f"direct generation equals filtered enumeration on "
                  f"{streams} class streams (n<=25); partition counts match "
                  f"the pentagonal recurrence to n=100", t0)


def test_criterion_11_oeis_fixture_prefix():
    t0 = time.monotonic()
    table = class_totals(2, 30)
    values = [stat_value(tot, "count_O", 1) for tot in table]
    report = crosscheck("A090867", values)
    assert report.status == "ok"
    assert report.matched >= 20, report
    gaps = [stat_value(tot, "parts-gap", 0) for tot in table]
    gap_report = crosscheck("A265251", gaps)
    assert gap_report.status == "ok" and gap_report.matched >= 20
    _announce(11, f"one-even-part counts match the self-generated "
                  f"regression data for {report.matched} initial values "
                  f"(need >= 20)", t0)
