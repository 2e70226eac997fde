import argparse
import ast
import csv
import hashlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import beckpart
from beckpart import (bijections, cli, enumeration, euler_pairs, identities,
                      partition, qseries, theorems)
from beckpart.cli import run
from beckpart.enumeration import partitions_of
from beckpart.theorems import VerificationRecord
from helpers import (EXPECTED, RECORD_HEADER, assert_same_text,
                     count_table_builds, record_rows, reference_csv,
                     reference_json)


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_map_phi_spec_example(capsys):
    code, out, _ = run_capture(capsys, ["map", "--bijection", "phi",
                                        "--r", "2", "--partition", "2,2,1"])
    assert code == 0
    assert out.strip() == "1^5"


def test_map_psi_and_inverses(capsys):
    code, out, _ = run_capture(capsys, ["map", "--bijection", "psi",
                                        "--r", "2", "--partition", "3,1,1"])
    assert code == 0 and out.strip() == "3,2"
    code, out, _ = run_capture(capsys, ["map", "--bijection", "psi-inv",
                                        "--r", "2", "--partition", "3,2"])
    assert code == 0 and out.strip() == "3,1^2"
    code, out, _ = run_capture(capsys, ["map", "--bijection", "phi-inv",
                                        "--r", "2", "--partition", "1^5"])
    assert code == 0 and out.strip() == "2^2,1"


# SHA-256 of every `beckpart map` call below, recorded before the maps
# were rewritten as one loop per direction: the rewrite must keep each
# image, error message and exit code byte for byte.
MAP_DIGESTS = {
    "psi": "70d07cb4cf8366aab9707410293a1f0951938445f95013a1ee7d75c1657945da",
    "psi-inv":
        "bce91b4e7edb932da881110b0d39b3c0c28f00122c50445bf786cdf27f3e36eb",
    "phi": "d14f3091e5e93dfedf08538c616ec044588930fba3e9be378c054d63e67aeb36",
    "phi-inv":
        "05fb427c3a0fc065d65ac01e33c308a2b7c3369f583569756ab4fc2889d137f3",
}


@pytest.mark.parametrize("bijection", sorted(MAP_DIGESTS))
def test_map_output_matches_the_recorded_digest(capsys, bijection):
    # every partition of n <= 8 at r = 2, 3, 5, 10; psi and psi-inv reject
    # 72 of these 268 inputs with their precondition error and exit 2
    digest, failures = hashlib.sha256(), 0
    for r in (2, 3, 5, 10):
        for n in range(9):
            for lam in partitions_of(n):
                code, out, err = run_capture(capsys, [
                    "map", "--bijection", bijection, "--r", str(r),
                    "--partition", lam.render()])
                failures += code != 0
                digest.update(f"r={r} {lam} code={code}\n{out}{err}".encode())
    assert failures == (72 if bijection.startswith("psi") else 0)
    assert digest.hexdigest() == MAP_DIGESTS[bijection]


def test_map_zeta_trace(capsys):
    code, out, _ = run_capture(capsys, [
        "map", "--bijection", "zeta", "--r", "2", "--partition", "2",
        "--m", "1", "--k", "1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "2^2"
    assert lines[1] == "case=collides_existing index=0"


def test_map_empty_image_renders_empty_string(capsys):
    code, out, _ = run_capture(capsys, ["map", "--bijection", "psi",
                                        "--r", "3", "--partition", ""])
    assert code == 0 and out.strip() == ""


def test_map_precondition_violation_is_parameter_error(capsys):
    code, _, err = run_capture(capsys, ["map", "--bijection", "psi",
                                        "--r", "2", "--partition", "4,1"])
    assert code == 2
    assert "divisible" in err


def test_verify_csv_schema_and_exit(capsys):
    code, out, err = run_capture(capsys, [
        "verify", "--theorem", "beck_main", "--n-max", "8", "--r", "2,3",
        "--j-max", "1", "--format", "csv"])
    assert code == 0 and not err
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0].keys()) == ["theorem", "n", "r", "j", "t",
                                    "lhs", "rhs1", "rhs2", "ok"]
    assert len(rows) == 9 * 2 * 2
    assert all(row["ok"] == "true" for row in rows)
    assert all(row["t"] == "" for row in rows)
    keys = [(r["theorem"], int(r["n"]), int(r["r"]), int(r["j"]))
            for r in rows]
    assert keys == sorted(keys)


def test_verify_spec_example_invocation(capsys):
    code, out, _ = run_capture(capsys, [
        "verify", "--theorem", "modular_refine", "--n-max", "20",
        "--r", "2,3", "--j-max", "2", "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 21 * 3 * (1 + 2)
    assert all(row["t"] != "" for row in rows)


def test_verify_json_and_csv_carry_identical_records(capsys, tmp_path):
    args = ["verify", "--theorem", "franklin", "--n-max", "6", "--r", "2",
            "--j-max", "2"]
    code, _, _ = run_capture(
        capsys, args + ["--format", "csv", "--output",
                        str(tmp_path / "out.csv")])
    assert code == 0
    code, _, _ = run_capture(
        capsys, args + ["--format", "json", "--output",
                        str(tmp_path / "out.json")])
    assert code == 0
    with (tmp_path / "out.csv").open() as out:
        csv_rows = list(csv.DictReader(out))
    json_rows = json.loads((tmp_path / "out.json").read_text())["records"]
    assert len(csv_rows) == len(json_rows)
    for crow, jrow in zip(csv_rows, json_rows):
        assert crow["theorem"] == jrow["theorem"]
        for field in ("n", "r", "j", "lhs", "rhs1"):
            assert int(crow[field]) == jrow[field]
        assert (crow["t"] == "") == (jrow["t"] is None)
        assert (crow["rhs2"] == "") == (jrow["rhs2"] is None)
        assert (crow["ok"] == "true") == jrow["ok"]


def test_runs_are_byte_identical(capsys, tmp_path):
    for name in ("a.csv", "b.csv"):
        code, _, _ = run_capture(capsys, [
            "verify", "--theorem", "distinct_parts", "--n-max", "7",
            "--r", "2,3", "--format", "csv", "--output",
            str(tmp_path / name)])
        assert code == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_exit_one_on_failing_record(capsys, monkeypatch):
    bad = VerificationRecord("franklin", 3, 2, 0, None, 1,
                             (("|D_j|", 2),), False, "")
    monkeypatch.setattr(identities, "verify",
                        lambda *args, **kwargs: [bad])
    code, _, err = run_capture(capsys, ["verify", "--theorem", "franklin",
                                        "--n-max", "3", "--r", "2"])
    assert code == 1
    assert "FAIL franklin n=3 r=2 j=0: lhs=1" in err


def _tamper_at_4(monkeypatch, *entries):
    """One more in class j of each (field, j) of n = 4's totals, or in
    residue t of class j's row for each (field, j, t), in both routes'
    tables."""
    def tampered(lookup):
        def tampered_lookup(*args):
            table = list(lookup(*args))
            tot = table[4]
            for field, j, *t in entries:
                column = getattr(tot, field)
                if t:
                    value = column[j][:]
                    value[t[0]] += 1
                else:
                    value = column.get(j, 0) + 1
                tot = tot._replace(**{field: {**column, j: value}})
            table[4] = tot
            return table
        return tampered_lookup
    monkeypatch.setattr(identities, "class_totals",
                        tampered(identities.class_totals))
    monkeypatch.setattr(euler_pairs, "tilde_totals",
                        tampered(euler_pairs.tilde_totals))


EULER_N = ["euler", "--s1-multiples-of", "1", "--r"]


def test_fail_lines_label_the_classes_of_each_route(capsys, monkeypatch):
    # every label shape, each mode and mark: the exact and at-most counts,
    # the exact and at-most windows, the note of a gap that r-1 does not
    # divide, and the modular, sum-reduction, diff3 and nonresidual sides;
    # recorded before the labels were built once per command
    def assert_fail_lines(cases):
        for argv, err in cases:
            code, _, got = run_capture(capsys, [*argv, "--n-max", "4",
                                                "--j-max", "0"])
            assert (code, got) == (1, err), argv
    # one partition too many in O_1, one window part too many in D_1
    _tamper_at_4(monkeypatch, ("o_count", 1), ("d_window", 1))
    assert_fail_lines([
        (["verify", "--r", "2", "--theorem", "beck_main"],
         "FAIL beck_main n=4 r=2 j=0: lhs=3 vs "
         "(j+1)|O_{j+1}|-j|O_j|=4; (j+1)|D_{j+1}|-j|D_j|=3\n"),
        (["verify", "--r", "2", "--theorem", "beck_cumulative"],
         "FAIL beck_cumulative n=4 r=2 j=0: lhs=3 vs "
         "(j+1)|O_{j+1}|=4; (j+1)|D_{j+1}|=3\n"),
        (["verify", "--r", "2", "--theorem", "distinct_parts"],
         "FAIL distinct_parts n=4 r=2 j=0: lhs=0 vs T_{j+1}-T_j=1\n"),
        (["verify", "--r", "2", "--theorem", "distinct_cumulative"],
         "FAIL distinct_cumulative n=4 r=2 j=0: lhs=0 vs T_{j+1}=1\n"),
        (EULER_N + ["2", "--item", "1"],
         "FAIL euler_item1 n=4 r=2 j=0: lhs=3 vs "
         "(j+1)|O~_{j+1}|=4; (j+1)|D~_{j+1}|=3\n"),
        (EULER_N + ["2", "--item", "2"],
         "FAIL euler_item2 n=4 r=2 j=0: lhs=3 vs "
         "(j+1)|O~_{j+1}|-j|O~_j|=4; (j+1)|D~_{j+1}|-j|D~_j|=3\n"),
        (EULER_N + ["2", "--item", "3"],
         "FAIL euler_item3 n=4 r=2 j=0: lhs=0 vs T~_{j+1}=1\n"),
        (EULER_N + ["2", "--item", "4"],
         "FAIL euler_item4 n=4 r=2 j=0: lhs=0 vs T~_{j+1}-T~_j=1\n"),
    ])
    # and one part divisible by r too many in O_0: at r = 3 the gap 3 is
    # odd, and every statement reading O's residue row fails
    _tamper_at_4(monkeypatch, ("o_parts_mod", 0, 0))
    note = " (gap 3 not divisible by r-1=2)\n"
    assert_fail_lines([
        (["verify", "--r", "3", "--theorem", "beck_main"],
         "FAIL beck_main n=4 r=3 j=0: lhs=3 vs "
         "(j+1)|O_{j+1}|-j|O_j|=2; (j+1)|D_{j+1}|-j|D_j|=1" + note),
        (["verify", "--r", "3", "--theorem", "beck_cumulative"],
         "FAIL beck_cumulative n=4 r=3 j=0: lhs=3 vs "
         "(j+1)|O_{j+1}|=2; (j+1)|D_{j+1}|=1" + note),
        (EULER_N + ["3", "--item", "1"],
         "FAIL euler_item1 n=4 r=3 j=0: lhs=3 vs "
         "(j+1)|O~_{j+1}|=2; (j+1)|D~_{j+1}|=1" + note),
        (EULER_N + ["3", "--item", "2"],
         "FAIL euler_item2 n=4 r=3 j=0: lhs=3 vs "
         "(j+1)|O~_{j+1}|-j|O~_j|=2; (j+1)|D~_{j+1}|-j|D~_j|=1" + note),
        (["verify", "--r", "3", "--theorem", "modular_refine"],
         "".join(f"FAIL modular_refine n=4 r=3 j=0 t={t}: lhs=0 vs "
                 "(j+1)|O_{j+1}|-j|O_j|=2; (j+1)|D_{j+1}|-j|D_j|=1\n"
                 for t in (1, 2))),
        (["verify", "--r", "3", "--theorem", "sum_reduction"],
         "FAIL sum_reduction n=4 r=3 j=0: lhs=0 vs b_{j,r}(n)=3\n"),
        (["verify", "--r", "3", "--theorem", "diff3"],
         "FAIL diff3 n=4 r=3 j=0: lhs=1 vs "
         "(j+1)|O_{j+1}|-j|O_j|+sum ell_0=3\n"),
        (["verify", "--r", "3", "--theorem", "nonresidual_balance"],
         "FAIL nonresidual_balance n=4 r=3 j=0: lhs=3 vs "
         "sum nonresidual mult over D_j=0\n"),
    ])


def test_the_bench_hooks_find_their_targets():
    # the bench's tracer silently skips a name the package no longer has,
    # so every function that perfbench/worker.py calls or patches on a
    # live path must be where it looks
    hooks = [(cli, "run"), (identities, "verify"),
             (identities, "class_totals"), (enumeration, "partitions_of"),
             (partition, "classify"), (bijections, "franklin_map"),
             (bijections, "franklin_inverse"), (euler_pairs, "tilde_totals"),
             (euler_pairs, "verify_tilde")]
    for module, name in hooks:
        assert callable(getattr(module, name, None)), (module.__name__, name)
    assert list(cli.SERIES_KINDS) == list(qseries.KINDS)
    assert all(callable(f) for f in cli.SERIES_KINDS.values())
    # series-gf also reads each result's N, J and [n, j] cells, compares
    # two results with ==, and names the kinds that take a t itself
    s = cli.SERIES_KINDS["count-O"](2, None, 6, 2)
    assert (s.N, s.J, s[4, 1]) == (6, 2, 3)
    assert s == cli.SERIES_KINDS["count-D"](2, None, 6, 2)
    assert {kind for kind, takes_t in qseries.KINDS.items() if takes_t} == {
        "congruent-parts", "residual-depth", "beck-delta"}


def test_output_matches_the_recorded_digests(capsys):
    # the verify grid and the two fixed euler runs of the benchmark
    code, out, err = run_capture(capsys, [
        "verify", "--theorem", "all", "--n-max", "40", "--r", "2,3,4,5",
        "--j-max", "3", "--format", "csv"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        EXPECTED["verify_grid_sha256"]
    for r in ("2", "3"):
        code, out, err = run_capture(capsys, [
            "euler", "--bound", "40", "--item", "all", "--j-max", "3",
            "--n-max", "40", "--format", "csv", "--r", r,
            "--s1-multiples-of", "1"])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == \
            EXPECTED["euler_fixed_sha256"][f"N r={r}"]


# SHA-256 of the JSON and table output, which the benchmark's CSV digests
# never see: verify and euler recorded before the record rows were built as
# tuples, stats (null t cells, quoted names) and series (negative
# coefficients) before their rows were formatted by the commands themselves
FORMAT_DIGESTS = {
    "verify json":
        "82ed9b0bdb08d65d6d918ce5a89504a43c8d932ff220906e1a4f4962d1cb5827",
    "verify table":
        "65da939b6694c2158ef4b33e2fe003c36378b56178a3329e1a890134edd08c9f",
    "euler json":
        "d2029378b42086e92f8ceae334997a59719f5e2fbc5145901a796367315c9832",
    "stats json":
        "ad5ab161da6ca9a4e70251387d2519c2c65252cf3120c87b308ef8d33270721b",
    "stats table":
        "c7793f29e4f2dcced715b7f4c104f5d28e87fd1b256f718a2619ca7f5f284a58",
    "series json":
        "a135ecdd2388f2dec8bec5f6a0dd735054f49776af2d9f05bbefbd35bec1f94c",
    "series table":
        "fc07fd71fb47bab5275dee695fbad7f90c8ed9a84051376aa6de01dbfdfca2fd",
}
FORMAT_ARGV = {
    "verify": ["verify", "--theorem", "all", "--n-max", "10", "--r", "2,3",
               "--j-max", "2"],
    "euler": ["euler", "--r", "2", "--s1-multiples-of", "1", "--n-max", "10",
              "--j-max", "2"],
    "stats": ["stats", "--stat", "counts", "--n-max", "10", "--r", "2,3",
              "--j-max", "2"],
    "series": ["series", "--which", "beck-delta", "--r", "3", "--t", "1",
               "--n-max", "12", "--j-max", "3"],
}


@pytest.mark.parametrize("key", sorted(FORMAT_DIGESTS))
def test_json_and_table_output_match_the_recorded_digests(capsys, key):
    command, fmt = key.split()
    code, out, err = run_capture(capsys, FORMAT_ARGV[command]
                                 + ["--format", fmt])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == FORMAT_DIGESTS[key]


# SHA-256 of `stats --format csv` for every stat and mode, recorded with the
# other pins: the statistics read STATS, as stat_value and the statements do
STATS_DIGESTS = {
    ("counts", "exact"):
        "94362e11438e77162ec133bc23d8ce7570536a4ab294b6a2eb52b466d1597eaa",
    ("counts", "at-most"):
        "0ec54a89a940f01bab3e3aa31f907f7aa2e7ce9194789f79f17a9f4573c18678",
    ("parts-gap", "exact"):
        "4f0acfff454bacd32772030443f68545a73fd9e81b6ee9b60c746e5eff511843",
    ("parts-gap", "at-most"):
        "fd3e1a96f021cfe65e1f4260906abdd03f11f0493a5fa19d1d82ccf335e48578",
    ("modular-gap", "exact"):
        "aa69f6577721a702241064685a1de4fc8acddcca1a26d07032310b5e13a4bacc",
    ("modular-gap", "at-most"):
        "f8384e9ad6fc8e6fa610c3a68757b7f9b537f79b0baea60b771766c62458a271",
    ("distinct-gap", "exact"):
        "9bb64a3723f30a300977e6fce4bdd846801eeb0f313faa24566eab3de013020e",
    ("distinct-gap", "at-most"):
        "2bad69da0a9f3eb73b30cada14b73b02ed97dcf42b4b2d579afc2d5ca731295b",
    ("repeat-window", "exact"):
        "293bd80624c17d94b7b85613616ae03cfdadbf8f3d1e3b799b27d591bb9a7951",
    ("repeat-window", "at-most"):
        "397c9981f86853fbbd2b0ca04be413741f9cf1f98ec9fca03ac90d8004b2485e",
}


@pytest.mark.parametrize("stat,mode", sorted(STATS_DIGESTS))
def test_stats_output_matches_the_recorded_digests(capsys, stat, mode):
    code, out, err = run_capture(capsys, [
        "stats", "--stat", stat, "--mode", mode, "--n-max", "12",
        "--r", "2,3", "--j-max", "2", "--format", "csv"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        STATS_DIGESTS[stat, mode]


def test_verify_at_the_largest_n(capsys):
    # every theorem, diff3 included, at n = 120 in one process
    code, out, err = run_capture(capsys, [
        "verify", "--theorem", "all", "--n-max", "120", "--r", "2",
        "--j-max", "3", "--format", "csv"])
    assert (code, err) == (0, "")
    assert out.count(",true\n") == 4356
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a51bdcdd80548e1985ac69d7bac4b04c4d6802d07c3c6049ac45ccea6d52bae3")


def test_series_at_the_largest_j(capsys):
    # the largest series workload the command accepts, on a D and an O
    # count product at every r: J = 120 reaches w-degrees the J = 8
    # digests never see, and n*p(n) at n = 120 fills the widest lanes
    for kind, r, digest in (
        ("repeat-window", 2,
         "834decc5ce638d9cfd5f45da7c7cff015b7db8fb4796339d53336cc27a8826a7"),
        ("count-O", 2,
         "5742ea9aebc069bd7b4f5733c177652a0d745ffbb04aec2feeab4df45f40d93e"),
        ("repeat-window", 3,
         "8c99d47fe8afcac27337856d4936a82a6e72326c76ac3737816b86d6990abf37"),
        ("count-O", 3,
         "522d5c2ac6b52fd9c5b2845d15b383a1f1c0d0e74d9e6e58c6281c4f20998eae"),
        ("repeat-window", 4,
         "ef1b955b669c4aae6ecf3ded573e3a54b3d43d6476fd5e669d1fe330b7f59096"),
        ("count-O", 4,
         "98e92921a22881d16cf5c03090b8f016e380dc09ec75bfb4cf92beb818b9cf45"),
        ("repeat-window", 5,
         "563bb3fd1cf1c53b9e154dc7141febdf3011d76d4cdf9ec4422f4409a50d7f39"),
        ("count-O", 5,
         "5cfbb25f45e74b90a8395b88a3d58e4101f7d0cab10b66cb37f6db6a63b2c4af"),
    ):
        code, out, err = run_capture(capsys, [
            "series", "--which", kind, "--r", str(r), "--n-max", "120",
            "--j-max", "120", "--format", "csv"])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (kind, r)


@pytest.mark.parametrize("argv,message", [
    (["verify", "--j-max", "121"], "error: j-max must be at most 120, got 121"),
    (["stats", "--stat", "counts", "--j-max", "121"],
     "error: j-max must be at most 120, got 121"),
    (["euler", "--r", "2", "--s1", "1", "--j-max", "121"],
     "error: j-max must be at most 120, got 121"),
    (["series", "--which", "repeat-window", "--r", "2", "--n-max", "5",
      "--j-max", "121"], "error: j-max must be at most 120, got 121"),
    (["oeis", "--sequence", "A090867", "--j", "121"],
     "error: j must be at most 120, got 121"),
    (["oeis", "--sequence", "A090867", "--j", "-1"],
     "error: class index j must be >= 0, got -1"),
    (["series", "--which", "count-O", "--r", "1"],
     "error: every r must be >= 2, got 1"),
    (["oeis", "--sequence", "A090867", "--r", "1"],
     "error: every r must be >= 2, got 1"),
])
def test_class_index_is_capped(capsys, argv, message):
    code, out, err = run_capture(capsys, argv)
    assert (code, out, err) == (2, "", message + "\n")


def test_usage_errors_exit_two(capsys):
    assert run(["verify", "--theorem", "franklin", "--n-max", "-1"]) == 2
    assert run(["verify", "--jobs", "2"]) == 2  # no process pool any more
    assert run(["verify", "--theorem", "pythagoras"]) == 2
    assert run(["frobnicate"]) == 2
    assert run([]) == 2
    assert run(["map", "--bijection", "zeta", "--r", "2",
                "--partition", "2"]) == 2  # missing --m/--k
    capsys.readouterr()


def test_stats_counts_table(capsys):
    code, out, _ = run_capture(capsys, [
        "stats", "--stat", "counts", "--n-max", "4", "--r", "2",
        "--j-max", "1", "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    lookup = {(r["stat"], r["n"], r["j"]): int(r["value"]) for r in rows}
    assert lookup[("count_O", "4", "1")] == 3
    assert lookup[("count_D", "4", "1")] == 3


def test_stats_modular_gap_rows_have_t(capsys):
    code, out, _ = run_capture(capsys, [
        "stats", "--stat", "modular-gap", "--n-max", "4", "--r", "3",
        "--j-max", "0", "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert {row["t"] for row in rows} == {"1", "2"}


def test_stats_rows_keep_n_then_given_r_order(capsys):
    code, out, _ = run_capture(capsys, [
        "stats", "--stat", "counts", "--n-max", "2", "--r", "3,2",
        "--j-max", "1", "--format", "csv"])
    assert code == 0
    keys = [(row["n"], row["r"], row["j"], row["stat"])
            for row in csv.DictReader(io.StringIO(out))]
    assert keys == [(n, r, j, stat) for n in "012" for r in "32"
                    for j in "01" for stat in ("count_O", "count_D")]


@pytest.mark.parametrize("stat", ["counts", "parts-gap", "modular-gap",
                                  "distinct-gap", "repeat-window"])
def test_stats_at_most_sums_the_exact_rows(capsys, stat):
    # the second grid lists r in first-seen order with a repeat; at r = 3
    # the classes past j = 4 are empty at n = 30, so the running total must
    # carry over them
    for grid in (["--r", "2,3,4,5", "--j-max", "3"],
                 ["--r", "3,2,3", "--t", "all", "--j-max", "8"]):
        tables = {}
        for mode in ("exact", "at-most"):
            code, out, _ = run_capture(capsys, [
                "stats", "--stat", stat, "--mode", mode, "--n-max", "30",
                *grid, "--format", "csv"])
            assert code == 0
            rows = list(csv.DictReader(io.StringIO(out)))
            tables[mode] = {(row["stat"], row["n"], row["r"], row["t"],
                             int(row["j"])): int(row["value"])
                            for row in rows}
            assert len(tables[mode]) == len(rows)
        assert len(tables["at-most"]) == len(tables["exact"]) > 0
        for (*key, j), value in tables["at-most"].items():
            assert value == sum(tables["exact"][(*key, i)]
                                for i in range(j + 1)), (grid, *key, j)


@pytest.mark.parametrize("mode", ["exact", "at-most"])
def test_stats_reads_each_class_once(capsys, monkeypatch, mode):
    # at-most keeps a running total over j instead of re-summing the
    # classes below j, so both modes make one STATS call per row
    calls = []

    def spy(value):
        def read(tot, j, t):
            calls.append(j)
            return value(tot, j, t)
        return read
    monkeypatch.setattr(theorems, "STATS", {
        stat: spy(value) for stat, value in theorems.STATS.items()})
    for stat in ("counts", "modular-gap"):
        calls.clear()
        code, out, _ = run_capture(capsys, [
            "stats", "--stat", stat, "--mode", mode, "--n-max", "12",
            "--r", "2,3", "--j-max", "4", "--format", "csv"])
        assert code == 0
        assert len(calls) == len(out.splitlines()) - 1 > 0, stat


def test_cli_reads_no_private_name_of_another_module():
    # the commands read the named views (theorems.STATS, stat_value) and
    # never a module's underscore helpers
    tree = ast.parse(inspect.getsource(cli))
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level
               for alias in node.names if node.module is None}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert not any(alias.name.startswith("_")
                           for alias in node.names), node.module
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            assert not node.attr.startswith("_"), (node.value.id, node.attr)
    assert "theorems" in modules


@pytest.mark.parametrize("fmt", ["table", "csv"])
def test_stats_repeated_r_lists_each_row_once(capsys, fmt):
    argv = ["stats", "--stat", "parts-gap", "--n-max", "6", "--j-max", "1",
            "--format", fmt, "--r"]
    assert run_capture(capsys, argv + ["2,2"]) == \
        run_capture(capsys, argv + ["2"])


@pytest.mark.parametrize("argv,builds", [
    (["verify", "--theorem", "all", "--n-max", "12", "--r", "2,3",
      "--j-max", "1"], 2),
    (["stats", "--stat", "modular-gap", "--n-max", "12", "--r", "4,2",
      "--j-max", "1"], 2),
    (["oeis", "--sequence", "A090867", "--n-max", "20"], 1),
    # one pass over the moduli for all nine theorems, however many moduli
    (["verify", "--theorem", "all", "--n-max", "12", "--r",
      "2,3,4,5,6,7,8,9,10", "--j-max", "1"], 9),
])
def test_one_totals_table_build_per_modulus(capsys, monkeypatch, argv,
                                            builds):
    tables = count_table_builds(monkeypatch)
    assert run(argv) == 0
    capsys.readouterr()
    assert len(tables) == builds


def test_series_csv_spot_value(capsys):
    code, out, _ = run_capture(capsys, [
        "series", "--which", "count-O", "--r", "2", "--n-max", "6",
        "--j-max", "2", "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 7 * 3
    lookup = {(r["n"], r["j"]): int(r["coefficient"]) for r in rows}
    assert lookup[("4", "1")] == 3
    assert lookup[("0", "0")] == 1


def test_series_t_flag_rules(capsys):
    code, _, err = run_capture(capsys, [
        "series", "--which", "congruent-parts", "--r", "2",
        "--n-max", "4", "--j-max", "1"])
    assert code == 2 and "requires --t" in err
    code, _, err = run_capture(capsys, [
        "series", "--which", "count-O", "--r", "2", "--t", "1",
        "--n-max", "4", "--j-max", "1"])
    assert code == 2 and "does not accept --t" in err


def test_euler_good_pair(capsys):
    code, out, _ = run_capture(capsys, [
        "euler", "--r", "2", "--s1-multiples-of", "1", "--n-max", "10",
        "--j-max", "1", "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert {row["theorem"] for row in rows} == {
        "euler_item1", "euler_item2", "euler_item3", "euler_item4"}
    assert all(row["ok"] == "true" for row in rows)


def test_euler_broken_pair_refused(capsys):
    code, _, err = run_capture(capsys, [
        "euler", "--r", "2", "--s1", "1", "--s2", "1", "--bound", "10",
        "--n-max", "10"])
    assert code == 2
    assert "counterexample at n=2" in err


def test_euler_s1_file(capsys, tmp_path):
    path = tmp_path / "s1.txt"
    path.write_text("3\n6\n9\n12\n", encoding="utf-8")
    code, out, _ = run_capture(capsys, [
        "euler", "--r", "2", "--s1-file", str(path), "--bound", "12",
        "--n-max", "12", "--j-max", "1", "--format", "csv"])
    assert code == 0
    assert all(row["ok"] == "true"
               for row in csv.DictReader(io.StringIO(out)))


def test_euler_s1_file_error_names_the_file_and_line(capsys, tmp_path):
    path = tmp_path / "s1.txt"
    path.write_text("1\n\n2\nx\n", encoding="utf-8")
    code, out, err = run_capture(capsys, [
        "euler", "--r", "2", "--s1-file", str(path), "--n-max", "8"])
    assert (code, out) == (2, "")
    assert err == f"error: --s1-file {path} line 4: expected an integer, " \
                  f"got 'x'\n"


def test_euler_requires_exactly_one_s1_source(capsys):
    code, _, err = run_capture(capsys, ["euler", "--r", "2", "--n-max", "5"])
    assert code == 2 and "exactly one of" in err


def _no_s1(*_):
    raise AssertionError("S1 was built before --bound was checked")


def test_euler_bound_is_capped_before_s1_is_built(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_load_s1", _no_s1)
    code, out, err = run_capture(capsys, [
        "euler", "--r", "2", "--s1-multiples-of", "1",
        "--bound", "1000000000", "--n-max", "5"])
    assert code == 2 and not out
    assert "bound must be at most 120, got 1000000000" in err


def test_euler_bound_below_n_max_is_refused_before_s1_is_built(
        capsys, monkeypatch):
    monkeypatch.setattr(cli, "_load_s1", _no_s1)
    code, out, err = run_capture(capsys, [
        "euler", "--r", "2", "--s1-multiples-of", "1", "--n-max", "10",
        "--bound", "5"])
    assert (code, out) == (2, "")
    assert err == "error: --bound must be at least --n-max=10, got 5\n"


def test_euler_accepts_the_largest_bound(capsys):
    code, out, _ = run_capture(capsys, [
        "euler", "--r", "2", "--s1-multiples-of", "1", "--bound", "120",
        "--n-max", "6", "--j-max", "1", "--format", "csv"])
    assert code == 0
    assert all(row["ok"] == "true"
               for row in csv.DictReader(io.StringIO(out)))


def test_euler_builds_one_table_per_run(capsys, monkeypatch):
    tables = count_table_builds(monkeypatch)
    assert run(["euler", "--r", "2", "--s1-multiples-of", "1",
                "--n-max", "30", "--j-max", "2"]) == 0
    assert run(["euler", "--r", "2", "--s1", "1", "--s2", "1",
                "--bound", "30", "--n-max", "30"]) == 2
    capsys.readouterr()
    assert len(tables) == 2


def _env_with_src() -> dict[str, str]:
    """The environment with this checkout's package first on the path."""
    src = str(Path(beckpart.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("module", ["beckpart", "beckpart.cli"])
def test_python_dash_m_runs_the_command(capsys, module):
    argv = ["verify", "--theorem", "franklin", "--n-max", "6", "--r", "2,3",
            "--j-max", "1", "--format", "csv"]
    _, want, _ = run_capture(capsys, argv)
    env = _env_with_src()
    proc = subprocess.run([sys.executable, "-m", module, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert (proc.returncode, proc.stdout) == (0, want)
    proc = subprocess.run([sys.executable, "-m", module], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 2 and "usage: beckpart" in proc.stderr


@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_closed_output_pipe_exits_3_with_one_line(fmt, unbuffered):
    # 186 KB of CSV, more as a table or JSON, overflows a 64 KiB pipe
    # buffer, so the writer meets the closed end; the records past it go
    # unchecked, and stderr says so.  Unbuffered, a write the reader cut
    # short is dropped without an error, so a later write must meet it.
    src = str(Path(beckpart.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "beckpart", "verify", "--theorem", "all",
         "--n-max", "120", "--r", "2", "--j-max", "3", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert re.fullmatch({
        "table": rb"theorem +n +r +j +t +lhs +rhs1 +rhs2 +ok\n",
        "csv": rb"theorem,n,r,j,t,lhs,rhs1,rhs2,ok\n",
        "json": rb"\{\n"}[fmt], first), first
    assert proc.returncode == 3
    assert err.decode().splitlines() == [
        "error: output closed before every record was written and checked"]


def test_oeis_fixture_hit(capsys):
    code, out, _ = run_capture(capsys, [
        "oeis", "--sequence", "A090867", "--n-max", "20"])
    assert code == 0
    assert "status=ok" in out and "matched=21/21" in out


def test_oeis_unavailable_warns_but_succeeds(capsys):
    code, out, err = run_capture(capsys, [
        "oeis", "--sequence", "A999988777", "--n-max", "5"])
    assert code == 0
    assert "status=unavailable" in out
    assert "warning" in err


@pytest.mark.parametrize("argv,code,matched,err", [
    # index 2 is in the reference and disagrees there
    (["--j", "2", "--n-max", "30"], 1, "matched=2/31",
     "FAIL A090867 n=2: computed=0 reference=1\n"),
    # the prefix only runs past the reference's last index, 60
    (["--n-max", "120"], 0, "matched=61/121", ""),
], ids=["inside", "past-the-end"])
def test_oeis_exits_one_on_a_mismatch_inside_the_reference(
        capsys, argv, code, matched, err):
    got_code, out, got_err = run_capture(
        capsys, ["oeis", "--sequence", "A090867", *argv])
    assert (got_code, got_err) == (code, err) and matched in out


def test_oeis_checks_the_sequence_before_building_the_table(capsys,
                                                            monkeypatch):
    tables = count_table_builds(monkeypatch)
    assert run_capture(capsys, [
        "oeis", "--sequence", "x", "--n-max", "120"]) == (
        2, "", "error: sequence id must be 'A' followed by digits, got 'x'\n")
    assert run_capture(capsys, [
        "oeis", "--sequence", "A090867", "--j", "200"]) == (
        2, "", "error: j must be at most 120, got 200\n")
    assert run_capture(capsys, [
        "oeis", "--sequence", "A090867", "--j", "-1", "--n-max", "120"]) == (
        2, "", "error: class index j must be >= 0, got -1\n")
    assert tables == []


# -- streamed output: the same text as the csv and json modules give ---------

def test_a_bad_t_is_refused_before_any_table_is_built(capsys, monkeypatch):
    builds = count_table_builds(monkeypatch)
    assert run_capture(capsys, [
        "verify", "--theorem", "all", "--n-max", "120", "--r", "2,3,4,5",
        "--t", "9"]) == (
        2, "", "error: t must satisfy 1 <= t <= r-1=1, got 9\n")
    assert builds == []


@pytest.mark.parametrize("argv,message", [
    (["verify", "--theorem", "franklin"], "franklin takes no t"),
    (["stats", "--stat", "counts"], "counts takes no t"),
    (["stats", "--stat", "repeat-window"], "repeat-window takes no t"),
])
def test_a_t_that_nothing_reads_is_refused_before_any_table_is_built(
        capsys, monkeypatch, argv, message):
    builds = count_table_builds(monkeypatch)
    assert run_capture(capsys, [*argv, "--r", "2", "--t", "99", "--n-max",
                                "1", "--j-max", "0"]) == (
        2, "", f"error: {message}\n")
    assert builds == []


def test_a_t_that_some_selection_reads_is_taken(capsys):
    code, out, _ = run_capture(capsys, [
        "verify", "--theorem", "all", "--r", "3", "--t", "1", "--n-max",
        "2", "--j-max", "0", "--format", "csv"])
    assert code == 0
    assert {row["t"] for row in csv.DictReader(io.StringIO(out))} == {"", "1"}
    code, out, _ = run_capture(capsys, [
        "stats", "--stat", "modular-gap", "--r", "3", "--t", "1",
        "--n-max", "2", "--j-max", "0", "--format", "csv"])
    assert code == 0
    assert {row["t"] for row in csv.DictReader(io.StringIO(out))} == {"1"}


@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "all", "--n-max", "120", "--r", "2,3,4,5",
     "--t", "9"],
    ["euler", "--r", "2", "--s1", "1,3", "--n-max", "8"],
    ["stats", "--stat", "counts", "--j-max", "-1"],
    ["stats", "--stat", "modular-gap", "--r", "3,2", "--t", "2",
     "--format", "csv"],
    ["verify", "--theorem", "franklin", "--r", "2", "--t", "99"],
    ["stats", "--stat", "counts", "--r", "2", "--t", "99"],
])
def test_a_refused_command_leaves_its_output_file_alone(capsys, tmp_path,
                                                        argv):
    missing, kept = tmp_path / "missing.csv", tmp_path / "kept.csv"
    kept.write_text("earlier output\n")
    for path in (missing, kept):
        assert run([*argv, "--output", str(path)]) == 2
    capsys.readouterr()
    assert not missing.exists()
    assert kept.read_text() == "earlier output\n"


@pytest.mark.parametrize("r", [2**63, 2**64])
@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "franklin", "--n-max", "1", "--j-max", "0"],
    ["stats", "--stat", "counts", "--n-max", "1", "--j-max", "0"],
    ["euler", "--s1-multiples-of", "1", "--n-max", "1", "--j-max", "0"],
    ["oeis", "--sequence", "A090867", "--n-max", "1"],
], ids=["verify", "stats", "euler", "oeis"])
def test_an_oversized_modulus_exits_2_before_any_output(capsys, tmp_path,
                                                        argv, r):
    # a residue row of length r fails to allocate at once (MemoryError
    # at 2**63, OverflowError at 2**64), before the output is opened
    path = tmp_path / "out.csv"
    output = [] if argv[0] == "oeis" else ["--output", str(path)]
    assert run_capture(capsys, [*argv, "--r", str(r), *output]) == (
        2, "", "error: modulus r too large to tabulate\n")
    assert not path.exists()


def _stats_rows(stat, mode, n_max, r_list, j_max):
    """The rows of ``beckpart stats``, read value by value from the API."""
    names = ("count_O", "count_D") if stat == "counts" else (stat,)
    tables = {r: identities.class_totals(r, n_max) for r in r_list}
    return [(name, n, r, j, t,
             theorems.stat_value(tables[r][n], name, j, mode, t))
            for n in range(n_max + 1) for r in r_list
            for j in range(j_max + 1) for name in names
            for t in (range(1, r) if name == "modular-gap" else (None,))]


def test_csv_equals_the_csv_module_reference(capsys):
    cases = [
        (["verify", "--theorem", "all", "--n-max", "12", "--r", "2,3",
          "--j-max", "2"],
         RECORD_HEADER, record_rows(identities.verify("all", range(13),
                                                      (2, 3), 2))),
        (["euler", "--r", "2", "--s1-multiples-of", "1", "--n-max", "12",
          "--j-max", "2"],
         RECORD_HEADER, record_rows(euler_pairs.verify_tilde(
             "all", euler_pairs.make_euler_pair(2, range(1, 13), 12),
             range(13), 2))),
        (["series", "--which", "congruent-parts", "--r", "3", "--t", "2",
          "--n-max", "12", "--j-max", "3"],
         ("n", "j", "coefficient"),
         [(n, j, s[n, j]) for s in [qseries.series("congruent-parts", 3, 2,
                                                   12, 3)]
          for n in range(13) for j in range(4)]),
    ]
    for stat in ("counts", "parts-gap", "modular-gap", "distinct-gap",
                 "repeat-window"):
        for mode in ("exact", "at-most"):
            cases.append(
                (["stats", "--stat", stat, "--mode", mode, "--n-max", "10",
                  "--r", "2,3", "--j-max", "2"],
                 ("stat", "n", "r", "j", "t", "value"),
                 _stats_rows(stat, mode.replace("-", "_"), 10, (2, 3), 2)))
    for argv, header, rows in cases:
        code, out, err = run_capture(capsys, [*argv, "--format", "csv"])
        assert (code, err) == (0, ""), argv
        assert_same_text(out, reference_csv(header, rows), argv)


def test_no_csv_field_text_needs_quoting():
    # the CSV rows are formatted without the csv module, so a name that
    # reaches a field must be written by csv.writer exactly as it is
    names = (theorems.THEOREM_IDS + euler_pairs.EULER_ITEM_IDS
             + tuple(theorems.STATS) + ("true", "false"))
    for name in names:
        assert not set(name) & set(',"\r\n'), name
        assert reference_csv((name,), []) == name + "\n"


@pytest.mark.parametrize("t", ["all", 1])
def test_verify_json_equals_json_dumps_on_the_bench_grid(capsys, t):
    code, out, err = run_capture(capsys, [
        "verify", "--theorem", "all", "--n-max", "40", "--r", "2,3,4,5",
        "--j-max", "3", "--t", str(t), "--format", "json"])
    assert (code, err) == (0, "")
    meta = {"command": "verify", "theorem": "all", "n_max": 40,
            "r": [2, 3, 4, 5], "j_max": 3, "t": t}
    rows = record_rows(identities.verify("all", range(41), (2, 3, 4, 5), 3,
                                         t), as_json=True)
    assert_same_text(out, reference_json(meta, RECORD_HEADER, rows))


def test_euler_json_equals_json_dumps(capsys):
    code, out, err = run_capture(capsys, [
        "euler", "--r", "3", "--s1-multiples-of", "1", "--n-max", "40",
        "--j-max", "3", "--format", "json"])
    assert (code, err) == (0, "")
    meta = {"command": "euler", "r": 3, "bound": 40, "s1_size": 40,
            "s2_size": 27, "item": "all", "n_max": 40, "j_max": 3}
    rows = record_rows(euler_pairs.verify_tilde(
        "all", euler_pairs.make_euler_pair(3, range(1, 41), 40), range(41),
        3), as_json=True)
    assert_same_text(out, reference_json(meta, RECORD_HEADER, rows))


@pytest.mark.parametrize("count", [0, 1, 2, cli._BLOCK, cli._BLOCK + 1])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_rows_equal_the_reference_at_any_count(capsys, fmt, count):
    # no row, one, and either side of a block of rows written at once
    header = ("stat", "n", "t", "value")
    rows = [(f"s{i}", i, None if i % 3 else i, -i) for i in range(count)]
    meta = {"command": "x", "t": None, "r": [2, 3], "mode": "at-most"}
    null, quote = cli._NULL[fmt], cli._QUOTE[fmt]
    cells = [(quote(stat), n, null if t is None else t, value)
             for stat, n, t, value in rows]
    cli._write_rows(header, cells, argparse.Namespace(format=fmt, output=None),
                    meta)
    want = (reference_csv(header, rows) if fmt == "csv"
            else reference_json(meta, header, rows))
    assert_same_text(capsys.readouterr().out, want)


def test_json_output_peaks_near_the_csv_output(monkeypatch, tmp_path):
    # records stream from the tables to the file in every format but the
    # table: the traced peak of the n = 120 grid as JSON stays within 1 MB
    # of the same grid as CSV.  The tables are built once, outside the
    # trace, so each peak is that of the records and their text (on
    # Python 3.11, about 0.3-0.5 MB for CSV and 0.7 MB for JSON when
    # records stream; 9.3 and 42.9 MB when every record and JSON row was
    # kept).
    tables = {r: identities.class_totals(r, 120) for r in (2, 3, 4, 5)}
    monkeypatch.setattr(identities, "class_totals",
                        lambda r, n_max: tables[r])
    peaks = {}
    for fmt in ("csv", "json"):
        tracemalloc.start()
        try:
            code = run(["verify", "--theorem", "all", "--n-max", "120",
                        "--r", "2,3,4,5", "--j-max", "3", "--format", fmt,
                        "--output", str(tmp_path / fmt)])
            peaks[fmt] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
    assert peaks["json"] <= peaks["csv"] + 1_000_000, peaks


def test_stats_rows_stream_to_the_file(monkeypatch, tmp_path):
    # the 16,810 rows of a modular-gap grid go to the file as they are
    # made: on Python 3.11 the traced peak is 0.2-0.4 MB, and 1.8-2.2 MB
    # when every row was kept in a list.  The tables are built outside the
    # trace.
    tables = {r: identities.class_totals(r, 40) for r in (2, 3, 4, 5)}
    monkeypatch.setattr(identities, "class_totals",
                        lambda r, n_max: tables[r])
    tracemalloc.start()
    try:
        code = run(["stats", "--stat", "modular-gap", "--n-max", "40",
                    "--r", "2,3,4,5", "--j-max", "40", "--format", "csv",
                    "--output", str(tmp_path / "stats.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 1_000_000, peak


# -- one parser per process ---------------------------------------------------

# SHA-256 of each --help at COLUMNS=80, recorded before the parser was
# shared; from Python 3.13 argparse wraps the usage of stats and series
# differently
HELP_SHA256 = {
    "": "d320ccabfcc2174cbc8566f8a2eaa9c29356bb3774c861c2a82306a632bb8527",
    "verify":
        "b9176487036fa6503a0e19c3755533b72c890da21b7f380af6db6b6604e40e78",
    "stats":
        "e1e317208b06c921f6fae62eac949883d1a910e9ff967855a7ab0eda37245d0d",
    "map": "c11edc07f5b90f996a762bcd788c4af4366b9378fcbb91d31fe07931137b34ac",
    "series":
        "cce264ad2b3ba0546c76025a0e1724fbc21ab2871eb1c090c3474b80645015a6",
    "euler":
        "a56a150ca35f7ccdb8026aa5fa148dc579517183c0095420b56fcda5edee4382",
    "oeis": "fc48923c7165e41f30bb574ab3cd6539ed0ef047e0a963498c45eb3a70281039",
}
HELP_SHA256_SINCE_3_13 = {
    "stats":
        "53b3363fd0529c600e9ef2894648ee90c05c5a7d913cb2ee7d041bed84079b27",
    "series":
        "d7da2b328dcef4fa334da7b1e889346c4a1ac38d7de26a08f89b476748aafcad",
}


@pytest.mark.parametrize("command", list(HELP_SHA256))
def test_help_text_is_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [command, "--help"] if command else ["--help"]
    shared = run_capture(capsys, argv)
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert run_capture(capsys, argv) == shared
    code, out, err = shared
    assert (code, err) == (0, "")
    digests = {**HELP_SHA256, **(HELP_SHA256_SINCE_3_13
                                 if sys.version_info >= (3, 13) else {})}
    assert hashlib.sha256(out.encode()).hexdigest() == digests[command]


def test_one_parser_serves_every_run_in_a_process(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setenv("COLUMNS", "80")
    runs = [["euler", "--r", "2", "--s1-multiples-of", "1", "--n-max", "6",
             "--j-max", "1"],
            ["verify", "--theorem", "pythagoras"],
            ["verify", "--r", "3", "--n-max", "3"],
            ["verify", "--n-max", "3"]]
    shared = [run_capture(capsys, argv) for argv in runs]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert [run_capture(capsys, argv) for argv in runs] == shared
    assert [code for code, _, _ in shared] == [0, 2, 0, 0]
    # the last run reads the default r = 2, not the 3 of the run before it
    for (_, out, _), r in zip(shared[2:], ("3", "2")):
        rows = out.splitlines()[1:]
        assert rows and {row.split()[2] for row in rows} == {r}


def test_importing_the_cli_builds_no_parser():
    script = (
        "import contextlib, io\n"
        "from beckpart import cli\n"
        "sizes = [cli.build_parser.cache_info().currsize]\n"
        "for _ in range(2):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        cli.run(['map', '--bijection', 'phi', '--r', '2',\n"
        "                 '--partition', '2,2,1'])\n"
        "    sizes.append(cli.build_parser.cache_info().currsize)\n"
        "print(sizes)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=_env_with_src(), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[0, 1, 1]\n",
                                                          "")
