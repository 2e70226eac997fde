import csv
import io
import json

import pytest

from beckpart import identities
from beckpart.cli import RunConfig, _verify_chunk, _verify_tasks, run
from beckpart.identities import VerificationRecord


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
    csv_rows = list(csv.DictReader((tmp_path / "out.csv").open()))
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


def test_verify_parallel_matches_sequential(capsys, tmp_path):
    base = ["verify", "--theorem", "all", "--n-max", "6", "--r", "2",
            "--j-max", "1", "--format", "csv"]
    code, _, _ = run_capture(capsys, base + [
        "--output", str(tmp_path / "seq.csv")])
    assert code == 0
    code, _, _ = run_capture(capsys, base + [
        "--jobs", "2", "--output", str(tmp_path / "par.csv")])
    assert code == 0
    assert (tmp_path / "seq.csv").read_bytes() == \
        (tmp_path / "par.csv").read_bytes()


def test_exit_one_on_failing_record(capsys, monkeypatch):
    bad = VerificationRecord("franklin", 3, 2, 0, None, 1,
                             (("|D_j|", 2),), False, "")
    monkeypatch.setattr(identities, "verify",
                        lambda *args, **kwargs: [bad])
    code, _, err = run_capture(capsys, ["verify", "--theorem", "franklin",
                                        "--n-max", "3", "--r", "2"])
    assert code == 1
    assert "FAIL franklin n=3 r=2 j=0: lhs=1" in err


def test_usage_errors_exit_two(capsys):
    assert run(["verify", "--theorem", "franklin", "--n-max", "-1"]) == 2
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


@pytest.mark.parametrize("argv,builds", [
    (["verify", "--theorem", "all", "--n-max", "12", "--r", "2,3",
      "--j-max", "1"], 2),
    (["stats", "--stat", "modular-gap", "--n-max", "12", "--r", "4,2",
      "--j-max", "1"], 2),
    (["oeis", "--sequence", "A090867", "--n-max", "20"], 1),
])
def test_one_totals_table_build_per_modulus(capsys, monkeypatch, argv,
                                            builds):
    cache = identities.TotalsCache()
    monkeypatch.setattr(identities, "class_totals", cache)
    assert run(argv) == 0
    capsys.readouterr()
    assert cache.cache_info().misses == builds


def test_parallel_verify_tasks_build_each_table_once(monkeypatch):
    # a worker runs its tasks in queue order; n must come downwards
    cache = identities.TotalsCache()
    monkeypatch.setattr(identities, "class_totals", cache)
    cfg = RunConfig(12, (2, 3), 1, "all", "table", None, jobs=2)
    tasks = _verify_tasks(identities.THEOREM_IDS, cfg)
    assert len(tasks) == 13 * 2
    for task in tasks:
        _verify_chunk(task)
    assert cache.cache_info().misses == 2


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


def test_euler_requires_exactly_one_s1_source(capsys):
    code, _, err = run_capture(capsys, ["euler", "--r", "2", "--n-max", "5"])
    assert code == 2 and "exactly one of" in err


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
