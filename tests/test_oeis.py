import importlib.util
import os
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import beckpart
from beckpart import oeis
from beckpart.identities import class_totals
from beckpart.theorems import stat_value
from beckpart.oeis import (CACHE_ENV_VAR, best_prefix_match, crosscheck,
                           load_reference, parse_b_file)


def test_parse_b_file_with_comments_and_blanks():
    text = "# a comment\n\n0 0\n1 0\n2 1\n  3   1 \n"
    assert parse_b_file(text) == {0: 0, 1: 0, 2: 1, 3: 1}


@pytest.mark.parametrize("text", ["0 1 2\n", "zero 1\n", "3\n", "1 x\n"])
def test_parse_b_file_malformed(text):
    with pytest.raises(ValueError, match="malformed b-file line 1"):
        parse_b_file(text)


def test_best_prefix_match_plain():
    ref = {i: v for i, v in enumerate([0, 0, 1, 1, 3, 4, 6])}
    assert best_prefix_match(ref, [0, 0, 1, 1, 3, 4, 6]) == (7, 0)
    assert best_prefix_match(ref, [0, 0, 1, 1, 9]) == (4, 0)


def test_best_prefix_match_detects_offset():
    # reference indexed from 1 while computed values start at n=0
    ref = {i + 1: v for i, v in enumerate([5, 7, 11, 13])}
    length, offset = best_prefix_match(ref, [5, 7, 11, 13])
    assert (length, offset) == (4, 1)


def test_best_prefix_match_empty_values():
    assert best_prefix_match({0: 1}, []) == (0, 0)


def test_bundled_fixture_matches_computed_prefix():
    values = [stat_value(tot, "count_O", 1) for tot in class_totals(2, 30)]
    report = crosscheck("A090867", values)
    assert report.status == "ok"
    assert report.source == "fixture"
    assert report.matched == report.total == 31
    assert report.offset == 0


def test_mismatch_names_the_first_differing_value_in_the_reference():
    assert crosscheck("A090867", [0, 0, 5]).mismatch == (2, 5, 1)
    assert crosscheck("A090867", [0, 0, 1]).mismatch is None


def test_second_fixture_present():
    table, source = load_reference("A265251")
    assert source == "fixture"
    assert table[4] == 3


def test_unavailable_reference():
    report = crosscheck("A999988777", [1, 2, 3])
    assert report.status == "unavailable"
    assert report.matched == 0
    assert report.total == 3 and report.source == ""


def test_empty_values_trivially_match():
    report = crosscheck("A090867", [])
    assert report.status == "ok" and report.matched == 0 and report.total == 0


def test_cache_lookup(tmp_path, monkeypatch):
    (tmp_path / "b000042.txt").write_text("0 9\n1 8\n2 7\n", encoding="ascii")
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    table, source = load_reference("A000042", cache_dir=str(tmp_path))
    assert source == "cache" and table == {0: 9, 1: 8, 2: 7}
    # environment variable supplies the default cache directory
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    table, source = load_reference("A000042")
    assert source == "cache"


def test_invalid_sequence_id():
    with pytest.raises(ValueError, match="'A' followed by digits"):
        crosscheck("090867", [0])
    with pytest.raises(ValueError, match="'A' followed by digits"):
        crosscheck("A90 867", [0])


def test_fixture_script_reproduces_the_bundled_prefix():
    # the generator's three routes (two enumeration oracles and the
    # series) still give the first 31 bundled values
    path = (Path(__file__).resolve().parent.parent / "scripts"
            / "make_oeis_fixtures.py")
    spec = importlib.util.spec_from_file_location("make_oeis_fixtures", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    for sid, values in (("A090867", script.one_even_part_counts(30)),
                        ("A265251", script.part_count_gap_values(30))):
        ref, source = load_reference(sid)
        assert source == "fixture"
        assert values == [ref[n] for n in range(31)], sid


def test_cli_import_leaves_the_http_stack_unloaded():
    # only an explicit --online fetch imports urllib.request
    src = str(Path(beckpart.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, beckpart.cli; print("
         "sorted({'urllib.request', 'http.client'} & set(sys.modules)))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_online_text_is_none_when_the_fetch_fails(monkeypatch):
    def refuse(url, timeout):
        raise urllib.error.URLError("no route")

    monkeypatch.setattr(urllib.request, "urlopen", refuse)
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    assert oeis._online_text("A090867", timeout=0.1) is None
    reference, source = load_reference("A999988777", online=True)
    assert (reference, source) == (None, "")
