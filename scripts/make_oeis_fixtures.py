#!/usr/bin/env python3
"""Regenerate the OEIS fixtures in ``src/beckpart/data/``.

The fixtures are self-generated regression data, not the published OEIS
b-files: they were computed by this package on a build host with no route
to oeis.org.  A check against them shows that the code still reproduces
its own earlier output, not that it agrees with OEIS.  Before a value is
written it must agree across three routes: direct constrained
generation and filtering the full partition stream (the enumeration
oracles in ``tests/helpers.py``), and the package's truncated-series
coefficient.  Run from the repository root:

    python scripts/make_oeis_fixtures.py
"""

from __future__ import annotations

import sys
from pathlib import Path

from beckpart import qseries
from beckpart.identities import class_totals
from beckpart.theorems import stat_value

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from helpers import ClassSpec, count_class  # noqa: E402

N_MAX = 60
DATA_DIR = ROOT / "src" / "beckpart" / "data"

HEADER = """\
# Reference values for {sid}: {what}.
# Generated locally by scripts/make_oeis_fixtures.py (build host is
# offline); each value agreed across direct generation, filtered
# enumeration, and series coefficients before being written.
"""


def one_even_part_counts(n_max: int) -> list[int]:
    spec = ClassSpec("O", 2, 1)
    series = qseries.series("count-O", 2, None, n_max, 1)
    values = []
    for n in range(n_max + 1):
        direct = count_class(n, spec, method="direct")
        filtered = count_class(n, spec, method="filter")
        coeff = series[n, 1]
        if not direct == filtered == coeff:
            raise AssertionError(
                f"routes disagree at n={n}: {direct}, {filtered}, {coeff}")
        values.append(direct)
    return values


def part_count_gap_values(n_max: int) -> list[int]:
    return [stat_value(tot, "parts-gap", 0) for tot in class_totals(2, n_max)]


def write_fixture(sid: str, what: str, values: list[int]) -> Path:
    path = DATA_DIR / f"{sid}.txt"
    lines = [HEADER.format(sid=sid, what=what)]
    lines += [f"{n} {v}\n" for n, v in enumerate(values)]
    path.write_text("".join(lines), encoding="ascii")
    return path


def main() -> None:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    counts = one_even_part_counts(N_MAX)
    gaps = part_count_gap_values(N_MAX)
    # the two sequences agree valuewise; that equality is one of the
    # verified identities, so check it here too
    assert counts == gaps, "part-count gap must equal the one-even-part counts"
    p1 = write_fixture("A090867", "partitions with exactly one even part value",
                       counts)
    p2 = write_fixture("A265251",
                       "part-count gap between odd-part and distinct-part "
                       "partitions", gaps)
    print(f"wrote {p1}")
    print(f"wrote {p2}")
    print("first values:", counts[:13])


if __name__ == "__main__":
    main()
