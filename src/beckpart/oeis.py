"""Offline-first OEIS b-file lookup and prefix matching.

Reference values are consulted in order: bundled fixture, cached b-file,
then (only when explicitly allowed) an HTTP fetch.  Everything degrades to
a distinct "unavailable" status rather than an error, so offline runs
never fail on missing references.
"""

from __future__ import annotations

import os
import re
from typing import Iterable, NamedTuple

CACHE_ENV_VAR = "BECKPART_OEIS_CACHE"
_ID_RE = re.compile(r"A\d+")


def parse_b_file(text: str) -> dict[int, int]:
    """Parse "index value" lines; '#' comments and blank lines ignored."""
    table: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"malformed b-file line {lineno}: {raw!r}")
        try:
            idx, val = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"malformed b-file line {lineno}: {raw!r}") from None
        table[idx] = val
    return table


def check_id(sequence_id: str) -> None:
    if not _ID_RE.fullmatch(sequence_id):
        raise ValueError(
            f"sequence id must be 'A' followed by digits, got {sequence_id!r}")


def _fixture_text(sequence_id: str) -> str | None:
    # imported here, where a fixture is read: it loads inspect and zipfile
    from importlib import resources

    ref = resources.files("beckpart.data") / f"{sequence_id}.txt"
    try:
        return ref.read_text(encoding="ascii")
    except (FileNotFoundError, ModuleNotFoundError):
        return None


def _cache_text(sequence_id: str, cache_dir: str | None) -> str | None:
    directory = cache_dir or os.environ.get(CACHE_ENV_VAR)
    if not directory:
        return None
    path = os.path.join(directory, f"b{sequence_id[1:]}.txt")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="ascii") as f:
        return f.read()


def _online_text(sequence_id: str, timeout: float) -> str | None:
    # imported here, the only place that fetches: at module level
    # urllib.request would load http.client and email on every CLI start
    import urllib.error
    import urllib.request

    url = f"https://oeis.org/{sequence_id}/b{sequence_id[1:]}.txt"
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.read().decode("ascii")
    except (urllib.error.URLError, OSError, UnicodeDecodeError):
        return None


def load_reference(sequence_id: str, *, cache_dir: str | None = None,
                   online: bool = False
                   ) -> tuple[dict[int, int] | None, str]:
    """Return (index -> value table, source name) or (None, "")."""
    check_id(sequence_id)
    text = _fixture_text(sequence_id)
    if text is not None:
        return parse_b_file(text), "fixture"
    text = _cache_text(sequence_id, cache_dir)
    if text is not None:
        return parse_b_file(text), "cache"
    if online:
        text = _online_text(sequence_id, 10.0)
        if text is not None:
            return parse_b_file(text), "online"
    return None, ""


class MatchReport(NamedTuple):
    """Longest-prefix comparison of computed values against a reference."""

    sequence_id: str
    status: str            # "ok" or "unavailable"
    matched: int           # longest matching prefix length
    offset: int            # shift added to computed indices
    total: int             # number of computed values
    source: str            # fixture / cache / online / ""
    # (n, computed, reference) at the first unmatched value when the
    # reference has that index; None when the prefix only runs past it
    mismatch: tuple[int, int, int] | None = None


def best_prefix_match(reference: dict[int, int], values: list[int]
                      ) -> tuple[int, int]:
    """(length, offset) of the longest prefix of ``values`` found in the
    reference at indices k + offset.

    Reference sequences may be indexed from a different origin, so shifts
    in [-10, 10] are tried; ties prefer the smallest |offset|.
    """
    best = (0, 0)
    for offset in sorted(range(-10, 11), key=lambda d: (abs(d), d)):
        length = 0
        for k, v in enumerate(values):
            if reference.get(k + offset) != v:
                break
            length += 1
        if length > best[0]:
            best = (length, offset)
    return best


def crosscheck(sequence_id: str, values: Iterable[int], *,
               cache_dir: str | None = None,
               online: bool = False) -> MatchReport:
    """Compare computed values against the named reference sequence."""
    values = list(values)
    reference, source = load_reference(sequence_id, cache_dir=cache_dir,
                                       online=online)
    if reference is None:
        return MatchReport(sequence_id, "unavailable", 0, 0, len(values), "")
    matched, offset = best_prefix_match(reference, values)
    idx = matched + offset
    mismatch = None
    if matched < len(values) and idx in reference:
        mismatch = (matched, values[matched], reference[idx])
    return MatchReport(sequence_id, "ok", matched, offset, len(values), source,
                       mismatch)
