"""Command-line front end.

One verb per module: ``verify`` (theorem grids), ``stats`` (aggregate
tables), ``map`` (bijections), ``series`` (coefficient tables), ``euler``
(restricted part sets), ``oeis`` (reference cross-checks).  Exit codes:
0 success, 1 at least one verification failed, 2 usage or parameter error,
3 the output closed (say, a pipe into ``head``) before every record was
written and checked.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from functools import cache, partial
from itertools import islice
from json.encoder import encode_basestring_ascii
from typing import Iterable

from . import bijections, euler_pairs, identities, oeis, qseries, theorems
from .identities import MAX_N
from .theorems import THEOREM_IDS, VerificationRecord
from .partition import Partition

SERIES_KINDS = {kind: partial(qseries.series, kind) for kind in qseries.KINDS}
BIJECTIONS = {"psi": bijections.glaisher_map,
              "psi-inv": bijections.glaisher_inverse,
              "phi": bijections.franklin_map,
              "phi-inv": bijections.franklin_inverse}


def _check_grid(n_max: int, r_list: tuple[int, ...], j_max: int) -> None:
    """Refuse a grid that a command cannot run."""
    if not 0 <= n_max <= MAX_N:
        raise ValueError(f"n-max must be in 0..{MAX_N}, got {n_max}")
    if not r_list:
        raise ValueError("at least one modulus r is required")
    for r in r_list:
        if r < 2:
            raise ValueError(f"every r must be >= 2, got {r}")
    if j_max < 0:
        raise ValueError(f"j-max must be >= 0, got {j_max}")
    # a class index above n selects an empty class
    if j_max > MAX_N:
        raise ValueError(f"j-max must be at most {MAX_N}, got {j_max}")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _t_selector(text: str) -> str | int:
    if text == "all":
        return "all"
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"--t must be 'all' or an integer, got {text!r}") from None


# a value's cell per format: None as this, a string passed through this
_NULL = {"table": "-", "csv": "", "json": "null"}
_QUOTE = {"table": str, "csv": str, "json": encode_basestring_ascii}
_BLOCK = 1024  # rows per write


def _write_rows(header: tuple[str, ...], cells, args, meta: dict) -> None:
    """Write rows of cells under ``header`` as ``args.format``: an aligned
    table, one CSV line or one JSON object per row, the same text as
    ``csv.writer`` or ``json.dumps({"meta": meta, "records": [...]},
    indent=2)`` would give.  A cell is an int or a string already in the
    format's text (``_NULL``, ``_QUOTE``).  Each format is written
    ``_BLOCK`` lines at a time, so a closed output meets a later write:
    CSV and JSON rows as they come, a table's once all are read."""
    json_ = args.format == "json"
    if args.format == "table":  # one cell per row, padded to the widths
        rows = [header, *(tuple(map(str, row)) for row in cells)]
        widths = [max(map(len, column)) for column in zip(*rows)]
        head, line = "", "%s\n"
        cells = (("  ".join(map(str.ljust, row, widths)).rstrip(),)
                 for row in rows)
    elif json_:  # each object after the first follows a comma
        head = ('{\n  "meta": '
                + json.dumps(meta, indent=2).replace("\n", "\n  ")
                + ',\n  "records": [')
        line = ",\n    {\n" + ",\n".join(
            f"      {encode_basestring_ascii(key)}: %s" for key in header
        ) + "\n    }"
    else:
        head = ",".join(header) + "\n"
        line = ",".join(["%s"] * len(header)) + "\n"
    lines = map(line.__mod__, cells)
    with (open(args.output, "w", encoding="utf-8") if args.output
          else contextlib.nullcontext(sys.stdout)) as out:
        out.write(head)
        first = True
        while block := "".join(islice(lines, _BLOCK)):
            out.write(block[1:] if json_ and first else block)
            first = False
        if json_:
            out.write("]\n}\n" if first else "\n  ]\n}\n")


RECORD_HEADER = ("theorem", "n", "r", "j", "t", "lhs", "rhs1", "rhs2", "ok")


def _emit_records(records: Iterable[VerificationRecord], args,
                  meta: dict) -> int:
    """Emit one row per record under RECORD_HEADER (ok a JSON bool, or
    true/false as text) as the records come, keeping the failed ones, then
    a FAIL line on stderr for each; returns the exit code, 1 when any
    failed."""
    null, quote = _NULL[args.format], _QUOTE[args.format]
    failures = []

    def cells():
        for rec in records:
            theorem, n, r, j, t, lhs, rhs, ok, _ = rec
            if not ok:
                failures.append(rec)
            yield (quote(theorem), n, r, j, null if t is None else t, lhs,
                   rhs[0][1], rhs[1][1] if len(rhs) > 1 else null,
                   "true" if ok else "false")
    _write_rows(RECORD_HEADER, cells(), args, meta)
    for rec in failures:
        detail = "; ".join(f"{label}={value}" for label, value in rec.rhs)
        note = f" ({rec.note})" if rec.note else ""
        print(f"FAIL {rec.theorem} n={rec.n} r={rec.r} j={rec.j}"
              f"{'' if rec.t is None else f' t={rec.t}'}:"
              f" lhs={rec.lhs} vs {detail}{note}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_verify(args) -> int:
    r_list, t = _int_list(args.r), _t_selector(args.t)
    _check_grid(args.n_max, r_list, args.j_max)
    records = identities.verify(args.theorem, range(args.n_max + 1), r_list,
                                args.j_max, t)
    meta = {"command": "verify", "theorem": args.theorem,
            "n_max": args.n_max, "r": list(r_list), "j_max": args.j_max,
            "t": t}
    return _emit_records(records, args, meta)


def _cmd_stats(args) -> int:
    r_list, t_sel = _int_list(args.r), _t_selector(args.t)
    _check_grid(args.n_max, r_list, args.j_max)
    stats = ("count_O", "count_D") if args.stat == "counts" else (args.stat,)
    if t_sel != "all" and not any(stat in theorems.READS_T for stat in stats):
        raise ValueError(f"{args.stat} takes no t")
    # each r once, in first-seen order, so a repeated r adds no rows; the
    # residues are checked before a table is built or a row is written
    rs = dict.fromkeys(r_list)
    residues = {(r, stat): theorems.t_values(stat, r, t_sel)
                for r in rs for stat in stats}
    tables = {r: identities.class_totals(r, args.n_max) for r in rs}
    null, quote = _NULL[args.format], _QUOTE[args.format]
    at_most = args.mode == "at-most"

    def cells():
        for n in range(args.n_max + 1):
            for r, table in tables.items():
                tot, total = table[n], {}  # at-most: (stat, t) -> sum to j
                for j in range(args.j_max + 1):
                    for stat in stats:
                        for t in residues[r, stat]:
                            value = theorems.STATS[stat](tot, j, t)
                            if at_most:
                                value += total.get((stat, t), 0)
                                total[stat, t] = value
                            yield (quote(stat), n, r, j,
                                   null if t is None else t, value)
    meta = {"command": "stats", "stat": args.stat, "n_max": args.n_max,
            "r": list(r_list), "j_max": args.j_max, "t": t_sel,
            "mode": args.mode}
    _write_rows(("stat", "n", "r", "j", "t", "value"), cells(), args, meta)
    return 0


def _cmd_map(args) -> int:
    lam = Partition.parse(args.partition)
    if args.bijection == "zeta":
        if args.m is None or args.k is None:
            raise ValueError("zeta requires --m and --k")
        variant = args.variant.replace("-", "_")
        outcome = bijections.adjoin_and_classify(
            lam, args.r, _int_list(args.m), _int_list(args.k), variant)
        print(outcome.image.render())
        if outcome.case is bijections.ZetaCase.COLLIDES_EXISTING:
            print(f"case=collides_existing index={outcome.collided_index}")
        else:
            print("case=fresh_part")
        return 0
    print(BIJECTIONS[args.bijection](lam, args.r).render())
    return 0


def _cmd_series(args) -> int:
    _check_grid(args.n_max, (args.r,), args.j_max)
    if qseries.KINDS[args.which]:
        if args.t is None:
            raise ValueError(f"--which {args.which} requires --t")
    elif args.t is not None:
        raise ValueError(f"--which {args.which} does not accept --t")
    series = SERIES_KINDS[args.which](args.r, args.t, args.n_max, args.j_max)
    rows = ((n, j, v) for n, row in enumerate(series.c)
            for j, v in enumerate(row))
    meta = {"command": "series", "which": args.which, "r": args.r,
            "t": args.t, "N": args.n_max, "J": args.j_max}
    _write_rows(("n", "j", "coefficient"), rows, args, meta)
    return 0


def _load_s1(args, bound: int) -> list[int]:
    if (args.s1, args.s1_multiples_of, args.s1_file).count(None) != 2:
        raise ValueError("give exactly one of --s1, --s1-multiples-of, --s1-file")
    if args.s1 is not None:
        return list(_int_list(args.s1))
    if args.s1_multiples_of is not None:
        d = args.s1_multiples_of
        if d < 1:
            raise ValueError(f"--s1-multiples-of must be >= 1, got {d}")
        return list(range(d, bound + 1, d))
    members = []
    with open(args.s1_file, encoding="utf-8") as fh:
        for num, line in enumerate(fh, 1):
            if line.strip():
                try:
                    members.append(int(line))
                except ValueError:
                    raise ValueError(
                        f"--s1-file {args.s1_file} line {num}: expected an "
                        f"integer, got {line.strip()!r}") from None
    return members


def _cmd_euler(args) -> int:
    _check_grid(args.n_max, (args.r,), args.j_max)
    bound = args.bound if args.bound is not None else args.n_max
    # both checked before S1 is materialized
    if bound > MAX_N:
        raise ValueError(f"bound must be at most {MAX_N}, got {bound}")
    if bound < args.n_max:
        raise ValueError(f"--bound must be at least --n-max={args.n_max}, "
                         f"got {bound}")
    pair = euler_pairs.make_euler_pair(
        args.r, _load_s1(args, bound), bound,
        s2_override=None if args.s2 is None else _int_list(args.s2))
    if not pair.subbarao_ok:
        witness = euler_pairs.subbarao_counterexample(pair, args.n_max)
        if witness:
            n, o, d = witness
            print(f"pair fails the closure condition; counterexample at n={n}: "
                  f"restricted O-count {o} != D-count {d}", file=sys.stderr)
        else:
            print("pair fails the closure condition; no counterexample found "
                  f"on the window n <= {args.n_max} (inconclusive)",
                  file=sys.stderr)
        return 2
    item = args.item if args.item == "all" else int(args.item)
    records = euler_pairs.verify_tilde(item, pair, range(args.n_max + 1),
                                       args.j_max)
    meta = {"command": "euler", "r": args.r, "bound": bound,
            "s1_size": len(pair.s1), "s2_size": len(pair.s2),
            "item": args.item, "n_max": args.n_max, "j_max": args.j_max}
    return _emit_records(records, args, meta)


def _cmd_oeis(args) -> int:
    _check_grid(args.n_max, (args.r,), 0)
    if args.j > MAX_N:
        raise ValueError(f"j must be at most {MAX_N}, got {args.j}")
    if args.j < 0:
        raise ValueError(f"class index j must be >= 0, got {args.j}")
    oeis.check_id(args.sequence)  # before the table is built
    values = [theorems.STATS[f"count_{args.family}"](tot, args.j, None)
              for tot in identities.class_totals(args.r, args.n_max)]
    report = oeis.crosscheck(args.sequence, values, cache_dir=args.cache_dir,
                             online=args.online)
    if report.status == "unavailable":
        print(f"warning: reference {args.sequence} unavailable "
              "(no fixture, no cache, online fetch not allowed or failed)",
              file=sys.stderr)
        print(f"sequence={report.sequence_id} status=unavailable")
        return 0
    print(f"sequence={report.sequence_id} status=ok source={report.source} "
          f"matched={report.matched}/{report.total} offset={report.offset}")
    if report.mismatch:
        n, computed, reference = report.mismatch
        print(f"FAIL {report.sequence_id} n={n}: computed={computed} "
              f"reference={reference}", file=sys.stderr)
        return 1
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beckpart",
        description="Exact verification of partition part-count identities")
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p, help=None):
        p.add_argument("--format", choices=("table", "csv", "json"),
                       default="table")
        p.add_argument("--output", default=None, help=help)

    def common(p):
        p.add_argument("--n-max", type=int, default=20)
        p.add_argument("--r", default="2", help="comma-separated moduli")
        p.add_argument("--j-max", type=int, default=3)
        p.add_argument("--t", default="all", help="'all' or a single residue")
        output(p, "write to file")

    p = sub.add_parser("verify", help="verify theorem instances on a grid")
    p.add_argument("--theorem", choices=THEOREM_IDS + ("all",), default="all")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("stats", help="tables of aggregate statistics")
    p.add_argument("--stat", required=True,
                   choices=("counts", "parts-gap", "modular-gap",
                            "distinct-gap", "repeat-window"))
    p.add_argument("--mode", choices=("exact", "at-most"), default="exact")
    common(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("map", help="apply a bijection to one partition")
    p.add_argument("--bijection", required=True,
                   choices=(*BIJECTIONS, "zeta"))
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--partition", required=True,
                   help="comma-separated parts, e.g. '5,3^2,1'")
    p.add_argument("--m", default=None, help="zeta: comma-separated m tuple")
    p.add_argument("--k", default=None, help="zeta: comma-separated k tuple")
    p.add_argument("--variant", choices=("divisible-parts", "repeated-mults"),
                   default="divisible-parts")
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("series", help="emit truncated series coefficients")
    p.add_argument("--which", required=True, choices=tuple(SERIES_KINDS))
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--n-max", type=int, default=40, help="q-truncation N")
    p.add_argument("--j-max", type=int, default=8, help="w-truncation J")
    output(p)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("euler", help="verify the restricted-set identities")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s1", default=None, help="explicit members, e.g. '1,2,3'")
    p.add_argument("--s1-multiples-of", type=int, default=None)
    p.add_argument("--s1-file", default=None, help="one integer per line")
    p.add_argument("--s2", default=None, help="override the derived S2")
    p.add_argument("--bound", type=int, default=None,
                   help="window bound (default: n-max)")
    p.add_argument("--item", choices=("1", "2", "3", "4", "all"), default="all")
    p.add_argument("--n-max", type=int, default=20)
    p.add_argument("--j-max", type=int, default=2)
    output(p)
    p.set_defaults(func=_cmd_euler)

    p = sub.add_parser("oeis", help="cross-check a computed sequence")
    p.add_argument("--sequence", required=True, help="e.g. A090867")
    p.add_argument("--family", choices=("O", "D"), default="O")
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--n-max", type=int, default=30)
    p.add_argument("--cache-dir", default=None,
                   help=f"b-file cache (or ${oeis.CACHE_ENV_VAR})")
    p.add_argument("--online", action="store_true",
                   help="allow fetching the b-file over HTTP")
    p.set_defaults(func=_cmd_oeis)
    return parser


def run(argv: list[str]) -> int:
    """Parse argv and execute; returns the process exit code.  The parser
    is built on the first call and reused by every later one."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout's unwritten buffer would fail again when flushed at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: output closed before every record was written and "
              "checked", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError):
        print("error: modulus r too large to tabulate", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
