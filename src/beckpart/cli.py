"""Command-line front end.

One verb per module: ``verify`` (theorem grids), ``stats`` (aggregate
tables), ``map`` (bijections), ``series`` (coefficient tables), ``euler``
(restricted part sets), ``oeis`` (reference cross-checks).  Exit codes:
0 success, 1 at least one verification failed, 2 usage or parameter error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import bijections, euler_pairs, identities, oeis, qseries
from .enumeration import MAX_ENUM_N
from .identities import THEOREM_IDS, VerificationRecord
from .partition import Partition

SERIES_KINDS = {
    "count-O": lambda r, t, N, J: qseries.count_series("O", r, N, J),
    "count-D": lambda r, t, N, J: qseries.count_series("D", r, N, J),
    "congruent-parts": lambda r, t, N, J: qseries.congruent_parts_series(r, t, N, J),
    "residual-depth": lambda r, t, N, J: qseries.residual_depth_series(r, t, N, J),
    "divisible-parts": lambda r, t, N, J: qseries.divisible_parts_series(r, N, J),
    "nonresidual-sum": lambda r, t, N, J: qseries.nonresidual_sum_series(r, N, J),
    "distinct-O": lambda r, t, N, J: qseries.distinct_parts_series("O", r, N, J),
    "distinct-D": lambda r, t, N, J: qseries.distinct_parts_series("D", r, N, J),
    "beck-delta": lambda r, t, N, J: qseries.beck_delta_series(r, t, N, J),
    "repeat-window": lambda r, t, N, J: qseries.repeat_window_series(r, N, J),
}
_NEEDS_T = ("congruent-parts", "residual-depth", "beck-delta")


@dataclass(frozen=True)
class RunConfig:
    """Validated common parameters of a run."""

    n_max: int
    r_list: tuple[int, ...]
    j_max: int
    t: str | int
    fmt: str
    output: str | None
    jobs: int = 1

    def __post_init__(self):
        if not 0 <= self.n_max <= MAX_ENUM_N:
            raise ValueError(f"n-max must be in 0..{MAX_ENUM_N}, got {self.n_max}")
        if not self.r_list:
            raise ValueError("at least one modulus r is required")
        for r in self.r_list:
            if r < 2:
                raise ValueError(f"every r must be >= 2, got {r}")
        if self.j_max < 0:
            raise ValueError(f"j-max must be >= 0, got {self.j_max}")
        if self.fmt not in ("table", "csv", "json"):
            raise ValueError(f"unknown format {self.fmt!r}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")


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


def _write_text(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_rows(rows: list[dict], fmt: str, output: str | None, meta: dict) -> None:
    """Render dict rows (all with identical keys) as table, CSV or JSON."""
    if fmt == "json":
        _write_text(json.dumps({"meta": meta, "records": rows}, indent=2) + "\n",
                    output)
        return
    header = list(rows[0].keys()) if rows else []
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row.values()])
        _write_text(buf.getvalue(), output)
        return
    # plain aligned table
    cells = [[("-" if v is None else str(v)) for v in row.values()] for row in rows]
    widths = [max([len(h)] + [len(c[i]) for c in cells])
              for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for c in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(c, widths)).rstrip())
    _write_text("\n".join(lines) + "\n", output)


def _record_rows(records: list[VerificationRecord], fmt: str) -> list[dict]:
    rows = []
    for rec in records:
        ok = rec.ok if fmt == "json" else str(rec.ok).lower()
        rows.append({
            "theorem": rec.theorem, "n": rec.n, "r": rec.r, "j": rec.j,
            "t": rec.t, "lhs": rec.lhs,
            "rhs1": rec.rhs_value(0), "rhs2": rec.rhs_value(1), "ok": ok,
        })
    return rows


def _report_failures(records: list[VerificationRecord]) -> int:
    failures = [rec for rec in records if not rec.ok]
    for rec in failures:
        detail = "; ".join(f"{label}={value}" for label, value in rec.rhs)
        note = f" ({rec.note})" if rec.note else ""
        print(f"FAIL {rec.theorem} n={rec.n} r={rec.r} j={rec.j}"
              f"{'' if rec.t is None else f' t={rec.t}'}:"
              f" lhs={rec.lhs} vs {detail}{note}", file=sys.stderr)
    return 1 if failures else 0


def _verify_tasks(theorems, cfg: RunConfig) -> list[tuple]:
    """One (theorems, n, r, j_max, t) task per grid point, n downwards so
    that a worker builds each totals table at the largest n it will need;
    ``_sort_records`` restores the output order."""
    return [(theorems, n, r, cfg.j_max, cfg.t)
            for n in range(cfg.n_max, -1, -1) for r in cfg.r_list]


def _verify_chunk(args) -> list[VerificationRecord]:
    theorems, n, r, j_max, t = args
    out = []
    for theorem in theorems:
        out.extend(identities.verify(theorem, [n], [r], j_max, t))
    return out


def _sort_records(records: list[VerificationRecord]) -> list[VerificationRecord]:
    order = {tid: i for i, tid in enumerate(THEOREM_IDS)}
    for i, tid in enumerate(euler_pairs.EULER_ITEM_IDS):
        order[tid] = len(THEOREM_IDS) + i
    return sorted(records, key=lambda rec: (
        order.get(rec.theorem, 99), rec.n, rec.r, rec.j,
        -1 if rec.t is None else rec.t))


def _cmd_verify(args) -> int:
    cfg = RunConfig(args.n_max, _int_list(args.r), args.j_max,
                    _t_selector(args.t), args.format, args.output, args.jobs)
    theorems = THEOREM_IDS if args.theorem == "all" else (args.theorem,)
    records = []
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            for chunk in pool.map(_verify_chunk, _verify_tasks(theorems, cfg)):
                records.extend(chunk)
    else:
        for theorem in theorems:
            records.extend(identities.verify(theorem, range(cfg.n_max + 1),
                                             cfg.r_list, cfg.j_max, cfg.t))
    records = _sort_records(records)
    meta = {"command": "verify", "theorem": args.theorem, "n_max": cfg.n_max,
            "r": list(cfg.r_list), "j_max": cfg.j_max, "t": cfg.t}
    _emit_rows(_record_rows(records, cfg.fmt), cfg.fmt, cfg.output, meta)
    return _report_failures(records)


_STAT_FNS = {
    "parts-gap": lambda n, r, j, t, mode: identities.part_count_gap(n, r, j, mode),
    "modular-gap": lambda n, r, j, t, mode: identities.modular_part_gap(n, r, j, t),
    "distinct-gap": lambda n, r, j, t, mode: identities.distinct_count_gap(n, r, j, mode),
    "repeat-window": lambda n, r, j, t, mode: identities.repeat_window_total(n, r, j),
}


def _cmd_stats(args) -> int:
    cfg = RunConfig(args.n_max, _int_list(args.r), args.j_max,
                    _t_selector(args.t), args.format, args.output)
    mode = args.mode.replace("-", "_")
    rows = []
    # r outermost and n downwards, as in identities.verify: one totals
    # table build per r; the stable sort restores the (n, r, j) order
    for r in cfg.r_list:
        for n in range(cfg.n_max, -1, -1):
            for j in range(cfg.j_max + 1):
                if args.stat == "counts":
                    for family in ("O", "D"):
                        rows.append({"stat": f"count_{family}", "n": n, "r": r,
                                     "j": j, "t": None,
                                     "value": identities.class_count(
                                         family, n, r, j, mode)})
                elif args.stat == "modular-gap":
                    ts = range(1, r) if cfg.t == "all" else (cfg.t,)
                    for t in ts:
                        rows.append({"stat": args.stat, "n": n, "r": r, "j": j,
                                     "t": t,
                                     "value": _STAT_FNS[args.stat](n, r, j, t, mode)})
                else:
                    rows.append({"stat": args.stat, "n": n, "r": r, "j": j,
                                 "t": None,
                                 "value": _STAT_FNS[args.stat](n, r, j, None, mode)})
    rows.sort(key=lambda row: row["n"])
    meta = {"command": "stats", "stat": args.stat, "n_max": cfg.n_max,
            "r": list(cfg.r_list), "j_max": cfg.j_max, "t": cfg.t,
            "mode": args.mode}
    _emit_rows(rows, cfg.fmt, cfg.output, meta)
    return 0


def _cmd_map(args) -> int:
    lam = Partition.parse(args.partition)
    r = args.r
    if args.bijection == "zeta":
        if args.m is None or args.k is None:
            raise ValueError("zeta requires --m and --k")
        variant = args.variant.replace("-", "_")
        outcome = bijections.adjoin_and_classify(
            lam, r, _int_list(args.m), _int_list(args.k), variant)
        print(outcome.image.render())
        if outcome.case is bijections.ZetaCase.COLLIDES_EXISTING:
            print(f"case=collides_existing index={outcome.collided_index}")
        else:
            print("case=fresh_part")
        return 0
    fn = {"psi": bijections.glaisher_map,
          "psi-inv": bijections.glaisher_inverse,
          "phi": bijections.franklin_map,
          "phi-inv": bijections.franklin_inverse}[args.bijection]
    print(fn(lam, r).render())
    return 0


def _cmd_series(args) -> int:
    if args.r < 2:
        raise ValueError(f"r must be >= 2, got {args.r}")
    if args.which in _NEEDS_T:
        if args.t is None:
            raise ValueError(f"--which {args.which} requires --t")
    elif args.t is not None:
        raise ValueError(f"--which {args.which} does not accept --t")
    series = SERIES_KINDS[args.which](args.r, args.t, args.n_max, args.j_max)
    rows = [{"n": n, "j": j, "coefficient": series[n, j]}
            for n in range(series.N + 1) for j in range(series.J + 1)]
    meta = {"command": "series", "which": args.which, "r": args.r,
            "t": args.t, "N": args.n_max, "J": args.j_max}
    _emit_rows(rows, args.format, args.output, meta)
    return 0


def _load_s1(args, bound: int) -> list[int]:
    given = [name for name, val in (("--s1", args.s1),
                                    ("--s1-multiples-of", args.s1_multiples_of),
                                    ("--s1-file", args.s1_file)) if val is not None]
    if len(given) != 1:
        raise ValueError("give exactly one of --s1, --s1-multiples-of, --s1-file")
    if args.s1 is not None:
        return list(_int_list(args.s1))
    if args.s1_multiples_of is not None:
        d = args.s1_multiples_of
        if d < 1:
            raise ValueError(f"--s1-multiples-of must be >= 1, got {d}")
        return list(range(d, bound + 1, d))
    with open(args.s1_file, encoding="utf-8") as fh:
        return [int(line) for line in fh if line.strip()]


def _cmd_euler(args) -> int:
    cfg = RunConfig(args.n_max, (args.r,), args.j_max, "all",
                    args.format, args.output)
    bound = args.bound if args.bound is not None else cfg.n_max
    pair = euler_pairs.make_euler_pair(
        args.r, _load_s1(args, bound), bound,
        s2_override=None if args.s2 is None else _int_list(args.s2))
    if not pair.subbarao_ok:
        witness = euler_pairs.subbarao_counterexample(pair, cfg.n_max)
        if witness:
            n, o, d = witness
            print(f"pair fails the closure condition; counterexample at n={n}: "
                  f"restricted O-count {o} != D-count {d}", file=sys.stderr)
        else:
            print("pair fails the closure condition; no counterexample found "
                  f"on the window n <= {cfg.n_max} (inconclusive)",
                  file=sys.stderr)
        return 2
    items = (1, 2, 3, 4) if args.item == "all" else (int(args.item),)
    records = []
    for item in items:
        records.extend(euler_pairs.verify_tilde(item, pair,
                                                range(cfg.n_max + 1), cfg.j_max))
    records = _sort_records(records)
    meta = {"command": "euler", "r": args.r, "bound": bound,
            "s1_size": len(pair.s1), "s2_size": len(pair.s2),
            "item": args.item, "n_max": cfg.n_max, "j_max": cfg.j_max}
    _emit_rows(_record_rows(records, cfg.fmt), cfg.fmt, cfg.output, meta)
    return _report_failures(records)


def _cmd_oeis(args) -> int:
    if args.r < 2:
        raise ValueError(f"r must be >= 2, got {args.r}")
    if not 0 <= args.n_max <= MAX_ENUM_N:
        raise ValueError(f"n-max must be in 0..{MAX_ENUM_N}, got {args.n_max}")
    identities.class_totals(args.n_max, args.r)  # one table build, at n-max
    values = [identities.class_count(args.family, n, args.r, args.j)
              for n in range(args.n_max + 1)]
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
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beckpart",
        description="Exact verification of partition part-count identities")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, jobs=False):
        p.add_argument("--n-max", type=int, default=20)
        p.add_argument("--r", default="2", help="comma-separated moduli")
        p.add_argument("--j-max", type=int, default=3)
        p.add_argument("--t", default="all", help="'all' or a single residue")
        p.add_argument("--format", choices=("table", "csv", "json"),
                       default="table")
        p.add_argument("--output", default=None, help="write to file")
        if jobs:
            p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("verify", help="verify theorem instances on a grid")
    p.add_argument("--theorem", choices=THEOREM_IDS + ("all",), default="all")
    common(p, jobs=True)
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
                   choices=("psi", "psi-inv", "phi", "phi-inv", "zeta"))
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
    p.add_argument("--format", choices=("table", "csv", "json"),
                   default="table")
    p.add_argument("--output", default=None)
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
    p.add_argument("--format", choices=("table", "csv", "json"),
                   default="table")
    p.add_argument("--output", default=None)
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
    """Parse argv and execute; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)
