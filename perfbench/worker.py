"""One benchmark iteration of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] \
        [--spans-out PATH] [--setup-only]

Imports beckpart from ``src/`` of the checkout, builds the workload's
inputs from the seed, prints the monotonic time at which it was ready, runs
the timed phase once (caches cold: every module-level ``lru_cache`` is
empty in a new interpreter) and checks the output.  With ``--trace`` the
public functions of each layer are wrapped by ``tracer.Tracer`` for the
timed phase and per-layer numbers are added.  The result is one JSON line
on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import random
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))

VERIFY_ARGV = ("verify", "--theorem", "all", "--n-max", "40",
               "--r", "2,3,4,5", "--j-max", "3", "--format", "csv")
EULER_ARGV = ("euler", "--bound", "40", "--item", "all", "--j-max", "3",
              "--n-max", "40", "--format", "csv")
SERIES_N, SERIES_J = 120, 8
SERIES_NEEDS_T = ("congruent-parts", "residual-depth", "beck-delta")
ROUNDTRIP_N = 30
MODULI = (2, 3, 4, 5)


def _import_package():
    """Import beckpart from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import beckpart
    from beckpart import (bijections, cli, enumeration, euler_pairs,
                          identities, partition, qseries)
    if Path(beckpart.__file__).resolve().parent != src / "beckpart":
        raise SystemExit(f"beckpart imported from {beckpart.__file__}, "
                         f"not from {src}")
    return {"bijections": bijections, "cli": cli, "enumeration": enumeration,
            "euler_pairs": euler_pairs, "identities": identities,
            "partition": partition, "qseries": qseries}


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def reference_slice() -> int:
    """A few milliseconds of fixed pure-Python work that shares no code
    with beckpart: a partition walk with dict tallies and a small dense
    product of integer tables, the two kinds of work the package does."""
    def walk(rem, top, acc):
        if rem == 0:
            yield acc
            return
        for part in range(min(top, rem), 0, -1):
            for mult in range(rem // part, 0, -1):
                yield from walk(rem - part * mult, part - 1,
                                acc + ((part, mult),))
    tally: dict[int, int] = {}
    for lam in walk(18, 18, ()):
        key = sum(1 for p, m in lam if m >= 2 or p % 2 == 0)
        tally[key] = tally.get(key, 0) + sum(m for _, m in lam)
    rows, cols = 24, 5
    a = [[(3 * n + j) % 7 - 3 for j in range(cols)] for n in range(rows)]
    out = [[0] * cols for _ in range(rows)]
    for n2 in range(rows):
        for j2 in range(cols):
            v2 = a[n2][j2]
            for n1 in range(rows - n2):
                row, orow = a[n1], out[n1 + n2]
                for j1 in range(cols - j2):
                    orow[j1 + j2] += row[j1] * v2
    return sum(tally.values()) + sum(map(sum, out))


REFERENCE_SUM = reference_slice()


class Stopwatch:
    """Wall and CPU time summed over the timed segments of one phase.

    The host's speed for Python drifts by tens of percent within seconds
    when other tenants load it, so with ``interleave`` an interval timer
    runs ``reference_slice`` every REF_PERIOD_S during the segments, from
    a SIGALRM handler in this thread.  The slices' time is taken out of
    the segments and kept apart: the phase divided by the mean slice is
    its length in units of work measured under the same load.
    """

    REF_PERIOD_S = 0.05

    def __init__(self, interleave: bool):
        self.interleave = interleave
        self.wall_s = self.cpu_s = 0.0
        self.ref_wall_s = self.ref_cpu_s = 0.0
        self.ref_slices = 0
        self.ref_ok = True

    def _slice(self, _signum, _frame) -> None:
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        self.ref_ok &= reference_slice() == REFERENCE_SUM
        self.ref_wall_s += time.perf_counter() - t0
        self.ref_cpu_s += _cpu_s() - cpu0
        self.ref_slices += 1

    @contextlib.contextmanager
    def segment(self):
        ref_wall0, ref_cpu0 = self.ref_wall_s, self.ref_cpu_s
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        if self.interleave:
            signal.signal(signal.SIGALRM, self._slice)
            signal.setitimer(signal.ITIMER_REAL, self.REF_PERIOD_S,
                             self.REF_PERIOD_S)
        try:
            yield
        finally:
            if self.interleave:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0
            cpu = _cpu_s() - cpu0
            self.wall_s += wall - (self.ref_wall_s - ref_wall0)
            self.cpu_s += cpu - (self.ref_cpu_s - ref_cpu0)

    def finish(self) -> None:
        """Make sure at least one slice was measured."""
        if self.interleave and not self.ref_slices:
            self._slice(None, None)


class Checks:
    """Attempted and failed output checks, with the first failures named."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(what)


def _run_cli(cli, argv) -> tuple[int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue().encode("utf-8")


def _check_records(csv_bytes: bytes, expected_rows: int, label: str,
                   checks: Checks) -> None:
    rows = list(csv.DictReader(io.StringIO(csv_bytes.decode("utf-8"))))
    checks.expect(len(rows) == expected_rows,
                  f"{label}: {len(rows)} records, expected {expected_rows}")
    for row in rows:
        checks.expect(row.get("ok") == "true",
                      f"{label}: record not ok: {row}")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- workloads ---------------------------------------------------------------
# Each workload: setup(pkg, seed) -> inputs, a one-line note on the inputs,
# and run(pkg, inputs, watch, checks) -> output bytes.  run times only the
# package calls (inside watch.segment()) and checks outside the segments.


def verify_grid_setup(pkg, seed):
    return VERIFY_ARGV, "verify " + " ".join(VERIFY_ARGV[1:])


def verify_grid_run(pkg, argv, watch, checks):
    with watch.segment():
        code, out = _run_cli(pkg["cli"], argv)
    checks.expect(code == 0, f"verify-grid exit code {code}")
    checks.expect(_sha256(out) == EXPECTED["verify_grid_sha256"],
                  "verify-grid CSV digest differs from the seed commit's")
    _check_records(out, EXPECTED["verify_grid_records"], "verify-grid", checks)
    return out


def series_gf_setup(pkg, seed):
    tables = [(kind, r, t) for kind in pkg["cli"].SERIES_KINDS
              for r in MODULI
              for t in (range(1, r) if kind in SERIES_NEEDS_T else (None,))]
    return tables, f"{len(tables)} series tables at N={SERIES_N}, J={SERIES_J}"


def _table_key(kind, r, t):
    return f"{kind} r={r}" + ("" if t is None else f" t={t}")


def _series_digest(s) -> str:
    """SHA-256 of the coefficient rows "n,j,c" that ``beckpart series``
    would print."""
    return _sha256("".join(f"{n},{j},{s[n, j]}\n" for n in range(s.N + 1)
                           for j in range(s.J + 1)).encode())


def series_gf_run(pkg, tables, watch, checks):
    builders = pkg["cli"].SERIES_KINDS
    built = {}
    with watch.segment():
        for kind, r, t in tables:
            built[kind, r, t] = builders[kind](r, t, SERIES_N, SERIES_J)
    # Self-generated regression data: digests of the seed commit's tables.
    digests = {_table_key(*key): _series_digest(s) for key, s in built.items()}
    expected = EXPECTED["series_table_sha256"]
    checks.expect(sorted(digests) == sorted(expected),
                  "series-gf built a different set of tables")
    for key, digest in digests.items():
        checks.expect(expected.get(key) == digest,
                      f"series-gf table {key} digest differs")
    # Identities that hold whatever the digests say.
    for r in MODULI:
        checks.expect(built["count-O", r, None] == built["count-D", r, None],
                      f"series-gf count-O != count-D at r={r}")
        deltas = [built["beck-delta", r, t] for t in range(1, r)]
        checks.expect(all(d == deltas[0] for d in deltas),
                      f"series-gf beck-delta depends on t at r={r}")
    return "".join(f"{k} {v}\n" for k, v in digests.items()).encode()


def bijection_roundtrip_setup(pkg, seed):
    return None, (f"franklin_map/franklin_inverse on every partition of "
                  f"n <= {ROUNDTRIP_N}, r in {list(MODULI)}")


def bijection_roundtrip_run(pkg, _inputs, watch, checks):
    bij, enum = pkg["bijections"], pkg["enumeration"]
    classify = pkg["partition"].classify
    digest = hashlib.sha256()
    trips = 0
    for n in range(ROUNDTRIP_N + 1):
        with watch.segment():
            parts = list(enum.partitions_of(n))
            done = []
            for r in MODULI:
                for lam in parts:
                    mu = bij.franklin_map(lam, r)
                    done.append((r, lam, mu, bij.franklin_inverse(mu, r)))
        for r, lam, mu, back in done:
            trips += 1
            checks.expect(back == lam, f"r={r}: inverse of {lam} gave {back}")
            checks.expect(mu.size == lam.size, f"r={r}: {lam} -> {mu} size")
            checks.expect(classify(mu, r).j_rep == classify(lam, r).j_div,
                          f"r={r}: {lam} -> {mu} does not map j_div to j_rep")
            digest.update(f"{r}:{mu.render()}\n".encode())
    checks.expect(trips == EXPECTED["round_trips"],
                  f"bijection-roundtrip made {trips} round trips")
    return digest.hexdigest().encode()


def draw_s1(seed: int) -> list[int]:
    """A closed S1 for r=2: {1} and 8 odd numbers from 9..39, closed under
    doubling up to 40.  Members below 9 are fixed so that the drawn pair's
    work varies little with the seed."""
    rng = random.Random(seed)
    base = [1] + rng.sample(range(9, 41, 2), 8)
    return sorted({b << k for b in base for k in range(6) if b << k <= 40})


def euler_pairs_setup(pkg, seed):
    s1 = draw_s1(seed)
    pairs = [("N r=2", EULER_ARGV + ("--r", "2", "--s1-multiples-of", "1")),
             ("N r=3", EULER_ARGV + ("--r", "3", "--s1-multiples-of", "1")),
             ("drawn r=2", EULER_ARGV + ("--r", "2",
                                          "--s1", ",".join(map(str, s1))))]
    return pairs, f"drawn S1 at r=2: {s1}"


def euler_pairs_run(pkg, pairs, watch, checks):
    outputs = []
    with watch.segment():
        for _, argv in pairs:
            outputs.append(_run_cli(pkg["cli"], argv))
    fixed = EXPECTED["euler_fixed_sha256"]
    for (label, _), (code, out) in zip(pairs, outputs):
        checks.expect(code == 0, f"euler {label} exit code {code}")
        _check_records(out, EXPECTED["euler_records_per_pair"],
                       f"euler {label}", checks)
        if label in fixed:
            checks.expect(_sha256(out) == fixed[label],
                          f"euler {label} CSV digest differs")
    return b"".join(out for _, out in outputs)


WORKLOADS = {
    "verify-grid": (verify_grid_setup, verify_grid_run),
    "series-gf": (series_gf_setup, series_gf_run),
    "bijection-roundtrip": (bijection_roundtrip_setup,
                            bijection_roundtrip_run),
    "euler-pairs": (euler_pairs_setup, euler_pairs_run),
}
VIA_CLI = ("verify-grid", "euler-pairs")


# -- tracing -----------------------------------------------------------------


def _mul_inner_ops(args) -> int:
    """Inner-loop steps of ``Series.__mul__``: over the nonzeros (n2, j2) of
    the sparser operand, sum (N - n2 + 1) * (J - j2 + 1).  Computed from
    the operands, not counted inside the product."""
    a, b = args
    if isinstance(b, int):
        return 0
    sparse = b if a.nnz() >= b.nnz() else a
    N, J = a.N, a.J
    return sum((N - n + 1) * (J - j + 1) for n, j, _ in sparse.items())


def _cache_stats(fn) -> tuple[int, int]:
    info = getattr(fn, "cache_info", None)
    if info is None:
        return 0, 0
    ci = info()
    return ci.hits, ci.misses


def instrument(tracer, pkg) -> dict:
    """Wrap every layer's public functions; return the cached functions
    whose ``cache_info`` the layer metrics read."""
    t = tracer
    cli, ids, enum = pkg["cli"], pkg["identities"], pkg["enumeration"]
    qs, bij, ep = pkg["qseries"], pkg["bijections"], pkg["euler_pairs"]
    caches = {"class_totals": getattr(ids, "class_totals", None),
              "count_series": getattr(qs, "_count_series", None)}

    t.patch(cli, "run", lambda f: t.traced(f, "cli.run"))
    t.patch(ids, "verify", lambda f: t.traced(f, "identities.verify"))
    t.patch(ids, "class_totals",
          lambda f: t.traced(f, "identities.class_totals"))
    for owner in (ids, enum):
        t.patch(owner, "partitions_of", lambda f: t.traced_stream(
            f, "enumeration.stream", "enumeration.partitions_yielded"))
    t.patch(ids, "stats",
          lambda f: t.traced(f, "partition.stats", keep=False))

    def count_ops(args):
        t.count("qseries.mul_inner_ops", _mul_inner_ops(args))
    for key in ("__mul__", "__rmul__"):
        t.patch(qs.Series, key,
              lambda f: t.traced(f, "qseries.mul", before=count_ops))
    t.patch(qs.Series, "__add__", lambda f: t.traced(f, "qseries.add"))
    for kind in list(getattr(cli, "SERIES_KINDS", {})):
        t.patch(cli.SERIES_KINDS, kind, lambda f, kind=kind: t.traced(
            f, f"qseries.builder.{kind}"))

    fmap = getattr(bij, "franklin_map", None)
    t.patch(bij, "franklin_map",
          lambda f: t.traced(f, "bijections.franklin_map", keep=False))
    t.patch(getattr(fmap, "__kwdefaults__", None) or {}, "base_map",
          lambda f: t.traced(f, "bijections.glaisher_map", keep=False))
    t.patch(bij, "franklin_inverse",
          lambda f: t.traced(f, "bijections.franklin_inverse", keep=False))

    tilde = getattr(ep, "tilde_totals", None)
    misses_before = [0]

    def note_misses(_args):
        misses_before[0] = _cache_stats(tilde)[1]

    def note_fill(tot):
        if _cache_stats(tilde)[1] > misses_before[0]:
            t.count("euler_pairs.tilde_totals_fills")
            t.count("euler_pairs.partitions_visited",
                    sum(getattr(tot, "o_count", {}).values())
                    + sum(getattr(tot, "d_count", {}).values()))
    t.patch(ep, "tilde_totals", lambda f: t.traced(
        f, "euler_pairs.tilde_totals", before=note_misses, after=note_fill))
    t.patch(ep, "verify_tilde",
          lambda f: t.traced(f, "euler_pairs.verify_tilde"))
    return caches


def layer_metrics(t, caches, kinds, cli_bytes: int) -> dict:
    """Per-layer numbers of one traced run; see BENCHMARK.json."""
    def ratio(fn):
        hits, misses = _cache_stats(fn)
        return hits / (hits + misses) if hits + misses else 0.0

    yielded = t.counts.get("enumeration.partitions_yielded", 0)
    stream_s = t.total_s("enumeration.stream")
    metrics = {
        "enumeration.partitions_yielded": yielded,
        "enumeration.stream_s": stream_s,
        "enumeration.ns_per_partition":
            stream_s / yielded * 1e9 if yielded else 0.0,
        "partition.stats_calls": t.calls("partition.stats"),
        "partition.stats_s": t.total_s("partition.stats"),
        "identities.class_totals_fills":
            _cache_stats(caches["class_totals"])[1],
        "identities.class_totals_hit_ratio": ratio(caches["class_totals"]),
        "identities.class_totals_self_s": t.self_s("identities.class_totals"),
        "identities.verify_self_s": t.self_s("identities.verify"),
        "qseries.mul_calls": t.calls("qseries.mul"),
        "qseries.mul_s": t.total_s("qseries.mul"),
        "qseries.mul_inner_ops": t.counts.get("qseries.mul_inner_ops", 0),
        "qseries.add_s": t.total_s("qseries.add"),
        "qseries.count_series_hit_ratio": ratio(caches["count_series"]),
    }
    for kind in kinds:
        metrics[f"qseries.builder_s.{kind}"] = t.total_s(
            f"qseries.builder.{kind}")
    metrics.update({
        "bijections.franklin_map_calls": t.calls("bijections.franklin_map"),
        "bijections.franklin_map_self_s": t.self_s("bijections.franklin_map"),
        "bijections.glaisher_map_s": t.total_s("bijections.glaisher_map"),
        "bijections.franklin_inverse_s":
            t.total_s("bijections.franklin_inverse"),
        "euler_pairs.tilde_totals_fills":
            t.counts.get("euler_pairs.tilde_totals_fills", 0),
        "euler_pairs.tilde_totals_s": t.total_s("euler_pairs.tilde_totals"),
        "euler_pairs.partitions_visited":
            t.counts.get("euler_pairs.partitions_visited", 0),
        "euler_pairs.verify_self_s": t.self_s("euler_pairs.verify_tilde"),
        "cli.run_s": t.total_s("cli.run"),
        "cli.self_s": t.self_s("cli.run"),
        "cli.output_bytes": cli_bytes,
    })
    return metrics


# -- main --------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans-out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    pkg = _import_package()
    setup, run = WORKLOADS[args.workload]
    inputs, note = setup(pkg, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = caches = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        caches = instrument(tracer, pkg)
    watch, checks = Stopwatch(interleave=tracer is None), Checks()
    try:
        output = run(pkg, inputs, watch, checks)
    finally:
        restored = tracer.restore() if tracer else True
    watch.finish()
    checks.expect(restored, "tracing left a wrapped function in place")
    checks.expect(watch.ref_ok, "reference slice gave a different result")
    maxrss_kb = max(resource.getrusage(who).ru_maxrss for who in
                    (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    result = {
        "ready": ready, "note": note,
        "wall_s": watch.wall_s, "cpu_s": watch.cpu_s,
        "ref_wall_s": watch.ref_wall_s, "ref_cpu_s": watch.ref_cpu_s,
        "ref_slices": watch.ref_slices,
        "peak_rss_mb": maxrss_kb / 1024,
        "attempted": checks.attempted, "failed": checks.failed,
        "messages": checks.messages, "output_sha256": _sha256(output),
    }
    if tracer is not None:
        kinds = pkg["cli"].SERIES_KINDS
        cli_bytes = len(output) if args.workload in VIA_CLI else 0
        result["layers"] = layer_metrics(tracer, caches, kinds, cli_bytes)
        if args.spans_out:
            tracer.dump(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
