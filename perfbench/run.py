"""beckpart benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every iteration is a fresh interpreter
(``worker.py``), so the package's module-level caches start cold each
time, as they do for a real ``beckpart`` invocation.  One caller, closed
loop, no extra threads: each worker runs after the previous one exits.

``--trace 0`` runs iterations until ``--seconds`` is used up and reports
the end-to-end metrics as medians over them, plus ``setup_s`` over extra
setup-only interpreters.  ``--trace 1`` runs one untraced and two traced
iterations and reports the per-layer metrics; the exact work counts must
repeat across the two traced iterations, and every iteration's output must
be byte-identical.  Counts that differ from the seed commit's (in
``expected.json``) are printed as a note.  Metric names and units
come from ``BENCHMARK.json``.  The last line of stdout is the result JSON;
the exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPANS_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("verify-grid", "series-gf", "bijection-roundtrip", "euler-pairs")
SETUP_ONLY_SPAWNS = 7      # extra interpreters that only measure setup
TRACED_ITERATIONS = 2
TIME_LIMIT_S = 170.0       # a run must end well within 180 s
# per-layer metrics that are exact counts: they must repeat, not vary
EXACT_UNITS = ("count", "bytes", "computed_ops", "ratio")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


class Runner:
    """Spawns worker interpreters within the run's time limit."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.start = time.monotonic()
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def spawn(self, *extra: str) -> dict:
        """Run one worker and return its result."""
        remaining = TIME_LIMIT_S - self.elapsed()
        if remaining <= 0:
            raise BenchError("time limit reached before the run finished")
        cmd = [sys.executable, str(WORKER), "--workload", self.workload,
               "--seed", str(self.seed), *extra]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker exceeded the time limit: {cmd}") from None
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError("worker printed no result")
        result = json.loads(lines[-1])
        result["setup_s"] = result["ready"] - t0
        return result


def _declared_metrics(key: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[key]}


def _end_to_end(runner: Runner, seconds: int, problems: list):
    setups = [runner.spawn("--setup-only")["setup_s"]
              for _ in range(SETUP_ONLY_SPAWNS)]
    iterations = []
    while not iterations or runner.elapsed() < seconds:
        iterations.append(runner.spawn())
    setups += [it["setup_s"] for it in iterations]
    if len({it["output_sha256"] for it in iterations}) != 1:
        problems.append("iterations produced different outputs")
    values = {
        # phase time over the mean reference slice measured under the same
        # load (see worker.Stopwatch)
        "wall_norm": statistics.median(
            it["wall_s"] * it["ref_slices"] / it["ref_wall_s"]
            for it in iterations),
        "cpu_norm": statistics.median(
            it["cpu_s"] * it["ref_slices"] / it["ref_cpu_s"]
            for it in iterations),
        "peak_rss_mb": statistics.median(it["peak_rss_mb"]
                                         for it in iterations),
        "setup_s": statistics.median(setups),
    }
    return iterations, values


def _per_layer(runner: Runner, problems: list):
    SPANS_DIR.mkdir(exist_ok=True)
    untraced = runner.spawn()
    traced = []
    for i in range(TRACED_ITERATIONS):
        spans = SPANS_DIR / f"spans-{runner.workload}-seed{runner.seed}-{i}.json"
        traced.append(runner.spawn("--trace", "--spans-out", str(spans)))
    iterations = [untraced] + traced
    if len({it["output_sha256"] for it in iterations}) != 1:
        problems.append("traced output differs from untraced output")

    units = _declared_metrics("per_layer")
    values = {}
    for name, unit in units.items():
        if name == "trace.overhead_s":
            continue
        samples = [it["layers"][name] for it in traced]
        if unit in EXACT_UNITS:
            if len(set(samples)) != 1:
                problems.append(f"{name} did not repeat: {samples}")
            values[name] = samples[0]
        else:
            values[name] = statistics.median(samples)
    values["trace.overhead_s"] = (statistics.median(it["wall_s"] for it in traced)
                                  - untraced["wall_s"])
    # Counts that differ from the seed commit's are reported, not failed:
    # a change that removes work is what the benchmark is for.
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    for name, seed_value in expected["work_counts"].get(runner.workload,
                                                        {}).items():
        if values[name] != seed_value:
            print(f"note: {name} = {values[name]}, "
                  f"{seed_value} at the seed commit")
    return iterations, values


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "beckpart" / "__init__.py").is_file():
        print(f"error: no beckpart package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # Build: byte-compile once so that no timed interpreter compiles.
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1)

    runner = Runner(args.workload, args.seed)
    problems: list[str] = []
    try:
        if args.trace:
            iterations, values = _per_layer(runner, problems)
            units = _declared_metrics("per_layer")
        else:
            iterations, values = _end_to_end(runner, args.seconds, problems)
            units = _declared_metrics("end_to_end")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    mismatch = set(units) ^ set(values)
    if mismatch:
        print(f"error: metrics do not match BENCHMARK.json: {sorted(mismatch)}",
              file=sys.stderr)
        return 2

    # the run's own consistency checks count as one more check
    attempted = sum(it["attempted"] for it in iterations) + 1
    failed = sum(it["failed"] for it in iterations) + (1 if problems else 0)
    print(f"workload={args.workload} seed={args.seed} "
          f"iterations={len(iterations)} inputs: {iterations[0]['note']}")
    print("iterations: " + json.dumps(
        [{k: it[k] for k in ("wall_s", "cpu_s", "ref_wall_s", "ref_slices",
                             "setup_s")}
         for it in iterations]))
    for it in iterations:
        problems.extend(it["messages"])
    for problem in problems[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
