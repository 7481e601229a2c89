"""Benchmark for cyclopract: count tables, scanners and single-n decisions, end to end.

Run from the root of a checkout:

    python3 perfbench/run.py --workload count-p --seed 1 --seconds 30 --trace 0

With --trace 0 it measures the workload untraced and prints every end-to-end
metric; with --trace 1 it makes the traced pass (see spans.py) and prints the
per-layer metrics.  Every output is checked; the last stdout line is one JSON
object with correct, attempted, failed and metrics.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "cyclopract" / "__init__.py").is_file():
    sys.exit(f"error: no cyclopract sources under {SRC}")
sys.path.insert(0, str(SRC))

import decide  # noqa: E402  (needs SRC on the path)
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("count-p", "stats", "decide")

SETUP_SAMPLES = 3  # per probe round
DECIDE_PASSES = 2  # over the case list, per probe round
# Every workload carries a small decide and CLI-start probe on a fixed case
# list (seed-independent, like the rest of those workloads' inputs) so that
# every end-to-end metric is defined on it; on decide they are the main load.
PROBE_SEED = 0
PROBE_BLOCKS = 3
PROBE_CLI_CASES = 12
DECIDE_BLOCKS = 12
DECIDE_CLI_CASES = 40


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def repeat_for(seconds: float, op) -> list:
    """Run op back to back; start another only if it should end within `seconds`."""
    start = time.perf_counter()
    results, walls = [], []
    while True:
        t0 = time.perf_counter()
        results.append(op())
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return results


def setup_samples(tally, count: int) -> list[float]:
    """Wall times for a fresh interpreter to spawn and run `import cyclopract`."""
    walls = []
    for _ in range(count):
        run = workloads.spawn([sys.executable, "-c", "import cyclopract"])
        tally.check(run.returncode == 0, "import cyclopract")
        walls.append(run.wall_s)
    return walls


def check_import_path(tally) -> None:
    check = (f"import cyclopract, sys; "
             f"sys.exit(0 if cyclopract.__file__.startswith({str(SRC)!r}) else 3)")
    run = workloads.spawn([sys.executable, "-c", check])  # also fills the bytecode cache
    tally.check(run.returncode == 0, "cyclopract imports from this checkout's src")


class DecideProbe:
    """In-process decisions of a case list, `cyclopract test` spawns of its first
    cases, and set-up samples, interleaved.

    This machine's speed flips between two states about 1.4x apart, each lasting
    from a few seconds to tens of seconds; the host does it, and CPU time shows
    it as much as wall time.  So a round walks the case list DECIDE_PASSES times
    in as many chunks as there are CLI cases, spawning one CLI case (and now and
    then a set-up sample) after each chunk.  Every case keeps its fastest time
    over all rounds, which the caller spreads across the run.
    """

    def __init__(self, tally, case_list, cli_cases: int) -> None:
        self.tally = tally
        self.cases = case_list
        self.cli_cases = cli_cases
        self.latencies = [float("inf")] * len(case_list)
        self.verdicts: list = [None] * len(case_list)  # first (verdict, witness_ok) per case
        self.starts: list = [None] * cli_cases  # fastest spawn per CLI case
        self.setup_s: list[float] = []

    def run_round(self) -> None:
        order = list(range(len(self.cases))) * DECIDE_PASSES
        # The CLI cases are the first cases, so the first chunk decides them all.
        chunk = -(-len(order) // self.cli_cases)
        every = self.cli_cases // SETUP_SAMPLES
        first_round = self.verdicts[0] is None
        for slot in range(self.cli_cases):
            for i in order[slot * chunk:(slot + 1) * chunk]:
                n, p = self.cases[i]
                verdict, witness_ok, seconds = decide.timed_decision(n, p)
                self.latencies[i] = min(self.latencies[i], seconds)
                if self.verdicts[i] is None:
                    self.verdicts[i] = (verdict, witness_ok)
                else:
                    self.tally.check((verdict, witness_ok) == self.verdicts[i],
                                     f"decide n={n} p={p} repeats")
            self._spawn_cli(slot)
            if slot % every == 0 and slot // every < SETUP_SAMPLES:
                self.setup_s += setup_samples(self.tally, 1)
        if first_round:
            certifier = decide.Certifier()
            for (n, p), (verdict, witness_ok) in zip(self.cases, self.verdicts):
                self.tally.check(certifier.check(n, p, verdict, witness_ok), f"decide n={n} p={p}")

    def _spawn_cli(self, i: int) -> None:
        n, p = self.cases[i]
        verdict = self.verdicts[i][0]
        if not self.tally.check(verdict is not None, f"decide n={n} p={p} for the CLI"):
            return
        run = workloads.run_cli(decide.cli_args(n, p, verdict))
        self.tally.check(run.returncode == 0 and run.head == decide.cli_line(n, p, verdict),
                         f"cyclopract test {n} p={p}")
        if self.starts[i] is None or run.wall_s < self.starts[i].wall_s:
            self.starts[i] = run

    def metrics(self) -> dict:
        starts_ms = [r.wall_s * 1e3 for r in self.starts if r is not None]
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "decisions_per_s": (len(self.latencies) / sum(self.latencies), "1/s"),
            "decide_p50_ms": (percentile(self.latencies, 50) * 1e3, "ms"),
            "decide_p95_ms": (percentile(self.latencies, 95) * 1e3, "ms"),
            "cli_start_p50_ms": (percentile(starts_ms, 50), "ms"),
            "cli_start_p75_ms": (percentile(starts_ms, 75), "ms"),
        }


def count_op(tally):
    def op():
        run = workloads.run_cli(workloads.COUNT_P)
        tally.check(run.returncode == 0 and run.head == workloads.COUNT_P_CSV.encode(),
                    "count-p output")
        return run.wall_s, run.cpu_s, run.maxrss_kb

    return op


def stats_op(tally):
    def op():
        wall = cpu = 0.0
        rss = 0
        for argv in workloads.STATS:
            run = workloads.run_cli(argv)
            tally.check(run.returncode == 0 and workloads.check_stats(argv, run.sha256),
                        " ".join(argv))
            wall, cpu, rss = wall + run.wall_s, cpu + run.cpu_s, max(rss, run.maxrss_kb)
        return wall, cpu, rss

    return op


def measure(workload: str, seed: int, seconds: float, tally) -> dict:
    """Untraced run: a probe round, the workload's operations, a second probe
    round.  On decide the two probe rounds are the load."""
    check_import_path(tally)
    if workload == "decide":
        probe = DecideProbe(tally, decide.cases(seed, DECIDE_BLOCKS), DECIDE_CLI_CASES)
    else:
        probe = DecideProbe(tally, decide.cases(PROBE_SEED, PROBE_BLOCKS), PROBE_CLI_CASES)
    probe.run_round()
    if workload == "count-p":
        ops, n = repeat_for(seconds, count_op(tally)), workloads.COUNT_P_N
    elif workload == "stats":
        ops, n = repeat_for(seconds, stats_op(tally)), workloads.STATS_N
    probe.run_round()
    metrics = probe.metrics()
    if workload == "decide":
        # One operation is one `cyclopract test` command (its fastest spawn per
        # case, as for cli_start_*); the n are decided in-process.
        runs = [r for r in probe.starts if r is not None]
        wall = statistics.median(r.wall_s for r in runs)
        cpu = statistics.median(r.cpu_s for r in runs)
        rss = max(r.maxrss_kb for r in runs)
        n_per_s = metrics["decisions_per_s"][0]
    else:
        # The fastest of the run's operations, for the same reason as in DecideProbe.
        wall, cpu, rss = min(o[0] for o in ops), min(o[1] for o in ops), max(o[2] for o in ops)
        n_per_s = n / wall
    metrics.update({
        "wall_s": (wall, "s"),
        "cpu_s": (cpu, "s"),
        "peak_rss_mb": (rss / 1024, "MiB"),
        "n_per_s": (n_per_s, "1/s"),
    })
    return metrics


def environment(workload: str, seed: int, trace: int) -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = out.stdout.strip() or sha
    cpu_model = l3 = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        pass
    table = 4 * (10**6 + 1)
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "git_sha": sha,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "cpu_model": cpu_model, "l3_cache": l3,
        "table_bytes_computed": {
            "spf_1e6": table, "spf_2e6": 4 * (2 * 10**6 + 1),
            "order_star_1e6": table, "lambda_star_1e6": table,
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    tally = workloads.Tally()
    env = environment(args.workload, args.seed, args.trace)
    print("env " + json.dumps(env))
    if args.trace:
        metrics = spans.traced_run(args.seed, tally, env)
    else:
        metrics = measure(args.workload, args.seed, args.seconds, tally)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"error_rate = {tally.failed / tally.attempted!r} ({tally.failed}/{tally.attempted} operations)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
