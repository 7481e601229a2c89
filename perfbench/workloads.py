"""Workload commands, their reference outputs, and the runner that spawns the CLI.

Every command is run as ``python -m cyclopract.cli ...`` with ``PYTHONPATH``
pointing at the checkout's ``src``, so the benchmark measures the tree it sits
in.  Wall time spans spawn to exit; CPU time and peak RSS come from the
command's ``os.wait4`` rusage, which includes the pool workers it reaped.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from math import log
from pathlib import Path

from cyclopract import dp_coverage_oracle, phi_degree_multiset

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())

COUNT_P = ("count", "--prime", "2", "--limit", "1e6",
           "--checkpoints", "1e2,1e3,1e4,1e5,1e6", "--parts", "1")
COUNT_PHI = ("count", "--phi", "--limit", "2e6",
             "--checkpoints", "1e2,1e3,1e4,1e5,1e6,2e6", "--parts", "2")
COUNT_P_N = 10**6
STATS = tuple(tuple(key.split()) for key in REFERENCE["stats_sha256"])
# Every stats command sweeps n = 1..10^6, so one pass covers this many n.
STATS_N = 10**6 * len(STATS)

# Acceptance-table constants for p = 2 (tests/test_acceptance.py, TABLE_*).
P2_COUNTS = (34, 243, 1790, 14703, 120276)
P2_RATIOS = ("1.565758", "1.678585", "1.648651", "1.692745", "1.661674")
COUNT_P_CSV = "X,count,ratio\n" + "".join(
    f"{10**k},{c},{r}\n" for k, c, r in zip(range(2, 7), P2_COUNTS, P2_RATIOS)
)
COUNT_PHI_CSV = REFERENCE["count_phi_csv"]
PHI_REDERIVE_MAX = 10**4


def count_phi_reference_ok() -> bool:
    """Re-derive the recorded phi rows with the DP oracle up to 10^4 and every
    ratio column from its count; True when the recorded reference holds."""
    rows = [line.split(",") for line in COUNT_PHI_CSV.splitlines()[1:]]
    if any(f"{int(c) * log(int(x)) / int(x):.6f}" != r for x, c, r in rows):
        return False
    running = 0
    derived = {}
    for n in range(1, PHI_REDERIVE_MAX + 1):
        running += dp_coverage_oracle(phi_degree_multiset(n)).practical
        derived[n] = running
    return all(derived[int(x)] == int(c) for x, c, _ in rows if int(x) <= PHI_REDERIVE_MAX)


class Tally:
    """Operations attempted and failed; a failure is a wrong output or a nonzero exit."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


@dataclass
class Run:
    returncode: int
    sha256: str
    head: bytes  # first 64 KiB of stdout
    wall_s: float
    cpu_s: float
    maxrss_kb: int


HEAD_BYTES = 1 << 16

# Linux carries a process's peak RSS across fork and exec, so a child spawned
# straight from this (large) process would report at least our own peak.  The
# command is therefore spawned by a bare interpreter, which times it, reaps it
# and writes "exit wall cpu maxrss_kb" to the fd in argv[1].
LAUNCHER = """\
import os, sys, time
start = time.perf_counter()
pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
report = (os.waitstatus_to_exitcode(status), wall,
          usage.ru_utime + usage.ru_stime, usage.ru_maxrss)
os.write(int(sys.argv[1]), " ".join(map(repr, report)).encode())
"""


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn(argv) -> Run:
    """Run argv (argv[0] an absolute path) to completion through the launcher,
    hashing its stdout; stderr passes through."""
    report_r, report_w = os.pipe()
    try:
        proc = subprocess.Popen([sys.executable, "-S", "-c", LAUNCHER, str(report_w), *argv],
                                stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
                                pass_fds=(report_w,))
    finally:
        os.close(report_w)
    digest = hashlib.sha256()
    head = bytearray()
    with os.fdopen(report_r, "rb") as report_fh, proc.stdout:
        for chunk in iter(lambda: proc.stdout.read(HEAD_BYTES), b""):
            digest.update(chunk)
            if len(head) < HEAD_BYTES:
                head += chunk[: HEAD_BYTES - len(head)]
        proc.wait()
        report = report_fh.read().split()
    if proc.returncode != 0 or len(report) != 4:
        raise RuntimeError(f"launcher failed on {argv}")
    code, wall, cpu, rss = report
    return Run(int(code), digest.hexdigest(), bytes(head), float(wall), float(cpu), int(rss))


def run_cli(args) -> Run:
    return spawn([sys.executable, "-m", "cyclopract.cli", *args])


def check_stats(argv, sha256: str) -> bool:
    return REFERENCE["stats_sha256"][" ".join(argv)] == sha256
