"""The traced run: span wrappers around the library's public names, and per-layer metrics.

Wrappers are installed only for this run, on the names that
``cyclopract.cli`` and ``cyclopract.practicality`` import and on the same
names where ``counting``, ``analysis`` and ``orders`` import them, so the
table builds inside a count or a scanner get spans of their own.  Spans are
held in memory as (id, parent id, name, start, end) and written out when the
run ends.  A layer's self time is its spans' durations minus the time their
child spans cover.

The traced run is one in-process pass over the work of every workload, plus
the phi count that only this run makes, so every layer (the fork pool too) is
measured whichever workload is named: the count-p command, the count-phi
command at --parts 1 and at --parts 2, the eight stats commands, and a fixed
list of seeded decisions.  The untraced end-to-end metrics come from
the separate untraced run.
"""
from __future__ import annotations

import hashlib
import io
import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, redirect_stdout

from cyclopract import analysis, cli, counting, orders, practicality

import decide
import workloads
from workloads import ROOT, Tally

OUT_DIR = ROOT / ".bench_out"
DECIDE_TRACE_BLOCKS = 1
IMPORT_SAMPLES = 5
RSS_PROBE_N = 10**6

# (module, attribute, span name); the span name's prefix is the layer.
TARGETS = (
    (cli, "build_spf_table", "arith.build_spf_table"),
    (counting, "build_spf_table", "arith.build_spf_table"),
    (analysis, "build_spf_table", "arith.build_spf_table"),
    (practicality, "factorize_trial", "arith.factorize_trial"),
    (orders, "factorize_trial", "arith.factorize_trial"),
    (practicality, "divisor_phi_pairs", "arith.divisor_phi_pairs"),
    (cli, "sieve_order_star", "orders.sieve_order_star"),
    (counting, "sieve_order_star", "orders.sieve_order_star"),
    (practicality, "mult_order_star", "orders.mult_order_star"),
    (cli, "count_p_practical_partitioned", "counting.count_p"),
    (cli, "count_phi_practical", "counting.count_phi"),
    (cli, "render_csv", "counting.render_csv"),
    (practicality, "is_p_practical", "practicality.is_p_practical"),
    (practicality, "is_phi_practical", "practicality.is_phi_practical"),
    (practicality, "degree_multiset", "practicality.degree_multiset"),
    (practicality, "phi_degree_multiset", "practicality.degree_multiset"),
    (practicality, "coverage_check", "practicality.coverage_check"),
    (practicality, "dp_reachable_mask", "practicality.dp_reachable_mask"),
    (cli, "dp_reachable_mask", "practicality.dp_reachable_mask"),
    (cli, "count_z_dense", "analysis.count_z_dense"),
    (cli, "a_q_primes", "analysis.a_q_primes"),
    (cli, "order_check", "analysis.order_check"),
    (cli, "lambda_order_ratio_stats", "analysis.lambda_order_ratio_stats"),
    (cli, "small_order_count", "analysis.small_order_count"),
    (cli, "omega_phi_distribution", "analysis.omega_phi_distribution"),
    (cli, "tau_threshold_count", "analysis.tau_threshold_count"),
    (cli, "smooth_lambda_part_count", "analysis.smooth_lambda_part_count"),
    (analysis, "lambda_star_table", "analysis.lambda_star_table"),
)


class Tracer:
    """Spans held in memory as (id, parent id, name, start, end); parent 0 is the top."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack = [0]
        self._next = 1

    @contextmanager
    def span(self, name: str):
        sid = self._next
        self._next += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target that exists; a name a later refactor removes just
        leaves its layer's metrics at 0."""
        targets = [t for t in TARGETS if hasattr(t[0], t[1])]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
        try:
            for (module, attr, name), (_, _, fn) in zip(targets, saved):
                setattr(module, attr, self.wrap(fn, name))
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)


def self_times(spans) -> dict[str, float]:
    """Self time per span name: duration minus the time covered by child spans."""
    covered: dict[int, float] = defaultdict(float)
    for _, parent, _, start, end in spans:
        covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for sid, _, name, start, end in spans:
        out[name] += end - start - covered[sid]
    return out


class HashingSink(io.RawIOBase):
    """Raw byte sink that hashes everything and keeps the first 64 KiB, so an
    in-process command's stdout is checked like a spawned one's."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self.head = bytearray()

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.digest.update(data)
        if len(self.head) < workloads.HEAD_BYTES:
            self.head += bytes(data[: workloads.HEAD_BYTES - len(self.head)])
        return len(data)


def text_sink() -> tuple[io.TextIOWrapper, HashingSink]:
    raw = HashingSink()
    return io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8", newline="\n"), raw


def run_main(argv) -> tuple[int, bytes, str]:
    """cli.main in-process; returns (exit code, first 64 KiB of stdout, stdout sha256)."""
    stream, raw = text_sink()
    with redirect_stdout(stream):
        try:
            rc = cli.main(list(argv))
        except Exception as exc:  # a crash is a failed command, as a traceback exit would be
            print(f"{' '.join(argv)} raised {exc!r}", file=sys.stderr)
            rc = 1
    stream.flush()
    return rc, bytes(raw.head), raw.digest.hexdigest()


def _probe(code: str) -> float:
    run = workloads.spawn([sys.executable, "-c", code])
    if run.returncode != 0:
        raise RuntimeError(f"probe failed: {code}")
    return float(run.head)


def import_ms() -> float:
    code = ("import time; t = time.perf_counter(); import cyclopract.cli; "
            "print((time.perf_counter() - t) * 1e3)")
    _probe(code)  # fills the bytecode cache
    return statistics.median(_probe(code) for _ in range(IMPORT_SAMPLES))


def spf_peak_over_charged() -> float:
    """Peak RSS growth over resident size while building the SPF table at 10^6,
    divided by the 4(N+1) bytes charged to the memory budget."""
    code = ("import os, resource; from cyclopract import build_spf_table; "
            "page = os.sysconf('SC_PAGE_SIZE'); "
            "before = int(open('/proc/self/statm').read().split()[1]) * page; "
            f"build_spf_table({RSS_PROBE_N}); "
            "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024; "
            f"print((peak - before) / (4 * ({RSS_PROBE_N} + 1)))")
    # A cold import (compiling bytecode) peaks above the table; fill the cache first.
    _probe("import cyclopract; print(0)")
    return _probe(code)


def traced_run(seed: int, tally: Tally, env: dict) -> dict[str, tuple[float, str]]:
    tracer = Tracer()
    cmd_spans = {}

    def command(label: str, argv):
        first = len(tracer.spans)
        with tracer.span("cli." + label):
            rc, head, sha = run_main(argv)
        cmd_spans[label] = tracer.spans[first:]
        return rc, head, sha

    tally.check(workloads.count_phi_reference_ok(), "count-phi reference re-derived to 1e4")
    with tracer.installed():
        rc, head, _ = command("count-p", workloads.COUNT_P)
        tally.check(rc == 0 and head == workloads.COUNT_P_CSV.encode(), "traced count-p")
        phi1 = list(workloads.COUNT_PHI)
        phi1[phi1.index("--parts") + 1] = "1"
        for label, argv in (("count-phi-parts1", phi1), ("count-phi", workloads.COUNT_PHI)):
            rc, head, _ = command(label, argv)
            tally.check(rc == 0 and head == workloads.COUNT_PHI_CSV.encode(), f"traced {label}")
        for argv in workloads.STATS:
            label = argv[0] if argv[0] == "orders" else argv[1]
            rc, _, sha = command(label, argv)
            tally.check(rc == 0 and workloads.check_stats(argv, sha), f"traced {' '.join(argv)}")

    # The decisions are the densest span load, so they give the tracing
    # overhead: untraced and traced passes alternate, and the faster of each
    # kind is compared.  Only the first traced pass's spans are kept.
    decide_list = decide.cases(seed, DECIDE_TRACE_BLOCKS)
    untraced_s, traced_s = [], []
    for recorder in (tracer, Tracer()):
        untraced_s.append(sum(decide.timed_decision(n, p)[2] for n, p in decide_list))
        first = len(tracer.spans)
        with recorder.installed():
            results = [(n, p, *decide.timed_decision(n, p)) for n, p in decide_list]
        traced_s.append(sum(r[4] for r in results))
        if recorder is tracer:
            decided, cmd_spans["decide"] = results, tracer.spans[first:]
    certifier = decide.Certifier()
    for n, p, verdict, witness_ok, _ in decided:
        tally.check(certifier.check(n, p, verdict, witness_ok), f"traced decide n={n} p={p}")

    total = self_times(tracer.spans)
    per = {label: self_times(spans) for label, spans in cmd_spans.items()}

    def analysis_self(label: str) -> float:
        return sum(v for k, v in per[label].items()
                   if k.startswith("analysis.") and k != "analysis.lambda_star_table")

    scan_p1 = per["count-phi-parts1"]["counting.count_phi"]
    scan_p2 = per["count-phi"]["counting.count_phi"]
    calls = sum(1 for s in cmd_spans["decide"] if s[2] == "orders.mult_order_star")
    metrics = {
        "arith.spf_build_s": (total["arith.build_spf_table"], "s"),
        "arith.spf_peak_over_charged": (spf_peak_over_charged(), "ratio"),
        "arith.factorize_trial_s": (total["arith.factorize_trial"], "s"),
        "orders.sieve_s": (total["orders.sieve_order_star"], "s"),
        "orders.mult_order_star_s": (total["orders.mult_order_star"], "s"),
        "orders.mult_order_star_calls": (calls, "count"),
        "counting.scan_s": (per["count-p"]["counting.count_p"], "s"),
        "counting.phi_scan_s": (scan_p1, "s"),
        "counting.scan_parts2_s": (scan_p2, "s"),
        "counting.parallel_efficiency": (scan_p1 / (2 * scan_p2) if scan_p2 else 0.0, "ratio"),
        "counting.render_ms": (total["counting.render_csv"] * 1e3, "ms"),
        "practicality.degree_multiset_s": (total["practicality.degree_multiset"], "s"),
        "practicality.coverage_check_s": (total["practicality.coverage_check"], "s"),
        "practicality.dp_witness_s": (total["practicality.dp_reachable_mask"], "s"),
        "analysis.zdense_s": (analysis_self("zdense"), "s"),
        "analysis.tau_s": (analysis_self("tau"), "s"),
        "analysis.omegaphi_s": (analysis_self("omegaphi"), "s"),
        "analysis.lambda_star_s": (total["analysis.lambda_star_table"], "s"),
        "analysis.smoothlambda_s": (analysis_self("smoothlambda"), "s"),
        "analysis.ratios_s": (analysis_self("ratios"), "s"),
        "analysis.smallorder_s": (analysis_self("smallorder"), "s"),
        "analysis.aq_s": (analysis_self("aq"), "s"),
        "cli.import_ms": (import_ms(), "ms"),
        "cli.orders_emit_s": (per["orders"]["cli.orders"], "s"),
        "trace.overhead_frac": (min(traced_s) / min(untraced_s) - 1, "ratio"),
    }
    write_spans(tracer.spans, seed, env, metrics)
    return metrics


def write_spans(spans, seed: int, env: dict, metrics: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-seed{seed}.json"
    names = sorted({s[2] for s in spans})
    index = {name: i for i, name in enumerate(names)}
    doc = {
        "env": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "span_fields": ["id", "parent", "name", "start_s", "end_s"],
        "names": names,
        "spans": [[sid, parent, index[name], start, end] for sid, parent, name, start, end in spans],
    }
    path.write_text(json.dumps(doc))
    print(f"spans: {len(spans)} written to {path.relative_to(ROOT)}")
