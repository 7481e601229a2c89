"""Checkpointed counting sieves for phi-practical and p-practical integers.

One pass streams n = 1..N: factor n through the shared smallest-prime-factor
table, generate (divisor, phi) pairs, look the divisor degrees up in the
order table, and run the sorted-degree greedy.  Counts are snapshotted as the
stream crosses each checkpoint, so a single pass yields the whole report.

The partitioned variant splits [1, N] into contiguous ranges whose per-range,
per-checkpoint subcounts merge by addition; output is identical to the
sequential path for any number of parts.
"""
from __future__ import annotations

import json
import multiprocessing
import os
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import log
from typing import Sequence

from .arith import SpfTable, build_spf_table, divisors_and_phis
from .orders import OrderTable, sieve_order_star

DEFAULT_CHECKPOINT_DECADES = tuple(10**k for k in range(2, 8))


@dataclass(frozen=True)
class CountRow:
    X: int
    count: int
    ratio: float


@dataclass(frozen=True)
class CountReport:
    """Rows (X, count, count/(X/log X)) for one practicality kind."""

    kind: str  # "phi" or "p"
    base: int | None  # prime base when kind == "p"
    limit: int
    rows: tuple[CountRow, ...]

    def counts(self) -> list[int]:
        return [row.count for row in self.rows]

    def label(self) -> str:
        return "phi" if self.kind == "phi" else str(self.base)


def ratio_row(X: int, count: int) -> float:
    """count / (X / log X) with the natural log, in double precision."""
    if X < 2:
        raise ValueError(f"X must be >= 2, got {X}")
    return count * log(X) / X


def _resolve_checkpoints(limit: int, checkpoints: Sequence[int] | None) -> list[int]:
    if checkpoints is None:
        cps = [x for x in DEFAULT_CHECKPOINT_DECADES if x <= limit]
        if not cps:
            cps = [limit]
    else:
        cps = [int(x) for x in checkpoints]
    if not cps:
        raise ValueError("checkpoint list is empty")
    for prev, cur in zip(cps, cps[1:]):
        if cur <= prev:
            raise ValueError(f"checkpoints must be strictly increasing, got {cps}")
    if cps[0] < 2:
        raise ValueError(f"checkpoints must be >= 2, got {cps[0]}")
    if cps[-1] > limit:
        raise ValueError(f"checkpoint {cps[-1]} exceeds limit {limit}")
    return cps


def _scan_range(
    lo: int,
    hi: int,
    checkpoints: list[int],
    spf: array,
    order_values: array | None,
) -> list[int]:
    """Per-checkpoint practical counts restricted to n in [lo, hi].

    counts[i] is the number of practical n with lo <= n <= min(hi, X_i).
    order_values None selects the phi multiset (no order lookups).
    """
    counts = [0] * len(checkpoints)
    ncp = len(checkpoints)
    ci = 0
    while ci < ncp and checkpoints[ci] < lo:
        ci += 1
    running = 0
    phi_mode = order_values is None
    for n in range(lo, hi + 1):
        while ci < ncp and checkpoints[ci] < n:
            counts[ci] = running
            ci += 1
        divs, phis = divisors_and_phis(n, spf)
        if phi_mode:
            phis.sort()
            reach = 0
            for ph in phis:
                if ph > reach + 1:
                    break
                reach += ph
            else:
                running += 1
        else:
            pairs = sorted(zip(map(order_values.__getitem__, divs), phis))
            reach = 0
            for deg, ph in pairs:
                if deg > reach + 1:
                    break
                reach += ph
            else:
                running += 1
    while ci < ncp:
        counts[ci] = running
        ci += 1
    return counts


_WORKER_STATE: dict = {}


def _scan_worker(bounds: tuple[int, int]) -> list[int]:
    lo, hi = bounds
    return _scan_range(
        lo,
        hi,
        _WORKER_STATE["checkpoints"],
        _WORKER_STATE["spf"],
        _WORKER_STATE["order_values"],
    )


def _partition_bounds(limit: int, parts: int) -> list[tuple[int, int]]:
    bounds = []
    for i in range(parts):
        lo = limit * i // parts + 1
        hi = limit * (i + 1) // parts
        if lo <= hi:
            bounds.append((lo, hi))
    return bounds


def usable_cpu_count() -> int:
    """CPUs this process may run on: its affinity set where the platform has
    one (it honours taskset and cpuset limits), else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_partitioned(
    limit: int,
    checkpoints: list[int],
    spf: array,
    order_values: array | None,
    parts: int,
) -> list[int]:
    bounds = _partition_bounds(limit, parts)
    if len(bounds) > 1 and "fork" in multiprocessing.get_all_start_methods():
        partials = _run_workers(bounds, checkpoints, spf, order_values)
    else:
        partials = [_scan_range(lo, hi, checkpoints, spf, order_values) for lo, hi in bounds]
    totals = [0] * len(checkpoints)
    for partial in partials:
        for i, c in enumerate(partial):
            totals[i] += c
    return totals


def _run_workers(bounds, checkpoints, spf, order_values) -> list[list[int]]:
    _WORKER_STATE.update(checkpoints=checkpoints, spf=spf, order_values=order_values)
    try:
        workers = min(len(bounds), usable_cpu_count())
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            return list(pool.map(_scan_worker, bounds))
    finally:
        _WORKER_STATE.clear()


def _build_rows(checkpoints: list[int], totals: list[int]) -> tuple[CountRow, ...]:
    return tuple(
        CountRow(X=x, count=c, ratio=ratio_row(x, c)) for x, c in zip(checkpoints, totals)
    )


def count_p_practical_partitioned(
    p: int,
    limit: int,
    checkpoints: Sequence[int] | None = None,
    parts: int = 1,
    *,
    spf_table: SpfTable | None = None,
    order_table: OrderTable | None = None,
) -> CountReport:
    """Range-partitioned F_p count; output does not depend on parts."""
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    cps = _resolve_checkpoints(limit, checkpoints)
    if spf_table is None:
        spf_table = build_spf_table(limit)
    if order_table is None:
        order_table = sieve_order_star(p, limit, spf_table)
    if order_table.base != p:
        raise ValueError(f"order table base {order_table.base} does not match p={p}")
    if order_table.limit < limit:
        raise ValueError(f"order table limit {order_table.limit} below {limit}")
    totals = _run_partitioned(limit, cps, spf_table.spf, order_table.values, parts)
    return CountReport(kind="p", base=p, limit=limit, rows=_build_rows(cps, totals))


def count_phi_practical(
    limit: int,
    checkpoints: Sequence[int] | None = None,
    parts: int = 1,
    *,
    spf_table: SpfTable | None = None,
) -> CountReport:
    """Exact phi-practical counts at each checkpoint; no order table needed."""
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    cps = _resolve_checkpoints(limit, checkpoints)
    if spf_table is None:
        spf_table = build_spf_table(limit)
    totals = _run_partitioned(limit, cps, spf_table.spf, None, parts)
    return CountReport(kind="phi", base=None, limit=limit, rows=_build_rows(cps, totals))


def render_csv(report: CountReport) -> str:
    lines = ["X,count,ratio"]
    for row in report.rows:
        lines.append(f"{row.X},{row.count},{row.ratio:.6f}")
    return "\n".join(lines) + "\n"


def render_json(report: CountReport) -> str:
    payload = [
        {"X": row.X, "count": row.count, "ratio": row.ratio} for row in report.rows
    ]
    return json.dumps(payload, indent=2) + "\n"


def render_text(report: CountReport) -> str:
    label = report.label()
    head_count = f"F_{label}(X)"
    head_ratio = f"F_{label}(X)/(X/log X)"
    width_x = max(len("X"), *(len(str(r.X)) for r in report.rows))
    width_c = max(len(head_count), *(len(str(r.count)) for r in report.rows))
    lines = [f"{'X':>{width_x}}  {head_count:>{width_c}}  {head_ratio}"]
    for row in report.rows:
        lines.append(f"{row.X:>{width_x}}  {row.count:>{width_c}}  {row.ratio:.6f}")
    return "\n".join(lines) + "\n"
