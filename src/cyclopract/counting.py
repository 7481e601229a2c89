"""Checkpointed counting sieves for phi-practical and p-practical integers.

One pass streams n = 1..N and decides each n from its prime powers, read
off the shared smallest-prime-factor table.  A prime chain rejects most n
first: sorted by a key (ord*(p, q) for F_p, q - 1 over Z), a prime whose
key exceeds one plus the product of the prime powers before it leaves a
gap no degree can fill (``p_chain``, ``phi_chain``).  The survivors run the
sorted-degree greedy: over F_p on the degree -> weight map merged from the
prime powers (``p_degree_weights``), over Z on the sorted totients of the
divisors.  Counts are snapshotted as the stream crosses each checkpoint,
so a single pass yields the whole report.

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
from itertools import islice, repeat
from math import lcm, log
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


def p_chain(n: int, spf: array, order_values: array) -> list[tuple[int, int, int]] | None:
    """Prime-chain prefilter for p-practicality: the prime powers of n as
    (k(q), q, q^e) sorted by the key k(q) = ord*(p, q), or None when the
    chain proves n is not p-practical.

    With M_j the product of the first j prime powers in key order, n is
    rejected when some k_{j+1} > M_j + 1.  Proof sketch: the divisors built
    only from the first j primes are the divisors of M_j, whose phi-weights
    sum to M_j.  Every other divisor d has a prime q_i with i > j, so
    ord*(p, d) is the lcm of prime-power orders, one of which is a multiple
    of k_i >= k_{j+1} (the order mod q^a is the order mod q times a power
    of q).  So every degree below k_{j+1} comes from a divisor of M_j, the
    sorted greedy reaches at most M_j before its first degree >= k_{j+1},
    and that degree exceeds reach + 1: the greedy stalls.  The key of q = p
    is 1 (the table holds ord* = 1 there), so it sorts first and never
    rejects.
    """
    pps = []
    while n > 1:
        q = spf[n]
        n //= q
        qe = q
        while spf[n] == q:
            n //= q
            qe *= q
        pps.append((order_values[q], q, qe))
    pps.sort()
    m = 1
    for k, _, qe in pps:
        if k > m + 1:
            return None
        m *= qe
    return pps


def p_degree_weights(pps: list[tuple[int, int, int]], order_values: array) -> dict[int, int]:
    """degree -> total phi-weight of the divisors of n with that ord*(p, d),
    built from the prime powers (k, q, q^e) of n alone.

    Start from {1: 1} (the divisor 1) and merge each q^e in: a divisor
    d * q^a of the part built so far has degree lcm(ord*(p, d), ord*(p, q^a))
    by the Chinese remainder theorem and weight phi(d) * phi(q^a).  This is
    the aggregation ``coverage_check`` makes (weight = degree * count), and
    only prime-power entries of the order table are read.
    """
    weights = {1: 1}
    for _, q, qe in pps:
        items = list(weights.items())
        qa = q
        ph = q - 1
        while True:
            k = order_values[qa]
            for deg, w in items:
                deg = lcm(deg, k)
                weights[deg] = weights.get(deg, 0) + w * ph
            if qa == qe:
                break
            qa *= q
            ph *= q
    return weights


def _p_practical(n: int, spf: array, order_values: array) -> bool:
    pps = p_chain(n, spf, order_values)
    if pps is None:
        return False
    weights = p_degree_weights(pps, order_values)
    reach = 0
    for deg in sorted(weights):
        if deg > reach + 1:
            return False
        reach += weights[deg]
    return True


def phi_chain(n: int, spf: array) -> bool:
    """Prime-chain prefilter for phi-practicality: False proves n is not
    phi-practical.

    The key of a prime q is q - 1, which increases with q, so the primes
    come in key order straight from the SPF walk.  With M_j the product of
    the prime powers below q_{j+1}, n is rejected when q_{j+1} - 1 > M_j + 1:
    the divisors of M_j carry phi-weight M_j, and every other divisor d has
    phi(d) a multiple of some q_i - 1 >= q_{j+1} - 1, so the greedy stalls
    as in ``p_chain``.
    """
    m = 1
    while n > 1:
        q = spf[n]
        if q > m + 2:
            return False
        n //= q
        m *= q
        while spf[n] == q:
            n //= q
            m *= q
    return True


def _phi_practical(n: int, spf: array) -> bool:
    if not phi_chain(n, spf):
        return False
    phis = divisors_and_phis(n, spf)[1]
    phis.sort()
    reach = 0
    for ph in phis:
        if ph > reach + 1:
            return False
        reach += ph
    return True


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
    if order_values is None:
        practical = map(_phi_practical, range(lo, hi + 1), repeat(spf))
    else:
        practical = map(_p_practical, range(lo, hi + 1), repeat(spf), repeat(order_values))
    counts = []
    running = 0
    start = lo
    for x in checkpoints:
        stop = min(x, hi)
        if stop >= start:
            running += sum(islice(practical, stop - start + 1))
            start = stop + 1
        counts.append(running)
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
