"""Checkpointed counting sieves for phi-practical and p-practical integers.

A count runs in two steps.  First one ``chain_sieve`` settles the prime
chain for every n up to the last checkpoint: with the primes of n sorted
by a key, k(q) = ord(p mod q) over F_p and q - 1 over Z, a prime whose key
exceeds one plus the product M of the prime powers before it leaves a gap
no degree can fill, because every degree below that key comes from a
divisor of M and those divisors weigh M in all.  Over F_p the keys are
computed at the primes alone (``orders.prime_order_keys``); no per-n order
table is built.
Then each survivor is settled from its cofactor where a lemma allows
(``_decider``, which memoizes verdicts in the chain sieve's bytearray), and
runs the sorted-degree greedy only where it does not: over F_p on the
degree -> weight map merged from the prime powers
(``practicality.merged_degree_weights``, the kernel ``cyclopract test``
also uses), over Z on the sorted totients of the divisors.

``parts`` deals the survivor list out like cards, every parts-th survivor
to each part, and decides the parts in a fork pool; per-part,
per-checkpoint counts merge by addition, so the output is identical for
any number of parts.
"""
from __future__ import annotations

import json
import multiprocessing
import os
from array import array
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import compress, islice
from math import log
from typing import Callable, Sequence

from .arith import (
    SpfTable,
    build_spf_table,
    chain_sieve,
    divisors_and_phis,
    prime_powers,
    primes_up_to,
)
from .orders import lifted_orders, prime_order_keys
from .practicality import greedy_gap, merged_degree_weights

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


def _phi_practical(n: int, spf: array) -> bool:
    # The Z verdict for an n that passed the chain: the greedy over its
    # sorted divisor totients.
    phis = divisors_and_phis(n, spf)[1]
    phis.sort()
    reach = 0
    for ph in phis:
        if ph > reach + 1:
            return False
        reach += ph
    return True


def _p_orders(p: int, keys: array) -> Callable[[int, int], Sequence[int]]:
    """orders(q, e): the orders of p modulo q, q^2, ..., q^e (all 1 when
    q = p), lifted from the chain key of q.  Every prime of a chain survivor
    has an exact key, and each q^e with e >= 2 is lifted once."""
    lifted: dict[int, list[int]] = {}

    def orders(q: int, e: int) -> Sequence[int]:
        if e == 1:
            return (keys[q],)
        qe = q**e
        got = lifted.get(qe)
        if got is None:
            got = lifted[qe] = [1] * e if q == p else lifted_orders(p, q, e, keys[q])
        return got

    return orders


def _p_decider(p: int, spf: array, keys: array) -> Callable[[int], bool]:
    """The F_p verdict for an n that passed the chain: the greedy over
    ``merged_degree_weights``, with orders lifted from the chain keys."""
    orders = _p_orders(p, keys)
    return lambda n: greedy_gap(merged_degree_weights(prime_powers(n, spf), orders)) is None


def _chain(
    p: int | None, top: int, spf_table: SpfTable
) -> tuple[bytearray, Sequence[int], Callable[[int, int], int], Callable[[int], bool]]:
    """The chain sieve to top over F_p (over Z when p is None), with what
    ``_decider`` settles its survivors by: the chain key of each prime
    (ord(p mod q) over F_p, q itself over Z, which orders the primes as
    q - 1 does), kappa(q, e) = ord*(p, q^e) over F_p and phi(q^e) over Z,
    and the plain greedy."""
    spf = spf_table.spf
    if p is None:
        ok = chain_sieve(top, primes_up_to(top, spf_table), lambda q: q - 2)
        phi = lambda q, e: (q - 1) * q ** (e - 1)
        return ok, range(top + 1), phi, partial(_phi_practical, spf=spf)
    primes = list(primes_up_to(top, spf_table))
    keys = prime_order_keys(p, top, primes, spf_table)
    primes.sort(key=keys.__getitem__)
    ok = chain_sieve(top, primes, lambda q: keys[q] - 1)
    lift = _p_orders(p, keys)
    return ok, keys, lambda q, e: lift(q, e)[-1], _p_decider(p, spf, keys)


def _decider(
    ok: bytearray,
    spf: array,
    keys: Sequence[int],
    kappa: Callable[[int, int], int],
    greedy: Callable[[int], bool],
) -> Callable[[int], bool]:
    """The verdict on a chain survivor n, memoized in the chain sieve's own
    bytearray: ok[n] is 0 for no, 1 for a survivor not yet decided and 2
    for yes.  Read the survivor list before the first call.

    Split n = m * q^e with q the prime of n last in the chain's key order
    (largest key, ties to the larger prime).  Accept n when
    kappa(q, e) <= m + 1 and m is practical, deciding an undecided m first
    (the recursion is at most omega(n) deep); otherwise run ``greedy``.
    For e = 1 the inequality is the chain link of q, which every survivor
    holds; only e >= 2 needs kappa.  m is a survivor itself, because the
    chain sieve set ok[n] = ok[m].

    Lemma.  Let n = m * q^e with q prime, q not dividing m, and
    kappa = delta(q^e), where delta(d) is ord*(p, d) over F_p (1 when
    q = p) and phi(d) over Z.  If m is practical and kappa <= m + 1, then
    n is practical.

    Proof sketch, on the merged degree -> weight map W (the divisors d of
    n grouped by delta(d), weighted by phi(d)); n is practical exactly when
    W_n(<D) >= D - 1 for every degree D of W_n.
    - Fact A: if W_m is complete with total m, then
      W_m(<t) >= min(t - 1, m) for every t >= 1 (take the least degree
      at or above t, or none).
    - The divisors d | m give W_m inside W_n, so W_n(<D) >= W_m(<D).
    - Case D <= m + 1: W_n(<D) >= W_m(<D) >= D - 1 by Fact A.
    - Case D > m + 1: every delta(d) with d | m is at most m, so
      D = delta(d * q^a) with a >= 1, and kappa_a = delta(q^a) <= D <=
      delta(d) * kappa_a (an lcm over F_p, a product over Z).  Put
      t = ceil(D / kappa_a).  Every d' | m with delta(d') <= t - 1 has
      delta(d' * q^a') <= delta(d') * kappa_a < D for all a' <= a, since
      kappa_a' <= kappa_a.  Those divisors, with phi(q^a') summing to
      q^a - 1 over a' = 1..a, and all of m give
      W_n(<D) >= m + (q^a - 1) * min(t - 1, m).
    - That is >= D - 1.  If t - 1 <= m it is >= m + kappa_a * (t - 1),
      as q^a - 1 >= phi(q^a) >= kappa_a, and that is
      >= m + D - kappa_a >= D - 1, as kappa_a <= kappa <= m + 1.
      Otherwise it is m * q^a > D, as D <= phi(d) * phi(q^a) <= m * (q^a - 1).
    ``greedy`` is exact, so the verdicts equal the plain greedy's for any
    order of calls, and each fork worker of ``--parts`` decides the m it
    needs in its own copy-on-write ok.
    """

    def practical(n: int) -> bool:
        state = ok[n]
        if state != 1:
            return state == 2
        top = q = e = 0
        r = n
        while r > 1:
            s = spf[r]
            r //= s
            k = 1
            while spf[r] == s:
                r //= s
                k += 1
            if keys[s] >= top:
                top, q, e = keys[s], s, k
        m = n // q**e if q else 0  # n = 1 has no prime and goes to the greedy
        verdict = (
            m > 0 and (e == 1 or kappa(q, e) <= m + 1) and practical(m)
        ) or greedy(n)
        ok[n] = 2 if verdict else 0
        return verdict

    return practical


def _count_part(
    part: int,
    parts: int,
    checkpoints: list[int],
    survivors: array,
    practical: Callable[[int], bool],
) -> list[int]:
    """Per-checkpoint practical counts over survivors[part::parts]."""
    mine = survivors[part::parts]
    decided = map(practical, mine)
    counts = []
    running = 0
    done = 0
    for x in checkpoints:
        end = bisect_right(mine, x)
        if end > done:
            running += sum(islice(decided, end - done))
            done = end
        counts.append(running)
    return counts


_WORKER_STATE: dict = {}


def _count_worker(part: int) -> list[int]:
    state = _WORKER_STATE
    return _count_part(
        part, state["parts"], state["checkpoints"], state["survivors"], state["practical"]
    )


def usable_cpu_count() -> int:
    """CPUs this process may run on: its affinity set where the platform has
    one (it honours taskset and cpuset limits), else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _count_survivors(
    ok: bytearray,
    checkpoints: list[int],
    practical: Callable[[int], bool],
    parts: int,
) -> list[int]:
    """Per-checkpoint counts of the n the chain passed (ok[n] set) that
    ``practical`` accepts.  The survivor list is read before ``practical``
    first runs, since ``_decider`` writes its verdicts into ok.  Part i
    takes every parts-th survivor from the i-th, so the parts carry even
    loads although larger n cost more; they run in a fork pool when there
    is more than one, and their counts add."""
    survivors = array("I", compress(range(len(ok)), ok))
    parts = min(parts, len(survivors))
    if parts > 1 and "fork" in multiprocessing.get_all_start_methods():
        partials = _run_workers(parts, checkpoints, survivors, practical)
    else:
        partials = [_count_part(i, parts, checkpoints, survivors, practical) for i in range(parts)]
    return [sum(column) for column in zip(*partials)]


def _run_workers(parts, checkpoints, survivors, practical) -> list[list[int]]:
    _WORKER_STATE.update(
        parts=parts, checkpoints=checkpoints, survivors=survivors, practical=practical
    )
    try:
        workers = min(parts, usable_cpu_count())
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            return list(pool.map(_count_worker, range(parts)))
    finally:
        _WORKER_STATE.clear()


def _count(
    p: int | None,
    limit: int,
    checkpoints: Sequence[int] | None,
    parts: int,
    spf_table: SpfTable | None,
) -> CountReport:
    """Exact counts at each checkpoint, over F_p or over Z when p is None:
    one chain sieve to the last checkpoint, then its survivors, settled by
    ``_decider`` in ``parts`` parts."""
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    cps = _resolve_checkpoints(limit, checkpoints)
    if spf_table is None:
        spf_table = build_spf_table(limit)
    ok, keys, kappa, greedy = _chain(p, cps[-1], spf_table)
    practical = _decider(ok, spf_table.spf, keys, kappa, greedy)
    totals = _count_survivors(ok, cps, practical, parts)
    rows = tuple(CountRow(X=x, count=c, ratio=ratio_row(x, c)) for x, c in zip(cps, totals))
    return CountReport(kind="phi" if p is None else "p", base=p, limit=limit, rows=rows)


def count_p_practical_partitioned(
    p: int,
    limit: int,
    checkpoints: Sequence[int] | None = None,
    parts: int = 1,
    *,
    spf_table: SpfTable | None = None,
) -> CountReport:
    """Exact F_p counts at each checkpoint; output does not depend on parts.
    The chain keys are computed at the primes alone (``prime_order_keys``)."""
    return _count(p, limit, checkpoints, parts, spf_table)


def count_phi_practical(
    limit: int,
    checkpoints: Sequence[int] | None = None,
    parts: int = 1,
    *,
    spf_table: SpfTable | None = None,
) -> CountReport:
    """Exact phi-practical counts at each checkpoint; no order table needed."""
    return _count(None, limit, checkpoints, parts, spf_table)


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
