"""Checkpointed counts of phi-practical and p-practical integers, by one
depth-first walk of the chain tree.

Sort the primes of n by a key, k(q) = ord(p mod q) over F_p and q - 1 over
Z.  A prime whose key exceeds one plus the product M of the prime powers
before it leaves a gap no degree can fill, because every degree below that
key comes from a divisor of M and those divisors weigh M in all.  So only
an n whose chain holds can be practical; this is the shape of Stewart's
criterion for practical numbers (Amer. J. Math. 1954).  Those n form a tree
rooted at 1, the parent of n = m * q^e being m, with q the last prime of n
in key order.  ``_walk`` visits the tree depth first.  It settles a node
from its parent's verdict where a lemma allows, and otherwise runs the
sorted-degree greedy over ``practicality.merged_degree_weights`` (the
kernel ``cyclopract test`` also uses) on the prime powers on its stack,
with the degree ladders ``practicality.order_ladder`` and ``phi_ladder``.
Below a node m that fails the greedy with gap g, the bound on a child's
key tightens from m + 1 to g, by the same argument with g for m + 1: a
prime of larger key adds no degree up to g, so the gap stays open in the
child and in every node beneath it, and the walk does not visit them.
Nor does it look for children below a node n when no prime after n's last
fits under N / n.

Over F_p the keys are computed at the chain primes alone
(``orders.prime_order_keys``, from one byte sieve of the primes up to N); no
per-n table is built.  Over Z a child prime is at most min(m + 2, N / m), so
the walk needs only the primes up to sqrt(N) + 2.

The depth-2 subtrees are dealt out like cards into at most one part per
usable CPU, each walked by its own fork-pool worker; per-part counts merge
by addition, so the output is identical for any number of parts.
"""
from __future__ import annotations

import json
import os
from bisect import bisect_left, bisect_right
from functools import partial
from itertools import accumulate
from math import isqrt, lcm, log
from operator import mul
from typing import Callable, NamedTuple, Sequence

from .arith import primes_up_to
from .errors import CapacityError
from .orders import prime_order_keys
from .practicality import greedy_gap, merged_degree_weights, order_ladder, phi_ladder


class CountRow(NamedTuple):
    X: int
    count: int
    ratio: float


class CountReport(NamedTuple):
    """Rows (X, count, count/(X/log X)) over F_base, or over Z when base is None."""

    base: int | None
    rows: tuple[CountRow, ...]

    def counts(self) -> list[int]:
        return [row.count for row in self.rows]

    def label(self) -> str:
        return "phi" if self.base is None else str(self.base)


def ratio_row(X: int, count: int) -> float:
    """count / (X / log X) with the natural log, in double precision."""
    if X < 2:
        raise ValueError(f"X must be >= 2, got {X}")
    return count * log(X) / X


def _resolve_checkpoints(limit: int, checkpoints: Sequence[int] | None) -> list[int]:
    """The checkpoints as given, checked; by default every 10^k <= limit
    from 100 on, or [limit] below 100."""
    if checkpoints is None:
        cps = []
        x = 100
        while x <= limit:
            cps.append(x)
            x *= 10
        cps = cps or [limit]
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


def _walk(
    limit: int,
    keys: dict[int, int],
    ladder: Callable[[int, int], Sequence[int]],
    combine: Callable[[int, int], int],
    visit: Callable[[int, bool], object],
    part: int,
    parts: int,
) -> None:
    """Call visit(n, practical) for every n <= limit whose prime chain holds,
    that the gap lemma does not prune, and that falls to part ``part`` of
    ``parts``, depth first from 1.  Every practical n <= limit is visited.

    ``keys`` maps each prime a chain can use to its key.  ladder(q, e) is
    delta(q), ..., delta(q^e), where delta(d) is ord*(p, d) over F_p (1 when
    q = p) and phi(d) over Z, and delta(q) = key(q); ``combine`` merges the
    degrees of coprime parts, lcm over F_p and product over Z.

    The tree.  The chain of n = q_1^e_1 ... q_r^e_r, primes in key order
    (ties by q), holds when key(q_{j+1}) <= M_j + 1 for every j, M_j being
    the product of the first j prime powers.  For n > 1 put m = n / q^e with
    q the last prime of n; the chain of n holds exactly when the chain of m
    holds and key(q) <= m + 1.  So every survivor has exactly one parent,
    its cofactor m, and the children of m are the m * q^e <= limit with q
    after m's last prime in key order and key(q) <= m + 1.  Their primes
    are read from the key-ordered primes, after m's last and up to key
    m + 1 (up to key g below an m that fails with gap g, by the gap lemma),
    or from the primes up to limit // m, whichever list is shorter, and
    filtered by the other bound.

    Verdicts.  The walk carries each node's greedy gap, None when it is
    practical.  The root 1 is practical.  A child n = m * q^e is accepted
    when m is practical and either e = 1 or kappa = delta(q^e) <= m + 1;
    for e = 1 that inequality is the chain link of q.  Otherwise the greedy
    runs on the degree -> weight map merged from the prime powers on the
    stack.  Over Z that map sends phi(d) to its summed weight, which the
    greedy over the sorted divisor totients agrees with, because equal
    totients pass or fail together.

    Cofactor lemma.  Let n = m * q^e with q prime, q not dividing m, and
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
    The greedy is exact, so every verdict equals the plain greedy's.

    Gap lemma.  Let m fail the greedy with gap g.  Then every child
    n = m * q^e with key(q) > g fails with gap g, and so does every
    descendant of n.  So below m the walk takes children only up to key g,
    not m + 1; g <= m, so the range is never wider.
    - The greedy stops at the first degree D > reach + 1, with g = reach + 1
      the weight of the degrees below D plus one.  Each of those has weight
      at least its degree, so they are all at most g - 1 and sum to g - 1,
      and m has no degree from g to D - 1.  So g - 1 < m.
    - A divisor of n that does not divide m is d * q^a with a >= 1, of
      degree lcm(delta(d), delta(q^a)) over F_p or phi(d) * phi(q^a) over
      Z; both are at least delta(q) = key(q) > g.
    - So the degrees of n up to g are those of m, and the greedy on n stops
      at g again.
    - A descendant of n adds only primes after q in key order, of key at
      least key(q) > g, so the same argument holds at every step down.
    - q = p has key 1 and is never pruned: degree 1 has weight at least 1,
      so g >= 2.

    Childless nodes.  ``least[i]`` is the least prime of rank i or later in
    key order, limit + 1 past the last rank, from one backward pass.  The
    walk calls descend(n, ., lo) only when least[lo] <= limit // n.
    - descend(n, ., lo) lists only primes of rank at least lo and at most
      limit // n.  If the least such prime exceeds limit // n, that list is
      empty.
    - The powers q^e are taken in the caller's loop, not in ``descend``, so
      a skipped call would have visited no node.
    - So the check drops no node, changes no verdict and no greedy call, and
      deals no depth-2 node: the parts below are unchanged.
    - least >= 2, so the check also keeps the walk to n <= limit / 2.

    Parts.  The walk order does not depend on ``part``: every part settles
    the nodes above depth 2, so every part prunes alike.  The depth-2 nodes
    are numbered in that order, and a part visits and descends into those
    numbered ``part`` mod ``parts`` only; every part walks the nodes above
    depth 2, and part 0 visits them.  So each node is visited by exactly
    one part.
    """
    primes = sorted(keys)
    by_key = sorted(primes, key=keys.__getitem__)
    key_order = [keys[q] for q in by_key]
    rank = {q: i for i, q in enumerate(by_key)}
    # least[i]: the least prime of rank i or later; limit + 1 past the end.
    least = list(accumulate(reversed(by_key), min, initial=limit + 1))[::-1]
    stack: list[tuple[int, int]] = []  # the prime powers of the node, in key order
    dealt = -1  # the number of the last depth-2 node

    def descend(m: int, gap: int | None, lo: int) -> None:
        # The children of m, whose primes have ranks lo to hi - 1 in key order.
        nonlocal dealt
        cap = limit // m
        hi = bisect_right(key_order, m + 1 if gap is None else gap, lo)
        top = bisect_right(primes, cap)
        if hi - lo < top:
            qs = [q for q in by_key[lo:hi] if q <= cap]
        else:
            qs = [q for q in primes[:top] if lo <= rank[q] < hi]
        depth = len(stack) + 1
        for q in qs:
            qe = q
            e = 1
            while qe <= cap:
                stack.append((q, e))
                if depth == 2:
                    dealt += 1
                if depth != 2 or dealt % parts == part:
                    n = m * qe
                    if gap is None and (e == 1 or ladder(q, e)[-1] <= m + 1):
                        child = None
                    else:
                        child = greedy_gap(merged_degree_weights(stack, ladder, combine))
                    if depth > 1 or part == 0:
                        visit(n, child is None)
                    if least[rank[q] + 1] <= cap // qe:
                        descend(n, child, rank[q] + 1)
                stack.pop()
                qe *= q
                e += 1

    if part == 0:
        visit(1, True)
    descend(1, None, 0)


def _p_walk(p: int, top: int) -> Callable[..., None]:
    """The walk over F_p: key(q) = ord(p mod q) at the chain primes, from
    ``prime_order_keys``."""
    keys = prime_order_keys(p, top)
    return partial(_walk, top, keys, order_ladder(p, keys), lcm)


def _phi_walk(top: int) -> Callable[..., None]:
    """The walk over Z: key(q) = q - 1 at the primes with
    q - 1 <= top // q + 1, since a node m * q^e <= top has m <= top // q.
    A chain prime q after a cofactor m has q <= m + 2 and q <= top / m, so
    q <= isqrt(top) + 2 and no larger prime is listed."""
    primes = primes_up_to(isqrt(top) + 2)
    keys = {q: q - 1 for q in primes if q - 1 <= top // q + 1}
    return partial(_walk, top, keys, phi_ladder, mul)


def _count_part(
    walk: Callable[..., None], checkpoints: list[int], parts: int, part: int
) -> list[int]:
    """Per-checkpoint practical counts over the nodes of one part."""
    found = [0] * len(checkpoints)

    def tally(n: int, practical: bool) -> None:
        if practical:
            found[bisect_left(checkpoints, n)] += 1

    walk(tally, part, parts)
    return list(accumulate(found))


_WORKER_STATE: dict = {}


def _count_worker(part: int) -> list[int]:
    return _WORKER_STATE["count_part"](part)


def usable_cpu_count() -> int:
    """CPUs this process may run on: its affinity set where the platform has
    one (it honours taskset and cpuset limits), else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_workers(count_part: Callable[[int], list[int]], parts: int) -> list[list[int]]:
    # Imported here, so that a count at --parts 1, and every other command,
    # starts without loading the pool's modules.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    _WORKER_STATE["count_part"] = count_part
    try:
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=parts, mp_context=ctx) as pool:
            return list(pool.map(_count_worker, range(parts)))
    finally:
        _WORKER_STATE.clear()


def _count(
    p: int | None, limit: int, checkpoints: Sequence[int] | None, parts: int
) -> CountReport:
    """Exact counts at each checkpoint, over F_p or over Z when p is None:
    one walk of the chain tree to the last checkpoint in min(parts, usable
    CPUs) parts, one per fork-pool worker; one part, or any where the
    platform cannot fork, walks once in this process."""
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    cps = _resolve_checkpoints(limit, checkpoints)
    if limit >= 1 << 32:
        # The walk's node count grows about as N / log N; at 10^8 it takes
        # about half a minute, so a limit like 1e400 would never end.
        raise CapacityError(
            f"limit {limit} is at or above 2^32; a count walk that far would not finish"
        )
    walk = _phi_walk(cps[-1]) if p is None else _p_walk(p, cps[-1])
    parts = min(parts, usable_cpu_count()) if hasattr(os, "fork") else 1
    count_part = partial(_count_part, walk, cps, parts)
    partials = _run_workers(count_part, parts) if parts > 1 else [count_part(0)]
    totals = [sum(column) for column in zip(*partials)]
    rows = tuple(CountRow(X=x, count=c, ratio=ratio_row(x, c)) for x, c in zip(cps, totals))
    return CountReport(base=p, rows=rows)


def count_p_practical_partitioned(
    p: int,
    limit: int,
    checkpoints: Sequence[int] | None = None,
    parts: int = 1,
) -> CountReport:
    """Exact F_p counts at each checkpoint, in at most ``parts`` processes;
    output does not depend on parts.  The chain keys come from the chain
    primes alone (``prime_order_keys``); no table of limit entries is built."""
    return _count(p, limit, checkpoints, parts)


def count_phi_practical(
    limit: int,
    checkpoints: Sequence[int] | None = None,
    parts: int = 1,
) -> CountReport:
    """Exact phi-practical counts at each checkpoint, in at most ``parts``
    processes, from the primes up to sqrt(limit) + 2; no table of limit
    entries is built, and output does not depend on parts."""
    return _count(None, limit, checkpoints, parts)


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
