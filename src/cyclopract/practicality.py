"""Degree multisets of x^n - 1 and the practicality decision procedures.

Over F_p the irreducible factors coming from the divisor d of n all have
degree order_star(p, d), and there are phi(d)/order_star(p, d) of them; over
the integers the divisor d contributes a single factor of degree phi(d).
An n is "practical" for a degree multiset when every target in 1..n is a
bounded-multiplicity sum of degrees, which the classic complete-sequence
greedy decides.

Every degree is built from the prime powers q^a of d: over F_p it is the
lcm of ord(p mod q^a), over Z the product of phi(q^a).  The per-field
ladders of those degrees live here, ``order_ladder`` (ord(p mod q) lifted to
q^e) and ``phi_ladder``.  ``merged_degree_weights`` builds the degree ->
weight map from the prime powers of n, and ``greedy_gap`` runs the greedy
over it; every verdict, ``is_p_practical``, ``is_phi_practical`` and both
counts, runs this one kernel.  ``degree_multiset`` and
``phi_degree_multiset`` (one degree per divisor) with ``dp_coverage_oracle``
stay as the independent check of ``test --witness``; the divisor-list greedy
and the polynomial-factorization oracle live in ``tests/oracles.py``.
"""
from __future__ import annotations

from array import array
from math import lcm
from operator import mul
from typing import Callable, Iterable, NamedTuple, Sequence

from .arith import DEFAULT_DIVISOR_CAP, divisor_phi_pairs, factorize_trial, is_prime
from .errors import CapacityError
from .orders import lifted_orders, mult_order_star, prime_order


class DegreeMultiset(NamedTuple):
    """(degree, count) entries, one per divisor of n; degrees may repeat."""

    n: int
    entries: tuple[tuple[int, int], ...]

    def degree_counts(self) -> dict[int, int]:
        """Entries aggregated into a degree -> total count map."""
        agg: dict[int, int] = {}
        for deg, cnt in self.entries:
            agg[deg] = agg.get(deg, 0) + cnt
        return agg


class PracticalVerdict(NamedTuple):
    """Decision plus, on failure, the smallest unreachable degree."""

    practical: bool
    witness_gap: int | None = None


def degree_multiset(n: int, p: int, orders: array | None = None) -> DegreeMultiset:
    """Degrees of the irreducible factors of x^n - 1 over F_p, by divisor.

    Each divisor d contributes (order_star(p, d), phi(d)/order_star(p, d));
    the weighted sum over all entries is n.  The orders are read from
    ``orders``, a ``sieve_order_star(p, limit)`` table with limit >= n, when
    one is passed, else ``mult_order_star`` per divisor.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if orders is None:
        lookup = lambda d: mult_order_star(p, d)
    else:
        lookup = orders.__getitem__
    entries = []
    for d, phi_d in divisor_phi_pairs(factorize_trial(n)):
        deg = lookup(d)
        entries.append((deg, phi_d // deg))
    return DegreeMultiset(n=n, entries=tuple(entries))


def phi_degree_multiset(n: int) -> DegreeMultiset:
    """Degrees of the irreducible integer factors of x^n - 1: phi(d) once per d."""
    entries = tuple(
        (phi_d, 1) for _, phi_d in divisor_phi_pairs(factorize_trial(n))
    )
    return DegreeMultiset(n=n, entries=entries)


DEFAULT_ORACLE_CAP = 10**5


def check_oracle_cap(n: int) -> None:
    """Refuse an n past ``DEFAULT_ORACLE_CAP``, the dense DP's reach."""
    if n > DEFAULT_ORACLE_CAP:
        raise CapacityError(f"n={n} exceeds oracle cap {DEFAULT_ORACLE_CAP}")


def dp_reachable_mask(ms: DegreeMultiset) -> int:
    """Bitmask of sums reachable in 0..n with bounded multiplicities.

    Dense subset-sum table as an integer bitmask; counts are expanded by
    binary splitting so c copies cost O(log c) shift-or passes.
    """
    check_oracle_cap(ms.n)
    full = (1 << (ms.n + 1)) - 1
    mask = 1
    for deg, cnt in ms.degree_counts().items():
        chunk = 1
        while cnt > 0:
            take = min(chunk, cnt)
            mask |= (mask << (deg * take)) & full
            cnt -= take
            chunk <<= 1
    return mask


def dp_coverage_oracle(ms: DegreeMultiset) -> PracticalVerdict:
    """Exact reachability verdict; independent of the greedy path."""
    mask = dp_reachable_mask(ms)
    want = (1 << (ms.n + 1)) - 1
    if mask == want:
        return PracticalVerdict(practical=True)
    missing = mask ^ want
    gap = (missing & -missing).bit_length() - 1
    return PracticalVerdict(practical=False, witness_gap=gap)


def order_ladder(p: int, keys: dict[int, int]) -> Callable[[int, int], Sequence[int]]:
    """orders(q, e): order_star(p, q^j) for j = 1..e, lifted by
    ``lifted_orders`` from keys[q] = order_star(p, q).  Each q^e with
    e >= 2 is lifted once."""
    lifted: dict[int, list[int]] = {}

    def orders(q: int, e: int) -> Sequence[int]:
        if e == 1:
            return (keys[q],)
        qe = q**e
        got = lifted.get(qe)
        if got is None:
            got = lifted[qe] = lifted_orders(p, q, e, keys[q])
        return got

    return orders


def phi_ladder(q: int, e: int) -> list[int]:
    """phi(q), phi(q^2), ..., phi(q^e)."""
    return [(q - 1) * q**a for a in range(e)]


def merged_degree_weights(
    prime_powers: Iterable[tuple[int, int]],
    ladder: Callable[[int, int], Sequence[int]],
    combine: Callable[[int, int], int] = lcm,
) -> dict[int, int]:
    """degree -> total phi-weight of the divisors of n with that degree,
    from the prime powers (q, e) of n and ladder(q, e), the degrees of q,
    q^2, ..., q^e; a divisor d * q^a of coprime parts has degree
    combine(degree of d, degree of q^a).

    Over F_p the degree is ord*(p, d): the ladder holds the orders of p
    modulo q, ..., q^e (all 1 when q = p) and ``combine`` is lcm, by the
    Chinese remainder theorem.  Over Z it is phi(d): the ladder holds
    phi(q), ..., phi(q^e) and ``combine`` is the product.

    Start from {1: 1} (the divisor 1) and merge each q^e in: a divisor
    d * q^a of the part built so far has weight phi(d) * phi(q^a).  This is
    ``degree_multiset`` aggregated by degree (weight = degree * count), with
    no divisor list.  The map never has more entries than n has divisors;
    past ``DEFAULT_DIVISOR_CAP`` entries it raises CapacityError.
    """
    weights = {1: 1}
    for q, e in prime_powers:
        steps = ladder(q, e)
        items = list(weights.items())
        ph = q - 1
        for k in steps:
            for deg, w in items:
                deg = combine(deg, k)
                weights[deg] = weights.get(deg, 0) + w * ph
            ph *= q
        if len(weights) > DEFAULT_DIVISOR_CAP:
            raise CapacityError(
                f"more than {DEFAULT_DIVISOR_CAP} distinct factor degrees"
            )
    return weights


def greedy_gap(weights: dict[int, int]) -> int | None:
    """The complete-sequence greedy over a degree -> phi-weight map: the
    smallest unreachable degree, or None when every target is reachable."""
    reach = 0
    for deg in sorted(weights):
        if deg > reach + 1:
            return reach + 1
        reach += weights[deg]
    return None


def is_p_practical(n: int, p: int) -> PracticalVerdict:
    """Does x^n - 1 have a divisor of every degree 1..n over F_p?

    Factors n and each q - 1 once by ``factorize_trial``, takes
    order_star(p, q) by ``prime_order`` once per prime q of n, lifts it to
    q^e by ``order_ladder``, and runs the greedy over
    ``merged_degree_weights``.  ``dp_coverage_oracle`` over ``degree_multiset``
    is the independent oracle for the same verdict and witness.
    """
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    factors = factorize_trial(n).factors
    keys = {q: prime_order(p, q) for q, _ in factors}
    gap = greedy_gap(merged_degree_weights(factors, order_ladder(p, keys)))
    return PracticalVerdict(practical=gap is None, witness_gap=gap)


def is_phi_practical(n: int) -> PracticalVerdict:
    """Does x^n - 1 have a divisor of every degree 1..n over the integers?

    The same kernel as ``is_p_practical``, with ``phi_ladder`` and degrees
    multiplied; ``dp_coverage_oracle`` over ``phi_degree_multiset`` is the
    independent oracle for the same verdict and witness.
    """
    gap = greedy_gap(merged_degree_weights(factorize_trial(n).factors, phi_ladder, mul))
    return PracticalVerdict(practical=gap is None, witness_gap=gap)
