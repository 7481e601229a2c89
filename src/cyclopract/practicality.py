"""Degree multisets of x^n - 1 and the practicality decision procedures.

Over F_p the irreducible factors coming from the divisor d of n all have
degree order_star(p, d), and there are phi(d)/order_star(p, d) of them; over
the integers the divisor d contributes a single factor of degree phi(d).
An n is "practical" for a degree multiset when every target in 1..n is a
bounded-multiplicity sum of degrees, which the classic complete-sequence
greedy decides in O(tau(n) log tau(n)).  A dense subset-sum oracle and a
direct polynomial-factorization oracle cross-check both constructions.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

from .arith import divisor_phi_pairs, factorize_trial, is_prime
from .errors import CapacityError
from .gfpoly import distinct_degree_counts
from .orders import OrderTable, mult_order_star

OrderSource = Union[OrderTable, Callable[[int], int], None]


@dataclass(frozen=True)
class DegreeMultiset:
    """(degree, count) entries, one per divisor of n; degrees may repeat."""

    n: int
    entries: tuple[tuple[int, int], ...]

    def degree_counts(self) -> dict[int, int]:
        """Entries aggregated into a degree -> total count map."""
        agg: dict[int, int] = {}
        for deg, cnt in self.entries:
            agg[deg] = agg.get(deg, 0) + cnt
        return agg


@dataclass(frozen=True)
class PracticalVerdict:
    """Decision plus, on failure, the smallest unreachable degree."""

    practical: bool
    witness_gap: int | None = None


def _order_lookup(p: int, source: OrderSource) -> Callable[[int], int]:
    if source is None:
        return lambda d: mult_order_star(p, d)
    if isinstance(source, OrderTable):
        if source.base != p:
            raise ValueError(f"order table was built for base {source.base}, not {p}")
        return source.values.__getitem__
    return source


def degree_multiset(n: int, p: int, order_source: OrderSource = None) -> DegreeMultiset:
    """Degrees of the irreducible factors of x^n - 1 over F_p, by divisor.

    Each divisor d contributes (order_star(p, d), phi(d)/order_star(p, d));
    the weighted sum over all entries is n.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    lookup = _order_lookup(p, order_source)
    entries = []
    for d, phi_d in divisor_phi_pairs(factorize_trial(n)):
        deg = lookup(d)
        entries.append((deg, phi_d // deg))
    return DegreeMultiset(n=n, entries=tuple(entries))


def phi_degree_multiset(n: int) -> DegreeMultiset:
    """Degrees of the irreducible integer factors of x^n - 1: phi(d) once per d."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    entries = tuple(
        (phi_d, 1) for _, phi_d in divisor_phi_pairs(factorize_trial(n))
    )
    return DegreeMultiset(n=n, entries=entries)


def coverage_check(ms: DegreeMultiset) -> PracticalVerdict:
    """Greedy complete-sequence test over the degree multiset.

    With degrees sorted ascending and reach starting at 0, a degree v with
    total count c extends reach to reach + v*c provided v <= reach + 1;
    otherwise reach + 1 is the smallest unreachable target and is reported
    as the witness.
    """
    reach = 0
    for deg, cnt in sorted(ms.degree_counts().items()):
        if deg > reach + 1:
            return PracticalVerdict(practical=False, witness_gap=reach + 1)
        reach += deg * cnt
    if reach < ms.n:
        return PracticalVerdict(practical=False, witness_gap=reach + 1)
    return PracticalVerdict(practical=True)


DEFAULT_ORACLE_CAP = 10**5


def dp_reachable_mask(ms: DegreeMultiset, cap: int = DEFAULT_ORACLE_CAP) -> int:
    """Bitmask of sums reachable in 0..n with bounded multiplicities.

    Dense subset-sum table as an integer bitmask; counts are expanded by
    binary splitting so c copies cost O(log c) shift-or passes.
    """
    if ms.n > cap:
        raise CapacityError(f"n={ms.n} exceeds oracle cap {cap}")
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


def verify_witness(ms: DegreeMultiset, gap: int) -> bool:
    """Check a reported witness gap with the DP mask, independently of the
    greedy: every sum below gap is reachable and gap itself is not."""
    below = (1 << gap) - 1
    mask = dp_reachable_mask(ms)
    return mask & below == below and not (mask >> gap) & 1


def dp_coverage_oracle(ms: DegreeMultiset, cap: int = DEFAULT_ORACLE_CAP) -> PracticalVerdict:
    """Exact reachability verdict; independent of the greedy path."""
    mask = dp_reachable_mask(ms, cap)
    want = (1 << (ms.n + 1)) - 1
    if mask == want:
        return PracticalVerdict(practical=True)
    missing = mask ^ want
    gap = (missing & -missing).bit_length() - 1
    return PracticalVerdict(practical=False, witness_gap=gap)


def is_p_practical(n: int, p: int, order_source: OrderSource = None) -> PracticalVerdict:
    """Does x^n - 1 have a divisor of every degree 1..n over F_p?"""
    return coverage_check(degree_multiset(n, p, order_source))


def is_phi_practical(n: int) -> PracticalVerdict:
    """Does x^n - 1 have a divisor of every degree 1..n over the integers?"""
    return coverage_check(phi_degree_multiset(n))


POLY_ORACLE_MAX_N = 512
POLY_ORACLE_MAX_P = 97


@lru_cache(maxsize=None)
def _squarefree_cyclo_counts(m: int, p: int) -> tuple[tuple[int, int], ...]:
    # x^m - 1 with p not dividing m is squarefree; run plain DDF on it.
    f = [p - 1] + [0] * (m - 1) + [1]
    return tuple(sorted(distinct_degree_counts(f, p).items()))


def poly_factor_degrees_oracle(n: int, p: int) -> dict[int, int]:
    """degree -> factor count of x^n - 1 over F_p by direct factorization.

    Splits off the p-power part first: x^n - 1 is the p^e-th power of
    x^m - 1 where m = n / p^e is coprime to p, so every count from the
    squarefree distinct-degree factorization scales by p^e.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > POLY_ORACLE_MAX_N:
        raise CapacityError(f"n={n} exceeds polynomial oracle cap {POLY_ORACLE_MAX_N}")
    if p > POLY_ORACLE_MAX_P:
        raise CapacityError(f"p={p} exceeds polynomial oracle cap {POLY_ORACLE_MAX_P}")
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    m = n
    scale = 1
    while m % p == 0:
        m //= p
        scale *= p
    return {deg: cnt * scale for deg, cnt in _squarefree_cyclo_counts(m, p)}
