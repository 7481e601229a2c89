"""Empirical counters and scanners for order/divisor statistics.

These are diagnostics over a finite range: dense-divisor counts, the prime
sets A_q, largest prime factors of lambda/order quotients, smooth parts of
lambda, and threshold counts for Omega(phi(n)) and tau(n).  Thresholds that
arrive as reals are compared against integers exactly (Python int/float
comparisons are exact; divisor-ratio checks cross-multiply integers), so no
count can be off by a float boundary.
"""
from __future__ import annotations

from array import array
from collections import Counter
from math import exp, isfinite, lcm, log
from operator import add, floordiv, mul
from typing import NamedTuple

from .arith import (
    build_spf_table,
    chain_sieve,
    charge_budget,
    check_32_bit,
    factorize_trial,
    grown,
    is_prime,
    lambda_prime_power,
    prime_count_bound,
    prime_power_sieve,
    prime_powers,
    prime_sieve_bytes,
    primes_up_to,
    spf_table_bytes,
)
from .orders import prime_order

THETA_MIN = 0.1
THETA_MAX = 0.9


def resolve_thresholds(X: int, theta: float | None, *, Y=None, B=None, Z=None, psi=None,
                       bound=None) -> dict:
    """The thresholds Y, B, Z, psi and bound of a scan to X, as a dict.

    A given value is used as is; without theta the rest are None.  With
    theta, Y = exp(110 (log X)^theta (log log X)^2) and B = exp((log X)^theta)
    unless given, the values of the dense-divisor argument, and then, from the
    Y and B in use, Z = Y^2, psi = Y * B and the small-order bound X / (Y * B),
    with Z and psi checked.  All logs are natural.
    """
    if theta is None:
        return {"Y": Y, "B": B, "Z": Z, "psi": psi, "bound": bound}
    if not THETA_MIN <= theta <= THETA_MAX:
        raise ValueError(f"theta must lie in [{THETA_MIN}, {THETA_MAX}], got {theta}")
    if X < 3:
        raise ValueError(f"X must be >= 3, got {X}")
    lx = log(X)
    llx = log(lx)
    try:
        if B is None:
            B = exp(lx**theta)
        if Y is None:
            Y = exp(110.0 * lx**theta * llx * llx)
    except OverflowError as exc:
        raise ValueError(
            f"derived thresholds overflow doubles for X={X}, theta={theta}"
        ) from exc
    if Z is None:
        Z = Y * Y
    if not isfinite(Z):
        raise ValueError("Z overflows a double; pass Z explicitly")
    if Z < 2:
        raise ValueError(f"Z must be >= 2, got {Z}")
    if psi is None:
        psi = Y * B
    if not isfinite(psi):
        raise ValueError("psi overflows a double; pass psi explicitly")
    if psi < llx:
        raise ValueError(f"psi={psi} is below log log X = {llx}")
    if bound is None:
        if Y * B == 0:
            raise ValueError("Y * B is 0; pass bound explicitly")
        if not isfinite(Y * B):
            raise ValueError("Y * B overflows a double; pass bound explicitly")
        bound = X / (Y * B)
    return {"Y": Y, "B": B, "Z": Z, "psi": psi, "bound": bound}


def omega_phi_threshold(X: int) -> float:
    """110 (log log X)^2, the tail cutoff for Omega(phi(n))."""
    if X < 3:
        raise ValueError(f"X must be >= 3, got {X}")
    return 110.0 * log(log(X)) ** 2


def _ratio_parts(z) -> tuple[int, int]:
    num, den = z.as_integer_ratio()
    if num <= 0:
        raise ValueError(f"Z must be positive, got {z}")
    return num, den


def count_z_dense(limit: int, z) -> int:
    """Exact count of Z-dense n <= limit, by Tenenbaum's criterion through
    one ``chain_sieve``.

    With q_1 < q_2 < ... the primes of n and M_j the product of the prime
    powers of q_1..q_j, n is Z-dense if and only if q_{j+1} <= Z * M_j for
    every j (M_0 = 1), a prime chain with the primes in increasing order
    and least cofactor ceil(q * den / num) for Z = num/den.  Necessity: a
    divisor below q_{j+1} has only primes below q_{j+1}, so it divides M_j;
    the divisor preceding q_{j+1} is therefore at most M_j, and the ratio
    q_{j+1} / M_j > Z would be a gap.  Sufficiency, by induction on j: the
    divisors of M_{j+1} are the blocks q^a * D(M_j), a = 0..e, with
    q = q_{j+1} and D(M_j) Z-dense.  Inside a block the ratios are those of
    D(M_j).  The first divisor above the top q^a * M_j of block a is at most
    Z * q^a * M_j: either it is q^(a+1) <= Z * q^a * M_j, or it is
    q^(a+1) * d with its predecessor q^(a+1) * d' <= q^a * M_j in block
    a + 1, and d <= Z * d'.  The divisor-scan reference, ``is_z_dense``,
    lives with the tests, in ``tests/oracles.py``.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    num, den = _ratio_parts(z)
    if num < 2 * den:
        raise ValueError(f"Z must be >= 2, got {z}")
    ok = chain_sieve(limit, lambda q: -(-q * den // num))
    return ok.count(1)


def dense_count_bound_ratio(limit: int, z, count: int) -> float:
    """count / (limit * log Z / log limit): diagnostic against the dense-divisor bound."""
    if limit < 2:
        raise ValueError(f"limit must be >= 2 for a bound ratio, got {limit}")
    num, den = _ratio_parts(z)
    return count / (limit * log(num / den) / log(limit))


def a_q_primes(a: int, q: int, bound: int) -> list[tuple[int, int]]:
    """(p, ord(a mod p)) for the primes p <= bound with p = 1 (mod q) and
    a^((p-1)/q) = 1 (mod p); an SPF table to bound factors each p - 1 for
    its order.  One charge, made before the table is built, covers all the
    scan holds: the table with its build temporary (``spf_table_bytes``),
    the prime sieve (``prime_sieve_bytes``), and at most
    min(pi(bound), (bound - 1) // 2q) rows (each p is 1 mod 2q) of 128
    bytes, a list slot, a 2-tuple and two ints; arrays and the list with
    their growth slack (``grown``), and 1 KiB of headers."""
    if a < 2:
        raise ValueError(f"a must be >= 2, got {a}")
    if q < 3 or q % 2 == 0 or not is_prime(q):
        raise ValueError(f"q must be an odd prime, got {q}")
    if bound < q:
        raise ValueError(f"bound must be >= q, got {bound}")
    check_32_bit(bound)
    rows = grown(min(prime_count_bound(bound), (bound - 1) // (2 * q)))
    peak = spf_table_bytes(bound) + prime_sieve_bytes(bound) + 128 * rows
    charge_budget(peak + 1024, "A_q scan")
    spf = build_spf_table(bound)
    primes = primes_up_to(bound)
    return [
        (p, prime_order(a, p, spf))
        for p in primes
        if p % q == 1 and pow(a, (p - 1) // q, p) == 1
    ]


def lambda_star_table(limit: int, skip_base: int) -> array:
    """lambda of the largest divisor of n coprime to skip_base, for n <= limit.

    ``prime_power_sieve`` with lcm over the lambda(q^e) of the prime powers
    of n, 1 where q divides skip_base.
    """

    def lambda_coprime(q: int, e: int, _: int) -> int:
        return 1 if skip_base % q == 0 else lambda_prime_power(q, e)

    return prime_power_sieve(limit, lambda_coprime, lcm)


class RatioStats(NamedTuple):
    """Histogram of P(lambda(n_(a)) / order_star(a, n)) over n <= limit."""

    counts: dict[int, int]
    exceed_psi: int | None


def lambda_order_ratio_stats(a: int, orders: array, psi: float | None = None) -> RatioStats:
    """Largest prime factor of lambda(n_(a))/order_star(a, n) for each
    n <= limit, where ``orders`` is ``sieve_order_star(a, limit)``.

    The quotient uses lambda of the coprime part so it is always an integer
    (the order divides that lambda).  P(1) = 1 lands in bucket 1.  Both
    tables are read through memoryviews, and only the distinct quotients
    (547 at 10^6 for a = 2) are factored, by trial division.
    """
    limit = len(orders) - 1
    lam = lambda_star_table(limit, skip_base=a)
    ratios = Counter(map(floordiv, memoryview(lam)[1:], memoryview(orders)[1:]))
    counts: dict[int, int] = {}
    for ratio, c in ratios.items():
        biggest = max((q for q, _ in factorize_trial(ratio).factors), default=1)
        counts[biggest] = counts.get(biggest, 0) + c
    exceed = None
    if psi is not None:
        exceed = sum(c for biggest, c in counts.items() if biggest >= psi)
    return RatioStats(counts=counts, exceed_psi=exceed)


def small_order_count(orders: array, bound) -> int:
    """#{n <= limit : order_star(a, n) <= bound}, where ``orders`` is
    ``sieve_order_star(a, limit)``."""
    count = 0
    for v in memoryview(orders)[1:]:
        if v <= bound:
            count += 1
    return count


def omega_phi_distribution(limit: int) -> dict[int, int]:
    """Histogram of Omega(phi(n)) for n <= limit.

    Omega(phi(q^e)) = e - 1 + Omega(q - 1) and Omega(phi) is additive over
    coprime factors, so ``prime_power_sieve`` with + tabulates it.
    """

    def omega_q_minus_1(q: int, spf: array) -> int:
        """Omega(q - 1), the prime factors of q - 1 with multiplicity: one
        per step m -> m // spf[m] from q - 1 down to 1."""
        m = q - 1
        steps = 0
        while m > 1:
            m //= spf[m]
            steps += 1
        return steps

    def omega_phi_prime_power(q: int, e: int, omega: int) -> int:
        """Omega(phi(q^e)) from omega = Omega(q - 1): phi(q^e) is
        q^(e - 1) (q - 1), and Omega is additive over products."""
        return e - 1 + omega

    table = prime_power_sieve(limit, omega_phi_prime_power, add, unit=0, per_prime=omega_q_minus_1)
    return dict(Counter(memoryview(table)[1:]))


def omega_phi_excess(dist: dict[int, int], X: int) -> int:
    """How many n in an ``omega_phi_distribution`` histogram have
    Omega(phi(n)) >= 110 (log log X)^2."""
    cutoff = omega_phi_threshold(X)
    return sum(c for om, c in dist.items() if om >= cutoff)


def tau_threshold_count(limit: int, kappa) -> int:
    """#{n <= limit : tau(n) >= kappa}; tau by ``prime_power_sieve`` with *."""
    if kappa < 1:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    taus = Counter(memoryview(prime_power_sieve(limit, lambda q, e, _: e + 1, mul))[1:])
    return sum(c for t, c in taus.items() if t >= kappa)


def tau_bound_ratio(limit: int, kappa, count: int) -> float:
    """count / ((1/kappa) * limit * log limit): diagnostic against the tau tail bound."""
    if limit < 2:
        raise ValueError(f"limit must be >= 2 for a bound ratio, got {limit}")
    return count / (limit * log(limit) / kappa)


def smooth_lambda_part_count(limit: int, bound, threshold) -> int:
    """#{n <= limit : the bound-smooth part of lambda(n) exceeds threshold}.

    The smooth part of an lcm is the lcm of the smooth parts, so
    ``prime_power_sieve`` with lcm over the smooth parts of lambda(q^e)
    tabulates it.
    """
    if bound < 2:
        raise ValueError(f"bound must be >= 2, got {bound}")

    def smooth_q_minus_1(q: int, spf: array) -> int:
        """The bound-smooth part of q - 1: its prime powers come in
        increasing order, so the first prime above bound ends it."""
        part = 1
        for r, k in prime_powers(q - 1, spf):
            if r > bound:
                break
            part *= r**k
        return part

    def smooth_lambda_prime_power(q: int, e: int, part: int) -> int:
        """The bound-smooth part of lambda(q^e) from part, that of q - 1.
        For odd q, lambda(q^e) = q^(e - 1) (q - 1) with q prime to q - 1, so
        its smooth part is part times q^(e - 1) when q <= bound and part
        otherwise.  lambda(2^e) is a power of 2, and 2 <= bound."""
        if q == 2:
            return lambda_prime_power(2, e)
        return part * q ** (e - 1) if q <= bound else part

    table = prime_power_sieve(limit, smooth_lambda_prime_power, lcm, per_prime=smooth_q_minus_1)
    parts = Counter(memoryview(table)[1:])
    return sum(c for part, c in parts.items() if part > threshold)
