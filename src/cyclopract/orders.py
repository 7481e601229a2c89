"""Multiplicative orders, coprime parts, the batch order-star sieve, and the
chain keys of a count.

Every order comes from one routine, ``order_from_multiple``, which strips
the primes of a known multiple of the order.  ``order_star(a, n)`` is the
order of a modulo the largest divisor of n coprime to a, so a prime q
dividing a has order* 1 at every power: ``prime_order`` gives it at q and
``lifted_orders`` at each q^e.  ``sieve_order_star`` computes order* for
every n up to a limit through ``prime_power_sieve``, as the lcm of
prime-power orders; the ``orders``, ``ratios`` and ``smallorder`` commands
read that table.  A count needs the orders at its chain primes alone
(``prime_order_keys``).
"""
from __future__ import annotations

from array import array
from bisect import bisect_right
from functools import partial
from itertools import filterfalse, islice
from math import gcd, lcm
from typing import Iterable

from .arith import (
    build_spf_table,
    carmichael_lambda,
    factorize_trial,
    prime_power_sieve,
    primes_up_to,
)


def coprime_part(n: int, a: int) -> int:
    """Largest divisor of n coprime to a."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if a < 2:
        raise ValueError(f"a must be >= 2, got {a}")
    g = gcd(n, a)
    while g > 1:
        n //= g
        g = gcd(n, a)
    return n


def order_from_multiple(a: int, n: int, t: int, primes: Iterable[int]) -> int:
    """ord(a mod n) for n >= 2, from t, a positive multiple of it, and
    ``primes``, which holds every prime of t and may hold other primes.

    Proof sketch: the order divides t and stays a divisor of t as t
    shrinks.  For each prime r, t loses factors r while a^(t/r) = 1
    (mod n), that is while the order divides t/r; when that fails, r^j
    exactly divides the order with r^j exactly dividing t, and later steps
    strip only other primes.  A prime not dividing t leaves it alone.  So
    once every prime of t has been visited, t is the order.
    """
    for r in primes:
        while t % r == 0 and pow(a, t // r, n) == 1:
            t //= r
    return t


def mult_order(a: int, n: int) -> int:
    """Multiplicative order of a modulo n for coprime a, n, by
    ``order_from_multiple`` from t = lambda(n), computed via trial division."""
    if a < 2:
        raise ValueError(f"a must be >= 2, got {a}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if gcd(a, n) != 1:
        raise ValueError(f"a={a} and n={n} are not coprime")
    if n == 1:
        return 1
    lam = carmichael_lambda(factorize_trial(n))
    return order_from_multiple(a, n, lam, (r for r, _ in factorize_trial(lam).factors))


def prime_order(a: int, q: int, spf: array | None = None) -> int:
    """order_star(a, q) for a prime q: 1 when q divides a, else ord(a mod q)
    by ``order_from_multiple`` from t = q - 1 (Fermat), whose primes are read
    off ``spf``, an SPF table to at least q - 1, or found by
    ``factorize_trial`` when no table is passed."""
    if a % q == 0:
        return 1
    m = q - 1
    if spf is None:
        return order_from_multiple(a, q, m, [r for r, _ in factorize_trial(m).factors])
    primes = []
    while m > 1:
        r = spf[m]
        primes.append(r)
        m //= r
        while spf[m] == r:
            m //= r
    return order_from_multiple(a, q, q - 1, primes)


def lifted_orders(a: int, q: int, k: int, t: int) -> list[int]:
    """order_star(a, q^j) for j = 1..k, from t = order_star(a, q).

    All 1 when q divides a.  Otherwise the order mod q^(j+1) is the order
    mod q^j, times q exactly when that order no longer satisfies the
    congruence mod q^(j+1).
    """
    if a % q == 0:
        return [1] * k
    out = [t]
    mod = q
    for _ in range(k - 1):
        mod *= q
        if pow(a, t, mod) != 1:
            t *= q
        out.append(t)
    return out


def mult_order_star(a: int, n: int) -> int:
    """Order of a modulo the coprime part of n; 1 when the coprime part is 1."""
    return mult_order(a, coprime_part(n, a))


def sieve_order_star(a: int, limit: int) -> array:
    """order_star(a, d) for every d <= limit, as one 32-bit array.

    ``prime_power_sieve`` with lcm: order_star(a, d) is the lcm of
    order_star(a, q^e) over the prime powers q^e of d, by the Chinese
    remainder theorem.  The per-prime value is ``prime_order``, with q - 1
    split through the sieve's SPF table in its per-prime pass, and
    ``lifted_orders`` lifts it to q^e for e >= 2.  So a is never factored.
    """
    if a < 2:
        raise ValueError(f"a must be >= 2, got {a}")

    def order_mod_prime_power(q: int, e: int, t: int) -> int:
        """order_star(a, q^e) from t = order_star(a, q)."""
        return t if e == 1 else lifted_orders(a, q, e, t)[-1]

    return prime_power_sieve(limit, order_mod_prime_power, lcm, per_prime=partial(prime_order, a))


# ord(p mod q) <= s exactly when q divides p^j - 1 for some j <= s.
_STAMP_SPAN = 64


def prime_order_keys(p: int, top: int) -> dict[int, int]:
    """The chain keys of a count to top over F_p, for a prime p: {q: k} for
    every prime q <= top with k = ord(p mod q) <= top // q + 1, and k = 1
    at q = p.

    No other prime can sit in a chain: a node m * q^e <= top has cofactor
    m <= top // q, and the chain admits q after m only when its key is at
    most m + 1.  The key at q = p is 1, which is within the bound.

    The other primes split at s = top // 64.
    - q <= s: ``prime_order``, with q - 1 split through an SPF table of s
      entries, kept when it is within the bound.
    - q > s: then q >= s + 1 > top / 64, so k = top // q is at most 63 and
      the bound k + 1 at most 64.  The primes with top // q = k form the block
      top // (k + 1) < q <= top // k, and k = 1..63 covers every q > s.
      Within block k, for q != p, ord(p mod q) <= k + 1 exactly when q
      divides the stamp, the product of p^j - 1 over j = 1..k + 1: a prime
      divides the product exactly when it divides some factor p^j - 1,
      that is when its order divides some j <= k + 1, that is when the
      order is at most k + 1.  So the stamp filter keeps exactly the chain
      primes of the block.  The order of each then divides
      lcm(1..k + 1) and q - 1, so ``order_from_multiple`` finds it from
      t = gcd(lcm(1..k + 1), q - 1) and the primes up to k + 1; a block
      with a prime holds top // k >= 2, so those primes are all listed.
      q = p is never kept, as every p^j - 1 is -1 mod p; it has its key
      already.
    The stamp of block k has about (k + 1)^2 / 2 * log2(p) bits, so the
    many primes of the first blocks are tested against a short stamp.
    """
    primes = primes_up_to(top)
    small = top // _STAMP_SPAN
    spf = build_spf_table(max(small, 2))
    keys = {p: 1} if p <= top else {}
    for q in islice(primes, bisect_right(primes, small)):
        if (k := prime_order(p, q, spf)) <= top // q + 1:
            keys[q] = k
    stamp = p - 1
    span = 1
    for k in range(1, _STAMP_SPAN):
        stamp *= p ** (k + 1) - 1
        span = lcm(span, k + 1)
        span_primes = primes[: bisect_right(primes, k + 1)]
        lo = bisect_right(primes, top // (k + 1))
        for q in filterfalse(stamp.__mod__, islice(primes, lo, bisect_right(primes, top // k))):
            keys[q] = order_from_multiple(p, q, gcd(span, q - 1), span_primes)
    return keys
