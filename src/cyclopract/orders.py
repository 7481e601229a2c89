"""Multiplicative orders, coprime parts, the batch order-star sieve, and the
chain keys of a count.

``order_star(a, n)`` is the multiplicative order of a modulo the largest
divisor of n coprime to a.  ``sieve_order_star`` computes it for every n up
to a limit through ``prime_power_sieve``, as the lcm of prime-power orders;
the ``orders``, ``ratios`` and ``smallorder`` commands read that table.  A
count needs the orders at its chain primes alone (``prime_order_keys``), and
``lifted_orders`` lifts an order mod q to the powers of q.
"""
from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import filterfalse, islice
from math import gcd, lcm

from .arith import (
    build_spf_table,
    carmichael_lambda,
    factorize_trial,
    is_prime,
    prime_power_sieve,
    primes_up_to,
)


@dataclass(frozen=True)
class OrderTable:
    """values[d] = order_star(base, d) for every 1 <= d <= limit."""

    base: int
    limit: int
    values: array


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


def _shrink_exponent(a: int, n: int, exponent: int, exp_primes) -> int:
    # exponent is a multiple of the order; divide out primes while the
    # congruence a^t = 1 (mod n) survives.
    t = exponent
    for q in exp_primes:
        while t % q == 0 and pow(a, t // q, n) == 1:
            t //= q
    return t


def mult_order(a: int, n: int, lam_n: int | None = None) -> int:
    """Multiplicative order of a modulo n for coprime a, n.

    Starts from lambda(n) (computed via trial division when not supplied)
    and strips primes; never iterates powers one at a time.
    """
    if a < 2:
        raise ValueError(f"a must be >= 2, got {a}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if gcd(a, n) != 1:
        raise ValueError(f"a={a} and n={n} are not coprime")
    if n == 1:
        return 1
    lam = carmichael_lambda(factorize_trial(n)) if lam_n is None else lam_n
    if lam < 1:
        raise ValueError(f"lambda(n) must be >= 1, got {lam}")
    return _shrink_exponent(a, n, lam, (q for q, _ in factorize_trial(lam).factors))


def prime_power_order(a: int, q: int, k: int) -> int:
    """Order of a modulo q^k, lifted incrementally from the order modulo q.

    Each lift multiplies by q exactly when the previous order no longer
    satisfies the congruence, so the result is ord(q) * q^j with minimal j.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not is_prime(q):
        raise ValueError(f"q={q} is not prime")
    if a % q == 0:
        raise ValueError(f"q={q} divides a={a}")
    return lifted_orders(a, q, k, mult_order(a, q, q - 1))[-1]


def lifted_orders(a: int, q: int, k: int, t: int) -> list[int]:
    """Orders of a modulo q, q^2, ..., q^k, from t, the order modulo q.

    The order mod q^(j+1) is the order mod q^j, times q exactly when that
    order no longer satisfies the congruence mod q^(j+1).
    """
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
    m = coprime_part(n, a)
    if m == 1:
        return 1
    return mult_order(a, m)


def _prime_order_sieved(a: int, q: int, spf: array) -> int:
    """ord(a mod q) for a prime q not dividing a, with q - 1 split through
    ``spf``, an SPF table to at least q - 1.

    Proof sketch: the order divides t = q - 1 (Fermat) and stays a divisor
    of t as t shrinks.  For each prime r of q - 1, t loses factors r while
    a^(t/r) = 1 (mod q), that is while the order divides t/r; when that
    fails, r^j exactly divides the order with r^j exactly dividing t, and
    later steps strip only other primes.  So t ends as the order.  The
    split is inline, one prime r at a time as the table gives it.
    """
    t = m = q - 1
    while m > 1:
        r = spf[m]
        m //= r
        while spf[m] == r:
            m //= r
        while t % r == 0 and pow(a, t // r, q) == 1:
            t //= r
    return t


def sieve_order_star(a: int, limit: int) -> OrderTable:
    """order_star(a, d) for every d <= limit, as one 32-bit array.

    ``prime_power_sieve`` with lcm: order_star(a, d) is the lcm of
    ord(a mod q^e) over the prime powers q^e of d with q not dividing a, by
    the Chinese remainder theorem, and a prime dividing a contributes 1.
    The per-prime value is ord(a mod q), found from the factors of q - 1 in
    the sieve's per-prime pass, or 1 when q divides a; ``lifted_orders``
    lifts it to q^e for e >= 2.  So a is never factored.
    """
    if a < 2:
        raise ValueError(f"a must be >= 2, got {a}")

    def order_mod_prime(q: int, spf: array) -> int:
        """ord(a mod q), or 1 when q divides a (see ``_prime_order_sieved``)."""
        return 1 if a % q == 0 else _prime_order_sieved(a, q, spf)

    def order_mod_prime_power(q: int, e: int, t: int) -> int:
        """ord(a mod q^e) from t = ord(a mod q): ``lifted_orders`` multiplies
        by q exactly where the previous order fails mod the next power, and
        a prime dividing a contributes 1 at every e."""
        return t if e == 1 or a % q == 0 else lifted_orders(a, q, e, t)[-1]

    values = prime_power_sieve(limit, order_mod_prime_power, lcm, per_prime=order_mod_prime)
    return OrderTable(base=a, limit=limit, values=values)


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
    - q <= s: the full order, with q - 1 factored through an SPF table of
      s entries, kept when it is within the bound.
    - q > s: then q >= s + 1 > top / 64, so k = top // q is at most 63 and
      the bound k + 1 at most 64.  The primes with top // q = k form the block
      top // (k + 1) < q <= top // k, and k = 1..63 covers every q > s.
      Within block k, for q != p, ord(p mod q) <= k + 1 exactly when q
      divides the stamp, the product of p^j - 1 over j = 1..k + 1: a prime
      divides the product exactly when it divides some factor p^j - 1,
      that is when its order divides some j <= k + 1, that is when the
      order is at most k + 1.  So the stamp filter keeps exactly the chain
      primes of the block, and the order of each is found in at most 64
      multiplications.  q = p is never kept, as every p^j - 1 is -1 mod p;
      it has its key already.
    The stamp of block k has about (k + 1)^2 / 2 * log2(p) bits, so the
    many primes of the first blocks are tested against a short stamp.
    """
    primes = primes_up_to(top)
    small = top // _STAMP_SPAN
    spf = build_spf_table(max(small, 2)).spf
    keys = {p: 1} if p <= top else {}
    for q in islice(primes, bisect_right(primes, small)):
        if q != p and (k := _prime_order_sieved(p, q, spf)) <= top // q + 1:
            keys[q] = k
    stamp = p - 1
    for k in range(1, _STAMP_SPAN):
        stamp *= p ** (k + 1) - 1
        lo = bisect_right(primes, top // (k + 1))
        for q in filterfalse(stamp.__mod__, islice(primes, lo, bisect_right(primes, top // k))):
            order = 1
            x = p % q
            while x != 1:
                x = x * p % q
                order += 1
            keys[q] = order
    return keys
