"""Smallest-prime-factor sieve, the kernels that read it, the prime sieve,
the prime chain sieve, and the elementary arithmetic functions.

Factorizations come from one smallest-prime-factor (SPF) table, a plain
``array('I')``, through ``prime_powers``, which splits one n into its prime
powers.  Three sieves need no table: ``primes_up_to`` lists the primes up to
a limit from one byte per odd number, ``prime_power_sieve`` tabulates a
function fixed by its values on prime powers for every n up to a limit (a
depth-first walk writes the 31-smooth n one at a time, slices write the
rest), and ``chain_sieve`` settles a prime chain for every n up to a limit
by slice copies, which is how ``stats zdense`` rejects most n.  A value
that depends on the factors of q - 1 is computed once per prime, in the
prime-power sieve's per-prime pass, whose SPF table is freed before the
sieve's own table is allocated.

Every table charges its peak bytes to one budget (``charge_budget``) before
it is built; a refusal, like every other cap, raises ``CapacityError``.
"""
from __future__ import annotations

import os
from array import array
from collections import Counter
from itertools import compress, count, islice, repeat
from math import gcd, isqrt, lcm, log
from typing import Callable, Iterator, NamedTuple

MEM_BUDGET_ENV = "CYCLO_MEM_BUDGET_BYTES"
DEFAULT_MEM_BUDGET = 4 << 30

if array("I").itemsize != 4:  # pragma: no cover - true on all mainstream ABIs
    raise ImportError("platform 'I' array is not 32-bit; table layout unsupported")


def memory_budget() -> int:
    """Byte budget for table allocations (override with CYCLO_MEM_BUDGET_BYTES)."""
    raw = os.environ.get(MEM_BUDGET_ENV)
    if raw is None:
        return DEFAULT_MEM_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{MEM_BUDGET_ENV} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{MEM_BUDGET_ENV} must be positive, got {value}")
    return value


class CapacityError(Exception):
    """A requested table, divisor list, or scan exceeds a configured cap."""


def charge_budget(nbytes: int, what: str) -> None:
    """Raise CapacityError if an allocation would exceed the memory budget."""
    budget = memory_budget()
    if nbytes > budget:
        raise CapacityError(
            f"{what} needs {nbytes} bytes but the budget is {budget} "
            f"(set {MEM_BUDGET_ENV} to raise it)"
        )


def check_32_bit(limit: int) -> None:
    """Refuse a limit at or past 2^32, which 32-bit entries cannot hold;
    every sieve checks this before it computes its charge."""
    if limit >= 1 << 32:
        raise CapacityError(f"limit {limit} does not fit 32-bit table entries")


def grown(n: int) -> int:
    """Entries an array built up to n entries may reserve: CPython
    over-allocates a growing array by 1/16 of its size plus at most 7."""
    return n + n // 16 + 7


def spf_table_bytes(limit: int) -> int:
    """Peak bytes of ``build_spf_table(limit)``: the table with its growth
    slack and the temporary half its size written for p = 2."""
    return 4 * grown(limit + 1) + 2 * (limit + 1)


def prime_sieve_bytes(limit: int) -> int:
    """Peak bytes of ``primes_up_to(limit)``: its flags, the temporary
    written for r = 3 and the output with its growth slack."""
    return (limit + 1) // 2 + limit // 6 + 4 * grown(prime_count_bound(limit))


class Factorization(NamedTuple):
    """Prime-exponent decomposition of a positive integer.

    ``factors`` lists (prime, exponent) pairs with strictly increasing primes;
    it is empty exactly when ``value == 1``.
    """

    value: int
    factors: tuple[tuple[int, int], ...]


def build_spf_table(limit: int) -> array:
    """Smallest prime factors for all indices up to ``limit``, as one 32-bit
    array: entry k is the least prime dividing k (so entry p is p for a
    prime p), and entries 0 and 1 hold the index itself as a placeholder.

    The table starts as the identity, which is already right for every
    prime and for the placeholders 0 and 1.  Then each prime p <= sqrt(limit)
    (from ``primes_up_to``), in decreasing order, writes p over its multiples
    from p^2 on, so every composite is last written by its least prime
    divisor.  The identity is built by appends and may keep ``grown``'s
    slack, and the slice written for p = 2 is a temporary half the table's
    size; that peak, ``spf_table_bytes``, is charged.
    """
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    check_32_bit(limit)
    charge_budget(spf_table_bytes(limit), "smallest-prime-factor table")

    spf = array("I", range(limit + 1))
    for p in reversed(primes_up_to(isqrt(limit))):
        spf[p * p :: p] = array("I", [p]) * len(range(p * p, limit + 1, p))
    return spf


def prime_powers(n: int, spf: array) -> Iterator[tuple[int, int]]:
    """(q, e) for each prime power q^e exactly dividing n, q increasing.

    n must index ``spf``.  ``spf[1] == 1`` never equals a prime, so the
    exponent loop stops at the cofactor 1 without a separate test.
    """
    while n > 1:
        q = spf[n]
        n //= q
        e = 1
        while spf[n] == q:
            n //= q
            e += 1
        yield q, e


# The prime-power sieve writes the n whose primes are all head primes (the
# 31-smooth n) one at a time, and slices from the next prime, 37, on.  At
# 10^6, in-process, best of 5 on a 2-vCPU Xeon, with the head to 31, 100 and
# 300 against no head: the order-star sieve for base 2 took 0.68, 0.67 and
# 0.71 s against 0.87 s, tau 0.17, 0.18 and 0.21 s against 0.27 s,
# Omega(phi) 0.28, 0.30 and 0.35 s against 0.36 s, and lambda* 0.27, 0.28
# and 0.30 s against 0.38 s.
HEAD_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def prime_power_sieve(
    limit: int,
    value: Callable[[int, int, int], int],
    combine: Callable[[int, int], int],
    unit: int = 1,
    per_prime: Callable[[int, array], int] | None = None,
) -> array:
    """f(n) for every n <= limit as one 32-bit array, where f(1) = unit and
    f(q^e * m) = combine(f(m), value(q, e, w)) for q prime not dividing m,
    with w = per_prime(q, spf), or 0 when ``per_prime`` is None; ``unit``
    must be the identity of ``combine``.  Entry 0 is 0.

    The per-prime pass: ``per_prime`` reads the factorization of q - 1 off
    ``spf``, an SPF table to limit - 1 (a prime's q - 1 is below limit),
    and its values fill one 32-bit array aligned with the primes.  The
    table is freed before the sieve's own table is allocated, so no table
    of limit entries is held next to it, and each value(q, e, w) reads w
    by the prime's position in the walk.

    The head: a depth-first walk over the 31-smooth n <= limit (primes in
    ``HEAD_PRIMES``) writes each of them once, with its final value.
    From m it visits n = m * q^e for each head prime q above the largest
    prime of m, e ascending, and sets f[n] = combine(f[m], value(q, e, w)),
    or f[m] when the value is the unit.  The walk recurses at most once per
    head prime, 11 levels, and reads the values from one ladder of
    (q^e, value) per head prime.  At 10^6 it visits 18,083 n, about 1.8%.

    The slice walk of ``chain_sieve``, from q = 37 on: for each prime q,
    increasing, and each q^e <= limit, e ascending, one slice write sets
    f[q^e * m] = combine(f[m], value(q, e, w)) for every m, or copies f[m]
    when the value is the unit.  Proof sketch: a 31-smooth n = q^e * m,
    with q its largest prime, is written once, by the head, when f[m] is
    final, since every prime of m is smaller and the head reaches m before
    n; no slice write reaches it.  Any other n is last written by its
    largest prime Q >= 37 at its exact exponent, n = Q^e * m, and f[m] is
    final by then: m is 31-smooth, so written by the head, or its largest
    prime lies between 31 and Q, whose slices came first.  By induction
    f(n) folds ``combine`` over the prime powers of n, in any order when
    ``combine`` is associative and commutative.  So f is ord*(a, n) and
    lambda*(n) by the Chinese remainder theorem (lcm), tau(n) (product of
    e + 1), Omega(phi(n)) (sum of e - 1 + Omega(q - 1)), or the B-smooth
    part of lambda(n) (lcm of smooth parts).  Every entry, final or not,
    folds ``value`` over prime powers r^j whose product divides its index,
    so in these five uses it is at most the index and fits 32 bits: an lcm
    of divisors of the lambda(r^j) divides lambda of their lcm, a product
    of j + 1 is at most one of 2^j, and a sum of j - 1 + Omega(r - 1) at
    most log2 of the product.  The per-prime values of those uses,
    ord(a mod q), Omega(q - 1) and a divisor of q - 1, are below q.

    The primes come from ``primes_up_to``, whose flags are freed before the
    table is allocated.  The slices read f[1..limit // q^e] through a
    memoryview, so the walk holds the table, the primes, the per-prime
    values, one temporary of at most limit // 37 entries, each array but
    the table with its growth slack (``grown``), and the head's ladders and
    frames (``head_bytes``).  The per-prime pass holds the primes, the
    per-prime values and its SPF table at that table's own peak
    (``spf_table_bytes``).  The larger of the two, with pi(limit) bounded
    by ``prime_count_bound`` and 1 KiB for the objects' headers, is charged
    once, before the primes are listed, and a refusal names it.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    check_32_bit(limit)
    most = 4 * grown(prime_count_bound(limit))
    peak = 4 * (limit + 1 + grown(limit // 37)) + head_bytes(limit)
    if per_prime is None:
        peak += most
    else:
        peak = max(peak, spf_table_bytes(max(limit - 1, 2))) + 2 * most
    charge_budget(peak + 1024, "prime-power sieve")
    primes = primes_up_to(limit)
    if per_prime is None:
        weights = repeat(0)
    else:
        spf = build_spf_table(max(limit - 1, 2))
        weights = array("I", map(per_prime, primes, repeat(spf)))
        del spf
    values = array("I", [unit]) * (limit + 1)
    values[0] = 0
    walk = zip(primes, weights)
    ladders = []
    for q, w in islice(walk, len(HEAD_PRIMES)):
        ladder = []
        qe = q
        e = 1
        while qe <= limit:
            ladder.append((qe, value(q, e, w)))
            qe *= q
            e += 1
        ladders.append(ladder)

    def head(m: int, fm: int, first: int) -> None:
        # Write f[m * q^e] for the head primes q from ladders[first] on.
        for i in range(first, len(ladders)):
            ladder = ladders[i]
            if m * ladder[0][0] > limit:
                return
            for qe, v in ladder:
                n = m * qe
                if n > limit:
                    break
                fn = fm if v == unit else combine(fm, v)
                values[n] = fn
                head(n, fn, i + 1)

    head(1, unit, 0)
    with memoryview(values) as view:
        for q, w in walk:
            qe = q
            e = 1
            while qe <= limit:
                top = limit // qe
                v = value(q, e, w)
                if v == unit:
                    values[qe::qe] = values[1 : top + 1]
                else:
                    values[qe::qe] = array("I", map(combine, view[1 : top + 1], repeat(v)))
                qe *= q
                e += 1
    return values


def head_bytes(limit: int) -> int:
    """Bytes the prime-power sieve's head may hold next to its arrays: one
    rung (q^e, value) per power of a head prime up to limit, a tuple of two
    ints up to 2^32 in a list, at most 136 bytes, and 2 KiB for the ladder
    lists, the walk's closure and its 12 levels, each with its iterators
    and ints."""
    rungs = 0
    for q in HEAD_PRIMES:
        qe = q
        while qe <= limit:
            rungs += 1
            qe *= q
    return 136 * rungs + 2048


def prime_count_bound(limit: int) -> int:
    """An upper bound on pi(limit): 1.25506 * limit / log(limit) bounds it
    for limit > 1 (Rosser and Schoenfeld, Illinois J. Math. 1962)."""
    return int(1.25506 * limit / log(limit)) + 1 if limit > 1 else 0


def primes_up_to(limit: int) -> array:
    """The primes q <= limit, increasing, as one 32-bit array.

    A sieve of Eratosthenes over the odd numbers, one byte each: flags[i]
    stands for 2i + 1, except flags[0], which stands for 2, the one even
    prime, in place of 1.  Each odd prime r <= sqrt(limit), increasing,
    zeroes the flags of its odd multiples from r^2 on by one slice write,
    and ``compress`` reads the numbers left set.  The slice written for
    r = 3 is a temporary of at most limit // 6 bytes.  The output holds
    pi(limit) <= ``prime_count_bound(limit)`` entries, plus its growth slack
    (``grown``).  The flags, that temporary and that output are charged
    together, as ``prime_sieve_bytes``.
    """
    if limit < 2:
        return array("I")
    check_32_bit(limit)
    size = (limit + 1) // 2
    charge_budget(prime_sieve_bytes(limit), "prime sieve")
    flags = bytearray(b"\x01") * size
    for r in range(3, isqrt(limit) + 1, 2):
        if flags[r // 2]:
            flags[r * r // 2 :: r] = bytes(len(range(r * r // 2, size, r)))
    primes = array("I", compress(range(1, limit + 1, 2), flags))
    primes[0] = 2
    return primes


def chain_sieve(limit: int, least_cofactor: Callable[[int], int]) -> bytearray:
    """ok[n] for every n <= limit: whether the prime chain of n holds, with
    the primes of n taken in increasing order and q allowed after a
    cofactor m when m >= least_cofactor(q).

    The chain of n = q_1^e_1 ... q_r^e_r, q_1 < ... < q_r, holds when
    M_j >= c(q_{j+1}) for every j, M_j being the product of the first j
    prime powers.  ``count_z_dense`` uses it with c(q) = ceil(q * den / num)
    for Z = num/den.

    For each prime q, increasing, and each q^e <= limit, e ascending, the
    sieve sets ok[q^e * m] = ok[m] for every m >= c(q) by one slice copy,
    and zeroes the entries with m < c(q) by another.  Proof sketch: the
    last write to an n > 1 is made by its largest prime q, at the exponent
    e with q^e exactly dividing n (larger e never reach n, smaller e came
    before), so ok[n] = ok[m] and m >= c(q) with n = q^e * m.  Every prime
    of m is smaller, so ok[m] is already final when it is copied, and by
    induction it is the chain of m, which is the chain of n without its
    last link.  ok[0] is 0 and ok[1] is 1.

    It holds the table, a slice temporary of at most limit // 2 bytes, the
    primes from ``primes_up_to`` (whose flags are freed first) with their
    growth slack, and 1 KiB of headers; that is charged once, before the
    primes are listed, with pi(limit) bounded by ``prime_count_bound``.
    """
    check_32_bit(limit)
    most = grown(prime_count_bound(limit))
    charge_budget(limit + 1 + limit // 2 + 4 * most + 1024, "chain sieve")
    primes = primes_up_to(limit)
    ok = bytearray(b"\x01") * (limit + 1)
    ok[0] = 0
    for q in primes:
        c = max(least_cofactor(q), 1)
        qe = q
        while qe <= limit:
            top = limit // qe
            low = min(c, top + 1)
            ok[qe : qe * low : qe] = bytes(low - 1)
            ok[qe * low :: qe] = ok[low : top + 1]
            qe *= q
    return ok


# Trial division runs through d <= TRIAL_DIVISION_LIMIT; a cofactor it leaves
# unsettled is split by Pollard-Brent rho and certified by ``is_prime``.
TRIAL_DIVISION_LIMIT = 10**6
_TRIAL_DIVISION_SQUARE = TRIAL_DIVISION_LIMIT**2
# psi_12: the least strong pseudoprime to every prime base 2..37, so
# ``is_prime`` is proven exactly below it.
MILLER_RABIN_PROVEN_BELOW = 318665857834031151167461


def factorize_trial(n: int) -> Factorization:
    """Factor n without a sieve table: trial division by d <= 10^6, then
    Miller-Rabin and Pollard-Brent rho on a cofactor still unsettled.

    Below 10^12 the trial division alone settles n.  A cofactor left over
    has only primes above 10^6; it is split by rho down to pieces that
    ``is_prime`` certifies, which it does exactly below psi_12.  A cofactor
    at or above psi_12 cannot be certified and raises CapacityError.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    m = n
    out = []
    d = 2
    # The loop runs while d * d <= m, as plain trial division does, but
    # stops past d = 10^6.
    bound = m if m < _TRIAL_DIVISION_SQUARE else _TRIAL_DIVISION_SQUARE
    while d * d <= bound:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
            if m < bound:
                bound = m
        d += 1 if d == 2 else 2
    if m > 1:
        if d * d <= m:
            # No prime <= 10^6 divides m, and m > 10^12 may be composite.
            return Factorization(n, tuple(out + _factor_rough(m, n)))
        out.append((m, 1))
    return Factorization(n, tuple(out))


def _factor_rough(m: int, n: int) -> list[tuple[int, int]]:
    # m is the cofactor of n with no prime factor up to 10^6.
    if m >= MILLER_RABIN_PROVEN_BELOW:
        raise CapacityError(
            f"cofactor {m} of {n} has no prime factor up to {TRIAL_DIVISION_LIMIT} "
            f"and is too large to certify (at least {MILLER_RABIN_PROVEN_BELOW})"
        )
    primes = Counter()
    stack = [m]
    while stack:
        m = stack.pop()
        if is_prime(m):
            primes[m] += 1
        else:
            f = _pollard_brent(m)
            stack += (f, m // f)
    return sorted(primes.items())


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of an odd composite n (Brent's variant of rho,
    with batched gcds); deterministic, retrying with the next constant c
    when a cycle closes without a split."""
    for c in count(1):
        y = 2
        r = q = g = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def is_prime(n: int) -> bool:
    """Miller-Rabin with the prime bases 2..37.

    Exact for n < psi_12 = 318665857834031151167461, the least strong
    pseudoprime to all twelve bases; above that a True is only a strong
    probable prime.
    """
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


DEFAULT_DIVISOR_CAP = 1 << 20


def tau(f: Factorization) -> int:
    """Number of divisors."""
    t = 1
    for _, e in f.factors:
        t *= e + 1
    return t


def divisor_phi_pairs(f: Factorization) -> list[tuple[int, int]]:
    """(d, phi(d)) for every divisor d; generation order, not sorted."""
    count = tau(f)
    if count > DEFAULT_DIVISOR_CAP:
        raise CapacityError(f"{f.value} has {count} divisors, cap is {DEFAULT_DIVISOR_CAP}")
    pairs = [(1, 1)]
    for q, e in f.factors:
        width = len(pairs)
        qq = q
        ph = q - 1
        for _ in range(e):
            pairs.extend((pairs[i][0] * qq, pairs[i][1] * ph) for i in range(width))
            qq *= q
            ph *= q
    return pairs


def lambda_prime_power(q: int, e: int) -> int:
    """lambda(q^e) for a prime q."""
    if q == 2:
        if e == 1:
            return 1
        if e == 2:
            return 2
        return 1 << (e - 2)
    return q ** (e - 1) * (q - 1)


def carmichael_lambda(f: Factorization) -> int:
    """Exponent of the multiplicative group mod f.value; lambda(1) = 1."""
    lam = 1
    for q, e in f.factors:
        lam = lcm(lam, lambda_prime_power(q, e))
    return lam
