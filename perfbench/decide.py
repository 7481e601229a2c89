"""Seeded single-n decisions, timed one at a time, each checked by an untimed certificate.

Half the n are log-uniform in [2, 10^11], where trial factorization dominates;
half are products of primes <= 47 with many divisors, where order computation
and the greedy dominate.  The kind is p in {2, 3, 5, 7} or phi.  Cases come in
shuffled blocks that hold, for every kind, one n of each family in each of 32
log-size strata, so every whole block has the same mix of kinds and sizes.
"""
from __future__ import annotations

import random
import sys
import time
from math import exp, lcm, log

from cyclopract import DegreeMultiset, dp_coverage_oracle, factorize_trial, practicality

N_MAX = 10**11
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
KINDS = (2, 3, 5, 7, None)  # None is phi
STRATA = 32
# Failed verdicts up to this n re-verify their witness with the DP, as `test --witness` does.
WITNESS_MAX_N = 10**5


def _smooth(rng: random.Random, bound: float) -> int:
    n = 1
    while True:
        q = rng.choice(SMALL_PRIMES)
        if n * q > bound:
            return n
        n *= q


def cases(seed: int, blocks: int) -> list[tuple[int, int | None]]:
    """`blocks` whole blocks of (n, p) cases, p None for phi; the same seed gives the same list."""
    rng = random.Random(seed)
    span = log(N_MAX / 2)
    out = []
    for _ in range(blocks):
        block = []
        for p in KINDS:
            for i in range(STRATA):
                block.append((int(2 * exp((i + rng.random()) / STRATA * span)), p))
                block.append((_smooth(rng, 2 * exp((i + rng.random()) / STRATA * span)), p))
        rng.shuffle(block)
        out.extend(block)
    return out


def decide(n: int, p: int | None):
    """One decision as `cyclopract test` makes it; returns (verdict, witness_ok or None)."""
    if p is None:
        verdict = practicality.is_phi_practical(n)
    else:
        verdict = practicality.is_p_practical(n, p)
    witness_ok = None
    if not verdict.practical and n <= WITNESS_MAX_N:
        if p is None:
            ms = practicality.phi_degree_multiset(n)
        else:
            ms = practicality.degree_multiset(n, p)
        mask = practicality.dp_reachable_mask(ms)
        gap = verdict.witness_gap
        witness_ok = bool(not (mask >> gap) & 1 and (mask >> (gap - 1)) & 1)
    return verdict, witness_ok


def timed_decision(n: int, p: int | None):
    """decide(n, p) timed; returns (verdict, witness_ok, seconds), verdict None if it raised."""
    t0 = time.perf_counter()
    try:
        verdict, witness_ok = decide(n, p)
    except Exception as exc:  # a crash is a failed decision, not the end of the run
        print(f"decide({n}, {p}) raised {exc!r}", file=sys.stderr)
        verdict, witness_ok = None, None
    return verdict, witness_ok, time.perf_counter() - t0


def cli_args(n: int, p: int | None, verdict) -> list[str]:
    args = ["test", str(n)] + (["--phi"] if p is None else ["--prime", str(p)])
    if not verdict.practical and n <= WITNESS_MAX_N:
        args.append("--witness")
    return args


def cli_line(n: int, p: int | None, verdict) -> bytes:
    """The line `cyclopract test` must print for this in-process verdict."""
    head = f"n={n} kind=phi" if p is None else f"n={n} kind=p base={p}"
    line = f"{head} practical={'yes' if verdict.practical else 'no'}"
    if not verdict.practical:
        line += f" witness_gap={verdict.witness_gap}"
        if n <= WITNESS_MAX_N:
            line += " witness_verified=yes"
    return (line + "\n").encode()


def _probable_prime(n: int) -> bool:
    # Deterministic Miller-Rabin for n < 3.3e24, independent of the library's.
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Certifier:
    """Checks a verdict from scratch except for factorizations, which it verifies.

    For p-kinds every degree is rebuilt as an lcm of prime-power orders and
    certified (p^t = 1 and p^(t/r) != 1 mod the coprime part, for each prime
    r | t); the entries must sum to n, the certifier's own greedy must agree
    with the verdict, and for n <= 10^5 so must the DP oracle.
    """

    def __init__(self) -> None:
        self._factors: dict[int, tuple[tuple[int, int], ...] | None] = {}

    def factors(self, n: int):
        """Library trial factorization of n, or None if it does not verify."""
        if n not in self._factors:
            f = factorize_trial(n).factors
            product, prev = 1, 1
            for q, e in f:
                if q <= prev or e < 1 or not _probable_prime(q):
                    self._factors[n] = None
                    break
                product *= q**e
                prev = q
            else:
                self._factors[n] = f if product == n else None
        return self._factors[n]

    def _prime_order(self, p: int, q: int):
        f = self.factors(q - 1)
        if f is None:
            return None, ()
        t = q - 1
        for r, _ in f:
            while t % r == 0 and pow(p, t // r, q) == 1:
                t //= r
        return t, tuple(r for r, _ in f)

    def entries(self, n: int, p: int | None):
        """(degree, count) per divisor of n, or None when a certificate fails."""
        f = self.factors(n)
        if f is None:
            return None
        divs = [(1, 1, 1)]  # (phi(d), degree, coprime part of d) per divisor d
        primes = set()
        for q, e in f:
            coprime = p is not None and q != p
            orders = [1] * (e + 1)
            if coprime:
                t, rs = self._prime_order(p, q)
                if t is None:
                    return None
                primes.update(rs)
                primes.add(q)
                orders[1] = t
                for k in range(2, e + 1):
                    orders[k] = orders[k - 1] * (q if pow(p, orders[k - 1], q**k) != 1 else 1)
            width = len(divs)
            for k in range(1, e + 1):
                qk, phik = q**k, q ** (k - 1) * (q - 1)
                for ph, t, m in divs[:width]:
                    divs.append((ph * phik, lcm(t, orders[k]), m * qk if coprime else m))
        if sum(ph for ph, _, _ in divs) != n:
            return None
        if p is None:
            return [(ph, 1) for ph, _, _ in divs]
        out = []
        for ph, t, m in divs:
            if ph % t or pow(p, t, m) != 1 % m:
                return None
            rest = t
            for r in primes:
                if rest % r == 0:
                    if pow(p, t // r, m) == 1:
                        return None
                    while rest % r == 0:
                        rest //= r
            if rest != 1:
                return None
            out.append((t, ph // t))
        return out

    def check(self, n: int, p: int | None, verdict, witness_ok) -> bool:
        if verdict is None or witness_ok is False:
            return False
        entries = self.entries(n, p)
        if entries is None:
            return False
        agg: dict[int, int] = {}
        for t, c in entries:
            agg[t] = agg.get(t, 0) + c
        reach, gap = 0, None
        for t in sorted(agg):
            if t > reach + 1:
                gap = reach + 1
                break
            reach += t * agg[t]
        if (gap is None, gap) != (verdict.practical, verdict.witness_gap):
            return False
        if n <= WITNESS_MAX_N:
            oracle = dp_coverage_oracle(DegreeMultiset(n=n, entries=tuple(entries)))
            if oracle != verdict:
                return False
        return True
