"""Reference implementations the tests compare the package against.

None of these runs in the program.  Each checks a fast path by a route
that shares no code with it:

- ``poly_factor_degrees_oracle`` factors x^n - 1 over F_p directly, by
  distinct-degree factorization with dense polynomial arithmetic, which is
  the paper's definition of the degree multiset;
- ``coverage_check`` runs the sorted-degree greedy over one degree per
  divisor of n (``degree_multiset``, ``phi_degree_multiset``), where the
  program merges the degrees of the prime powers of n;
- ``is_z_dense`` scans the sorted divisors of n, the definition that
  ``count_z_dense``'s chain sieve is checked against;
- ``euler_phi``, ``big_omega`` and ``divisors_sorted`` are the textbook
  functions of a factorization.

Polynomials are lists of coefficients in ascending powers, trimmed so the
last entry is nonzero (the zero polynomial is ``[0]``).  The polynomial
arithmetic is deliberately quadratic schoolbook arithmetic: the oracle only
runs at small degrees and simplicity is what makes it trustworthy.
"""
from __future__ import annotations

from functools import lru_cache

from cyclopract import CapacityError, Factorization, factorize_trial, is_prime
from cyclopract.analysis import _ratio_parts
from cyclopract.arith import divisor_phi_pairs
from cyclopract.practicality import DegreeMultiset, PracticalVerdict


def trim(f: list[int]) -> list[int]:
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    return f


def is_zero(f: list[int]) -> bool:
    return len(f) == 1 and f[0] == 0


def degree(f: list[int]) -> int:
    return len(f) - 1


def poly_mul(f: list[int], g: list[int], p: int) -> list[int]:
    if is_zero(f) or is_zero(g):
        return [0]
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                out[i + j] += fi * gj
    return trim([c % p for c in out])


def poly_sub(f: list[int], g: list[int], p: int) -> list[int]:
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % p
    return trim(out)


def poly_divmod(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    if is_zero(g):
        raise ZeroDivisionError("polynomial division by zero")
    rem = [c % p for c in f]
    dg = degree(g)
    if degree(trim(rem[:])) < dg:
        return [0], trim(rem)
    inv_lead = pow(g[-1], p - 2, p)
    quot = [0] * (len(rem) - dg)
    for i in range(len(rem) - 1, dg - 1, -1):
        c = rem[i] % p
        if c:
            q = c * inv_lead % p
            quot[i - dg] = q
            for j in range(dg + 1):
                rem[i - dg + j] = (rem[i - dg + j] - q * g[j]) % p
    return trim(quot), trim(rem)


def poly_mod(f: list[int], g: list[int], p: int) -> list[int]:
    return poly_divmod(f, g, p)[1]


def poly_gcd(f: list[int], g: list[int], p: int) -> list[int]:
    """Monic gcd over F_p."""
    a = trim([c % p for c in f])
    b = trim([c % p for c in g])
    while not is_zero(b):
        a, b = b, poly_mod(a, b, p)
    if is_zero(a):
        return a
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def poly_pow_mod(f: list[int], e: int, modulus: list[int], p: int) -> list[int]:
    """f^e mod modulus over F_p by square-and-multiply."""
    result = [1]
    base = poly_mod(f, modulus, p)
    while e:
        if e & 1:
            result = poly_mod(poly_mul(result, base, p), modulus, p)
        e >>= 1
        if e:
            base = poly_mod(poly_mul(base, base, p), modulus, p)
    return result


def distinct_degree_counts(f: list[int], p: int) -> dict[int, int]:
    """degree -> number of irreducible factors, for squarefree monic f.

    Classic distinct-degree factorization: advance h = x^(p^d) mod f one
    Frobenius power at a time; gcd(f, h - x) collects the product of all
    factors of degree d.  Once deg f < 2(d+1) the remainder is irreducible.
    """
    f = trim([c % p for c in f])
    counts: dict[int, int] = {}
    x = [0, 1]
    h = poly_mod(x, f, p)
    d = 0
    while degree(f) >= 2 * (d + 1):
        d += 1
        h = poly_pow_mod(h, p, f, p)
        g = poly_gcd(f, poly_sub(h, x, p), p)
        if degree(g) > 0:
            counts[d] = counts.get(d, 0) + degree(g) // d
            f = poly_divmod(f, g, p)[0]
            h = poly_mod(h, f, p)
    if degree(f) > 0:
        counts[degree(f)] = counts.get(degree(f), 0) + 1
    return counts


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


def divisors_sorted(f: Factorization) -> list[int]:
    """All divisors of f.value in increasing order."""
    return sorted(d for d, _ in divisor_phi_pairs(f))


def euler_phi(f: Factorization) -> int:
    """Euler totient from the factorization; phi(1) = 1."""
    phi = 1
    for q, e in f.factors:
        phi *= q ** (e - 1) * (q - 1)
    return phi


def big_omega(f: Factorization) -> int:
    """Prime factors counted with multiplicity; Omega(1) = 0."""
    return sum(e for _, e in f.factors)


def is_z_dense(n: int, z) -> bool:
    """True when every consecutive divisor ratio d_{i+1}/d_i is <= Z.

    The comparison is exact: with Z = num/den it checks
    d_{i+1} * den <= num * d_i in integers.  n = 1 is Z-dense (no ratios).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    num, den = _ratio_parts(z)
    if num < 2 * den:
        raise ValueError(f"Z must be >= 2, got {z}")
    if n == 1:
        return True
    divs = divisors_sorted(factorize_trial(n))
    for prev, cur in zip(divs, divs[1:]):
        if cur * den > num * prev:
            return False
    return True
