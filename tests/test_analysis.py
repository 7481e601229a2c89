import collections
import functools
import math
import operator
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclopract import (
    CapacityError,
    a_q_primes,
    carmichael_lambda,
    coprime_part,
    count_z_dense,
    factorize_trial,
    is_prime,
    lambda_order_ratio_stats,
    lambda_star_table,
    mult_order,
    mult_order_star,
    omega_phi_distribution,
    omega_phi_excess,
    omega_phi_threshold,
    resolve_thresholds,
    sieve_order_star,
    small_order_count,
    smooth_lambda_part_count,
    tau,
    tau_threshold_count,
)
from cyclopract import analysis, arith
from cyclopract.arith import MEM_BUDGET_ENV, chain_sieve, prime_power_sieve, prime_powers
from oracles import big_omega, euler_phi, is_z_dense


def z_dense_chain(n, spf, num, den):
    """Per-n reference for Tenenbaum's criterion with Z = num/den: primes
    increasing, reject when q_{j+1} * den > num * M_j."""
    m = 1
    for q, e in prime_powers(n, spf):
        if q * den > num * m:
            return False
        m *= q**e
    return True


def smooth_part(m, bound):
    """Largest divisor of m whose prime factors are all <= bound, by trial division."""
    part = 1
    for q, e in factorize_trial(m).factors:
        if q <= bound:
            part *= q**e
    return part


def test_smooth_part_examples():
    assert smooth_part(12, 3) == 12
    assert smooth_part(12, 2) == 4
    assert smooth_part(1, 2) == 1


def test_smooth_part_complement():
    for m in range(1, 3000):
        for bound in (2, 3, 10):
            u = smooth_part(m, bound)
            rough = m // u
            assert u * rough == m
            assert all(q > bound for q, _ in factorize_trial(rough).factors)


def brute_force_z_dense(n, z):
    """Divisor-ratio scan with divisors found by direct divisibility."""
    divs = []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            divs.append(d)
            if d != n // d:
                divs.append(n // d)
    divs.sort()
    zq = Fraction(z)
    return all(Fraction(b, a) <= zq for a, b in zip(divs, divs[1:]))


def test_is_z_dense_examples():
    assert is_z_dense(6, 2)
    assert not is_z_dense(10, 2)
    assert is_z_dense(1, 2)
    assert is_z_dense(2, 2)


def test_is_z_dense_exact_boundary():
    # ratio exactly Z must pass: divisors of 4 are 1,2,4 with ratios 2,2
    assert is_z_dense(4, 2)
    assert is_z_dense(4, Fraction(2, 1))
    # the worst ratio of 10 is exactly 5/2; just below it must fail
    assert is_z_dense(10, Fraction(5, 2))
    assert not is_z_dense(10, Fraction(49, 20))
    with pytest.raises(ValueError):
        is_z_dense(4, Fraction(3999, 2000))


def test_z_dense_brute_force_equivalence():
    for n in range(1, 10**4 + 1):
        assert is_z_dense(n, 2) == brute_force_z_dense(n, 2), n
    for n in range(1, 2001):
        assert is_z_dense(n, 2.5) == brute_force_z_dense(n, 2.5), n


def test_count_z_dense_first_decade():
    assert count_z_dense(10, 2) == 5  # {1, 2, 4, 6, 8}


def test_count_z_dense_matches_brute_force_at_1e5():
    expected = sum(1 for n in range(1, 10**5 + 1) if brute_force_z_dense(n, 2))
    assert count_z_dense(10**5, 2) == expected


@pytest.mark.parametrize("z", [2, Fraction(5, 2), 3, 10])
def test_z_dense_chain_matches_divisor_scan(spf100k, z):
    # The chain sieve that count_z_dense runs, the per-n chain and the
    # divisor scan agree on every n <= 10^5.
    num, den = z.as_integer_ratio()
    ok = chain_sieve(10**5, lambda q: -(-q * den // num))
    assert ok[0] == 0
    for n in range(1, 10**5 + 1):
        dense = is_z_dense(n, z)
        assert z_dense_chain(n, spf100k, num, den) == dense, n
        assert bool(ok[n]) == dense, n
    assert count_z_dense(10**5, z) == ok.count(1)


def test_count_z_dense_monotone():
    assert count_z_dense(500, 2) <= count_z_dense(500, 3)
    assert count_z_dense(500, 2) <= count_z_dense(1000, 2)


def test_a_q_examples():
    primes = [p for p, _ in a_q_primes(2, 3, 40)]
    assert 31 in primes
    assert not {7, 13, 19, 37} & set(primes)


def test_a_q_brute_force():
    def brute(a, q, bound):
        out = []
        for p in range(2, bound + 1):
            if is_prime(p) and p % q == 1 and pow(a, (p - 1) // q, p) == 1:
                out.append(p)
        return out

    assert [p for p, _ in a_q_primes(2, 5, 100)] == brute(2, 5, 100)
    assert [p for p, _ in a_q_primes(2, 3, 10**4)] == brute(2, 3, 10**4)
    assert [p for p, _ in a_q_primes(3, 7, 5000)] == brute(3, 7, 5000)


def test_a_q_membership_means_small_order():
    for p, _ in a_q_primes(2, 3, 10**4):
        assert (p - 1) % 3 == 0
        assert ((p - 1) // 3) % mult_order(2, p) == 0


@pytest.mark.parametrize("a, q", [(2, 3), (3, 7), (10, 5)])
def test_a_q_order_column_is_the_order(a, q):
    for p, order in a_q_primes(a, q, 2 * 10**4):
        assert order == mult_order(a, p)


def test_a_q_validates_arguments():
    with pytest.raises(ValueError):
        a_q_primes(2, 2, 100)  # q must be odd
    with pytest.raises(ValueError):
        a_q_primes(2, 9, 100)  # q must be prime
    with pytest.raises(ValueError):
        a_q_primes(2, 5, 3)  # bound below q


def test_a_q_checks_its_spf_table_before_listing_primes(monkeypatch):
    # An SPF table over the budget fails before the prime sieve runs.
    def unlisted(limit):
        raise AssertionError("primes listed before the budget check")

    monkeypatch.setattr(analysis, "primes_up_to", unlisted)
    monkeypatch.setenv(MEM_BUDGET_ENV, str(6 * (10**5 + 1) - 1))
    with pytest.raises(CapacityError):
        a_q_primes(2, 3, 10**5)


def a_q_charge(q, bound):
    """The A_q scan's whole charge: the SPF table with an array's growth
    slack and its build temporary, the prime sieve's flags and temporary,
    the primes with their slack, at most min(pi(bound), (bound - 1) // 2q)
    rows of 128 bytes with a list's slack, and 1 KiB for object headers."""
    grown = lambda n: n + n // 16 + 7
    most = int(1.25506 * bound / math.log(bound)) + 1
    table = 4 * grown(bound + 1) + 2 * (bound + 1)
    sieve = (bound + 1) // 2 + bound // 6 + 4 * grown(most)
    return table + sieve + 128 * grown(min(most, (bound - 1) // (2 * q))) + 1024


def test_a_q_charges_its_whole_peak_before_listing_primes(monkeypatch):
    # One byte below the whole charge fails before the SPF table is built
    # or the primes are listed; at the charge the scan goes on to list them.
    # At 10^5 tracemalloc's peak stays within the charge, also for a = 8,
    # a cube, where every p = 1 (mod 3) is a row.
    def unmade(limit):
        raise AssertionError("made before the budget check")

    bound = 10**5
    charge = a_q_charge(3, bound)
    with monkeypatch.context() as patched:
        patched.setattr(analysis, "primes_up_to", unmade)
        patched.setattr(analysis, "build_spf_table", unmade)
        patched.setenv(MEM_BUDGET_ENV, str(charge - 1))
        with pytest.raises(CapacityError, match=f"A_q scan needs {charge} bytes"):
            a_q_primes(2, 3, bound)
    with monkeypatch.context() as patched:
        patched.setattr(analysis, "primes_up_to", unmade)
        patched.setenv(MEM_BUDGET_ENV, str(charge))
        with pytest.raises(AssertionError, match="made before"):
            a_q_primes(2, 3, bound)
    monkeypatch.setenv(MEM_BUDGET_ENV, str(charge))
    for a, rows in ((2, 1559), (8, 4784)):
        a_q_primes(a, 3, 100)  # warm the call path before tracing
        tracemalloc.start()
        try:
            pairs = a_q_primes(a, 3, bound)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pairs) == rows
        assert 4 * (bound + 1) + 100 * rows <= peak <= charge, (a, peak)


def test_z_dense_checks_its_chain_sieve_before_listing_primes(monkeypatch):
    # A budget one byte below the chain sieve's whole charge (its table, its
    # temporary, the primes with an array's growth slack, pi(x) < 1.25506 x
    # / log x, and 1 KiB) fails before the prime sieve runs.
    def unlisted(limit):
        raise AssertionError("primes listed before the budget check")

    monkeypatch.setattr(arith, "primes_up_to", unlisted)
    limit = 10**5
    most = int(1.25506 * limit / math.log(limit)) + 1
    charge = limit + 1 + limit // 2 + 4 * (most + most // 16 + 7) + 1024
    monkeypatch.setenv(MEM_BUDGET_ENV, str(charge - 1))
    with pytest.raises(CapacityError):
        count_z_dense(limit, 2)


def test_ratio_stats_small(order_tables):
    stats = lambda_order_ratio_stats(2, order_tables(2, 100))
    # n = 7: lambda = 6, order of 2 is 3, quotient 2, largest prime 2
    lam = lambda_star_table(100, skip_base=2)
    assert lam[7] // order_tables(2, 100)[7] == 2
    assert sum(stats.counts.values()) == 100
    assert stats.exceed_psi is None
    # primes where 2 is a primitive root land in bucket 1
    assert stats.counts[1] >= 1


def test_ratio_stats_psi_threshold(order_tables):
    stats = lambda_order_ratio_stats(2, order_tables(2, 1000), psi=3.0)
    manual = sum(c for prime, c in stats.counts.items() if prime >= 3.0)
    assert stats.exceed_psi == manual


def test_ratio_is_always_integral(order_tables):
    values = order_tables(2, 10**4)
    lam = lambda_star_table(10**4, skip_base=2)
    for n in range(1, 10**4 + 1):
        assert lam[n] % values[n] == 0


def test_small_order_count_examples(order_tables):
    table10 = order_tables(2, 10)
    assert small_order_count(table10, 10) == 10  # bound >= N
    assert small_order_count(table10, 1) == 4  # {1, 2, 4, 8}


def test_small_order_count_exhaustive(order_tables):
    table = order_tables(2, 10**5)
    expected = sum(1 for n in range(1, 10**5 + 1) if table[n] <= 100)
    assert small_order_count(table, 100) == expected
    assert small_order_count(table, 99.5) == sum(1 for n in range(1, 10**5 + 1) if table[n] <= 99)


def test_omega_phi_threshold_and_excess():
    assert omega_phi_excess(omega_phi_distribution(10**4), 10**4) == 0
    # The cutoff at X = 10^4 lies between 542 and 543.
    assert omega_phi_excess({0: 5, 542: 2, 543: 3, 700: 1}, 10**4) == 4
    assert omega_phi_threshold(10**4) > 500


def test_omega_phi_distribution_brute_force():
    dist = omega_phi_distribution(10**5)
    brute = {}
    for n in range(1, 10**5 + 1):
        om = big_omega(factorize_trial(euler_phi(factorize_trial(n))))
        brute[om] = brute.get(om, 0) + 1
    assert dist == brute
    assert dist[0] == 2  # n = 1 and n = 2 both have phi = 1


def test_tau_threshold_examples():
    assert tau_threshold_count(10, 4) == 3  # {6, 8, 10}
    assert tau_threshold_count(10, 1) == 10
    assert tau_threshold_count(1, 1) == 1


def test_tau_threshold_exhaustive():
    expected = sum(1 for n in range(1, 10**5 + 1) if tau(factorize_trial(n)) >= 32)
    assert tau_threshold_count(10**5, 32) == expected


def test_smooth_lambda_count():
    assert smooth_lambda_part_count(100, 2, 100) == 0  # threshold >= N
    expected = sum(
        1
        for n in range(1, 501)
        if smooth_part(carmichael_lambda(factorize_trial(n)), 2) > 4
    )
    assert smooth_lambda_part_count(500, 2, 4) == expected
    low = smooth_lambda_part_count(500, 3, 8)
    high = smooth_lambda_part_count(500, 3, 2)
    assert low <= high


def test_ratio_bucket_one_for_primitive_roots(order_tables):
    # 2 is a primitive root mod 11: lambda = order = 10, quotient 1
    lam = lambda_star_table(11, skip_base=2)
    assert lam[11] == order_tables(2, 11)[11] == 10


def test_counters_monotone_in_limit(order_tables):
    table = order_tables(2, 2000)
    for small, large in ((500, 1000), (1000, 2000)):
        assert count_z_dense(small, 2) <= count_z_dense(large, 2)
        assert tau_threshold_count(small, 6) <= tau_threshold_count(large, 6)
        assert smooth_lambda_part_count(small, 3, 4) <= smooth_lambda_part_count(large, 3, 4)
        assert small_order_count(table[: small + 1], 8) <= small_order_count(table[: large + 1], 8)
        excess = [omega_phi_excess(omega_phi_distribution(x), x) for x in (small, large)]
        assert excess[0] <= excess[1]


def test_analysis_config_derivation():
    cfg = resolve_thresholds(100, 0.1)
    lx = math.log(100)
    assert cfg["B"] == math.exp(lx**0.1)
    assert cfg["Y"] == pytest.approx(math.exp(110 * lx**0.1 * math.log(lx) ** 2), rel=1e-12)
    assert cfg["Z"] == cfg["Y"] * cfg["Y"]
    assert cfg["psi"] == cfg["Y"] * cfg["B"]
    assert cfg["bound"] == 100 / (cfg["Y"] * cfg["B"])
    # recomputation is bit-identical
    assert resolve_thresholds(100, 0.1) == cfg


def test_resolve_thresholds_feeds_a_given_y_to_z_psi_and_bound():
    cfg = resolve_thresholds(100, 0.1, Y=2)
    assert cfg["Y"] == 2
    assert cfg["B"] == math.exp(math.log(100) ** 0.1)
    assert cfg["Z"] == 4
    assert cfg["psi"] == 2 * cfg["B"]
    assert cfg["bound"] == 100 / (2 * cfg["B"])
    # Without theta nothing is derived or checked.
    assert resolve_thresholds(100, None, Z=1.5) == {
        "Y": None, "B": None, "Z": 1.5, "psi": None, "bound": None
    }


def test_resolve_thresholds_refuses_an_overflowing_y_times_b():
    # At X = 15391 and theta = 0.1, Y and B are finite doubles but Y * B is
    # not, and X / (Y * B) would be a bound of 0.0.  A given bound is used.
    cfg = dict(Z=3, psi=100)
    with pytest.raises(ValueError, match="Y \\* B overflows a double"):
        resolve_thresholds(15391, 0.1, **cfg)
    assert resolve_thresholds(15391, 0.1, **cfg, bound=5)["bound"] == 5


def test_analysis_config_validation():
    with pytest.raises(ValueError):
        resolve_thresholds(100, 0.05)
    with pytest.raises(ValueError):
        resolve_thresholds(100, 0.95)
    with pytest.raises(ValueError):
        resolve_thresholds(10**6, 0.5)  # Y overflows doubles
    with pytest.raises(ValueError):
        resolve_thresholds(100, 0.1, Z=1.5)
    with pytest.raises(ValueError):
        resolve_thresholds(100, 0.1, psi=0.1)  # below log log X


# Property tests: every prime_power_sieve table against a per-n reference
# built by trial division, for limits up to SIEVE_PROPERTY_LIMIT.
SIEVE_PROPERTY_LIMIT = 3000
limits = st.integers(1, SIEVE_PROPERTY_LIMIT)


@functools.lru_cache(maxsize=None)
def reference_row(n):
    """(tau(n), Omega(phi(n)), lambda(n)) by trial division."""
    f = factorize_trial(n)
    return tau(f), big_omega(factorize_trial(euler_phi(f))), carmichael_lambda(f)


@settings(max_examples=20, deadline=None)
@given(limits, st.integers(2, 10))
def test_order_sieve_property(limit, base):
    values = sieve_order_star(base, limit)
    assert list(values[1:]) == [mult_order_star(base, n) for n in range(1, limit + 1)]


@settings(max_examples=20, deadline=None)
@given(limits, st.integers(2, 10))
def test_lambda_star_sieve_property(limit, skip_base):
    values = lambda_star_table(limit, skip_base=skip_base)
    expected = [
        carmichael_lambda(factorize_trial(coprime_part(n, skip_base))) for n in range(1, limit + 1)
    ]
    assert list(values[1:]) == expected


@settings(max_examples=20, deadline=None)
@given(limits, st.floats(1, 40))
def test_tau_sieve_property(limit, kappa):
    expected = sum(1 for n in range(1, limit + 1) if reference_row(n)[0] >= kappa)
    assert tau_threshold_count(limit, kappa) == expected


@settings(max_examples=20, deadline=None)
@given(limits)
def test_omega_phi_sieve_property(limit):
    expected = collections.Counter(reference_row(n)[1] for n in range(1, limit + 1))
    assert omega_phi_distribution(limit) == expected


# Limits at the edges of the prime-power sieve's head, which writes the
# 31-smooth n, and its slices, which start at 37: 31^2, 2^10, 37^2 and 2^11.
HEAD_EDGE_LIMITS = (1, 2, 30, 31, 32, 36, 37, 38, 961, 1024, 1369, 2048)


@pytest.mark.parametrize("limit", HEAD_EDGE_LIMITS)
def test_sieves_at_the_head_edges(limit):
    for base in (2, 3, 6, 10):
        values = sieve_order_star(base, limit)
        assert list(values[1:]) == [mult_order_star(base, n) for n in range(1, limit + 1)], base
    for skip_base in (2, 3):
        values = lambda_star_table(limit, skip_base=skip_base)
        expected = [
            carmichael_lambda(factorize_trial(coprime_part(n, skip_base)))
            for n in range(1, limit + 1)
        ]
        assert list(values[1:]) == expected, skip_base
    rows = [reference_row(n) for n in range(1, limit + 1)]
    taus = prime_power_sieve(limit, lambda q, e, _: e + 1, operator.mul)
    assert list(taus[1:]) == [row[0] for row in rows]
    omega_q_minus_1 = lambda q, _: big_omega(factorize_trial(q - 1))
    omegas = prime_power_sieve(limit, lambda q, e, w: e - 1 + w, operator.add, 0, omega_q_minus_1)
    assert list(omegas[1:]) == [row[1] for row in rows]
    assert omega_phi_distribution(limit) == collections.Counter(row[1] for row in rows)


@settings(max_examples=20, deadline=None)
@given(limits, st.integers(2, 50), st.floats(0, 3000))
def test_smooth_lambda_sieve_property(limit, bound, threshold):
    expected = sum(
        1 for n in range(1, limit + 1) if smooth_part(reference_row(n)[2], bound) > threshold
    )
    assert smooth_lambda_part_count(limit, bound, threshold) == expected

