import math
import operator
import random
import re
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclopract import (
    CapacityError,
    build_spf_table,
    carmichael_lambda,
    divisor_phi_pairs,
    factorize_trial,
    is_prime,
    sieve_order_star,
    tau,
)
from cyclopract import arith
from cyclopract.arith import (
    MEM_BUDGET_ENV,
    MILLER_RABIN_PROVEN_BELOW,
    TRIAL_DIVISION_LIMIT,
    chain_sieve,
    prime_power_sieve,
    prime_powers,
    primes_up_to,
)
from oracles import big_omega, divisors_sorted, euler_phi


@pytest.fixture(scope="module")
def spf10m():
    return build_spf_table(10**7)


def test_spf_small_tables():
    t = build_spf_table(10)
    assert list(t[2:]) == [2, 3, 2, 5, 2, 7, 2, 3, 2]
    t2 = build_spf_table(2)
    assert list(t2[2:]) == [2]


def test_tables_are_arrays():
    # Entry n of each table is its value at n, with no wrapper around it.
    for table in (build_spf_table(10), sieve_order_star(2, 10)):
        assert type(table) is array and table.typecode == "I" and len(table) == 11


def test_spf_rejects_bad_limits():
    with pytest.raises(ValueError):
        build_spf_table(1)


def test_spf_spot_check_against_trial_division(spf10m):
    rng = random.Random(1234)
    for _ in range(10**4):
        k = rng.randint(2, 10**7)
        p = spf10m[k]
        assert k % p == 0
        assert p == factorize_trial(k).factors[0][0]


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 3000))
def test_spf_table_agrees_with_trial_division(limit):
    spf = build_spf_table(limit)
    assert list(spf[:2]) == [0, 1]
    for k in range(2, limit + 1):
        assert spf[k] == factorize_trial(k).factors[0][0], k


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**4))
def test_sieve_kernels_agree_with_trial_division(spf10k, n):
    f = factorize_trial(n)
    assert tuple(prime_powers(n, spf10k)) == f.factors
    pairs = divisor_phi_pairs(f)
    assert sorted(d for d, _ in pairs) == [d for d in range(1, n + 1) if n % d == 0]
    assert all(ph == euler_phi(factorize_trial(d)) for d, ph in pairs)


def test_factorize_examples(spf10m):
    assert tuple(prime_powers(1, spf10m)) == factorize_trial(1).factors == ()
    assert tuple(prime_powers(12, spf10m)) == factorize_trial(12).factors == ((2, 2), (3, 1))
    assert tuple(prime_powers(9999991, spf10m)) == factorize_trial(9999991).factors


def test_factorize_random_agrees_with_trial_division(spf10m):
    rng = random.Random(99)
    for _ in range(10**4):
        n = rng.randint(1, 10**7)
        assert tuple(prime_powers(n, spf10m)) == factorize_trial(n).factors


def test_factorization_invariants(spf10k):
    for n in range(1, 2001):
        factors = tuple(prime_powers(n, spf10k))
        primes = [q for q, _ in factors]
        assert primes == sorted(set(primes))
        assert math.prod(q**e for q, e in factors) == n
        assert (factors == ()) == (n == 1)


def test_divisors_sorted_examples():
    assert divisors_sorted(factorize_trial(6)) == [1, 2, 3, 6]
    assert divisors_sorted(factorize_trial(1)) == [1]
    divs = divisors_sorted(factorize_trial(720720))
    assert len(divs) == 240
    assert divs == [d for d in range(1, 720721) if 720720 % d == 0]


def test_divisors_pairing_and_order():
    for n in range(1, 500):
        divs = divisors_sorted(factorize_trial(n))
        assert divs == sorted(divs)
        assert len(set(divs)) == len(divs)
        assert divs[0] == 1 and divs[-1] == n
        assert all(n // d in divs for d in divs)


def test_divisor_cap():
    # The product of the first 21 primes has 2^21 divisors, over the cap of
    # 2^20; tau is checked before any list is built.
    f = factorize_trial(math.prod(primes_up_to(73)))
    assert tau(f) == 2**21
    with pytest.raises(CapacityError):
        divisors_sorted(f)
    with pytest.raises(CapacityError):
        divisor_phi_pairs(f)


def test_euler_phi_examples():
    assert euler_phi(factorize_trial(1)) == 1
    assert euler_phi(factorize_trial(12)) == 4


def test_phi_divisor_sum_identity_exhaustive():
    for n in range(1, 10**4 + 1):
        f = factorize_trial(n)
        assert sum(ph for _, ph in divisor_phi_pairs(f)) == n


def test_carmichael_examples():
    assert carmichael_lambda(factorize_trial(1)) == 1
    assert carmichael_lambda(factorize_trial(2)) == 1
    assert carmichael_lambda(factorize_trial(4)) == 2
    assert carmichael_lambda(factorize_trial(8)) == 2
    assert carmichael_lambda(factorize_trial(15)) == 4


def test_lambda_divides_phi_exhaustive():
    for n in range(1, 10**4 + 1):
        f = factorize_trial(n)
        assert euler_phi(f) % carmichael_lambda(f) == 0


def test_lambda_lcm_on_coprime_pairs():
    rng = random.Random(7)
    hits = 0
    while hits < 500:
        a = rng.randint(1, 3000)
        b = rng.randint(1, 3000)
        if math.gcd(a, b) != 1:
            continue
        hits += 1
        lam_ab = carmichael_lambda(factorize_trial(a * b))
        lam_a = carmichael_lambda(factorize_trial(a))
        lam_b = carmichael_lambda(factorize_trial(b))
        assert lam_ab == math.lcm(lam_a, lam_b)


def test_basic_functions_at_one():
    f = factorize_trial(1)
    assert tau(f) == 1
    assert big_omega(f) == 0


def test_basic_functions_examples():
    f12 = factorize_trial(12)
    assert (tau(f12), big_omega(f12)) == (6, 3)
    f1024 = factorize_trial(2**10)
    assert (tau(f1024), big_omega(f1024)) == (11, 10)


def test_carmichael_lambda_past_64_bits():
    # No table reads lambda, so a value past 64 bits is returned as is.
    from cyclopract import Factorization, mult_order

    p1 = (1 << 41) - 31  # prime
    p2 = (1 << 42) - 11  # prime
    assert is_prime(p1) and is_prime(p2)
    f = Factorization(p1 * p2, ((p1, 1), (p2, 1)))
    assert carmichael_lambda(f) == math.lcm(p1 - 1, p2 - 1)
    assert mult_order(2, 5**30) == 4 * 5**29


def test_is_prime_against_trial_division():
    for n in range(2000):
        naive = n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
        assert is_prime(n) == naive


def next_prime(n):
    while not is_prime(n):
        n += 1
    return n


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(10**6, 10**12).map(next_prime), min_size=1, max_size=3))
def test_factorize_trial_splits_products_of_large_primes(primes):
    n = math.prod(primes)
    if n >= MILLER_RABIN_PROVEN_BELOW:
        # Trial division leaves all of n, which is too large to certify.
        with pytest.raises(CapacityError):
            factorize_trial(n)
        return
    f = factorize_trial(n)
    assert [q for q, e in f.factors for _ in range(e)] == sorted(primes)
    assert math.prod(q**e for q, e in f.factors) == n


def test_factorize_trial_beyond_trial_division():
    # A prime near 10^17 and a square of a prime just above the trial limit.
    assert factorize_trial(100000000000000003).factors == ((100000000000000003, 1),)
    q = next_prime(TRIAL_DIVISION_LIMIT)
    assert factorize_trial(12 * q**2).factors == ((2, 2), (3, 1), (q, 2))
    # psi_12 passes Miller-Rabin on bases 2..37 but is 399165290221 * 798330580441.
    assert is_prime(MILLER_RABIN_PROVEN_BELOW)
    assert 399165290221 * 798330580441 == MILLER_RABIN_PROVEN_BELOW
    with pytest.raises(CapacityError):
        factorize_trial(MILLER_RABIN_PROVEN_BELOW)
    # Above psi_12 only a cofactor left by trial division is refused.
    assert factorize_trial(2**80 * 999983).factors == ((2, 80), (999983, 1))


def grown_primes(limit):
    """pi(limit) < 1.25506 limit / log limit entries with an array's growth slack."""
    most = int(1.25506 * limit / math.log(limit)) + 1
    return most + most // 16 + 7


def head_rungs(limit):
    """Powers q^e <= limit of the head primes, the primes up to 31."""
    head = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    return sum(1 for q in head for e in range(1, 33) if q**e <= limit)


def sieve_charge(limit, per_prime):
    """The prime-power sieve's whole charge: the larger of what the walk
    holds (the table, the temporary for q = 37 with an array's growth
    slack, the head's ladders at 136 bytes a rung and 2 KiB for its lists
    and frames) and, with per-prime values, what the per-prime pass holds
    (the SPF table to limit - 1 at its peak); then the primes, with the
    per-prime values when there are any, each with growth slack, and 1 KiB
    for object headers."""
    top = limit // 37
    held = 4 * (limit + 1 + top + top // 16 + 7) + 136 * head_rungs(limit) + 2048
    if per_prime:
        held = max(held, 4 * (limit + limit // 16 + 7) + 2 * limit)
    values = 2 if per_prime else 1
    return held + 4 * values * grown_primes(limit) + 1024


def test_prime_power_sieve_charges_table_and_temporary(monkeypatch):
    # The whole charge is refused one byte below it and passes at it; at
    # 10^3 and 10^5 tracemalloc's peak stays within that charge, and holds
    # the table and the temporary for q = 37.
    tau_of = lambda q, e, _: e + 1
    for limit, n, tau_n in ((1000, 720, 30), (10**5, 83160, 128)):
        charge = sieve_charge(limit, None)
        monkeypatch.setenv(MEM_BUDGET_ENV, str(charge - 1))
        with pytest.raises(CapacityError):
            prime_power_sieve(limit, tau_of, operator.mul)
        monkeypatch.setenv(MEM_BUDGET_ENV, str(charge))
        prime_power_sieve(limit, tau_of, operator.mul)  # warm the call path before tracing
        tracemalloc.start()
        try:
            taus = prime_power_sieve(limit, tau_of, operator.mul)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert taus[n] == tau_n
        assert 4 * (limit + limit // 37) <= peak <= charge, (limit, peak)


def test_prime_power_sieve_combines_about_once_per_n():
    # The head writes each 31-smooth n once and the slices start at 37, so
    # tau to 10^5 takes 116,456 products, not one per prime power of each
    # multiple (343,614 with slices from q = 2).
    calls = 0

    def counting_mul(a, b):
        nonlocal calls
        calls += 1
        return a * b

    tau_of = lambda q, e, _: e + 1
    taus = prime_power_sieve(10**5, tau_of, counting_mul)
    assert calls <= 125_000, calls
    assert taus == prime_power_sieve(10**5, tau_of, operator.mul)


def omega_q_minus_1(q, spf):
    return sum(k for _, k in prime_powers(q - 1, spf))


def test_prime_power_sieve_frees_its_spf_table_first(monkeypatch):
    # With a per-prime value the charge adds the per-prime array, as many
    # entries as the primes, and covers the pass's SPF table at its own
    # peak, which exceeds the walk's.  That table is freed before the
    # sieve's table is allocated: at 10^5 tracemalloc's peak stays within
    # the charge, and below the SPF table and the sieve's table with its
    # temporary held together.
    omega_phi_of = lambda q, e, omega: e - 1 + omega
    limit = 1000
    charge = sieve_charge(limit, omega_q_minus_1)
    monkeypatch.setenv(MEM_BUDGET_ENV, str(charge - 1))
    with pytest.raises(CapacityError):
        prime_power_sieve(limit, omega_phi_of, operator.add, 0, omega_q_minus_1)
    monkeypatch.setenv(MEM_BUDGET_ENV, str(charge))
    values = prime_power_sieve(limit, omega_phi_of, operator.add, 0, omega_q_minus_1)
    assert list(values[1:]) == [
        big_omega(factorize_trial(euler_phi(factorize_trial(n)))) for n in range(1, limit + 1)
    ]
    limit = 10**5
    half = limit // 2
    charge = sieve_charge(limit, omega_q_minus_1)
    monkeypatch.setenv(MEM_BUDGET_ENV, str(charge))
    tracemalloc.start()
    try:
        values = prime_power_sieve(limit, omega_phi_of, operator.add, 0, omega_q_minus_1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values[65537] == 16
    assert 4 * (limit + half) <= peak <= charge, peak
    assert peak < 4 * (limit + 1) + 4 * (limit + half), peak


@pytest.mark.parametrize("per_prime", [None, omega_q_minus_1])
def test_prime_power_sieve_checks_its_table_before_listing_primes(monkeypatch, per_prime):
    # A budget one byte below the whole charge fails before the prime sieve
    # runs; at the charge the sieve goes on to list the primes.
    def unlisted(limit):
        raise AssertionError("primes listed before the budget check")

    monkeypatch.setattr(arith, "primes_up_to", unlisted)
    limit = 10**5
    charge = sieve_charge(limit, per_prime)
    monkeypatch.setenv(MEM_BUDGET_ENV, str(charge - 1))
    with pytest.raises(CapacityError):
        prime_power_sieve(limit, lambda q, e, w: e + w, operator.add, 0, per_prime)
    monkeypatch.setenv(MEM_BUDGET_ENV, str(charge))
    with pytest.raises(AssertionError, match="primes listed"):
        prime_power_sieve(limit, lambda q, e, w: e + w, operator.add, 0, per_prime)


@pytest.mark.parametrize("per_prime", [None, omega_q_minus_1])
def test_prime_power_sieve_refusal_names_a_passing_budget(monkeypatch, per_prime):
    # The refusal names the whole charge; a budget raised to it passes.
    limit = 10**5
    value = lambda q, e, w: e + w
    monkeypatch.setenv(MEM_BUDGET_ENV, "1000")
    with pytest.raises(CapacityError) as refused:
        prime_power_sieve(limit, value, operator.add, 0, per_prime)
    named = re.search(r"prime-power sieve needs (\d+) bytes", str(refused.value))
    assert named, str(refused.value)
    assert int(named[1]) == sieve_charge(limit, per_prime)
    monkeypatch.setenv(MEM_BUDGET_ENV, named[1])
    values = prime_power_sieve(limit, value, operator.add, 0, per_prime)
    assert len(values) == limit + 1


def test_chain_sieve_charges_table_and_temporary(monkeypatch):
    # The table, the slice temporary of up to limit // 2 bytes, the primes
    # with an array's growth slack, and 1 KiB for object headers;
    # tracemalloc's peak stays within that charge.
    limit = 10**5
    half_up = lambda q: -(-q // 2)  # the chain of Z-dense with Z = 2
    charge = limit + 1 + limit // 2 + 4 * grown_primes(limit) + 1024
    monkeypatch.setenv(MEM_BUDGET_ENV, str(charge - 1))
    with pytest.raises(CapacityError):
        chain_sieve(limit, half_up)
    monkeypatch.setenv(MEM_BUDGET_ENV, str(charge))
    chain_sieve(100, half_up)  # warm the call path before tracing
    tracemalloc.start()
    try:
        ok = chain_sieve(limit, half_up)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ok) == limit + 1
    assert limit + limit // 2 <= peak <= charge, peak


@pytest.mark.parametrize("limit", [*range(12), 97, 1000, 10**5])
def test_primes_up_to_matches_spf_table(spf100k, limit):
    primes = primes_up_to(limit)
    assert primes.typecode == "I"
    assert list(primes) == [q for q in range(2, limit + 1) if spf100k[q] == q]


def test_prime_sieve_charges_flags_temporary_and_output(monkeypatch):
    # The odd flags, the slice temporary for r = 3, and the output with an
    # array's growth slack, sized by pi(x) < 1.25506 x / log x; at 10^5
    # tracemalloc's peak stays within that charge.
    limit = 10**5
    most = int(1.25506 * limit / math.log(limit)) + 1
    charge = (limit + 1) // 2 + limit // 6 + 4 * (most + most // 16 + 7)
    monkeypatch.setenv(MEM_BUDGET_ENV, str(charge - 1))
    with pytest.raises(CapacityError):
        primes_up_to(limit)
    monkeypatch.setenv(MEM_BUDGET_ENV, str(charge))
    primes_up_to(100)  # warm the call path before tracing
    tracemalloc.start()
    try:
        primes = primes_up_to(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(primes) == 9592 <= most
    assert limit // 2 + 4 * len(primes) <= peak <= charge, peak


@pytest.mark.parametrize("limit, charge", [(10**5, 625_034), (10**6, 6_250_034)])
def test_spf_table_peak_within_its_charge(monkeypatch, limit, charge):
    # The identity table with an array's growth slack, 4 (n + n // 16 + 7)
    # bytes for n = limit + 1 entries, and the temporary of about limit // 2
    # entries written for p = 2.  At the charge tracemalloc's peak stays
    # within it; one byte below, the build refuses before listing a prime.
    monkeypatch.setenv(MEM_BUDGET_ENV, str(charge))
    build_spf_table(100)  # warm the call path before tracing
    tracemalloc.start()
    try:
        spf = build_spf_table(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spf[limit] == 2
    assert 6 * limit <= peak <= charge, peak

    def unlisted(limit):
        raise AssertionError("primes listed before the budget check")

    monkeypatch.setattr(arith, "primes_up_to", unlisted)
    monkeypatch.setenv(MEM_BUDGET_ENV, str(charge - 1))
    with pytest.raises(CapacityError, match=f"needs {charge} bytes"):
        build_spf_table(limit)


def test_memory_budget_enforced(monkeypatch):
    monkeypatch.setenv(MEM_BUDGET_ENV, "1000")
    with pytest.raises(CapacityError):
        build_spf_table(10**6)
    monkeypatch.setenv(MEM_BUDGET_ENV, "nonsense")
    with pytest.raises(ValueError):
        build_spf_table(10**6)
