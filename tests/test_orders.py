import math

import pytest

from cyclopract import (
    coprime_part,
    lambda_star_table,
    mult_order,
    mult_order_star,
    sieve_order_star,
)
from cyclopract.arith import (
    build_spf_table,
    carmichael_lambda,
    factorize_trial,
    prime_powers,
    primes_up_to,
)
from cyclopract.orders import (
    lifted_orders,
    order_from_multiple,
    prime_order,
    prime_order_keys,
)


def naive_order(a, n):
    """Repeated multiplication until the power returns to 1."""
    if n == 1:
        return 1
    assert math.gcd(a, n) == 1
    x = a % n
    t = 1
    while x != 1:
        x = x * a % n
        t += 1
    return t


def test_coprime_part_examples():
    assert coprime_part(12, 2) == 3
    assert coprime_part(7, 2) == 7
    assert coprime_part(1, 5) == 1
    assert coprime_part(360, 6) == 5


def test_coprime_part_is_maximal_coprime_divisor():
    for n in range(1, 400):
        for a in (2, 6, 10, 15):
            m = coprime_part(n, a)
            assert n % m == 0
            assert math.gcd(m, a) == 1
            for d in range(m + 1, n + 1):
                if n % d == 0 and math.gcd(d, a) == 1:
                    pytest.fail(f"{d} > {m} divides {n} and is coprime to {a}")


def test_mult_order_examples():
    assert mult_order(2, 7) == 3
    assert mult_order(2, 1) == 1
    assert mult_order(3, 1000003) == naive_order(3, 1000003)


def test_mult_order_rejects_common_factor():
    with pytest.raises(ValueError):
        mult_order(6, 9)


def test_mult_order_against_naive_sweep():
    for n in range(1, 300):
        for a in (2, 3, 5, 10):
            if math.gcd(a, n) == 1:
                assert mult_order(a, n) == naive_order(a, n)


def test_lifted_orders_examples():
    assert lifted_orders(2, 3, 2, prime_order(2, 3))[-1] == 6
    assert lifted_orders(2, 7, 1, prime_order(2, 7))[-1] == 3
    assert lifted_orders(5, 2, 6, prime_order(5, 2))[-1] == naive_order(5, 64)


@pytest.fixture(scope="module")
def prime_orders():
    """ord(a mod q) by repeated multiplication, for the primes q <= 3000 not
    dividing a."""
    return {
        (a, q): naive_order(a, q) for a in (2, 3, 5, 7, 10) for q in primes_up_to(3000) if a % q
    }


def _orders_by_source(source, prime_orders):
    # (got, want) for every kind of multiple t the package passes to
    # order_from_multiple: lambda(n), q - 1 split through an SPF table or by
    # trial division, and gcd(lcm(1..k+1), q - 1) where ord(a mod q) <= k + 1.
    if source == "lambda":
        for n in range(2, 300):
            for a in (2, 3, 5, 10):
                if math.gcd(a, n) == 1:
                    lam = carmichael_lambda(factorize_trial(n))
                    primes = [r for r, _ in factorize_trial(lam).factors]
                    yield order_from_multiple(a, n, lam, primes), naive_order(a, n)
    elif source == "spf":
        spf = build_spf_table(3000)
        for (a, q), want in prime_orders.items():
            yield prime_order(a, q, spf), want
    elif source == "trial":
        for (a, q), want in prime_orders.items():
            yield prime_order(a, q), want
    else:
        span = 1
        for k in range(1, 64):
            span = math.lcm(span, k + 1)
            below = list(primes_up_to(k + 1))
            for (a, q), want in prime_orders.items():
                if want <= k + 1:
                    yield order_from_multiple(a, q, math.gcd(span, q - 1), below), want


@pytest.mark.parametrize("source", ["lambda", "spf", "trial", "stamp"])
def test_order_from_multiple_matches_naive_for_every_source(source, prime_orders):
    pairs = list(_orders_by_source(source, prime_orders))
    assert len(pairs) > 100
    assert [got for got, _ in pairs] == [want for _, want in pairs]


@pytest.mark.parametrize("a", [2, 3, 6, 10, 12])
def test_prime_dividing_the_base_has_order_star_1(a):
    spf = build_spf_table(100)
    for q in (2, 3, 5):
        if a % q == 0:
            assert prime_order(a, q) == prime_order(a, q, spf) == 1
            assert lifted_orders(a, q, 6, 1) == [1] * 6
        else:
            assert lifted_orders(a, q, 6, prime_order(a, q)) == [
                naive_order(a, q**j) for j in range(1, 7)
            ]


def test_mult_order_star_examples():
    assert mult_order_star(2, 12) == 2
    assert mult_order_star(3, 9) == 1
    assert mult_order_star(2, 9999999) == mult_order(2, coprime_part(9999999, 2))


def test_sieve_small_values():
    table = sieve_order_star(2, 10)
    assert list(table[1:]) == [1, 1, 2, 1, 4, 2, 3, 1, 6, 4]


@pytest.mark.parametrize("a", [2, 3])
def test_sieve_matches_single_shot_exhaustively(a, order_tables):
    table = order_tables(a, 10**4)
    for n in range(1, 10**4 + 1):
        assert table[n] == mult_order_star(a, n), n


@pytest.mark.parametrize("a", [2, 3, 5, 7, 10])
def test_order_star_is_a_true_order(a, spf10k, order_tables):
    # congruence holds, and no proper divisor of the order does
    values = order_tables(a, 10**4)
    for n in range(1, 2001):
        t = values[n]
        m = coprime_part(n, a)
        if m == 1:
            assert t == 1
            continue
        assert pow(a, t, m) == 1
        for q, _ in prime_powers(t, spf10k):
            assert pow(a, t // q, m) != 1


@pytest.mark.parametrize("a", [2, 3, 5, 7, 10])
def test_divisor_divisibility_and_monotone_ratio(a, order_tables):
    from oracles import divisors_sorted

    values = order_tables(a, 10**4)
    for n in range(1, 2001):
        vn = values[n]
        for d in divisors_sorted(factorize_trial(n)):
            vd = values[d]
            assert vn % vd == 0
            # d / ord(d) <= n / ord(n), cross-multiplied in integers
            assert d * vn <= n * vd


@pytest.mark.parametrize("a", [2, 3, 5])
def test_order_star_divides_lambda_of_coprime_part(a, order_tables):
    values = order_tables(a, 10**4)
    lam = lambda_star_table(10**4, skip_base=a)
    for n in range(1, 10**4 + 1):
        assert lam[n] % values[n] == 0


@pytest.mark.parametrize("a", [2, 3, 5, 7])
@pytest.mark.parametrize("limit", [10, 64, 1000, 10**5])
def test_prime_order_keys_contract(a, limit, spf100k, order_tables):
    # The keys are ord*(a, q) at exactly the primes q <= limit where that
    # order is at most limit // q + 1, the largest key a chain can pass
    # with a cofactor at most limit // q; ord*(a, a) = 1.
    orders = order_tables(a, limit)
    primes = [q for q in range(2, limit + 1) if spf100k[q] == q]
    expected = {q: orders[q] for q in primes if orders[q] <= limit // q + 1}
    assert prime_order_keys(a, limit) == expected


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_prime_order_keys_every_top(p):
    # Every top in 2..3000, so every block edge top // k of the stamp
    # filter and every split top // 64, against orders by repeated
    # multiplication.  q = p above top // 64 is never kept by the stamp
    # filter and must still get key 1.
    primes = [q for q in range(2, 3001) if all(q % d for d in range(2, math.isqrt(q) + 1))]
    orders = {q: 1 if q == p else naive_order(p, q) for q in primes}
    for top in range(2, 3001):
        expected = {q: k for q, k in orders.items() if q <= top and k <= top // q + 1}
        assert prime_order_keys(p, top) == expected, top
    assert prime_order_keys(2, 100)[2] == 1


def test_sieve_validates_inputs():
    with pytest.raises(ValueError):
        sieve_order_star(1, 10)
    with pytest.raises(ValueError):
        sieve_order_star(2, 0)
