import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclopract import (
    CapacityError,
    DegreeMultiset,
    degree_multiset,
    dp_coverage_oracle,
    is_p_practical,
    is_phi_practical,
    phi_degree_multiset,
)
from cyclopract import practicality
from cyclopract.practicality import merged_degree_weights
from oracles import coverage_check, poly_factor_degrees_oracle

SMOOTH_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def test_degree_multiset_tiny():
    ms = degree_multiset(2, 2)
    assert sorted(ms.entries) == [(1, 1), (1, 1)]
    ms = degree_multiset(5, 2)
    assert sorted(ms.entries) == [(1, 1), (4, 1)]


def test_degree_multiset_63():
    ms = degree_multiset(63, 2)
    assert sum(deg * cnt for deg, cnt in ms.entries) == 63
    assert ms.degree_counts() == poly_factor_degrees_oracle(63, 2)


def test_degree_multiset_invariants(order_tables):
    table = order_tables(2, 500)
    for n in range(1, 501):
        ms = degree_multiset(n, 2, table)
        assert sum(deg * cnt for deg, cnt in ms.entries) == n
        assert all(cnt >= 1 for _, cnt in ms.entries)
        assert (1, 1) in ms.entries  # the divisor d = 1
        assert len(ms.entries) >= 1


def test_degree_multiset_rejects_composite_p():
    with pytest.raises(ValueError):
        degree_multiset(6, 4)


def test_coverage_examples():
    assert coverage_check(degree_multiset(2, 2)).practical
    verdict = coverage_check(degree_multiset(5, 2))
    assert not verdict.practical
    assert verdict.witness_gap == 2


def test_phi_practical_examples():
    assert is_phi_practical(1).practical
    assert is_phi_practical(2).practical
    verdict = is_phi_practical(5)
    assert not verdict.practical and verdict.witness_gap == 2


def test_phi_practical_first_decade_against_dp():
    # frozen from the subset-sum oracle: 10 is excluded because {1,1,4,4}
    # cannot reach 3
    by_dp = [
        n for n in range(1, 11) if dp_coverage_oracle(phi_degree_multiset(n)).practical
    ]
    assert by_dp == [1, 2, 3, 4, 6, 8]
    by_greedy = [n for n in range(1, 11) if is_phi_practical(n).practical]
    assert by_greedy == by_dp


def test_p_practical_count_to_100():
    count = sum(1 for n in range(1, 101) if is_p_practical(n, 2).practical)
    assert count == 34


def test_n_equals_one_is_practical():
    for p in (2, 3, 5, 997):
        assert is_p_practical(1, p).practical
    assert is_phi_practical(1).practical


def test_smallest_p_practical_that_is_not_phi_practical():
    found = None
    for n in range(1, 101):
        if is_p_practical(n, 2).practical and not is_phi_practical(n).practical:
            found = n
            break
    assert found == 14


def test_phi_implies_p_small():
    for n in range(1, 2001):
        if is_phi_practical(n).practical:
            for p in (2, 3, 5, 7, 11):
                assert is_p_practical(n, p).practical, (n, p)


def test_dp_oracle_examples(order_tables):
    assert dp_coverage_oracle(phi_degree_multiset(1)).practical
    ms = degree_multiset(6, 5)
    assert dp_coverage_oracle(ms) == coverage_check(ms)


def test_dp_oracle_matches_greedy_on_random_n(order_tables):
    rng = random.Random(20260808)
    tables = {p: order_tables(p, 10**5) for p in (2, 3)}
    for _ in range(500):
        n = rng.randint(1, 10**5)
        p = rng.choice((2, 3))
        ms = degree_multiset(n, p, tables[p])
        assert coverage_check(ms) == dp_coverage_oracle(ms), (n, p)


def test_dp_oracle_cap():
    with pytest.raises(CapacityError):
        dp_coverage_oracle(phi_degree_multiset(10**5 + 1))


def test_witness_is_sound_on_samples(order_tables):
    rng = random.Random(5150)
    table = order_tables(2, 10**4)
    checked = 0
    while checked < 200:
        n = rng.randint(2, 10**4)
        ms = degree_multiset(n, 2, table)
        verdict = coverage_check(ms)
        if verdict.practical:
            continue
        checked += 1
        gap = verdict.witness_gap
        assert 2 <= gap <= n
        assert dp_coverage_oracle(ms) == verdict


def test_poly_oracle_tiny():
    assert poly_factor_degrees_oracle(1, 2) == {1: 1}
    assert poly_factor_degrees_oracle(2, 2) == {1: 2}
    assert poly_factor_degrees_oracle(3, 2) == {1: 1, 2: 1}
    assert poly_factor_degrees_oracle(5, 2) == {1: 1, 4: 1}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_poly_oracle_matches_degree_multiset(p, order_tables):
    table = order_tables(p, 64)
    for n in range(1, 65):
        ms = degree_multiset(n, p, table)
        assert ms.degree_counts() == poly_factor_degrees_oracle(n, p), n


def test_poly_oracle_caps():
    with pytest.raises(CapacityError):
        poly_factor_degrees_oracle(513, 2)
    with pytest.raises(CapacityError):
        poly_factor_degrees_oracle(8, 101)


def test_p_part_of_n_is_absorbed(order_tables):
    # multisets for n divisible by p still match the polynomial ground truth
    table = order_tables(3, 243)
    for n in (3, 9, 27, 81, 243, 6, 18, 54, 162, 45, 135):
        ms = degree_multiset(n, 3, table)
        assert ms.degree_counts() == poly_factor_degrees_oracle(n, 3), n


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 40), st.integers(1, 6)), min_size=1, max_size=12))
def test_greedy_agrees_with_dp_on_arbitrary_multisets(entries):
    # n is the total weight, as for every multiset that comes from some x^n - 1
    ms = DegreeMultiset(n=sum(deg * cnt for deg, cnt in entries), entries=tuple(entries))
    verdict = coverage_check(ms)
    assert verdict == dp_coverage_oracle(ms)
    if not verdict.practical:
        # every sum below the gap is reachable and the gap is not
        below = (1 << verdict.witness_gap) - 1
        mask = practicality.dp_reachable_mask(ms)
        assert mask & below == below and not (mask >> verdict.witness_gap) & 1



def kernel_and_oracle(n, p):
    """The prime-power kernel's verdict on n and the divisor-by-divisor
    oracle's: over F_p, or over Z when p is None."""
    if p is None:
        return is_phi_practical(n), coverage_check(phi_degree_multiset(n))
    return is_p_practical(n, p), coverage_check(degree_multiset(n, p))


@pytest.mark.parametrize("p", [2, 3, 5, 7, None])
def test_is_p_practical_matches_divisor_oracle(p):
    # The prime-power kernel, with orders from trial factoring and lifting
    # (totients over Z), against mult_order_star (phi) divisor by divisor:
    # verdict and witness both.
    for n in range(1, 2 * 10**4 + 1):
        kernel, oracle = kernel_and_oracle(n, p)
        assert kernel == oracle, n


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**64), st.sampled_from([2, 3, 5, 7, None]))
def test_is_p_practical_matches_oracle_on_large_n(seed, p):
    # A log-uniform n <= 10^11, which mostly carries a large prime, and a
    # 47-smooth n below a log-uniform bound, which carries many divisors.
    # The oracle computes mult_order_star (phi over Z) divisor by divisor.
    rng = random.Random(seed)
    log_max = math.log(10**11)
    smooth, bound = 1, math.exp(rng.uniform(0, log_max))
    while smooth * (q := rng.choice(SMOOTH_PRIMES)) <= bound:
        smooth *= q
    for n in (int(math.exp(rng.uniform(0, log_max))), smooth):
        kernel, oracle = kernel_and_oracle(n, p)
        assert kernel == oracle, (n, p)


def test_merged_map_capacity_is_enforced(monkeypatch):
    # Four primes whose orders are distinct primes give 16 distinct degrees.
    monkeypatch.setattr(practicality, "DEFAULT_DIVISOR_CAP", 8)
    with pytest.raises(CapacityError):
        merged_degree_weights([(3, 1), (5, 1), (7, 1), (11, 1)], lambda q, e: [q])
    assert len(merged_degree_weights([(3, 1), (5, 1), (7, 1)], lambda q, e: [q])) == 8
