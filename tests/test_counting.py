import random
from math import lcm
from operator import mul

import pytest

from cyclopract import (
    count_p_practical_partitioned,
    count_phi_practical,
    degree_multiset,
    mult_order_star,
    phi_degree_multiset,
    ratio_row,
    render_csv,
    render_json,
    render_text,
)
from cyclopract import counting
from cyclopract.arith import Factorization, divisor_phi_pairs, prime_powers, primes_up_to
from cyclopract.counting import _p_walk, _phi_walk
from cyclopract.practicality import merged_degree_weights, phi_ladder
from oracles import coverage_check


def p_chain(n, spf, order_values):
    """Per-n reference for the F_p chain: sort the prime powers of n by
    k(q) = ord*(p, q) and reject when some k_{j+1} > M_j + 1."""
    pps = sorted((order_values[q], q**e) for q, e in prime_powers(n, spf))
    m = 1
    for k, qe in pps:
        if k > m + 1:
            return False
        m *= qe
    return True


def phi_chain(n, spf):
    """Per-n reference for the Z chain: primes increasing, reject when
    q_{j+1} - 1 > M_j + 1."""
    m = 1
    for q, e in prime_powers(n, spf):
        if q > m + 2:
            return False
        m *= q**e
    return True


def chain_walk(p, limit):
    """The count path's walk of the chain tree, over F_p or over Z (p None)."""
    return _phi_walk(limit) if p is None else _p_walk(p, limit)


def walked(walk, part=0, parts=1):
    """{n: verdict} for every node one part of the walk visits; none twice."""
    nodes = {}

    def visit(n, practical):
        assert n not in nodes, n
        nodes[n] = practical

    walk(visit, part, parts)
    return nodes


@pytest.mark.parametrize(
    "X,count,expected",
    [
        (10**2, 34, "1.565758"),
        (10**3, 243, "1.678585"),
        (10**4, 1790, "1.648651"),
        (10**6, 127350, "1.759405"),
        (10**7, 1223577, "1.972173"),
    ],
)
def test_ratio_row_known_values(X, count, expected):
    assert f"{ratio_row(X, count):.6f}" == expected


def test_ratio_row_rejects_tiny_X():
    with pytest.raises(ValueError):
        ratio_row(1, 0)


def test_phi_count_first_decade(spf10k):
    report = count_phi_practical(10, [10])
    assert report.counts() == [6]


def test_phi_counts_nondecreasing(spf10k):
    report = count_phi_practical(10**4, [100, 1000, 10**4])
    counts = report.counts()
    assert counts == sorted(counts)


def test_phi_counts_bounded_by_p_counts():
    cps = [100, 1000, 10**4]
    phi_counts = count_phi_practical(10**4, cps).counts()
    for p in (2, 3, 5):
        p_counts = count_p_practical_partitioned(p, 10**4, cps).counts()
        assert all(fc <= pc for fc, pc in zip(phi_counts, p_counts))


def test_p_count_small_checkpoints():
    report = count_p_practical_partitioned(2, 10**4, [100, 1000, 10**4])
    assert report.counts() == [34, 243, 1790]


def test_partition_invariance_small():
    # The parts deal the depth-2 subtrees out; no split may move a count.
    cps = [100, 5000, 10**4]
    for kind in (2, 3, None):
        baseline = None
        for parts in (1, 2, 3, 4, 7):
            if kind is None:
                report = count_phi_practical(10**4, cps, parts=parts)
            else:
                report = count_p_practical_partitioned(kind, 10**4, cps, parts=parts)
            if baseline is None:
                baseline = report
            else:
                assert report == baseline, (kind, parts)
        if kind is not None:
            # A second call, which lists its own primes again, agrees.
            again = count_p_practical_partitioned(kind, 10**4, cps, parts=3)
            assert again == baseline, kind


def test_count_runs_one_part_per_usable_cpu(monkeypatch):
    # However many parts are asked for, a count deals no more than it has
    # CPUs for; the fake pool walks its parts here and starts no process.
    monkeypatch.setattr(counting, "usable_cpu_count", lambda: 2)
    dealt = []

    def fake_pool(count_part, parts):
        assert parts <= 2, parts
        dealt.append(parts)
        return [count_part(part) for part in range(parts)]

    monkeypatch.setattr(counting, "_run_workers", fake_pool)
    assert count_phi_practical(10**4, parts=10**6) == count_phi_practical(10**4, parts=1)
    p_report = count_p_practical_partitioned(3, 10**4, parts=10**6)
    assert p_report == count_p_practical_partitioned(3, 10**4, parts=1)
    assert dealt == [2, 2]


def test_count_without_fork_walks_once(monkeypatch):
    # Where the platform cannot fork, the parts asked for become one walk.
    monkeypatch.delattr(counting.os, "fork")
    real_count_part = counting._count_part
    walks = []

    def count_part(walk, checkpoints, parts, part):
        walks.append((parts, part))
        return real_count_part(walk, checkpoints, parts, part)

    monkeypatch.setattr(counting, "_count_part", count_part)
    report = count_phi_practical(10**4, parts=4)
    assert walks == [(1, 0)]
    assert report == count_phi_practical(10**4, parts=1)


def test_stream_agrees_with_single_shot(order_tables):
    # The count path (the walk of the chain tree) against the
    # divisor-by-divisor oracle, not against the shared kernel.
    table = order_tables(2, 10**5)
    nodes = walked(chain_walk(2, 10**5))
    rng = random.Random(31337)
    for _ in range(10**4):
        n = rng.randint(1, 10**5)
        streamed = nodes.get(n, False)
        assert streamed == coverage_check(degree_multiset(n, 2, table)).practical, n


def test_checkpoint_validation(spf10k):
    with pytest.raises(ValueError):
        count_phi_practical(100, [50, 50])
    with pytest.raises(ValueError):
        count_phi_practical(100, [200])
    with pytest.raises(ValueError):
        count_phi_practical(100, [1, 10])
    with pytest.raises(ValueError):
        count_phi_practical(100, [])


def test_default_checkpoints_are_decades(spf10k):
    report = count_phi_practical(10**4)
    assert [row.X for row in report.rows] == [100, 1000, 10**4]
    assert counting._resolve_checkpoints(10**8, None)[-1] == 10**8
    assert counting._resolve_checkpoints(5 * 10**6, None)[-1] == 10**6


def test_renderers_are_deterministic():
    report = count_p_practical_partitioned(2, 1000, [100, 1000])
    csv_text = render_csv(report)
    assert csv_text == "X,count,ratio\n100,34,1.565758\n1000,243,1.678585\n"
    assert render_csv(report) == csv_text
    json_text = render_json(report)
    assert '"X": 100' in json_text and '"count": 34' in json_text
    text = render_text(report)
    assert "F_2(X)" in text and "1.565758" in text


def test_report_metadata():
    rep_p = count_p_practical_partitioned(3, 1000, [1000])
    assert (rep_p.base, rep_p.label()) == (3, "3")
    rep_phi = count_phi_practical(1000, [1000])
    assert (rep_phi.base, rep_phi.label()) == (None, "phi")
    for row in rep_p.rows + rep_phi.rows:
        assert row.ratio == ratio_row(row.X, row.count)


def test_phi_stream_agrees_with_single_shot():
    nodes = walked(chain_walk(None, 2000))
    for n in range(1, 2001):
        streamed = nodes.get(n, False)
        assert streamed == coverage_check(phi_degree_multiset(n)).practical, n


def unfiltered_gap(n, spf, order_values):
    """The sorted (degree, phi) greedy over every divisor of n, no
    prefilter: its gap, or None when n is practical."""
    pairs = divisor_phi_pairs(Factorization(n, tuple(prime_powers(n, spf))))
    if order_values is None:
        degrees = sorted((ph, ph) for _, ph in pairs)
    else:
        degrees = sorted((order_values[d], ph) for d, ph in pairs)
    reach = 0
    for deg, ph in degrees:
        if deg > reach + 1:
            return reach + 1
        reach += ph
    return None


@pytest.mark.parametrize("p", [2, 3, 5, 7, None])
def test_chain_never_rejects_a_practical_n(spf100k, order_tables, p):
    # The walk visits only n <= 10^5 whose per-n chain holds (the gap lemma
    # prunes some of them), visits every n the unfiltered greedy accepts,
    # and its verdicts are that greedy's.
    ov = None if p is None else order_tables(p, 10**5)
    nodes = walked(chain_walk(p, 10**5))
    for n in range(1, 10**5 + 1):
        practical = unfiltered_gap(n, spf100k, ov) is None
        if n in nodes:
            assert phi_chain(n, spf100k) if p is None else p_chain(n, spf100k, ov), n
            assert nodes[n] == practical, n
        else:
            assert not practical, n
    # The walk visits under a fifth of n (9.5k to 17.9k here).
    assert len(nodes) < 2 * 10**4


@pytest.mark.parametrize("p", [2, 3, 5, 7, None])
def test_merged_degree_weights_match_degree_multiset(spf100k, order_tables, p):
    # Over F_p degrees combine by lcm from the order ladder; over Z (p None)
    # by product from the totient ladder.
    if p is None:
        ladder, combine = phi_ladder, mul
        multiset = phi_degree_multiset
    else:
        ov = order_tables(p, 2 * 10**4)
        ladder, combine = (lambda q, e: [ov[q**a] for a in range(1, e + 1)]), lcm
        multiset = lambda n: degree_multiset(n, p, ov)

    for n in range(1, 2 * 10**4 + 1):
        weights = merged_degree_weights(prime_powers(n, spf100k), ladder, combine)
        assert all(w % deg == 0 for deg, w in weights.items()), n
        merged = {deg: w // deg for deg, w in weights.items()}
        assert merged == multiset(n).degree_counts(), n


@pytest.mark.parametrize("p", [2, 3, 5, 7, None])
def test_memoized_decider_matches_plain_greedy(spf100k, order_tables, monkeypatch, p):
    # Every node of the walk to 10^5 gets the plain greedy's verdict from its
    # parent's by the cofactor lemma, or from the greedy where the lemma is
    # silent; the greedy runs on under a quarter of the nodes.  Parts 2, 3
    # and 7 visit disjoint node sets whose union is the whole walk.
    limit = 10**5
    ov = None if p is None else order_tables(p, limit)
    walk = chain_walk(p, limit)
    greedy_gap = counting.greedy_gap
    calls = 0

    def counted(weights):
        nonlocal calls
        calls += 1
        return greedy_gap(weights)

    monkeypatch.setattr(counting, "greedy_gap", counted)
    whole = walked(walk)
    # The greedy runs on 3.6% to 8.5% of the nodes here.
    assert calls < len(whole) // 4, (calls, len(whole))
    monkeypatch.undo()
    for n, practical in whole.items():
        assert practical == (unfiltered_gap(n, spf100k, ov) is None), (p, n)
    yes = {n for n, practical in whole.items() if practical}
    for parts in (2, 3, 7):
        seen, seen_yes = set(), set()
        for part in range(parts):
            nodes = walked(walk, part, parts)
            assert seen.isdisjoint(nodes), (p, parts, part)
            assert all(whole[n] == practical for n, practical in nodes.items())
            seen |= nodes.keys()
            seen_yes |= {n for n, practical in nodes.items() if practical}
        assert seen == whole.keys() and seen_yes == yes, (p, parts)


@pytest.mark.parametrize("p", [2, 3, 5, 7, None])
def test_cofactor_lemma_against_oracle(order_tables, spf100k, p):
    # The lemma of counting._walk on the divisor-by-divisor oracle: for
    # m practical, q a prime not dividing m and kappa = delta(q^e) <= m + 1,
    # n = m * q^e is practical.  At e = 1 the bound is sharp: kappa = m + 2
    # leaves m + 1 unreachable.
    limit = 2 * 10**4
    if p is None:
        verdict = lambda n: coverage_check(phi_degree_multiset(n)).practical
        delta = lambda qe, q: qe // q * (q - 1)
    else:
        table = order_tables(p, limit)
        verdict = lambda n: coverage_check(degree_multiset(n, p, table)).practical
        delta = lambda qe, q: mult_order_star(p, qe)
    primes = list(primes_up_to(limit))
    kappas = {}
    cases = lifted = sharp = 0
    for m in range(1, 2001):
        if not verdict(m):
            continue
        for q in primes:
            if m * q > limit:
                break
            if m % q == 0:
                continue
            qe = q
            while m * qe <= limit:
                if qe not in kappas:
                    kappas[qe] = delta(qe, q)
                if kappas[qe] <= m + 1:
                    assert verdict(m * qe), (p, m, qe)
                    cases += 1
                    lifted += qe != q
                elif kappas[qe] == m + 2 and qe == q:
                    assert not verdict(m * qe), (p, m, qe)
                    sharp += 1
                qe *= q
    assert cases > 2000 and lifted > 100 and sharp > 0, (cases, lifted, sharp)


@pytest.mark.parametrize("p", [2, 3, 5, 7, None])
def test_gap_lemma_against_oracle(order_tables, p):
    # The gap lemma of counting._walk on the divisor-by-divisor oracle: for
    # m failing the greedy with gap g, q a prime not dividing m and
    # delta(q) > g, n = m * q^e fails with the same gap g.  The bound is
    # sharp: delta(q) = g fills degree g, so m * q has another gap or none.
    limit = 2 * 10**4
    if p is None:
        gap = lambda n: coverage_check(phi_degree_multiset(n)).witness_gap
        delta = lambda q: q - 1
    else:
        table = order_tables(p, limit)
        gap = lambda n: coverage_check(degree_multiset(n, p, table)).witness_gap
        delta = table.__getitem__
    primes = list(primes_up_to(limit))
    cases = lifted = sharp = 0
    for m in range(1, 2001):
        g = gap(m)
        if g is None:
            continue
        for q in primes:
            if m * q > limit:
                break
            if m % q == 0 or delta(q) < g:
                continue
            if delta(q) == g:
                assert gap(m * q) != g, (p, m, q)
                sharp += 1
                continue
            qe = q
            while m * qe <= limit:
                assert gap(m * qe) == g, (p, m, qe)
                cases += 1
                lifted += qe != q
                qe *= q
    # 13.0k to 18.7k cases here, 437 to 995 of them with e >= 2.
    assert cases > 10**4 and lifted > 400 and sharp > 0, (cases, lifted, sharp)


@pytest.mark.parametrize("p", [2, 3, 5, 7, None])
def test_walk_visits_exactly_the_pruned_chain_tree(spf100k, order_tables, p):
    # The walk's tree, stated without the walk: take the prime powers of n
    # in key order (ties by q) and their prefix products m_j.  n is a node
    # when every next key is at most m_j + 1 below a practical m_j, and at
    # most gap(m_j) below one that fails; the gaps are the unfiltered
    # greedy's.
    limit = 2 * 10**4
    ov = None if p is None else order_tables(p, limit)
    key = (lambda q: q - 1) if p is None else ov.__getitem__
    gaps = [None] + [unfiltered_gap(m, spf100k, ov) for m in range(1, limit + 1)]
    tree = set()
    for n in range(1, limit + 1):
        m = 1
        for q, e in sorted(prime_powers(n, spf100k), key=lambda pe: (key(pe[0]), pe[0])):
            if key(q) > (m + 1 if gaps[m] is None else gaps[m]):
                break
            m *= q**e
        else:
            tree.add(n)
    nodes = walked(chain_walk(p, limit))
    assert nodes.keys() == tree, p
    assert all(practical == (gaps[n] is None) for n, practical in nodes.items()), p


@pytest.mark.parametrize("p", [2, 3, 5, 7, None])
def test_walk_skips_childless_nodes(monkeypatch, p):
    # Each descend into a node makes two bisect_right calls.  The walk
    # descends only where a later prime fits under limit // n: 677 to 1,321
    # calls for 9,520 to 17,912 nodes at 10^5, where descending into every
    # n <= limit / 2 made 5,156 to 9,504.
    walk = chain_walk(p, 10**5)
    bisect_right = counting.bisect_right
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return bisect_right(*args)

    monkeypatch.setattr(counting, "bisect_right", counted)
    nodes = walked(walk)
    assert calls % 2 == 0
    assert calls // 2 < len(nodes) // 8, (calls // 2, len(nodes))
