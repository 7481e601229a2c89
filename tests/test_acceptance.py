"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The 10^7 tier is marked
``slow`` so it can be deselected during development (``-m "not slow"``), but
it runs by default.
"""
import random
import time
from contextlib import contextmanager

import pytest

from cyclopract import (
    count_p_practical_partitioned,
    degree_multiset,
    dp_coverage_oracle,
    coprime_part,
    factorize_trial,
    is_p_practical,
    is_phi_practical,
    render_csv,
    render_json,
)
from cyclopract.arith import prime_powers
from cyclopract.cli import main as cli_main
from oracles import coverage_check, divisors_sorted, poly_factor_degrees_oracle

TABLE_COUNTS = {
    2: [34, 243, 1790, 14703, 120276, 1030279],
    3: [41, 258, 1881, 15069, 127350, 1080749],
    5: [46, 286, 2179, 16847, 141446, 1223577],
}
TABLE_RATIOS = {
    2: ["1.565758", "1.678585", "1.648651", "1.692745", "1.661674", "1.660614"],
    3: ["1.888120", "1.782201", "1.732465", "1.734883", "1.759405", "1.741962"],
    5: ["2.118378", "1.975618", "2.006933", "1.939583", "1.954149", "1.972173"],
}
TABLE_PHI = [28, 174, 1198, 9301, 74461, 635528]
TABLE_PHI_RATIOS = ["1.289448", "1.201949", "1.103399", "1.070817", "1.028717", "1.024350"]
DECADES_TO_6 = [10**k for k in range(2, 7)]
DECADES_TO_7 = [10**k for k in range(2, 8)]


@contextmanager
def criterion(number, name):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS ({time.time() - start:.1f}s)")


@pytest.fixture(scope="module")
def reports_1e7():
    """Partitioned counts to 10^7 for p in {2, 3, 5}, with the chain keys
    from ``prime_order_keys`` as in ``cyclopract count``; shared by criteria 2-3."""
    reports = {}
    for p in (2, 3, 5):
        t0 = time.time()
        reports[p] = count_p_practical_partitioned(p, 10**7, DECADES_TO_7, parts=8)
        print(f"  p={p}: partitioned count {time.time() - t0:.0f}s")
    return reports


def test_criterion_1_table_reproduction_1e6(capsys):
    with criterion(1, "table reproduction at 10^6, exact"):
        for p in (2, 3, 5):
            t0 = time.time()
            code = cli_main(
                [
                    "count",
                    "--prime",
                    str(p),
                    "--limit",
                    "1000000",
                    "--checkpoints",
                    "100,1000,10000,100000,1000000",
                    "--parts",
                    "1",
                ]
            )
            elapsed = time.time() - t0
            out = capsys.readouterr().out
            assert code == 0
            rows = out.strip().splitlines()[1:]
            counts = [int(line.split(",")[1]) for line in rows]
            assert counts == TABLE_COUNTS[p][:5], f"p={p}"
            with capsys.disabled():
                print(f"  p={p}: counts exact, single-threaded {elapsed:.0f}s (target 60s)")


@pytest.mark.slow
def test_criterion_2_table_reproduction_1e7(reports_1e7):
    with criterion(2, "extended table reproduction at 10^7, exact"):
        for p in (2, 3, 5):
            counts = reports_1e7[p].counts()
            assert counts == TABLE_COUNTS[p], f"p={p}"
        print("  counts at 10^7: "
              f"{[reports_1e7[p].counts()[-1] for p in (2, 3, 5)]} (target 20min, parts=8)")


@pytest.mark.slow
def test_criterion_3_ratio_columns(reports_1e7):
    with criterion(3, "all 18 ratio values to 6 decimal places"):
        for p in (2, 3, 5):
            got = [f"{row.ratio:.6f}" for row in reports_1e7[p].rows]
            assert got == TABLE_RATIOS[p], f"p={p}"


def test_criterion_4_oracle_equivalence(spf100k, order_tables):
    with criterion(4, "greedy==DP to 5000; degrees==polynomials to 256"):
        mismatches = 0
        for p in (2, 3, 5, 7):
            table = order_tables(p, 5000)
            for n in range(1, 5001):
                ms = degree_multiset(n, p, table)
                if coverage_check(ms) != dp_coverage_oracle(ms):
                    mismatches += 1
        assert mismatches == 0
        for p in (2, 3, 5):
            table = order_tables(p, 256)
            for n in range(1, 257):
                ms = degree_multiset(n, p, table)
                if ms.degree_counts() != poly_factor_degrees_oracle(n, p):
                    mismatches += 1
        assert mismatches == 0


def test_criterion_5_phi_implies_p():
    with criterion(5, "phi-practical implies p-practical to 10^4"):
        violations = 0
        for n in range(1, 10**4 + 1):
            if is_phi_practical(n).practical:
                for p in (2, 3, 5, 7, 11):
                    if not is_p_practical(n, p).practical:
                        violations += 1
        assert violations == 0


def test_criterion_6_order_engine(spf10k, order_tables):
    with criterion(6, "true orders and monotone divisor ratios to 10^4"):
        violations = 0
        for a in (2, 3, 5, 7, 10):
            values = order_tables(a, 10**4)
            for n in range(1, 10**4 + 1):
                t = values[n]
                m = coprime_part(n, a)
                if m == 1:
                    if t != 1:
                        violations += 1
                else:
                    if pow(a, t, m) != 1:
                        violations += 1
                    for q, _ in prime_powers(t, spf10k):
                        if pow(a, t // q, m) == 1:
                            violations += 1
                for d in divisors_sorted(factorize_trial(n)):
                    if d * t > n * values[d]:
                        violations += 1
        assert violations == 0


def test_criterion_7_witness_soundness(order_tables):
    with criterion(7, "10^3 random witnesses checked against the DP oracle"):
        rng = random.Random(20260808)
        tables = {p: order_tables(p, 10**5) for p in (2, 3, 5, 7)}
        checked = 0
        violations = 0
        while checked < 1000:
            n = rng.randint(2, 10**5)
            p = rng.choice((2, 3, 5, 7))
            ms = degree_multiset(n, p, tables[p])
            verdict = coverage_check(ms)
            if verdict.practical:
                continue
            checked += 1
            if dp_coverage_oracle(ms) != verdict:
                violations += 1
        assert violations == 0


def test_criterion_8_partition_invariance():
    with criterion(8, "byte-identical reports across parts 1/2/4/8 at 10^5"):
        renders = set()
        reports = []
        for parts in (1, 2, 4, 8):
            report = count_p_practical_partitioned(
                2, 10**5, [100, 1000, 10**4, 10**5], parts=parts
            )
            reports.append(report)
            renders.add((render_csv(report), render_json(report)))
        assert len(renders) == 1
        assert all(report == reports[0] for report in reports)


def test_criterion_9_phi_table_reproduction_1e7(capsys):
    with criterion(9, "phi table reproduction at 10^7, exact, through the CLI"):
        t0 = time.time()
        code = cli_main(["count", "--phi", "--limit", "1e7"])
        elapsed = time.time() - t0
        out = capsys.readouterr().out
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [int(x) for x, _, _ in rows] == DECADES_TO_7
        assert [int(c) for _, c, _ in rows] == TABLE_PHI
        assert [r for _, _, r in rows] == TABLE_PHI_RATIOS
        with capsys.disabled():
            print(f"  phi: counts exact to 10^7 in {elapsed:.1f}s")
