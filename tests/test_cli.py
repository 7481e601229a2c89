import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclopract
from cyclopract import cli, mult_order_star
from cyclopract.cli import _parse_count_arg, build_parser, main
from cyclopract.practicality import PracticalVerdict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_test_subcommand_p_practical(capsys):
    code, out, _ = run_cli(capsys, "test", "20", "--prime", "2")
    assert code == 0
    assert out == "n=20 kind=p base=2 practical=yes\n"


def test_test_subcommand_phi_trivial(capsys):
    code, out, _ = run_cli(capsys, "test", "1", "--phi")
    assert code == 0
    assert out == "n=1 kind=phi practical=yes\n"


def test_test_subcommand_witness(capsys):
    code, out, _ = run_cli(capsys, "test", "10", "--phi", "--witness")
    assert code == 0
    assert out == "n=10 kind=phi practical=no witness_gap=3 witness_verified=yes\n"


def test_test_subcommand_wrong_witness_is_not_verified(capsys, monkeypatch):
    # A verdict whose gap the DP oracle does not confirm prints NO and exits 1.
    monkeypatch.setattr(
        cli, "is_phi_practical", lambda n: PracticalVerdict(practical=False, witness_gap=4)
    )
    code, out, _ = run_cli(capsys, "test", "10", "--phi", "--witness")
    assert code == 1
    assert out == "n=10 kind=phi practical=no witness_gap=4 witness_verified=NO\n"


def test_test_subcommand_prime_witness(capsys):
    code, out, _ = run_cli(capsys, "test", "5", "--prime", "2", "--witness")
    assert code == 0
    assert "practical=no witness_gap=2 witness_verified=yes" in out


def test_witness_refuses_past_the_oracle_cap_before_building_degrees(capsys, monkeypatch):
    # 5^10 7^8 11^6 13^4 has 3,465 divisors, some whose lambda passes 2^64;
    # the cap is checked before any per-divisor degree is built.
    n = "2848484651253657431640625"
    code, out, err = run_cli(capsys, "test", n, "--prime", "2", "--witness")
    assert (code, out) == (1, "")
    assert err == f"error: n={n} exceeds oracle cap 100000\n"

    def unbuilt(n):
        raise AssertionError("degree multiset built past the oracle cap")

    monkeypatch.setattr(cli, "phi_degree_multiset", unbuilt)
    code, out, err = run_cli(capsys, "test", "100003", "--phi", "--witness")
    assert (code, out) == (1, "")
    assert err == "error: n=100003 exceeds oracle cap 100000\n"


def test_cli_import_loads_no_machinery():
    # The modules a fresh `import cyclopract.cli` adds to the interpreter's
    # own start-up set; the fork pool is imported only by a count in parts.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cyclopract.__file__)))

    def loaded(statement):
        code = f"import sys; {statement}; print(' '.join(sys.modules))"
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, check=True)
        return set(run.stdout.decode().split())

    added = loaded("import cyclopract.cli") - loaded("pass")
    assert "cyclopract.cli" in added
    heavy = {"dataclasses", "inspect", "multiprocessing", "concurrent.futures"}
    assert not added & heavy, sorted(added & heavy)


def test_count_csv_small(capsys):
    code, out, _ = run_cli(
        capsys,
        "count",
        "--prime",
        "2",
        "--limit",
        "10000",
        "--checkpoints",
        "100,1000,10000",
        "--parts",
        "1",
    )
    assert code == 0
    assert out == (
        "X,count,ratio\n"
        "100,34,1.565758\n"
        "1000,243,1.678585\n"
        "10000,1790,1.648651\n"
    )


def test_count_scientific_shorthand(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--phi", "--limit", "1e3", "--checkpoints", "1e2,1e3"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "X,count,ratio"
    assert len(lines) == 3


def test_count_parts_do_not_change_output(capsys):
    argv = ["count", "--prime", "3", "--limit", "2000", "--checkpoints", "100,2000"]
    outputs = set()
    for parts in ("1", "2", "4"):
        code, out, _ = run_cli(capsys, *argv, "--parts", parts)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_count_repeat_runs_byte_identical(capsys):
    argv = ["count", "--prime", "2", "--limit", "500", "--checkpoints", "100,500"]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_count_json_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "count",
        "--phi",
        "--limit",
        "100",
        "--checkpoints",
        "100",
        "--format",
        "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["X"] == 100
    assert set(rows[0]) == {"X", "count", "ratio"}


def test_count_text_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "count",
        "--prime",
        "2",
        "--limit",
        "100",
        "--checkpoints",
        "100",
        "--format",
        "text",
    )
    assert code == 0
    assert "F_2(X)" in out
    assert "34" in out and "1.565758" in out


def test_count_out_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run_cli(
        capsys,
        "count",
        "--prime",
        "2",
        "--limit",
        "100",
        "--checkpoints",
        "100",
        "--out",
        str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == "X,count,ratio\n100,34,1.565758\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["orders", "--base", "2", "--limit", "10"],
        ["count", "--prime", "2", "--limit", "100", "--parts", "1"],
        ["stats", "tau", "--limit", "100", "--kappa", "4"],
    ],
)
@pytest.mark.parametrize("target", ["directory", "missing_dir"])
def test_unwritable_out_exits_1(tmp_path, capsys, argv, target):
    # A directory, or a file under a directory that does not exist: an
    # error line and exit 1, never a traceback.
    out = tmp_path if target == "directory" else tmp_path / "missing" / "x.csv"
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 1
    assert stdout == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_orders_dump(capsys):
    code, out, _ = run_cli(capsys, "orders", "--base", "2", "--limit", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,order_star"
    assert lines[1] == "1,1"
    assert lines[9] == "9,6"
    assert lines[10] == "10,4"


def test_closed_stdout_pipe_exits_0_quietly():
    # A reader that stops after one line, as `| head -1` does: the run
    # ends with 0 and writes nothing to stderr.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cyclopract.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cyclopract.cli", "orders", "--base", "2", "--limit", "200000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"d,order_star\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_stats_zdense(capsys):
    code, out, _ = run_cli(capsys, "stats", "zdense", "--limit", "10", "--z", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "stat,n_or_prime,value"
    assert "zdense_count,10,5" in lines


def test_stats_aq(capsys):
    code, out, _ = run_cli(
        capsys, "stats", "aq", "--base", "2", "--q", "3", "--limit", "40"
    )
    assert code == 0
    assert "aq_prime,31,5" in out  # 2 has order 5 mod 31


def test_stats_tau_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "stats",
        "tau",
        "--limit",
        "10",
        "--kappa",
        "4",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["count"] == 3
    assert payload["config"]["kappa"] == 4.0
    assert payload["scanner"] == "tau"


def test_stats_smallorder_with_theta(capsys):
    code, out, _ = run_cli(
        capsys,
        "stats",
        "smallorder",
        "--base",
        "2",
        "--limit",
        "100",
        "--theta",
        "0.1",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["theta"] == 0.1
    assert payload["result"]["count"] >= 0


def test_stats_echo_shows_the_thresholds_used(capsys):
    code, out, _ = run_cli(
        capsys,
        "stats",
        "smoothlambda",
        "--limit",
        "100",
        "--theta",
        "0.1",
        "--Y",
        "50",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["Y"] == payload["result"]["Y"] == 50.0
    assert payload["config"]["B"] == payload["result"]["B"]


def test_stats_theta_derives_from_a_given_y(capsys):
    # Z, psi and the small-order bound come from the Y in use, here --Y.
    argv = ("stats", "smallorder", "--base", "2", "--limit", "100", "--theta", "0.1")
    code, out, _ = run_cli(capsys, *argv, "--Y", "2")
    assert code == 0
    assert out == (
        "stat,n_or_prime,value\n"
        "small_order_bound,100,15.596189871087324\n"
        "small_order_count,100,65\n"
    )
    # A given Y of 0 leaves no bound to derive: an error line, not a traceback.
    code, out, err = run_cli(capsys, *argv, "--Y", "0", "--z", "4", "--psi", "100")
    assert (code, out, err) == (1, "", "error: Y * B is 0; pass bound explicitly\n")


def test_stats_refuses_a_bound_from_an_overflowing_y_times_b(capsys):
    # At 15391 the derived Y and B are finite and their product is not: an
    # error line, not a count against a bound of 0.0.
    argv = ("stats", "smallorder", "--base", "2", "--limit", "15391", "--theta", "0.1")
    code, out, err = run_cli(capsys, *argv, "--z", "3", "--psi", "100")
    assert (code, out, err) == (1, "", "error: Y * B overflows a double; pass bound explicitly\n")


def test_stats_theta_leaves_a_given_y_underived(capsys):
    # The derived Y would overflow doubles at theta = 0.5; with --Y and --B
    # given it is never computed.
    code, out, _ = run_cli(
        capsys, "stats", "smoothlambda", "--limit", "1e5", "--theta", "0.5",
        "--Y", "50", "--B", "7",
    )
    assert code == 0
    assert out == "stat,n_or_prime,value\nsmooth_lambda_count,100000,48629\n"


def test_stats_omegaphi(capsys):
    code, out, _ = run_cli(capsys, "stats", "omegaphi", "--limit", "100")
    assert code == 0
    assert "omega_phi_excess,100,0" in out


def test_stats_smoothlambda(capsys):
    code, out, _ = run_cli(
        capsys, "stats", "smoothlambda", "--limit", "100", "--B", "2", "--Y", "4"
    )
    assert code == 0
    assert out.startswith("stat,n_or_prime,value\n")


def test_smooth_bound_is_taken_as_given(capsys):
    # --B is a real: a bound below 2 is quoted as given, not truncated, and
    # a fractional bound counts as its integer part does.
    argv = ("stats", "smoothlambda", "--limit", "1000", "--Y", "5")
    code, out, err = run_cli(capsys, *argv, "--B", "0.5")
    assert (code, out, err) == (1, "", "error: bound must be >= 2, got 0.5\n")
    assert run_cli(capsys, *argv, "--B", "7.5") == run_cli(capsys, *argv, "--B", "7")


def test_stats_missing_flag_is_error(capsys):
    code, out, err = run_cli(capsys, "stats", "zdense", "--limit", "10")
    assert code == 1
    assert out == ""
    assert "requires --z" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--limit", "100"])  # missing --prime/--phi
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["test", "10", "--prime", "4"])  # composite prime flag
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["count", "--prime", "2", "--limit", "abc"])
    assert exc.value.code == 2


def test_capacity_error_exits_1(capsys, monkeypatch):
    monkeypatch.setenv("CYCLO_MEM_BUDGET_BYTES", "1000")
    code, out, err = run_cli(capsys, "orders", "--base", "2", "--limit", "100000")
    assert code == 1
    assert out == ""
    assert "budget" in err


# tracemalloc peaks of whole commands at N = 10^5, in units of N bytes.  The
# SPF table of a per-prime pass is freed before the sieve's table is
# allocated and no scan copies a table, so a command holds one table of N
# entries, its slice temporary and the primes, about 7N; `ratios` holds the
# order table while it sieves lambda*, about 11N.  An SPF table (4N) held
# through the sieve, or a slice copy of a table for a scan, breaks these
# bounds.  argparse loads gettext and locale on its first parse, about 2N at
# 10^5 that does not grow with N, so one parse runs before tracing.
MEMORY_N = 10**5


@pytest.mark.parametrize(
    "argv, most",
    [
        pytest.param(("orders", "--base", "3", "--out", os.devnull), 8, id="orders"),
        pytest.param(("stats", "omegaphi"), 8, id="omegaphi"),
        pytest.param(("stats", "smoothlambda", "--B", "7", "--Y", "50"), 8, id="smoothlambda"),
        pytest.param(("stats", "smallorder", "--base", "2", "--bound", "1000"), 8, id="smallorder"),
        pytest.param(("stats", "tau", "--kappa", "32"), 8, id="tau"),
        pytest.param(("stats", "ratios", "--base", "2", "--psi", "100"), 11.5, id="ratios"),
    ],
)
def test_command_peak_memory(capsys, argv, most):
    build_parser().parse_args(["stats", "tau", "--limit", "1"])
    tracemalloc.start()
    try:
        code = main([*argv, "--limit", str(MEMORY_N)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr().err
    assert peak <= most * MEMORY_N, peak / MEMORY_N


PHI_CSV_1E6 = (
    "X,count,ratio\n"
    "100,28,1.289448\n"
    "1000,174,1.201949\n"
    "10000,1198,1.103399\n"
    "100000,9301,1.070817\n"
    "1000000,74461,1.028717\n"
)


def test_phi_count_fits_a_small_budget(capsys, monkeypatch):
    # The phi walk reads the primes up to sqrt(N) + 2 only; the F_p count
    # lists every prime up to N, about N bytes of sieve and output at 10^6,
    # and is refused.
    monkeypatch.setenv("CYCLO_MEM_BUDGET_BYTES", "100000")
    code, out, err = run_cli(capsys, "count", "--phi", "--limit", "1e6")
    assert code == 0, err
    assert out == PHI_CSV_1E6
    code, out, err = run_cli(capsys, "count", "--prime", "2", "--limit", "1e6")
    assert code == 1
    assert out == ""
    assert "budget" in err


P2_CSV_1E6 = (
    "X,count,ratio\n"
    "100,34,1.565758\n"
    "1000,243,1.678585\n"
    "10000,1790,1.648651\n"
    "100000,14703,1.692745\n"
    "1000000,120276,1.661674\n"
)


def test_p_count_fits_a_budget_below_an_spf_table(capsys, monkeypatch):
    # An SPF table to 10^6 alone is charged 6,250,034 bytes; the count lists
    # its primes with a byte sieve and factors q - 1 below 10^6 / 64 only.
    monkeypatch.setenv("CYCLO_MEM_BUDGET_BYTES", "1200000")
    code, out, err = run_cli(capsys, "count", "--prime", "2", "--limit", "1e6")
    assert code == 0, err
    assert out == P2_CSV_1E6


def test_p_count_sieves_to_the_last_checkpoint(capsys, monkeypatch):
    # Nothing is sized by --limit: a walk to 100 fits 100 kB at any limit.
    monkeypatch.setenv("CYCLO_MEM_BUDGET_BYTES", "100000")
    code, out, err = run_cli(
        capsys, "count", "--prime", "2", "--limit", "1e7", "--checkpoints", "1e2"
    )
    assert code == 0, err
    assert out == "X,count,ratio\n100,34,1.565758\n"


def test_checkpoint_above_limit_exits_1(capsys):
    code, out, err = run_cli(
        capsys, "count", "--phi", "--limit", "100", "--checkpoints", "1000"
    )
    assert code == 1
    assert out == ""
    assert "exceeds limit" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["stats", "zdense", "--limit", "1", "--z", "2"],
        ["stats", "tau", "--limit", "1", "--kappa", "1"],
    ],
)
def test_bound_ratio_below_limit_2_exits_1(capsys, argv):
    # Both bound ratios divide by log(limit), which is 0 at limit 1.
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_count_arg_parse_is_exact(capsys):
    code, out, _ = run_cli(capsys, "test", "1e23", "--phi")
    assert code == 0
    assert out.startswith("n=100000000000000000000000 kind=phi ")
    code, out, _ = run_cli(capsys, "test", "1.50e1", "--phi")
    assert code == 0
    assert out.startswith("n=15 kind=phi ")


@pytest.mark.parametrize("kind", [["--phi"], ["--prime", "2"]])
def test_large_prime_n_decides_quickly(capsys, kind):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "test", "100000000000000003", *kind)
    assert time.perf_counter() - start < 5
    assert code == 0
    assert out.startswith("n=100000000000000003 kind=")
    assert " practical=no " in out


PSI_12 = "318665857834031151167461"  # 399165290221 * 798330580441


@pytest.mark.parametrize(
    "argv",
    [
        ["test", "10", "--prime", PSI_12],
        ["count", "--prime", PSI_12, "--limit", "100"],
        ["stats", "aq", "--base", "2", "--q", PSI_12, "--limit", "10"],
    ],
)
def test_uncertifiable_prime_flag_exits_2(capsys, argv):
    # is_prime passes psi_12 (composite); no prime flag at or above it is trusted.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "cannot certify" in capsys.readouterr().err


def test_more_divisors_than_the_cap_decides(capsys):
    # The product of the first 21 primes has 2^21 divisors, twice the
    # divisor-list cap; the merged degree map stays small for both kinds.
    primorial = 1
    for q in range(2, 74):
        if all(q % r for r in range(2, q)):
            primorial *= q
    for kind, head in ((("--prime", "2"), "kind=p base=2"), (("--phi",), "kind=phi")):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "test", str(primorial), *kind)
        assert time.perf_counter() - start < 1, kind
        assert code == 0, kind
        assert out.startswith(f"n={primorial} {head} practical="), kind


def test_uncertifiable_cofactor_exits_1(capsys):
    # psi_12 = 399165290221 * 798330580441 has no prime factor up to 10^6.
    code, out, err = run_cli(capsys, "test", "318665857834031151167461", "--phi")
    assert code == 1
    assert out == ""
    assert "too large to certify" in err


# (10^30 + 57)(10^31 + 33), two primes: trial division leaves the whole base
# and it is far above psi_12, but no table entry needs its factors.
HUGE_BASE = 10000000000000000000000000000603000000000000000000000000001881


def test_huge_base_orders_match_single_shot(capsys):
    code, out, err = run_cli(capsys, "orders", "--base", str(HUGE_BASE), "--limit", "100")
    assert code == 0, err
    assert out.splitlines() == ["d,order_star"] + [
        f"{d},{mult_order_star(HUGE_BASE, d)}" for d in range(1, 101)
    ]


def test_huge_base_order_scanners_exit_0(capsys):
    base = str(HUGE_BASE)
    small = sum(mult_order_star(HUGE_BASE, d) <= 10 for d in range(1, 1001))
    code, out, err = run_cli(
        capsys, "stats", "smallorder", "--base", base, "--limit", "1000", "--bound", "10"
    )
    assert code == 0, err
    assert f"small_order_count,1000,{small}\n" in out
    code, out, err = run_cli(
        capsys, "stats", "ratios", "--base", base, "--limit", "1000", "--psi", "100"
    )
    assert code == 0, err
    buckets = [line.split(",") for line in out.splitlines() if line.startswith("ratio_largest")]
    assert sum(int(c) for _, _, c in buckets) == 1000


@pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1.5e0", "1e-5", "1e99999"])
def test_count_arg_rejects_non_integral(capsys, text):
    with pytest.raises(SystemExit) as exc:
        main(["test", text, "--phi"])
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_huge_count_limit_is_a_capacity_error(capsys):
    code, out, err = run_cli(capsys, "count", "--phi", "--limit", "1e400")
    assert code == 1
    assert out == ""
    assert "a count walk that far would not finish" in err


@pytest.mark.parametrize("limit", ["1e400", "1e12"])
@pytest.mark.parametrize(
    "argv",
    [
        ["orders", "--base", "2"],
        ["stats", "zdense", "--z", "3"],
        ["stats", "aq", "--base", "2", "--q", "3"],
        ["stats", "tau", "--kappa", "4"],
        ["stats", "omegaphi"],
        ["stats", "smoothlambda", "--B", "5", "--Y", "10"],
        ["stats", "ratios", "--base", "2"],
        ["stats", "smallorder", "--base", "2", "--bound", "10"],
    ],
    ids=["orders", "zdense", "aq", "tau", "omegaphi", "smoothlambda", "ratios", "smallorder"],
)
def test_table_limit_past_32_bits_exits_1(capsys, argv, limit):
    # Refused before any charge is computed: no float error from the prime
    # count bound, and no budget hint, since no budget lets such a table fit.
    code, out, err = run_cli(capsys, *argv, "--limit", limit)
    assert (code, out) == (1, "")
    assert "32-bit table entries" in err
    assert "convert to float" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["stats", "tau", "--limit", "10", "--kappa", "nan"],
        ["stats", "zdense", "--limit", "10", "--z", "inf"],
        ["stats", "smoothlambda", "--limit", "10", "--B", "inf", "--Y", "4"],
    ],
)
def test_non_finite_real_flags_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "not finite" in capsys.readouterr().err


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**30), st.integers(0, 60), st.integers(0, 8))
def test_count_arg_shorthand_property(mantissa, exponent, frac_digits):
    # mantissa * 10**exponent written with frac_digits digits after the point
    digits = str(mantissa).rjust(frac_digits + 1, "0")
    head, tail = digits[: len(digits) - frac_digits], digits[len(digits) - frac_digits :]
    text = f"{head}.{tail}e{exponent + frac_digits}" if frac_digits else f"{head}e{exponent}"
    assert _parse_count_arg(text) == mantissa * 10**exponent

