"""Command-line front end: practicality tests, count sieves, order dumps, scanners.

Exit status is 0 on success or when the reader closes stdout early, 2 on
usage errors (argparse), and 1 when a run fails on a capacity, value or file
error.  All output is UTF-8 with LF line endings; identical flags produce
byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from itertools import chain
from math import isfinite
from typing import Iterable

from .analysis import (
    a_q_primes,
    count_z_dense,
    dense_count_bound_ratio,
    lambda_order_ratio_stats,
    omega_phi_distribution,
    omega_phi_excess,
    omega_phi_threshold,
    small_order_count,
    smooth_lambda_part_count,
    tau_bound_ratio,
    resolve_thresholds,
    tau_threshold_count,
)
from .arith import MILLER_RABIN_PROVEN_BELOW, CapacityError, is_prime
from .counting import (
    count_p_practical_partitioned,
    count_phi_practical,
    render_csv,
    render_json,
    render_text,
    usable_cpu_count,
)
from .orders import sieve_order_star
from .practicality import (
    check_oracle_cap,
    degree_multiset,
    dp_coverage_oracle,
    is_p_practical,
    is_phi_practical,
    phi_degree_multiset,
)

STAT_SCANNERS = (
    "zdense",
    "aq",
    "ratios",
    "smallorder",
    "omegaphi",
    "tau",
    "smoothlambda",
)


_DECIMAL = re.compile(r"([+-]?\d+)(?:\.(\d*))?(?:[eE]([+-]?\d+))?")
# Largest decimal exponent a count flag may carry; keeps 10**k cheap to form.
MAX_COUNT_EXPONENT = 4000


def _parse_count_arg(text: str) -> int:
    """Integer flag value, accepting exact 1e6-style shorthand.

    ``<int>[.<digits>][e<int>]`` is read as mantissa digits times a power
    of ten in integer arithmetic, so 1e23 is exactly 10**23; a value with a
    nonzero fractional part is rejected, as are inf and nan.
    """
    try:
        return int(text)
    except ValueError:
        pass
    match = _DECIMAL.fullmatch(text.strip())
    if match is None:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    whole, frac, exp = match.groups()
    frac = frac or ""
    shift = int(exp or 0) - len(frac)
    if shift > MAX_COUNT_EXPONENT:
        raise argparse.ArgumentTypeError(f"too large: {text!r}")
    digits = int(whole + frac)
    if shift >= 0:
        return digits * 10**shift
    # |digits| < 10**len(whole + frac), so a larger divisor leaves digits itself.
    value, rest = divmod(digits, 10 ** min(-shift, len(whole + frac)))
    if rest:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return value


def _parse_finite(text: str) -> float:
    """Real flag value; inf and nan are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not isfinite(value):
        raise argparse.ArgumentTypeError(f"not finite: {text!r}")
    return value


def _parse_positive(text: str) -> int:
    value = _parse_count_arg(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def _parse_prime(text: str) -> int:
    """A prime flag value.  ``is_prime`` is proven only below psi_12, so a
    larger value is refused rather than trusted."""
    value = _parse_count_arg(text)
    if value >= MILLER_RABIN_PROVEN_BELOW:
        raise argparse.ArgumentTypeError(
            f"cannot certify a prime at or above {MILLER_RABIN_PROVEN_BELOW}: {text!r}"
        )
    if not is_prime(value):
        raise argparse.ArgumentTypeError(f"not a prime: {text!r}")
    return value


def _parse_checkpoints(text: str) -> list[int]:
    try:
        return [_parse_count_arg(part) for part in text.split(",") if part]
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"bad checkpoint list {text!r}: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclopract",
        description="Practicality tests and count tables for divisor degrees of x^n - 1.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="decide practicality of a single n")
    p_test.add_argument("n", type=_parse_positive)
    kind = p_test.add_mutually_exclusive_group(required=True)
    kind.add_argument("--prime", type=_parse_prime, help="test p-practicality for this prime")
    kind.add_argument("--phi", action="store_true", help="test phi-practicality")
    p_test.add_argument(
        "--witness",
        action="store_true",
        help="verify a reported witness gap against the subset-sum oracle",
    )
    p_test.set_defaults(func=_cmd_test)

    p_count = sub.add_parser("count", help="checkpointed counts up to a limit")
    kind = p_count.add_mutually_exclusive_group(required=True)
    kind.add_argument("--prime", type=_parse_prime)
    kind.add_argument("--phi", action="store_true")
    p_count.add_argument("--limit", type=_parse_positive, required=True)
    p_count.add_argument("--checkpoints", type=_parse_checkpoints, default=None)
    p_count.add_argument("--parts", type=_parse_positive, default=usable_cpu_count())
    p_count.add_argument("--format", choices=("csv", "json", "text"), default="csv")
    p_count.add_argument("--out", default=None)
    p_count.set_defaults(func=_cmd_count)

    p_orders = sub.add_parser("orders", help="dump an order-star table as CSV")
    p_orders.add_argument("--base", type=_parse_positive, required=True)
    p_orders.add_argument("--limit", type=_parse_positive, required=True)
    p_orders.add_argument("--out", default=None)
    p_orders.set_defaults(func=_cmd_orders)

    p_stats = sub.add_parser("stats", help="empirical scanners over n <= limit")
    p_stats.add_argument("scanner", choices=STAT_SCANNERS)
    p_stats.add_argument("--limit", type=_parse_positive, required=True)
    p_stats.add_argument("--z", type=_parse_finite, default=None)
    p_stats.add_argument("--q", type=_parse_prime, default=None)
    p_stats.add_argument("--base", type=_parse_positive, default=None)
    p_stats.add_argument("--bound", type=_parse_finite, default=None)
    p_stats.add_argument("--kappa", type=_parse_finite, default=None)
    p_stats.add_argument("--theta", type=_parse_finite, default=None)
    p_stats.add_argument("--B", type=_parse_finite, default=None)
    p_stats.add_argument("--Y", type=_parse_finite, default=None)
    p_stats.add_argument("--psi", type=_parse_finite, default=None)
    p_stats.add_argument("--format", choices=("csv", "json", "text"), default="csv")
    p_stats.add_argument("--out", default=None)
    p_stats.set_defaults(func=_cmd_stats)

    return parser


def _emit(chunks: Iterable[str], out: str | None) -> None:
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)


def _cmd_test(args) -> int:
    if args.phi:
        verdict = is_phi_practical(args.n)
        head = f"n={args.n} kind=phi"
    else:
        verdict = is_p_practical(args.n, args.prime)
        head = f"n={args.n} kind=p base={args.prime}"
    line = f"{head} practical={'yes' if verdict.practical else 'no'}"
    if not verdict.practical:
        line += f" witness_gap={verdict.witness_gap}"
        if args.witness:
            check_oracle_cap(args.n)
            ms = phi_degree_multiset(args.n) if args.phi else degree_multiset(args.n, args.prime)
            sound = dp_coverage_oracle(ms) == verdict
            line += f" witness_verified={'yes' if sound else 'NO'}"
            if not sound:
                print(line)
                return 1
    print(line)
    return 0


def _cmd_count(args) -> int:
    if args.phi:
        report = count_phi_practical(args.limit, args.checkpoints, parts=args.parts)
    else:
        report = count_p_practical_partitioned(
            args.prime, args.limit, args.checkpoints, parts=args.parts
        )
    renderer = {"csv": render_csv, "json": render_json, "text": render_text}[args.format]
    _emit((renderer(report),), args.out)
    return 0


def _cmd_orders(args) -> int:
    values = sieve_order_star(args.base, args.limit)
    rows = (f"{d},{values[d]}\n" for d in range(1, args.limit + 1))
    _emit(chain(("d,order_star\n",), rows), args.out)
    return 0


def _require(parser_hint: str, **needed):
    missing = [flag for flag, value in needed.items() if value is None]
    if missing:
        flags = ", ".join(f"--{m}" for m in missing)
        raise ValueError(f"scanner {parser_hint!r} requires {flags}")


def _stats_payload(args) -> tuple[dict, list[tuple[str, object, object]]]:
    """Run the chosen scanner; return (summary dict, CSV rows)."""
    limit = args.limit
    # Every scanner and the echo read this one dict.
    used = resolve_thresholds(
        limit, args.theta, Y=args.Y, B=args.B, Z=args.z, psi=args.psi, bound=args.bound
    )

    scanner = args.scanner
    rows: list[tuple[str, object, object]] = []
    result: dict = {}

    if scanner == "zdense":
        z = used["Z"]
        _require(scanner, z=z)
        count = count_z_dense(limit, z)
        ratio = dense_count_bound_ratio(limit, z, count)
        result = {"Z": z, "count": count, "bound_ratio": ratio}
        rows = [
            ("zdense_count", limit, count),
            ("zdense_bound_ratio", limit, f"{ratio:.6f}"),
        ]
    elif scanner == "aq":
        _require(scanner, base=args.base, q=args.q)
        pairs = a_q_primes(args.base, args.q, limit)
        result = {"base": args.base, "q": args.q, "primes": [p for p, _ in pairs]}
        rows = [("aq_prime", p, order) for p, order in pairs]
    elif scanner == "ratios":
        _require(scanner, base=args.base)
        orders = sieve_order_star(args.base, limit)
        psi = used["psi"]
        stats = lambda_order_ratio_stats(args.base, orders, psi=psi)
        counts = dict(sorted(stats.counts.items()))
        result = {"base": args.base, "counts": counts, "exceed_psi": stats.exceed_psi}
        rows = [("ratio_largest_prime", k, v) for k, v in counts.items()]
        if psi is not None:
            rows.append(("ratio_exceed_psi", limit, stats.exceed_psi))
    elif scanner == "smallorder":
        _require(scanner, base=args.base)
        bound = used["bound"]
        _require(scanner, bound=bound)
        count = small_order_count(sieve_order_star(args.base, limit), bound)
        result = {"base": args.base, "bound": bound, "count": count}
        rows = [
            ("small_order_bound", limit, repr(bound)),
            ("small_order_count", limit, count),
        ]
    elif scanner == "omegaphi":
        dist = omega_phi_distribution(limit)
        cutoff = omega_phi_threshold(limit)
        excess = omega_phi_excess(dist, limit)
        result = {"threshold": cutoff, "excess": excess, "distribution": dict(sorted(dist.items()))}
        rows = [("omega_phi", k, v) for k, v in sorted(dist.items())]
        rows.append(("omega_phi_threshold", limit, repr(cutoff)))
        rows.append(("omega_phi_excess", limit, excess))
    elif scanner == "tau":
        _require(scanner, kappa=args.kappa)
        count = tau_threshold_count(limit, args.kappa)
        ratio = tau_bound_ratio(limit, args.kappa, count)
        result = {"kappa": args.kappa, "count": count, "bound_ratio": ratio}
        rows = [
            ("tau_count", limit, count),
            ("tau_bound_ratio", limit, f"{ratio:.6f}"),
        ]
    elif scanner == "smoothlambda":
        smooth_bound = used["B"]
        threshold = used["Y"]
        _require(scanner, B=smooth_bound, Y=threshold)
        count = smooth_lambda_part_count(limit, smooth_bound, threshold)
        result = {"B": smooth_bound, "Y": threshold, "count": count}
        rows = [("smooth_lambda_count", limit, count)]
    else:  # pragma: no cover - argparse choices guard this
        raise ValueError(f"unknown scanner {scanner!r}")

    echo = {
        "theta": args.theta,
        "X": limit,
        "Y": used["Y"],
        "B": used["B"],
        "Z": used["Z"],
        "kappa": args.kappa,
        "psi": used["psi"],
    }
    summary = {"scanner": scanner, "limit": limit, "config": echo, "result": result}
    return summary, rows


def _cmd_stats(args) -> int:
    summary, rows = _stats_payload(args)
    if args.format == "json":
        _emit((json.dumps(summary, indent=2) + "\n",), args.out)
    elif args.format == "csv":
        lines = ["stat,n_or_prime,value"]
        lines.extend(f"{stat},{mid},{value}" for stat, mid, value in rows)
        _emit(("\n".join(lines) + "\n",), args.out)
    else:
        lines = [f"{stat} {mid} = {value}" for stat, mid, value in rows]
        _emit(("\n".join(lines) + "\n",), args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout, as `head` does: end quietly, as shell tools
        # do, with stdout on devnull so that the last flush at exit cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (CapacityError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
