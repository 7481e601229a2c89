"""Practicality of x^n - 1 divisor degrees over F_p and Z, with count sieves."""

from .analysis import (
    a_q_primes,
    count_z_dense,
    lambda_order_ratio_stats,
    lambda_star_table,
    omega_phi_distribution,
    omega_phi_excess,
    omega_phi_threshold,
    resolve_thresholds,
    small_order_count,
    smooth_lambda_part_count,
    tau_threshold_count,
)
from .arith import (
    Factorization,
    build_spf_table,
    carmichael_lambda,
    divisor_phi_pairs,
    factorize_trial,
    is_prime,
    tau,
)
from .counting import (
    count_p_practical_partitioned,
    count_phi_practical,
    ratio_row,
    render_csv,
    render_json,
    render_text,
)
from .errors import CapacityError
from .orders import (
    coprime_part,
    mult_order,
    mult_order_star,
    sieve_order_star,
)
from .practicality import (
    DegreeMultiset,
    degree_multiset,
    dp_coverage_oracle,
    is_p_practical,
    is_phi_practical,
    phi_degree_multiset,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "DegreeMultiset",
    "Factorization",
    "a_q_primes",
    "build_spf_table",
    "carmichael_lambda",
    "coprime_part",
    "count_p_practical_partitioned",
    "count_phi_practical",
    "count_z_dense",
    "degree_multiset",
    "divisor_phi_pairs",
    "dp_coverage_oracle",
    "factorize_trial",
    "is_p_practical",
    "is_phi_practical",
    "is_prime",
    "lambda_order_ratio_stats",
    "lambda_star_table",
    "mult_order",
    "mult_order_star",
    "omega_phi_distribution",
    "omega_phi_excess",
    "omega_phi_threshold",
    "phi_degree_multiset",
    "ratio_row",
    "render_csv",
    "render_json",
    "render_text",
    "resolve_thresholds",
    "sieve_order_star",
    "small_order_count",
    "smooth_lambda_part_count",
    "tau",
    "tau_threshold_count",
]
