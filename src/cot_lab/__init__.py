"""Distortion curves, capacity/OT solvers, and simulators for channel-aware
optimal transport with a perfect-realism (matched output marginal) constraint.

Submodules:
    numkit        special functions, root finding, batched 1-D minimization
    infokit       discrete distributions, information measures, capacity, OT
    hybrid_bound  single-letter hybrid achievability evaluator
    binary_case   Bernoulli source over a binary symmetric channel, Hamming cost
    gaussian_case diagonal Gaussian source over AWGN(1), squared-error cost
    block_sim     Monte Carlo simulators and the block random-coding harness
    cli           command-line front end
"""

__version__ = "0.1.0"

# the curve schemas, which the CLI reads without loading numpy or the
# dataclass machinery of tables.CurveTable
CURVE_COLUMNS = ("theta", "d_lower", "d_sep", "d_uncoded", "d_hybrid",
                 "d_hybrid_simple", "delta1_opt", "delta1_prime")
GAUSSIAN_COLUMNS = ("gamma", "d_lower", "d_sep", "d_uncoded", "d_hybrid",
                    "alpha_opt")


# the numerical failures the CLI maps to exit 2, importable without numpy

class BracketError(ValueError):
    """The supplied bracket does not contain a sign change."""


class MaxIterError(RuntimeError):
    """Step budget exhausted before the solver's stopping rule was met."""


class SinkhornDivergence(RuntimeError):
    """The entropic transport solve missed its marginal stop within its step
    budget, or the rate-limited solve found no root of I(lambda) = rate
    within its range of lambda."""
