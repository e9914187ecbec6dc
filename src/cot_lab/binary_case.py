"""Closed-form distortion curves for a Bernoulli source reproduced over a
binary symmetric channel under Hamming distortion, with the reconstruction
constrained to carry the source law.

Everything here is driven by two scalars: the source bias rho in (0, 1/2)
and the channel crossover theta in [0, 1/2]. The module provides the
converse curve, the separation and uncoded achievability curves, the
dither-based hybrid scheme with its one-dimensional parameter optimization,
the simplified hybrid curve, and a threshold scan that locates the theta
values where the optimized hybrid switches strategy.

The curve functions take theta as a float or as an array (one batched solve
per sweep). They accept rho = 1/2 as a degenerate boundary check; the grid
config object enforces the open interval.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .numkit import (
    bconv,
    binary_entropy,
    binary_entropy_inv,
    find_root,
    float_or_array,
    minimize_1d,
)
from .tables import CURVE_COLUMNS, CurveTable

# classifier tolerances: the argmin plateaus at 0 and rho are exact up to
# optimizer noise, while the simplified-curve match compares two root-find
# outputs, so it gets an order of magnitude more slack
_AT_ZERO = 1e-6
_AT_RHO = 1e-6
_AT_PRIME = 1e-5

# halvings labelled per threshold batch: five take a cell of an evenly
# spaced 256-point grid on [0, 1/2] (0.5/255 wide) below 1e-4, so such grids
# need one batch of at most 31 midpoints per switch
_BATCH_HALVINGS = 5


class GridTooCoarse(ValueError):
    """Threshold scan requested on a grid too sparse to classify modes."""


def _check_rho(rho, closed=False):
    hi_ok = rho <= 0.5 if closed else rho < 0.5
    if not (0.0 < rho and hi_ok):
        raise ValueError("rho must lie in (0, 1/2]" if closed
                         else "rho must lie in (0, 1/2)")
    return float(rho)


def _check_theta(theta) -> np.ndarray:
    th = np.asarray(theta, dtype=float)
    if not np.all((th >= 0.0) & (th <= 0.5)):
        raise ValueError("theta must lie in [0, 1/2]")
    return th


def _check_delta1(rho, delta1) -> np.ndarray:
    d1 = np.asarray(delta1, dtype=float)
    if not np.all((d1 >= 0.0) & (d1 <= rho)):
        raise ValueError("delta1 must lie in [0, rho]")
    return d1


@dataclass(frozen=True)
class BinaryConfig:
    rho: float
    theta_grid: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "rho", _check_rho(self.rho))
        grid = tuple(float(t) for t in self.theta_grid)
        if any(not 0.0 <= t <= 0.5 for t in grid):
            raise ValueError("theta grid values must lie in [0, 1/2]")
        if any(b < a for a, b in zip(grid, grid[1:])):
            raise ValueError("theta grid must be sorted ascending")
        object.__setattr__(self, "theta_grid", grid)


# ------------------------------------------------------------- converse

def rate_of_distortion(rho: float, d):
    """Information rate pinned down by a target coupling cost d.

    This is the implicit relation whose root defines the converse curve;
    exposed so tests can check the residual at returned roots. Valid for
    d in (0, 2(1-rho)rho].
    """
    def plog(x):
        return x * np.log2(np.where(x > 0.0, x, 1.0))

    return float_or_array(
        2.0 * binary_entropy(rho) + plog((2.0 - 2.0 * rho - d) / 2.0)
        + d * np.log2(d / 2.0) + plog((2.0 * rho - d) / 2.0))


def d_hat(rho: float, rate):
    """Minimum coupling cost at information budget `rate` (both B(rho)); 0
    at an infinite rate, ValueError on a negative or NaN one."""
    rho = _check_rho(rho, closed=True)
    rate = np.asarray(rate, dtype=float)
    if not np.all(rate >= 0.0):
        raise ValueError("rate must be nonnegative")
    dmax = 2.0 * (1.0 - rho) * rho
    out = np.where(rate == 0.0, dmax, 0.0)
    solve = (rate > 0.0) & (rate < binary_entropy(rho))
    r = rate[solve]
    out[solve] = find_root(lambda d: rate_of_distortion(rho, d) - r,
                           np.full(r.shape, 1e-15), dmax)
    return float_or_array(out)


def d_lower(rho: float, theta):
    """Converse: no scheme over the crossover-theta channel does better."""
    rho = _check_rho(rho, closed=True)
    theta = _check_theta(theta)
    out = np.zeros(theta.shape)
    past = theta > binary_entropy_inv(1.0 - binary_entropy(rho))
    out[past] = d_hat(rho, 1.0 - binary_entropy(theta[past]))
    return float_or_array(out)


# -------------------------------------------------------- basic schemes

def quantizer_noise(rho: float, rate):
    """Backward test-channel crossover of the optimal rate-`rate` quantizer."""
    return binary_entropy_inv(np.maximum(binary_entropy(rho) - rate, 0.0))


def d_sep(rho: float, theta):
    """Quantize-transmit-redither: distortion 2(1-delta)delta at capacity."""
    rho = _check_rho(rho, closed=True)
    theta = _check_theta(theta)
    delta = quantizer_noise(rho, 1.0 - binary_entropy(theta))
    return 2.0 * (1.0 - delta) * delta


def d_uncoded(rho: float, theta):
    """Best single-letter passthrough scheme and its decoder.

    The decoder is the pair (a, b) = (P{Y=1|V=0}, P{Y=0|V=1}); a = 0 is
    optimal and b restores the source law at the output.
    """
    rho = _check_rho(rho, closed=True)
    theta = _check_theta(theta)
    mix = bconv(rho, theta)
    b = float_or_array((1.0 - 2.0 * rho) * theta / mix)
    return float_or_array(2.0 * (1.0 - rho) * rho * theta / mix), (0.0, b)


# -------------------------------------------------------- hybrid scheme

def _hybrid_mix(rho, theta, delta1):
    """Total effective quantization crossover m = delta1 conv delta2, the
    digital crossover delta2 = (m - delta1) / (1 - 2 delta1) and the analog
    mix delta1 conv theta, as (m, delta2, mix).

    The digital stage absorbs whatever information the dithered analog stage
    cannot carry; when the analog stage alone satisfies the information
    condition, delta2 collapses to 0 and m is delta1 itself. Broadcasts over
    theta and delta1.
    """
    mix = bconv(delta1, theta)
    avail = 1.0 - binary_entropy(mix)
    h_rho = binary_entropy(rho)
    need = h_rho - binary_entropy(delta1)
    # clip keeps the discarded where-branch inside the inverse's domain
    forced = binary_entropy_inv(np.clip(h_rho - avail, 0.0, 1.0))
    m = np.where(need > avail, forced, delta1)
    return m, (m - delta1) / (1.0 - 2.0 * delta1), mix


def hybrid_params(rho: float, theta: float, delta1: float
                  ) -> Tuple[float, float, float]:
    """Remaining degrees of freedom (delta2, tau, beta) at a given delta1."""
    rho = _check_rho(rho)
    theta = _check_theta(theta)
    if theta == 0.0:
        raise ValueError("theta = 0 is degenerate here; the optimum is the "
                         "noiseless passthrough with all parameters 0")
    delta1 = _check_delta1(rho, delta1)
    m, delta2, mix = _hybrid_mix(rho, theta, delta1)
    tau = (rho - m) / (1.0 - 2.0 * m)
    beta = m / mix
    return float(np.clip(delta2, 0.0, 1.0)), float(np.clip(tau, 0.0, 1.0)), \
        float(np.clip(beta, 0.0, 1.0))


def hybrid_distortion(rho: float, theta, delta1):
    """End-to-end distortion of the hybrid scheme at a given split delta1.

    Broadcasts over theta and delta1, so the optimizer can scan a whole
    (theta x delta1) grid in one call. Rejects rho outside (0, 1/2), theta
    outside [0, 1/2] and delta1 outside [0, rho], NaN included.
    """
    rho = _check_rho(rho)
    theta = _check_theta(theta)
    d1 = _check_delta1(rho, delta1)
    m, d2, mix = _hybrid_mix(rho, theta, d1)
    return 2.0 * m * ((1.0 - d1 - d2) * theta + d1 * d2) / mix


def d_hybrid(rho: float, theta):
    """Optimized hybrid distortion and its argmin delta1 in [0, rho].

    theta is a float, giving (value, argmin) floats, or an array, giving
    arrays of its shape; all positive theta are solved in one batch, and
    theta = 0 gives (0, 0). The argmin jumps between plateaus (0, an
    interior root, rho) as theta moves, so the global grid scan in
    minimize_1d is load-bearing; local search alone would track the wrong
    branch across a switch.
    """
    rho = _check_rho(rho)
    th = _check_theta(theta)
    val, arg = np.zeros(th.shape), np.zeros(th.shape)
    pos = th > 0.0
    if pos.any():
        arg[pos], val[pos] = minimize_1d(
            lambda t, d1: hybrid_distortion(rho, t, d1), 0.0, rho, th[pos])
    if th.ndim == 0:
        return float(val), float(arg)
    return val, arg


def delta1_prime(rho: float, theta):
    """Simplified-scheme split: the delta in (0, rho] balancing the analog
    information surplus against the channel, or 0 when the channel already
    carries the source at full fidelity."""
    rho = _check_rho(rho)
    theta = _check_theta(theta)
    out = np.zeros(theta.shape)
    solve = binary_entropy(rho) > 1.0 - binary_entropy(theta)
    th = theta[solve]

    def resid(d):
        return (binary_entropy(bconv(d, th)) - binary_entropy(d)
                - (1.0 - binary_entropy(rho)))

    out[solve] = find_root(resid, np.full(th.shape, 1e-15), rho)
    return float_or_array(out)


def d_hybrid_simple(rho: float, theta):
    """Hybrid distortion with the split pinned to delta1_prime."""
    return _simple_distortion(theta, delta1_prime(rho, theta))


def _simple_distortion(theta, d1):
    """Distortion of the simplified hybrid scheme at split d1."""
    mix = bconv(d1, theta)
    # mix is 0 only at d1 = theta = 0, where the distortion is 0
    return float_or_array(2.0 * (1.0 - d1) * d1 * theta
                          / np.where(mix > 0.0, mix, 1.0))


# ------------------------------------------------------ mode thresholds

def _label(arg: float, prime: float, rho: float) -> str:
    """Which strategy the argmin `arg` is, given delta1_prime `prime`."""
    if arg <= _AT_ZERO:
        return "SEP"
    if abs(arg - prime) <= _AT_PRIME:
        # checked before the rho plateau: the simplified split converges to
        # rho as theta approaches 1/2, where both labels describe the argmin
        return "SIMPLE"
    if abs(arg - rho) <= _AT_RHO:
        return "UNCODED"
    return "NONE"


def _modes(rho: float, thetas) -> list:
    """Which known strategy the optimized hybrid argmin coincides with at
    every theta, with one batch of each solve."""
    th = np.asarray(thetas, dtype=float)
    _, args = d_hybrid(rho, th)
    return [_label(a, p, rho) for a, p in
            zip(args.tolist(), delta1_prime(rho, th).tolist())]


def _midpoints(lo: float, hi: float, depth: int) -> list:
    """Every midpoint the bisection of [lo, hi] to 1e-4 can visit within
    `depth` halvings, whichever way each label falls."""
    if depth == 0 or not hi - lo > 1e-4:
        return []
    mid = 0.5 * (lo + hi)
    return ([mid] + _midpoints(lo, mid, depth - 1)
            + _midpoints(mid, hi, depth - 1))


def thresholds(config: BinaryConfig) -> Tuple[Tuple[float, str], ...]:
    """Mode-switch abscissas of the optimized hybrid over the theta grid.

    Labels the whole grid with one batched solve, then refines every label
    change by bisection to 1e-4: all the midpoints the bisections can visit
    are labelled in one more batch (one per five halvings, where a grid has
    wider cells than an even 256-point grid on [0, 1/2]), and each change
    walks its own path through them. Returns (theta, "LEFT->RIGHT") pairs
    in grid order.

    theta = 1/2 is excluded from the scan: the channel has zero capacity
    there, the objective is constant in delta1, and any label the argmin
    happens to carry would be an artifact of tie-breaking.
    """
    if len(config.theta_grid) < 256:
        raise GridTooCoarse("threshold scan needs at least 256 grid points")
    grid = [t for t in config.theta_grid if t < 0.5]
    labels = _modes(config.rho, grid)
    # each label change as a [lo, hi, left label, right label] cell
    cells = [[t0, t1, l0, l1] for t0, t1, l0, l1
             in zip(grid, grid[1:], labels, labels[1:]) if l0 != l1]
    # a label depends on theta alone, so a batch gives each cell the labels
    # its own bisection would see; a wider cell of an uneven grid takes one
    # more batch for each _BATCH_HALVINGS halvings
    while live := [cell for cell in cells if cell[1] - cell[0] > 1e-4]:
        mids = [mid for lo, hi, _, _ in live
                for mid in _midpoints(lo, hi, _BATCH_HALVINGS)]
        label_at = dict(zip(mids, _modes(config.rho, mids)))
        for cell in live:
            for _ in range(_BATCH_HALVINGS):
                if not cell[1] - cell[0] > 1e-4:
                    break
                mid = 0.5 * (cell[0] + cell[1])
                if label_at[mid] == cell[2]:
                    cell[0] = mid
                else:
                    cell[1] = mid
    return tuple((0.5 * (lo + hi), f"{l0}->{l1}") for lo, hi, l0, l1 in cells)


# ------------------------------------------------------------ the table

def binary_curves(config: BinaryConfig) -> CurveTable:
    rho, th = config.rho, np.array(config.theta_grid)
    dhs, args = d_hybrid(rho, th)
    d1p = delta1_prime(rho, th)
    cols = (th, d_lower(rho, th), d_sep(rho, th), d_uncoded(rho, th)[0],
            dhs, _simple_distortion(th, d1p), args, d1p)
    return CurveTable(CURVE_COLUMNS, zip(*(c.tolist() for c in cols)))
