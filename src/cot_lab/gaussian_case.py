"""Distortion curves for a diagonal-covariance Gaussian source carried over
a unit-variance additive white Gaussian noise channel under squared error,
with the reconstruction required to follow the source law.

The source is zero-mean with covariance diag(lambda_1 >= ... >= lambda_L),
the channel input obeys the power budget E[U^2] <= Gamma, and all rates are
in bits, so the channel supports 0.5*log2(Gamma+1) bits per use. The module
computes the common-randomness converse curve, the separation and uncoded
achievability curves, the hybrid analog/digital power split with its
one-dimensional optimization, the closed-form budget threshold where the
optimal split leaves zero, and the matching lower bound for purely linear
schemes. Scalar helpers cover the mismatched single-component case.

Means play no role in any curve: with matched source and reconstruction
laws the mean terms cancel from the squared loss, so everything here is
zero-mean and the covariance ingestion helper takes no mean.
"""

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .numkit import BracketError, find_root, float_or_array, minimize_1d
from .tables import GAUSSIAN_COLUMNS, CurveTable

# slack for the curve ordering; the curves come out of independent
# solvers, so exact float equality at coinciding points cannot be expected
_ROW_SLACK = 1e-9
# largest eigenvalue the curves take: the converse squares kappa * lambda
# over a kappa bracket that starts at 1, which overflows past about 1e154
_MAX_EIGENVALUE = 1e100


def _check_lambdas(lambdas, min_len=1) -> List[float]:
    lams = [float(v) for v in lambdas]
    if len(lams) < min_len:
        raise ValueError(f"need at least {min_len} eigenvalues")
    if any(not v > 0.0 for v in lams):
        raise ValueError("eigenvalues must be strictly positive")
    if any(math.isinf(v) for v in lams):
        raise ValueError("eigenvalues must be finite")
    if any(b > a for a, b in zip(lams, lams[1:])):
        raise ValueError("eigenvalues must be sorted descending")
    return lams


def _check_gamma(gamma):
    g = np.asarray(gamma, dtype=float)
    if not np.all(g >= 0.0):
        raise ValueError("gamma must be nonnegative")
    if np.any(np.isinf(g)):
        raise ValueError("gamma must be finite")
    return float_or_array(g)


def _budget_rate(gamma):
    """Bits per use bought by power budget gamma on the unit-noise channel."""
    return 0.5 * np.log2(gamma + 1.0)



@dataclass(frozen=True)
class GaussianConfig:
    """Eigenvalue list (descending, positive, length >= 2) plus the power
    grid the curve table will be evaluated on."""

    lambdas: Tuple[float, ...]
    gamma_grid: Tuple[float, ...]

    def __post_init__(self):
        lams = tuple(_check_lambdas(self.lambdas, min_len=2))
        if lams[0] > _MAX_EIGENVALUE:
            raise ValueError(f"eigenvalue {lams[0]!r} exceeds "
                             f"{_MAX_EIGENVALUE:g}, the largest the curves "
                             "take")
        object.__setattr__(self, "lambdas", lams)
        grid = tuple(float(g) for g in self.gamma_grid)
        if any(not g >= 0.0 for g in grid):
            raise ValueError("gamma grid values must be nonnegative")
        if any(b < a for a, b in zip(grid, grid[1:])):
            raise ValueError("gamma grid must be sorted ascending")
        object.__setattr__(self, "gamma_grid", grid)


# ------------------------------------------------------------- converse

def _gamma_of_kappa(kappa, lam):
    # positive root of kappa*g^2 + g - kappa*lam^2 = 0, written without the
    # subtractive cancellation the quadratic formula would have at small kappa
    x = kappa * lam
    return 2.0 * kappa * lam * lam / (1.0 + np.sqrt(1.0 + 4.0 * x * x))


def _rate_of_kappa(kappa, lams: Sequence[float]):
    """Total bits pinned down by the correlation multiplier kappa.

    Each component contributes -0.5*log2(1 - (g/lam)^2); the factor 1 - g/lam
    is expanded so that it stays accurate when g crowds lam.
    """
    total = 0.0
    for lam in lams:
        x = kappa * lam
        s = np.sqrt(1.0 + 4.0 * x * x)
        r = 2.0 * x / (1.0 + s)
        one_minus = (1.0 + 1.0 / (s + 2.0 * x)) / (1.0 + s)  # 1 at x = 0
        total = total - 0.5 * np.log2(one_minus * (1.0 + r))
    return total


def kappa_gammas(lambdas: Sequence[float], rate):
    """Correlation levels achievable between matched Gaussians at `rate` bits.

    Solves for the unique kappa > 0 whose per-component correlations
    gamma_l = (-1 + sqrt(1 + 4 kappa^2 lam_l^2)) / (2 kappa) spend exactly
    `rate` bits in total, and returns (kappa, [gamma_1, ..., gamma_L]).
    rate = 0 returns kappa = 0 with the all-zero vector. An array of rates
    gives arrays, the gammas on one more axis.
    """
    lams = _check_lambdas(lambdas)
    rate = np.asarray(rate, dtype=float)
    if np.any(rate < 0.0):
        raise ValueError("rate must be nonnegative")
    kappa = np.zeros(rate.shape)
    pos = rate > 0.0
    r = rate[pos]
    # each lane widens its own bracket exactly as a lone solve would
    hi = np.ones(r.shape)
    for _ in range(200):
        short = ~(_rate_of_kappa(hi, lams) >= r)
        if not short.any():
            break
        hi = np.where(short, hi * 4.0, hi)
    else:
        raise BracketError(f"rate {float(r[short][0])!r} not reachable at "
                           f"kappa {hi[short][0]:.3e}")
    lo = np.full(r.shape, 1e-9)
    for _ in range(200):
        over = ~(_rate_of_kappa(lo, lams) <= r)
        if not over.any():
            break
        lo = np.where(over, lo / 4.0, lo)
    kappa[pos] = find_root(lambda k: _rate_of_kappa(k, lams) - r, lo, hi)
    gams = _gamma_of_kappa(kappa[..., None], np.array(lams))
    if rate.ndim == 0:
        return float(kappa), gams.tolist()
    return kappa, gams


def d_lower(config: GaussianConfig, gamma):
    """Converse curve: the least squared cost any scheme with unlimited
    common randomness can reach at power budget gamma."""
    g = _check_gamma(gamma)
    _, gams = kappa_gammas(config.lambdas, _budget_rate(g))
    return 2.0 * float_or_array(np.sum(np.subtract(config.lambdas, gams),
                                       axis=-1))


# ----------------------------------------------------------- separation

def _waterfill(mu: Sequence[float], target):
    """Reverse waterfilling in closed form: the level omega solving
    prod mu_l / min(omega, mu_l) = target (mu descending, target >= 1) and
    the total sum of min(omega, mu_l), elementwise over the target array.

    The candidate active-set sizes are walked in increasing order, and the
    first k whose level clears the next eigenvalue is the true one (the
    k = len(mu) candidate always clears 0).
    """
    target = np.asarray(target, dtype=float)
    m = len(mu)
    omega, total = np.empty_like(target), np.empty_like(target)
    open_ = np.ones(target.shape, dtype=bool)
    prod = 1.0
    for k in range(1, m + 1):
        prod *= mu[k - 1]
        nxt = mu[k] if k < m else 0.0
        cand = prod / target if k == 1 else (prod / target) ** (1.0 / k)
        pick = open_ & (cand >= nxt)
        omega[pick] = cand[pick]
        total[pick] = k * cand[pick] + math.fsum(mu[k:])
        open_ &= ~pick
    return omega, total


def d_sep(config: GaussianConfig, gamma):
    """Source-channel separation without common randomness: twice the
    classical distortion-rate value at the channel's bit budget, whose
    waterfilling product is gamma + 1."""
    g = _check_gamma(gamma)
    _, total = _waterfill(config.lambdas, g + 1.0)
    return 2.0 * float_or_array(total)


# -------------------------------------------------------------- uncoded

def _uncoded(lams: Sequence[float], power):
    """2 sum(lambda) - 2 sqrt(P / (P + 1)) lambda_1: the squared cost of the
    largest component sent analog at receive power P, the others
    regenerated from scratch."""
    return float_or_array(2.0 * math.fsum(lams)
                          - 2.0 * np.sqrt(power / (power + 1.0)) * lams[0])


def d_uncoded(config: GaussianConfig, gamma):
    """Analog passthrough of the largest component, remaining components
    regenerated from scratch at the decoder."""
    return _uncoded(config.lambdas, _check_gamma(gamma))


# --------------------------------------------------------------- hybrid

def _hybrid_grid(lams: Sequence[float], gamma, alphas) -> np.ndarray:
    """Hybrid cost at every (gamma, alpha) pair, broadcasting the two: the
    analog head term plus the closed-form waterfilling of the coded tail."""
    x = (1.0 - alphas) * gamma
    head = (1.0 - np.sqrt(x / (x + 1.0))) * lams[0]
    _, total = _waterfill(lams[1:], (gamma + 1.0) / (x + 1.0))
    return 2.0 * (head + total)


def d_hybrid(config: GaussianConfig, gamma):
    """Hybrid cost minimized over the power split; returns (cost, alpha_opt).

    gamma is a float, giving floats, or an array, giving arrays of its
    shape, all budgets solved in one batch. The grid scan and the golden
    refinement both evaluate the closed form (no root solving inside the
    objective), and ties go to the smallest alpha, so on budgets where the
    objective rises from alpha = 0 the reported argmin is exactly 0.0
    rather than optimizer noise.
    """
    gs = np.asarray(_check_gamma(gamma))
    arg, val = minimize_1d(lambda g, a: _hybrid_grid(config.lambdas, g, a),
                           0.0, 1.0, gs)
    if gs.ndim == 0:
        return float(val[0]), float(arg[0])
    return val.reshape(gs.shape), arg.reshape(gs.shape)


def gamma_star(lambdas: Sequence[float]) -> float:
    """Power budget below which the optimal hybrid split is fully analog.

    Closed form from the stationarity of the hybrid cost at alpha = 0; the
    stationarity residual is re-checked at the returned point so a bad
    eigenvalue list cannot slip through silently.
    """
    lams = _check_lambdas(lambdas, min_len=2)
    l1, l2 = lams[0], lams[1]
    g = (-l2 + math.hypot(l1, l2)) / (2.0 * l2)
    resid = (math.sqrt(g) * l1 / (g + 1.0) ** 1.5
             - 2.0 * g * l2 / (g + 1.0))
    if not abs(resid) <= 1e-9:
        raise ArithmeticError(
            f"stationarity residual {resid:.3e} at gamma {g!r}")
    return g


# --------------------------------------------------------- linear bound

def linear_bound(lambdas: Sequence[float], g) -> float:
    """Least squared cost any linear scheme with channel-combining gains g
    can reach: the uncoded curve evaluated at the induced receive power."""
    lams = _check_lambdas(lambdas)
    gains = np.asarray(g, dtype=float)
    if gains.shape != (len(lams),):
        raise ValueError("gain vector length must match eigenvalue count")
    return _uncoded(lams, float(np.dot(gains * gains, np.asarray(lams))))


# ------------------------------------------------------------ the table

def gaussian_curves(config: GaussianConfig) -> CurveTable:
    """The four curves and alpha_opt at every budget of the grid. Raises
    ValueError naming the first budget whose alpha_opt leaves [0, 1] or
    whose curves break d_lower <= d_hybrid <= min(d_sep, d_uncoded) by more
    than _ROW_SLACK, so such a row never silently enters a table."""
    gs = np.array(config.gamma_grid)
    dhs, alphas = d_hybrid(config, gs)
    lower, sep = d_lower(config, gs), d_sep(config, gs)
    unc = d_uncoded(config, gs)
    for bad, rule in ((~((alphas >= 0.0) & (alphas <= 1.0)),
                       "alpha_opt in [0, 1]"),
                      (lower > dhs + _ROW_SLACK, "d_lower <= d_hybrid"),
                      (dhs > np.minimum(sep, unc) + _ROW_SLACK,
                       "d_hybrid <= min(d_sep, d_uncoded)")):
        if bad.any():
            raise ValueError(f"gamma {float(gs[bad][0])!r} violates {rule}")
    cols = (gs, lower, sep, unc, dhs, alphas)
    return CurveTable(GAUSSIAN_COLUMNS, zip(*(c.tolist() for c in cols)))


# ------------------------------------------------- scalar mismatched case

def _check_toy(gamma, sigma_x, sigma_y):
    g = _check_gamma(gamma)
    sx, sy = float(sigma_x), float(sigma_y)
    if not (sx >= 0.0 and sy >= 0.0):
        raise ValueError("standard deviations must be nonnegative")
    return g, sx, sy


def toy_gaussian_lower(gamma: float, mu_x: float = 0.0, sigma_x: float = 1.0,
                       mu_y: float = 0.0, sigma_y: float = 1.0) -> float:
    """Scalar Gaussian-to-Gaussian floor with unlimited common randomness."""
    g, sx, sy = _check_toy(gamma, sigma_x, sigma_y)
    dm = float(mu_x) - float(mu_y)
    return dm * dm + sx * sx + sy * sy - 2.0 * math.sqrt(g / (g + 1.0)) * sx * sy


def toy_gaussian_sep(gamma: float, mu_x: float = 0.0, sigma_x: float = 1.0,
                     mu_y: float = 0.0, sigma_y: float = 1.0) -> float:
    """Scalar separation cost without common randomness; the cross term
    carries the budget factor itself rather than its square root."""
    g, sx, sy = _check_toy(gamma, sigma_x, sigma_y)
    dm = float(mu_x) - float(mu_y)
    return dm * dm + sx * sx + sy * sy - 2.0 * g / (g + 1.0) * sx * sy


# ------------------------------------------------------- matrix ingestion

def config_from_covariance(cov, gamma_grid) -> GaussianConfig:
    """Build a config from a full covariance matrix.

    The matrix must be symmetric (infinity-norm asymmetry at most 1e-9) and
    positive definite; its eigenvalues, sorted descending, become the config.
    """
    sig = np.asarray(cov, dtype=float)
    if sig.ndim != 2 or sig.shape[0] != sig.shape[1]:
        raise ValueError("covariance must be a square matrix")
    if float(np.max(np.abs(sig - sig.T))) > 1e-9:
        raise ValueError("covariance must be symmetric")
    vals = np.linalg.eigvalsh(sig)[::-1]
    return GaussianConfig(tuple(float(v) for v in vals), tuple(gamma_grid))
