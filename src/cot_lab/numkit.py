"""Special functions, bracketed root finding, and batched 1-D minimization.

Everything here is a pure function of its arguments; no shared state, safe to
call from any number of threads.
"""

import math
from dataclasses import dataclass
from typing import Callable, Tuple, Union

import numpy as np
from scipy import optimize

# inputs within this distance of a domain boundary are snapped to the boundary
# (curve sweeps hit exact 0/1 abscissas and accumulate 1-ulp drift)
_EDGE = 1e-15

_LN4 = math.log(4.0)
_LOG2E = 1.0 / math.log(2.0)
_TINY = np.finfo(float).smallest_subnormal

ArrayLike = Union[float, np.ndarray]


class BracketError(ValueError):
    """The supplied bracket does not contain a sign change."""


class MaxIterError(RuntimeError):
    """Iteration budget exhausted before reaching the requested tolerance."""


@dataclass(frozen=True)
class Tolerance:
    """Convergence knobs shared by the solvers in this package."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be positive")
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class Bracket:
    """An interval [lo, hi] handed to find_root; lo < hi is checked here,
    the sign change is checked at call time."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("bracket needs lo < hi")


def _clip_unit(x: ArrayLike, name: str) -> ArrayLike:
    """Validate x in [0,1], snapping values within _EDGE of the edges.

    Floats (np.float64 included) take a plain-Python route and come back as
    0-d np.float64; the per-theta root finds call this in tight loops, where
    np.asarray/np.any/np.clip cost several times the arithmetic.
    """
    if isinstance(x, float):
        if x < -_EDGE or x > 1.0 + _EDGE:
            raise ValueError(f"{name} must lie in [0, 1]")
        return np.float64(0.0 if x < 0.0 else 1.0 if x > 1.0 else x)
    arr = np.asarray(x, dtype=float)
    if np.any(arr < -_EDGE) or np.any(arr > 1.0 + _EDGE):
        raise ValueError(f"{name} must lie in [0, 1]")
    return np.clip(arr, 0.0, 1.0)


def binary_entropy(p: ArrayLike) -> ArrayLike:
    """H_b(p) = -p log2 p - (1-p) log2 (1-p), with 0 log 0 = 0.

    Accepts scalars or arrays; scalars come back as plain floats.
    """
    arr = _clip_unit(p, "p")
    if arr.ndim == 0:
        # scalar fast path: the per-theta root finds call this in tight loops
        x = float(arr)
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)
    out = np.zeros_like(arr)
    interior = (arr > 0.0) & (arr < 1.0)
    q = arr[interior]
    out[interior] = -q * np.log2(q) - (1.0 - q) * np.log2(1.0 - q)
    return out


def binary_entropy_inv(h: ArrayLike) -> ArrayLike:
    """Inverse of binary_entropy restricted to [0, 1/2].

    Scalars use bisection on the monotone branch. Arrays use safeguarded
    Newton so curve sweeps can invert a whole grid in one call: H is concave
    and increasing on [0, 1/2], so Newton started below the root climbs to
    it, and iterates are clipped to [start, 1/2] so the float noise of H
    near its flat top and its steep foot cannot throw them out.
    """
    arr = _clip_unit(h, "h")
    if arr.ndim == 0:
        hh = float(arr)
        if hh <= 0.0:
            return 0.0
        if hh >= 1.0:
            return 0.5
        lo, hi = 0.0, 0.5
        # 1075 halvings of 1/2 reach the smallest subnormal
        for _ in range(1075):
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if (-mid * math.log2(mid)
                    - (1.0 - mid) * math.log2(1.0 - mid)) < hh:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)
    inner = (arr > 0.0) & (arr < 1.0)
    hh = np.where(inner, arr, 0.5)
    # two lower bounds on the root, from H(p) <= (4p(1-p))^(1/ln 4) (tight
    # at 1/2) and from H(p) <= p log2(e/p) (tight at 0, valid for h <= 1/2)
    y = hh ** _LN4
    start = np.maximum(y / (2.0 * (1.0 + np.sqrt(1.0 - y))),
                       np.where(hh <= 0.5,
                                hh / (2.0 * (_LOG2E - np.log2(hh))), 0.0))
    start = np.maximum(start, _TINY)
    p = start
    # four steps reach the float noise floor of H from either bound; two
    # more are margin
    for _ in range(6):
        lp, lq = np.log2(p), np.log2(1.0 - p)
        p = np.clip(p + (hh + p * lp + (1.0 - p) * lq) / (lq - lp),
                    start, 0.5)
    return np.where(inner, p, np.where(arr >= 1.0, 0.5, 0.0))


def bconv(a: ArrayLike, b: ArrayLike) -> ArrayLike:
    """Binary convolution a*b = (1-a)b + a(1-b): the end-to-end crossover of
    two cascaded symmetric binary mechanisms."""
    if (isinstance(a, float) and isinstance(b, float)
            and 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        return a + b - 2.0 * a * b
    aa = _clip_unit(a, "a")
    bb = _clip_unit(b, "b")
    out = aa + bb - 2.0 * aa * bb
    return float(out) if np.ndim(out) == 0 else out


def find_root(f: Callable[[float], float], bracket: Bracket,
              tol: Tolerance = Tolerance()) -> float:
    """Root of f inside the bracket.

    Brent-style bracketed iteration (bisection with secant/inverse-quadratic
    acceleration) so termination is guaranteed even where f is steep or flat
    near an endpoint. Raises BracketError when f(lo) and f(hi) have the same
    strict sign, MaxIterError when max_iter is hit.
    """
    flo = f(bracket.lo)
    fhi = f(bracket.hi)
    if flo == 0.0:
        return bracket.lo
    if fhi == 0.0:
        return bracket.hi
    if flo * fhi > 0.0:
        raise BracketError(
            f"no sign change on [{bracket.lo}, {bracket.hi}]: "
            f"f(lo)={flo:.6g}, f(hi)={fhi:.6g}")
    # brentq refuses rtol below 4*eps
    rtol = max(tol.rel_tol, 4.0 * np.finfo(float).eps)
    try:
        return float(optimize.brentq(f, bracket.lo, bracket.hi,
                                     xtol=tol.abs_tol, rtol=rtol,
                                     maxiter=tol.max_iter))
    except RuntimeError as exc:  # scipy signals non-convergence this way
        raise MaxIterError(str(exc)) from exc


_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0

# most values one objective call may see; bounds the temporaries of a batch
_MAX_VALUES = 2 ** 14


def _evaluate(f, p, x):
    """f(p, x) as a (len(p), width) array in calls of at most _MAX_VALUES
    values; x is one (width,) row shared by all p or one row per p."""
    rows = max(1, _MAX_VALUES // x.shape[-1])
    out = np.empty((len(p), x.shape[-1]))
    for s in range(0, len(p), rows):
        part = slice(s, s + rows)
        out[part] = f(p[part], x if x.ndim == 1 else x[part])
    return out


def _golden(f, p, a, b, tol):
    """Golden-section descent on all cells [a, b] in lockstep; returns
    (x, f(x)) at each cell's final midpoint. Each cell takes exactly the
    steps it would take alone: a converged cell stays frozen."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = _evaluate(f, p, c), _evaluate(f, p, d)
    for _ in range(tol.max_iter):
        done = b - a <= tol.abs_tol + tol.rel_tol * (np.abs(a) + np.abs(b))
        live = ~done
        if not live.any():
            break
        lt = fc < fd
        left, right = live & lt, live & ~lt
        # left: the minimum is in [a, d], so d becomes b and c becomes d;
        # right: it is in [c, b], so c becomes a and d becomes c
        a, b = np.where(right, c, a), np.where(left, d, b)
        c, d = (np.where(left, b - _INV_PHI * (b - a), np.where(right, d, c)),
                np.where(right, a + _INV_PHI * (b - a), np.where(left, c, d)))
        fc, fd = np.where(right, fd, fc), np.where(left, fc, fd)
        fnew = _evaluate(f, p, np.where(left, c, d))
        fc, fd = np.where(left, fnew, fc), np.where(right, fnew, fd)
    pick = fc < fd
    return np.where(pick, c, d), np.where(pick, fc, fd)


def minimize_1d(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                lo: float, hi: float, params, grid: int = 512,
                tol: Tolerance = Tolerance()) -> Tuple[np.ndarray, np.ndarray]:
    """Global scan + local polish on [lo, hi], one problem per parameter.

    `f(p, x)` is vectorized: p is a (k, 1) column of `params` entries, x a
    (grid,) row or a (k, 3) array, and it returns f at the broadcast pairs.
    Returns (argmins, minima) arrays, one entry per parameter; each entry is
    what the parameter would get alone. Each problem gets a coarse scan over
    `grid` points, then golden-section refinement inside the best grid cell
    and inside each boundary cell (the objectives this serves have argmin
    plateaus that end exactly at the interval edges). The result is never
    worse than the best scanned point. Ties within a few ulps go to the
    smallest argument, which pins plateau argmins to the exact endpoint.
    """
    if not lo < hi:
        raise ValueError("minimize_1d needs lo < hi")
    if grid < 16:
        raise ValueError("grid must be at least 16 points")
    p = np.asarray(params, dtype=float).reshape(-1, 1)

    xs = np.linspace(lo, hi, grid)
    fs = _evaluate(f, p, xs)
    best = np.argmin(fs, axis=1)[:, None]
    # cells [xs[i], xs[j]]: around the best grid point, then the two edges
    i = np.maximum(best - 1, 0) * [1, 0, 0] + [0, 0, grid - 2]
    j = np.minimum(best + 1, grid - 1) * [1, 0, 0] + [0, 1, grid - 1]
    gx, gf = _golden(f, p, xs[i], xs[j], tol)

    fmin = np.minimum(fs.min(axis=1), gf.min(axis=1))
    fuzz = 64.0 * np.finfo(float).eps * (1.0 + np.abs(fmin))
    within = (fmin + fuzz)[:, None]
    near = fs <= within
    # xs ascends, so the first scanned point within the fuzz is the smallest
    scanned = np.where(near.any(axis=1), xs[np.argmax(near, axis=1)], np.inf)
    polished = np.where(gf <= within, gx, np.inf).min(axis=1)
    return np.minimum(scanned, polished), fmin
