"""Special functions, bracketed root finding, and batched 1-D minimization.

Each routine has one vectorized implementation for floats and arrays; the
solvers solve every lane of their input in one call, as each would alone.
Each solver has one stopping rule, fixed here, and takes no tolerance:
Brent stops at _XTOL + _RTOL |x| (1e-12 and 1e-10) and raises MaxIterError
after _MAX_ITER steps; golden-section refinement stops at
b - a <= 1e-12 + 1e-10 (|a| + |b|) or after _MAX_ITER steps, behind a
_SCAN-point scan.

Everything here is a pure function of its arguments; no shared state, safe to
call from any number of threads.
"""

import math
from typing import Callable, Tuple, Union

import numpy as np

from . import BracketError, MaxIterError

# inputs within this distance of a domain boundary are snapped to the boundary
# (curve sweeps hit exact 0/1 abscissas and accumulate 1-ulp drift)
_EDGE = 1e-15

_LN4 = math.log(4.0)
_LOG2E = 1.0 / math.log(2.0)
_TINY = np.finfo(float).smallest_subnormal

# step budget of every Brent and golden-section solve
_MAX_ITER = 200
# Brent's stop (scipy's xtol and rtol): the bracket within _XTOL + _RTOL |x|
_XTOL, _RTOL = 1e-12, 1e-10

ArrayLike = Union[float, np.ndarray]


def float_or_array(x) -> ArrayLike:
    """A 0-d result as a plain float, any other array unchanged."""
    return float(x) if np.ndim(x) == 0 else x


def _clip_unit(x: ArrayLike, name: str) -> np.ndarray:
    """Validate x in [0,1], snapping values within _EDGE of the edges."""
    arr = np.asarray(x, dtype=float)
    if ((arr < -_EDGE) | (arr > 1.0 + _EDGE)).any():
        raise ValueError(f"{name} must lie in [0, 1]")
    return np.minimum(np.maximum(arr, 0.0), 1.0)


def binary_entropy(p: ArrayLike) -> ArrayLike:
    """H_b(p) = -p log2 p - (1-p) log2 (1-p), with 0 log 0 = 0.

    The (1-p) term goes through log1p, so the p log2 e it carries for tiny p
    is not lost to the rounding of 1-p.
    """
    arr = _clip_unit(p, "p")
    interior = (arr > 0.0) & (arr < 1.0)
    q = np.where(interior, arr, 0.5)
    h = -q * np.log2(q) - (1.0 - q) * (np.log1p(-q) * _LOG2E)
    return float_or_array(np.where(interior, h, 0.0))


def binary_entropy_inv(h: ArrayLike) -> ArrayLike:
    """Inverse of binary_entropy restricted to [0, 1/2].

    Safeguarded Newton on every entry at once: H is concave and increasing
    on [0, 1/2], so Newton started below the root climbs to it, and
    iterates are clipped to [start, 1/2] so the float noise of H near its
    flat top and its steep foot cannot throw them out.
    """
    arr = _clip_unit(h, "h")
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
        lp, lq = np.log2(p), np.log1p(-p) * _LOG2E
        p = np.minimum(np.maximum(
            p + (hh + p * lp + (1.0 - p) * lq) / (lq - lp), start), 0.5)
    return float_or_array(np.where(inner, p, np.where(arr >= 1.0, 0.5, 0.0)))


def bconv(a: ArrayLike, b: ArrayLike) -> ArrayLike:
    """Binary convolution a*b = (1-a)b + a(1-b): the end-to-end crossover of
    two cascaded symmetric binary mechanisms."""
    aa = _clip_unit(a, "a")
    bb = _clip_unit(b, "b")
    return float_or_array(aa + bb - 2.0 * aa * bb)


def _residual(f, x):
    fx = np.asarray(f(x), dtype=float)
    nan = np.isnan(fx)
    if nan.any():
        raise ValueError(f"residual is NaN at x={float(x[nan][0])!r}")
    return fx


def find_root(f: Callable[[np.ndarray], np.ndarray], lo: ArrayLike,
              hi: ArrayLike) -> ArrayLike:
    """Root of f in every lane [lo, hi] of the broadcast brackets, at once.

    f maps the array of lane abscissas to the array of lane residuals, each
    lane on its own, so every lane gets the root it would get alone. This is
    Brent's method (Brent 1973, ch. 4) stepped exactly as scipy.optimize's
    Brent solver steps it, stopping at _XTOL + _RTOL |x|, so the roots are
    bit-identical to scipy's; converged lanes stay frozen. Not
    Chandrupatla: a root is pinned only to ~1e-10 relative, so other
    iterates would move the curves past their 1e-12 reference.

    Float brackets give a float root. Raises ValueError for lo >= hi or a
    NaN residual, BracketError for a lane without a sign change, and
    MaxIterError for a lane still open after _MAX_ITER steps.
    """
    xpre, xcur = np.broadcast_arrays(np.asarray(lo, dtype=float),
                                     np.asarray(hi, dtype=float))
    if not np.all(xpre < xcur):
        raise ValueError("find_root needs lo < hi in every lane")
    fpre, fcur = _residual(f, xpre), _residual(f, xcur)
    live = (fpre != 0.0) & (fcur != 0.0)
    same = live & (np.signbit(fpre) == np.signbit(fcur))
    if same.any():
        raise BracketError(
            f"no sign change on [{xpre[same][0]}, {xcur[same][0]}]: "
            f"f(lo)={fpre[same][0]:.6g}, f(hi)={fcur[same][0]:.6g}")
    xcur = np.where(fpre == 0.0, xpre, xcur)
    xblk = fblk = spre = scur = np.zeros(xcur.shape)
    for _ in range(_MAX_ITER):
        # [xblk, xcur] is the bracket and xcur the better end; xpre is the
        # previous iterate, spre and scur the last two step lengths
        flip = (fpre != 0.0) & (fcur != 0.0) & (
            np.signbit(fpre) != np.signbit(fcur))
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        spre = np.where(flip, xcur - xpre, spre)
        scur = np.where(flip, xcur - xpre, scur)
        # make xcur the end with the smaller residual
        swap = live & (np.abs(fblk) < np.abs(fcur))
        xpre, fpre = np.where(swap, xcur, xpre), np.where(swap, fcur, fpre)
        xcur, fcur = np.where(swap, xblk, xcur), np.where(swap, fblk, fcur)
        xblk, fblk = np.where(swap, xpre, xblk), np.where(swap, fpre, fblk)
        delta = (_XTOL + _RTOL * np.abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        live &= (fcur != 0.0) & ~(np.abs(sbis) < delta)
        if not live.any():
            return float_or_array(xcur)
        # the discarded branches may divide by zero, as scipy's C code may
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            interp = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            extrap = (-fcur * (fblk * dblk - fpre * dpre)
                      / (dblk * dpre * (fblk - fpre)))
            stry = np.where(xpre == xblk, interp, extrap)
            bound = np.minimum(np.abs(spre), 3.0 * np.abs(sbis) - delta)
            short = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                     & (2.0 * np.abs(stry) < bound))
        spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)
        xpre, fpre = xcur, fcur
        # sbis != 0 on live lanes, so this is scipy's (sbis > 0 ? d : -d)
        step = np.where(np.abs(scur) > delta, scur, np.copysign(delta, sbis))
        xcur = np.where(live, xcur + step, xcur)
        fcur = np.where(live, _residual(f, xcur), fcur)
    raise MaxIterError(f"no convergence in {_MAX_ITER} iterations")


_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0

# most values one objective call may see; bounds the temporaries of a batch
# at 64 KiB each. Against 2^14, binary-thresholds peaks at 33.9 MiB RSS,
# not 34.7; 2^12 saves 0.5 MiB more there, but a 512-point d_hybrid takes
# about 51 ms at 2^12, 48 ms at 2^13 and 43 ms at 2^14 (2-core Xeon, best
# of 25)
_MAX_VALUES = 2 ** 13
# points of the coarse scan in front of the golden-section polish
_SCAN = 512


def _evaluate(f, p, x):
    """f(p, x) as a (len(p), width) array in calls of at most _MAX_VALUES
    values; x is one (width,) row shared by all p or one row per p."""
    rows = max(1, _MAX_VALUES // x.shape[-1])
    out = np.empty((len(p), x.shape[-1]))
    for s in range(0, len(p), rows):
        part = slice(s, s + rows)
        out[part] = f(p[part], x if x.ndim == 1 else x[part])
    return out


def _golden(f, p, a, b):
    """Golden-section descent on all cells [a, b] in lockstep; returns
    (x, f(x)) at each cell's final midpoint. Each cell takes exactly the
    steps it would take alone: a converged cell stays frozen."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = _evaluate(f, p, c), _evaluate(f, p, d)
    for _ in range(_MAX_ITER):
        done = b - a <= 1e-12 + 1e-10 * (np.abs(a) + np.abs(b))
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
                lo: float, hi: float, params) -> Tuple[np.ndarray, np.ndarray]:
    """Global scan + local polish on [lo, hi], one problem per parameter.

    `f(p, x)` is vectorized: p is a (k, 1) column of `params` entries, x a
    (_SCAN,) row or a (k, 3) array, and it returns f at the broadcast pairs.
    Returns (argmins, minima) arrays, one entry per parameter; each entry is
    what the parameter would get alone. Each problem gets a coarse scan over
    _SCAN points, then golden-section refinement inside the best grid cell
    and inside each boundary cell (the objectives this serves have argmin
    plateaus that end exactly at the interval edges). The result is never
    worse than the best scanned point. Ties within a few ulps go to the
    smallest argument, which pins plateau argmins to the exact endpoint.
    """
    if not lo < hi:
        raise ValueError("minimize_1d needs lo < hi")
    p = np.asarray(params, dtype=float).reshape(-1, 1)

    xs = np.linspace(lo, hi, _SCAN)
    fs = _evaluate(f, p, xs)
    best = np.argmin(fs, axis=1)[:, None]
    # cells [xs[i], xs[j]]: around the best grid point, then the two edges
    i = np.maximum(best - 1, 0) * [1, 0, 0] + [0, 0, _SCAN - 2]
    j = np.minimum(best + 1, _SCAN - 1) * [1, 0, 0] + [0, 1, _SCAN - 1]
    gx, gf = _golden(f, p, xs[i], xs[j])

    fmin = np.minimum(fs.min(axis=1), gf.min(axis=1))
    fuzz = 64.0 * np.finfo(float).eps * (1.0 + np.abs(fmin))
    within = (fmin + fuzz)[:, None]
    near = fs <= within
    # xs ascends, so the first scanned point within the fuzz is the smallest
    scanned = np.where(near.any(axis=1), xs[np.argmax(near, axis=1)], np.inf)
    polished = np.where(gf <= within, gx, np.inf).min(axis=1)
    return np.minimum(scanned, polished), fmin
