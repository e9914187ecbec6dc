import decimal
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import optimize

import cot_lab
from cot_lab import numkit
from cot_lab.numkit import (BracketError, MaxIterError, bconv, binary_entropy,
                            binary_entropy_inv, find_root, minimize_1d)


# ---------------------------------------------------------------- oracles

def entropy_highprec(p: str) -> float:
    """Independent H_b evaluator at 50 significant digits via decimal.ln."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        pp = decimal.Decimal(p)
        q = 1 - pp
        ln2 = decimal.Decimal(2).ln()
        h = -(pp * pp.ln() + q * q.ln()) / ln2
        return float(h)


def bisection_entropy_inv(hh: float) -> float:
    """H_b inverse on [0, 1/2] by plain bisection on floats."""
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


def dense_grid_argmin(f, lo, hi, points=1_000_000):
    xs = np.linspace(lo, hi, points)
    fs = f(xs)
    i = int(np.argmin(fs))
    return xs[i], fs[i]


# ---------------------------------------------------------- binary_entropy

def test_entropy_endpoints_and_max():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0


def test_entropy_against_high_precision_oracle():
    for p in ["0.11", "0.25", "0.35", "0.05", "0.499"]:
        assert binary_entropy(float(p)) == pytest.approx(
            entropy_highprec(p), abs=1e-14)


def test_entropy_keeps_the_p_log2_e_term_at_tiny_p():
    # -(1-p) log2(1-p) is about p log2 e here; forming 1-p first loses it
    p = 2.134283e-14
    want = entropy_highprec(repr(p))
    assert abs(binary_entropy(p) - want) <= 1e-12 * want


def test_entropy_value_near_half_bit():
    # H_b(0.11) ~ 0.49992; direct series value
    assert binary_entropy(0.11) == pytest.approx(0.4999159581645280, abs=1e-12)


def test_entropy_domain_error():
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


def test_entropy_edge_snap():
    # values a hair outside [0,1] from accumulated roundoff are accepted
    assert binary_entropy(-1e-16) == 0.0
    assert binary_entropy(1.0 + 1e-16) == 0.0


def test_entropy_vectorized_matches_scalar():
    ps = np.linspace(0.0, 1.0, 257)
    vec = binary_entropy(ps)
    assert vec.shape == ps.shape
    for p, v in zip(ps, vec):
        assert v == binary_entropy(float(p))


# ------------------------------------------------------ binary_entropy_inv

def test_entropy_inv_endpoints():
    assert binary_entropy_inv(1.0) == 0.5
    assert binary_entropy_inv(0.0) == 0.0


def test_entropy_inv_value():
    assert binary_entropy_inv(0.4999159581645280) == pytest.approx(
        0.11, abs=1e-12)
    # the steep foot: far below 90 halvings of [0, 1/2]
    tiny = binary_entropy_inv(1e-300)
    array_root = float(binary_entropy_inv(np.array([1e-300]))[0])
    assert tiny == pytest.approx(array_root, rel=1e-12)
    assert abs(binary_entropy(tiny) - 1e-300) <= 1e-3 * 1e-300


def test_entropy_inv_roundtrips_through_oracle_at_tiny_h():
    p = binary_entropy_inv(1e-12)
    assert abs(entropy_highprec(repr(p)) - 1e-12) <= 1e-12 * 1e-12


def test_entropy_inv_domain_error():
    with pytest.raises(ValueError):
        binary_entropy_inv(1.5)
    with pytest.raises(ValueError):
        binary_entropy_inv(-0.2)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_entropy_roundtrip(h):
    p = binary_entropy_inv(h)
    assert 0.0 <= p <= 0.5
    assert abs(binary_entropy(p) - h) <= 1e-9


def test_entropy_inv_vectorized():
    hs = np.linspace(0.0, 1.0, 129)
    ps = binary_entropy_inv(hs)
    assert np.all(np.abs(binary_entropy(ps) - hs) <= 1e-9)


def test_entropy_inv_array_edges():
    hs = np.array([5e-324, 1e-300, 1e-12, 1.0 - 1e-12, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ps = binary_entropy_inv(hs)
    assert not np.any(np.isnan(ps))
    assert np.all((ps >= 0.0) & (ps <= 0.5))
    assert ps[-1] == 0.5
    assert np.all(np.abs(binary_entropy(ps) - hs) <= 1e-15)
    # on the steep foot the root is far below any fixed bisection depth;
    # H must still land on h in relative terms
    for p, h in zip(ps[1:3], hs[1:3]):
        assert abs(binary_entropy(p) - h) <= 1e-3 * h


def test_entropy_inv_array_matches_scalar_bisection():
    hs = np.concatenate([np.linspace(0.0, 1.0, 20001),
                         np.logspace(-300.0, -1.0, 2000),
                         1.0 - np.logspace(-15.0, -1.0, 500)])
    ps = binary_entropy_inv(hs)
    ref = np.array([bisection_entropy_inv(float(h)) for h in hs])
    # Near h = 1 the curve is flat, so a band of p about 1 ulp(1)/H'(p)
    # wide maps to the same float h and both answers are equally right;
    # measure the gap through the slope there.
    slope = np.log2(1.0 - ref) - np.log2(np.maximum(ref, 1e-300))
    assert np.all(np.abs(ps - ref) * np.minimum(slope, 1.0) <= 1e-15)
    assert np.all(np.abs(ps - ref)[slope >= 1.0] <= 1e-15)
    assert np.all(np.abs(binary_entropy(ps) - hs) <= 1e-15)


# ----------------------------------------------- float and array inputs

ROUTES = (float, np.float64, np.array)
UNIT_FUNCS = (binary_entropy, binary_entropy_inv,
              lambda v: bconv(v, 0.3), lambda v: bconv(0.3, v))


@pytest.mark.parametrize("x", [0.0, 1.0, -1e-16, 1.0 + 1e-16, 0.11, 0.25,
                               0.5, 0.9])
def test_float_routes_agree(x):
    for f in UNIT_FUNCS:
        got = [f(route(x)) for route in ROUTES]
        assert all(isinstance(g, float) for g in got)
        assert got[0] == got[1] == got[2]


@pytest.mark.parametrize("x", [-0.2, 1.5])
def test_float_routes_reject_out_of_range(x):
    for f in UNIT_FUNCS:
        for route in ROUTES:
            with pytest.raises(ValueError):
                f(route(x))


# ------------------------------------------------------------------ bconv

def test_bconv_identity_and_absorbing():
    for b in [0.0, 0.3, 0.5, 1.0]:
        assert bconv(0.0, b) == b
        assert bconv(0.5, b) == 0.5


def test_bconv_quarter():
    assert bconv(0.25, 0.25) == 0.375


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_bconv_commutes_and_stays_in_unit_interval(a, b):
    x = bconv(a, b)
    assert 0.0 <= x <= 1.0
    assert x == pytest.approx(bconv(b, a), abs=1e-15)


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_bconv_associative(a, b, c):
    assert bconv(a, bconv(b, c)) == pytest.approx(
        bconv(bconv(a, b), c), abs=1e-12)


@given(st.floats(0.0, 0.5), st.floats(0.0, 0.5))
def test_bconv_dominates_min_on_lower_half(a, b):
    assert bconv(a, b) >= min(a, b) - 1e-15


# -------------------------------------------------------------- find_root

def test_find_root_linear():
    assert find_root(lambda x: x - 1.0, 0.0, 2.0) == pytest.approx(
        1.0, abs=1e-10)


def test_find_root_sqrt2():
    r = find_root(lambda x: x * x - 2.0, 0.0, 2.0)
    assert isinstance(r, float)
    assert r == pytest.approx(math.sqrt(2.0), abs=1e-10)


def test_find_root_matches_entropy_inverse():
    r = find_root(lambda x: binary_entropy(x) - 0.5, 0.0, 0.5)
    assert r == pytest.approx(binary_entropy_inv(0.5), abs=1e-9)
    assert abs(binary_entropy(r) - 0.5) <= 1e-9


def test_find_root_accepts_root_at_endpoint():
    assert find_root(lambda x: x, 0.0, 1.0) == 0.0
    assert find_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0
    # endpoint lanes stay put while the others iterate
    roots = find_root(lambda x: x - [0.0, 0.3, 1.0], np.zeros(3), 1.0)
    assert roots[0] == 0.0 and roots[2] == 1.0
    assert roots[1] == pytest.approx(0.3, abs=1e-10)


def test_find_root_no_sign_change():
    with pytest.raises(BracketError):
        find_root(lambda x: x * x + 1.0, -1.0, 1.0)
    # one bad lane among good ones
    with pytest.raises(BracketError):
        find_root(lambda x: x * x - [0.5, 2.0], np.zeros(2), 1.0)


def test_find_root_max_iter(monkeypatch):
    monkeypatch.setattr(numkit, "_MAX_ITER", 2)
    with pytest.raises(MaxIterError):
        find_root(lambda x: np.tanh(1e6 * (x - 0.123456789)), 0.0, 1.0)


def test_find_root_residual_on_monotone_family():
    ks = np.array([0.5, 1.0, 3.0, 10.0])
    roots = find_root(lambda x: np.expm1(ks * x) - 1.0, 0.0, np.full(4, 5.0))
    assert roots.shape == (4,)
    assert np.all(np.abs(np.expm1(ks * roots) - 1.0) <= 1e-8)


def test_bracket_validation():
    with pytest.raises(ValueError):
        find_root(lambda x: x, 1.0, 1.0)
    with pytest.raises(ValueError):
        find_root(lambda x: x - 0.5, np.array([0.0, 2.0]), 1.0)


def test_find_root_rejects_nan_residual():
    # the second lane's residual turns NaN at its first interior step
    def f(x):
        return np.where((x > 0.0) & (x < 1.0) & ([False, True]), np.nan,
                        x - 0.25)

    with pytest.raises(ValueError, match="NaN"):
        find_root(f, 0.0, np.ones(2))
    with pytest.raises(ValueError, match="NaN"):
        find_root(lambda x: x * np.nan, 0.0, 1.0)


def test_find_root_names_a_nan_residual_as_a_plain_float():
    # numpy 2 scalars repr as np.float64(...)
    with pytest.raises(ValueError, match=r"^residual is NaN at x=0\.0$"):
        find_root(lambda x: x * np.nan, 0.0, 1.0)


FAMILIES = {
    "cubic": (lambda c, x: x ** 3 - c, (0.01, 8.0), (0.0, 2.5)),
    "tanh": (lambda c, x: np.tanh(c * (x - 0.3)), (0.1, 1e4), (0.0, 1.0)),
    "expm1": (lambda c, x: np.expm1(c * x) - 1.0, (0.2, 10.0), (0.0, 5.0)),
    "entropy": (lambda c, x: binary_entropy(x) - c, (1e-6, 0.999),
                (1e-15, 0.5)),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_find_root_bit_identical_to_brentq(family):
    f, (c_lo, c_hi), (lo, hi) = FAMILIES[family]
    rng = np.random.default_rng(sorted(FAMILIES).index(family))
    cs = rng.uniform(c_lo, c_hi, 100)
    # upper ends up to 1% short of the family's, still above every root
    his = hi - (hi - lo) * rng.uniform(0.0, 0.01, 100)
    roots = find_root(lambda x: f(cs, x), lo, his)
    for c, b, r in zip(cs, his, roots):
        want = optimize.brentq(lambda x: float(f(np.array(c), np.array(x))),
                               lo, b, xtol=1e-12, rtol=1e-10,
                               maxiter=numkit._MAX_ITER)
        assert r == want


def test_numkit_imports_no_scipy():
    code = ("import sys, cot_lab.numkit; "
            "print('scipy' in sys.modules)")
    src = os.path.dirname(os.path.dirname(cot_lab.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"


# ------------------------------------------------------------ minimize_1d

def test_minimize_parabola():
    (x,), (fx,) = minimize_1d(lambda _, t: (t - 0.3) ** 2, 0.0, 1.0, [0.0])
    assert x == pytest.approx(0.3, abs=1e-8)
    assert fx == pytest.approx(0.0, abs=1e-15)


def test_minimize_constant_ties_to_smallest_argument():
    (x,), (fx,) = minimize_1d(lambda _, t: 0.0 * t + 1.0, 0.25, 2.0, [0.0])
    assert x == 0.25
    assert fx == 1.0


def test_minimize_boundary_plateau_returns_exact_endpoint():
    # flat-then-rising objective: argmin plateau ends at lo
    (x,), _ = minimize_1d(lambda _, t: np.maximum(t - 0.4, 0.0) ** 2,
                          0.0, 1.0, [0.0])
    assert x == 0.0


def test_minimize_matches_dense_grid_on_curve_objective():
    # same family as the hybrid-curve objective: 2(1-d)d*theta/(d conv theta)
    theta = 0.3

    def phi(d):
        return 2.0 * (1.0 - d) * d * theta / (d + theta - 2.0 * d * theta)

    # negate so the interior maximum becomes a minimum to hunt
    f = lambda d: -phi(d)
    x_star, f_star = dense_grid_argmin(f, 0.0, 0.25)
    (x,), (fx,) = minimize_1d(lambda _, d: f(d), 0.0, 0.25, [0.0])
    assert x == pytest.approx(x_star, abs=1e-6)
    assert fx <= f_star + 1e-12


def test_minimize_never_worse_than_grid():
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=(5, 4))

    for c in coeffs:
        f = lambda t, c=c: (c[0] * np.sin(3.0 * t) + c[1] * t ** 2
                            + c[2] * t + c[3] * np.cos(5.0 * t))
        (x,), (fx,) = minimize_1d(lambda _, t: f(t), -1.0, 2.0, [0.0])
        xs = np.linspace(-1.0, 2.0, numkit._SCAN)
        assert fx <= float(np.min(f(xs))) + 1e-12
        assert -1.0 <= x <= 2.0


def test_minimize_batch_equals_single_solves():
    # 40 problems on the 512-point scan span two chunks of 2**14 values
    shifts = np.linspace(-0.3, 1.4, 40)

    def f(p, t):
        return (np.maximum(np.abs(t - p) - 0.05, 0.0) ** 1.5
                + 0.1 * np.sin(7.0 * t))

    xs, fs = minimize_1d(f, 0.0, 1.0, shifts)
    for s, x, fx in zip(shifts, xs, fs):
        (x1,), (f1,) = minimize_1d(f, 0.0, 1.0, [s])
        assert (x, fx) == (x1, f1)


def test_minimize_validation():
    with pytest.raises(ValueError):
        minimize_1d(lambda _, t: t, 1.0, 0.0, [0.0])
