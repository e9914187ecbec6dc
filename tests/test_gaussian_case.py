"""Tests for the Gaussian curve module.

Root-returning operations are checked by plugging roots back into their
defining equations, and each curve is cross-checked against a route that
shares no code with the implementation: the converse against a direct grid
optimization of the per-component rate split, and the hybrid tail against
the multiplicity-aware plateau expression. The waterfilling levels come in
closed form, walked by active-set size as the `waterfill_closed` oracle is,
so their independent route is the product and rate residual tests, which
plug each level back into the equation it solves.
"""

import math

import numpy as np
import pytest

from cot_lab import gaussian_case
from cot_lab.gaussian_case import (
    GAUSSIAN_COLUMNS,
    GaussianConfig,
    _hybrid_grid,
    _waterfill,
    config_from_covariance,
    d_hybrid,
    d_lower,
    d_sep,
    d_uncoded,
    gamma_star,
    gaussian_curves,
    kappa_gammas,
    linear_bound,
    toy_gaussian_lower,
    toy_gaussian_sep,
)
from cot_lab.numkit import BracketError
from waterfill_spec import waterfill_sep

LAMS = (1.5, 0.5)
CFG = GaussianConfig(LAMS, (0.0, 1.0, 3.0))


# ----------------------------------------------------------------- oracles

def best_split_two(lams, rate, points=4001):
    """Directly optimized rate split for two components.

    Grid over the rate given to the first component; each side uses the
    single-component correlation lam*sqrt(1 - 2^(-2r)). No multiplier, no
    root solve, so it shares nothing with kappa_gammas.
    """
    l1, l2 = lams
    r1 = np.linspace(0.0, rate, points)
    corr = (l1 * np.sqrt(1.0 - np.exp2(-2.0 * r1))
            + l2 * np.sqrt(1.0 - np.exp2(-2.0 * (rate - r1))))
    return 2.0 * (l1 + l2) - 2.0 * float(corr.max())


def waterfill_closed(lams, rate):
    """Active-set closed form for the reverse waterfilling level."""
    lams = list(lams)
    for k in range(1, len(lams) + 1):
        prod = math.prod(lams[:k])
        omega = (prod * 2.0 ** (-2.0 * rate)) ** (1.0 / k)
        nxt = lams[k] if k < len(lams) else 0.0
        if nxt <= omega <= lams[k - 1]:
            return omega
    raise AssertionError("no active set bracketed the level")


def tail_target(gamma, alpha):
    """Waterfilling product the hybrid scheme's coded tail must meet when
    fraction alpha of the power goes to the digital part."""
    return (gamma + 1.0) / ((1.0 - alpha) * gamma + 1.0)


def tail_plateau_omega(lams, gamma, alpha):
    """Closed tail level under the second-eigenvalue multiplicity condition;
    returns None when the condition fails and the form does not apply."""
    lam2 = lams[1]
    mult = max(k for k in range(2, len(lams) + 1)
               if lams[k - 1] == lam2)
    nxt = lams[mult] if mult < len(lams) else 0.0
    ratio = ((1.0 - alpha) * gamma + 1.0) / (gamma + 1.0)
    omega = ratio ** (1.0 / (mult - 1)) * lam2
    if omega < nxt:
        return None
    return omega


# ------------------------------------------------------------------ config

def test_config_rejects_short_or_unsorted_eigenvalues():
    with pytest.raises(ValueError):
        GaussianConfig((1.0,), (0.0,))
    with pytest.raises(ValueError):
        GaussianConfig((0.5, 1.5), (0.0,))
    with pytest.raises(ValueError):
        GaussianConfig((1.5, 0.0), (0.0,))
    with pytest.raises(ValueError):
        GaussianConfig((1.5, -0.5), (0.0,))


def test_config_rejects_bad_gamma_grid():
    with pytest.raises(ValueError):
        GaussianConfig(LAMS, (-1.0, 0.0))
    with pytest.raises(ValueError):
        GaussianConfig(LAMS, (2.0, 1.0))


def test_config_allows_ties():
    cfg = GaussianConfig((1.0, 1.0, 0.5), (0.0, 0.0, 1.0))
    assert cfg.lambdas == (1.0, 1.0, 0.5)


def test_row_rejects_ordering_violations(monkeypatch):
    # each rule broken at the second budget of CFG only, so the error must
    # name gamma 1.0 and that rule
    hit = np.array([0.0, 1.0, 0.0])
    cases = [
        ("d_lower", lambda c, g: d_lower(c, g) + 3.0 * hit,
         "d_lower <= d_hybrid"),
        ("d_hybrid", lambda c, g: (d_hybrid(c, g)[0] + 3.0 * hit,
                                   d_hybrid(c, g)[1]),
         r"d_hybrid <= min\(d_sep, d_uncoded\)"),
        ("d_hybrid", lambda c, g: (d_hybrid(c, g)[0],
                                   d_hybrid(c, g)[1] + 1.5 * hit),
         r"alpha_opt in \[0, 1\]"),
    ]
    gaussian_curves(CFG)
    for name, fake, rule in cases:
        with monkeypatch.context() as m:
            m.setattr(gaussian_case, name, fake)
            with pytest.raises(ValueError, match=f"gamma 1.0 violates {rule}"):
                gaussian_curves(CFG)


# ---------------------------------------------------------------- converse

def test_kappa_gammas_zero_rate():
    kappa, gams = kappa_gammas(LAMS, 0.0)
    assert kappa == 0.0
    assert gams == [0.0, 0.0]


def test_kappa_gammas_single_component_closed_form():
    for lam in (0.3, 1.0, 4.0):
        for rate in (0.1, 0.5, 2.0):
            _, (gam,) = kappa_gammas((lam,), rate)
            assert gam == pytest.approx(
                lam * math.sqrt(1.0 - 2.0 ** (-2.0 * rate)), rel=1e-10)


def test_kappa_gammas_residual_at_root():
    rng = np.random.default_rng(7)
    for _ in range(25):
        lams = sorted(rng.uniform(0.05, 5.0, size=rng.integers(1, 5)),
                      reverse=True)
        rate = float(rng.uniform(0.01, 6.0))
        _, gams = kappa_gammas(lams, rate)
        spent = 0.5 * sum(math.log2(l * l / (l * l - g * g))
                          for l, g in zip(lams, gams))
        assert spent == pytest.approx(rate, abs=1e-9)
        assert all(0.0 < g < l for g, l in zip(gams, lams))


def test_kappa_gammas_rejects_negative_rate():
    with pytest.raises(ValueError):
        kappa_gammas(LAMS, -0.1)


def test_kappa_gammas_unreachable_rate():
    with pytest.raises(BracketError):
        kappa_gammas(LAMS, 1e9)


def test_kappa_gammas_names_an_unreachable_rate_as_a_plain_float():
    # numpy 2 scalars repr as np.float64(...); at lambda = 1e-300 the
    # doubling bracket tops out before the rate is spent
    with pytest.raises(BracketError, match=r"^rate 0\.0071 not reachable "
                                           r"at kappa 2\.582e\+120$"):
        kappa_gammas([1e-300], 0.0071)


def test_d_lower_matches_direct_split_optimization():
    for gamma in (0.4, 1.0, 3.0, 8.0):
        rate = 0.5 * math.log2(gamma + 1.0)
        assert d_lower(CFG, gamma) == pytest.approx(
            best_split_two(LAMS, rate), abs=1e-6)


def test_d_lower_endpoints_and_monotonicity():
    assert d_lower(CFG, 0.0) == pytest.approx(4.0, abs=1e-12)
    assert d_lower(CFG, 1e6) < 1e-2 * sum(LAMS)
    grid = np.linspace(0.0, 20.0, 40)
    vals = [d_lower(CFG, g) for g in grid]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_d_lower_rejects_negative_budget():
    with pytest.raises(ValueError):
        d_lower(CFG, -1.0)


# -------------------------------------------------------------- separation

def test_waterfill_zero_rate():
    omega, deltas = waterfill_sep(LAMS, 0.0)
    assert omega == 1.5
    assert deltas == [1.5, 0.5]


def test_waterfill_hand_value():
    omega, deltas = waterfill_sep(LAMS, 1.0)
    assert omega == pytest.approx(math.sqrt(3.0) / 4.0, abs=1e-12)
    assert deltas == [omega, omega]


def test_waterfill_matches_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(30):
        lams = sorted(rng.uniform(0.05, 5.0, size=rng.integers(1, 6)),
                      reverse=True)
        rate = float(rng.uniform(0.0, 5.0))
        omega, _ = waterfill_sep(lams, rate)
        assert omega == pytest.approx(waterfill_closed(lams, rate),
                                      rel=1e-9)


def test_waterfill_rate_budget_residual():
    for rate in (0.2, 1.0, 2.5):
        omega, deltas = waterfill_sep((2.0, 1.0, 0.1), rate)
        spent = sum(0.5 * math.log2(l / d)
                    for l, d in zip((2.0, 1.0, 0.1), deltas) if d < l)
        assert spent == pytest.approx(rate, abs=1e-9)


def test_d_sep_values():
    assert d_sep(CFG, 0.0) == pytest.approx(4.0, abs=1e-12)
    assert d_sep(CFG, 3.0) == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert d_sep(CFG, 1e6) < 1e-2


def test_d_sep_matches_closed_form_on_spread_eigenvalues():
    # a root solve on the level pins d_sep only to about 1e-11 relative
    # here; the closed form lands within rounding of the oracle
    lams = (2.0, 1.0, 1.0, 0.3, 0.05)
    cfg = GaussianConfig(lams, (0.0,))
    gammas = np.linspace(0.0, 500.0, 4096)
    for gamma, val in zip(gammas.tolist(), d_sep(cfg, gammas).tolist()):
        omega = waterfill_closed(lams, 0.5 * math.log2(gamma + 1.0))
        want = 2.0 * math.fsum(min(omega, lam) for lam in lams)
        assert val == pytest.approx(want, rel=1e-13)


def test_d_sep_equal_eigenvalue_plateau():
    # with all eigenvalues tied the level has a closed power form
    cfg = GaussianConfig((1.0, 1.0), (0.0,))
    for gamma in (0.5, 2.0, 9.0):
        assert d_sep(cfg, gamma) == pytest.approx(
            4.0 / math.sqrt(gamma + 1.0), rel=1e-9)
    # distinct head eigenvalue, condition holds while budget is small
    cfg = GaussianConfig((2.0, 1.0, 1.0), (0.0,))
    for gamma in (0.2, 0.8):
        if 2.0 / (gamma + 1.0) >= 1.0:
            assert d_sep(cfg, gamma) == pytest.approx(
                4.0 / (gamma + 1.0) + 4.0, rel=1e-9)


def test_d_lower_below_d_sep():
    for gamma in (0.1, 0.5, 1.0, 3.0, 10.0, 100.0):
        assert d_lower(CFG, gamma) <= d_sep(CFG, gamma) + 1e-12


# ----------------------------------------------------------------- uncoded

def test_d_uncoded_values():
    assert d_uncoded(CFG, 0.0) == pytest.approx(4.0, abs=1e-12)
    assert d_uncoded(CFG, 3.0) == pytest.approx(4.0 - 1.5 * math.sqrt(3.0),
                                                abs=1e-12)
    # saturates at twice the tail mass
    assert d_uncoded(CFG, 1e6) == pytest.approx(1.0, abs=1e-5)


def test_regime_crossover():
    # analog wins at low power, coded transmission wins at high power
    assert d_uncoded(CFG, 1e-4) < d_sep(CFG, 1e-4)
    assert d_uncoded(CFG, 1e3) > d_sep(CFG, 1e3)


def test_low_power_gap_rate():
    gamma = 1e-4
    gap = d_sep(CFG, gamma) - d_uncoded(CFG, gamma)
    assert gap / (2.0 * math.sqrt(gamma) * LAMS[0]) == pytest.approx(
        1.0, abs=0.1)


# ------------------------------------------------------------------ hybrid
# omega_hybrid: the coded tail's waterfilling level at a fixed split alpha;
# d_hybrid_at: the hybrid cost at a fixed split

def test_omega_hybrid_zero_alpha():
    omega, total = _waterfill(LAMS[1:], tail_target(3.0, 0.0))
    assert omega == 0.5
    assert total == 0.5


def test_omega_hybrid_hand_value():
    # tail budget (gamma+1)/((1-alpha)gamma+1) = 4/3 on the single tail
    # component gives level lambda_2 * 3/4
    omega, total = _waterfill(LAMS[1:], tail_target(3.0, 1.0 / 3.0))
    assert omega == pytest.approx(0.375, abs=1e-12)
    assert total == omega


def test_omega_hybrid_product_residual():
    rng = np.random.default_rng(3)
    for _ in range(25):
        lams = sorted(rng.uniform(0.05, 4.0, size=rng.integers(2, 6)),
                      reverse=True)
        cfg = GaussianConfig(tuple(lams), (0.0,))
        gamma = float(rng.uniform(0.0, 30.0))
        alpha = float(rng.uniform(0.0, 1.0))
        omega, total = _waterfill(lams[1:], tail_target(gamma, alpha))
        deltas = np.minimum(omega, lams[1:])
        prod = math.prod(l / d for l, d in zip(lams[1:], deltas))
        assert prod == pytest.approx(tail_target(gamma, alpha), rel=1e-9)
        assert total == pytest.approx(deltas.sum(), rel=1e-12)
        assert 0.0 < omega <= lams[1]


def test_omega_hybrid_matches_multiplicity_plateau():
    # tied second eigenvalue, third one far below: closed form applies
    cases = [
        ((2.0, 1.0, 1.0, 0.05), 3.0, 0.4),
        ((2.0, 1.0, 1.0), 5.0, 0.7),   # tie group runs to the end
        ((1.5, 0.5), 3.0, 1.0 / 3.0),
    ]
    for lams, gamma, alpha in cases:
        expected = tail_plateau_omega(lams, gamma, alpha)
        assert expected is not None
        omega, _ = _waterfill(lams[1:], tail_target(gamma, alpha))
        assert omega == pytest.approx(expected, rel=1e-9)


def test_d_hybrid_at_reduces_to_uncoded():
    for gamma in (0.0, 0.7, 3.0, 12.0):
        assert _hybrid_grid(LAMS, gamma, 0.0) == pytest.approx(
            d_uncoded(CFG, gamma), abs=1e-12)


def test_d_hybrid_at_hand_value():
    want = 2.0 * ((1.0 - math.sqrt(2.0 / 3.0)) * 1.5 + 0.375)
    assert _hybrid_grid(LAMS, 3.0, 1.0 / 3.0) == pytest.approx(want,
                                                               abs=1e-12)


def test_d_hybrid_at_full_digital_is_finite_and_above_floor():
    for gamma in (0.5, 3.0, 20.0):
        val = float(_hybrid_grid(LAMS, gamma, 1.0))
        assert math.isfinite(val)
        assert val >= d_lower(CFG, gamma) - 1e-9


def test_hybrid_scan_never_worse_than_fixed_split():
    # the optimized cost against the cost at a random fixed split
    rng = np.random.default_rng(19)
    for _ in range(30):
        lams = sorted(rng.uniform(0.05, 4.0, size=rng.integers(2, 6)),
                      reverse=True)
        cfg = GaussianConfig(tuple(lams), (0.0,))
        gamma = float(rng.uniform(0.0, 20.0))
        alpha = float(rng.uniform(0.0, 1.0))
        fixed = _hybrid_grid(lams, gamma, alpha)
        val, arg = d_hybrid(cfg, gamma)
        assert val <= fixed + 1e-9
        # spot agreement at the returned argmin
        assert _hybrid_grid(lams, gamma, arg) == pytest.approx(val, abs=1e-9)


def test_d_hybrid_batch_equals_per_budget_calls():
    gammas = np.logspace(-2.0, 2.0, 32)
    vals, alphas = d_hybrid(CFG, gammas)
    assert vals.shape == alphas.shape == gammas.shape
    for gamma, val, alpha in zip(gammas.tolist(), vals.tolist(),
                                 alphas.tolist()):
        assert d_hybrid(CFG, gamma) == (val, alpha)


def test_curve_columns_batch_equal_per_budget_calls():
    # each budget is one root-finder lane, solved exactly as alone
    cfg = GaussianConfig((2.0, 1.0, 0.1), (0.0,))
    gammas = np.concatenate([[0.0], np.logspace(-2.0, 2.0, 31)])
    for f in (d_lower, d_sep, d_uncoded):
        col = f(cfg, gammas)
        assert col.shape == gammas.shape
        assert col.tolist() == [f(cfg, g) for g in gammas.tolist()]
    rates = np.linspace(0.0, 3.0, 16)
    for solve in (kappa_gammas, waterfill_sep):
        level, parts = solve(cfg.lambdas, rates)
        assert parts.shape == (16, 3)
        for r, lv, row in zip(rates.tolist(), level.tolist(),
                              parts.tolist()):
            assert solve(cfg.lambdas, r) == (lv, row)


def test_d_hybrid_plateau_is_exact_zero():
    gs = gamma_star(LAMS)
    for gamma in (0.05, 0.3, gs - 0.1, gs - 0.01):
        val, arg = d_hybrid(CFG, gamma)
        assert arg == 0.0
        assert val == pytest.approx(d_uncoded(CFG, gamma), abs=1e-12)


def test_d_hybrid_split_turns_on_above_threshold():
    gs = gamma_star(LAMS)
    val, arg = d_hybrid(CFG, gs + 0.01)
    assert 0.0 < arg < 0.03
    for gamma in (2.0, 5.0, 50.0):
        _, a = d_hybrid(CFG, gamma)
        assert a > 0.0


def test_d_hybrid_beats_separation_at_matched_split():
    # the split that gives the digital tail the same budget the separation
    # scheme spends outside the head component
    for gamma in (0.1, 1.0, 3.0, 10.0, 100.0):
        rate = 0.5 * math.log2(gamma + 1.0)
        _, deltas = waterfill_sep(LAMS, rate)
        tail_prod = math.prod(l / d for l, d in zip(LAMS[1:], deltas[1:]))
        alpha = 1.0 - ((gamma + 1.0) / tail_prod - 1.0) / gamma
        assert -1e-12 <= alpha <= 1.0
        alpha = max(alpha, 0.0)
        assert _hybrid_grid(LAMS, gamma, alpha) < d_sep(CFG, gamma)
        val, _ = d_hybrid(CFG, gamma)
        assert val < d_sep(CFG, gamma)


def test_d_hybrid_sandwich_on_grid():
    for gamma in np.logspace(-2, 2, 25):
        val, _ = d_hybrid(CFG, gamma)
        assert d_lower(CFG, gamma) <= val + 1e-9
        assert val <= min(d_sep(CFG, gamma), d_uncoded(CFG, gamma)) + 1e-9


# --------------------------------------------------------------- threshold

def test_gamma_star_closed_forms():
    assert gamma_star(LAMS) == pytest.approx(math.sqrt(2.5) - 0.5, abs=1e-12)
    assert gamma_star((1.0, 1.0)) == pytest.approx(
        (math.sqrt(2.0) - 1.0) / 2.0, abs=1e-12)
    assert gamma_star((2.0, 2.0)) == pytest.approx(
        (math.sqrt(2.0) - 1.0) / 2.0, abs=1e-12)


def test_gamma_star_requires_two_components():
    with pytest.raises(ValueError):
        gamma_star((1.0,))


def test_gamma_star_matches_observed_mode_switch():
    # independent route: bisection on the switch of the optimized split
    lo, hi = 0.5, 2.0
    assert d_hybrid(CFG, lo)[1] == 0.0
    assert d_hybrid(CFG, hi)[1] > 0.0
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        if d_hybrid(CFG, mid)[1] == 0.0:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(gamma_star(LAMS), abs=0.01)


# ------------------------------------------------------------ linear bound

def test_linear_bound_zero_gains():
    assert linear_bound(LAMS, np.zeros(2)) == pytest.approx(4.0, abs=1e-12)


def test_linear_bound_head_gain_recovers_uncoded():
    for gamma in (0.5, 3.0, 10.0):
        g = np.array([math.sqrt(gamma / LAMS[0]), 0.0])
        assert linear_bound(LAMS, g) == pytest.approx(
            d_uncoded(CFG, gamma), abs=1e-12)


def test_linear_bound_spends_power_where_it_counts():
    # same transmit power on the small component buys less
    g_head = np.array([1.0, 0.0])
    g_tail = np.array([0.0, math.sqrt(LAMS[0] / LAMS[1])])
    assert linear_bound(LAMS, g_head) < linear_bound(LAMS, g_tail)


def test_linear_bound_rejects_wrong_length():
    with pytest.raises(ValueError):
        linear_bound(LAMS, np.zeros(3))


# ------------------------------------------------------------------- table

def test_curve_table_columns_and_zero_row():
    table = gaussian_curves(GaussianConfig(LAMS, (0.0, 3.0)))
    assert table.columns == GAUSSIAN_COLUMNS
    zero = table.rows[0]
    assert zero[0] == 0.0
    for v in zero[1:5]:
        assert v == pytest.approx(4.0, abs=1e-12)


def test_curve_table_regenerates_identically():
    cfg = GaussianConfig(LAMS, tuple(np.logspace(-1, 1, 17)))
    assert gaussian_curves(cfg).to_csv() == gaussian_curves(cfg).to_csv()


def test_curve_rows_match_pointwise_calls():
    cfg = GaussianConfig(LAMS, (0.5, 3.0))
    table = gaussian_curves(cfg)
    for row in table.rows:
        g = row[0]
        assert row[1] == d_lower(CFG, g)
        assert row[2] == d_sep(CFG, g)
        assert row[3] == d_uncoded(CFG, g)
        val, arg = d_hybrid(CFG, g)
        assert row[4] == val and row[5] == arg


# ------------------------------------------------------------ scalar case

def test_toy_matched_values():
    assert toy_gaussian_lower(3.0) == pytest.approx(2.0 - math.sqrt(3.0),
                                                    abs=1e-12)
    assert toy_gaussian_sep(3.0) == pytest.approx(0.5, abs=1e-12)


def test_toy_mean_shift_adds_through():
    base = toy_gaussian_lower(2.0)
    assert toy_gaussian_lower(2.0, mu_x=1.0) == pytest.approx(base + 1.0,
                                                              abs=1e-12)


def test_toy_sep_never_below_joint():
    for gamma in (0.0, 0.5, 2.0, 10.0, 1e4):
        for sx, sy in ((1.0, 1.0), (2.0, 0.5)):
            sep = toy_gaussian_sep(gamma, 0.0, sx, 0.0, sy)
            joint = toy_gaussian_lower(gamma, 0.0, sx, 0.0, sy)
            assert sep >= joint - 1e-12


def test_toy_rejects_bad_inputs():
    with pytest.raises(ValueError):
        toy_gaussian_lower(-1.0)
    with pytest.raises(ValueError):
        toy_gaussian_sep(1.0, sigma_x=-2.0)


@pytest.mark.parametrize("call, match", [
    (lambda: kappa_gammas(LAMS, np.nan), "rate must be nonnegative"),
    (lambda: kappa_gammas(LAMS, [0.5, np.nan]), "rate must be nonnegative"),
    (lambda: linear_bound(LAMS, [np.nan, 0.0]), "gains must be finite"),
    (lambda: linear_bound(LAMS, [np.inf, 0.0]), "gains must be finite"),
    (lambda: toy_gaussian_lower(1.0, mu_x=np.nan), "means must be finite"),
    (lambda: toy_gaussian_lower(1.0, mu_y=-np.inf), "means must be finite"),
    (lambda: toy_gaussian_lower(1.0, sigma_x=np.inf), "standard deviations"),
    (lambda: toy_gaussian_sep(1.0, sigma_y=np.inf), "standard deviations"),
])
def test_curves_refuse_non_finite_inputs_with_no_answer(call, match):
    # each once answered NaN, or kappa = 0 for a NaN rate
    with pytest.raises(ValueError, match=match):
        call()


# -------------------------------------------------------- matrix ingestion

def test_covariance_ingestion_diagonal():
    cfg = config_from_covariance(np.diag([0.5, 1.5]), (0.0, 1.0))
    assert cfg.lambdas == (1.5, 0.5)


def test_covariance_ingestion_rotation_invariant():
    theta = 0.3
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    sigma = rot @ np.diag([1.5, 0.5]) @ rot.T
    cfg = config_from_covariance(sigma, (3.0,))
    assert cfg.lambdas[0] == pytest.approx(1.5, abs=1e-12)
    assert cfg.lambdas[1] == pytest.approx(0.5, abs=1e-12)
    assert d_sep(cfg, 3.0) == pytest.approx(math.sqrt(3.0), abs=1e-9)


def test_covariance_ingestion_rejects_bad_matrices():
    with pytest.raises(ValueError):
        config_from_covariance(np.ones((2, 3)), (0.0,))
    with pytest.raises(ValueError):
        config_from_covariance(np.array([[1.0, 0.5], [0.0, 1.0]]), (0.0,))
    with pytest.raises(ValueError):
        config_from_covariance(np.diag([1.0, -0.5]), (0.0,))
