"""Tests for the binary-source curve module.

Root-returning operations are checked by plugging the root back into its
defining equation; the converse curve is cross-checked against the entropic
transport sweep, which shares no code with the closed-form route.
"""

import numpy as np
import pytest

from cot_lab import binary_case, numkit
from cot_lab.binary_case import (
    BinaryConfig,
    GridTooCoarse,
    binary_curves,
    d_hat,
    d_hybrid,
    d_hybrid_simple,
    d_lower,
    d_sep,
    d_uncoded,
    delta1_prime,
    hybrid_distortion,
    hybrid_params,
    quantizer_noise,
    rate_of_distortion,
    thresholds,
)
from cot_lab.hybrid_bound import HybridSpec, evaluate
from cot_lab.infokit import (
    DiscreteChannel,
    DiscreteDistribution,
    ot_min_cost,
    rate_limited_ot,
)
from cot_lab.numkit import bconv, binary_entropy, binary_entropy_inv
from cot_lab.tables import CURVE_COLUMNS, CurveTable
from uncoded_spec import make_uncoded

THETAS = np.linspace(0.0, 0.5, 26)


# ---------------------------------------------------------------- config

def test_config_rejects_rho_outside_open_interval():
    for bad in (0.0, 0.5, -0.1, 0.75):
        with pytest.raises(ValueError, match=r"rho must lie in \(0, 1/2\)"):
            BinaryConfig(bad, (0.1, 0.2))


def test_config_rejects_bad_grids():
    with pytest.raises(ValueError):
        BinaryConfig(0.25, (0.2, 0.1))
    with pytest.raises(ValueError):
        BinaryConfig(0.25, (0.1, 0.6))


# -------------------------------------------------------------- converse

def test_d_hat_endpoints():
    for rho in (0.1, 0.25, 0.45):
        dmax = 2 * (1 - rho) * rho
        assert d_hat(rho, 0.0) == dmax
        assert d_hat(rho, binary_entropy(rho)) == 0.0
        assert d_hat(rho, 3.0) == 0.0


def test_d_hat_residual_at_root():
    for rho in (0.1, 0.25, 0.4):
        for rate in (0.05, 0.2, 0.5):
            if rate >= binary_entropy(rho):
                continue
            d = d_hat(rho, rate)
            assert rate_of_distortion(rho, d) == pytest.approx(rate,
                                                               abs=1e-9)


def test_d_hat_strictly_decreasing_in_rate():
    rates = np.linspace(0.0, binary_entropy(0.25) - 1e-6, 30)
    vals = [d_hat(0.25, r) for r in rates]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_d_hat_matches_entropic_sweep():
    # independent route: Sinkhorn frontier bisection over couplings
    b = DiscreteDistribution(("0", "1"), np.array([0.75, 0.25]))
    pt = rate_limited_ot(b, b, 1.0 - np.eye(2), 0.3)
    assert d_hat(0.25, 0.3) == pytest.approx(pt.distortion, abs=1e-4)


def test_d_hat_rejects_negative_rate():
    with pytest.raises(ValueError):
        d_hat(0.25, -0.5)


@pytest.mark.parametrize("rate", [np.nan, [0.3, np.nan]])
def test_d_hat_rejects_rates_with_no_answer(rate):
    # NaN once fell through every branch and read as zero distortion
    with pytest.raises(ValueError, match="rate must be nonnegative"):
        d_hat(0.25, rate)


def test_d_hat_keeps_its_limit_at_an_infinite_rate():
    assert d_hat(0.25, np.inf) == 0.0


def test_d_lower_branches():
    assert d_lower(0.25, 0.0) == 0.0
    assert d_lower(0.25, 0.5) == pytest.approx(0.375, abs=1e-12)
    # switch point: zero below, positive above
    knee = binary_entropy_inv(1.0 - binary_entropy(0.25))
    assert d_lower(0.25, knee - 1e-6) == 0.0
    assert d_lower(0.25, knee + 1e-3) > 0.0


def test_closed_rho_check_names_the_closed_interval():
    # the curves that admit rho = 1/2 say so when they refuse a rho
    for f in (d_lower, d_sep, lambda r, t: d_uncoded(r, t)[0]):
        with pytest.raises(ValueError,
                           match=r"^rho must lie in \(0, 1/2\]$"):
            f(0.6, 0.1)


def test_d_lower_uniform_source_equals_theta():
    # boundary-check path rho = 1/2: converse collapses to the crossover
    for theta in (0.05, 0.13, 0.3):
        assert d_lower(0.5, theta) == pytest.approx(theta, abs=1e-9)


# --------------------------------------------------------- basic schemes

def test_d_sep_branches_and_endpoints():
    knee = binary_entropy_inv(1.0 - binary_entropy(0.25))
    assert d_sep(0.25, knee * 0.5) == 0.0
    assert d_sep(0.25, 0.5) == pytest.approx(0.375, abs=1e-9)
    for theta in (0.1, 0.3):
        assert d_sep(0.5, theta) == pytest.approx(2 * (1 - theta) * theta,
                                                  abs=1e-9)


def test_d_uncoded_values():
    assert d_uncoded(0.25, 0.0) == (0.0, (0.0, 0.0))
    val, _ = d_uncoded(0.25, 0.5)
    assert val == pytest.approx(0.375, abs=1e-12)
    val, (a, b) = d_uncoded(0.25, 0.25)
    assert val == pytest.approx(0.25, abs=1e-12)
    assert a == 0.0
    assert b == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_uncoded_decoder_preserves_marginal():
    # P{Y=1} = P{V=1}(1-b) must reproduce rho
    for rho, theta in ((0.1, 0.3), (0.25, 0.05), (0.4, 0.45)):
        _, (a, b) = d_uncoded(rho, theta)
        mix = bconv(rho, theta)
        assert (1 - mix) * a + mix * (1 - b) == pytest.approx(rho, abs=1e-12)


# --------------------------------------------------------------- hybrid

def test_hybrid_params_separation_limit():
    # delta1 = 0 collapses to the quantize-and-transmit parameters
    for rho, theta in ((0.25, 0.2), (0.35, 0.1)):
        delta2, tau, beta = hybrid_params(rho, theta, 0.0)
        want = quantizer_noise(rho, 1.0 - binary_entropy(theta))
        assert delta2 == pytest.approx(want, abs=1e-9)
        assert tau == pytest.approx((rho - want) / (1 - 2 * want), abs=1e-9)


def test_hybrid_params_slack_branch_gives_zero_delta2():
    # at theta small the analog stage alone meets the information budget
    delta2, _, _ = hybrid_params(0.25, 0.02, 0.2)
    assert delta2 == 0.0


def test_hybrid_params_defining_equation_residual():
    rho, theta, d1 = 0.25, 0.3, 0.1
    delta2, tau, beta = hybrid_params(rho, theta, d1)
    m = bconv(d1, delta2)
    lhs = binary_entropy(rho) - binary_entropy(m)
    rhs = 1.0 - binary_entropy(bconv(d1, theta))
    assert lhs == pytest.approx(rhs, abs=1e-9)
    assert beta == pytest.approx(m / bconv(d1, theta), abs=1e-12)


def test_hybrid_params_ranges():
    rng = np.random.default_rng(3)
    for _ in range(50):
        rho = rng.uniform(0.05, 0.45)
        theta = rng.uniform(0.01, 0.5)
        d1 = rng.uniform(0.0, rho)
        delta2, tau, beta = hybrid_params(rho, theta, d1)
        assert 0.0 <= delta2 <= theta + 1e-9  # digital stage never exceeds
        assert 0.0 <= tau <= 1.0              # the channel crossover
        assert 0.0 <= beta <= 1.0


def test_hybrid_params_domain_errors():
    with pytest.raises(ValueError):
        hybrid_params(0.25, 0.2, 0.3)  # delta1 beyond rho
    with pytest.raises(ValueError):
        hybrid_params(0.25, 0.0, 0.1)  # degenerate channel


@pytest.mark.parametrize("args", [(0.6, 0.1, 0.1), (0.25, 0.7, 0.1),
                                  (0.25, 0.1, 0.5), (np.nan, 0.1, 0.1),
                                  (0.25, np.nan, 0.1), (0.25, 0.1, np.nan)])
def test_hybrid_distortion_rejects_out_of_domain(args):
    rho, theta, delta1 = args
    with pytest.raises(ValueError):
        hybrid_distortion(rho, theta, delta1)
    with pytest.raises(ValueError):
        hybrid_distortion(rho, np.array([[0.2], [theta]]),
                          np.array([0.0, delta1]))


def test_hybrid_endpoint_reductions():
    for rho, theta in ((0.25, 0.1), (0.25, 0.35), (0.35, 0.2)):
        assert hybrid_distortion(rho, theta, 0.0) == pytest.approx(
            d_sep(rho, theta), abs=1e-9)
        assert hybrid_distortion(rho, theta, rho) == pytest.approx(
            d_uncoded(rho, theta)[0], abs=1e-9)


def test_d_hybrid_never_above_either_endpoint_scheme():
    for theta in THETAS:
        val, arg = d_hybrid(0.25, theta)
        assert val <= d_sep(0.25, theta) + 1e-9
        assert val <= d_uncoded(0.25, theta)[0] + 1e-9
        assert 0.0 <= arg <= 0.25


def test_d_hybrid_coincides_with_sep_below_threshold():
    val, arg = d_hybrid(0.25, 0.1)
    assert arg == 0.0
    assert val == pytest.approx(d_sep(0.25, 0.1), abs=1e-12)


def test_d_hybrid_matches_simple_form_above_threshold():
    val, _ = d_hybrid(0.25, 0.4)
    assert val == pytest.approx(d_hybrid_simple(0.25, 0.4), abs=1e-8)


def test_d_hybrid_noiseless_shortcut():
    assert d_hybrid(0.25, 0.0) == (0.0, 0.0)


@pytest.mark.parametrize("rho", [0.25, 0.35])
def test_d_hybrid_batch_equals_per_theta_calls(rho):
    thetas = np.linspace(0.0, 0.5, 41)
    vals, args = d_hybrid(rho, thetas)
    assert vals.shape == args.shape == thetas.shape
    for theta, val, arg in zip(thetas.tolist(), vals.tolist(),
                               args.tolist()):
        assert d_hybrid(rho, theta) == (val, arg)


def test_d_hybrid_does_not_depend_on_the_objective_batch(monkeypatch):
    # the objective is elementwise, so how many values one call sees moves
    # no minimum and no argmin
    thetas = np.linspace(0.0, 0.5, 300)
    results = []
    for cap in (512, 2 ** 13, 2 ** 14):
        monkeypatch.setattr(numkit, "_MAX_VALUES", cap)
        results.append(d_hybrid(0.25, thetas))
    for vals, args in results[1:]:
        assert np.array_equal(vals, results[0][0])
        assert np.array_equal(args, results[0][1])


@pytest.mark.parametrize("rho", [0.25, 0.35])
def test_curve_columns_batch_equal_per_theta_calls(rho):
    # each theta is one root-finder lane, solved exactly as alone
    thetas = np.linspace(0.0, 0.5, 41)
    for f in (d_lower, d_sep, lambda r, t: d_uncoded(r, t)[0], delta1_prime,
              d_hybrid_simple):
        col = f(rho, thetas)
        assert col.shape == thetas.shape
        assert col.tolist() == [f(rho, t) for t in thetas.tolist()]
    rates = np.linspace(0.0, 1.0, 21)
    assert d_hat(rho, rates).tolist() == [d_hat(rho, r)
                                          for r in rates.tolist()]


@pytest.mark.parametrize("bad", [np.nan, 0.6, -0.1])
def test_d_hybrid_rejects_theta_array_out_of_range(bad):
    with pytest.raises(ValueError):
        d_hybrid(0.25, np.array([0.1, bad, 0.2]))


def test_delta1_prime_branches():
    # channel beats the source entropy (theta below ~0.0295): no split needed
    assert delta1_prime(0.25, 0.02) == 0.0
    # defining residual at an interior root
    d1 = delta1_prime(0.25, 0.3)
    assert 0.0 < d1 < 0.25
    resid = (binary_entropy(bconv(d1, 0.3)) - binary_entropy(d1)
             - (1.0 - binary_entropy(0.25)))
    assert resid == pytest.approx(0.0, abs=1e-9)
    # zero-capacity limit pins the split to rho
    assert delta1_prime(0.25, 0.5) == pytest.approx(0.25, abs=1e-12)


def test_d_hybrid_simple_superiority_window():
    # strict improvement over uncoded on the stated theta window
    rho = 0.25
    lo = rho ** 2 / (2 * rho ** 2 - rho + 1)
    for theta in np.linspace(lo, 0.499, 7):
        assert d_hybrid_simple(rho, theta) < d_uncoded(rho, theta)[0]


def test_d_hybrid_simple_limits():
    assert d_hybrid_simple(0.25, 0.02) == 0.0
    assert d_hybrid_simple(0.25, 0.5) == pytest.approx(
        d_uncoded(0.25, 0.5)[0], abs=1e-9)


# ------------------------------------------------------------ thresholds

def classify_mode(rho, theta):
    """The strategy label of the optimized hybrid argmin at one theta."""
    return binary_case._modes(rho, [theta])[0]


def test_mode_classification_samples():
    assert classify_mode(0.25, 0.1) == "SEP"
    assert classify_mode(0.25, 0.2) == "SIMPLE"
    assert classify_mode(0.35, 0.1) == "UNCODED"
    assert classify_mode(0.35, 0.3) == "SIMPLE"


def test_an_argmin_off_every_plateau_is_labelled_none():
    # away from 0, from delta1_prime and from rho by more than each tolerance
    assert binary_case._label(0.1, 0.2, 0.25) == "NONE"


def test_thresholds_quarter():
    config = BinaryConfig(0.25, tuple(np.linspace(0.0, 0.5, 256)))
    th = thresholds(config)
    assert len(th) == 1
    assert th[0][1] == "SEP->SIMPLE"
    assert th[0][0] == pytest.approx(0.148, abs=0.005)


def test_thresholds_seven_twentieths():
    config = BinaryConfig(0.35, tuple(np.linspace(0.0, 0.5, 256)))
    th = thresholds(config)
    assert [label for _, label in th] == ["SEP->UNCODED",
                                          "UNCODED->SIMPLE"]
    assert th[0][0] == pytest.approx(0.037, abs=0.005)
    assert th[1][0] == pytest.approx(0.197, abs=0.005)


def serial_thresholds(rho, grid):
    """Each label change of the batch-labelled grid bisected alone with
    classify_mode, to 1e-4."""
    grid = [t for t in grid if t < 0.5]
    labels = binary_case._modes(rho, grid)
    out = []
    for t0, t1, l0, l1 in zip(grid, grid[1:], labels, labels[1:]):
        if l0 != l1:
            lo, hi = t0, t1
            while hi - lo > 1e-4:
                mid = 0.5 * (lo + hi)
                if classify_mode(rho, mid) == l0:
                    lo = mid
                else:
                    hi = mid
            out.append((0.5 * (lo + hi), f"{l0}->{l1}"))
    return tuple(out)


def count_modes_calls(monkeypatch):
    """Record the batch size of every _modes call thresholds makes."""
    calls = []
    real = binary_case._modes
    monkeypatch.setattr(binary_case, "_modes",
                        lambda rho, th: calls.append(len(th)) or real(rho, th))
    return calls


def test_thresholds_lockstep_equals_serial_bisection(monkeypatch):
    # a finer patch of grid around the first switch gives the two cells
    # different step counts, so one cell stops while the other bisects on
    grid = np.unique(np.concatenate([np.linspace(0.0, 0.5, 256),
                                     np.linspace(0.03, 0.045, 40)]))
    want = serial_thresholds(0.35, grid.tolist())
    calls = count_modes_calls(monkeypatch)
    got = thresholds(BinaryConfig(0.35, tuple(grid)))
    assert got == want
    assert [label for _, label in got] == ["SEP->UNCODED", "UNCODED->SIMPLE"]
    # one labelling of the grid, then one batch of every midpoint the two
    # bisections can visit: 3 in the fine cell and 31 in the coarse one
    assert calls == [len(grid) - 1, 34]


@pytest.mark.parametrize("rho", [0.25, 0.35])
def test_thresholds_equal_serial_bisection_on_criterion_grids(rho):
    grid = np.linspace(0.0, 0.5, 256).tolist()
    assert thresholds(BinaryConfig(rho, tuple(grid))) == \
        serial_thresholds(rho, grid)


def test_thresholds_skip_the_batch_when_no_cell_needs_bisecting(
        monkeypatch):
    # every cell of this grid is under 1e-4, so the switch is the midpoint
    # of its grid cell and the grid labelling is the only solve
    grid = np.linspace(0.0371, 0.0373, 256).tolist()
    want = serial_thresholds(0.35, grid)
    calls = count_modes_calls(monkeypatch)
    got = thresholds(BinaryConfig(0.35, tuple(grid)))
    assert got == want
    assert [label for _, label in got] == ["SEP->UNCODED"]
    assert calls == [256]


def test_thresholds_batch_a_wide_cell_five_halvings_at_a_time(monkeypatch):
    # the cell [0.01, 0.3] needs twelve halvings: batches of 31, 31 and 3
    grid = np.linspace(0.0, 0.01, 255).tolist() + [0.3]
    want = serial_thresholds(0.25, grid)
    calls = count_modes_calls(monkeypatch)
    got = thresholds(BinaryConfig(0.25, tuple(grid)))
    assert got == want
    assert [label for _, label in got] == ["SEP->SIMPLE"]
    assert calls == [256, 31, 31, 3]


def test_thresholds_on_an_all_half_grid_issue_no_empty_batch(monkeypatch):
    calls = count_modes_calls(monkeypatch)
    assert thresholds(BinaryConfig(0.25, (0.5,) * 256)) == ()
    assert calls == [0]


def test_thresholds_grid_too_coarse():
    with pytest.raises(GridTooCoarse):
        thresholds(BinaryConfig(0.25, tuple(np.linspace(0.0, 0.5, 100))))


# ----------------------------------------------------------- curve table

def test_curve_rows_ordering_invariant():
    config = BinaryConfig(0.3, tuple(np.linspace(0.0, 0.5, 40)))
    table = binary_curves(config)
    assert table.columns[0] == "theta"
    dmax = 2 * 0.3 * 0.7
    for row in table.rows:
        _, lower, sep, unc, hyb, simple, arg, d1p = row
        assert lower <= hyb + 1e-9
        assert hyb <= min(sep, unc) + 1e-9
        assert hyb <= simple + 1e-9
        assert max(lower, sep, unc, hyb, simple) <= dmax + 1e-9


def test_curve_boundary_rows():
    config = BinaryConfig(0.25, (0.0, 0.5))
    rows = binary_curves(config).rows
    assert rows[0] == (0.0,) + (0.0,) * 7
    theta_half = rows[1]
    for value in theta_half[1:5]:
        assert value == pytest.approx(0.375, abs=1e-9)


def test_curve_table_refuses_a_row_of_the_wrong_width():
    with pytest.raises(ValueError, match="row width does not match column "
                                         "count"):
        CurveTable(CURVE_COLUMNS, [(0.0,) * (len(CURVE_COLUMNS) - 1)])


def test_curve_csv_regenerates_identically():
    config = BinaryConfig(0.25, tuple(np.linspace(0.0, 0.5, 24)))
    a = binary_curves(config).to_csv()
    b = binary_curves(config).to_csv()
    assert a == b
    assert a.splitlines()[0] == ("theta,d_lower,d_sep,d_uncoded,d_hybrid,"
                                 "d_hybrid_simple,delta1_opt,delta1_prime")


# ----------------------------------------------- evaluator cross-checks

_HAMMING = 1.0 - np.eye(2)


def _bsc(theta):
    return DiscreteChannel(("0", "1"), ("0", "1"),
                           np.array([[1.0 - theta, theta],
                                     [theta, 1.0 - theta]]))


def uncoded_candidate(rho, theta, gamma=0.0):
    """The optimized passthrough scheme as an evaluator candidate."""
    _, (a, b) = d_uncoded(rho, theta)
    dec = np.array([[1.0 - a, a], [b, 1.0 - b]])
    return make_uncoded(
        DiscreteDistribution(("0", "1"), np.array([1.0 - rho, rho])),
        _bsc(theta), dec, _HAMMING, gamma)


def hybrid_candidate(rho, theta, delta1=None, gamma=0.0):
    """The dither-based hybrid scheme as an evaluator candidate.

    The shared variable packs the digital reconstruction W with the uniform
    dither S; the channel carries the dithered analog residual. delta1=None
    optimizes the split first. Covers the separation scheme at delta1=0 and
    reduces to an uncoded variant at delta1=rho.
    """
    if theta == 0.0:
        delta1, delta2, tau, beta = 0.0, 0.0, rho, 0.0
    else:
        if delta1 is None:
            _, delta1 = d_hybrid(rho, theta)
        delta2, tau, beta = hybrid_params(rho, theta, delta1)

    pw = np.array([1.0 - tau, tau])
    pe1 = np.array([1.0 - delta1, delta1])
    pe2 = np.array([1.0 - delta2, delta2])
    # joint over (x, w, s, u) with x = w + e1 + e2 and u = s + e1 (mod 2)
    joint = np.zeros((2, 2, 2, 2))
    for w in range(2):
        for e1 in range(2):
            for e2 in range(2):
                for s in range(2):
                    joint[w ^ e1 ^ e2, w, s, s ^ e1] += (
                        0.5 * pw[w] * pe1[e1] * pe2[e2])
    px = joint.sum(axis=(1, 2, 3))
    enc = np.zeros((2, 4, 2))
    for w in range(2):
        for s in range(2):
            enc[:, 2 * w + s, :] = joint[:, w, s, :] / px[:, None]
    dec = np.zeros((4, 2, 2))
    for w in range(2):
        for s in range(2):
            for v in range(2):
                flip = beta if (v ^ s) == 1 else 0.0
                dec[2 * w + s, v, w] = 1.0 - flip
                dec[2 * w + s, v, 1 - w] = flip
    return HybridSpec(
        DiscreteDistribution(("0", "1"), np.array([1.0 - rho, rho])),
        ("w0s0", "w0s1", "w1s0", "w1s1"), enc, _bsc(theta), dec,
        ("0", "1"), _HAMMING, gamma)


def test_uncoded_candidate_matches_closed_form():
    for rho, theta in ((0.25, 0.25), (0.1, 0.4), (0.35, 0.05)):
        rep = evaluate(uncoded_candidate(rho, theta))
        assert rep.feasible
        assert rep.e_dist == pytest.approx(d_uncoded(rho, theta)[0],
                                           abs=1e-8)


def test_hybrid_candidate_matches_objective_across_splits():
    rho, theta = 0.25, 0.3
    for d1 in (0.0, 0.07, 0.18, rho):
        rep = evaluate(hybrid_candidate(rho, theta, d1))
        assert rep.feasible
        assert rep.e_dist == pytest.approx(
            hybrid_distortion(rho, theta, d1), abs=1e-8)


def test_hybrid_candidate_separation_case_is_d_sep():
    rep = evaluate(hybrid_candidate(0.25, 0.2, 0.0))
    assert rep.feasible
    assert rep.e_dist == pytest.approx(d_sep(0.25, 0.2), abs=1e-8)


def test_hybrid_candidate_optimized_default():
    val, arg = d_hybrid(0.3, 0.22)
    rep = evaluate(hybrid_candidate(0.3, 0.22))
    assert rep.feasible
    assert rep.e_dist == pytest.approx(val, abs=1e-8)
    # the information condition is what the digital stage was sized for
    assert max(rep.i_xz, rep.i_yz) <= rep.i_zv + 1e-9


def test_hybrid_candidate_noiseless():
    rep = evaluate(hybrid_candidate(0.25, 0.0))
    assert rep.feasible
    assert rep.e_dist == pytest.approx(0.0, abs=1e-12)


def lp_decoder_candidate(rho, theta, delta1):
    """hybrid_candidate's encoder with its decoder re-solved as one exact
    transport LP: the plan coupling p_ZV with the target at cost
    E[d(X, y) | z, v], normalised per (z, v). Returns (LP value, spec)."""
    spec = hybrid_candidate(rho, theta, delta1)
    p_xzv = spec.p_x.probs[:, None, None] * spec.enc @ spec.ch.matrix
    p_zv = p_xzv.sum(axis=0)
    cost = np.einsum("xzv,xy->zvy", p_xzv, spec.dist) / p_zv[..., None]
    pairs = DiscreteDistribution(
        tuple(f"{z},{v}" for z in spec.z_alphabet
              for v in spec.ch.output_alphabet), p_zv.ravel())
    ny = len(spec.y_alphabet)
    d_star, plan = ot_min_cost(pairs, spec.target_y, cost.reshape(-1, ny))
    table = plan.table.reshape(p_zv.shape + (ny,))
    dec = table / table.sum(axis=2, keepdims=True)
    return d_star, HybridSpec(spec.p_x, spec.z_alphabet, spec.enc, spec.ch,
                              dec, spec.y_alphabet, spec.dist, spec.gamma)


def test_lp_decoder_spec_is_feasible_under_evaluates_conditions():
    # at (rho, theta) = (0.35, 0.1) the closed form's encoder at
    # delta1 = 0.26, with the decoder re-solved as a transport LP, passes
    # evaluate's three conditions below the binary-curves row, where
    # d_hybrid only ties d_uncoded; whether the paper's theorem admits the
    # spec is open, so this pins the numbers and claims no more
    d_star, spec = lp_decoder_candidate(0.35, 0.1, 0.26)
    assert d_star == pytest.approx(0.11558441558441558, abs=1e-15)
    rep = evaluate(spec)
    assert (rep.cost_ok, rep.info_ok, rep.marginal_ok, rep.feasible) == (
        True, True, True, True)
    assert rep.e_dist == pytest.approx(0.1155844155844156, abs=1e-15)
    assert rep.i_xz == pytest.approx(0.107322, abs=5e-7)
    assert rep.i_yz == pytest.approx(0.086145, abs=5e-7)
    assert rep.i_zv == pytest.approx(0.109149, abs=5e-7)
    assert rep.i_zv - max(rep.i_xz, rep.i_yz) == pytest.approx(1.83e-3,
                                                               abs=5e-6)
    row = dict(zip(CURVE_COLUMNS, binary_curves(
        BinaryConfig(0.35, (0.1,))).rows[0]))
    assert row["d_hybrid"] == row["d_uncoded"] == 0.11973684210526317
    assert rep.e_dist < row["d_hybrid"]
