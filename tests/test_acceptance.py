"""Acceptance gate: one test per shipped guarantee, each enforcing its
stated tolerance and wall-clock budget and printing a single PASS line
(visible under `pytest -rA` or `-s`). Run with `pytest tests/test_acceptance.py -v`.
"""

import json
import math
import time

import numpy as np

from cot_lab.binary_case import (
    CURVE_COLUMNS,
    BinaryConfig,
    binary_curves,
    d_hat,
    d_hybrid,
    d_sep,
    d_uncoded,
    hybrid_distortion,
    thresholds,
)
from cot_lab.block_sim import (
    SimConfig,
    binary_separation_block_config,
    sim_block_hybrid,
    sim_genie_hybrid_binary,
    sim_uncoded_binary,
    sim_uncoded_gaussian,
)
from cot_lab.cli import main
from cot_lab.gaussian_case import (
    GAUSSIAN_COLUMNS,
    GaussianConfig,
    gamma_star,
    gaussian_curves,
)
from cot_lab.gaussian_case import d_uncoded as gauss_uncoded
from cot_lab.hybrid_bound import HybridSpec, evaluate
from cot_lab.infokit import (
    DiscreteChannel,
    DiscreteDistribution,
    blahut_arimoto,
    rate_limited_ot,
)
from cot_lab.numkit import binary_entropy, binary_entropy_inv
from linear_bound_spec import uncoded_equality_gap, verify_linear_bound
from uncoded_spec import make_uncoded

HAMMING = 1.0 - np.eye(2)
SEED = 20260825


def bern(p):
    return DiscreteDistribution(("0", "1"), np.array([1.0 - p, p]))


def bsc(theta):
    return DiscreteChannel(("0", "1"), ("0", "1"),
                           np.array([[1.0 - theta, theta],
                                     [theta, 1.0 - theta]]))


def col(table, name):
    return np.array([row[table.columns.index(name)] for row in table.rows])


def stamp(num, t0, budget, detail):
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.1f}s"
    print(f"criterion {num}: PASS ({detail}; {elapsed:.1f}s)")


def test_criterion_1_binary_quarter_curves():
    t0 = time.monotonic()
    grid = tuple(np.linspace(0.0, 0.5, 512))
    cfg = BinaryConfig(0.25, grid)
    table = binary_curves(cfg)
    assert len(table.rows) == 512
    last = table.rows[-1]
    assert last[table.columns.index("theta")] == 0.5
    target = 2.0 * 0.75 * 0.25
    for name in ("d_sep", "d_uncoded", "d_hybrid"):
        assert abs(last[table.columns.index(name)] - target) <= 1e-9
    events = thresholds(cfg)
    hits = [t for t, _ in events if abs(t - 0.148) <= 0.005]
    assert hits, f"no switch near 0.148 in {events}"
    stamp(1, t0, 10.0, f"curves meet {target} at theta=1/2, "
          f"switch at {hits[0]:.4f}")


def test_criterion_2_mode_switch_locations():
    t0 = time.monotonic()
    grid = tuple(np.linspace(0.0, 0.5, 512))
    events = thresholds(BinaryConfig(0.35, grid))
    assert [label for _, label in events] == ["SEP->UNCODED",
                                              "UNCODED->SIMPLE"]
    assert abs(events[0][0] - 0.037) <= 0.005
    assert abs(events[1][0] - 0.197) <= 0.005
    stamp(2, t0, 10.0, f"switches at {events[0][0]:.4f} and "
          f"{events[1][0]:.4f}")


def test_criterion_3_gaussian_ordering_and_share():
    t0 = time.monotonic()
    lams = (1.5, 0.5)
    grid = tuple(np.logspace(-2.0, 2.0, 256))
    table = gaussian_curves(GaussianConfig(lams, grid))
    assert len(table.rows) == 256
    low, hyb = col(table, "d_lower"), col(table, "d_hybrid")
    ref = np.minimum(col(table, "d_sep"), col(table, "d_uncoded"))
    assert np.all(low <= hyb + 1e-9)
    assert np.all(hyb <= ref + 1e-9)

    gs = gamma_star(lams)
    assert abs(gs - (math.sqrt(2.5) - 0.5)) <= 0.01
    gam, alpha = col(table, "gamma"), col(table, "alpha_opt")
    below = alpha[gam <= gs - 0.01]
    above = alpha[gam >= gs + 0.01]
    assert below.size and above.size
    assert np.all(below == 0.0)  # exact zeros, not merely small
    assert np.all(above > 0.0)
    stamp(3, t0, 20.0, f"ordering holds on 256 budgets, share turns on "
          f"at {gs:.4f}")


def test_criterion_4_solver_cross_checks():
    t0 = time.monotonic()
    worst_ot = 0.0
    for rho in (0.05, 0.15, 0.25, 0.35, 0.45):
        for rate in (0.05, 0.2, 0.5, 0.8):
            want = d_hat(rho, rate)
            got = rate_limited_ot(bern(rho), bern(rho), HAMMING,
                                  rate).distortion
            worst_ot = max(worst_ot, abs(got - want))
    assert worst_ot <= 1e-4

    worst_ba = 0.0
    for theta in np.linspace(0.02, 0.48, 20):
        cap, _ = blahut_arimoto(bsc(theta))
        worst_ba = max(worst_ba, abs(cap - (1.0 - binary_entropy(theta))))
    assert worst_ba <= 1e-6
    stamp(4, t0, 30.0, f"20 transport pairs within {worst_ot:.1e}, "
          f"20 capacities within {worst_ba:.1e}")


def test_criterion_5_single_letter_simulators():
    t0 = time.monotonic()
    n = 10**6

    rep = sim_uncoded_binary(0.5, 0.1, (0.0, 0.0), SimConfig(SEED, n, 2))
    assert abs(rep.mean_distortion - 0.1) <= 4.0 * rep.std_error
    assert rep.tv_to_target < 4.0 * math.sqrt(1.0 / (4.0 * n))

    cfg = GaussianConfig((1.5, 0.5), (2.0,))
    want = gauss_uncoded(cfg, 2.0)
    rep_g = sim_uncoded_gaussian((1.5, 0.5), 2.0, SimConfig(SEED, n, 2))
    assert abs(rep_g.mean_distortion - want) <= 4.0 * rep_g.std_error

    devs = []
    triples = ((0.25, 0.1, None), (0.35, 0.2, 0.12), (0.3, 0.25, 0.25))
    for rho, theta, d1 in triples:
        if d1 is None:
            want, d1 = d_hybrid(rho, theta)
        else:
            want = hybrid_distortion(rho, theta, d1)
        rep_h = sim_genie_hybrid_binary(rho, theta, d1,
                                        SimConfig(SEED, n, 2))
        dev = abs(rep_h.mean_distortion - want)
        assert dev <= 4.0 * rep_h.std_error
        devs.append(dev / rep_h.std_error)
    stamp(5, t0, 60.0, "toy, Gaussian, and three genie runs within "
          f"4 std errors (worst {max(devs):.2f})")


def test_criterion_6_block_trend():
    t0 = time.monotonic()
    rho, delta, theta, rate = 0.25, 0.2, 0.005, 0.6
    i_xz = binary_entropy(rho) - binary_entropy(delta)
    i_zv = 1.0 - binary_entropy(theta)
    assert i_xz + 0.05 < rate < i_zv - 0.05  # strict slack on both sides

    errs, tvs = [], []
    for n in (4, 8, 12):
        cfg = binary_separation_block_config(rho, delta, theta, rate, n,
                                             typ_delta=0.05, codebooks=32)
        assert cfg.codebook_size == math.ceil(2.0 ** (n * rate))
        rep = sim_block_hybrid(cfg, SimConfig(SEED, 4096, 2))
        assert len(rep.codebook_draws) == 32
        errs.append(rep.msg_error_rate)
        tvs.append(rep.tv_to_target)
    assert errs[0] >= errs[1] >= errs[2]
    assert tvs[0] >= tvs[1] >= tvs[2]
    stamp(6, t0, 300.0, "medians err "
          + ">=".join(f"{e:.3f}" for e in errs) + ", tv "
          + ">=".join(f"{t:.3f}" for t in tvs))


def test_criterion_7_linear_bound():
    t0 = time.monotonic()
    rep = verify_linear_bound((1.5, 0.5), SimConfig(SEED, 10**4, 2))
    assert rep.trials == 10**4
    assert rep.violations == 0
    assert rep.min_margin >= -1e-9
    for gamma in (0.5, 3.0):
        assert abs(uncoded_equality_gap((1.5, 0.5), gamma)) <= 1e-9
    stamp(7, t0, 30.0, f"0 violations in 10^4 trials, margin "
          f"{rep.min_margin:.2e}, equality gap 0 at the aligned gain")


def test_criterion_8_hybrid_eval_closed_forms():
    t0 = time.monotonic()
    rho, theta = 0.25, 0.1
    want, (a, b) = d_uncoded(rho, theta)
    dec = np.array([[1.0 - a, a], [b, 1.0 - b]])
    rep = evaluate(make_uncoded(bern(rho), bsc(theta), dec, HAMMING, 0.0))
    assert rep.feasible
    assert abs(rep.e_dist - want) <= 1e-8

    rho, theta = 0.25, 0.05
    cap = 1.0 - binary_entropy(theta)
    dq = binary_entropy_inv(binary_entropy(rho) - cap)
    w0 = (rho - dq) / (1.0 - 2.0 * dq)
    p_wx = np.array([[(1 - w0) * (1 - dq), (1 - w0) * dq],
                     [w0 * dq, w0 * (1 - dq)]])
    p_w_given_x = p_wx / p_wx.sum(axis=0, keepdims=True)
    enc = np.zeros((2, 4, 2))
    for x in range(2):
        for w in range(2):
            for s in range(2):
                enc[x, 2 * w + s, s] = 0.5 * p_w_given_x[w, x]
    dcd = np.zeros((4, 2, 2))
    for w in range(2):
        for s in range(2):
            dcd[2 * w + s, :, w] = 1.0 - dq
            dcd[2 * w + s, :, 1 - w] = dq
    spec = HybridSpec(bern(rho), ("00", "01", "10", "11"), enc, bsc(theta),
                      dcd, ("0", "1"), HAMMING, 0.0)
    rep = evaluate(spec)
    assert rep.feasible
    assert abs(rep.e_dist - d_sep(rho, theta)) <= 1e-8

    bad = evaluate(make_uncoded(bern(0.25), bsc(0.1), np.eye(2), HAMMING,
                                1.0))
    assert not bad.feasible
    assert not bad.marginal_ok
    stamp(8, t0, 5.0, "separation and uncoded specs feasible at their "
          "closed forms, marginal violator reported infeasible")


def test_criterion_9_cli_determinism(tmp_path, monkeypatch, capsys):
    t0 = time.monotonic()
    monkeypatch.chdir(tmp_path)
    runs = (
        ["binary-curves", "--rho", "0.25", "--points", "64",
         "--out", "{}.csv", "--json"],
        ["gaussian-curves", "--lambdas", "1.5,0.5", "--points", "32",
         "--out", "{}.csv"],
        ["binary-thresholds", "--rho", "0.35", "--points", "256",
         "--out", "{}.json"],
        ["simulate", "genie-hybrid", "--rho", "0.25", "--theta", "0.1",
         "--delta1", "0.05", "--seed", "17", "--samples", "40000",
         "--out", "{}.json"],
    )
    for k, template in enumerate(runs):
        names = [f"r{k}a", f"r{k}b"]
        blobs = []
        for name in names:
            argv = [arg.format(name) for arg in template]
            assert main(argv) == 0
            out = argv[argv.index("--out") + 1]
            blob = open(out, "rb").read()
            if "--json" in argv:
                stem = out.rsplit(".", 1)[0]
                blob += open(stem + ".json", "rb").read()
            blobs.append(blob)
        assert blobs[0] == blobs[1], f"run {template[0]} not reproducible"
    capsys.readouterr()
    stamp(9, t0, 60.0, "four command families byte-identical on rerun")
