"""Tests for the single-letter achievability evaluator.

The load-bearing oracle is a plain five-way Python loop that re-derives the
joint law and every reported quantity without numpy contractions, so the
evaluator's contractions and the loop route fail independently.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from cot_lab.hybrid_bound import (
    HybridSpec,
    evaluate,
    hybrid_spec_from_json,
    hybrid_spec_to_json,
    report_to_json,
)
from cot_lab.infokit import DiscreteChannel, DiscreteDistribution
from cot_lab.numkit import bconv, binary_entropy, binary_entropy_inv
from uncoded_spec import make_uncoded

HAMMING = 1.0 - np.eye(2)


def bsc(theta, cost=None):
    return DiscreteChannel(("0", "1"), ("0", "1"),
                           np.array([[1 - theta, theta], [theta, 1 - theta]]),
                           cost)


def bern(p):
    return DiscreteDistribution(("0", "1"), np.array([1.0 - p, p]))


# ------------------------------------------------------------------ oracle

def loop_joint(spec):
    """Five nested loops, no contractions shared with the implementation."""
    nx = len(spec.p_x)
    nz = len(spec.z_alphabet)
    nu = len(spec.ch.input_alphabet)
    nv = len(spec.ch.output_alphabet)
    ny = len(spec.y_alphabet)
    out = np.zeros((nx, nz, nu, nv, ny))
    for x in range(nx):
        for z in range(nz):
            for u in range(nu):
                for v in range(nv):
                    for y in range(ny):
                        out[x, z, u, v, y] = (
                            spec.p_x.probs[x] * spec.enc[x, z, u]
                            * spec.ch.matrix[u, v] * spec.dec[z, v, y])
    return out


def loop_mi(joint2d):
    pa = joint2d.sum(axis=1)
    pb = joint2d.sum(axis=0)
    total = 0.0
    for i in range(joint2d.shape[0]):
        for j in range(joint2d.shape[1]):
            pij = joint2d[i, j]
            if pij > 0.0:
                total += pij * math.log2(pij / (pa[i] * pb[j]))
    return total


def random_spec(rng, nx=2, nz=3, nu=2, nv=2, ny=2, gamma=10.0):
    px = rng.uniform(0.1, 1.0, nx)
    px /= px.sum()
    enc = rng.uniform(0.01, 1.0, (nx, nz, nu))
    enc /= enc.sum(axis=(1, 2), keepdims=True)
    W = rng.uniform(0.05, 1.0, (nu, nv))
    W /= W.sum(axis=1, keepdims=True)
    dec = rng.uniform(0.01, 1.0, (nz, nv, ny))
    dec /= dec.sum(axis=2, keepdims=True)
    labels = [tuple(str(i) for i in range(k)) for k in (nx, nz, nu, nv, ny)]
    ch = DiscreteChannel(labels[2], labels[3], W, rng.uniform(0, 1, nu))
    return HybridSpec(DiscreteDistribution(labels[0], px), labels[1], enc,
                      ch, dec, labels[4], rng.uniform(0, 2, (nx, ny)), gamma,
                      target_y=DiscreteDistribution(labels[4],
                                                    np.full(ny, 1.0 / ny)))


# ------------------------------------------------------------- validation

def test_cardinality_bound_enforced():
    # |Z| may not exceed |X|+|Y|+|V|+2 = 8 for all-binary alphabets
    rng = np.random.default_rng(3)
    random_spec(rng, nz=8)  # at the bound: fine
    with pytest.raises(ValueError):
        random_spec(rng, nz=9)


def test_encoder_rows_must_sum_to_one():
    spec = random_spec(np.random.default_rng(5))
    bad = spec.enc.copy()
    bad[0] *= 0.9
    with pytest.raises(ValueError):
        HybridSpec(spec.p_x, spec.z_alphabet, bad, spec.ch, spec.dec,
                   spec.y_alphabet, spec.dist, spec.gamma, spec.target_y)


def test_decoder_rows_must_sum_to_one():
    spec = random_spec(np.random.default_rng(7))
    bad = spec.dec.copy()
    bad[0, 0] = np.array([0.7, 0.7])
    with pytest.raises(ValueError):
        HybridSpec(spec.p_x, spec.z_alphabet, spec.enc, spec.ch, bad,
                   spec.y_alphabet, spec.dist, spec.gamma, spec.target_y)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_spec_rejects_non_finite_entries(bad):
    spec = random_spec(np.random.default_rng(9))
    parts = {"enc": spec.enc, "dec": spec.dec, "dist": spec.dist}
    for name in parts:
        poisoned = dict(parts)
        poisoned[name] = parts[name].copy()
        poisoned[name].flat[0] = bad
        with pytest.raises(ValueError, match=f"{name} has non-finite"):
            HybridSpec(spec.p_x, spec.z_alphabet, poisoned["enc"], spec.ch,
                       poisoned["dec"], spec.y_alphabet, poisoned["dist"],
                       spec.gamma, spec.target_y)


def test_spec_rejects_negative_distortions_and_a_foreign_target():
    spec = random_spec(np.random.default_rng(11))
    dist = spec.dist.copy()
    dist[1, 0] = -0.5
    with pytest.raises(ValueError, match="dist has negative entries"):
        HybridSpec(spec.p_x, spec.z_alphabet, spec.enc, spec.ch, spec.dec,
                   spec.y_alphabet, dist, spec.gamma, spec.target_y)
    foreign = DiscreteDistribution(("a", "b"), spec.target_y.probs)
    with pytest.raises(ValueError, match="target_y alphabet mismatch"):
        HybridSpec(spec.p_x, spec.z_alphabet, spec.enc, spec.ch, spec.dec,
                   spec.y_alphabet, spec.dist, spec.gamma, foreign)


def test_default_target_requires_matching_alphabets():
    px = bern(0.3)
    enc = np.zeros((2, 1, 2))
    enc[[0, 1], 0, [0, 1]] = 1.0
    dec = np.zeros((1, 2, 3))
    dec[:, :, 0] = 1.0
    with pytest.raises(ValueError):
        HybridSpec(px, ("z0",), enc, bsc(0.1), dec, ("a", "b", "c"),
                   np.zeros((2, 3)), 1.0)


# -------------------------------------------------------------- evaluate

def test_identity_chain_reports_a_lossless_pass_through():
    # every factor a deterministic identity: Z = U = V = Y = X, so each
    # information is H(X), nothing is lost and the source law comes out
    px = bern(0.3)
    enc = np.zeros((2, 2, 2))
    enc[[0, 1], [0, 1], [0, 1]] = 1.0
    dec = np.zeros((2, 2, 2))
    dec[[0, 1], :, [0, 1]] = 1.0  # y = z regardless of v
    spec = HybridSpec(px, ("0", "1"), enc, bsc(0.0), dec, ("0", "1"),
                      HAMMING, 1.0)
    rep = evaluate(spec)
    h = binary_entropy(0.3)
    assert rep.e_dist == 0.0 and rep.e_cost == 0.0
    for info in (rep.i_xz, rep.i_yz, rep.i_zv):
        assert info == pytest.approx(h, abs=1e-15)
    np.testing.assert_allclose(rep.induced_y.probs, px.probs, atol=1e-15)
    assert rep.feasible


def test_constant_z_passthrough_gives_crossover_distortion():
    # Z constant, U = X, channel BSC(theta), Y = V: P{X != Y} = theta
    theta = 0.15
    spec = make_uncoded(bern(0.25), bsc(theta), np.eye(2), HAMMING, 1.0)
    assert evaluate(spec).e_dist == pytest.approx(theta, abs=1e-12)


def test_evaluate_holds_no_five_way_joint():
    # |X| = |U| = |V| = |Y| = 12 and the largest |Z| the cardinality bound
    # admits, 38: the X x Z x U x V x Y joint alone would be 6.0 MiB, the
    # largest table evaluate forms, p(x, z, u), 43 KiB
    k, nz = 12, 38
    spec = random_spec(np.random.default_rng(29), nx=k, nz=nz, nu=k, nv=k,
                       ny=k)
    tracemalloc.start()
    try:
        rep = evaluate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak
    assert rep.e_dist > 0.0


def test_report_matches_loop_oracle_everywhere():
    rng = np.random.default_rng(17)
    for _ in range(4):
        spec = random_spec(rng)
        rep = evaluate(spec)
        joint = loop_joint(spec)
        e_dist = sum(
            joint[x, z, u, v, y] * spec.dist[x, y]
            for x in range(2) for z in range(3) for u in range(2)
            for v in range(2) for y in range(2))
        assert rep.e_dist == pytest.approx(e_dist, abs=1e-10)
        assert rep.e_cost == pytest.approx(
            float(joint.sum(axis=(0, 1, 3, 4)) @ spec.ch.cost), abs=1e-10)
        assert rep.i_xz == pytest.approx(
            loop_mi(joint.sum(axis=(2, 3, 4))), abs=1e-10)
        assert rep.i_yz == pytest.approx(
            loop_mi(joint.sum(axis=(0, 2, 3))), abs=1e-10)
        assert rep.i_zv == pytest.approx(
            loop_mi(joint.sum(axis=(0, 2, 4))), abs=1e-10)
        assert rep.i_xz >= 0 and rep.i_yz >= 0 and rep.i_zv >= 0


def test_optimized_binary_uncoded_quarter():
    # rho = theta = 1/4 with the marginal-preserving decoder: E[d] = 1/4
    rho = theta = 0.25
    mix = bconv(rho, theta)
    b = (1 - 2 * rho) * theta / mix
    dec = np.array([[1.0, 0.0], [b, 1.0 - b]])
    spec = make_uncoded(bern(rho), bsc(theta), dec, HAMMING, 0.0)
    rep = evaluate(spec)
    assert rep.e_dist == pytest.approx(0.25, abs=1e-12)
    assert rep.e_dist == pytest.approx(
        2 * (1 - rho) * rho * theta / mix, abs=1e-12)
    assert rep.feasible
    # constant Z carries nothing
    assert rep.i_xz == 0.0 and rep.i_yz == 0.0 and rep.i_zv == 0.0


def test_separation_candidate_sits_on_the_information_boundary():
    """Quantize-then-transmit candidate built by hand.

    Z = (W, S) packs the quantization variable with an independent uniform
    channel input. Both source-side informations collapse onto the channel
    capacity, so the information condition holds with equality.
    """
    rho, theta = 0.25, 0.05
    cap = 1.0 - binary_entropy(theta)
    delta = binary_entropy_inv(binary_entropy(rho) - cap)
    w0 = (rho - delta) / (1 - 2 * delta)
    # backward test channel X = W xor B(delta); condition on x for p(w|x)
    p_wx = np.array([[(1 - w0) * (1 - delta), (1 - w0) * delta],
                     [w0 * delta, w0 * (1 - delta)]])  # indexed [w, x]
    p_w_given_x = p_wx / p_wx.sum(axis=0, keepdims=True)
    # z index = 2*w + s, u = s, s ~ B(1/2) independent of (x, w)
    enc = np.zeros((2, 4, 2))
    for x in range(2):
        for w in range(2):
            for s in range(2):
                enc[x, 2 * w + s, s] = 0.5 * p_w_given_x[w, x]
    # decoder re-dithers the quantization: y = w xor B(delta), ignores v
    dec = np.zeros((4, 2, 2))
    for w in range(2):
        for s in range(2):
            dec[2 * w + s, :, w] = 1.0 - delta
            dec[2 * w + s, :, 1 - w] = delta
    spec = HybridSpec(bern(rho), ("00", "01", "10", "11"), enc, bsc(theta),
                      dec, ("0", "1"), HAMMING, 0.0)
    rep = evaluate(spec)
    assert rep.i_xz == pytest.approx(cap, abs=1e-9)
    assert rep.i_yz == pytest.approx(cap, abs=1e-9)
    assert rep.i_zv == pytest.approx(cap, abs=1e-9)
    assert rep.feasible  # equality passes under the condition slack
    assert rep.marginal_ok
    assert rep.e_dist == pytest.approx(2 * delta * (1 - delta), abs=1e-9)


def test_marginal_mismatch_sets_flag():
    # identity decoder does not preserve the source law through a BSC
    spec = make_uncoded(bern(0.25), bsc(0.1), np.eye(2), HAMMING, 1.0)
    rep = evaluate(spec)
    assert not rep.marginal_ok
    assert not rep.feasible
    assert rep.cost_ok and rep.info_ok
    assert rep.induced_y.probs[1] == pytest.approx(bconv(0.25, 0.1),
                                                   abs=1e-12)


def test_cost_budget_flag():
    ch = bsc(0.1, cost=np.array([0.0, 1.0]))
    spec = make_uncoded(bern(0.4), ch, np.eye(2), HAMMING, 0.1)
    rep = evaluate(spec)
    assert rep.e_cost == pytest.approx(0.4, abs=1e-12)
    assert not rep.cost_ok and not rep.feasible


def test_column_constant_decoder_decouples_reconstruction():
    # dec rows all equal q: Y ~ q independent of X, E[d] = E_{p x q}[d]
    rho, theta = 0.3, 0.2
    q = np.array([0.6, 0.4])
    dec = np.tile(q, (2, 1))
    spec = make_uncoded(bern(rho), bsc(theta), dec, HAMMING, 1.0,
                        target_y=DiscreteDistribution(("0", "1"), q))
    rep = evaluate(spec)
    want = float(bern(rho).probs @ HAMMING @ q)
    assert rep.e_dist == pytest.approx(want, abs=1e-12)
    assert rep.marginal_ok


def test_data_processing_on_random_specs():
    rng = np.random.default_rng(19)
    for _ in range(6):
        spec = random_spec(rng, nv=3)
        rep = evaluate(spec)
        joint = loop_joint(spec)
        i_uv = loop_mi(joint.sum(axis=(0, 1, 4)))
        assert rep.i_zv <= i_uv + 1e-9
        assert i_uv <= math.log2(3) + 1e-12


def test_make_uncoded_rejects_alphabet_mismatch():
    ch3 = DiscreteChannel(("a", "b", "c"), ("0", "1"),
                          np.array([[1, 0], [0, 1], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        make_uncoded(bern(0.3), ch3, np.eye(2), HAMMING, 1.0)


def test_spec_json_round_trip():
    rng = np.random.default_rng(23)
    spec = random_spec(rng)
    back = hybrid_spec_from_json(json.loads(
        json.dumps(hybrid_spec_to_json(spec))))
    np.testing.assert_allclose(back.enc, spec.enc, atol=1e-15)
    np.testing.assert_allclose(back.dec, spec.dec, atol=1e-15)
    np.testing.assert_allclose(back.dist, spec.dist, atol=1e-15)
    assert back.z_alphabet == spec.z_alphabet
    r0, r1 = evaluate(spec), evaluate(back)
    assert r0.e_dist == pytest.approx(r1.e_dist, abs=1e-15)
    assert r0.feasible == r1.feasible


def test_report_json_shape():
    spec = make_uncoded(bern(0.5), bsc(0.25), np.eye(2), HAMMING, 1.0)
    obj = report_to_json(evaluate(spec))
    assert set(obj) == {"e_dist", "e_cost", "i_xz", "i_yz", "i_zv",
                        "induced_y", "cost_ok", "info_ok", "marginal_ok",
                        "feasible"}
    assert obj["e_dist"] == pytest.approx(0.25)
    # rho = 1/2 through a symmetric channel keeps the law, so feasible
    assert obj["feasible"] is True
