"""Tests for the Monte Carlo simulators and the block-coding harness.

Sampled means are compared against the closed-form curves they estimate;
exact per-codebook laws are checked against a brute-force enumeration that
shares no code with the tensor-contraction route, and bit for bit against a
per-message loop that contracts one message at a time. Every simulator is
also checked for bit-identical output across worker counts.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from cot_lab import MaxIterError, block_sim
from cot_lab.binary_case import d_hybrid, d_uncoded, hybrid_distortion
from cot_lab.block_sim import (
    BlockCodeConfig,
    BudgetExceeded,
    SimConfig,
    SimReport,
    _codebook_laws,
    _decode_tables,
    _enumerate_blocks,
    _generate_phase,
    _pairwise_sum,
    _product_law,
    _symbol_kernels,
    binary_separation_block_config,
    sim_block_hybrid,
    sim_genie_hybrid_binary,
    sim_uncoded_binary,
    sim_uncoded_gaussian,
    uncoded_equality_gap,
    verify_linear_bound,
)
from cot_lab.gaussian_case import GaussianConfig
from cot_lab.gaussian_case import d_uncoded as gauss_uncoded
from cot_lab.gaussian_case import linear_bound
from cot_lab.infokit import DiscreteChannel, DiscreteDistribution


def reports_equal(a: SimReport, b: SimReport) -> bool:
    """Field-by-field equality; the marginal needs an array comparison."""
    scalars = (a.mean_distortion == b.mean_distortion
               and a.std_error == b.std_error
               and a.tv_to_target == b.tv_to_target
               and a.samples == b.samples
               and a.msg_error_rate == b.msg_error_rate
               and a.input_power == b.input_power
               and a.codebook_draws == b.codebook_draws
               and a.notes == b.notes)
    if isinstance(a.empirical_marginal, tuple):
        return scalars and a.empirical_marginal == b.empirical_marginal
    return scalars and np.array_equal(a.empirical_marginal.probs,
                                      b.empirical_marginal.probs)


def bern(p: float) -> DiscreteDistribution:
    return DiscreteDistribution(("0", "1"), np.array([1.0 - p, p]))


def bsc(theta: float) -> DiscreteChannel:
    return DiscreteChannel(("0", "1"), ("0", "1"),
                           np.array([[1.0 - theta, theta],
                                     [theta, 1.0 - theta]]))


# ---------------------------------------------------------------- config

def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(seed=-1, samples=10)
    with pytest.raises(ValueError):
        SimConfig(seed=2 ** 64, samples=10)
    with pytest.raises(ValueError):
        SimConfig(seed=0, samples=0)
    with pytest.raises(ValueError):
        SimConfig(seed=0, samples=10, workers=0)


def test_report_rejects_negative_std_error():
    with pytest.raises(ValueError):
        SimReport(0.1, -1e-3, None, 0.0, 5)


# ------------------------------------------------------- uncoded binary

def test_uncoded_binary_toy_passthrough():
    sim = SimConfig(seed=11, samples=10 ** 6, workers=2)
    rep = sim_uncoded_binary(0.5, 0.11, (0.0, 0.0), sim)
    assert abs(rep.mean_distortion - 0.11) <= 3.0 * rep.std_error
    assert rep.tv_to_target < 4.0 * math.sqrt(1.0 / (4.0 * sim.samples))
    assert rep.samples == sim.samples


def test_uncoded_binary_noiseless_is_exact_zero():
    rep = sim_uncoded_binary(0.5, 0.0, (0.0, 0.0), SimConfig(1, 40000))
    assert rep.mean_distortion == 0.0
    assert rep.std_error == 0.0


def test_uncoded_binary_matches_closed_form_with_tuned_decoder():
    rho, theta = 0.25, 0.25
    val, (a, b) = d_uncoded(rho, theta)
    rep = sim_uncoded_binary(rho, theta, (a, b), SimConfig(23, 400000, 2))
    assert abs(rep.mean_distortion - val) <= 3.0 * rep.std_error
    # the tuned decoder reproduces the source marginal exactly in law
    assert rep.tv_to_target < 4.0 * math.sqrt(1.0 / (4.0 * rep.samples))


def test_uncoded_binary_validation():
    sim = SimConfig(0, 10)
    with pytest.raises(ValueError, match="rho"):
        sim_uncoded_binary(0.0, 0.1, (0.0, 0.0), sim)
    with pytest.raises(ValueError, match="rho"):
        sim_uncoded_binary(0.6, 0.1, (0.0, 0.0), sim)
    with pytest.raises(ValueError, match="theta"):
        sim_uncoded_binary(0.25, 0.7, (0.0, 0.0), sim)
    with pytest.raises(ValueError, match="decoder"):
        sim_uncoded_binary(0.25, 0.1, (1.5, 0.0), sim)


@pytest.mark.parametrize("workers, chunks, cpus, threads", [
    (64, 3, 4, 3), (64, 10, 4, 4), (2, 10, 4, 2), (8, 1, 4, None),
    (1, 10, 4, None), (8, 10, 1, None)])
def test_run_chunks_clamps_the_pool(monkeypatch, workers, chunks, cpus,
                                    threads):
    seen = []

    class Recorder:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(block_sim, "ThreadPoolExecutor", Recorder)
    monkeypatch.setattr(block_sim.os, "cpu_count", lambda: cpus)
    sim = SimConfig(0, chunks * block_sim._CHUNK, workers)
    counts = block_sim._run_chunks(lambda rng, n: n, sim, stream=0)
    assert counts == [block_sim._CHUNK] * chunks
    assert seen == ([] if threads is None else [threads])


def test_uncoded_binary_worker_invariance():
    one = sim_uncoded_binary(0.3, 0.1, (0.0, 0.2), SimConfig(9, 200001, 1))
    four = sim_uncoded_binary(0.3, 0.1, (0.0, 0.2), SimConfig(9, 200001, 4))
    assert reports_equal(one, four)


def test_uncoded_binary_marginal_error_scales_like_root_n():
    # with the marginal-matching decoder the empirical output law converges
    # to the target; average |phat - rho| over replicates at three sample
    # sizes and fit the log-log slope, which the CLT pins at -1/2
    _, (a, b) = d_uncoded(0.25, 0.25)
    sizes = (2 ** 12, 2 ** 16, 2 ** 20)
    means = []
    for size in sizes:
        tvs = [sim_uncoded_binary(0.25, 0.25, (a, b),
                                  SimConfig(rep, size)).tv_to_target
               for rep in range(64)]
        means.append(np.mean(tvs))
    slope = np.polyfit(np.log(sizes), np.log(means), 1)[0]
    assert abs(slope + 0.5) < 0.1


# ----------------------------------------------------- uncoded gaussian

def test_uncoded_gaussian_matches_closed_form():
    cfg = GaussianConfig((1.5, 0.5), (3.0,))
    expect = gauss_uncoded(cfg, 3.0)
    rep = sim_uncoded_gaussian([1.5, 0.5], 3.0, SimConfig(7, 400000, 2))
    assert abs(rep.mean_distortion - expect) <= 3.0 * rep.std_error
    # realized channel input power approaches the budget
    assert abs(rep.input_power - 3.0) <= 4.0 * 3.0 * math.sqrt(2.0 / rep.samples)
    for (mean, var), lam in zip(rep.empirical_marginal, (1.5, 0.5)):
        assert abs(mean) < 0.05
        assert abs(var - lam) < 0.05
    assert rep.tv_to_target < 0.05


def test_uncoded_gaussian_zero_budget():
    rep = sim_uncoded_gaussian([1.5, 0.5], 0.0, SimConfig(3, 200000))
    assert abs(rep.mean_distortion - 4.0) <= 3.0 * rep.std_error
    assert rep.input_power == 0.0


def test_uncoded_gaussian_validation():
    sim = SimConfig(0, 10)
    with pytest.raises(ValueError):
        sim_uncoded_gaussian([0.5, 1.5], 1.0, sim)
    with pytest.raises(ValueError):
        sim_uncoded_gaussian([1.5, -0.5], 1.0, sim)
    with pytest.raises(ValueError):
        sim_uncoded_gaussian([1.5, 0.5], -1.0, sim)
    for lams, gamma in (([math.inf, 1.0], 1.0), ([math.nan, 1.0], 1.0),
                        ([1.5, 0.5], math.inf), ([1.5, 0.5], math.nan)):
        with pytest.raises(ValueError):
            sim_uncoded_gaussian(lams, gamma, sim)


def test_uncoded_gaussian_worker_invariance():
    one = sim_uncoded_gaussian([2.0, 1.0, 0.5], 2.0, SimConfig(9, 200001, 1))
    four = sim_uncoded_gaussian([2.0, 1.0, 0.5], 2.0, SimConfig(9, 200001, 4))
    assert reports_equal(one, four)


# --------------------------------------------------------- genie hybrid

def test_genie_hybrid_at_optimum_matches_curve():
    rho, theta = 0.25, 0.1
    best, split = d_hybrid(rho, theta)
    rep = sim_genie_hybrid_binary(rho, theta, split, SimConfig(13, 400000, 2))
    assert abs(rep.mean_distortion - best) <= 3.0 * rep.std_error
    assert rep.tv_to_target < 4.0 * math.sqrt(1.0 / (4.0 * rep.samples))
    assert "noiselessly" in " ".join(rep.notes)


def test_genie_hybrid_full_split_reduces_to_uncoded():
    rho, theta = 0.25, 0.1
    val, _ = d_uncoded(rho, theta)
    rep = sim_genie_hybrid_binary(rho, theta, rho, SimConfig(17, 400000))
    assert abs(rep.mean_distortion - val) <= 3.0 * rep.std_error


def test_genie_hybrid_interior_split_matches_closed_form():
    rho, theta, split = 0.35, 0.2, 0.12
    expect = hybrid_distortion(rho, theta, split)
    rep = sim_genie_hybrid_binary(rho, theta, split, SimConfig(29, 400000, 2))
    assert abs(rep.mean_distortion - expect) <= 3.0 * rep.std_error


def test_genie_hybrid_rejects_zero_noise_and_bad_split():
    sim = SimConfig(0, 10)
    with pytest.raises(ValueError):
        sim_genie_hybrid_binary(0.25, 0.0, 0.1, sim)
    with pytest.raises(ValueError):
        sim_genie_hybrid_binary(0.25, 0.1, 0.3, sim)


def test_genie_hybrid_worker_invariance():
    one = sim_genie_hybrid_binary(0.25, 0.1, 0.05, SimConfig(9, 131073, 1))
    three = sim_genie_hybrid_binary(0.25, 0.1, 0.05, SimConfig(9, 131073, 3))
    assert reports_equal(one, three)


# ------------------------------------------------- linear-scheme floor

def test_linear_bound_never_violated():
    for lams in ([1.5, 0.5], [2.0, 1.0, 0.5]):
        rep = verify_linear_bound(lams, 10 ** 4, SimConfig(42, 1, 2))
        assert rep.trials == 10 ** 4
        assert rep.violations == 0
        assert rep.min_margin >= -1e-9


def test_linear_bound_equality_at_uncoded_configuration():
    for gamma in (0.5, 3.0, 10.0):
        assert abs(uncoded_equality_gap([1.5, 0.5], gamma)) <= 1e-9
    assert abs(uncoded_equality_gap([2.0, 1.0, 0.5], 2.0)) <= 1e-9


def test_linear_bound_zero_gain_is_trivially_tight():
    lams = [1.5, 0.5]
    assert linear_bound(lams, [0.0, 0.0]) == 2.0 * (1.5 + 0.5)
    # zero gain means the decoder sees pure noise; any valid linear decoder
    # then has w = 0 and cost exactly 2 tr(S)
    assert uncoded_equality_gap(lams, 0.0) == 0.0


def test_linear_bound_validation():
    sim = SimConfig(0, 1)
    with pytest.raises(ValueError):
        verify_linear_bound([0.5, 1.5], 10, sim)
    with pytest.raises(ValueError):
        verify_linear_bound([1.5, 0.5], 0, sim)
    for lams in ([math.nan, 0.5], [math.inf, 0.5], [1.5, math.nan]):
        with pytest.raises(ValueError):
            verify_linear_bound(lams, 1000, sim)


def test_linear_bound_worker_invariance():
    one = verify_linear_bound([1.5, 0.5], 50001, SimConfig(3, 1, 1))
    four = verify_linear_bound([1.5, 0.5], 50001, SimConfig(3, 1, 4))
    assert one == four


def test_random_linear_decoders_sampled_cost_matches_closed_form():
    # independent route: actually build each random decoder, including the
    # Gaussian fill with the exact complementary covariance, and sample it
    lams = np.array([1.5, 0.5])
    rng = np.random.default_rng(99)
    nsamp = 20000
    for _ in range(20):
        g = rng.standard_normal(2)
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        power = float(g * g @ lams)
        hmax = 1.0 / math.sqrt((power + 1.0) * float((u * u) @ (1.0 / lams)))
        h = rng.random() * hmax
        w = h * u
        closed = 2.0 * lams.sum() - 2.0 * float(w * lams @ g)
        fill_cov = np.diag(lams) - (power + 1.0) * np.outer(w, w)
        vals, vecs = np.linalg.eigh(fill_cov)
        root = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
        x = rng.standard_normal((nsamp, 2)) * np.sqrt(lams)
        obs = x @ g + rng.standard_normal(nsamp)
        y = obs[:, None] * w + rng.standard_normal((nsamp, 2)) @ root.T
        cost = ((x - y) ** 2).sum(axis=1)
        se = cost.std(ddof=1) / math.sqrt(nsamp)
        assert abs(cost.mean() - closed) <= 4.0 * se
        assert cost.mean() >= linear_bound(list(lams), list(g)) - 4.0 * se


# -------------------------------------------------------- block harness

def candidate(n, codebooks=32, typ=0.05):
    return binary_separation_block_config(0.25, 0.2, 0.005, 0.6, n=n,
                                          typ_delta=typ, codebooks=codebooks)


def test_block_config_validation():
    cfg = candidate(4)
    with pytest.raises(ValueError):
        BlockCodeConfig(n=0, rate=0.5, source=cfg.source,
                        code_marginal=cfg.code_marginal,
                        x_given_z=cfg.x_given_z, u_given_xz=cfg.u_given_xz,
                        channel=cfg.channel, dec_cond=cfg.dec_cond,
                        target=cfg.target, dist=cfg.dist)
    with pytest.raises(ValueError):
        BlockCodeConfig(n=4, rate=0.0, source=cfg.source,
                        code_marginal=cfg.code_marginal,
                        x_given_z=cfg.x_given_z, u_given_xz=cfg.u_given_xz,
                        channel=cfg.channel, dec_cond=cfg.dec_cond,
                        target=cfg.target, dist=cfg.dist)
    bad_rows = cfg.x_given_z.copy()
    bad_rows[0, 0] += 0.2
    with pytest.raises(ValueError, match="sum to 1"):
        BlockCodeConfig(n=4, rate=0.5, source=cfg.source,
                        code_marginal=cfg.code_marginal, x_given_z=bad_rows,
                        u_given_xz=cfg.u_given_xz, channel=cfg.channel,
                        dec_cond=cfg.dec_cond, target=cfg.target,
                        dist=cfg.dist)
    with pytest.raises(ValueError, match="source law"):
        BlockCodeConfig(n=4, rate=0.5, source=bern(0.4),
                        code_marginal=cfg.code_marginal,
                        x_given_z=cfg.x_given_z, u_given_xz=cfg.u_given_xz,
                        channel=cfg.channel, dec_cond=cfg.dec_cond,
                        target=cfg.target, dist=cfg.dist)


def test_codebook_size_is_exact_ceiling():
    for n, rate, want in ((4, 0.6, 6), (8, 0.6, 28), (12, 0.6, 148),
                          (4, 0.25, 2), (8, 0.25, 4), (12, 0.25, 8),
                          (5, 0.4, 4)):
        cfg = binary_separation_block_config(0.25, 0.2, 0.005, rate, n=n)
        assert cfg.codebook_size == want
        assert cfg.codebook_size == math.ceil(2.0 ** (n * rate))


def test_builder_rejects_rates_without_slack():
    with pytest.raises(ValueError, match="rate"):
        binary_separation_block_config(0.25, 0.2, 0.005, 0.05, n=4)
    with pytest.raises(ValueError, match="rate"):
        binary_separation_block_config(0.25, 0.2, 0.1, 0.95, n=4)


def test_block_budget_gate():
    cfg = candidate(12)
    assert 12 * math.log2(4) == 24.0  # boundary blocklength is admitted
    with pytest.raises(BudgetExceeded):
        sim_block_hybrid(candidate(13), SimConfig(0, 16))


def test_exact_laws_match_brute_force_enumeration():
    cfg = binary_separation_block_config(0.25, 0.2, 0.05, 0.4, n=2)
    code = np.array([[0, 2], [1, 3]])
    laws = _codebook_laws(cfg, code)

    pz = cfg.code_marginal.probs
    px = cfg.source.probs
    qv = np.einsum("xzu,uv->xzv", cfg.u_given_xz, cfg.channel.matrix)
    pvz = np.einsum("zx,xzv->zv", cfg.x_given_z, qv)
    pzv = pz[:, None] * pvz
    n, msgs = 2, 2

    def brute_decode(vblk):
        typ = []
        for m in range(msgs):
            cnt = np.zeros((4, 2))
            for t in range(n):
                cnt[code[m, t], vblk[t]] += 1
            typ.append(bool(np.abs(cnt / n - pzv).max() <= cfg.typ_delta))
        if sum(typ) == 1:
            return typ.index(True), False
        ll = [sum(math.log(pvz[code[m, t], vblk[t]]) for t in range(n))
              for m in range(msgs)]
        return int(np.argmax(ll)), True

    pv = np.zeros(4)
    pyhat = np.zeros(4)
    err = 0.0
    for xblk in itertools.product(range(2), repeat=n):
        pxn = np.prod([px[x] for x in xblk])
        wts = np.array([np.prod([cfg.x_given_z[code[m, t], xblk[t]]
                                 for t in range(n)]) for m in range(msgs)])
        beta = pxn * wts / wts.sum()
        for m in range(msgs):
            for vblk in itertools.product(range(2), repeat=n):
                mass = beta[m] * np.prod(
                    [qv[xblk[t], code[m, t], vblk[t]] for t in range(n)])
                vidx = 2 * vblk[0] + vblk[1]
                pv[vidx] += mass
                mhat, fail = brute_decode(vblk)
                if mhat != m:
                    err += mass
                assert laws.decode_map[vidx] == mhat
                assert laws.typ_fail[vidx] == fail
                for yblk in itertools.product(range(2), repeat=n):
                    pyhat[2 * yblk[0] + yblk[1]] += mass * np.prod(
                        [cfg.dec_cond[code[mhat, t], vblk[t], yblk[t]]
                         for t in range(n)])

    assert np.abs(laws.p_v - pv).max() < 1e-12
    assert np.abs(laws.p_yhat - pyhat).max() < 1e-12
    tv = 0.5 * np.abs(pyhat - np.array(
        [0.75 * 0.75, 0.75 * 0.25, 0.25 * 0.75, 0.25 * 0.25])).sum()
    assert abs(laws.tv_to_target - tv) < 1e-12
    assert abs(laws.msg_error - err) < 1e-12


def _loop_decode_tables(cfg, code, pvz, v_blocks):
    """Reference decoder, one message at a time: integer joint-type counts
    by bincount and a row-summed log-likelihood per message."""
    n = cfg.n
    msgs = code.shape[0]
    nz, nv = pvz.shape
    nblocks = v_blocks.shape[0]
    npairs = nz * nv
    rows = np.arange(nblocks)
    typical = np.empty((msgs, nblocks), dtype=bool)
    loglik = np.empty((msgs, nblocks))
    with np.errstate(divide="ignore"):
        logpvz = np.log(pvz)
    flat_target = (cfg.code_marginal.probs[:, None] * pvz).ravel()
    for m in range(msgs):
        pair = code[m][None, :] * nv + v_blocks
        counts = np.bincount(
            (rows[:, None] * npairs + pair).ravel(),
            minlength=nblocks * npairs).reshape(nblocks, npairs)
        dev = np.abs(counts / n - flat_target[None, :]).max(axis=1)
        typical[m] = dev <= cfg.typ_delta
        loglik[m] = logpvz[code[m][None, :], v_blocks].sum(axis=1)
    typ_fail = typical.sum(axis=0) != 1
    decode = np.where(typ_fail, loglik.argmax(axis=0),
                      typical.argmax(axis=0))
    return decode, typ_fail


def _loop_codebook_laws(cfg, code):
    """Reference exact laws: each message's tensor is contracted on its own
    with tensordot and the messages are added one after another."""
    n = cfg.n
    msgs = code.shape[0]
    nx = len(cfg.source)
    nv = len(cfg.channel.output_alphabet)
    ny = len(cfg.target)
    qv, pvz = _symbol_kernels(cfg)
    x_blocks = _enumerate_blocks(n, nx)
    v_blocks = _enumerate_blocks(n, nv)
    decode, typ_fail = _loop_decode_tables(cfg, code, pvz, v_blocks)

    px_n = _product_law(cfg.source.probs, x_blocks)
    w = np.ones((msgs, x_blocks.shape[0]))
    for t in range(n):
        w *= cfg.x_given_z[code[:, t]][:, x_blocks[:, t]]
    wtot = w.sum(axis=0)
    uncovered = wtot <= 0.0
    beta = np.where(uncovered[None, :], px_n[None, :] / msgs,
                    px_n[None, :] * w / np.where(uncovered, 1.0, wtot))

    p_v = np.zeros(v_blocks.shape[0])
    msg_error = 0.0
    for m in range(msgs):
        tensor = beta[m].reshape((nx,) * n)
        for t in range(n):
            tensor = np.tensordot(tensor, qv[:, code[m, t], :], axes=(0, 0))
        flat = tensor.reshape(-1)
        p_v += flat
        msg_error += float(flat[decode != m].sum())

    p_yhat = np.zeros(ny ** n)
    for mhat in np.unique(decode):
        masked = np.where(decode == mhat, p_v, 0.0).reshape((nv,) * n)
        for t in range(n):
            masked = np.tensordot(masked, cfg.dec_cond[code[mhat, t]],
                                  axes=(0, 0))
        p_yhat += masked.reshape(-1)
    p_target = _product_law(cfg.target.probs, _enumerate_blocks(n, ny))
    tv = 0.5 * float(np.abs(p_yhat - p_target).sum())
    return decode, typ_fail, p_v, p_yhat, tv, msg_error


def assert_laws_equal_loop(cfg, code):
    laws = _codebook_laws(cfg, code)
    decode, typ_fail, p_v, p_yhat, tv, msg_error = \
        _loop_codebook_laws(cfg, code)
    assert np.array_equal(laws.decode_map, decode)
    assert np.array_equal(laws.typ_fail, typ_fail)
    assert np.array_equal(laws.p_v, p_v)
    assert np.array_equal(laws.p_yhat, p_yhat)
    assert laws.tv_to_target == tv
    assert laws.msg_error == msg_error


def _random_config(rng, nx, nz, nu, nv, ny, n, rate):
    """Random exact-path configuration; cubed entries put some kernel
    probabilities near zero."""
    def stochastic(shape):
        a = rng.random(shape) ** 3
        return a / a.sum(axis=-1, keepdims=True)

    def names(k, prefix):
        return tuple(f"{prefix}{i}" for i in range(k))

    pz = stochastic((nz,))
    xz = stochastic((nz, nx))
    return BlockCodeConfig(
        n=n, rate=rate, source=DiscreteDistribution(names(nx, "x"), pz @ xz),
        code_marginal=DiscreteDistribution(names(nz, "z"), pz),
        x_given_z=xz, u_given_xz=stochastic((nx, nz, nu)),
        channel=DiscreteChannel(names(nu, "u"), names(nv, "v"),
                                stochastic((nu, nv))),
        dec_cond=stochastic((nz, nv, ny)),
        target=DiscreteDistribution(names(ny, "y"), stochastic((ny,))),
        dist=rng.random((nx, ny)), typ_delta=float(rng.uniform(0.05, 0.4)))


@pytest.mark.parametrize("n", list(range(1, 25)) + [129, 136, 300])
def test_pairwise_sum_matches_numpy_row_sum(n):
    # the decoder's fallback argmax depends on the last bit of each
    # log-likelihood, so the lane order must be numpy's own
    rng = np.random.default_rng(n)
    rows = (rng.standard_normal((400, n))
            * 10.0 ** rng.integers(-8, 9, (400, n)))
    rows[rng.random((400, n)) < 0.03] = -np.inf
    assert np.array_equal(_pairwise_sum(lambda t: rows[:, t], n),
                          rows.sum(axis=-1))


@pytest.mark.parametrize("n", range(1, 13))
def test_batched_laws_equal_per_message_loop(n):
    cfg = candidate(n, codebooks=1)
    code = np.random.default_rng(n).integers(0, 4, (cfg.codebook_size, n))
    assert_laws_equal_loop(cfg, code)


@pytest.mark.parametrize("sizes", [
    (3, 2, 3, 5, 3, 3), (5, 3, 2, 4, 2, 2), (2, 3, 2, 2, 5, 4),
    # one channel output: every kernel is a column vector
    (5, 4, 2, 1, 3, 3),
    # one target symbol: the reconstruction law has a single entry
    (2, 4, 2, 3, 1, 3)])
def test_batched_laws_equal_loop_on_wide_alphabets(sizes):
    nx, nz, nu, nv, ny, n = sizes
    rng = np.random.default_rng(sum(sizes))
    cfg = _random_config(rng, nx, nz, nu, nv, ny, n, 2.0)
    code = rng.integers(0, nz, (cfg.codebook_size, n))
    assert cfg.codebook_size > 8
    assert_laws_equal_loop(cfg, code)


def test_decoder_routes_agree_on_every_block(monkeypatch):
    # the enumeration broadcasts each position's term over its block axis,
    # sampled rows gather it and are decoded in slices; all three agree
    cfg = candidate(10, codebooks=1, typ=0.1)
    code = block_sim._cdf_draw(
        np.random.default_rng(3).random((cfg.codebook_size, 10)),
        np.cumsum(cfg.code_marginal.probs))
    _, pvz = _symbol_kernels(cfg)
    blocks = _enumerate_blocks(10, 2)
    enumerated = _decode_tables(cfg, code, pvz)
    rows = _decode_tables(cfg, code, pvz, blocks)
    monkeypatch.setattr(block_sim, "_DECODE_ROWS", 100)
    sliced = _decode_tables(cfg, code, pvz, blocks)
    for got in (rows, sliced):
        assert all(np.array_equal(a, b) for a, b in zip(enumerated, got))
    assert enumerated[1].any() and not enumerated[1].all()


def test_decode_routes_agree():
    # the tabulated decode map and decoding each sampled block directly are
    # one decoder, so the sampled phase must not depend on the route
    cfg = candidate(8, codebooks=1)
    code = np.random.default_rng(0).integers(0, 4, (cfg.codebook_size, 8))
    laws = _codebook_laws(cfg, code)
    sim = SimConfig(6, 40000)
    tabled = _generate_phase(cfg, code, laws.decode_map, sim, stream=2)
    direct = _generate_phase(cfg, code, None, sim, stream=2)
    assert len(tabled) == len(direct) == 2
    for a, b in zip(tabled, direct):
        assert all(np.array_equal(u, w) for u, w in zip(a, b))
    assert laws.typ_fail.any() and any(p[2].any() for p in tabled)


def test_exact_laws_conserve_mass_and_handle_uncovered_blocks():
    # deterministic x_given_z plus a codebook that misses some patterns
    # forces the uniform-posterior fallback; total mass must survive it
    src = bern(0.5)
    cfg = BlockCodeConfig(
        n=2, rate=0.5, source=src,
        code_marginal=DiscreteDistribution(("a", "b"), np.array([0.5, 0.5])),
        x_given_z=np.eye(2), u_given_xz=np.tile(np.eye(2)[:, None, :], (1, 2, 1)),
        channel=bsc(0.1), dec_cond=np.tile(np.eye(2)[None, :, :], (2, 1, 1)),
        target=src, dist=1.0 - np.eye(2))
    code = np.array([[0, 0], [0, 0]])
    laws = _codebook_laws(cfg, code)
    assert_laws_equal_loop(cfg, code)
    assert abs(laws.p_v.sum() - 1.0) < 1e-12
    assert abs(laws.p_yhat.sum() - 1.0) < 1e-12
    assert 0.0 <= laws.msg_error <= 1.0


def test_block_reduction_to_single_letter_uncoded():
    # one z-symbol, identity channel input, tuned decoder: the harness
    # collapses to the uncoded passthrough scheme with a perfect marginal
    rho, theta = 0.25, 0.25
    val, (a, b) = d_uncoded(rho, theta)
    z = DiscreteDistribution(("z",), np.array([1.0]))
    dec = np.empty((1, 2, 2))
    dec[0, 0] = [1.0 - a, a]
    dec[0, 1] = [b, 1.0 - b]
    cfg = BlockCodeConfig(
        n=1, rate=1.0, source=bern(rho), code_marginal=z,
        x_given_z=np.array([[1.0 - rho, rho]]),
        u_given_xz=np.eye(2)[:, None, :], channel=bsc(theta),
        dec_cond=dec, target=bern(rho), dist=1.0 - np.eye(2), codebooks=3)
    rep = sim_block_hybrid(cfg, SimConfig(31, 200000, 2))
    assert abs(rep.mean_distortion - val) <= 3.0 * rep.std_error
    # every draw repeats the single codeword, and the tuned decoder already
    # hits the target law so the coupling never rewrites a symbol
    for draw in rep.codebook_draws:
        assert draw.degenerate
        assert draw.exact_law
        assert draw.tv_to_target < 1e-12
    assert rep.tv_to_target < 1e-12


def test_block_overloaded_rate_mostly_fails():
    # 1024 messages through 16 possible codewords cannot be told apart
    cfg = BlockCodeConfig(
        n=4, rate=2.5, source=bern(0.5),
        code_marginal=DiscreteDistribution(("a", "b"), np.array([0.5, 0.5])),
        x_given_z=np.array([[0.9, 0.1], [0.1, 0.9]]),
        u_given_xz=np.tile(np.eye(2)[:, None, :], (1, 2, 1)),
        channel=bsc(0.05), dec_cond=np.tile(np.eye(2)[None, :, :], (2, 1, 1)),
        target=bern(0.5), dist=1.0 - np.eye(2), codebooks=2)
    assert cfg.codebook_size == 1024
    rep = sim_block_hybrid(cfg, SimConfig(5, 256))
    assert rep.msg_error_rate > 0.9


def test_block_trend_over_blocklength():
    # the acceptance configuration: both medians improve as n grows
    sim = SimConfig(seed=20260825, samples=512, workers=2)
    errs, tvs = [], []
    for n in (4, 8, 12):
        rep = sim_block_hybrid(candidate(n), sim)
        errs.append(rep.msg_error_rate)
        tvs.append(rep.tv_to_target)
        assert rep.codebook_draws[0].exact_law
    assert errs[0] >= errs[1] >= errs[2]
    assert tvs[0] >= tvs[1] >= tvs[2]
    assert errs[2] < 0.05 and tvs[2] < 0.08


def test_block_draw_metrics_do_not_depend_on_sample_count():
    # per-codebook law quantities are exact, so changing the sampling
    # budget must not move them
    small = sim_block_hybrid(candidate(8, codebooks=4), SimConfig(2, 128))
    large = sim_block_hybrid(candidate(8, codebooks=4), SimConfig(2, 2048))
    for a, b in zip(small.codebook_draws, large.codebook_draws):
        assert a == b


def test_block_marginal_near_target():
    rep = sim_block_hybrid(candidate(8, codebooks=8), SimConfig(4, 4096, 2))
    probs = rep.empirical_marginal.probs
    assert abs(probs[1] - 0.25) < 0.02
    assert "exact per-codebook law" in rep.notes


def test_block_worker_invariance():
    cfg = candidate(8, codebooks=4)
    one = sim_block_hybrid(cfg, SimConfig(5, 70000, 1))
    four = sim_block_hybrid(cfg, SimConfig(5, 70000, 4))
    assert reports_equal(one, four)


def _wide_alphabet_config(codebooks=2):
    # |V| = 8 pushes n=9 past the enumeration budget for the channel
    # output space while |Z| stays within it, forcing the plug-in path
    nu = nv = 8
    xz = np.array([[0.9, 0.1], [0.1, 0.9]])
    u_rows = np.zeros((2, 2, nu))
    u_rows[:, 0, 0] = 1.0
    u_rows[:, 1, 1] = 1.0
    chan = np.full((nu, nv), 0.02 / (nv - 1))
    np.fill_diagonal(chan, 0.98)
    dec = np.zeros((2, nv, 2))
    dec[0, :, 0] = 0.9
    dec[0, :, 1] = 0.1
    dec[1, :, 0] = 0.1
    dec[1, :, 1] = 0.9
    return BlockCodeConfig(
        n=9, rate=0.3, source=bern(0.5),
        code_marginal=DiscreteDistribution(("a", "b"), np.array([0.5, 0.5])),
        x_given_z=xz, u_given_xz=u_rows,
        channel=DiscreteChannel(tuple("abcdefgh"), tuple("ABCDEFGH"), chan),
        dec_cond=dec, target=bern(0.5), dist=1.0 - np.eye(2),
        codebooks=codebooks)


def test_block_plugin_path_flags_estimation():
    rep = sim_block_hybrid(_wide_alphabet_config(), SimConfig(2, 3000))
    for draw in rep.codebook_draws:
        assert not draw.exact_law
        assert draw.est_sigma is not None and draw.est_sigma > 0.0
        assert 0.0 <= draw.tv_to_target <= 1.0
    assert "plug-in" in " ".join(rep.notes)


def test_block_plugin_path_worker_invariance():
    cfg = _wide_alphabet_config()
    one = sim_block_hybrid(cfg, SimConfig(2, 3000, 1))
    three = sim_block_hybrid(cfg, SimConfig(2, 3000, 3))
    assert reports_equal(one, three)


def test_block_plugin_coupling_raises_when_proposals_run_out(monkeypatch):
    # one proposal per residual sample: some proposal is rejected, and the
    # coupling must say so rather than keep the rejected candidate
    monkeypatch.setattr(block_sim, "_PLUGIN_TRIES", 1)
    with pytest.raises(MaxIterError, match="1 proposals"):
        sim_block_hybrid(_wide_alphabet_config(), SimConfig(2, 3000))


def _binary_code_config(n, rate):
    """Binary codeword, source, channel and target alphabets: n bits of
    each, so the exact path admits n up to the enumeration bit budget."""
    bsc = np.array([[0.9, 0.1], [0.1, 0.9]])
    copy = np.zeros((2, 2, 2))
    copy[0, :, 0] = copy[1, :, 1] = 1.0
    return BlockCodeConfig(
        n=n, rate=rate, source=bern(0.5),
        code_marginal=DiscreteDistribution(("a", "b"), np.array([0.5, 0.5])),
        x_given_z=bsc, u_given_xz=copy,
        channel=DiscreteChannel(("0", "1"), ("0", "1"), bsc),
        dec_cond=np.stack([bsc, bsc]), target=bern(0.5),
        dist=1.0 - np.eye(2))


def test_block_byte_budget_gate(monkeypatch):
    cfg = candidate(8, codebooks=1)
    table = 8 * cfg.codebook_size * 2 ** 8
    monkeypatch.setattr(block_sim, "_ENUM_BYTES", table)
    assert sim_block_hybrid(cfg, SimConfig(0, 16)).codebook_draws[0].exact_law
    monkeypatch.setattr(block_sim, "_ENUM_BYTES", table - 1)
    with pytest.raises(BudgetExceeded, match="MiB"):
        sim_block_hybrid(cfg, SimConfig(0, 16))


def test_block_sample_budget_stops_before_any_codebook(monkeypatch):
    def no_draws(*args):
        raise AssertionError("codebook drawn past the sample budget")

    monkeypatch.setattr(block_sim, "_cdf_draw", no_draws)
    cfg = candidate(8, codebooks=1)
    monkeypatch.setattr(block_sim, "_ENUM_BYTES", 8 * 8 * 1000)
    with pytest.raises(BudgetExceeded, match="blocks of length 8 exceed"):
        sim_block_hybrid(cfg, SimConfig(0, 1001))


def test_block_byte_budget_stops_before_any_table(monkeypatch):
    # n = 20 bits fits the bit budget, but 2^20 blocks x 1024 messages of
    # float64 is 8 GiB; the gate must fire before the laws are built
    def no_tables(*args):
        raise AssertionError("exact laws built past the byte budget")

    monkeypatch.setattr(block_sim, "_codebook_laws", no_tables)
    cfg = _binary_code_config(20, 0.5)
    assert cfg.codebook_size == 1024
    with pytest.raises(BudgetExceeded, match="8192 MiB"):
        sim_block_hybrid(cfg, SimConfig(0, 16))


def _forbid_codebook_draws(monkeypatch):
    def no_draws(*args):
        raise AssertionError("codebook drawn")

    monkeypatch.setattr(block_sim, "_cdf_draw", no_draws)


def test_block_sample_weights_budget_stops_before_any_codebook(monkeypatch):
    # the sampled phase holds a chunk x messages table of encoder weights
    # per thread; the gate counts it before the first codebook is drawn
    _forbid_codebook_draws(monkeypatch)
    cfg = candidate(8, codebooks=1)
    weights = 8 * cfg.codebook_size * 1000
    # the exact table and the sample rows fit either budget below
    assert max(8 * 1000 * 8, 8 * cfg.codebook_size * 2 ** 8) < weights - 1
    monkeypatch.setattr(block_sim, "_ENUM_BYTES", weights)
    with pytest.raises(AssertionError, match="codebook drawn"):
        sim_block_hybrid(cfg, SimConfig(0, 1000))
    monkeypatch.setattr(block_sim, "_ENUM_BYTES", weights - 1)
    with pytest.raises(BudgetExceeded, match="encoder weights"):
        sim_block_hybrid(cfg, SimConfig(0, 1000))


def test_block_sample_weights_budget_counts_threads(monkeypatch):
    _forbid_codebook_draws(monkeypatch)
    monkeypatch.setattr(block_sim.os, "cpu_count", lambda: 4)
    cfg = candidate(8, codebooks=1)
    chunk = block_sim._CHUNK
    monkeypatch.setattr(block_sim, "_ENUM_BYTES", 8 * cfg.codebook_size * chunk)
    with pytest.raises(AssertionError, match="codebook drawn"):
        sim_block_hybrid(cfg, SimConfig(0, 2 * chunk, 1))
    with pytest.raises(BudgetExceeded, match="encoder weights"):
        sim_block_hybrid(cfg, SimConfig(0, 2 * chunk, 2))
    # one chunk runs on one thread whatever the worker count
    with pytest.raises(AssertionError, match="codebook drawn"):
        sim_block_hybrid(cfg, SimConfig(0, chunk, 2))


def test_block_plugin_path_sample_weights_budget(monkeypatch):
    # the plug-in path has no exact table, so this gate alone bounds its
    # messages, which rate sets without an upper limit
    _forbid_codebook_draws(monkeypatch)
    cfg = dataclasses.replace(_wide_alphabet_config(), rate=1.0)
    assert cfg.codebook_size == 512
    with pytest.raises(AssertionError, match="codebook drawn"):
        sim_block_hybrid(cfg, SimConfig(0, 1000))
    monkeypatch.setattr(block_sim, "_ENUM_BYTES", 8 * 512 * 1000 - 1)
    with pytest.raises(BudgetExceeded, match="encoder weights"):
        sim_block_hybrid(cfg, SimConfig(0, 1000))
    # 2^40 messages: 8 TiB of weights for a 16-sample chunk
    huge = dataclasses.replace(_wide_alphabet_config(), rate=40 / 9)
    monkeypatch.setattr(block_sim, "_ENUM_BYTES", 2 ** 28)
    with pytest.raises(BudgetExceeded, match="encoder weights"):
        sim_block_hybrid(huge, SimConfig(0, 16))
