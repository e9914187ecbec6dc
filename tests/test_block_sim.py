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
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from cot_lab import block_sim
from cot_lab.binary_case import d_hybrid, d_uncoded, hybrid_distortion
from cot_lab.block_sim import (
    BlockCodeConfig,
    BudgetExceeded,
    SimConfig,
    SimReport,
    _block_law,
    _codebook_laws,
    _pairwise_sum,
    _sample_chunk,
    _symbol_kernels,
    binary_separation_block_config,
    sim_block_hybrid,
    sim_genie_hybrid_binary,
    sim_uncoded_binary,
    sim_uncoded_gaussian,
)
from cot_lab.gaussian_case import GaussianConfig
from cot_lab.gaussian_case import d_uncoded as gauss_uncoded
from cot_lab.gaussian_case import linear_bound
from cot_lab.infokit import DiscreteChannel, DiscreteDistribution
from linear_bound_spec import uncoded_equality_gap, verify_linear_bound


def _enumerate_blocks(n, base):
    return np.stack(np.unravel_index(np.arange(base ** n), (base,) * n), 1)


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


@pytest.mark.parametrize("kwargs, name", [
    (dict(seed=1.5, samples=10), "seed"),
    (dict(seed=1.9, samples=10), "seed"),
    (dict(seed=0, samples=math.nan), "samples"),
    (dict(seed=0, samples=1e5), "samples"),
    (dict(seed=0, samples=10, workers=2.0), "workers"),
])
def test_sim_config_refuses_counts_that_are_not_integers(kwargs, name):
    # a float seed was once truncated, so 1.5 and 1.9 both ran seed 1
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        SimConfig(**kwargs)


def test_sim_config_takes_numpy_integers_as_ints():
    sim = SimConfig(np.uint64(7), np.int64(10), np.int32(2))
    assert (sim.seed, sim.samples, sim.workers) == (7, 10, 2)
    assert {type(sim.seed), type(sim.samples), type(sim.workers)} == {int}


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
    for rho in (0.0, 0.6, math.nan):
        with pytest.raises(ValueError,
                           match=r"^rho must lie in \(0, 1/2\]$"):
            sim_uncoded_binary(rho, 0.1, (0.0, 0.0), sim)
    for theta in (-0.1, 0.7, math.nan):
        with pytest.raises(ValueError,
                           match=r"^theta must lie in \[0, 1/2\]$"):
            sim_uncoded_binary(0.25, theta, (0.0, 0.0), sim)
    with pytest.raises(ValueError, match="decoder"):
        sim_uncoded_binary(0.25, 0.1, (1.5, 0.0), sim)
    # rho = 1/2 is a fair bit, which the closed interval admits
    rep = sim_uncoded_binary(0.5, 0.1, (0.0, 0.0), sim)
    assert rep.samples == 10


def record_pools(monkeypatch, cpus):
    """Stand in a serial recorder for the pool threads on a machine of cpus
    cores; returns, for every pool started, the threads at work on its jobs
    (its pool threads and the caller) and the jobs."""
    seen = []
    calls = []
    pool_map = block_sim._pool_map

    def recorded_map(fn, jobs, threads):
        # [jobs, pool threads started, where the pool sits in seen]
        calls.append([list(jobs), 0, len(seen)])
        try:
            return pool_map(fn, jobs, threads)
        finally:
            jobs, started, at = calls.pop()
            if started:
                seen.insert(at, (started + 1, jobs))

    class Recorder:
        def __init__(self, target):
            self.target = target

        def start(self):
            # the pool thread's share runs at once, on the caller's thread
            calls[-1][1] += 1
            self.target()

        def join(self):
            pass

    monkeypatch.setattr(block_sim, "_pool_map", recorded_map)
    monkeypatch.setattr(block_sim, "Thread", Recorder)
    monkeypatch.setattr(block_sim, "_cpus", lambda: cpus)
    return seen


@pytest.mark.parametrize("workers, chunks, cpus, threads", [
    (64, 3, 4, 3), (64, 10, 4, 4), (2, 10, 4, 2), (8, 1, 4, None),
    (1, 10, 4, None), (8, 10, 1, None)])
def test_run_chunks_clamps_the_pool(monkeypatch, workers, chunks, cpus,
                                    threads):
    seen = record_pools(monkeypatch, cpus)
    sim = SimConfig(0, chunks * block_sim._CHUNK, workers)
    counts = block_sim._run_chunks(lambda rng, n: n, sim)
    assert counts == [block_sim._CHUNK] * chunks
    assert [size for size, _ in seen] == ([] if threads is None
                                          else [threads])


@pytest.mark.parametrize("workers, jobs, cpus", [
    (2, 10, 2), (3, 10, 4), (8, 2, 4), (8, 10, 3), (1, 10, 4)])
def test_pool_puts_the_caller_to_work(monkeypatch, workers, jobs, cpus):
    # each of the first `threads` jobs waits until that many are running,
    # so they run on distinct threads, the caller among them; one thread
    # too few breaks the barrier, one too many takes a later job
    monkeypatch.setattr(block_sim, "_cpus", lambda: cpus)
    threads = min(workers, jobs, cpus)
    before = threading.active_count()
    # counted once all of them wait, before any can finish and leave
    alive = []
    barrier = threading.Barrier(
        threads, lambda: alive.append(threading.active_count()), 30.0)
    idents = set()

    def job(j):
        idents.add(threading.get_ident())
        if j < threads:
            barrier.wait()
        return j

    assert block_sim._pool_map(job, range(jobs), workers) == list(
        range(jobs))
    # the caller and threads - 1 pool threads
    assert alive == [before + threads - 1]
    assert len(idents) == threads
    assert threading.get_ident() in idents
    assert threading.active_count() == before


def test_pool_returns_results_in_job_order(monkeypatch):
    # job 0 waits until job 1 has finished, on the other thread, so the
    # results are computed out of job order
    monkeypatch.setattr(block_sim, "_cpus", lambda: 2)
    done = threading.Event()

    def job(j):
        if j == 0:
            assert done.wait(30.0)
        elif j == 1:
            done.set()
        return -j

    assert block_sim._pool_map(job, range(100), 2) == [-j for j in range(100)]


def test_pool_runs_every_job_once_under_contention(monkeypatch):
    # eight threads switching every microsecond: a job taken twice or
    # never shows in the jobs run
    monkeypatch.setattr(block_sim, "_cpus", lambda: 8)
    taken = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = block_sim._pool_map(lambda j: taken.append(j) or -j,
                                  range(20000), 8)
    finally:
        sys.setswitchinterval(interval)
    assert out == [-j for j in range(20000)]
    assert sorted(taken) == list(range(20000))


def test_pool_stops_at_the_first_failing_job(monkeypatch):
    # the first job raises at once: the other thread finishes the job it
    # holds and takes no more, where draining the 10^5 trivial jobs would
    # run every one of them
    monkeypatch.setattr(block_sim, "_cpus", lambda: 2)
    before = threading.active_count()
    ran = []

    def job(j):
        if j == 0:
            raise ArithmeticError("job 0")
        ran.append(j)

    with pytest.raises(ArithmeticError, match="^job 0$"):
        block_sim._pool_map(job, range(10 ** 5), 2)
    assert len(ran) < 10 ** 4
    assert threading.active_count() == before


def test_interrupted_simulation_stops_within_two_seconds(tmp_path):
    # 3 x 10^8 samples take about 10 s on two workers; after SIGINT each
    # thread finishes the 32768-sample chunk it holds and takes no more
    src = os.path.dirname(os.path.dirname(block_sim.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cot_lab.cli", "simulate", "uncoded-binary",
         "--rho", "0.25", "--theta", "0.1", "--seed", "1", "--samples",
         "300000000", "--workers", "2", "--out", "r.json"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        time.sleep(1.5)
        assert proc.poll() is None
        proc.send_signal(signal.SIGINT)
        t0 = time.perf_counter()
        _, err = proc.communicate(timeout=30.0)
        stopped = time.perf_counter() - t0
    finally:
        proc.kill()
        proc.wait()
    # the interrupt landed in a sampling chunk, not in the start-up
    assert b"KeyboardInterrupt" in err and b"block_sim" in err
    assert proc.returncode != 0
    assert stopped < 2.0
    assert not (tmp_path / "r.json").exists()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="the platform has no CPU affinity mask")
def test_pool_counts_only_the_cpus_the_process_may_run_on():
    # a process pinned to one CPU (as under taskset -c 0) starts no pool
    # thread, however many CPUs the machine has: every job runs on the
    # caller. Pinned in a child, so this process keeps its CPUs
    script = """
import os, threading
from cot_lab import block_sim
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
idents = block_sim._pool_map(lambda j: threading.get_ident(), range(8), 2)
print(block_sim._cpus(), idents == [threading.get_ident()] * 8)
"""
    src = os.path.dirname(os.path.dirname(block_sim.__file__))
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["1", "True"]


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


def test_uncoded_gaussian_refuses_a_tiny_largest_eigenvalue(monkeypatch):
    # the fourth-moment sums square lambda^2: at 1.5e-160 std_error read
    # 0.0, and at 1e-320 the report held a NaN
    def no_draws(*args, **kwargs):
        raise AssertionError("drew samples")

    monkeypatch.setattr(block_sim, "_run_chunks", no_draws)
    for lams in ([1.5e-160, 0.5e-160], [1e-320]):
        with pytest.raises(ValueError, match="largest eigenvalue must be at "
                                             "least 1e-150"):
            sim_uncoded_gaussian(lams, 2.0, SimConfig(0, 64))


def test_uncoded_gaussian_at_the_smallest_scale_scales_the_unit_answers():
    sim = SimConfig(3, 4096)
    unit = sim_uncoded_gaussian([1.5, 0.5], 2.0, sim)
    tiny = sim_uncoded_gaussian([1.5e-150, 0.5e-150], 2.0, sim)
    assert tiny.std_error / 1e-150 == pytest.approx(unit.std_error,
                                                    rel=1e-14)
    assert tiny.mean_distortion / 1e-150 == pytest.approx(
        unit.mean_distortion, rel=1e-14)


def test_uncoded_gaussian_worker_invariance():
    one = sim_uncoded_gaussian([2.0, 1.0, 0.5], 2.0, SimConfig(9, 200001, 1))
    four = sim_uncoded_gaussian([2.0, 1.0, 0.5], 2.0, SimConfig(9, 200001, 4))
    assert reports_equal(one, four)


def _table_uncoded_gaussian(lambdas, gamma, sim):
    """Reference simulator: the same draws worked as count x dim tables,
    the sums taken by numpy over rows and columns."""
    lams = list(lambdas)
    dim = len(lams)
    scale = np.sqrt(lams)
    gain = math.sqrt(gamma / lams[0])
    back = math.sqrt(lams[0] / (gamma + 1.0))

    def chunk(rng, count):
        x = rng.standard_normal((count, dim)) * scale
        noise = rng.standard_normal(count)
        fill = rng.standard_normal((count, dim - 1)) * scale[1:]
        u = gain * x[:, 0]
        y = np.concatenate([(back * (u + noise))[:, None], fill], axis=1)
        diff = ((x - y) ** 2).sum(axis=1)
        return (count, float(diff.sum()), float((diff * diff).sum()),
                y.sum(axis=0), (y * y).sum(axis=0), float((u * u).sum()))

    parts = block_sim._run_chunks(chunk, sim)
    mean, se, n = block_sim._pooled_moments(parts)
    ymean = np.sum([p[3] for p in parts], axis=0) / n
    yvar = np.sum([p[4] for p in parts], axis=0) / n - ymean * ymean
    moments = tuple((float(m), float(v)) for m, v in zip(ymean, yvar))
    worst = float(np.max(np.abs(yvar - np.asarray(lams))))
    power = math.fsum(p[5] for p in parts) / n
    return SimReport(mean, se, moments, worst, n, input_power=power)


@pytest.mark.parametrize("dim, workers", [
    pytest.param(dim, workers,
                 id=f"{dim}" if workers == 2 else f"{dim}-serial")
    for dim in (1, 2, 5, 8, 11, 20, 130) for workers in (2, 1)])
def test_uncoded_gaussian_columns_match_table_oracle(dim, workers):
    # from 8 components the per-sample distortion is a pairwise sum in
    # lanes, past 128 by halves, and one component makes numpy sum each
    # column pairwise; eigenvalues over six decades, so the order of the
    # additions shows in the last bits of the pooled sums
    lams = sorted(10.0 ** np.random.default_rng(dim).uniform(-3, 3, dim),
                  reverse=True)
    sim = SimConfig(dim, block_sim._CHUNK + 999, workers)
    assert reports_equal(sim_uncoded_gaussian(lams, 1.7, sim),
                         _table_uncoded_gaussian(lams, 1.7, sim))


def _words_used(rng):
    """64-bit words a Philox generator has handed out so far."""
    state = rng.bit_generator.state
    return 4 * int(state["state"]["counter"][0]) - 4 + state["buffer_pos"]


@pytest.mark.parametrize("sizes", [
    (2 * block_sim._CHUNK, block_sim._CHUNK, block_sim._CHUNK),
    (5 * 4099, 4099, 4 * 4099), (1000, 1, 999)])
def test_one_normal_draw_equals_consecutive_draws(sizes):
    # the Gaussian sampler cuts one draw where its three tables would
    # start; the ziggurat spends extra words on its rejections, so the cuts
    # fall mid-stream, and the values still match the calls one by one
    seed = sum(sizes)
    one = block_sim._rng(seed, 0, 3).standard_normal(sum(sizes))
    rng = block_sim._rng(seed, 0, 3)
    parts = []
    for size in sizes:
        parts.append(rng.standard_normal(size))
        assert _words_used(rng) > sum(map(len, parts))
    assert np.array_equal(one, np.concatenate(parts))


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
    # the checks are hybrid_params' own, messages included
    sim = SimConfig(0, 10)
    with pytest.raises(ValueError, match=r"^theta = 0 is degenerate here"):
        sim_genie_hybrid_binary(0.25, 0.0, 0.1, sim)
    with pytest.raises(ValueError, match=r"^theta must lie in \[0, 1/2\]$"):
        sim_genie_hybrid_binary(0.25, 0.7, 0.1, sim)
    with pytest.raises(ValueError, match=r"^delta1 must lie in \[0, rho\]$"):
        sim_genie_hybrid_binary(0.25, 0.1, 0.3, sim)


def test_genie_hybrid_worker_invariance():
    one = sim_genie_hybrid_binary(0.25, 0.1, 0.05, SimConfig(9, 131073, 1))
    three = sim_genie_hybrid_binary(0.25, 0.1, 0.05, SimConfig(9, 131073, 3))
    assert reports_equal(one, three)


# ------------------------------------------------- linear-scheme floor

def test_linear_bound_never_violated():
    for lams in ([1.5, 0.5], [2.0, 1.0, 0.5]):
        rep = verify_linear_bound(lams, SimConfig(42, 10 ** 4, 2))
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
    sim = SimConfig(0, 1000)
    with pytest.raises(ValueError):
        verify_linear_bound([0.5, 1.5], sim)
    with pytest.raises(ValueError):
        verify_linear_bound([1.5, 0.5], SimConfig(0, 0))
    for lams in ([math.nan, 0.5], [math.inf, 0.5], [1.5, math.nan]):
        with pytest.raises(ValueError):
            verify_linear_bound(lams, sim)


def test_linear_bound_worker_invariance():
    one = verify_linear_bound([1.5, 0.5], SimConfig(3, 50001, 1))
    four = verify_linear_bound([1.5, 0.5], SimConfig(3, 50001, 4))
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
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="typ_delta"):
            dataclasses.replace(cfg, typ_delta=bad)


def test_block_config_refuses_no_codebooks_and_bad_distortions():
    cfg = candidate(4)
    with pytest.raises(ValueError, match="codebooks must be at least 1"):
        dataclasses.replace(cfg, codebooks=0)
    with pytest.raises(ValueError, match="dist: expected shape"):
        dataclasses.replace(cfg, dist=np.zeros((2, 3)))
    with pytest.raises(ValueError, match="dist has negative entries"):
        dataclasses.replace(cfg, dist=np.array([[0.0, -1.0], [1.0, 0.0]]))


@pytest.mark.parametrize("field, bad", [("n", 2.5), ("n", 4.0),
                                        ("codebooks", math.nan),
                                        ("codebooks", 2.0)])
def test_block_config_refuses_counts_that_are_not_integers(field, bad):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        dataclasses.replace(candidate(4), **{field: bad})


def test_block_config_takes_numpy_integer_counts():
    cfg = dataclasses.replace(candidate(4), n=np.int64(4),
                              codebooks=np.uint8(2))
    assert (cfg.n, cfg.codebooks) == (4, 2)
    assert {type(cfg.n), type(cfg.codebooks)} == {int}


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


def test_block_budget_gate(monkeypatch):
    # the byte gate alone bounds the blocklength: 8192 messages over 2^13
    # blocks count 513 MiB, past the 256 MiB budget, and are refused before
    # any codebook is drawn
    _forbid_codebook_draws(monkeypatch)
    cfg = _binary_code_config(13, 1.0)
    assert cfg.codebook_size == 2 ** 13
    with pytest.raises(BudgetExceeded, match=" 513 MiB .* 256 MiB budget"):
        sim_block_hybrid(cfg, SimConfig(0, 16))


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


def _product_law(probs, blocks):
    """Probability of each block (row) under the i.i.d. law probs."""
    out = np.ones(blocks.shape[0])
    for t in range(blocks.shape[1]):
        out *= probs[blocks[:, t]]
    return out


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


def test_block_law_equals_the_enumerated_product_law():
    rng = np.random.default_rng(5)
    for k, n in ((1, 6), (2, 12), (3, 7), (4, 6)):
        probs = rng.random(k) ** 3
        probs /= probs.sum()
        assert np.array_equal(_block_law(probs, n),
                              _product_law(probs, _enumerate_blocks(n, k)))


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


def _cumsum_row_draw(rng_values, rows):
    """Reference categorical draw: count the cumulative weights below
    u * total, zero-weight rows read as uniform; the symbols come back as
    codes of the smallest unsigned dtype that holds all k letters."""
    cum = np.cumsum(rows, axis=-1)
    total = cum[..., -1:]
    k = rows.shape[-1]
    bad = total <= 0.0
    cum = np.where(bad, np.arange(1, k + 1, dtype=float), cum)
    total = np.where(bad, float(k), total)
    idx = (cum < rng_values[..., None] * total).sum(axis=-1)
    return np.minimum(idx, k - 1).astype(np.min_scalar_type(k - 1))


@pytest.mark.parametrize("k", [2, 3, 7, 148, 300])
def test_row_draw_matches_cumulative_reference(k):
    rng = np.random.default_rng(k)
    rows = rng.random((500, 6, k)) ** 4
    rows[:40] = 0.0                          # zero-weight rows
    rows[40:80, :, 0] = 0.0                  # a zero first weight
    rows[80:120, :, 1:] = 0.0                # all weight on the first
    rows[120:160] = rows[120:160] * 1e-300   # totals near underflow
    u = rng.random((500, 6))
    u[160:200] = u[:10] = np.nextafter(1.0, 0.0)
    u[40:50] = u[10:20] = 0.0
    u[20:40] = 0.5                           # uniform fallback boundary
    want = _cumsum_row_draw(u, rows)
    got = block_sim._row_draw(u, rows.copy())
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("k", [2, 3, 7, 148, 300])
@pytest.mark.parametrize("shape", [(5,), (3, 4)])
def test_table_draw_equals_row_draw_of_the_gathered_rows(k, shape):
    # the draw reads the per-symbol table's cumulative sums at the indices
    # one letter at a time; every index, total near underflow and edge
    # uniform must map to the symbol the gathered rows give (the callers'
    # rows sum to 1, so none has a zero total)
    rng = np.random.default_rng(10 * k + len(shape))
    table = rng.random(shape + (k,)) ** 4
    small = rng.random(shape) < 0.4
    table[small] = table[small] * 1e-300      # totals near underflow
    table[1, ..., 0] = 0.0                    # a zero first weight
    table[-1, ..., 1:] = 0.0                  # all weight on the first
    index = tuple(rng.integers(0, size, (600, 7)) for size in shape)
    u = rng.random((600, 7))
    u[:50] = 0.0
    u[50:100] = np.nextafter(1.0, 0.0)
    want = block_sim._row_draw(u, table[index])
    got = block_sim._table_draw(u, table, index)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert len(np.unique(index[0])) == shape[0]


@pytest.mark.parametrize("n", range(1, 13))
def test_batched_laws_equal_per_message_loop(n):
    cfg = candidate(n, codebooks=1)
    code = np.random.default_rng(n).integers(0, 4, (cfg.codebook_size, n))
    assert_laws_equal_loop(cfg, code)


@pytest.mark.parametrize("sizes", [
    (3, 2, 3, 5, 3, 3), (5, 3, 2, 4, 2, 2), (2, 3, 2, 2, 5, 4)])
def test_batched_laws_equal_loop_on_wide_alphabets(sizes):
    nx, nz, nu, nv, ny, n = sizes
    rng = np.random.default_rng(sum(sizes))
    cfg = _random_config(rng, nx, nz, nu, nv, ny, n, 2.0)
    code = rng.integers(0, nz, (cfg.codebook_size, n))
    assert cfg.codebook_size > 8
    assert_laws_equal_loop(cfg, code)


@pytest.mark.parametrize("sizes", [
    (3, 2, 3, 5, 3, 3), (5, 3, 2, 4, 2, 2), (2, 4, 2, 3, 2, 3),
    (5, 4, 2, 2, 3, 3)])
def test_laws_and_samples_do_not_depend_on_the_slab_size(monkeypatch, sizes):
    # three rows of the widest table per slab: many slab boundaries, an
    # uneven last slab, and source and output tables of different widths
    nx, nz, nu, nv, ny, n = sizes
    rng = np.random.default_rng(sum(sizes) + 1)
    cfg = dataclasses.replace(
        _random_config(rng, nx, nz, nu, nv, ny, n, 2.0), codebooks=2)
    code = rng.integers(0, nz, (cfg.codebook_size, n))
    wide = sim_block_hybrid(cfg, SimConfig(8, 3000))
    monkeypatch.setattr(block_sim, "_SLAB_BYTES",
                        8 * 3 * max(nx, nv, ny) ** n)
    assert_laws_equal_loop(cfg, code)
    assert reports_equal(wide, sim_block_hybrid(cfg, SimConfig(8, 3000)))


@pytest.mark.parametrize("alphabet, sizes", [
    ("source", (1, 3, 2, 2, 2)), ("channel output", (2, 3, 2, 1, 2)),
    ("target", (2, 3, 2, 2, 1))], ids=["source", "output", "target"])
def test_one_letter_alphabets_are_refused_before_any_draw(monkeypatch,
                                                         alphabet, sizes):
    # an enumerated space of one letter has a single block, which the byte
    # gate would not bound; such a config is refused when it is built
    _forbid_codebook_draws(monkeypatch)
    rng = np.random.default_rng(len(alphabet))
    with pytest.raises(ValueError,
                       match=f"^{alphabet} alphabet needs at least 2 letters"):
        _random_config(rng, *sizes, 4, 2.0)


def test_wide_alphabets_at_n1_hold_no_messages_x_kernels_table():
    # 256 source and output letters at n = 1 with 256 messages: each slab
    # gathers its own messages' 256 x 256 kernels, where one gather over
    # the codebook held a 128 MiB table. One codeword letter (allowed, as
    # the codeword space is not enumerated) keeps the typicality test to
    # 256 pairs
    k = 256
    rng = np.random.default_rng(k)
    cfg = _random_config(rng, k, 1, 2, k, 2, 1, 8.0)
    assert cfg.codebook_size == k
    tracemalloc.start()
    try:
        sim_block_hybrid(cfg, SimConfig(0, 64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20


def _encoder_weights(cfg, code, x):
    """Per-position reference for the likelihood encoder's weights,
    prod_t p(x_t | z_t(m)) over blocks x messages, multiplied from ones one
    position after another."""
    weights = np.ones((x.shape[0], code.shape[0]))
    for t in range(cfg.n):
        weights *= cfg.x_given_z[code[:, t]][:, x[:, t]].T
    return weights


def _per_position_sample_chunk(cfg, code, decode_map, rng, count):
    """The sampled phase with the per-position encoder weights; returns the
    (x, yhat) blocks and the weights of every slab."""
    n = cfg.n
    nv = len(cfg.channel.output_alphabet)
    vpow = nv ** np.arange(n - 1, -1, -1)
    x = block_sim._cdf_draw(rng.random((count, n)),
                            np.cumsum(cfg.source.probs))
    pick = rng.random(count)
    slabs = [_encoder_weights(cfg, code, x[s])
             for s in block_sim._slabs(count, code.shape[0])]
    m = np.concatenate([
        block_sim._row_draw(pick[s], w.copy())
        for s, w in zip(block_sim._slabs(count, code.shape[0]), slabs)])
    z = code[m]
    u = block_sim._row_draw(rng.random((count, n)), cfg.u_given_xz[x, z])
    v = block_sim._row_draw(rng.random((count, n)), cfg.channel.matrix[u])
    mhat = decode_map[(v * vpow).sum(axis=1)]
    yhat = block_sim._row_draw(rng.random((count, n)),
                               cfg.dec_cond[code[mhat], v])
    return x, yhat, slabs


@pytest.mark.parametrize("make, slab_rows, lead", [
    # the table covers every position, at n = 8 and the README rates
    (lambda rng: candidate(8, codebooks=1), None, 8),
    # 148 messages: the leading 8 of 12 positions, then 4 multiplies
    (lambda rng: candidate(12, codebooks=1), None, 8),
    # one messages-wide row per slab: no table, every position multiplies
    (lambda rng: candidate(8, codebooks=1), 1, 0),
    # three source letters: a table over the 9 patterns of 2 positions
    (lambda rng: _random_config(rng, 3, 4, 2, 3, 2, 5, 0.9), 9, 2),
    # more than 256 source, output and reconstruction letters at n = 1 and
    # 2, and more than 256 codeword letters: 2-byte symbol codes
    (lambda rng: _random_config(rng, 300, 2, 2, 300, 290, 1, 5.0), None, 1),
    (lambda rng: _random_config(rng, 2, 3, 2, 260, 270, 2, 2.5), None, 2),
    (lambda rng: _random_config(rng, 2, 300, 2, 2, 2, 2, 2.5), None, 2)])
def test_encoder_prefix_table_equals_per_position_weights(
        monkeypatch, make, slab_rows, lead):
    # the weights start from the products over the leading positions,
    # read from a table built in position order, so every weight, and with
    # it every sampled block, is the running product's to the bit. The
    # reference holds every symbol as an int64 index, so a compact symbol
    # code that wrapped past its dtype would draw from another row
    rng = np.random.default_rng(lead + 11)
    cfg = make(rng)
    nx, msgs = len(cfg.source), cfg.codebook_size
    if slab_rows is not None:
        monkeypatch.setattr(block_sim, "_SLAB_BYTES", 8 * msgs * slab_rows)
    fits = [h for h in range(cfg.n + 1)
            if nx ** h * msgs * 8 <= block_sim._SLAB_BYTES]
    assert max(fits, default=0) == lead
    code = rng.integers(0, len(cfg.code_marginal), (msgs, cfg.n))
    decode_map = rng.integers(0, msgs, len(cfg.channel.output_alphabet)
                              ** cfg.n)
    x, yhat, slabs = _per_position_sample_chunk(
        cfg, code, decode_map, block_sim._rng(5, 2, 0), 3001)
    seen = []
    row_draw = block_sim._row_draw

    def recording_row_draw(values, rows):
        if rows.ndim == 2:
            seen.append(rows.copy())
        return row_draw(values, rows)

    monkeypatch.setattr(block_sim, "_row_draw", recording_row_draw)
    got = _sample_chunk(cfg, code, decode_map, block_sim._rng(5, 2, 0), 3001)
    assert np.array_equal(got[0], x)
    assert np.array_equal(got[1], yhat)
    assert len(seen) == len(slabs) > 1
    assert all(np.array_equal(a, b) for a, b in zip(seen, slabs))
    assert got[0].dtype == np.min_scalar_type(nx - 1)
    assert got[1].dtype == np.min_scalar_type(len(cfg.target) - 1)
    for size, drawn in ((nx, x), (len(cfg.target), yhat),
                        (len(cfg.code_marginal), code)):
        assert size <= 256 or drawn.max() > 255


def test_sampled_message_error_matches_exact_law():
    # every block is a codeword, the encoder sends the source block's own
    # codeword and the reconstruction copies the decoded one, so the sent
    # and decoded messages are the enumeration indices of x and yhat. The
    # sampled phase looks each received block up in the decode map by its
    # enumeration index; reading the map in another order decodes other
    # blocks and moves the sampled error far from the exact one
    n = 4
    index = 2 ** np.arange(n - 1, -1, -1)
    code = _enumerate_blocks(n, 2)
    copy = np.zeros((2, 2, 2))
    copy[:, 0, 0] = copy[:, 1, 1] = 1.0

    def messages(theta, decode_map, samples):
        cfg = BlockCodeConfig(
            n=n, rate=1.0, source=bern(0.5),
            code_marginal=DiscreteDistribution(("a", "b"),
                                               np.array([0.5, 0.5])),
            x_given_z=np.eye(2), u_given_xz=copy, channel=bsc(theta),
            dec_cond=np.stack([np.tile(np.eye(2)[z], (2, 1))
                               for z in (0, 1)]),
            target=bern(0.5), dist=1.0 - np.eye(2))
        laws = _codebook_laws(cfg, code)
        parts = [_sample_chunk(
            cfg, code, laws.decode_map if decode_map is None else decode_map,
            block_sim._rng(6, 2, idx), count)
            for idx, count in block_sim._chunks(samples)]
        return (laws.msg_error,
                np.concatenate([p[0] for p in parts]) @ index,
                np.concatenate([p[1] for p in parts]) @ index)

    exact, sent, decoded = messages(0.1, None, 40000)
    assert 0.1 < exact < 0.9
    se = math.sqrt(exact * (1.0 - exact) / sent.size)
    assert abs(np.mean(sent != decoded) - exact) <= 4.0 * se
    # over a noiseless channel each block decodes to exactly the message
    # the map names at its index
    perm = np.random.default_rng(0).permutation(2 ** n)
    _, sent, decoded = messages(0.0, perm, 5000)
    assert np.array_equal(decoded, perm[sent])
    assert len(np.unique(sent)) == 2 ** n


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


def _unequal_alphabet_config(nx, nv, codebooks):
    """|X| != |V| at n = 8: the source and the channel output spaces have
    different block counts."""
    rng = np.random.default_rng(nx * 10 + nv)
    cfg = _random_config(rng, nx, 2, 2, nv, 2, 8, 0.5)
    return dataclasses.replace(cfg, codebooks=codebooks)


@pytest.mark.parametrize("make", [
    lambda books: candidate(8, codebooks=books),
    lambda books: _unequal_alphabet_config(3, 2, books),
    lambda books: _unequal_alphabet_config(2, 3, books),
    lambda books: candidate(12, codebooks=books)],
    ids=["n8", "x3-v2", "x2-v3", "n12"])
@pytest.mark.parametrize("codebooks", [1, 2, 5])
def test_block_report_does_not_depend_on_concurrent_codebooks(
        monkeypatch, make, codebooks):
    # more threads than cores and a short switch interval interleave the
    # codebooks, and the chunks of codebooks that leave workers over, as
    # much as possible
    monkeypatch.setattr(block_sim, "_CHUNK", 1024)
    cfg = make(codebooks)
    one = sim_block_hybrid(cfg, SimConfig(3, 4096, 1))
    monkeypatch.setattr(block_sim, "_cpus", lambda: 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (2, 3, 4):
            many = sim_block_hybrid(cfg, SimConfig(3, 4096, workers))
            assert reports_equal(one, many)
    finally:
        sys.setswitchinterval(interval)


def test_block_runs_fewer_codebooks_at_once_to_fit_the_byte_budget(
        monkeypatch):
    # with room for what one codebook holds (12 block-long vectors and two
    # slabs) but not two, the two workers draw the codebooks one at a time:
    # no pool starts, and the report is the one-worker report
    cfg = candidate(8, codebooks=3)
    one = sim_block_hybrid(cfg, SimConfig(4, 200, 1))
    held = 8 * 12 * 2 ** 8 + 2 * block_sim._SLAB_BYTES
    assert 8 * (cfg.codebook_size + 12) * 2 ** 8 <= held
    monkeypatch.setattr(block_sim, "_ENUM_BYTES", held)
    monkeypatch.setattr(block_sim, "_cpus", lambda: 2)

    def no_pool(target):
        raise AssertionError("a pool thread started")

    monkeypatch.setattr(block_sim, "Thread", no_pool)
    assert reports_equal(one, sim_block_hybrid(cfg, SimConfig(4, 200, 2)))


def test_block_working_set_is_a_few_tables(monkeypatch):
    # two n = 12 codebooks in flight: each works on slabs of its messages
    # and block-long vectors, and holds no messages x blocks table; the two
    # together peak below one such table (0.72-0.73 of it measured)
    monkeypatch.setattr(block_sim, "_cpus", lambda: 2)
    cfg = candidate(12, codebooks=8)
    table = 8 * cfg.codebook_size * 2 ** 12
    tracemalloc.start()
    try:
        sim_block_hybrid(cfg, SimConfig(7, 4096, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= table


@pytest.mark.parametrize("n, count", [(12, 4096), (8, 32768)])
def test_sampled_phase_holds_a_few_count_x_n_tables(n, count):
    # symbols are 1-byte codes and each table is dropped once used, so one
    # chunk's sampling holds at most a few float64 count x n tables at once
    # (3.9-4.0 measured; int64 symbols and kept weights held 9.8-10.8)
    cfg = candidate(n, codebooks=1)
    code = np.random.default_rng(n).integers(0, 4, (cfg.codebook_size, n))
    decode_map = _codebook_laws(cfg, code).decode_map
    assert cfg.codebook_size == {12: 148, 8: 28}[n]
    tracemalloc.start()
    try:
        _sample_chunk(cfg, code, decode_map, block_sim._rng(7, 2, 0), count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 8 * count * n


def test_sampled_phase_on_wide_alphabets_gathers_no_k_wide_rows():
    # 256-letter source, channel and target at n = 2: the per-symbol draws
    # read one letter of the table at a time, where gathering each block's
    # k-wide rows held about 146 MiB for one chunk. A random decode map
    # stands in for the exact laws
    k, count = 256, 32768
    rng = np.random.default_rng(k + 1)
    cfg = _random_config(rng, k, 2, k, k, k, 2, 1.0)
    code = rng.integers(0, 2, (cfg.codebook_size, 2))
    decode_map = rng.integers(0, cfg.codebook_size, k ** 2)
    assert cfg.codebook_size == 4
    tracemalloc.start()
    try:
        _sample_chunk(cfg, code, decode_map, block_sim._rng(7, 2, 0), count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20


def test_exact_laws_working_set_does_not_grow_with_the_messages():
    # the laws stream slabs of messages, so about 1,024 messages at n = 12
    # peak near where 148 do, far below one messages x blocks table
    peaks = []
    for rate in (0.6, 10 / 12):
        cfg = binary_separation_block_config(0.25, 0.2, 0.005, rate, n=12)
        code = np.random.default_rng(12).integers(
            0, 4, (cfg.codebook_size, cfg.n))
        tracemalloc.start()
        try:
            _codebook_laws(cfg, code)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    msgs = cfg.codebook_size
    assert msgs >= 1024
    assert peaks[1] <= 1.25 * peaks[0]
    assert peaks[1] < 0.25 * 8 * msgs * 2 ** 12


@pytest.mark.parametrize("n", [16, 18])
def test_exact_laws_hold_no_blocks_x_n_table(n):
    # with two messages the laws are block-long vectors and slabs: a dozen
    # float64 vectors over the blocks and two slabs bound the peak, where
    # an int64 blocks x n table alone would pass it
    cfg = binary_separation_block_config(0.25, 0.2, 0.005, 0.6, n=n)
    code = np.random.default_rng(n).integers(0, 4, (2, n))
    tracemalloc.start()
    try:
        _codebook_laws(cfg, code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 8 * 2 ** n + 2 * block_sim._SLAB_BYTES


def test_block_working_set_does_not_grow_with_the_chunk_count(monkeypatch):
    # each chunk is sampled, coupled and tallied before the next, so 16
    # chunks of one codebook peak where one chunk does, not 16 chunks of
    # kept blocks above it
    monkeypatch.setattr(block_sim, "_CHUNK", 1024)
    cfg = candidate(8, codebooks=1)
    sim_block_hybrid(cfg, SimConfig(5, 1024))
    peaks = []
    for chunks in (1, 16):
        tracemalloc.start()
        try:
            sim_block_hybrid(cfg, SimConfig(5, chunks * 1024))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


@pytest.mark.parametrize("codebooks, pools", [
    (1, [(2, [(0, 64), (1, 64), (2, 64)])]), (32, [(2, list(range(32)))])])
def test_block_lends_idle_workers_to_the_chunks(monkeypatch, codebooks,
                                                pools):
    # one codebook on two workers runs its chunks on a pool of two; 32
    # codebooks fill both workers, so their chunks start no nested pool
    seen = record_pools(monkeypatch, 2)
    monkeypatch.setattr(block_sim, "_CHUNK", 64)
    cfg = candidate(4, codebooks=codebooks)
    one = sim_block_hybrid(cfg, SimConfig(2, 192, 1))
    assert seen == []
    assert reports_equal(one, sim_block_hybrid(cfg, SimConfig(2, 192, 2)))
    assert seen == pools


def test_block_runs_what_the_encoder_weights_budget_refused(monkeypatch):
    # a 1000-block chunk of encoder weights is almost three times the exact
    # laws' work here, which a budget of that work once refused; the weights
    # are built in slabs, so the run needs only the laws' work and reports
    # as before
    cfg = candidate(8, codebooks=2)
    table = 8 * (cfg.codebook_size + 12) * 2 ** 8
    assert 8 * cfg.codebook_size * 1000 > table
    wide = sim_block_hybrid(cfg, SimConfig(0, 1000, 2))
    monkeypatch.setattr(block_sim, "_ENUM_BYTES", table)
    assert reports_equal(wide, sim_block_hybrid(cfg, SimConfig(0, 1000, 2)))


def _wide_alphabet_config(codebooks=2):
    # |V| = 8 pushes n=9 past the byte budget through the channel output
    # space alone
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


def test_block_refuses_spaces_past_the_enumeration_budget(monkeypatch):
    # 8 letters at n = 9 give 2^27 blocks; with 7 messages the byte gate
    # counts 8 * (7 + 12) * 2^27 bytes, and each space is refused before
    # the first codebook is drawn
    _forbid_codebook_draws(monkeypatch)
    rng = np.random.default_rng(9)
    cases = {"channel output": _wide_alphabet_config(),
             "source": _random_config(rng, 8, 2, 2, 2, 2, 9, 0.3),
             "reconstruction": _random_config(rng, 2, 2, 2, 2, 8, 9, 0.3)}
    for space, cfg in cases.items():
        assert cfg.codebook_size == 7, space
        with pytest.raises(BudgetExceeded, match="need 19456 MiB"):
            sim_block_hybrid(cfg, SimConfig(0, 16))


def _binary_code_config(n, rate):
    """Binary codeword, source, channel and target alphabets: 2^n blocks of
    each enumerated space."""
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
    # 8 bytes per block for each message and each of 12 block-long vectors
    cfg = candidate(8, codebooks=1)
    table = 8 * (cfg.codebook_size + 12) * 2 ** 8
    monkeypatch.setattr(block_sim, "_ENUM_BYTES", table)
    sim_block_hybrid(cfg, SimConfig(0, 16))
    monkeypatch.setattr(block_sim, "_ENUM_BYTES", table - 1)
    with pytest.raises(BudgetExceeded, match="MiB"):
        sim_block_hybrid(cfg, SimConfig(0, 16))


def test_block_byte_budget_stops_before_any_table(monkeypatch):
    # 2^20 blocks x 1024 messages of float64 is 8 GiB; the gate must fire
    # before the laws are built. Rate has no upper limit, so 2^40 messages
    # at n = 16 must stop there too
    def no_tables(*args):
        raise AssertionError("exact laws built past the byte budget")

    monkeypatch.setattr(block_sim, "_codebook_laws", no_tables)
    for n, rate, msgs, mib in ((20, 0.5, 2 ** 10, 2 ** 13 + 96),
                               (16, 2.5, 2 ** 40, 2 ** 39 + 6)):
        cfg = _binary_code_config(n, rate)
        assert cfg.codebook_size == msgs
        with pytest.raises(BudgetExceeded, match=f" {mib} MiB"):
            sim_block_hybrid(cfg, SimConfig(0, 16))


def test_block_byte_gate_refuses_long_binary_blocks(monkeypatch):
    # 2^64 output blocks: the byte gate refuses them before the fallback
    # decoder would need an axis per position past numpy's 64
    _forbid_codebook_draws(monkeypatch)
    with pytest.raises(BudgetExceeded, match="MiB of messages x blocks"):
        sim_block_hybrid(_binary_code_config(64, 0.25), SimConfig(0, 16))


@pytest.mark.parametrize("n, rate", [(16, 100.0), (4, math.inf)])
def test_block_refuses_codebooks_past_the_float_range(monkeypatch, n, rate):
    # 2^(n rate) messages past the float range are refused by the budget
    # before that power is formed, which would raise an OverflowError
    _forbid_codebook_draws(monkeypatch)
    with pytest.raises(BudgetExceeded, match="256 MiB budget"):
        sim_block_hybrid(_binary_code_config(n, rate), SimConfig(0, 16))


def test_block_byte_budget_admits_every_cli_configuration(monkeypatch):
    # the CLI runs the binary candidate at n <= 12 with a rate under 1, so
    # up to 4096 messages over 2^12 blocks: 8 * (4096 + 12) * 2^12 bytes is
    # about half the budget, and the gate lets the largest through
    def laws_reached(*args):
        raise LookupError("exact laws reached")

    monkeypatch.setattr(block_sim, "_codebook_laws", laws_reached)
    for theta, rate, msgs in ((1e-6, 0.9999, 4093),
                              (1e-12, 0.99999999, 4096)):
        cfg = binary_separation_block_config(0.25, 0.2, theta, rate, n=12)
        assert cfg.codebook_size == msgs
        with pytest.raises(LookupError, match="exact laws reached"):
            sim_block_hybrid(cfg, SimConfig(0, 16))


def _forbid_codebook_draws(monkeypatch):
    def no_draws(*args):
        raise AssertionError("codebook drawn")

    monkeypatch.setattr(block_sim, "_cdf_draw", no_draws)
