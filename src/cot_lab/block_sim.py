"""Monte Carlo simulators for the one-shot schemes and a small-blocklength
random-coding harness for the hybrid achievability argument.

Single-letter schemes (uncoded binary/Gaussian, genie-aided hybrid) are
sampled directly. The block harness draws random codebooks, runs the
likelihood encoder, joint-typicality decoding with a maximum-likelihood
fallback, symbolwise reconstruction, and the final maximal-coupling step
against the product target law. When the alphabet powers fit the exact
enumeration budget the per-codebook output law, its total variation to the
target, and the message error probability are computed exactly by tensor
contraction; otherwise a plug-in empirical law is used and flagged.

Reproducibility: every random draw comes from a counter-based generator
keyed by (seed, stream, chunk). Chunk boundaries are fixed by the sample
count alone and partial results are combined in chunk order, so reports are
bit-identical for a given (seed, samples) no matter how many workers run.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import MaxIterError
from .binary_case import hybrid_params
from .gaussian_case import _check_gamma, _check_lambdas, linear_bound
from .infokit import (
    DiscreteChannel,
    DiscreteDistribution,
    finite_array,
    stochastic_array,
    total_variation,
)
from .numkit import binary_entropy

_CHUNK = 1 << 15
_SOURCE_TOL = 1e-8
_ENUM_BITS = 24.0
# largest blocks x messages float64 table: the exact path's encoder weights,
# decoder tables and contractions, or the sampled encoder weights of all
# threads together; a few such tables are alive at once
_ENUM_BYTES = 2 ** 28
# most sampled blocks one decoder call takes; longer lists are decoded in
# slices, since the log-likelihood lanes keep several tables alive
_DECODE_ROWS = 1 << 12
# proposals the plug-in coupling may draw for one residual sample
_PLUGIN_TRIES = 100000
# largest eigenvalue or budget of the Gaussian simulator: its fourth-moment
# sums square lambda and u^2 scales with gamma, so larger ones overflow to inf
_MAX_GAUSSIAN_SCALE = 1e100


class BudgetExceeded(ValueError):
    """Requested blocklength/alphabet combination exceeds the exact
    enumeration budget."""


@dataclass(frozen=True)
class SimConfig:
    """Seed, sample count, and worker count for one simulation run."""

    seed: int
    samples: int
    workers: int = 1

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass(frozen=True)
class CodebookDraw:
    """Per-codebook outcome of the block harness.

    tv_to_target is the total variation between the pre-coupling
    reconstruction law and the product target; exact_law says whether that
    law (and msg_error_rate) was enumerated exactly or estimated from the
    samples, in which case est_sigma gives the concentration scale of the
    estimate."""

    size: int
    msg_error_rate: float
    tv_to_target: float
    degenerate: bool
    exact_law: bool
    est_sigma: Optional[float] = None


@dataclass(frozen=True)
class SimReport:
    """Common output of all simulators.

    empirical_marginal is a DiscreteDistribution for symbol-valued schemes
    and a tuple of per-component (mean, variance) pairs for the Gaussian
    one. tv_to_target is the symbol-marginal total variation for the
    single-letter binary schemes, the worst per-component variance error
    for the Gaussian scheme, and the median per-codebook block-law total
    variation for the block harness.
    """

    mean_distortion: float
    std_error: float
    empirical_marginal: object
    tv_to_target: float
    samples: int
    msg_error_rate: Optional[float] = None
    input_power: Optional[float] = None
    codebook_draws: Optional[Tuple[CodebookDraw, ...]] = None
    notes: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.std_error < 0.0:
            raise ValueError("std_error must be nonnegative")


# ---------------------------------------------------------- rng plumbing

def _rng(seed: int, stream: int, chunk: int) -> np.random.Generator:
    # the (stream, chunk) pair is packed into the second key word, so every
    # chunk of every logical stream gets an independent counter sequence
    return np.random.Generator(
        np.random.Philox(key=[seed, (stream << 32) | chunk]))


def _chunks(total: int):
    start, idx = 0, 0
    while start < total:
        yield idx, min(_CHUNK, total - start)
        idx += 1
        start += _CHUNK


def _pool_size(sim: SimConfig) -> int:
    """Threads that run the chunks: past the chunk or core count they would
    only wait."""
    return min(sim.workers, -(-sim.samples // _CHUNK), os.cpu_count() or 1)


def _run_chunks(fn, sim: SimConfig, stream: int) -> List[tuple]:
    """Evaluate fn(rng, count) for every chunk; results come back in chunk
    order regardless of the worker count."""
    jobs = list(_chunks(sim.samples))

    def work(job):
        idx, count = job
        return fn(_rng(sim.seed, stream, idx), count)

    threads = _pool_size(sim)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(work, jobs))
    return [work(job) for job in jobs]


def _pooled_moments(parts) -> Tuple[float, float, int]:
    """(mean, std-error, n) from per-chunk (count, sum, sum-of-squares)."""
    n = sum(p[0] for p in parts)
    total = math.fsum(p[1] for p in parts)
    total2 = math.fsum(p[2] for p in parts)
    mean = total / n
    if n > 1:
        var = max((total2 - n * mean * mean) / (n - 1), 0.0)
    else:
        var = 0.0
    return mean, math.sqrt(var / n), n


def _cdf_draw(rng_values: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """Inverse-CDF sampling; explicit so the draw is stable across library
    versions."""
    idx = np.searchsorted(cdf, rng_values, side="right")
    return np.minimum(idx, len(cdf) - 1)


def _row_draw(rng_values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Categorical draw per row from unnormalized weights on the last axis.

    Rows with zero total weight fall back to the uniform law.
    """
    cum = np.cumsum(rows, axis=-1)
    total = cum[..., -1:]
    k = rows.shape[-1]
    bad = total <= 0.0
    if np.any(bad):
        cum = np.where(bad, np.arange(1, k + 1, dtype=float), cum)
        total = np.where(bad, float(k), total)
    target = rng_values[..., None] * total
    idx = (cum < target).sum(axis=-1)
    return np.minimum(idx, k - 1)


# ---------------------------------------------------- single-letter sims

def _binary_report(parts, rho: float, notes: Tuple[str, ...] = ()
                   ) -> SimReport:
    """Report of a binary single-letter scheme from per-chunk (count,
    errors, errors, ones) tallies, with the output marginal against B(rho)."""
    mean, se, n = _pooled_moments(parts)
    ones = sum(p[3] for p in parts)
    marginal = DiscreteDistribution(
        ("0", "1"), np.array([1.0 - ones / n, ones / n]))
    target = DiscreteDistribution(("0", "1"), np.array([1.0 - rho, rho]))
    return SimReport(mean, se, marginal, total_variation(marginal, target),
                     n, notes=notes)


def sim_uncoded_binary(rho: float, theta: float,
                       decoder: Tuple[float, float],
                       sim: SimConfig) -> SimReport:
    """Analog passthrough of a biased bit over a symmetric channel.

    X ~ B(rho) is sent uncoded, V = X xor B(theta), and the decoder emits
    Y with p(1|v=0) = a, p(0|v=1) = b. Reports Hamming distortion, the
    empirical output marginal, and its distance to B(rho).
    """
    rho = float(rho)
    theta = float(theta)
    a, b = (float(v) for v in decoder)
    if not 0.0 < rho <= 0.5:
        raise ValueError("rho must lie in (0, 1/2]")
    if not 0.0 <= theta <= 0.5:
        raise ValueError("theta must lie in [0, 1/2]")
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise ValueError("decoder probabilities must lie in [0, 1]")

    def chunk(rng, count):
        x = rng.random(count) < rho
        v = x ^ (rng.random(count) < theta)
        r = rng.random(count)
        y = np.where(v, r < 1.0 - b, r < a)
        wrong = float(np.count_nonzero(x != y))
        return count, wrong, wrong, int(np.count_nonzero(y))

    return _binary_report(_run_chunks(chunk, sim, stream=0), rho)


def sim_uncoded_gaussian(lambdas: Sequence[float], gamma: float,
                         sim: SimConfig) -> SimReport:
    """Analog transmission of the largest Gaussian component.

    The first component is scaled onto the power budget and sent through
    unit-variance additive noise; the decoder rescales it and regenerates
    every other component from scratch. Reports squared distortion,
    per-component (mean, variance) of the output, the worst variance error,
    and the realized channel input power.
    """
    lams = _check_lambdas(lambdas)
    gamma = _check_gamma(gamma)
    for name, value in (("eigenvalues", lams[0]), ("gamma", gamma)):
        if value > _MAX_GAUSSIAN_SCALE:
            raise ValueError(f"{name} must be at most {_MAX_GAUSSIAN_SCALE:g}")
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

    parts = _run_chunks(chunk, sim, stream=0)
    mean, se, n = _pooled_moments(parts)
    ysum = np.sum([p[3] for p in parts], axis=0)
    ysum2 = np.sum([p[4] for p in parts], axis=0)
    ymean = ysum / n
    yvar = ysum2 / n - ymean * ymean
    moments = tuple((float(m), float(v)) for m, v in zip(ymean, yvar))
    worst = float(np.max(np.abs(yvar - np.asarray(lams))))
    power = math.fsum(p[5] for p in parts) / n
    return SimReport(mean, se, moments, worst, n, input_power=power)


def sim_genie_hybrid_binary(rho: float, theta: float, delta1: float,
                            sim: SimConfig) -> SimReport:
    """Single-letter hybrid scheme with the digital part granted losslessly.

    The shared pair (coarse reconstruction W, dither) reaches the decoder
    by genie rather than by block coding, matching the single-letter
    characterization the closed-form curves compute. The analog residual
    crosses the real channel and the decoder applies the conditional flip.
    """
    if not 0.0 <= theta <= 0.5:
        raise ValueError("theta must lie in [0, 1/2]")
    if theta == 0.0:
        raise ValueError("theta must be positive")
    delta2, tau, beta = hybrid_params(rho, theta, delta1)
    rho = float(rho)
    theta = float(theta)
    delta1 = float(delta1)

    def chunk(rng, count):
        w = rng.random(count) < tau
        e1 = rng.random(count) < delta1
        e2 = rng.random(count) < delta2
        s = rng.random(count) < 0.5
        x = w ^ e1 ^ e2
        v = (s ^ e1) ^ (rng.random(count) < theta)
        flip = (v ^ s) & (rng.random(count) < beta)
        y = w ^ flip
        wrong = float(np.count_nonzero(x != y))
        return count, wrong, wrong, int(np.count_nonzero(y))

    return _binary_report(_run_chunks(chunk, sim, stream=0), rho,
                          notes=("digital part delivered noiselessly",))


# ------------------------------------------------------ linear-scheme check

@dataclass(frozen=True)
class LinearBoundReport:
    trials: int
    violations: int
    min_margin: float


def verify_linear_bound(lambdas: Sequence[float], trials: int,
                        sim: SimConfig) -> LinearBoundReport:
    """Randomized check of the linear-scheme floor.

    Each trial draws combining gains g and a random valid linear decoder:
    Y = h * u * (g'X + N) + independent Gaussian fill with the fill
    covariance chosen so Cov(Y) is exactly the source covariance. The
    mean squared cost has a closed form per trial (2 tr(S) - 2 w'S g), so
    violations of the floor are decided without sampling noise. sim.samples
    is unused here; the trial count is explicit.
    """
    lams = np.asarray(_check_lambdas(lambdas))
    if trials < 1:
        raise ValueError("trials must be at least 1")
    dim = lams.size
    inv = 1.0 / lams
    trace2 = 2.0 * float(lams.sum())

    def chunk(rng, count):
        g = rng.standard_normal((count, dim))
        u = rng.standard_normal((count, dim))
        u /= np.maximum(np.linalg.norm(u, axis=1, keepdims=True), 1e-300)
        frac = rng.random(count)
        power = (g * g) @ lams
        h = frac / np.sqrt((power + 1.0) * ((u * u) @ inv))
        cross = (u * lams * g).sum(axis=1) * h
        closed = trace2 - 2.0 * cross
        bound = trace2 - 2.0 * np.sqrt(power / (power + 1.0)) * lams[0]
        margin = closed - bound
        return (count, int(np.count_nonzero(margin < -1e-9)),
                float(margin.min()))

    probe = SimConfig(sim.seed, trials, sim.workers)
    parts = _run_chunks(chunk, probe, stream=0)
    return LinearBoundReport(
        trials=trials,
        violations=sum(p[1] for p in parts),
        min_margin=min(p[2] for p in parts))


def uncoded_equality_gap(lambdas: Sequence[float], gamma: float) -> float:
    """Closed-form cost minus the floor at the configuration that attains
    it: all gain on the head component, decoder scaled to the budget."""
    lams = _check_lambdas(lambdas)
    gamma = _check_gamma(gamma)
    g = np.zeros(len(lams))
    g[0] = math.sqrt(gamma / lams[0])
    w0 = math.sqrt(lams[0] / (gamma + 1.0))
    closed = 2.0 * math.fsum(lams) - 2.0 * w0 * lams[0] * g[0]
    return closed - linear_bound(lams, g)


# ----------------------------------------------------------- block harness

@dataclass
class BlockCodeConfig:
    """Everything the random-coding harness needs.

    The encoder side is p_Z (codeword symbols), p_{X|Z} (likelihood-encoder
    kernel), and p_{U|XZ} (channel input synthesis); the decoder side is
    p_{Y|ZV}. source must equal the Z-marginal of p_Z p_{X|Z}; target is the
    law soft covering drives the reconstruction toward. dist is the per
    symbol distortion d(x, y).
    """

    n: int
    rate: float
    source: DiscreteDistribution
    code_marginal: DiscreteDistribution
    x_given_z: np.ndarray
    u_given_xz: np.ndarray
    channel: DiscreteChannel
    dec_cond: np.ndarray
    target: DiscreteDistribution
    dist: np.ndarray
    typ_delta: float = 0.1
    codebooks: int = 1

    def __post_init__(self):
        if int(self.n) < 1:
            raise ValueError("n must be at least 1")
        if not self.rate > 0.0:
            raise ValueError("rate must be positive")
        if not self.typ_delta > 0.0:
            raise ValueError("typ_delta must be positive")
        if self.codebooks < 1:
            raise ValueError("codebooks must be at least 1")
        nx, nz = len(self.source), len(self.code_marginal)
        nu = len(self.channel.input_alphabet)
        nv = len(self.channel.output_alphabet)
        ny = len(self.target)
        self.x_given_z = stochastic_array(self.x_given_z, (nz, nx),
                                          "x_given_z")
        self.u_given_xz = stochastic_array(self.u_given_xz, (nx, nz, nu),
                                           "u_given_xz")
        self.dec_cond = stochastic_array(self.dec_cond, (nz, nv, ny),
                                         "dec_cond")
        self.dist = finite_array(self.dist, "dist")
        if self.dist.shape != (nx, ny):
            raise ValueError("dist shape mismatch")
        if np.any(self.dist < 0.0):
            raise ValueError("dist entries must be nonnegative")
        induced = self.code_marginal.probs @ self.x_given_z
        if np.max(np.abs(induced - self.source.probs)) > _SOURCE_TOL:
            raise ValueError(
                "source law does not match the code marginal pushed "
                "through x_given_z")

    @property
    def codebook_size(self) -> int:
        return math.ceil(2.0 ** (self.n * self.rate))


def _enumerate_blocks(n: int, base: int) -> np.ndarray:
    """All base-ary length-n blocks as rows, most significant symbol
    first, row index equal to the block's base-ary value."""
    total = base ** n
    out = np.empty((total, n), dtype=np.int64)
    work = np.arange(total)
    for t in range(n - 1, -1, -1):
        out[:, t] = work % base
        work = work // base
    return out


@dataclass(frozen=True)
class CodebookLaws:
    """Exact per-codebook quantities for one drawn codebook."""

    decode_map: np.ndarray      # |V|^n -> message index
    typ_fail: np.ndarray        # |V|^n bool, typicality declared an error
    p_v: np.ndarray             # law of the channel output block
    p_yhat: np.ndarray          # pre-coupling law of the reconstruction
    p_target: np.ndarray        # product target law
    tv_to_target: float
    msg_error: float


def _symbol_kernels(cfg: BlockCodeConfig):
    """Per-symbol channel-output kernels q(v|x,z) and p(v|z)."""
    qv = np.einsum("xzu,uv->xzv", cfg.u_given_xz, cfg.channel.matrix)
    pvz = np.einsum("zx,xzv->zv", cfg.x_given_z, qv)
    return qv, pvz


def _product_law(probs: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Probability of each block (row) under the i.i.d. law probs."""
    out = np.ones(blocks.shape[0])
    for t in range(blocks.shape[1]):
        out *= probs[blocks[:, t]]
    return out


def _encoder_weights(cfg: BlockCodeConfig, code: np.ndarray,
                     x: np.ndarray) -> np.ndarray:
    """Likelihood-encoder weights prod_t p(x_t | z_t(m)), blocks x
    messages."""
    weights = np.ones((x.shape[0], code.shape[0]))
    for t in range(cfg.n):
        weights *= cfg.x_given_z[code[:, t]][:, x[:, t]].T
    return weights


def _pairwise_sum(term, n: int):
    """term(0) + ... + term(n - 1), added elementwise in the order numpy's
    pairwise summation adds a contiguous row of n values, so the result
    equals stacking the terms on a last axis and calling .sum(axis=-1):
    in sequence below 8 terms, in 8 interleaved lanes up to 128, and by
    halves (cut at a multiple of 8) past that."""
    if n < 8:
        total = term(0)
        for t in range(1, n):
            total = total + term(t)
        return total
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return (_pairwise_sum(term, half)
                + _pairwise_sum(lambda t: term(half + t), n - half))
    full = n - n % 8

    def lane(k):
        acc = term(k)
        for t in range(k + 8, full, 8):
            acc = acc + term(t)
        return acc

    total = (((lane(0) + lane(1)) + (lane(2) + lane(3)))
             + ((lane(4) + lane(5)) + (lane(6) + lane(7))))
    for t in range(full, n):
        total = total + term(t)
    return total


def _sum_rows(table: np.ndarray) -> np.ndarray:
    """Rows of a 2-D table added one after another, as a running total
    adds them (numpy would sum a single column pairwise)."""
    if table.shape[1] > 1:
        return table.sum(axis=0)
    return np.cumsum(table[:, 0])[-1:]


def _decode_tables(cfg: BlockCodeConfig, code: np.ndarray,
                   pvz: np.ndarray, v_blocks: Optional[np.ndarray] = None):
    """Typicality decoder with maximum-likelihood fallback, over every
    message at once.

    Returns the decoded message of every received block (row of v_blocks,
    or every output block in enumeration order when v_blocks is None) and
    whether typicality failed to single out one message for it."""
    if v_blocks is not None and len(v_blocks) > _DECODE_ROWS:
        # blocks decode independently; slices bound the messages x blocks
        # tables the log-likelihood lanes keep alive
        parts = [_decode_tables(cfg, code, pvz, v_blocks[i:i + _DECODE_ROWS])
                 for i in range(0, len(v_blocks), _DECODE_ROWS)]
        return tuple(np.concatenate(p) for p in zip(*parts))
    n = cfg.n
    msgs = code.shape[0]
    nz, nv = pvz.shape
    enumerated = v_blocks is None
    if enumerated:
        v_blocks = _enumerate_blocks(n, nv)

    # joint-type counts of every (message, block) pair as one-hot products;
    # they are exact integers in float64, so the deviation is the same as
    # from integer counts
    flat_target = (cfg.code_marginal.probs[:, None] * pvz).ravel()
    v_hot = [(v_blocks == v).T.astype(float) for v in range(nv)]
    dev = np.zeros((msgs, v_blocks.shape[0]))
    counts = np.empty_like(dev)
    for z in range(nz):
        z_hot = (code == z).astype(float)
        for v in range(nv):
            np.matmul(z_hot, v_hot[v], out=counts)
            counts /= n
            counts -= flat_target[z * nv + v]
            np.abs(counts, out=counts)
            np.maximum(dev, counts, out=dev)
    del counts
    typical = dev <= cfg.typ_delta
    del dev
    matches = typical.sum(axis=0)
    first = typical.argmax(axis=0)
    del typical

    # log-likelihood summed over positions in the order a row sum adds
    # them. On the enumeration each position's term broadcasts over its own
    # block axis; the axes run from the last position to the first, so the
    # late, large sums add long contiguous runs
    with np.errstate(divide="ignore"):
        logpvz = np.log(pvz)
    if enumerated:
        def term(t):
            return logpvz[code[:, t]].reshape(
                (msgs,) + (1,) * (n - 1 - t) + (nv,) + (1,) * t)
    else:
        def term(t):
            return logpvz[code[:, t]][:, v_blocks[:, t]]
    fallback = _pairwise_sum(term, n).reshape(msgs, -1).argmax(axis=0)
    if enumerated:
        # back to enumeration order, first position most significant
        fallback = fallback.reshape((nv,) * n).T.ravel()
    typ_fail = matches != 1
    decode = np.where(typ_fail, fallback, first)
    return decode, typ_fail


def _codebook_laws(cfg: BlockCodeConfig, code: np.ndarray) -> CodebookLaws:
    """Exact decode map, block laws, total variation, and error probability
    for one codebook, contracting one block axis at a time for every
    message at once."""
    n = cfg.n
    msgs = code.shape[0]
    nx = len(cfg.source)
    nv = len(cfg.channel.output_alphabet)
    ny = len(cfg.target)

    qv, pvz = _symbol_kernels(cfg)
    decode, typ_fail = _decode_tables(cfg, code, pvz)

    # encoder posterior over the whole source space, messages x blocks.
    # Each position appends a block axis one symbol at a time, so the
    # factors multiply in position order as the sampled encoder's do; the
    # sum over messages adds them in order
    table = np.ones((msgs, 1))
    for t in range(n):
        factor = cfg.x_given_z[code[:, t]]
        wider = np.empty((msgs, table.shape[1], nx))
        for j in range(nx):
            np.multiply(table, factor[:, j:j + 1], out=wider[:, :, j])
        table = wider.reshape(msgs, -1)
    px_n = _product_law(cfg.source.probs, _enumerate_blocks(n, nx))
    wtot = table.sum(axis=0)
    uncovered = wtot <= 0.0
    table *= px_n
    table /= np.where(uncovered, 1.0, wtot)
    # blocks no codeword can produce get the uniform message, matching the
    # sampling path's convention
    table[:, uncovered] = px_n[uncovered] / msgs

    # each step maps the leading source axis of every message's tensor to
    # a trailing output axis, as tensordot over axis 0 would
    kernels = np.swapaxes(qv, 0, 1)[code]
    if nv == 1:
        # each kernel is then a BLAS vector, and gemv adds a strided vector
        # in another order than a contiguous one; read every kernel at the
        # stride its slice of qv has, as a per-message contraction would
        strided = np.zeros(kernels.shape[:-1] + (qv.shape[1],))
        strided[..., :1] = kernels
        kernels = strided[..., :1]
    for t in range(n):
        table = np.matmul(table.reshape(msgs, nx, -1).transpose(0, 2, 1),
                          kernels[:, t])
    table = table.reshape(msgs, -1)
    p_v = _sum_rows(table)
    msg_error = 0.0
    for m in range(msgs):
        # the fallback defines the decoder output, so only a wrong final
        # message counts as an error
        msg_error += float(table[m][decode != m].sum())
    del table

    mhats = np.unique(decode)
    table = np.where(decode == mhats[:, None], p_v, 0.0)
    kernels = cfg.dec_cond[code[mhats]]
    for t in range(n):
        table = np.matmul(
            table.reshape(len(mhats), nv, -1).transpose(0, 2, 1),
            kernels[:, t])
    p_yhat = _sum_rows(table.reshape(len(mhats), -1))
    del table

    p_target = _product_law(cfg.target.probs, _enumerate_blocks(n, ny))

    tv = 0.5 * float(np.abs(p_yhat - p_target).sum())
    return CodebookLaws(decode, typ_fail, p_v, p_yhat, p_target, tv,
                        msg_error)


def _generate_phase(cfg: BlockCodeConfig, code: np.ndarray,
                    decode_map: Optional[np.ndarray],
                    sim: SimConfig, stream: int):
    """Run sampled source blocks through encoder, channel, decoder and
    reconstruction; returns per-chunk (x, yhat, message error) arrays.

    decode_map, when given, is the decoder tabulated over every output
    block; otherwise each chunk's received blocks are decoded directly."""
    n = cfg.n
    nv = len(cfg.channel.output_alphabet)
    src_cdf = np.cumsum(cfg.source.probs)
    vpow = nv ** np.arange(n - 1, -1, -1)
    _, pvz = _symbol_kernels(cfg)

    def chunk(rng, count):
        x = _cdf_draw(rng.random((count, n)), src_cdf)
        m = _row_draw(rng.random(count), _encoder_weights(cfg, code, x))
        z = code[m]
        u = _row_draw(rng.random((count, n)), cfg.u_given_xz[x, z])
        v = _row_draw(rng.random((count, n)), cfg.channel.matrix[u])
        if decode_map is not None:
            mhat = decode_map[(v * vpow).sum(axis=1)]
        else:
            mhat, _ = _decode_tables(cfg, code, pvz, v)
        yhat = _row_draw(rng.random((count, n)),
                         cfg.dec_cond[code[mhat], v])
        return x, yhat, mhat != m

    return _run_chunks(chunk, sim, stream=stream)


def _couple_exact(cfg, laws, gen_parts, sim, stream):
    """Apply the maximal coupling against the exact product target."""
    n = cfg.n
    ny = len(cfg.target)
    ypow = ny ** np.arange(n - 1, -1, -1)
    with np.errstate(invalid="ignore", divide="ignore"):
        keep = np.where(laws.p_yhat > 0.0,
                        np.minimum(laws.p_yhat, laws.p_target)
                        / np.where(laws.p_yhat > 0.0, laws.p_yhat, 1.0),
                        1.0)
    resid = laws.p_target - np.minimum(laws.p_yhat, laws.p_target)
    rmass = float(resid.sum())
    resid_cdf = np.cumsum(resid / rmass) if rmass > 0.0 else None

    out = []
    for idx, (x, yhat, err) in enumerate(gen_parts):
        rng = _rng(sim.seed, stream, idx)
        count = x.shape[0]
        yidx = (yhat * ypow).sum(axis=1)
        y = yhat.copy()
        reject = rng.random(count) >= keep[yidx]
        nrej = int(np.count_nonzero(reject))
        if nrej and resid_cdf is not None:
            fresh = _cdf_draw(rng.random(nrej), resid_cdf)
            for t in range(n):
                y[reject, t] = (fresh // ypow[t]) % ny
        out.append((x, y, err))
    return out


def _couple_plugin(cfg, gen_parts, sim, stream):
    """Coupling against the empirical reconstruction law.

    Returns the coupled parts plus the plug-in total variation estimate and
    its concentration scale.
    """
    n = cfg.n
    ny = len(cfg.target)
    allyhat = np.concatenate([p[1] for p in gen_parts], axis=0)
    total = allyhat.shape[0]
    urows, inverse, counts = np.unique(allyhat, axis=0, return_inverse=True,
                                       return_counts=True)
    phat = counts / total
    pt_u = _product_law(cfg.target.probs, urows)
    tv = float(np.maximum(phat - pt_u, 0.0).sum())
    sigma = math.sqrt(urows.shape[0] / (4.0 * total))
    with np.errstate(invalid="ignore", divide="ignore"):
        keep = np.minimum(phat, pt_u) / phat
    lookup = {row.tobytes(): k for k, row in enumerate(urows)}
    tgt_cdf = np.cumsum(cfg.target.probs)

    out = []
    offset = 0
    for idx, (x, yhat, err) in enumerate(gen_parts):
        rng = _rng(sim.seed, stream, idx)
        count = x.shape[0]
        inv = inverse[offset:offset + count]
        offset += count
        y = yhat.copy()
        reject = rng.random(count) >= keep[inv]
        need = np.flatnonzero(reject)
        # rejection-sample the residual: propose from the product target,
        # accept with probability 1 - min(1, phat/pt)
        for pos in need:
            for _ in range(_PLUGIN_TRIES):
                cand = _cdf_draw(rng.random(n), tgt_cdf)
                k = lookup.get(cand.astype(np.int64).tobytes())
                if k is None:
                    break
                ptc = pt_u[k]
                if ptc <= 0.0:
                    continue
                if rng.random() < max(0.0, 1.0 - phat[k] / ptc):
                    break
            else:
                raise MaxIterError(
                    f"plug-in coupling rejected {_PLUGIN_TRIES} proposals "
                    "for one residual sample")
            y[pos] = cand
        out.append((x, y, err))
    return out, tv, sigma


def sim_block_hybrid(cfg: BlockCodeConfig, sim: SimConfig) -> SimReport:
    """Random-coding hybrid scheme at small blocklength.

    Draws cfg.codebooks independent codebooks of exactly ceil(2^{n rate})
    codewords, runs sim.samples source blocks through each (likelihood
    encoder, channel, typicality decoder with maximum-likelihood fallback,
    symbolwise reconstruction, maximal coupling to the product target), and
    pools the distortion samples. msg_error_rate and tv_to_target are
    medians of the per-codebook values, which are exact when the alphabet
    powers fit the enumeration budget and plug-in estimates otherwise; the
    per-codebook detail sits in codebook_draws.
    """
    nz = len(cfg.code_marginal)
    nx, nv = len(cfg.source), len(cfg.channel.output_alphabet)
    ny = len(cfg.target)
    if cfg.n * math.log2(nz) > _ENUM_BITS + 1e-9:
        raise BudgetExceeded("codeword space exceeds the enumeration budget")
    exact = all(cfg.n * math.log2(k) <= _ENUM_BITS + 1e-9
                for k in (nx, nv, ny))
    msgs = cfg.codebook_size
    # the exact laws run every message at once over the source, output and
    # reconstruction spaces
    table = 8 * msgs * max(nx, nv, ny) ** cfg.n if exact else 0
    if table > _ENUM_BYTES:
        raise BudgetExceeded(
            f"exact laws need a {table / 2 ** 20:.0f} MiB blocks x messages "
            f"table, over the {_ENUM_BYTES / 2 ** 20:.0f} MiB budget")
    # every sampled block is kept as int64 rows (source, reconstruction and
    # the coupled copy) until the report is pooled
    if 8 * sim.samples * cfg.n > _ENUM_BYTES:
        raise BudgetExceeded(
            f"{sim.samples} blocks of length {cfg.n} exceed the "
            f"{_ENUM_BYTES / 2 ** 20:.0f} MiB sample budget")
    # each thread draws a chunk's messages from a chunk x messages table of
    # encoder weights (and its running sums), on either path
    rows = min(sim.samples, _CHUNK)
    weights = 8 * msgs * rows * _pool_size(sim)
    if weights > _ENUM_BYTES:
        raise BudgetExceeded(
            f"sampling needs {weights / 2 ** 20:.0f} MiB of encoder weights "
            f"({rows} blocks x {msgs} messages per thread), over the "
            f"{_ENUM_BYTES / 2 ** 20:.0f} MiB budget")
    z_cdf = np.cumsum(cfg.code_marginal.probs)

    draws = []
    moment_parts = []
    y_counts = np.zeros(ny)
    err_totals = []
    for d in range(cfg.codebooks):
        rng = _rng(sim.seed, 4 * d + 1, 0)
        code = _cdf_draw(rng.random((msgs, cfg.n)), z_cdf)
        degenerate = bool((code == code[0]).all())

        if exact:
            laws = _codebook_laws(cfg, code)
            gen = _generate_phase(cfg, code, laws.decode_map, sim,
                                  stream=4 * d + 2)
            coupled = _couple_exact(cfg, laws, gen, sim, stream=4 * d + 3)
            tv, err_rate, sigma = laws.tv_to_target, laws.msg_error, None
        else:
            gen = _generate_phase(cfg, code, None, sim, stream=4 * d + 2)
            coupled, tv, sigma = _couple_plugin(cfg, gen, sim,
                                                stream=4 * d + 3)
            err_rate = sum(int(p[2].sum()) for p in gen) / sim.samples

        for x, y, err in coupled:
            dist_rows = cfg.dist[x, y].mean(axis=1)
            moment_parts.append((x.shape[0], float(dist_rows.sum()),
                                 float((dist_rows * dist_rows).sum())))
            y_counts += np.bincount(y.ravel(), minlength=ny)
        err_totals.append(err_rate)
        draws.append(CodebookDraw(msgs, float(err_rate), float(tv),
                                  degenerate, exact, sigma))

    mean, se, n_total = _pooled_moments(moment_parts)
    marginal = DiscreteDistribution(cfg.target.alphabet,
                                    y_counts / y_counts.sum())
    note = ("exact per-codebook law" if exact
            else "plug-in per-codebook law estimated from samples")
    return SimReport(
        mean, se, marginal,
        float(np.median([dr.tv_to_target for dr in draws])),
        n_total,
        msg_error_rate=float(np.median(err_totals)),
        codebook_draws=tuple(draws),
        notes=("typicality test: max deviation of the empirical "
               "(codeword, output) pair law", note))


def binary_separation_block_config(rho: float, delta: float, theta: float,
                                   rate: float, n: int,
                                   typ_delta: float = 0.1,
                                   codebooks: int = 1) -> BlockCodeConfig:
    """Separation-style candidate over binary alphabets.

    The shared variable packs a coarse source reconstruction W (crossover
    delta from the source) with a uniform dither that rides the channel.
    The digital rate must clear both source-coding needs and stay under the
    channel's capacity, giving the strict slack the block harness relies
    on; violations raise immediately rather than producing trends that
    mean nothing.
    """
    rho = float(rho)
    delta = float(delta)
    theta = float(theta)
    if not 0.0 < rho <= 0.5:
        raise ValueError("rho must lie in (0, 1/2]")
    if not 0.0 < delta <= rho:
        raise ValueError("delta must lie in (0, rho]")
    if not 0.0 < theta < 0.5:
        raise ValueError("theta must lie in (0, 1/2)")
    i_xz = binary_entropy(rho) - binary_entropy(delta)
    i_zv = 1.0 - binary_entropy(theta)
    if not i_xz < rate < i_zv:
        raise ValueError(
            f"rate {rate!r} must lie strictly between I(X;Z)={i_xz:.5f} "
            f"and I(Z;V)={i_zv:.5f}")
    w0 = (rho - delta) / (1.0 - 2.0 * delta)

    z_alphabet = ("w0s0", "w0s1", "w1s0", "w1s1")
    p_z = np.array([(1.0 - w0) / 2.0, (1.0 - w0) / 2.0, w0 / 2.0, w0 / 2.0])
    x_given_z = np.empty((4, 2))
    u_given_xz = np.zeros((2, 4, 2))
    dec = np.empty((4, 2, 2))
    for zi in range(4):
        wbit, sbit = zi // 2, zi % 2
        x_given_z[zi] = [1.0 - delta, delta] if wbit == 0 else \
            [delta, 1.0 - delta]
        u_given_xz[:, zi, sbit] = 1.0
        for v in range(2):
            dec[zi, v] = [1.0 - delta, delta] if wbit == 0 else \
                [delta, 1.0 - delta]

    def bern(p):
        return DiscreteDistribution(("0", "1"), np.array([1.0 - p, p]))

    channel = DiscreteChannel(("0", "1"), ("0", "1"),
                              np.array([[1.0 - theta, theta],
                                        [theta, 1.0 - theta]]))
    return BlockCodeConfig(
        n=n, rate=float(rate), source=bern(rho),
        code_marginal=DiscreteDistribution(z_alphabet, p_z),
        x_given_z=x_given_z, u_given_xz=u_given_xz, channel=channel,
        dec_cond=dec, target=bern(rho),
        dist=1.0 - np.eye(2), typ_delta=typ_delta, codebooks=codebooks)
