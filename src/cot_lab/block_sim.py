"""Monte Carlo simulators for the one-shot schemes and a small-blocklength
random-coding harness for the hybrid achievability argument.

Single-letter schemes (uncoded binary/Gaussian, genie-aided hybrid) are
sampled directly. The block harness draws random codebooks, runs the
likelihood encoder, joint-typicality decoding with a maximum-likelihood
fallback, symbolwise reconstruction, and the final maximal-coupling step
against the product target law, one chunk of blocks at a time: each chunk
is sampled, coupled and tallied before it is dropped. The per-codebook
output law, its total variation to the target, and the message error
probability are computed exactly by tensor contraction over every block, so
codebooks whose laws pass a byte budget are refused.

Block order: a length-n block of k-ary symbols has the index numpy's C order
gives it in a (k,) * n array, first position most significant, as
np.ravel_multi_index and np.unravel_index compute it. Every block law, the
decode map and the coupler use this order.

Reproducibility: every random draw comes from a counter-based generator
keyed by (seed, stream, chunk). Chunk boundaries are fixed by the sample
count alone and partial results are combined in chunk order (block-harness
codebooks, each on streams of its own, in codebook order), so reports are
bit-identical for a given (seed, samples) no matter how many workers run.
"""

import math
import operator
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .binary_case import _check_rho, _check_theta, hybrid_params
from .gaussian_case import _check_gamma, _check_lambdas
from .infokit import (
    DiscreteChannel,
    DiscreteDistribution,
    nonnegative_array,
    stochastic_array,
    total_variation,
)
from .numkit import binary_entropy

_CHUNK = 1 << 15
_SOURCE_TOL = 1e-8
# the exact laws' byte budget. A codebook is admitted when 8 bytes per block
# for each message and for each of _LAW_VECTORS block-long vectors fit it:
# the messages x blocks work streams through slabs, and the vectors (block
# laws, decode map, fallback likelihoods, p_v, p_yhat and their
# temporaries) are held whole; traced peaks hold up to 11.2 vectors more
# than the message count, with one to 128 messages at n = 14 and 16. As many
# codebooks run at once as their vectors and two slabs each fit it
_ENUM_BYTES = 2 ** 28
_LAW_VECTORS = 12
# the exact laws, the decoder and the encoder weights work on slabs of
# messages of about this many float64 bytes; no messages x blocks table is
# ever held whole
_SLAB_BYTES = 2 ** 19
# bounds of the Gaussian simulator: its fourth-moment sums square lambda
# and u^2 scales with gamma, so a larger eigenvalue or budget overflows to
# inf, and a largest eigenvalue below the floor underflows to 0
_MAX_GAUSSIAN_SCALE = 1e100
_MIN_GAUSSIAN_SCALE = 1e-150


class BudgetExceeded(ValueError):
    """Requested codebook's exact laws exceed their byte budget."""


def _integer(value, name: str) -> int:
    """value as an int when it is a Python or numpy integer; ValueError
    naming it otherwise (a float, even a whole one, or NaN)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class SimConfig:
    """Seed, sample count, and worker count for one simulation run."""

    seed: int
    samples: int
    workers: int = 1

    def __post_init__(self):
        for name in ("seed", "samples", "workers"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass(frozen=True)
class CodebookDraw:
    """Per-codebook outcome of the block harness.

    tv_to_target is the total variation between the pre-coupling
    reconstruction law and the product target; it and msg_error_rate are
    enumerated exactly."""

    size: int
    msg_error_rate: float
    tv_to_target: float
    degenerate: bool


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


def _pool_map(fn, jobs, threads: int) -> list:
    """fn over jobs on up to threads threads (past the job or core count
    they would only wait), the caller one of them; results come back in job
    order.

    Every thread takes the next job from one shared iterator, whose next()
    is atomic under the GIL. Once a job raises, or the caller is
    interrupted, no thread takes another job: the first exception is raised
    on the caller when the pool threads have finished the jobs they hold."""
    threads = min(threads, len(jobs), os.cpu_count() or 1)
    if threads <= 1:
        return [fn(job) for job in jobs]
    results = [None] * len(jobs)
    errors = []
    order = enumerate(jobs)

    def work():
        try:
            for i, job in order:
                if errors:
                    break
                results[i] = fn(job)
        except BaseException as exc:
            errors.append(exc)

    with ThreadPoolExecutor(max_workers=threads - 1) as pool:
        try:
            for _ in range(threads - 1):
                pool.submit(work)
            work()
        except BaseException as exc:
            # an interrupt that lands while the pool threads start
            errors.append(exc)
    if errors:
        raise errors[0]
    return results


def _run_chunks(fn, sim: SimConfig) -> List[tuple]:
    """Evaluate fn(rng, count) for every chunk, each on its own chunk of
    stream 0; results come back in chunk order regardless of the worker
    count."""
    def work(job):
        idx, count = job
        return fn(_rng(sim.seed, 0, idx), count)

    return _pool_map(work, list(_chunks(sim.samples)), sim.workers)


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
    return np.minimum(idx, len(cdf) - 1, out=idx)


def _row_draw(rng_values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Categorical draw per row from unnormalized weights on the last axis,
    as codes of the smallest unsigned dtype that holds every letter: the
    likelihood encoder's draw of a message from its weights. rows is
    overwritten, so callers pass a fresh gather.

    Rows with zero total weight fall back to the uniform law.
    """
    k = rows.shape[-1]
    cum = np.cumsum(rows, axis=-1, out=rows)
    total = cum[..., -1:]
    bad = total <= 0.0
    if np.any(bad):
        cum = np.where(bad, np.arange(1, k + 1, dtype=float), cum)
        total = np.where(bad, float(k), total)
    # each cum row is nondecreasing and ends at total >= u * total, so the
    # first entry at or above the target is the count of those below it
    return (cum >= rng_values[..., None] * total).argmax(axis=-1).astype(
        np.min_scalar_type(k - 1))


def _table_draw(rng_values: np.ndarray, table: np.ndarray,
                index: tuple) -> np.ndarray:
    """_row_draw(rng_values, table[index]): a draw per indexed row of a
    small per-symbol table, for any alphabet, without gathering k-wide
    rows, each of positive total. The table's own cumulative sums are read
    at the indices one letter at a time, so the count x n symbol codes, the
    scaled uniforms and one gathered letter are all that is held;
    rng_values is overwritten."""
    k = table.shape[-1]
    cum = np.cumsum(table, axis=-1)
    target = np.multiply(rng_values, cum[..., -1][index], out=rng_values)
    # cum rows are nondecreasing and end at total >= target, so the count
    # of the first k - 1 entries below the target is _row_draw's symbol
    codes = np.zeros(target.shape, dtype=np.min_scalar_type(k - 1))
    for j in range(k - 1):
        codes += cum[..., j][index] < target
    return codes


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
    rho = _check_rho(rho, closed=True)
    theta = float(_check_theta(theta))
    a, b = (float(v) for v in decoder)
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise ValueError("decoder probabilities must lie in [0, 1]")

    def chunk(rng, count):
        x = rng.random(count) < rho
        v = x ^ (rng.random(count) < theta)
        r = rng.random(count)
        y = np.where(v, r < 1.0 - b, r < a)
        wrong = float(np.count_nonzero(x != y))
        return count, wrong, wrong, int(np.count_nonzero(y))

    return _binary_report(_run_chunks(chunk, sim), rho)


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
    if lams[0] < _MIN_GAUSSIAN_SCALE:
        raise ValueError(f"largest eigenvalue must be at least "
                         f"{_MIN_GAUSSIAN_SCALE:g}")
    dim = len(lams)
    scale = np.sqrt(lams)
    gain = math.sqrt(gamma / lams[0])
    back = math.sqrt(lams[0] / (gamma + 1.0))

    def chunk(rng, count):
        # one draw cut into the count x dim source table, the noise column
        # and the count x (dim - 1) fill table: the values three calls in
        # turn give. The rest works in place, one column at a time: numpy
        # loops over a dim-wide axis slowly when dim is small
        draws = rng.standard_normal(2 * dim * count)
        x = draws[:dim * count].reshape(count, dim)
        fill = draws[(dim + 1) * count:].reshape(count, dim - 1)
        y = [draws[dim * count:(dim + 1) * count]] + [
            fill[:, l - 1] for l in range(1, dim)]
        for l in range(dim):
            x[:, l] *= scale[l]
        u = x[:, 0] * gain
        for l in range(1, dim):
            y[l] *= scale[l]
        y[0] += u
        y[0] *= back
        # x becomes the squared error of every component
        for l in range(dim):
            x[:, l] -= y[l]
        np.square(x, out=x)
        diff = _pairwise_sum(lambda l: x[:, l], dim)
        err = float(diff.sum())
        err2 = float(np.square(diff, out=diff).sum())
        power = float(np.square(u, out=u).sum())

        def column_sum(col):
            # what summing a count x dim table over its rows gives one
            # column: a running total (in u, now free), or numpy's pairwise
            # sum when the table has only that column
            return np.cumsum(col, out=u)[-1] if dim > 1 else col.sum()

        ysum = np.array([column_sum(c) for c in y])
        ysum2 = np.array([column_sum(np.square(c, out=c)) for c in y])
        return count, err, err2, ysum, ysum2, power

    parts = _run_chunks(chunk, sim)
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

    return _binary_report(_run_chunks(chunk, sim), rho,
                          notes=("digital part delivered noiselessly",))


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
        self.n = _integer(self.n, "n")
        self.codebooks = _integer(self.codebooks, "codebooks")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not self.rate > 0.0:
            raise ValueError("rate must be positive")
        if not 0.0 < self.typ_delta < math.inf:
            raise ValueError("typ_delta must be positive and finite")
        if self.codebooks < 1:
            raise ValueError("codebooks must be at least 1")
        nx, nz = len(self.source), len(self.code_marginal)
        nu = len(self.channel.input_alphabet)
        nv = len(self.channel.output_alphabet)
        ny = len(self.target)
        # the exact laws enumerate these blocks, and with two letters or
        # more each space has at least 2^n of them, which the byte gate
        # counts; the codeword space is not enumerated
        for name, size in (("source", nx), ("channel output", nv),
                           ("target", ny)):
            if size < 2:
                raise ValueError(f"{name} alphabet needs at least 2 letters")
        self.x_given_z = stochastic_array(self.x_given_z, (nz, nx),
                                          "x_given_z")
        self.u_given_xz = stochastic_array(self.u_given_xz, (nx, nz, nu),
                                           "u_given_xz")
        self.dec_cond = stochastic_array(self.dec_cond, (nz, nv, ny),
                                         "dec_cond")
        self.dist = nonnegative_array(self.dist, (nx, ny), "dist")
        induced = self.code_marginal.probs @ self.x_given_z
        if np.max(np.abs(induced - self.source.probs)) > _SOURCE_TOL:
            raise ValueError(
                "source law does not match the code marginal pushed "
                "through x_given_z")

    @property
    def codebook_size(self) -> int:
        return math.ceil(2.0 ** (self.n * self.rate))


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


def _leading_products(x_given_z: np.ndarray, code: np.ndarray,
                      h: int) -> np.ndarray:
    """prod_{t < h} p(x_t | z_t(m)) for every message (row) and every
    pattern of the leading h source symbols (column, in block order),
    multiplied from ones in position order: each position appends a block
    axis by one broadcast product."""
    part = np.ones((code.shape[0], 1))
    for t in range(h):
        part = (part[:, :, None] * x_given_z[code[:, t]][:, None, :]
                ).reshape(part.shape[0], -1)
    return part


def _block_law(probs: np.ndarray, n: int) -> np.ndarray:
    """Probability of every length-n block, in block order, under the
    i.i.d. law probs: the leading products of one all-zero codeword."""
    return _leading_products(probs[None, :], np.zeros((1, n), np.intp), n)[0]


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


def _slabs(rows: int, width: int):
    """Consecutive row ranges of a rows x width float64 table, each within
    _SLAB_BYTES unless a single row is wider."""
    step = max(1, _SLAB_BYTES // (8 * width))
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


def _add_rows(total: Optional[np.ndarray], part: np.ndarray) -> np.ndarray:
    """total plus the rows of a 2-D part at least two columns wide, added
    one after another as a running total adds them; part is overwritten."""
    if total is not None:
        part[0] += total
    return part.sum(axis=0)


def _typical_slab(code: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  nv: int):
    """How many of the messages (rows of code) are jointly typical with
    each output block, and the first of them (0 where none is). The count
    of the (codeword, output) pair z * nv + v passes when it lies in
    [lo, hi] of that pair; lo and hi have the counts' dtype.

    A block's count is the count of its leading half plus that of its
    trailing half, broadcast over the two halves of its index. Each half's
    counts (pairs x messages x half-blocks, in the counts' dtype) append one
    position's block axis at a time by one broadcast, as _leading_products
    appends its factors; the counts are exact small integers, so no BLAS
    product is needed."""
    rows, n = code.shape
    npairs = len(lo)
    pairs = np.arange(npairs)[:, None, None]
    halves = []
    for cut in (range(n // 2), range(n // 2, n)):
        counts = np.zeros((npairs, rows, 1), dtype=lo.dtype)
        for t in cut:
            hit = pairs == code[:, t, None] * nv + np.arange(nv)
            counts = (counts[:, :, :, None] + hit[:, :, None, :]
                      ).reshape(npairs, rows, -1)
        halves.append(counts)
    lead, trail = halves
    typical = np.ones((rows, lead.shape[2], trail.shape[2]), dtype=bool)
    for p in range(npairs):
        count = lead[p, :, :, None] + trail[p, :, None, :]
        typical &= count >= lo[p]
        typical &= count <= hi[p]
    typical = typical.reshape(rows, -1)
    return typical.sum(axis=0), typical.argmax(axis=0)


def _decode_tables(cfg: BlockCodeConfig, code: np.ndarray,
                   pvz: np.ndarray):
    """Typicality decoder with maximum-likelihood fallback: the typicality
    test on 1-byte counts and the likelihoods, in one pass over slabs of
    messages.

    Returns the decoded message of every output block in block order and
    whether typicality failed to single out one message for it."""
    n = cfg.n
    msgs = code.shape[0]
    nv = pvz.shape[1]
    nblocks = nv ** n

    # a (codeword, output) pair count c passes when |c/n - p(z, v)| is
    # within typ_delta; evaluating that for every c in 0..n with the
    # arithmetic of the deviation test gives, per pair, the interval of
    # counts that pass (empty when lo > hi)
    dev = np.abs(np.arange(n + 1) / n
                 - (cfg.code_marginal.probs[:, None] * pvz).reshape(-1, 1))
    passing = dev <= cfg.typ_delta
    lo = np.where(passing.any(axis=1), passing.argmax(axis=1), n + 1)
    hi = n - passing[:, ::-1].argmax(axis=1)
    ctype = np.min_scalar_type(n + 1)
    lo, hi = lo.astype(ctype), hi.astype(ctype)
    with np.errstate(divide="ignore"):
        logpvz = np.log(pvz)
    # each slab of messages carries every block's count of typical messages
    # and the first of them, and its best likelihood and the first message
    # that reaches it. A slab is sized by its widest tables: the float64
    # likelihoods and the 1-byte test tables, a few alive at once, or the
    # 1-byte pair counts of the longer half-block
    matches = np.zeros(nblocks, dtype=np.intp)
    first = np.zeros(nblocks, dtype=np.intp)
    best = np.full(nblocks, -np.inf)
    fallback = np.zeros(nblocks, dtype=np.intp)
    for s in _slabs(msgs, max(nblocks, len(lo) * nv ** (n - n // 2) // 8)):
        found, top = _typical_slab(code[s], lo, hi, nv)
        fresh = (matches == 0) & (found > 0)
        first[fresh] = top[fresh] + s.start
        matches += found

        rows = s.stop - s.start
        # log-likelihood summed over positions in the order a row sum adds
        # them. Each position's term broadcasts over its own block axis;
        # the axes run from the last position to the first, so the late,
        # large sums add long contiguous runs
        def term(t):
            return logpvz[code[s, t]].reshape(
                (rows,) + (1,) * (n - 1 - t) + (nv,) + (1,) * t)

        loglik = _pairwise_sum(term, n).reshape(rows, -1)
        top = loglik.argmax(axis=0)
        peak = loglik[top, np.arange(nblocks)]
        # a slab wins only on a strictly larger likelihood, so ties go to
        # the first message, as one argmax over every message sends them
        better = peak > best
        best[better] = peak[better]
        fallback[better] = top[better] + s.start
    # back to block order, first position most significant
    fallback = fallback.reshape((nv,) * n).T.ravel()
    typ_fail = matches != 1
    decode = np.where(typ_fail, fallback, first)
    return decode, typ_fail


def _push(part: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Each row's law over blocks pushed through its own per-position
    kernels (rows x n x k x l) to a law over l-ary blocks. Each step maps
    the leading k-ary axis of every row's tensor to a trailing l-ary axis,
    as tensordot over axis 0 would."""
    rows, n, k = kernels.shape[:3]
    for t in range(n):
        part = np.matmul(part.reshape(rows, k, -1).transpose(0, 2, 1),
                         kernels[:, t])
    return part.reshape(rows, -1)


def _codebook_laws(cfg: BlockCodeConfig, code: np.ndarray) -> CodebookLaws:
    """Exact decode map, block laws, total variation, and error probability
    for one codebook, contracting one block axis at a time over slabs of
    messages.

    No messages x blocks table is held: the encoder posterior is built one
    slab of messages at a time, twice (once for its normalizer, once to
    contract it), each slab gathers its own messages' kernels, and only
    vectors over the blocks outlive a slab."""
    n = cfg.n
    msgs = code.shape[0]
    nx = len(cfg.source)
    nv = len(cfg.channel.output_alphabet)
    ny = len(cfg.target)

    qv, pvz = _symbol_kernels(cfg)
    decode, typ_fail = _decode_tables(cfg, code, pvz)

    # encoder posterior over the whole source space, its factors
    # multiplied in position order as the sampled encoder's are. Its
    # normalizer adds the slabs' products up in message order, the order in
    # which a sum over the rows of the whole table adds them. A slab is
    # sized by the wider of a block row and its messages' kernels
    slabs = list(_slabs(msgs, max(max(nx, nv) ** n, n * nx * nv)))
    wtot = None
    for s in slabs:
        wtot = _add_rows(wtot, _leading_products(cfg.x_given_z, code[s], n))
    px_n = _block_law(cfg.source.probs, n)
    # blocks no codeword can produce get the uniform message, matching the
    # sampling path's convention
    uncovered = wtot <= 0.0
    wtot[uncovered] = 1.0
    spread = px_n[uncovered] / msgs

    qv_by_z = np.swapaxes(qv, 0, 1)
    p_v = None
    msg_error = 0.0
    for s in slabs:
        part = _leading_products(cfg.x_given_z, code[s], n)
        part *= px_n
        part /= wtot
        part[:, uncovered] = spread
        part = _push(part, qv_by_z[code[s]])
        for m in range(s.start, s.stop):
            # the fallback defines the decoder output, so only a wrong
            # final message counts as an error
            msg_error += float(part[m - s.start][decode != m].sum())
        p_v = _add_rows(p_v, part)

    mhats = np.flatnonzero(np.bincount(decode, minlength=msgs))
    p_yhat = None
    for s in _slabs(len(mhats), max(max(nv, ny) ** n, n * nv * ny)):
        part = np.where(decode == mhats[s, None], p_v, 0.0)
        p_yhat = _add_rows(p_yhat, _push(part, cfg.dec_cond[code[mhats[s]]]))

    p_target = _block_law(cfg.target.probs, n)

    tv = 0.5 * float(np.abs(p_yhat - p_target).sum())
    return CodebookLaws(decode, typ_fail, p_v, p_yhat, p_target, tv,
                        msg_error)


def _sample_chunk(cfg: BlockCodeConfig, code: np.ndarray,
                  decode_map: np.ndarray, rng: np.random.Generator,
                  count: int):
    """Run count sampled source blocks through encoder, channel, decoder and
    reconstruction; returns the (x, yhat) blocks as rows.

    decode_map is the decoder tabulated over every output block in block
    order. Symbols are held as codes of the smallest unsigned
    dtype of their alphabet, and each table is dropped once it is used."""
    n = cfg.n
    msgs = code.shape[0]
    nx = len(cfg.source)
    nv = len(cfg.channel.output_alphabet)
    x = _cdf_draw(rng.random((count, n)), np.cumsum(cfg.source.probs)
                  ).astype(np.min_scalar_type(nx - 1))
    pick = rng.random(count)
    # the likelihood encoder's weights prod_t p(x_t | z_t(m)), one slab of
    # blocks x messages at a time: a block's row of the products over its
    # leading h symbols (h as large as that table fits a slab), times the
    # other factors in position order, as one running product gives
    h = 0
    while h < n and nx ** (h + 1) * msgs * 8 <= _SLAB_BYTES:
        h += 1
    lead = np.ascontiguousarray(_leading_products(cfg.x_given_z, code, h).T)
    pattern = x[:, :h] @ (nx ** np.arange(h - 1, -1, -1))
    factors = np.ascontiguousarray(cfg.x_given_z[code].transpose(1, 2, 0))
    m = np.empty(count, dtype=np.intp)
    for s in _slabs(count, msgs):
        weights = lead[pattern[s]]
        for t in range(h, n):
            weights *= factors[t, x[s, t]]
        m[s] = _row_draw(pick[s], weights)
    del pick, lead, pattern, weights
    # the codewords as symbol codes too, so their gathered rows are compact
    zcode = code.astype(np.min_scalar_type(len(cfg.code_marginal) - 1))
    u = _table_draw(rng.random((count, n)), cfg.u_given_xz, (x, zcode[m]))
    v = _table_draw(rng.random((count, n)), cfg.channel.matrix, (u,))
    del u
    mhat = decode_map[np.ravel_multi_index(v.T, (nv,) * n)]
    yhat = _table_draw(rng.random((count, n)), cfg.dec_cond,
                       (zcode[mhat], v))
    return x, yhat


def _coupler(cfg: BlockCodeConfig, laws: CodebookLaws):
    """Maximal coupling against the exact product target, as a function
    couple(rng, y) that overwrites one chunk's reconstructions y with their
    coupled blocks and returns them."""
    blocks = (len(cfg.target),) * cfg.n
    keep = np.where(laws.p_yhat > 0.0,
                    np.minimum(laws.p_yhat, laws.p_target)
                    / np.where(laws.p_yhat > 0.0, laws.p_yhat, 1.0),
                    1.0)
    resid = laws.p_target - np.minimum(laws.p_yhat, laws.p_target)
    rmass = float(resid.sum())
    resid_cdf = np.cumsum(resid / rmass) if rmass > 0.0 else None

    def couple(rng, y):
        reject = rng.random(y.shape[0]) >= keep[
            np.ravel_multi_index(y.T, blocks)]
        nrej = int(np.count_nonzero(reject))
        if nrej and resid_cdf is not None:
            fresh = _cdf_draw(rng.random(nrej), resid_cdf)
            y[reject] = np.stack(np.unravel_index(fresh, blocks), axis=1)
        return y

    return couple


def _median(values) -> float:
    """The median np.median gives: the middle value, or the mean (a + b) / 2
    of the two middle values of an even count."""
    mid, odd = divmod(len(values), 2)
    ranked = sorted(values)
    return ranked[mid] if odd else (ranked[mid - 1] + ranked[mid]) / 2


def sim_block_hybrid(cfg: BlockCodeConfig, sim: SimConfig) -> SimReport:
    """Random-coding hybrid scheme at small blocklength.

    Draws cfg.codebooks independent codebooks of exactly ceil(2^{n rate})
    codewords, runs sim.samples source blocks through each (likelihood
    encoder, channel, typicality decoder with maximum-likelihood fallback,
    symbolwise reconstruction, maximal coupling to the product target), and
    pools the distortion samples. msg_error_rate and tv_to_target are
    medians of the exact per-codebook values; the per-codebook detail sits
    in codebook_draws. BudgetExceeded is raised before any codebook is drawn
    when the exact laws' messages x blocks of work and block-long vectors
    pass their byte budget. Each chunk of sampled blocks is coupled and
    tallied as soon as it is drawn, so no sample table outlives its chunk.
    Up to sim.workers codebooks run at once, each on its own streams, as
    many as their block-long vectors and slabs fit the byte budget
    together; workers left over run a codebook's chunks.
    """
    nx, nv = len(cfg.source), len(cfg.channel.output_alphabet)
    ny = len(cfg.target)
    budget = f"the {_ENUM_BYTES / 2 ** 20:.0f} MiB budget"
    # 2^(n rate) messages over k^n blocks: where either power would pass
    # the float range the codebook is far past the budget, and is refused
    # before the power is formed
    bits = cfg.n * (cfg.rate + math.log2(max(nx, nv, ny)))
    if not bits < sys.float_info.max_exp:
        raise BudgetExceeded(
            f"exact laws need 2^{bits:.0f} messages x blocks, over {budget}")
    msgs = cfg.codebook_size
    blocks = max(nx, nv, ny) ** cfg.n
    # the exact laws work through every message and block and hold their
    # block-long vectors, 8 bytes each, counting blocks of the largest of
    # the source, output and reconstruction alphabets; with at least 2^n
    # blocks this bounds n and every messages x n table too
    work = 8 * (msgs + _LAW_VECTORS) * blocks
    if work > _ENUM_BYTES:
        raise BudgetExceeded(
            f"exact laws need {work / 2 ** 20:.0f} MiB of messages x blocks "
            f"work and block-long vectors per codebook, over {budget}")
    # codebooks in flight as far as what each holds (its block-long vectors
    # and two slabs) fits the budget together; the workers left over run
    # each codebook's chunks
    workers = min(sim.workers, os.cpu_count() or 1)
    threads = min(workers, max(1, _ENUM_BYTES // (
        8 * _LAW_VECTORS * blocks + 2 * _SLAB_BYTES)))
    chunk_threads = max(1, workers // min(threads, cfg.codebooks))
    z_cdf = np.cumsum(cfg.code_marginal.probs)

    def run(d):
        rng = _rng(sim.seed, 4 * d + 1, 0)
        code = _cdf_draw(rng.random((msgs, cfg.n)), z_cdf)
        laws = _codebook_laws(cfg, code)
        couple = _coupler(cfg, laws)

        def tally(job):
            idx, count = job
            x, yhat = _sample_chunk(cfg, code, laws.decode_map,
                                    _rng(sim.seed, 4 * d + 2, idx), count)
            y = couple(_rng(sim.seed, 4 * d + 3, idx), yhat)
            dist_rows = cfg.dist[x, y].mean(axis=1)
            return (count, float(dist_rows.sum()),
                    float((dist_rows * dist_rows).sum()),
                    np.bincount(y.ravel(), minlength=ny))

        draw = CodebookDraw(msgs, float(laws.msg_error),
                            float(laws.tv_to_target),
                            bool((code == code[0]).all()))
        return draw, _pool_map(tally, list(_chunks(sim.samples)),
                               chunk_threads)

    done = _pool_map(run, range(cfg.codebooks), threads)
    draws = [draw for draw, _ in done]
    parts = [p for _, chunk_parts in done for p in chunk_parts]
    mean, se, n_total = _pooled_moments(parts)
    y_counts = sum(p[3] for p in parts).astype(float)
    marginal = DiscreteDistribution(cfg.target.alphabet,
                                    y_counts / y_counts.sum())
    return SimReport(
        mean, se, marginal,
        _median([dr.tv_to_target for dr in draws]), n_total,
        msg_error_rate=_median([dr.msg_error_rate for dr in draws]),
        codebook_draws=tuple(draws),
        notes=("typicality test: max deviation of the empirical "
               "(codeword, output) pair law", "exact per-codebook law"))


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
    rho = _check_rho(rho, closed=True)
    delta = float(delta)
    theta = float(theta)
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
    # Z = (W, S): X and, whatever V is, Y are W through a BSC(delta); the
    # channel input U is the dither bit S, whatever X is
    wbit, sbit = np.divmod(np.arange(4), 2)
    x_given_z = np.array([[1.0 - delta, delta], [delta, 1.0 - delta]])[wbit]
    u_given_xz = np.tile(np.eye(2)[sbit], (2, 1, 1))
    dec = np.repeat(x_given_z[:, None], 2, axis=1)

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
