"""Spot check of the Gaussian linear-scheme floor, shared by the simulator
and acceptance tests: random valid linear decoders scored by their closed
form cost, and the cost gap at the configuration that attains the floor."""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from cot_lab.block_sim import SimConfig, _run_chunks
from cot_lab.gaussian_case import _check_gamma, _check_lambdas, linear_bound


@dataclass(frozen=True)
class LinearBoundReport:
    trials: int
    violations: int
    min_margin: float


def verify_linear_bound(lambdas: Sequence[float],
                        sim: SimConfig) -> LinearBoundReport:
    """Randomized check of the linear-scheme floor over sim.samples trials.

    Each trial draws combining gains g and a random valid linear decoder:
    Y = h * u * (g'X + N) + independent Gaussian fill with the fill
    covariance chosen so Cov(Y) is exactly the source covariance. The
    mean squared cost has a closed form per trial (2 tr(S) - 2 w'S g), so
    violations of the floor are decided without sampling noise.
    """
    lams = np.asarray(_check_lambdas(lambdas))
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

    parts = _run_chunks(chunk, sim)
    return LinearBoundReport(
        trials=sim.samples,
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
