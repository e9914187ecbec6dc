"""Reverse waterfilling on a target rate, the oracle that the Gaussian tests
use to pick the separation scheme's per-component distortions."""

from typing import Sequence

import numpy as np

from cot_lab.gaussian_case import _check_lambdas, _waterfill


def waterfill_sep(lambdas: Sequence[float], rate):
    """Reverse waterfilling level for the quadratic Gaussian curve.

    Returns omega in (0, lambda_1] with 0.5 * sum log2(lam_l / (omega ^ lam_l))
    equal to `rate`, and [omega ^ lam_l per component]. An array of rates
    gives arrays, the components on one more axis.
    """
    lams = _check_lambdas(lambdas)
    rate = np.asarray(rate, dtype=float)
    if not np.all(rate >= 0.0):
        raise ValueError("rate must be nonnegative")
    omega, _ = _waterfill(lams, np.exp2(2.0 * rate))
    deltas = np.minimum(omega[..., None], lams)
    if rate.ndim == 0:
        return float(omega), deltas.tolist()
    return omega, deltas
