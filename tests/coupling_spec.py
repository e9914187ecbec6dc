"""The maximal coupling of two laws on one alphabet, the oracle for
total_variation: its mismatch probability is the total variation."""

import numpy as np

from cot_lab.infokit import Coupling, DiscreteDistribution


def maximal_coupling(p: DiscreteDistribution,
                     q: DiscreteDistribution) -> Coupling:
    """Coupling of (p, q) maximizing P{first = second}.

    The diagonal carries min(p_i, q_i); the leftover row mass is spread over
    the leftover column mass proportionally, so the off-diagonal (mismatch)
    probability equals total_variation(p, q). The attached cost matrix is the
    mismatch indicator, making expected_cost() the mismatch probability.
    """
    if p.alphabet != q.alphabet:
        raise ValueError("alphabet mismatch")
    m = np.minimum(p.probs, q.probs)
    table = np.diag(m)
    tv = float(np.sum(p.probs - m))
    if tv > 0.0:
        table = table + np.outer(p.probs - m, q.probs - m) / tv
    cost = 1.0 - np.eye(len(p))
    return Coupling(p, q, table, cost)
