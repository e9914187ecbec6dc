"""Builder of the uncoded evaluator candidate, shared by the evaluator, binary
case and acceptance tests: a constant shared variable, and the source fed
straight into the channel."""

from typing import Optional

import numpy as np

from cot_lab.hybrid_bound import HybridSpec
from cot_lab.infokit import DiscreteChannel, DiscreteDistribution


def make_uncoded(p_x: DiscreteDistribution, ch: DiscreteChannel,
                 dec: np.ndarray, dist: np.ndarray, gamma: float,
                 target_y: Optional[DiscreteDistribution] = None
                 ) -> HybridSpec:
    """Uncoded candidate: constant shared variable, source fed straight in.

    dec is p_{Y|V} of shape (|V|, |Y|); the reconstruction alphabet is taken
    from target_y when given, else it mirrors the source alphabet.
    """
    if len(ch.input_alphabet) != len(p_x):
        raise ValueError("uncoded spec needs |U| = |X|")
    dec = np.asarray(dec, dtype=float)
    nx = len(p_x)
    nv = len(ch.output_alphabet)
    y_alphabet = target_y.alphabet if target_y is not None else p_x.alphabet
    if dec.shape != (nv, len(y_alphabet)):
        raise ValueError("dec: expected one row per channel output")
    enc = np.zeros((nx, 1, nx))
    enc[np.arange(nx), 0, np.arange(nx)] = 1.0
    return HybridSpec(p_x, ("z0",), enc, ch, dec[None, :, :], y_alphabet,
                      dist, gamma, target_y)
