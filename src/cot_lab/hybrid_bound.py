"""Single-letter achievability evaluator for joint coding over a noisy
channel with a reconstruction-law constraint.

A candidate is a five-factor chain X -> (Z, U) -> V -> Y: the encoder emits a
shared codeword variable Z together with the channel input U, the channel
acts on U alone, and the decoder sees (Z, V). The evaluator computes the
end-to-end expected distortion plus the three mutual informations that govern
achievability, and reports per-condition feasibility flags instead of
throwing, so search loops can sweep infeasible candidates freely.

The information condition asks for a codebook rate R with
    R > I(X;Z)   so that a likelihood encoder finds a codeword,
    R > I(Y;Z)   so that soft covering makes the reconstructions follow
                 the target law,
    R < I(Z;V)   so that the decoder recovers the codeword,
that is max(I(X;Z), I(Y;Z)) <= I(Z;V). These are the usual random-coding
conditions, not tied to a theorem of the source paper, so a spec that
passes is feasible under these conditions and no more is claimed for it.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .infokit import (
    DiscreteChannel,
    DiscreteDistribution,
    channel_from_json,
    channel_to_json,
    distribution_from_json,
    distribution_to_json,
    json_labels,
    json_numbers,
    json_object,
    mutual_information,
    nonnegative_array,
    stochastic_array,
    total_variation,
)

_COND_SLACK = 1e-9
_MARGINAL_TV = 1e-8


@dataclass
class HybridSpec:
    """Finite-alphabet candidate for the hybrid achievability bound.

    enc[x, z, u] is the per-source-symbol joint law of (Z, U); dec[z, v, y]
    is the decoder law of Y given the shared variable and the channel output.
    target_y is the reconstruction law the decoder must induce; it defaults
    to the source law (same alphabet required in that case).
    """

    p_x: DiscreteDistribution
    z_alphabet: Tuple[str, ...]
    enc: np.ndarray
    ch: DiscreteChannel
    dec: np.ndarray
    y_alphabet: Tuple[str, ...]
    dist: np.ndarray
    gamma: float
    target_y: Optional[DiscreteDistribution] = None

    def __post_init__(self):
        self.z_alphabet = tuple(str(a) for a in self.z_alphabet)
        self.y_alphabet = tuple(str(a) for a in self.y_alphabet)
        nx = len(self.p_x)
        nz = len(self.z_alphabet)
        nu = len(self.ch.input_alphabet)
        nv = len(self.ch.output_alphabet)
        ny = len(self.y_alphabet)
        if nz > nx + ny + nv + 2:
            raise ValueError(
                "shared-variable alphabet exceeds the cardinality bound "
                f"|Z| <= |X|+|Y|+|V|+2 = {nx + ny + nv + 2}")
        # each source letter's (z, u) block, and each (z, v) row over y
        self.enc = stochastic_array(self.enc, (nx, nz, nu), "enc",
                                    axis=(1, 2))
        self.dec = stochastic_array(self.dec, (nz, nv, ny), "dec")
        self.dist = nonnegative_array(self.dist, (nx, ny), "dist")
        self.gamma = float(self.gamma)
        if not np.isfinite(self.gamma):
            raise ValueError("gamma must be finite")
        if self.target_y is None:
            if self.y_alphabet != self.p_x.alphabet:
                raise ValueError(
                    "target_y defaults to p_x, which needs matching "
                    "source and reconstruction alphabets")
            self.target_y = DiscreteDistribution(self.y_alphabet,
                                                 self.p_x.probs.copy())
        elif self.target_y.alphabet != self.y_alphabet:
            raise ValueError("target_y alphabet mismatch")


@dataclass(frozen=True)
class HybridReport:
    """Evaluation of one candidate: distortion, channel cost, the three
    governing informations, the induced reconstruction law, and feasibility
    split into its three conditions."""

    e_dist: float
    e_cost: float
    i_xz: float
    i_yz: float
    i_zv: float
    induced_y: DiscreteDistribution
    cost_ok: bool
    info_ok: bool
    marginal_ok: bool
    feasible: bool


def evaluate(spec: HybridSpec) -> HybridReport:
    """Compute the achievability report for one candidate.

    Each reported quantity is contracted straight from the spec's factors
    through p(x,z,u) and p(x,z,v), so no table exceeds |X|·|Z|·max(|U|,|V|)
    or the spec's own. Feasibility requires the channel cost within budget,
    the shared-variable informations dominated by I(Z;V), and the induced
    reconstruction law to match the target in total variation. Each
    condition gets its own flag.
    """
    p_xzu = spec.p_x.probs[:, None, None] * spec.enc
    p_xzv = p_xzu @ spec.ch.matrix
    p_zv = p_xzv.sum(axis=0)
    p_zy = np.einsum("zv,zvy->zy", p_zv, spec.dec)
    p_xy = np.einsum("xzv,zvy->xy", p_xzv, spec.dec)
    e_dist = float(np.sum(p_xy * spec.dist))
    e_cost = float(p_xzu.sum(axis=(0, 1)) @ spec.ch.cost)
    i_xz = max(0.0, mutual_information(p_xzu.sum(axis=2)))
    i_yz = max(0.0, mutual_information(p_zy))
    i_zv = max(0.0, mutual_information(p_zv))
    induced_y = DiscreteDistribution(spec.y_alphabet, p_zy.sum(axis=0))
    cost_ok = e_cost <= spec.gamma + _COND_SLACK
    info_ok = max(i_xz, i_yz) <= i_zv + _COND_SLACK
    marginal_ok = total_variation(induced_y, spec.target_y) <= _MARGINAL_TV
    return HybridReport(e_dist, e_cost, i_xz, i_yz, i_zv, induced_y,
                        cost_ok, info_ok, marginal_ok,
                        cost_ok and info_ok and marginal_ok)


# ------------------------------------------------------------ JSON bridge

def hybrid_spec_to_json(spec: HybridSpec) -> dict:
    return {
        "p_x": distribution_to_json(spec.p_x),
        "z_alphabet": list(spec.z_alphabet),
        "enc": spec.enc.tolist(),
        "channel": channel_to_json(spec.ch),
        "dec": spec.dec.tolist(),
        "y_alphabet": list(spec.y_alphabet),
        "dist": spec.dist.tolist(),
        "gamma": spec.gamma,
        "target_y": distribution_to_json(spec.target_y),
    }


def hybrid_spec_from_json(obj: dict) -> HybridSpec:
    obj = json_object(obj, "spec")
    target = obj.get("target_y")
    gamma = json_numbers(obj["gamma"], "gamma")
    if gamma.ndim:
        raise ValueError("gamma must be a number")
    return HybridSpec(
        distribution_from_json(obj["p_x"]),
        json_labels(obj, "z_alphabet"),
        json_numbers(obj["enc"], "enc"),
        channel_from_json(obj["channel"]),
        json_numbers(obj["dec"], "dec"),
        json_labels(obj, "y_alphabet"),
        json_numbers(obj["dist"], "dist"),
        float(gamma),
        None if target is None else distribution_from_json(target),
    )


def report_to_json(rep: HybridReport) -> dict:
    return {
        "e_dist": rep.e_dist,
        "e_cost": rep.e_cost,
        "i_xz": rep.i_xz,
        "i_yz": rep.i_yz,
        "i_zv": rep.i_zv,
        "induced_y": distribution_to_json(rep.induced_y),
        "cost_ok": rep.cost_ok,
        "info_ok": rep.info_ok,
        "marginal_ok": rep.marginal_ok,
        "feasible": rep.feasible,
    }
