"""Discrete probability objects, information measures, cost-constrained
capacity, and optimal transport.

All information quantities are in bits.

JSON schema (shared with hybrid_bound and the CLI):

    distribution  {"alphabet": ["0", "1"], "probs": [0.75, 0.25]}
    channel       {"inputs": [...], "outputs": [...],
                   "matrix": [[...], ...], "cost": [...]}     # cost optional
    cost matrix   nested list, row index = row alphabet, column = col alphabet

`distribution_from_json` and friends convert between these dicts and the
dataclasses below, and raise ValueError naming the field when a document
is not an object, an alphabet not a list, or a number not a JSON number;
file handling lives in the CLI.
"""

import json
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import MaxIterError, SinkhornDivergence

_PROB_TOL = 1e-9
_MARGINAL_TOL = 1e-8


class InfeasibleCost(ValueError):
    """Cost budget below the cheapest channel input."""


def finite_array(values, what) -> np.ndarray:
    """values as a float array; ValueError naming `what` on NaN or inf."""
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} has non-finite entries")
    return arr


def shaped_array(values, shape, what) -> np.ndarray:
    """values as a finite float array of `shape`; ValueError naming `what`
    otherwise."""
    arr = finite_array(values, what)
    if arr.shape != shape:
        raise ValueError(f"{what}: expected shape {shape}, got {arr.shape}")
    return arr


def nonnegative_array(values, shape, what) -> np.ndarray:
    """values as a finite float array of `shape` with no negative entry,
    such as a cost or distortion table. Raises ValueError naming `what`
    otherwise."""
    arr = shaped_array(values, shape, what)
    if np.any(arr < 0.0):
        raise ValueError(f"{what} has negative entries")
    return arr


def stochastic_array(values, shape, what, axis=-1) -> np.ndarray:
    """values as a finite float array of `shape` whose sums over `axis` are
    1 within 1e-9; entries down to -1e-12 are clipped to 0. Raises
    ValueError naming `what` otherwise."""
    arr = shaped_array(values, shape, what)
    if np.any(arr < -1e-12):
        raise ValueError(f"{what} has negative entries")
    arr = np.clip(arr, 0.0, None)
    err = float(np.max(np.abs(arr.sum(axis=axis) - 1.0)))
    if err > _PROB_TOL:
        raise ValueError(f"{what} must sum to 1 (off by {err:.3g})")
    return arr


@dataclass
class DiscreteDistribution:
    """Probability vector over a named finite alphabet."""

    alphabet: Tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        self.alphabet = tuple(str(a) for a in self.alphabet)
        self.probs = stochastic_array(self.probs, (len(self.alphabet),),
                                      "distribution")

    def __len__(self):
        return len(self.alphabet)


@dataclass
class Coupling:
    """Joint probability table with fixed row/column marginals and a cost
    matrix of distortions d(x, y) >= 0."""

    row_marginal: DiscreteDistribution
    col_marginal: DiscreteDistribution
    table: np.ndarray
    cost: np.ndarray

    def __post_init__(self):
        self.table = finite_array(self.table, "coupling table")
        self.cost = finite_array(self.cost, "coupling cost")
        shape = (len(self.row_marginal), len(self.col_marginal))
        if self.table.shape != shape or self.cost.shape != shape:
            raise ValueError("coupling table/cost shape mismatch")
        if np.any(self.table < -1e-12):
            raise ValueError("coupling table has negative entries")
        self.table = np.clip(self.table, 0.0, None)
        if np.max(np.abs(self.table.sum(axis=1)
                         - self.row_marginal.probs)) > _MARGINAL_TOL:
            raise ValueError("row sums do not match the row marginal")
        if np.max(np.abs(self.table.sum(axis=0)
                         - self.col_marginal.probs)) > _MARGINAL_TOL:
            raise ValueError("column sums do not match the column marginal")

    def expected_cost(self) -> float:
        return float(np.sum(self.table * self.cost))


@dataclass
class DiscreteChannel:
    """Stochastic matrix p(v|u) with a per-input cost vector c(u) >= 0."""

    input_alphabet: Tuple[str, ...]
    output_alphabet: Tuple[str, ...]
    matrix: np.ndarray
    cost: Optional[np.ndarray] = None

    def __post_init__(self):
        self.input_alphabet = tuple(str(a) for a in self.input_alphabet)
        self.output_alphabet = tuple(str(a) for a in self.output_alphabet)
        self.matrix = stochastic_array(
            self.matrix, (len(self.input_alphabet), len(self.output_alphabet)),
            "channel matrix")
        if self.cost is None:
            self.cost = np.zeros(len(self.input_alphabet))
        else:
            self.cost = nonnegative_array(
                self.cost, (len(self.input_alphabet),), "channel cost")
            if np.any(self.cost > _MAX_COST):
                raise ValueError(
                    f"channel cost entries must be at most {_MAX_COST:g}")


@dataclass(frozen=True)
class RDPoint:
    """One sample of the rate-limited transport curve."""

    rate: float
    distortion: float
    multiplier: float

    def __post_init__(self):
        if self.rate < 0.0:
            raise ValueError("rate must be nonnegative")
        if self.distortion < -1e-12:
            raise ValueError("distortion must be nonnegative")


# ------------------------------------------------------------ JSON bridge

def distribution_to_json(d: DiscreteDistribution) -> dict:
    return {"alphabet": list(d.alphabet), "probs": [float(p) for p in d.probs]}


def json_object(obj, what: str) -> dict:
    """obj itself; ValueError naming `what` unless it is a JSON object."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    return obj


def json_labels(obj: dict, key: str) -> tuple:
    """The alphabet obj[key] as a tuple; ValueError naming `key` unless it
    is a JSON list (a string is not split into letters)."""
    if not isinstance(obj[key], list):
        raise ValueError(f"{key} must be a JSON list of labels")
    return tuple(obj[key])


def json_numbers(value, what: str) -> np.ndarray:
    """A JSON number, or nested lists of them, as a float array. Raises
    ValueError naming `what` on any other leaf (null, string, boolean,
    object) and on ragged nesting."""
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ValueError(f"{what} must hold only numbers, found "
                             f"{json.dumps(item)[:40]}")
    try:
        return np.asarray(value, dtype=float)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{what}: {exc}") from None


def distribution_from_json(obj: dict) -> DiscreteDistribution:
    obj = json_object(obj, "distribution")
    return DiscreteDistribution(json_labels(obj, "alphabet"),
                                json_numbers(obj["probs"], "probs"))


def channel_to_json(ch: DiscreteChannel) -> dict:
    return {"inputs": list(ch.input_alphabet),
            "outputs": list(ch.output_alphabet),
            "matrix": [[float(x) for x in row] for row in ch.matrix],
            "cost": [float(c) for c in ch.cost]}


def channel_from_json(obj: dict) -> DiscreteChannel:
    obj = json_object(obj, "channel")
    cost = obj.get("cost")  # absent or null: every input is free
    return DiscreteChannel(
        json_labels(obj, "inputs"), json_labels(obj, "outputs"),
        json_numbers(obj["matrix"], "matrix"),
        None if cost is None else json_numbers(cost, "cost"))


# --------------------------------------------------- information measures

def _plogp(p):
    out = np.zeros_like(p)
    mask = p > 0.0
    out[mask] = p[mask] * np.log2(p[mask])
    return out


def entropy(p: DiscreteDistribution) -> float:
    """Shannon entropy in bits, 0 log 0 = 0."""
    return float(-np.sum(_plogp(p.probs)))


def mutual_information(joint: np.ndarray) -> float:
    """I(A;B) in bits from a joint table over A x B.

    Terms with zero joint mass contribute zero.
    """
    j = np.asarray(joint, dtype=float)
    j = stochastic_array(j, j.shape, "joint table", axis=None)
    pa = j.sum(axis=1)
    pb = j.sum(axis=0)
    mask = j > 0.0
    prod = np.outer(pa, pb)
    return float(np.sum(j[mask] * (np.log2(j[mask]) - np.log2(prod[mask]))))


def total_variation(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    if p.alphabet != q.alphabet:
        raise ValueError("alphabet mismatch")
    return 0.5 * float(np.sum(np.abs(p.probs - q.probs)))


# ---------------------------------------------------------------- capacity

# Blahut-Arimoto's stop: this dual gap within _BA_MAX_ITER steps, which are
# cheap but contract slowly near the optimum
_BA_GAP = 1e-12 + 1e-10
_BA_MAX_ITER = 20000
# the cost multiplier's bracket doubles up to 2^_MAX_DOUBLINGS at most
_MAX_DOUBLINGS = 200


def _tilt(a, cost, s):
    """The input law proportional to 2^(a - s c)."""
    logp = a - s * cost
    logp -= np.max(logp)
    p = np.exp2(logp)
    return p / p.sum()


def _budget_multiplier(a, cost, gamma):
    """The s >= 0 whose tilt _tilt(a, cost, s) spends gamma: 0 when s = 0
    spends at most gamma, else the root of E_s[c] - gamma, of slope -ln 2
    Var_s[c], bracketed by doubling from 1 / max c up to 2^_MAX_DOUBLINGS.
    Newton steps close the bracket to 4 ulps or a spend of exactly gamma; a
    step that leaves it or exceeds half the step before last bisects instead
    (rtsafe's guard). The upper end is returned: no law overspends."""
    def spend(s):
        p = _tilt(a, cost, s)
        mean = float(p @ cost)
        return mean - gamma, math.log(2.0) * float(p @ (cost - mean) ** 2)

    if _tilt(a, cost, 0.0) @ cost <= gamma:
        return 0.0
    lo, hi = 0.0, 1.0 / float(np.max(cost))
    over, slope = spend(hi)
    while over > 0.0:
        if hi >= 2.0 ** _MAX_DOUBLINGS:
            raise MaxIterError("cost multiplier bracket did not close")
        lo, hi = hi, 2.0 * hi
        over, slope = spend(hi)
    s, last, before = hi, math.inf, math.inf
    while over != 0.0 and hi - lo > 4.0 * math.ulp(hi):
        # at least an ulp, so that an iterate on the root closes the far end
        step = max(abs(over / slope), math.ulp(hi)) if slope else math.inf
        t = s + math.copysign(step, over)
        if not lo < t < hi or step > 0.5 * before:
            step = 0.5 * (hi - lo)
            t = lo + step
        s, last, before = t, step, last
        over, slope = spend(s)
        lo, hi = (s, hi) if over > 0.0 else (lo, s)
    return hi


def _ba_inner(W, cost, gamma):
    """Alternating maximization of I(p) over the input laws p with
    E[c] <= gamma (every p when gamma is None).

    Each step tilts p by 2^(D_u - s c_u), D_u = D(W_u || pW), with the
    multiplier s of _budget_multiplier (always 0 without a budget). It stops
    when the dual bound max_u(D_u - s c_u) + s gamma on the capacity is
    within _BA_GAP of I(p) = p.D; the bound certifies p only once p
    meets the budget, which every tilted p does. Returns (p, mi_bits).
    """
    n_in = W.shape[0]
    logW = np.full_like(W, -np.inf)
    np.log2(W, out=logW, where=W > 0.0)
    p = np.full(n_in, 1.0 / n_in)
    feasible = gamma is None or float(p @ cost) <= gamma
    s = 0.0
    for _ in range(_BA_MAX_ITER):
        r = p @ W
        logr = np.full_like(r, -np.inf)
        np.log2(r, out=logr, where=r > 0.0)
        # D_u = sum_v W(v|u) log2(W(v|u)/r(v)); zero-mass v never has W>0
        mask = W > 0.0
        terms = np.zeros_like(W)
        terms[mask] = W[mask] * (logW[mask]
                                 - np.broadcast_to(logr, W.shape)[mask])
        D = terms.sum(axis=1)
        a = np.log2(np.clip(p, 1e-300, None)) + D
        if gamma is not None:
            s = _budget_multiplier(a, cost, gamma)
        bound = float(np.max(D - s * cost)) + (s * gamma if s else 0.0)
        gap = bound - float(p @ D)
        if feasible and gap <= _BA_GAP:
            break
        p = _tilt(a, cost, s)
        feasible = True
    else:
        raise MaxIterError(f"capacity iteration gap {gap:.3e} at exhaustion")
    return p, float(p @ D)


def blahut_arimoto(ch: DiscreteChannel, gamma: Optional[float] = None
                   ) -> Tuple[float, DiscreteDistribution]:
    """Channel capacity max I(U;V) subject to E[c(U)] <= gamma.

    One alternating maximization over the budget set (Blahut 1972): each
    step tilts the input law and, when the plain step would overspend,
    picks the cost multiplier that puts E[c] on gamma, so no outer search
    over the multiplier runs. On two inputs the budget line holds a single
    law, so a binding budget is solved by the first step that reaches it.
    gamma=None drops the cost constraint entirely; a budget at the
    cheapest cost pins the input to the cheapest symbols. Raises
    MaxIterError if the dual gap is above 1e-12 + 1e-10 after 20,000 steps.
    """
    if gamma is not None and not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma!r}")
    W = ch.matrix
    cost = ch.cost
    min_cost = float(np.min(cost))
    if gamma is not None and gamma < min_cost - 1e-12:
        raise InfeasibleCost(
            f"budget {gamma} below cheapest input cost {min_cost}")
    if gamma is not None and gamma <= min_cost + 1e-12:
        # budget pins the input to the cheapest symbols; solve the
        # restricted unconstrained problem on that support
        keep = cost <= min_cost + 1e-12
        psub, cap = _ba_inner(W[keep], cost[keep], None)
        p = np.zeros(len(ch.input_alphabet))
        p[keep] = psub
        return cap, DiscreteDistribution(ch.input_alphabet, p)
    p, mi = _ba_inner(W, cost, gamma)
    return mi, DiscreteDistribution(ch.input_alphabet, p)


# ------------------------------------------------------- optimal transport

_SIZE_LIMIT = 10 ** 6
# largest cost entry the transport solvers and channels take. A simplex
# potential is an alternating sum of at most |A| + |B| <= 1e6 + 1 entries,
# <plan, cost> is at most the largest entry, and rate_limited_ot's reduced
# costs (below 3e6 times the largest entry) over the cost range (at least
# an ulp of it) at lambda >= 1e-10 ranges keep exponents below 1e33, so
# below 1e100 none comes near overflow (1.8e308); a channel's spend E[c]
# stays finite the same way
_MAX_COST = 1e100
# the entropic solve's stop: once both marginals are met to _MARGINAL_ERR, a
# full Newton step that no longer halves the error marks the rounding floor.
# _MAX_STEPS counts Newton steps and safeguard sweeps together, and a line
# search halves a step at most _HALVINGS times
_MARGINAL_ERR = 1e-9
_MAX_STEPS = 500
_HALVINGS = 30
# conjugate gradients stop once the Newton residual has fallen by the
# forcing term min(_CG_FORCING, marginal error), which keeps Newton's
# quadratic convergence (Eisenstat and Walker 1996), or after n + m - 1
# iterations. The Newton system is regularized by _DAMPING * min(marginal
# error, 1) * diag(H) (Levenberg-Marquardt): where the plan nearly splits
# into blocks the plain step is huge and the line search fails, and the term
# vanishes with the error, so the local convergence stays quadratic
_CG_FORCING = 0.1
_DAMPING = 0.01
# smallest positive rate rate_limited_ot resolves: below it the root solve
# works on the rounding noise of I(lam) near the product plan
_MIN_RATE = 1e-12
# rate_limited_ot's Newton solve on log lam keeps lam/(cost range) in
# _LAM_RANGE, which holds every root from _MIN_RATE up
_LAM_RANGE = (1e-10, 1e8)
_RL_MAX_STEPS = 100


def _transport_cost(row: DiscreteDistribution, col: DiscreteDistribution,
                    cost) -> np.ndarray:
    """cost as a float |row| x |col| array; ValueError unless its entries
    are finite, nonnegative and at most _MAX_COST and it has at most
    _SIZE_LIMIT cells."""
    c = nonnegative_array(cost, (len(row), len(col)), "cost matrix")
    if np.any(c > _MAX_COST):
        raise ValueError(f"cost matrix entries must be at most {_MAX_COST:g}")
    if c.size > _SIZE_LIMIT:
        raise ValueError("size limit exceeded: |A|*|B| must be <= 1e6")
    return c


def ot_min_cost(row: DiscreteDistribution, col: DiscreteDistribution,
                cost: np.ndarray) -> Tuple[float, Coupling]:
    """Exact minimum of <plan, cost> over couplings of (row, col).

    Solved by the transportation simplex of cot_lab.transport, imported
    here so that commands without a transport LP do not load it; the
    returned plan is an optimal vertex and d_star is its cost. Plans are
    not unique in general — only d_star is contract-bearing. Working
    memory is a few copies of the cost matrix.
    """
    from .transport import transport_simplex
    c = _transport_cost(row, col, cost)
    plan = Coupling(row, col, transport_simplex(row.probs, col.probs, c)[0], c)
    return plan.expected_cost(), plan


def _logsumexp(a, axis):
    """log(sum(exp(a))) along axis, each slice shifted by its max where that
    is finite and by 0 otherwise; the caller keeps -inf arithmetic quiet."""
    shift = a.max(axis=axis, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    e = a - shift
    return np.log(np.exp(e, out=e).sum(axis=axis)) + shift.squeeze(axis)


def _newton_direction(plan, diag, b, eta, mu):
    """The Newton step (df, dg) of the entropic dual at plan for the
    marginal residual b, by Jacobi-preconditioned conjugate gradients on
    [[diag(rows), plan], [plan^T, diag(cols)]] + mu diag(rows, cols), where
    diag = (rows, cols) holds the plan's sums, with products by plan and
    plan^T only. The last g entry is held at 0, which fixes the gauge
    (f + t, g - t). Stops once the preconditioned residual norm is eta
    times its start, or after n + m - 1 iterations."""
    n = plan.shape[0]
    diag = (1.0 + mu) * diag
    inv = 1.0 / diag
    inv[-1] = 0.0
    x = np.zeros_like(b)
    r = b
    d = inv * r
    rz = float(r @ d)
    stop = eta * eta * rz
    for _ in range(len(b) - 1):
        hd = diag * d + np.concatenate([plan @ d[n:], d[:n] @ plan])
        curv = float(d @ hd)
        if not curv > 0.0:
            break
        x += (rz / curv) * d
        r = r - (rz / curv) * hd
        z = inv * r
        rz, last = float(r @ z), rz
        if rz <= stop:
            break
        d = z + (rz / last) * d
    return x[:n], x[n:]


def entropic_plan(row: DiscreteDistribution, col: DiscreteDistribution,
                  cost: np.ndarray, lam: float):
    """Solution of min <cost, pi> + lam * KL(pi || row x col).

    The plan is pi_ij = p_i q_j exp(f_i + g_j - c_ij / lam) on the rows and
    columns of positive mass, and 0 elsewhere. Newton steps on the dual
    potentials (f, g) (Brauer, Clason, Lorenz and Wirth 2017), solved by
    conjugate gradients (_newton_direction), maximize the dual
    <p, f> + <q, g> - sum(pi). A step is halved until the dual rises
    (Armijo) or the worst marginal error halves; a non-finite trial point
    does neither. The solve starts from f = g = 0 with one Sinkhorn sweep
    (Cuturi 2013) of shifted log-sum-exp half-steps (_logsumexp), and takes
    another in place of a Newton step when no halving is accepted or a row
    or column sum of the plan has underflowed. Converged once both
    marginals are met to within 1e-9 and a full Newton step no longer
    halves the error (the rounding floor); SinkhornDivergence after 500
    Newton steps and sweeps together. Working memory is a few copies of the
    cost matrix. Returns (plan, f, g), with f and g 0 on atoms of zero mass.
    Far below the cost range the solve can run out of steps when the costs
    hold near-ties: on a 3 x 20 problem with costs in [0, 2], lam = 1e-5
    converges and lam = 6e-6 or 1e-6 does not. On the LP's reduced costs,
    which rate_limited_ot passes, the optimal cells cost 0 and the rest at
    least 0, so the exponents stay small far below the cost range.
    ValueError before any solve unless cost is a finite |row| x |col| table
    (negative entries allowed) and lam is positive and finite.
    """
    c = shaped_array(cost, (len(row), len(col)), "cost")
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lam must be positive and finite, got {float(lam)!r}")
    i, j = np.flatnonzero(row.probs > 0.0), np.flatnonzero(col.probs > 0.0)
    p, q = row.probs[i], col.probs[j]
    logp, logq = np.log(p), np.log(q)
    logk = c[i[:, None], j]
    logk /= -lam
    logk += logp[:, None]
    logk += logq[None, :]

    def point(fs, gs):
        """(plan, rows, cols, marginal residual, its worst entry, mass)."""
        plan = np.add.outer(fs, gs)
        plan += logk
        np.exp(plan, out=plan)
        rows, cols = plan.sum(axis=1), plan.sum(axis=0)
        b = np.concatenate([p - rows, q - cols])
        return plan, rows, cols, b, float(np.abs(b).max()), float(rows.sum())

    gs = np.zeros(len(q))
    # the first sweep brings the plan's mass to 1, which Newton steps in the
    # potentials would take many steps to do
    sweep = True
    # a trial step may overflow exp, and a plan sum that underflowed to 0
    # takes 1 / 0 in CG and log 0 in a sweep; no such point is accepted
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(_MAX_STEPS):
            if sweep:
                plan = trial = None
                fs = logp - _logsumexp(logk + gs[None, :], axis=1)
                gs = logq - _logsumexp(logk + fs[:, None], axis=0)
                plan, rows, cols, b, err, mass = point(fs, gs)
            sweep = True
            df, dg = _newton_direction(
                plan, np.concatenate([rows, cols]), b,
                min(_CG_FORCING, err), _DAMPING * min(err, 1.0))
            # CG gives b.x = x.Hx > 0 unless it broke down at once, as it
            # does on a row or column whose plan sum underflowed to 0
            slope = float(b[:len(p)] @ df + b[len(p):] @ dg)
            # the dual's rise along the step is t lin - (change in mass):
            # <p, f> + <q, g> cancels, whose rounding would swamp the rise
            # near the optimum
            lin = float(p @ df + q @ dg)
            trial = point(fs + df, gs + dg) if slope > 0.0 else None
            if err <= _MARGINAL_ERR and not (trial and trial[4] < 0.5 * err):
                trial = None  # freed before the full plan is built
                full = np.zeros_like(c)
                full[i[:, None], j] = plan
                f, g = np.zeros(len(row)), np.zeros(len(col))
                f[i], g[j] = fs, gs
                return full, f, g
            for k in range(_HALVINGS if trial else 0):
                t = 0.5 ** k
                if k:
                    trial = None  # freed before the next plan is built
                    trial = point(fs + t * df, gs + t * dg)
                rise = t * lin - (trial[5] - mass)
                if trial[4] <= 0.5 * err or rise >= 1e-4 * t * slope:
                    fs, gs = fs + t * df, gs + t * dg
                    plan, rows, cols, b, err, mass = trial
                    sweep = False
                    break
    raise SinkhornDivergence(
        f"no convergence at lambda={lam} (marginal error {err:.3e})")


def rate_limited_ot(row: DiscreteDistribution, col: DiscreteDistribution,
                    cost: np.ndarray, rate: float) -> RDPoint:
    """Minimum expected cost over couplings of (row, col) with I(X;Y) <= rate.

    The Lagrangian at multiplier lam is exactly entropic OT against the
    product of the prescribed marginals, so every entropic_plan solve lands
    one point (I, D) on the frontier, and I falls as lam grows. The solves
    start cold on the LP's reduced cost max(c - u - v, 0) over the cost
    range r, (u, v) the simplex's potentials, at lam / r: f and g absorb u
    and v, so the plans are those of c, and D is taken on c. Safeguarded
    Newton steps on log I - log rate over x = log(lam / r) solve I = rate
    from lam = r: each solve also gives dI/dx, and a step that leaves the
    bracket found so far bisects it. They stop at a step or bracket within
    1e-12 + 1e-10 |x|. The distortion is D at the root moved onto the rate
    along the frontier's slope dD/dI = -lam ln 2, clamped at the exact
    optimum d*, and multiplier is lam at the root. When the LP plan meets
    the rate or a solve reaches d*, the answer is d* with multiplier 0. A
    root outside 1e-10 r to 1e8 r, or a failed solve (its lambda in units
    of r), raises SinkhornDivergence; 100 solves without a root raise
    MaxIterError. Rate 0 is answered in closed form; a positive rate below
    1e-12 raises ValueError, since I(lam) there is solved on rounding noise,
    and so does a positive cost range below 1e-300, before the LP runs.
    """
    if not math.isfinite(rate):
        raise ValueError(f"rate must be finite, got {rate!r}")
    if rate < 0.0:
        raise ValueError("rate must be nonnegative")
    if 0.0 < rate < _MIN_RATE:
        raise ValueError(f"rate {rate!r} is below the resolvable floor "
                         f"{_MIN_RATE:g}; use 0 for the independent coupling")
    c = _transport_cost(row, col, cost)
    e_indep = float(row.probs @ c @ col.probs)
    if rate == 0.0:
        return RDPoint(0.0, e_indep, float("inf"))

    scale = float(np.max(c) - np.min(c))
    if 0.0 < scale < 1e-300:
        # the reduced costs over a subnormal range lose their precision: at
        # 5e-324 x Hamming the solve answered D = 0 with multiplier 0
        raise ValueError(f"cost range {scale!r} is below 1e-300; rescale "
                         "the costs")
    from .transport import transport_simplex
    lp, u_lp, v_lp = transport_simplex(row.probs, col.probs, c)
    d_star = float(np.sum(lp * c))
    if scale == 0.0:
        # every coupling costs the constant
        return RDPoint(rate, float(c.flat[0]), 0.0)
    # mutual information never exceeds either marginal entropy, so past that
    # point the constraint is inactive and the plain OT optimum is the
    # answer; so it is whenever the LP plan itself meets the rate
    if rate >= min(entropy(row), entropy(col)) - 1e-12 \
            or mutual_information(lp) <= rate:
        return RDPoint(rate, d_star, 0.0)
    reduced = np.maximum(c - np.add.outer(u_lp, v_lp), 0.0) / scale

    def frontier(x):
        """(I, D, dI/dx) at lam = e^x r: dI/dx = -sum(pi (s - df - dg)^2) /
        (e^2x ln 2) on the reduced cost s, where the Newton system
        H (df, dg) = ((pi s) 1, (pi s)^T 1) gives d(f, g)/d(e^-x) (s is
        centred on its mean, which only moves df by a constant)."""
        lam = math.exp(x)
        plan = entropic_plan(row, col, reduced, lam)[0]
        i, j = np.ix_(plan.sum(axis=1) > 0.0, plan.sum(axis=0) > 0.0)
        sub, dev = plan[i, j], reduced[i, j]
        dev = dev - float(np.sum(sub * dev))
        w = sub * dev
        df, dg = _newton_direction(
            sub, np.concatenate([sub.sum(axis=1), sub.sum(axis=0)]),
            np.concatenate([w.sum(axis=1), w.sum(axis=0)]), 1e-10, 0.0)
        dev -= np.add.outer(df, dg)
        return (mutual_information(plan), float(np.sum(plan * c)),
                -float(np.sum(sub * dev * dev)) / (lam * lam * math.log(2.0)))

    # safeguarded Newton on log I(x) - log rate: lo keeps I > rate, hi keeps
    # I <= rate, a step that leaves them bisects, and their width also stops
    # it, as near _MIN_RATE the rounding noise of I keeps the step from 0
    x_min, x_max = (math.log(t) for t in _LAM_RANGE)
    lo, hi = -math.inf, math.inf
    x = 0.0
    for _ in range(_RL_MAX_STEPS):
        mi, d, slope = frontier(x)
        if mi <= rate and d <= d_star + 1e-10 * scale:
            # a plan at the optimum meets the rate (tied costs whose
            # optimal plans are not the LP vertex)
            return RDPoint(rate, d_star, 0.0)
        lo, hi = (x, hi) if mi > rate else (lo, x)
        step = (-math.log(mi / rate) * mi / slope if mi > 0.0 and slope < 0.0
                else math.inf if mi > rate else -math.inf)
        if min(abs(step), hi - lo) <= 1e-12 + 1e-10 * abs(x):
            break
        t = x + step if lo < x + step < hi else 0.5 * (lo + hi)
        if t > x_max == x or t < x_min == x:
            lam = math.exp(x) * scale
            raise SinkhornDivergence(
                f"rate {rate!r} below I at lambda={lam:.3g}" if mi > rate
                else f"rate {rate!r} not reached by lambda down to {lam:.3g}")
        x = min(max(t, x_min), x_max)
    else:
        raise MaxIterError(f"rate {rate!r} unsolved in {_RL_MAX_STEPS} steps")
    # the step along the frontier from I at x to the rate itself leaves an
    # error second order in the stop
    lam = math.exp(x) * scale
    return RDPoint(rate, max(d + lam * math.log(2) * (mi - rate), d_star), lam)
