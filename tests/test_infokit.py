"""Tests for distributions, information measures, capacity, and transport.

The transport solver is checked against two independent oracles: exhaustive
vertex enumeration of the transport polytope (small instances) and a
complementary-slackness duality certificate built from the returned plan
(larger instances). The cost-constrained capacity solver is checked against
a brute-force grid search over two-symbol input laws.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cot_lab
from cot_lab import MaxIterError, SinkhornDivergence, infokit, transport
from cot_lab.binary_case import d_hat
from cot_lab.infokit import (
    Coupling,
    DiscreteChannel,
    DiscreteDistribution,
    InfeasibleCost,
    RDPoint,
    _logsumexp,
    blahut_arimoto,
    channel_from_json,
    channel_to_json,
    distribution_from_json,
    distribution_to_json,
    entropic_plan,
    entropy,
    mutual_information,
    ot_min_cost,
    rate_limited_ot,
    total_variation,
)
from cot_lab.numkit import bconv, binary_entropy
from coupling_spec import maximal_coupling

# H(0.11) to all printed digits, from a 50-digit decimal evaluation
H_011 = 0.4999159581645280


def bern(p, labels=("0", "1")):
    return DiscreteDistribution(labels, np.array([1.0 - p, p]))


def rand_dist(rng, n, labels=None):
    w = rng.uniform(0.05, 1.0, n)
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    return DiscreteDistribution(labels, w / w.sum())


# ------------------------------------------------------------------ oracles

def transport_vertex_minimum(row, col, cost):
    """Minimum cost over all vertices of the transport polytope.

    A vertex has at most n+m-1 nonzero cells; enumerating every candidate
    basis and solving the marginal equations covers all of them. Exponential,
    so only usable on tiny instances, which is the point: it shares no code
    with the LP route.
    """
    n, m = len(row.probs), len(col.probs)
    b = np.concatenate([row.probs, col.probs])
    c = np.asarray(cost, dtype=float).ravel()
    best = None
    for combo in itertools.combinations(range(n * m), n + m - 1):
        A = np.zeros((n + m, n + m - 1))
        for k, idx in enumerate(combo):
            i, j = divmod(idx, m)
            A[i, k] = 1.0
            A[n + j, k] = 1.0
        x, *_ = np.linalg.lstsq(A, b, rcond=None)
        if np.max(np.abs(A @ x - b)) > 1e-9 or np.min(x) < -1e-10:
            continue
        val = float(c[list(combo)] @ np.clip(x, 0.0, None))
        if best is None or val < best:
            best = val
    assert best is not None
    return best


def check_duality_certificate(plan, row, col, cost, objective):
    """Verify optimality of a transport plan via dual potentials.

    Peels u_i + v_j = c_ij off the support graph, then checks dual
    feasibility everywhere and strong duality against the reported objective.
    Returns False when the support graph is disconnected (degenerate basis),
    in which case the caller should try another instance.
    """
    n, m = plan.shape
    support = plan > 1e-10
    u = np.full(n, np.nan)
    v = np.full(m, np.nan)
    u[0] = 0.0
    for _ in range(n + m):
        for i in range(n):
            for j in range(m):
                if not support[i, j]:
                    continue
                if not np.isnan(u[i]) and np.isnan(v[j]):
                    v[j] = cost[i, j] - u[i]
                elif np.isnan(u[i]) and not np.isnan(v[j]):
                    u[i] = cost[i, j] - v[j]
    if np.any(np.isnan(u)) or np.any(np.isnan(v)):
        return False
    assert np.all(u[:, None] + v[None, :] <= cost + 1e-9)
    assert u @ row.probs + v @ col.probs == pytest.approx(objective, abs=1e-9)
    return True


def highs_min_cost(a, b, cost):
    """Minimum transport cost for row sums a and column sums b by HiGHS
    (scipy, a test dependency) on the sparse transport LP: an LP solver
    that shares no code with the transportation simplex."""
    from scipy import sparse
    from scipy.optimize import linprog
    n, m = cost.shape
    a_eq = sparse.vstack([sparse.kron(sparse.eye(n), np.ones((1, m))),
                          sparse.kron(np.ones((1, n)), sparse.eye(m))])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([a, b]),
                  bounds=(0.0, None), method="highs")
    assert res.success, res.message
    return res.fun


def grid_capacity(W, cost, gamma, points=200001):
    """Best I(U;V) over Bernoulli(p) inputs with (1-p)c0 + p c1 <= gamma.

    Uses I = H(V) - H(V|U) directly, vectorized over the p grid, so it shares
    nothing with the alternating-maximization code path.
    """
    p = np.linspace(0.0, 1.0, points)
    if gamma is not None:
        # the optimum often sits exactly on the budget line, so include it
        if cost[1] != cost[0]:
            p_edge = (gamma - cost[0]) / (cost[1] - cost[0])
            if 0.0 <= p_edge <= 1.0:
                p = np.append(p, p_edge)
        feas = (1.0 - p) * cost[0] + p * cost[1] <= gamma + 1e-12
        p = p[feas]

    def h(rows):
        masked = np.where(rows > 0.0, rows, 1.0)
        return -np.sum(masked * np.log2(masked), axis=-1)

    out = p[:, None] * W[1] + (1.0 - p)[:, None] * W[0]
    mi = h(out) - (1.0 - p) * h(W[0]) - p * h(W[1])
    return float(np.max(mi)) if len(p) else 0.0


# ----------------------------------------------------- distribution objects

def test_distribution_validates_sum():
    with pytest.raises(ValueError):
        DiscreteDistribution(("a", "b"), np.array([0.6, 0.5]))


def test_distribution_rejects_negative():
    with pytest.raises(ValueError):
        DiscreteDistribution(("a", "b"), np.array([1.2, -0.2]))


def test_distribution_length_mismatch():
    with pytest.raises(ValueError):
        DiscreteDistribution(("a", "b", "c"), np.array([0.5, 0.5]))


def test_coupling_marginal_mismatch_raises():
    p = bern(0.3)
    q = bern(0.3)
    # row sums are (0.7, 0.3) but column sums are (0.6, 0.4)
    table = np.array([[0.5, 0.2], [0.1, 0.2]])
    with pytest.raises(ValueError):
        Coupling(p, q, table, np.zeros((2, 2)))


def test_coupling_refuses_shapes_negative_entries_and_row_sums():
    p, q = bern(0.3), bern(0.4)
    table = np.outer(p.probs, q.probs)
    with pytest.raises(ValueError, match="shape mismatch"):
        Coupling(p, q, table, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="shape mismatch"):
        Coupling(p, q, table[:, :1], np.zeros((2, 2)))
    with pytest.raises(ValueError, match="negative entries"):
        Coupling(p, q, np.array([[0.75, -0.05], [-0.15, 0.45]]),
                 np.zeros((2, 2)))
    # column sums match q, row sums (0.6, 0.4) do not match p
    with pytest.raises(ValueError, match="row sums"):
        Coupling(p, q, np.outer(q.probs, q.probs), np.zeros((2, 2)))


def test_channel_rows_must_be_stochastic():
    with pytest.raises(ValueError):
        DiscreteChannel(("0", "1"), ("0", "1"),
                        np.array([[0.9, 0.2], [0.1, 0.9]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_constructors_reject_non_finite_entries(bad):
    p = bern(0.3)
    ok_table = np.array([[0.7, 0.0], [0.0, 0.3]])
    bsc = np.array([[0.9, 0.1], [0.1, 0.9]])
    cases = [
        lambda: DiscreteDistribution(("a", "b"), np.array([bad, 1.0])),
        lambda: Coupling(p, p, np.array([[0.7, bad], [0.0, 0.3]]),
                         np.zeros((2, 2))),
        lambda: Coupling(p, p, ok_table, np.array([[0.0, bad], [1.0, 0.0]])),
        lambda: DiscreteChannel(("0", "1"), ("0", "1"),
                                np.array([[bad, 0.1], [0.1, 0.9]])),
        lambda: DiscreteChannel(("0", "1"), ("0", "1"), bsc,
                                np.array([0.0, bad])),
        lambda: ot_min_cost(p, p, np.array([[0.0, bad], [1.0, 0.0]])),
        lambda: rate_limited_ot(p, p, np.array([[0.0, bad], [1.0, 0.0]]),
                                0.5),
        lambda: mutual_information(np.array([[0.7, bad], [0.0, 0.3]])),
    ]
    for make in cases:
        with pytest.raises(ValueError, match="non-finite"):
            make()


def test_rdpoint_rejects_negative_rate():
    with pytest.raises(ValueError):
        RDPoint(-0.1, 0.5, 1.0)


def test_json_round_trips():
    d = bern(0.25)
    assert distribution_from_json(json.loads(
        json.dumps(distribution_to_json(d)))).probs == pytest.approx(d.probs)
    ch = DiscreteChannel(("0", "1"), ("0", "1", "e"),
                         np.array([[0.7, 0.0, 0.3], [0.0, 0.7, 0.3]]),
                         np.array([0.0, 1.0]))
    back = channel_from_json(json.loads(json.dumps(channel_to_json(ch))))
    np.testing.assert_allclose(back.matrix, ch.matrix)
    np.testing.assert_allclose(back.cost, ch.cost)
    assert back.input_alphabet == ch.input_alphabet


def test_channel_json_without_cost_defaults_to_zero():
    obj = {"inputs": ["0", "1"], "outputs": ["0", "1"],
           "matrix": [[1.0, 0.0], [0.0, 1.0]]}
    assert np.all(channel_from_json(obj).cost == 0.0)


# ------------------------------------------------------ information measures

def test_entropy_hand_values():
    assert entropy(bern(0.5)) == pytest.approx(1.0, abs=1e-15)
    assert entropy(bern(0.11)) == pytest.approx(H_011, abs=1e-12)
    assert entropy(DiscreteDistribution(("a",), np.array([1.0]))) == 0.0
    u4 = DiscreteDistribution(tuple("abcd"), np.full(4, 0.25))
    assert entropy(u4) == pytest.approx(2.0, abs=1e-15)


def test_mutual_information_product_is_zero():
    joint = np.outer([0.3, 0.7], [0.2, 0.5, 0.3])
    assert mutual_information(joint) == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_identity_coupling():
    assert mutual_information(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)


def test_mutual_information_bsc_formula():
    # X ~ B(1/2) through a crossover-0.11 channel: I = 1 - H(0.11)
    rho = 0.11
    joint = 0.5 * np.array([[1 - rho, rho], [rho, 1 - rho]])
    assert mutual_information(joint) == pytest.approx(1.0 - H_011, abs=1e-12)


def test_mutual_information_requires_normalization():
    with pytest.raises(ValueError):
        mutual_information(np.array([[0.5, 0.2], [0.1, 0.1]]))


def test_total_variation_hand_value():
    assert total_variation(bern(0.3), bern(0.55)) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        total_variation(bern(0.3), bern(0.3, labels=("x", "y")))


@given(st.floats(0.01, 0.99), st.floats(0.01, 0.99))
@settings(max_examples=60, deadline=None)
def test_maximal_coupling_mismatch_equals_tv(p1, p2):
    p, q = bern(p1), bern(p2)
    cpl = maximal_coupling(p, q)
    assert cpl.expected_cost() == pytest.approx(total_variation(p, q),
                                                abs=1e-12)


def test_maximal_coupling_diagonal_is_pointwise_min():
    rng = np.random.default_rng(7)
    p = rand_dist(rng, 5)
    q = rand_dist(rng, 5)
    cpl = maximal_coupling(p, q)
    np.testing.assert_allclose(np.diag(cpl.table),
                               np.minimum(p.probs, q.probs), atol=1e-12)
    # identical marginals couple on the diagonal exactly
    same = maximal_coupling(p, p)
    assert same.expected_cost() == pytest.approx(0.0, abs=1e-15)


# -------------------------------------------------------- channel capacity

def test_capacity_bsc_closed_form():
    rho = 0.11
    ch = DiscreteChannel(("0", "1"), ("0", "1"),
                         np.array([[1 - rho, rho], [rho, 1 - rho]]))
    cap, pin = blahut_arimoto(ch)
    assert cap == pytest.approx(1.0 - H_011, abs=1e-9)
    np.testing.assert_allclose(pin.probs, [0.5, 0.5], atol=1e-6)


def test_capacity_bec_closed_form():
    eps = 0.3
    ch = DiscreteChannel(("0", "1"), ("0", "e", "1"),
                         np.array([[1 - eps, eps, 0.0], [0.0, eps, 1 - eps]]))
    cap, _ = blahut_arimoto(ch)
    assert cap == pytest.approx(1.0 - eps, abs=1e-9)


def test_capacity_matches_grid_search_unconstrained():
    rng = np.random.default_rng(11)
    for _ in range(4):
        W = rng.uniform(0.05, 1.0, (2, 3))
        W /= W.sum(axis=1, keepdims=True)
        ch = DiscreteChannel(("0", "1"), ("a", "b", "c"), W)
        cap, _ = blahut_arimoto(ch)
        assert cap == pytest.approx(grid_capacity(W, np.zeros(2), None),
                                    abs=1e-7)


def test_capacity_matches_grid_search_with_cost():
    rng = np.random.default_rng(13)
    for trial in range(4):
        W = rng.uniform(0.05, 1.0, (2, 3))
        W /= W.sum(axis=1, keepdims=True)
        cost = np.sort(rng.uniform(0.0, 1.0, 2))
        gamma = float(rng.uniform(cost[0], cost[1]))
        ch = DiscreteChannel(("0", "1"), ("a", "b", "c"), W, cost)
        cap, pin = blahut_arimoto(ch, gamma)
        assert cap == pytest.approx(grid_capacity(W, cost, gamma), abs=1e-6)
        assert float(pin.probs @ cost) <= gamma + 1e-8


def test_capacity_bsc_with_unit_cost_on_one():
    # cheapest input has cost 0, budget gamma caps P(U=1); for gamma < 1/2
    # the optimum sits on the budget: I = H(gamma conv rho) - H(rho)
    rho, gamma = 0.11, 0.2
    ch = DiscreteChannel(("0", "1"), ("0", "1"),
                         np.array([[1 - rho, rho], [rho, 1 - rho]]),
                         np.array([0.0, 1.0]))
    cap, pin = blahut_arimoto(ch, gamma)
    want = binary_entropy(bconv(gamma, rho)) - binary_entropy(rho)
    assert cap == pytest.approx(want, abs=1e-7)
    assert pin.probs[1] == pytest.approx(gamma, abs=1e-6)


def test_capacity_budget_at_minimum_pins_support():
    rho = 0.11
    ch = DiscreteChannel(("0", "1"), ("0", "1"),
                         np.array([[1 - rho, rho], [rho, 1 - rho]]),
                         np.array([0.0, 1.0]))
    cap, pin = blahut_arimoto(ch, 0.0)
    assert cap == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(pin.probs, [1.0, 0.0], atol=1e-12)


def test_capacity_infeasible_budget_raises():
    ch = DiscreteChannel(("0", "1"), ("0", "1"), np.eye(2),
                         np.array([0.5, 1.0]))
    with pytest.raises(InfeasibleCost):
        blahut_arimoto(ch, 0.3)


def test_capacity_nondecreasing_in_budget():
    rho = 0.2
    ch = DiscreteChannel(("0", "1"), ("0", "1"),
                         np.array([[1 - rho, rho], [rho, 1 - rho]]),
                         np.array([0.0, 1.0]))
    caps = [blahut_arimoto(ch, g)[0] for g in (0.05, 0.15, 0.3, 0.5, 0.8)]
    assert all(b >= a - 1e-9 for a, b in zip(caps, caps[1:]))
    # past gamma = 1/2 the constraint is slack for a symmetric channel
    assert caps[-1] == pytest.approx(1.0 - binary_entropy(rho), abs=1e-9)


@pytest.mark.parametrize("W, cost, gamma", [
    # exhausted the iteration budget of the earlier bisection on the cost
    # multiplier
    ([[0.5727994147154708, 0.26691871059819733, 0.16028187468633184],
      [0.10349898964868395, 0.2965857435704997, 0.5999152667808164]],
     [0.07286336839482861, 1.0048418175437468], 0.3204725160294482),
    # the uniform start spends 100 times the budget, so its dual gap is
    # negative and must not stop the iteration
    ([[0.6, 0.4], [0.99, 0.01]], [0.0, 1.0], 0.005),
])
def test_capacity_binding_budget_on_two_inputs_is_the_budget_point(
        W, cost, gamma):
    # on two inputs a binding budget leaves one feasible law, p1 =
    # (gamma - c0) / (c1 - c0)
    W, cost = np.array(W), np.array(cost)
    outputs = tuple(str(v) for v in range(W.shape[1]))
    cap, pin = blahut_arimoto(DiscreteChannel(("0", "1"), outputs, W, cost),
                              gamma)
    p1 = (gamma - cost[0]) / (cost[1] - cost[0])
    want = mutual_information(np.array([1.0 - p1, p1])[:, None] * W)
    assert abs(cap - want) <= 1e-9
    assert float(cost @ pin.probs) <= gamma


def test_capacity_three_inputs_binding_budget_matches_grid_search():
    W = np.array([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.05, 0.15, 0.8]])
    cost = np.array([0.0, 0.5, 1.0])
    gamma = 0.3
    ch = DiscreteChannel(("0", "1", "2"), ("a", "b", "c"), W, cost)
    cap, pin = blahut_arimoto(ch, gamma)
    assert float(cost @ pin.probs) <= gamma
    # I is concave and the unconstrained optimum overspends, so the optimum
    # lies on the budget plane: scan the segment where it meets the simplex
    p2 = np.linspace(0.0, gamma / cost[2], 400001)
    p1 = (gamma - cost[2] * p2) / cost[1]
    laws = np.stack([1.0 - p1 - p2, p1, p2], axis=1)
    laws = laws[laws[:, 0] >= 0.0]
    out = laws @ W
    h_out = -np.sum(out * np.log2(out), axis=1)
    h_cond = laws @ -np.sum(W * np.log2(W), axis=1)
    best = float(np.max(h_out - h_cond))
    assert cap == pytest.approx(best, abs=1e-9)
    free, pfree = blahut_arimoto(ch)
    assert float(cost @ pfree.probs) > gamma and free > cap


@pytest.mark.parametrize("c", [1.0, 1e50, 1e60, 1e80, 1e100])
def test_capacity_solves_costs_up_to_the_limit(c):
    # the multiplier's root sits near log2(c / gamma) / c, far below a
    # bracket on the unit scale for large c; the law must still spend its
    # budget to within rounding and never over it
    gamma = 0.5
    ch = DiscreteChannel(("0", "1"), ("0", "1"),
                         np.array([[0.9, 0.1], [0.1, 0.9]]),
                         np.array([0.0, c]))
    cap, pin = blahut_arimoto(ch, gamma)
    spent = float(ch.cost @ pin.probs)
    assert gamma * (1.0 - 1e-12) <= spent <= gamma
    # two inputs: the budget point p1 = gamma / c is the answer
    p1 = gamma / c
    want = mutual_information(np.array([1.0 - p1, p1])[:, None] * ch.matrix)
    assert cap == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("c", [1e61, 1e80, 1e100])
def test_capacity_huge_cost_does_not_cap_the_multiplier(c):
    # input 2 drops out at once, and the unit cost gap between inputs 0
    # and 1 binds with a multiplier near 0.92: the bracket starts at 1 / c
    # and must still double up to it
    gamma = 0.5
    W = np.array([[0.5, 0.5], [0.99, 0.01], [0.01, 0.99]])
    ch = DiscreteChannel(("0", "1", "2"), ("0", "1"), W,
                         np.array([0.0, 1.0, c]))
    cap, pin = blahut_arimoto(ch, gamma)
    spent = float(ch.cost @ pin.probs)
    assert gamma * (1.0 - 1e-12) <= spent <= gamma
    want, _ = blahut_arimoto(DiscreteChannel(("0", "1"), ("0", "1"), W[:2],
                                             np.array([0.0, 1.0])), gamma)
    assert cap == pytest.approx(want, rel=1e-9)


def test_capacity_slack_budget_is_the_unconstrained_solve():
    rng = np.random.default_rng(19)
    W = rng.uniform(0.05, 1.0, (3, 4))
    W /= W.sum(axis=1, keepdims=True)
    ch = DiscreteChannel(("0", "1", "2"), tuple("abcd"), W,
                         np.array([0.2, 0.5, 1.0]))
    free, pfree = blahut_arimoto(ch)
    cap, pin = blahut_arimoto(ch, 1.0)
    assert cap == free
    assert np.array_equal(pin.probs, pfree.probs)


# -------------------------------------------------------- optimal transport

def test_ot_binary_hamming_closed_form():
    # two Bernoulli marginals under Hamming cost: d_star = |p1 - p2|
    ham = 1.0 - np.eye(2)
    val, plan = ot_min_cost(bern(0.25), bern(0.5), ham)
    assert val == pytest.approx(0.25, abs=1e-12)
    assert plan.expected_cost() == pytest.approx(val, abs=1e-12)


@given(st.floats(0.02, 0.98), st.floats(0.02, 0.98))
@settings(max_examples=40, deadline=None)
def test_ot_binary_hamming_property(p1, p2):
    val, _ = ot_min_cost(bern(p1), bern(p2), 1.0 - np.eye(2))
    assert val == pytest.approx(abs(p1 - p2), abs=1e-9)


def test_ot_matches_vertex_enumeration_3x3():
    rng = np.random.default_rng(5)
    for _ in range(6):
        row = rand_dist(rng, 3)
        col = rand_dist(rng, 3)
        cost = rng.uniform(0.0, 2.0, (3, 3))
        val, plan = ot_min_cost(row, col, cost)
        assert val == pytest.approx(
            transport_vertex_minimum(row, col, cost), abs=1e-9)
        assert plan.expected_cost() == pytest.approx(val, abs=1e-9)


def test_ot_duality_certificate_5x5():
    rng = np.random.default_rng(17)
    certified = 0
    for _ in range(10):
        row = rand_dist(rng, 5)
        col = rand_dist(rng, 5)
        cost = rng.uniform(0.0, 3.0, (5, 5))
        val, plan = ot_min_cost(row, col, cost)
        if check_duality_certificate(plan.table, row, col, cost, val):
            certified += 1
    # degenerate supports may defeat the peeling; most instances should pass
    assert certified >= 7


def test_ot_rejects_negative_cost():
    with pytest.raises(ValueError):
        ot_min_cost(bern(0.5), bern(0.5), np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_ot_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        ot_min_cost(bern(0.5), bern(0.5), np.zeros((2, 3)))


def test_ot_identical_marginals_zero_cost_on_diagonal():
    rng = np.random.default_rng(23)
    p = rand_dist(rng, 4)
    val, _ = ot_min_cost(p, p, 1.0 - np.eye(4))
    assert val == pytest.approx(0.0, abs=1e-12)


def _oracle_problem(seed, shape, kind):
    """Seeded marginals and cost of one oracle case: random, zero-mass
    atoms, tied integer costs, a constant cost, uniform marginals under
    tied costs (every basis degenerate), or marginals whose sums differ
    by 1.8e-9 (each within the 1e-9 that validation allows)."""
    rng = np.random.default_rng(seed)
    n, m = shape
    p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
    cost = rng.uniform(0.0, 3.0, shape)
    if kind == "zero-mass":
        for w in (p, q):
            w[1:][rng.random(len(w) - 1) < 0.4] = 0.0
            w /= w.sum()
    elif kind == "tied":
        cost = rng.integers(0, 3, shape).astype(float)
    elif kind == "constant":
        cost = np.full(shape, 0.7)
    elif kind == "uniform":
        p, q = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
        cost = rng.integers(0, 3, shape).astype(float)
    elif kind == "imbalanced":
        p *= (1.0 + 9e-10) / p.sum()
        q *= (1.0 - 9e-10) / q.sum()
    return p, q, cost


@pytest.mark.parametrize("kind", ["random", "zero-mass", "tied", "constant",
                                  "uniform", "imbalanced"])
@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (3, 8), (8, 3),
                                   (25, 25), (40, 17), (90, 120)])
def test_ot_matches_highs(shape, kind):
    p, q, cost = _oracle_problem(sum(shape), shape, kind)
    row = DiscreteDistribution(tuple(map(str, range(len(p)))), p)
    col = DiscreteDistribution(tuple(map(str, range(len(q)))), q)
    d_star, plan = ot_min_cost(row, col, cost)
    table = plan.table
    assert np.all(table >= 0.0)
    assert np.max(np.abs(table.sum(axis=1) - p)) <= 1e-9
    assert np.max(np.abs(table.sum(axis=0) - q)) <= 1e-9
    assert d_star == float(np.sum(table * cost))
    # optimal for the marginals it meets, to 1e-12 relative
    exact = highs_min_cost(table.sum(axis=1), table.sum(axis=0), cost)
    assert abs(d_star - exact) <= 1e-12 * exact + 1e-15 * np.max(cost)
    # and for the given ones up to the mass that the two sums disagree by,
    # which the simplex splits between the marginals and HiGHS puts on one
    given = highs_min_cost(p, q, cost)
    assert abs(d_star - given) <= (1e-12 * given + 1e-15 * np.max(cost)
                                   + abs(p.sum() - q.sum()) * np.max(cost))


def test_ot_working_memory_is_a_few_cost_matrices():
    # a dense LP would build an (n + m) x n m constraint matrix, about
    # 430 MB here; the simplex keeps the plan and one reduced-cost table.
    # Points of the line under |x - y| with ten cells halved take some 600
    # pivots
    n = 300
    rng = np.random.default_rng(3)
    x, y = np.sort(rng.uniform(0.0, 1.0, n)), np.sort(rng.uniform(0.0, 1.0, n))
    cost = np.abs(np.subtract.outer(x, y))
    cost.flat[rng.choice(n * n, 10, replace=False)] *= 0.5
    row, col = rand_dist(rng, n), rand_dist(rng, n)
    tracemalloc.start()
    try:
        ot_min_cost(row, col, cost)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * cost.nbytes


def test_ot_pivot_cap_raises_max_iter_error(monkeypatch):
    rng = np.random.default_rng(8)
    row, col = rand_dist(rng, 6), rand_dist(rng, 6)
    cost = rng.uniform(0.0, 1.0, (6, 6))
    monkeypatch.setattr(transport, "_MAX_PIVOTS", 1)
    with pytest.raises(MaxIterError, match="1 pivots"):
        ot_min_cost(row, col, cost)


@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_transport_refuses_costs_above_the_limit(rate):
    huge = np.array([[0.0, 1.1e100], [1.1e100, 0.0]])
    with pytest.raises(ValueError, match="at most 1e\\+100"):
        ot_min_cost(bern(0.25), bern(0.5), huge)
    with pytest.raises(ValueError, match="at most 1e\\+100"):
        rate_limited_ot(bern(0.25), bern(0.5), huge, rate)


def test_transport_refuses_more_than_a_million_cells_before_any_solve(
        monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solver called")

    monkeypatch.setattr(transport, "transport_simplex", no_solve)
    monkeypatch.setattr(infokit, "entropic_plan", no_solve)
    row = DiscreteDistribution(tuple(range(1001)), np.full(1001, 1 / 1001))
    col = DiscreteDistribution(tuple(range(1000)), np.full(1000, 1e-3))
    cost = np.zeros((1001, 1000))
    with pytest.raises(ValueError, match="size limit exceeded"):
        ot_min_cost(row, col, cost)
    for rate in (0.0, 0.5):
        with pytest.raises(ValueError, match="size limit exceeded"):
            rate_limited_ot(row, col, cost, rate)


def test_channel_refuses_negative_costs():
    bsc = np.array([[0.9, 0.1], [0.1, 0.9]])
    with pytest.raises(ValueError, match="channel cost has negative"):
        DiscreteChannel(("0", "1"), ("0", "1"), bsc, np.array([0.0, -1.0]))


def test_channel_refuses_costs_above_the_limit():
    bsc = np.array([[0.9, 0.1], [0.1, 0.9]])
    with pytest.raises(ValueError, match="channel cost .* at most 1e\\+100"):
        DiscreteChannel(("0", "1"), ("0", "1"), bsc, np.array([0.0, 1.1e100]))
    ch = DiscreteChannel(("0", "1"), ("0", "1"), bsc, np.array([0.0, 1e100]))
    assert ch.cost[1] == 1e100


def test_transport_at_the_cost_limit_scales_the_unit_answers():
    ham = 1.0 - np.eye(2)
    d_star, _ = ot_min_cost(bern(0.25), bern(0.5), 1e100 * ham)
    assert d_star == pytest.approx(0.25e100, rel=1e-15)
    pt = rate_limited_ot(bern(0.25), bern(0.25), 1e100 * ham, 0.3)
    unit = rate_limited_ot(bern(0.25), bern(0.25), ham, 0.3)
    assert pt.distortion == pytest.approx(1e100 * unit.distortion, rel=1e-9)


# --------------------------------------------------------- entropic solver

def test_entropic_plan_marginals_within_tolerance():
    rng = np.random.default_rng(29)
    row = rand_dist(rng, 4)
    col = rand_dist(rng, 5)
    cost = rng.uniform(0.0, 2.0, (4, 5))
    for lam in (10.0, 1.0, 0.3, 0.05):
        plan, _, _ = entropic_plan(row, col, cost, lam)
        assert np.max(np.abs(plan.sum(axis=1) - row.probs)) < 1e-8
        assert np.max(np.abs(plan.sum(axis=0) - col.probs)) < 1e-8


def test_entropic_plan_limits():
    """Large lam approaches independence; small lam approaches the OT cost."""
    rng = np.random.default_rng(31)
    row = rand_dist(rng, 3)
    col = rand_dist(rng, 3)
    cost = rng.uniform(0.0, 1.0, (3, 3))
    plan, _, _ = entropic_plan(row, col, cost, 1e5)
    np.testing.assert_allclose(plan, np.outer(row.probs, col.probs),
                               atol=1e-6)
    d_star, _ = ot_min_cost(row, col, cost)
    plan, _, _ = entropic_plan(row, col, cost, 0.02)
    assert float(np.sum(plan * cost)) <= d_star + 0.02


def test_entropic_frontier_is_monotone_in_lam():
    rng = np.random.default_rng(37)
    row = rand_dist(rng, 3)
    col = rand_dist(rng, 4)
    cost = rng.uniform(0.0, 2.0, (3, 4))
    lams = np.logspace(1.5, -1.5, 12)
    mis, costs = [], []
    for lam in lams:
        plan, _, _ = entropic_plan(row, col, cost, lam)
        mis.append(mutual_information(plan))
        costs.append(float(np.sum(plan * cost)))
    # decreasing lam tightens the plan: information rises, cost falls
    assert all(b >= a - 1e-9 for a, b in zip(mis, mis[1:]))
    assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))


def test_entropic_plan_converges_where_sweeps_stall():
    # Sinkhorn sweeps alone stall here at a marginal error of about 1e-9,
    # on the rounding floor of their contraction
    b = bern(0.25)
    plan, _, _ = entropic_plan(b, b, 1.0 - np.eye(2), 0.05)
    assert np.max(np.abs(plan.sum(axis=1) - b.probs)) <= 1e-12
    assert np.max(np.abs(plan.sum(axis=0) - b.probs)) <= 1e-12


@pytest.mark.parametrize("cost, lam, match", [
    (1.0 - np.eye(3), 0.3, r"cost: expected shape \(2, 2\)"),
    ([[0.0, np.nan], [1.0, 0.0]], 0.3, "cost has non-finite entries"),
    ([[0.0, 1.0], [np.inf, 0.0]], 0.3, "cost has non-finite entries"),
    (1.0 - np.eye(2), -1.0, "lam must be positive and finite"),
    (1.0 - np.eye(2), 0.0, "lam must be positive and finite"),
    (1.0 - np.eye(2), np.nan, "lam must be positive and finite"),
    (1.0 - np.eye(2), np.inf, "lam must be positive and finite"),
])
def test_entropic_plan_refuses_bad_arguments_before_any_solve(
        monkeypatch, cost, lam, match):
    # a 3 x 3 cost was once cut to its top-left block, lam = -1 solved the
    # cost-maximizing problem and NaN read as a solver failure
    def no_solve(*args, **kwargs):
        raise AssertionError("the solve started")

    monkeypatch.setattr(infokit, "_logsumexp", no_solve)
    b = bern(0.5)
    with pytest.raises(ValueError, match=match):
        entropic_plan(b, b, cost, lam)


def test_entropic_plan_admits_negative_costs():
    # a shift by a constant leaves the plan as it is
    b = bern(0.25)
    ham = 1.0 - np.eye(2)
    np.testing.assert_allclose(entropic_plan(b, b, ham - 3.0, 0.3)[0],
                               entropic_plan(b, b, ham, 0.3)[0], atol=1e-12)


def test_entropic_working_memory_is_a_few_cost_matrices():
    # a dense Newton system would hold (n + m)^2 cells, four cost matrices
    # here; conjugate gradients need only products with the plan
    n = 300
    rng = np.random.default_rng(3)
    x, y = np.sort(rng.uniform(0.0, 1.0, n)), np.sort(rng.uniform(0.0, 1.0, n))
    cost = np.abs(np.subtract.outer(x, y))
    row, col = rand_dist(rng, n), rand_dist(rng, n)
    tracemalloc.start()
    try:
        plan, _, _ = entropic_plan(row, col, cost, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * cost.nbytes
    assert np.max(np.abs(plan.sum(axis=1) - row.probs)) <= 1e-9
    assert np.max(np.abs(plan.sum(axis=0) - col.probs)) <= 1e-9


def test_entropic_plan_runs_no_dense_linear_algebra(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense linear algebra in the entropic solve")

    for name in ("solve", "lstsq", "cholesky"):
        monkeypatch.setattr(np.linalg, name, refuse)
    rng = np.random.default_rng(47)
    row, col = rand_dist(rng, 64), rand_dist(rng, 64)
    cost = rng.uniform(0.0, 1.0, (64, 64))
    plan, _, _ = entropic_plan(row, col, cost, 0.01)
    assert np.max(np.abs(plan.sum(axis=1) - row.probs)) <= 1e-9
    assert np.max(np.abs(plan.sum(axis=0) - col.probs)) <= 1e-9


def _scipy_logsumexp_cases():
    """Random arrays up to 6x6 with -inf entries, whole -inf rows and
    columns, tied maxima and a few +inf entries."""
    rng = np.random.default_rng(43)
    for _ in range(400):
        shape = tuple(int(k) for k in rng.integers(1, 7, 2))
        a = rng.normal(0.0, float(rng.choice([1e-3, 1.0, 30.0, 800.0])),
                       shape)
        if rng.random() < 0.5:
            a[rng.random(shape) < 0.3] = -np.inf
        if rng.random() < 0.3:
            a[rng.integers(shape[0])] = -np.inf
        if rng.random() < 0.3:
            a[:, rng.integers(shape[1])] = -np.inf
        if rng.random() < 0.3:
            a = np.round(a)
        if rng.random() < 0.1:
            a[rng.random(shape) < 0.2] = np.inf
        yield a


def test_logsumexp_matches_scipy():
    # an accuracy oracle: within 4e-16 relative and absolute, infinite
    # results exactly
    from scipy.special import logsumexp
    for a in _scipy_logsumexp_cases():
        for axis in (0, 1):
            with np.errstate(divide="ignore", invalid="ignore",
                             over="ignore"):
                got = _logsumexp(a, axis=axis)
            want = logsumexp(a, axis=axis)
            assert got.shape == want.shape
            inf = np.isinf(want)
            assert np.array_equal(got[inf], want[inf]), (a, axis)
            np.testing.assert_allclose(got[~inf], want[~inf], rtol=4e-16,
                                       atol=4e-16, err_msg=repr((a, axis)))


def test_entropic_plan_imports_no_scipy_special():
    code = ("import sys, numpy as np\n"
            "from cot_lab.infokit import DiscreteDistribution, entropic_plan\n"
            "p = DiscreteDistribution(('0', '1'), [0.75, 0.25])\n"
            "entropic_plan(p, p, 1.0 - np.eye(2), 0.3)\n"
            "print('scipy.special' in sys.modules)")
    src = os.path.dirname(os.path.dirname(cot_lab.__file__))
    proc = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.strip() == "False"


def test_infokit_runs_with_scipy_hidden():
    # scipy is a test dependency only: the transport LP and the
    # rate-capped solve import none of it
    code = ("import sys\n"
            "class NoScipy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'scipy':\n"
            "            raise ImportError('scipy hidden')\n"
            "sys.meta_path.insert(0, NoScipy())\n"
            "import numpy as np\n"
            "from cot_lab.infokit import (DiscreteDistribution, ot_min_cost,\n"
            "                             rate_limited_ot)\n"
            "p = DiscreteDistribution(('0', '1'), [0.75, 0.25])\n"
            "q = DiscreteDistribution(('0', '1'), [0.5, 0.5])\n"
            "ham = 1.0 - np.eye(2)\n"
            "print(ot_min_cost(p, q, ham)[0],\n"
            "      rate_limited_ot(p, p, ham, 0.3).distortion > 0.0)")
    src = os.path.dirname(os.path.dirname(cot_lab.__file__))
    proc = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.split() == ["0.25", "True"]


# ------------------------------------------------------- rate-limited curve

def binary_rate_of_distortion(rho, d):
    """Implicit rate for equal Bernoulli(rho) marginals under Hamming cost."""
    def plog(x):
        return x * np.log2(x) if x > 0 else 0.0
    h = binary_entropy(rho)
    return (2 * h + plog((2 - 2 * rho - d) / 2) + d * np.log2(d / 2)
            + plog((2 * rho - d) / 2))


def binary_distortion_at_rate(rho, rate):
    from scipy.optimize import brentq
    dmax = 2 * rho * (1 - rho)
    if rate <= 0:
        return dmax
    if rate >= binary_entropy(rho):
        return 0.0
    return brentq(lambda d: binary_rate_of_distortion(rho, d) - rate,
                  1e-14, dmax, xtol=1e-13)


def test_rate_limited_matches_implicit_curve():
    ham = 1.0 - np.eye(2)
    for rho in (0.1, 0.25, 0.45):
        b = bern(rho)
        for rate in (0.05, 0.3, 0.6):
            pt = rate_limited_ot(b, b, ham, rate)
            assert pt.distortion == pytest.approx(
                binary_distortion_at_rate(rho, rate), abs=1e-6)


def decimal_d_hat(rho, rate):
    """The binary Hamming d_hat(rho, rate): 64 bisection steps on the
    implicit rate curve in 40-digit decimal arithmetic, sharing no code
    with the solvers or with binary_case."""
    from decimal import Decimal, localcontext
    with localcontext() as ctx:
        ctx.prec = 40
        ln2 = Decimal(2).ln()

        def plog(x):
            return x * x.ln() / ln2 if x > 0 else Decimal(0)

        r, target = Decimal(rho), Decimal(rate)
        h = -(plog(r) + plog(1 - r))
        if target >= h:
            return 0.0
        lo, hi = Decimal(0), 2 * r * (1 - r)
        for _ in range(64):
            mid = (lo + hi) / 2
            if (2 * h + plog((2 - 2 * r - mid) / 2) + 2 * plog(mid / 2)
                    + plog((2 * r - mid) / 2)) > target:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def test_rate_limited_meets_d_hat_on_criterion_4_pairs():
    # the Newton solves meet the marginals to the rounding floor and the
    # root's D is stepped along the frontier onto the rate, so the error is
    # second order in find_root's stop; a 1e-9 marginal stop alone leaves
    # up to 7.9e-8
    ham = 1.0 - np.eye(2)
    for rho in (0.05, 0.15, 0.25, 0.35, 0.45):
        for rate in (0.05, 0.2, 0.5, 0.8):
            got = rate_limited_ot(bern(rho), bern(rho), ham, rate).distortion
            want = decimal_d_hat(rho, rate)
            assert abs(got - want) <= 1e-13 * want, (rho, rate, got, want)
            want = d_hat(rho, rate)
            assert abs(got - want) <= 1e-9 * want, (rho, rate, got, want)


@pytest.mark.parametrize("rate", [0.05, 0.3, 0.6, 0.79])
def test_rate_limited_ignores_zero_mass_atoms(rate):
    # the entropic solve runs on the atoms of positive mass only, so a
    # padded problem repeats the reduced one's arithmetic
    padded = DiscreteDistribution(("a", "z", "b"), [0.75, 0.0, 0.25])
    cost = np.array([[0.0, 0.5, 1.0], [0.3, 0.0, 0.7], [1.0, 0.2, 0.0]])
    got = rate_limited_ot(padded, padded, cost, rate)
    want = rate_limited_ot(bern(0.25, ("a", "b")), bern(0.25, ("a", "b")),
                           1.0 - np.eye(2), rate)
    assert got.distortion == pytest.approx(want.distortion, rel=1e-14)


def test_rate_limited_zero_rate_is_independent_cost():
    b = bern(0.25)
    pt = rate_limited_ot(b, b, 1.0 - np.eye(2), 0.0)
    assert pt.distortion == pytest.approx(2 * 0.25 * 0.75, abs=1e-12)
    assert pt.multiplier == float("inf")


def test_rate_limited_saturates_at_marginal_entropy():
    b = bern(0.25)
    pt = rate_limited_ot(b, b, 1.0 - np.eye(2), 2.0)
    assert pt.distortion == pytest.approx(0.0, abs=1e-9)


def test_rate_limited_monotone_and_bounded():
    rng = np.random.default_rng(41)
    row = rand_dist(rng, 3)
    col = rand_dist(rng, 3)
    cost = rng.uniform(0.0, 2.0, (3, 3))
    d_star, _ = ot_min_cost(row, col, cost)
    e_indep = float(row.probs @ cost @ col.probs)
    rates = (0.0, 0.1, 0.3, 0.6, 1.0)
    ds = [rate_limited_ot(row, col, cost, r).distortion for r in rates]
    assert all(b <= a + 1e-9 for a, b in zip(ds, ds[1:]))
    assert all(d_star - 1e-9 <= d <= e_indep + 1e-9 for d in ds)


@pytest.mark.parametrize("rate", [1e-12, 1e-9, 1e-6])
def test_rate_limited_small_rates_match_closed_form(rate):
    # rates whose root lam is up to 3e5 times the cost range, where the
    # solve starts; the root is solved on log lam, so the distortion is
    # pinned to 1e-9 even here
    pt = rate_limited_ot(bern(0.25), bern(0.25), 1.0 - np.eye(2), rate)
    assert pt.distortion == pytest.approx(d_hat(0.25, rate), abs=1e-9)


def test_rate_limited_reports_lambda_at_the_root():
    b = bern(0.25)
    pt = rate_limited_ot(b, b, 1.0 - np.eye(2), 0.3)
    plan, _, _ = entropic_plan(b, b, 1.0 - np.eye(2), pt.multiplier)
    assert mutual_information(plan) == pytest.approx(0.3, abs=1e-9)


def test_rate_limited_tied_block_cost_reaches_zero():
    # the LP vertex spends log2(3) bits, but a zero-cost plan that mixes
    # the two tied columns spends less than the rate
    u = DiscreteDistribution(("a", "b", "c"), np.full(3, 1.0 / 3.0))
    cost = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    pt = rate_limited_ot(u, u, cost, 1.2)
    assert pt.distortion == 0.0
    assert pt.multiplier == 0.0


@pytest.mark.parametrize("value", [0.0, 1.0])
def test_rate_limited_constant_cost_is_that_constant(value, monkeypatch):
    def no_sinkhorn(*args, **kwargs):
        raise AssertionError("Sinkhorn ran on a constant cost")

    monkeypatch.setattr(infokit, "entropic_plan", no_sinkhorn)
    u = DiscreteDistribution(("a", "b", "c"), np.full(3, 1.0 / 3.0))
    pt = rate_limited_ot(u, u, np.full((3, 3), value), 0.3)
    assert pt.distortion == value


def test_rate_limited_lp_plan_within_rate_runs_no_sinkhorn(monkeypatch):
    rng = np.random.default_rng(0)
    row, col = rand_dist(rng, 3), rand_dist(rng, 3)
    cost = rng.uniform(0.0, 2.0, (3, 3))
    d_star, plan = ot_min_cost(row, col, cost)
    rate = 0.6
    assert mutual_information(plan.table) <= rate < min(entropy(row),
                                                         entropy(col))

    def no_sinkhorn(*args, **kwargs):
        raise AssertionError("Sinkhorn ran although the LP plan is feasible")

    monkeypatch.setattr(infokit, "entropic_plan", no_sinkhorn)
    assert rate_limited_ot(row, col, cost, rate).distortion == d_star


def test_rate_limited_raises_when_i_never_falls_to_the_rate(monkeypatch):
    # an I that never falls to the rate drives the Newton solve on log
    # lambda to the top of its range, where it raises
    monkeypatch.setattr(infokit, "mutual_information", lambda joint: 1.0)
    with pytest.raises(SinkhornDivergence, match="below I"):
        rate_limited_ot(bern(0.25), bern(0.25), 1.0 - np.eye(2), 0.3)


def near_tie_problems(count):
    """The first `count` problems of a seeded sweep of near-tied transport
    problems, as (row, col, cost, rate): 2-5 atoms a side, Dirichlet(1)
    marginals, integer costs 0-2 plus U(0, eps) with eps cycling through
    1e-9, 1e-6 and 1e-3, and the rate a fraction of I(LP) cycling through
    0.5 to 1 - 1e-11."""
    rng = np.random.default_rng(3)
    for t in range(count):
        n, m = (int(k) for k in rng.integers(2, 6, 2))
        p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
        cost = rng.integers(0, 3, (n, m)) + rng.uniform(
            0.0, (1e-9, 1e-6, 1e-3)[t % 3], (n, m))
        row = DiscreteDistribution([str(i) for i in range(n)], p)
        col = DiscreteDistribution([str(j) for j in range(m)], q)
        frac = (0.5, 0.9, 0.99, 0.999, 1 - 1e-6, 1 - 1e-9, 1 - 1e-11)[t % 7]
        yield row, col, cost, frac * mutual_information(
            ot_min_cost(row, col, cost)[1].table)


def near_tie_problem(trial):
    """Problem `trial` of near_tie_problems."""
    *_, problem = near_tie_problems(trial + 1)
    return problem


def test_rate_limited_solves_every_near_tied_problem_of_the_sweep():
    # the solves run on the LP's reduced costs, whose optimal cells cost 0,
    # so their exponents stay small at roots far below the cost range,
    # where solves on the raw costs stall; 1.8-2.3 s on a 2-core machine
    problems = list(near_tie_problems(300))
    t0 = time.monotonic()
    for row, col, cost, rate in problems:
        pt = rate_limited_ot(row, col, cost, rate)
        d_star = ot_min_cost(row, col, cost)[0]
        assert d_star <= pt.distortion <= float(row.probs @ cost @ col.probs)
    elapsed = time.monotonic() - t0
    assert elapsed < 6.0, f"near-tie sweep took {elapsed:.1f} s"


def test_rate_limited_meets_the_optimum_on_a_tied_problem_at_the_floor():
    # I stays above the rate down to lam = 1e-8 times the cost range; a
    # plan at the optimum meets the rate further down
    row, col, cost, rate = near_tie_problem(4)
    assert (len(row), len(col)) == (3, 2)
    pt = rate_limited_ot(row, col, cost, rate)
    assert pt.distortion == ot_min_cost(row, col, cost)[0]
    assert pt.multiplier == 0.0


def test_rate_limited_solves_a_near_tied_problem_far_below_the_range():
    # a 3 x 3 problem whose root lies at 1.8e-5 times the cost range, where
    # c/lam is about 1e5; on the reduced costs the float plan's exponents
    # stay small, so it meets the 40-digit oracle to rounding
    row, col, cost, rate = near_tie_problem(17)
    assert (len(row), len(col), rate) == (3, 3, 0.7889176111582094)
    pt = rate_limited_ot(row, col, cost, rate)
    assert pt.multiplier == pytest.approx(1.7636526743726225e-05, rel=1e-6)
    want = mp_frontier_value(row, col, cost, pt.multiplier, rate)
    assert abs(pt.distortion - want) <= 1e-12 * want, (pt, want)


@pytest.mark.parametrize("trial", [16, 169, 274])
def test_rate_limited_meets_the_oracle_on_near_tied_problems(trial):
    # trial 16 raised SinkhornDivergence on the raw costs; 169 and 274 sit
    # at 1.6e-7 and 1.8e-7 times the cost range, where the raw-cost solves
    # were 1.3e-10 and 2.7e-10 off
    row, col, cost, rate = near_tie_problem(trial)
    pt = rate_limited_ot(row, col, cost, rate)
    assert pt.multiplier > 0.0
    want = mp_frontier_value(row, col, cost, pt.multiplier, rate)
    assert abs(pt.distortion - want) <= 1e-12 * want, (pt, want)


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e100])
def test_rate_limited_scales_with_the_cost(scale):
    # lam is solved in units of the cost range, so no lam^2 underflows at
    # tiny costs (1e-200 once raised "float division by zero")
    ham = 1.0 - np.eye(2)
    unit = rate_limited_ot(bern(0.25), bern(0.25), ham, 0.3)
    pt = rate_limited_ot(bern(0.25), bern(0.25), scale * ham, 0.3)
    assert pt.distortion / scale == pytest.approx(unit.distortion, rel=1e-14)
    assert pt.multiplier / scale == pytest.approx(unit.multiplier, rel=1e-12)


@pytest.mark.parametrize("scale", [1e-310, 5e-324])
def test_rate_limited_refuses_a_subnormal_cost_range(scale):
    # at 5e-324 the solve once answered D = 0 with multiplier 0, and at
    # 1e-310 it was 1.9e-13 off the unit problem
    with pytest.raises(ValueError, match=f"cost range {scale!r} is below"):
        rate_limited_ot(bern(0.25), bern(0.25), scale * (1.0 - np.eye(2)),
                        0.3)


def test_rate_limited_rejects_negative_rate():
    with pytest.raises(ValueError):
        rate_limited_ot(bern(0.5), bern(0.5), 1.0 - np.eye(2), -0.2)


@pytest.mark.parametrize("rate", [1e-13, 1e-20])
def test_rate_limited_refuses_rates_below_the_floor(rate):
    # below 1e-12 the root solve works on the rounding noise of I(lam): at
    # 1e-16 it returned 2.75e-9 below d_hat with no error
    with pytest.raises(ValueError, match="floor"):
        rate_limited_ot(bern(0.25), bern(0.25), 1.0 - np.eye(2), rate)


def sweep_problem(trial):
    """Problem `trial` of a seeded sweep of random transport problems: sizes
    from {2, 3, 5, 8, 20, 60}, Dirichlet(1) marginals, and a U(0, 2) cost,
    a squared distance between two grids on [0, 1] or integer costs 0-2 by
    trial mod 3."""
    rng = np.random.default_rng(7)
    for t in range(trial + 1):
        n, m = (int(rng.choice([2, 3, 5, 8, 20, 60])) for _ in range(2))
        p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
        if t % 3 == 0:
            cost = rng.uniform(0.0, 2.0, (n, m))
        elif t % 3 == 1:
            cost = np.subtract.outer(np.linspace(0.0, 1.0, n),
                                     np.linspace(0.0, 1.0, m)) ** 2
        else:
            cost = rng.integers(0, 3, (n, m)).astype(float)
    return (DiscreteDistribution([str(i) for i in range(n)], p),
            DiscreteDistribution([str(j) for j in range(m)], q), cost)


def mp_frontier_value(row, col, cost, lam, rate):
    """D + lam ln 2 (I - rate) of the entropic plan at lam, in 40-digit
    arithmetic: Newton steps on the dual potentials from those of a float
    solve on the LP's reduced cost, (c - u - v) / range at lam / range,
    shifted back by (u, v) / lam, with p and q renormalized and the last g
    held at 0. The Newton steps and D are on c itself."""
    import mpmath
    _, u, v = transport.transport_simplex(row.probs, col.probs, cost)
    scale = float(np.max(cost) - np.min(cost))
    reduced = np.maximum(cost - np.add.outer(u, v), 0.0) / scale
    _, f, g = entropic_plan(row, col, reduced, lam / scale)
    with mpmath.workdps(40):
        p = mpmath.matrix(list(row.probs))
        q = mpmath.matrix(list(col.probs))
        p, q = p / sum(p), q / sum(q)
        n, m = len(p), len(q)
        lam = mpmath.mpf(lam)
        f = [mpmath.mpf(x) + mpmath.mpf(y) / lam for x, y in zip(f, u)]
        g = [mpmath.mpf(x) + mpmath.mpf(y) / lam for x, y in zip(g, v)]
        f, g = [x + g[-1] for x in f], [x - g[-1] for x in g]

        def plan():
            return mpmath.matrix([[p[i] * q[j] * mpmath.exp(
                f[i] + g[j] - mpmath.mpf(cost[i, j]) / lam)
                for j in range(m)] for i in range(n)])

        for _ in range(3):
            pi = plan()
            rows = [sum(pi[i, j] for j in range(m)) for i in range(n)]
            cols = [sum(pi[i, j] for i in range(n)) for j in range(m)]
            h = mpmath.zeros(n + m - 1)
            for i in range(n):
                h[i, i] = rows[i]
                for j in range(m - 1):
                    h[i, n + j] = h[n + j, i] = pi[i, j]
            for j in range(m - 1):
                h[n + j, n + j] = cols[j]
            x = mpmath.lu_solve(h, mpmath.matrix(
                [p[i] - rows[i] for i in range(n)]
                + [q[j] - cols[j] for j in range(m - 1)]))
            f = [f[i] + x[i] for i in range(n)]
            g = [g[j] + x[n + j] for j in range(m - 1)] + [g[-1]]
        pi = plan()
        d = sum(pi[i, j] * cost[i, j] for i in range(n) for j in range(m))
        # I in nats is sum pi (f + g - c / lam) once the marginals are met
        nats = sum(pi[i, j] * (f[i] + g[j] - mpmath.mpf(cost[i, j]) / lam)
                   for i in range(n) for j in range(m))
        return float(d + lam * (nats - mpmath.log(2) * mpmath.mpf(rate)))


def test_rate_limited_solves_a_root_below_a_ten_thousandth_of_the_range():
    # the root lam is 7.9e-5 times the cost range: I(LP) is 1.11236 bits
    # and the rate 0.9 H_min = 1.11148 bits
    row, col, cost = sweep_problem(57)
    rate = 0.9 * min(entropy(row), entropy(col))
    assert (len(row), len(col), rate) == (3, 20, 1.1114766080044394)
    pt = rate_limited_ot(row, col, cost, rate)
    want = mp_frontier_value(row, col, cost, pt.multiplier, rate)
    assert abs(pt.distortion - want) <= 1e-12 * want, (pt, want)
