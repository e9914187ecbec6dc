"""Reference values the output checks compare against.

Written from the formulas, independently of the library, so that a defect
in the program cannot confirm itself. Pure Python floats throughout.
"""

import math


def h2(p):
    """Binary entropy in bits."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def bisect(f, lo, hi, iters=200):
    """Root of f on [lo, hi], given a sign change, to full float precision."""
    f_lo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        f_mid = f(mid)
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def h2_inv(h):
    """The p in [0, 1/2] with h2(p) = h."""
    if h <= 0.0:
        return 0.0
    if h >= 1.0:
        return 0.5
    return bisect(lambda p: h2(p) - h, 0.0, 0.5)


def bconv(a, b):
    return a * (1.0 - b) + b * (1.0 - a)


def mutual_information(joint):
    """I(X;Y) in bits of a joint law given as a list of rows."""
    rows = [sum(r) for r in joint]
    cols = [sum(c) for c in zip(*joint)]
    return sum(p * math.log2(p / (rows[i] * cols[j]))
               for i, r in enumerate(joint) for j, p in enumerate(r)
               if p > 0.0)


def d_hat(rho, rate):
    """Least Hamming cost of a coupling of B(rho) with itself whose mutual
    information is at most `rate`. The optimal couplings are symmetric, with
    off-diagonal mass d/2, and I falls as d grows."""
    d_max = 2.0 * rho * (1.0 - rho)
    if rate >= h2(rho):
        return 0.0

    def info(d):
        return mutual_information([[1.0 - rho - d / 2.0, d / 2.0],
                                   [d / 2.0, rho - d / 2.0]]) - rate

    return bisect(info, 1e-15, d_max)


def capacity_2xk(matrix, cost=None, gamma=None):
    """Capacity in bits of a two-input channel under E[cost] <= gamma, and
    the optimal P(U=1).

    I(p) is concave in p = P(U=1), so a dense scan followed by a ternary
    search inside the budget finds the maximum to far below 1e-9.
    """
    def info(p1):
        return mutual_information([[(1.0 - p1) * w for w in matrix[0]],
                                   [p1 * w for w in matrix[1]]])

    hi = 1.0
    if gamma is not None and cost[1] > cost[0]:
        hi = min(1.0, max(0.0, (gamma - cost[0]) / (cost[1] - cost[0])))
    grid = [hi * k / 1000 for k in range(1001)]
    k = max(range(len(grid)), key=lambda i: info(grid[i]))
    lo, up = grid[max(k - 1, 0)], grid[min(k + 1, 1000)]
    for _ in range(200):
        a, b = lo + (up - lo) / 3.0, up - (up - lo) / 3.0
        if info(a) < info(b):
            lo = a
        else:
            up = b
    return info(0.5 * (lo + up)), 0.5 * (lo + up)


def w1_on_line(xs, p, ys, q):
    """Exact transport cost between two laws on the real line under
    |x - y|: the integral of |F - G| between the sorted support points."""
    events = sorted([(x, w, 0.0) for x, w in zip(xs, p)]
                    + [(y, 0.0, w) for y, w in zip(ys, q)])
    total, f, g = 0.0, 0.0, 0.0
    for (x, dp, dq), (nxt, _, _) in zip(events, events[1:]):
        f += dp
        g += dq
        total += abs(f - g) * (nxt - x)
    return total


def uncoded_binary(rho, theta, a, b):
    """Hamming distortion of B(rho) sent uncoded over BSC(theta) and mapped
    with P(Y=1|V=0) = a, P(Y=0|V=1) = b."""
    to_one = (1.0 - theta) * a + theta * (1.0 - b)
    to_zero = (1.0 - theta) * b + theta * (1.0 - a)
    return (1.0 - rho) * to_one + rho * to_zero


def uncoded_gaussian(lambdas, gamma):
    """Squared distortion of the largest component sent uncoded over the
    unit-noise channel at power gamma, the rest regenerated at the decoder."""
    return (2.0 * math.fsum(lambdas)
            - 2.0 * lambdas[0] * math.sqrt(gamma / (gamma + 1.0)))


def hybrid_binary(rho, theta, delta1):
    """Distortion of the single-letter hybrid scheme at split delta1."""
    mix = bconv(delta1, theta)
    avail = 1.0 - h2(mix)
    if h2(rho) - h2(delta1) > avail:
        m = h2_inv(min(max(h2(rho) - avail, 0.0), 1.0))
    else:
        m = delta1
    d2 = (m - delta1) / (1.0 - 2.0 * delta1)
    return 2.0 * m * ((1.0 - delta1 - d2) * theta + delta1 * d2) / mix


def uncoded_binary_best(rho, theta):
    """Best uncoded distortion and its decoder (a, b) = (0, b)."""
    mix = bconv(rho, theta)
    return (2.0 * (1.0 - rho) * rho * theta / mix,
            (0.0, (1.0 - 2.0 * rho) * theta / mix))


def separation_binary(rho, theta):
    """Quantize at capacity, send error-free, redither: 2(1-d)d."""
    delta = h2_inv(max(h2(rho) - (1.0 - h2(theta)), 0.0))
    return 2.0 * (1.0 - delta) * delta, delta
