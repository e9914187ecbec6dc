"""Exact optimal transport between two discrete laws as a numpy
transportation simplex.

transport_simplex(a, b, c) returns an optimal vertex of min <plan, c> over
the plans with row sums a and column sums b. The basis is a spanning tree
over rows and columns (_BasisTree), started at the north-west corner
(_northwest_corner) and priced by MODI potentials. Working memory is a few
copies of the cost matrix; validation of the inputs is the caller's
(infokit.ot_min_cost).
"""

import numpy as np

from . import MaxIterError

# most pivots of the transportation simplex; a random 1000 x 1000 problem,
# the size limit, takes about 45,000
_MAX_PIVOTS = 10 ** 6
# cells priced per block of the simplex's entering-cell search
_PRICE_BLOCK = 4096


class _BasisTree:
    """A basis of the n x m transport problem as a spanning tree over the
    row nodes 0..n-1 and the column nodes n..n+m-1, rooted at row 0. Node
    x hangs from parent[x] by the basic cell pred[x] (flat index i*m + j).
    The nodes are kept in preorder (order, and pos its inverse) with
    size[x] the size of x's subtree, so a subtree is a slice of order and
    a root path is a mask over it."""

    def __init__(self, parent, pred, order):
        self.parent, self.pred, self.order = parent, pred, order
        self.size = np.ones(len(order), dtype=np.intp)
        for x in order[:0:-1]:
            self.size[parent[x]] += self.size[x]
        self.index = np.arange(len(order))
        self.pos = np.empty_like(order)
        self.pos[order] = self.index

    def potentials(self, cost):
        """MODI potentials u (rows) then v (columns), root 0, solving
        u_i + v_j = c_ij on every basic cell, in preorder."""
        c, parent = cost.ravel()[self.pred].tolist(), self.parent.tolist()
        pi = [0.0] * len(parent)
        for x in self.order[1:].tolist():
            pi[x] = c[x] - pi[parent[x]]
        return np.array(pi)

    def root_path(self, x):
        """Mask over preorder positions of x and its ancestors."""
        t = self.index
        return (t <= self.pos[x]) & (self.pos[x] < t + self.size[self.order])

    def rehang(self, path, to_path, p, to_p, cell):
        """Cut the subtree of q = order[path[0]] and hang it from p by
        cell, re-rooted at order[path[-1]]: path holds the preorder
        positions from q down to the node of cell in that subtree, and
        to_path and to_p are the root_path masks of that node and p."""
        order, pos, size = self.order, self.pos, self.size
        lo = path[0]
        sq = size[order[lo]]
        # ancestors lose the subtree, those of p gain it
        size[order[to_path[:lo].nonzero()[0]]] -= sq
        size[order[to_p.nonzero()[0]]] += sq
        # new preorder of the subtree: along the path from its new root,
        # each node with the part of its old subtree not yet listed; a
        # position's depth key is how many path nodes' subtrees hold it
        t = np.arange(lo, lo + sq)
        ends = np.sort(path + size[order[path]])
        key = np.minimum(np.searchsorted(path, t, "right"),
                         len(path) - np.searchsorted(ends, t, "right"))
        moved = order[t[np.argsort(-key, kind="stable")]]
        # reverse the path's parent links
        nodes = order[path]
        old = size[nodes]
        size[nodes[:-1]] = sq - old[1:]
        size[nodes[-1]] = sq
        self.pred[nodes[:-1]] = self.pred[nodes[1:]]
        self.parent[nodes[:-1]] = nodes[1:]
        self.parent[nodes[-1]], self.pred[nodes[-1]] = p, cell
        rest = np.concatenate((order[:lo], order[lo + sq:]))
        at = pos[p] + 1 - (sq if pos[p] > lo else 0)
        self.order = np.concatenate((rest[:at], moved, rest[at:]))
        pos[self.order] = self.index


def _northwest_corner(a, b):
    """The north-west-corner basis for row masses a and column masses b:
    n + m - 1 basic cells, zero flows included, as (flat plan, tree). The
    last cell takes the mean of the row and column mass left, so an
    imbalance of the two sums (at most 2e-9 for validated laws) is split
    between the two marginals and no flow goes negative."""
    n, m = len(a), len(b)
    left_a, left_b = a.tolist(), b.tolist()
    plan = np.zeros(n * m)
    parent = np.full(n + m, -1, dtype=np.intp)
    pred = np.full(n + m, -1, dtype=np.intp)
    order = [0, n]
    parent[n], pred[n] = 0, 0
    i = j = 0
    while i < n - 1 or j < m - 1:
        flow = min(left_a[i], left_b[j])
        plan[i * m + j] = flow
        left_a[i] -= flow
        left_b[j] -= flow
        if j == m - 1 or (i < n - 1 and left_a[i] <= left_b[j]):
            i += 1
            parent[i], pred[i] = n + j, i * m + j
            order.append(i)
        else:
            j += 1
            parent[n + j], pred[n + j] = i, i * m + j
            order.append(n + j)
    plan[i * m + j] = 0.5 * (left_a[i] + left_b[j])
    return plan, _BasisTree(parent, pred, np.array(order, dtype=np.intp))


def transport_simplex(a, b, c):
    """An optimal vertex of min <plan, c> over plans with row sums a and
    column sums b: Dantzig's transportation method from the north-west
    corner, priced by MODI potentials (the network simplex of Bonneel et
    al. 2011). The entering cell is the most negative reduced cost
    c_ij - u_i - v_j in the next block of rows that holds one, a block
    being every blocks-th row; each pivot shifts the potentials of the
    subtree it moves. The leaving cell is the last blocking cell met going
    round the cycle from its apex in the entering cell's direction, which
    keeps the tree strongly feasible and so rules out cycling (Cunningham
    1976). Optimal when no cell prices below -(n + m) eps max(c) against
    potentials recomputed from the tree; MaxIterError after _MAX_PIVOTS
    pivots."""
    rows, cols = a > 0.0, b > 0.0
    if not (rows.all() and cols.all()):
        # zero-mass atoms carry no flow; without them every cell by which
        # the north-west corner reaches a column carries flow, which makes
        # its tree strongly feasible
        plan = np.zeros(c.shape)
        plan[np.ix_(rows, cols)] = transport_simplex(
            a[rows], b[cols], c[np.ix_(rows, cols)])
        return plan
    n, m = c.shape
    plan, tree = _northwest_corner(a, b)
    pi = tree.potentials(c)
    tol = (n + m) * np.finfo(float).eps * float(np.max(c))
    # block b prices rows b, b + blocks, b + 2 blocks, ..., so that every
    # block samples the whole cost matrix
    blocks = max(1, min(n, n * m // _PRICE_BLOCK))
    block = pivots = 0
    while True:
        for _ in range(blocks):
            reduced = (c[block::blocks] - pi[block:n:blocks, None]
                       - pi[None, n:])
            t = int(reduced.argmin())
            if reduced.flat[t] < -tol:
                i, j = divmod(t, m)
                rc, cell = float(reduced.flat[t]), (block + i * blocks) * m + j
                break
            block = (block + 1) % blocks
        else:
            # no block prices below -tol: check every cell against
            # potentials recomputed from the tree, without the drift of
            # the pivots' shifts
            pi = tree.potentials(c)
            reduced = c - pi[:n, None]
            reduced -= pi[n:]
            cell = int(reduced.argmin())
            if reduced.flat[cell] >= -tol:
                return plan.reshape(n, m)
            rc = float(reduced.flat[cell])
        if pivots == _MAX_PIVOTS:
            raise MaxIterError(f"transport simplex not optimal after "
                               f"{_MAX_PIVOTS} pivots")
        pivots += 1
        # the cycle: from the apex (where the root paths of the entering
        # cell's row k and column l meet) down to k, across the entering
        # cell, and up from l; a tree cell loses flow where its lower
        # node is of the type of the end it lies towards
        k, l = divmod(cell, m)
        to_k, to_l = tree.root_path(k), tree.root_path(n + l)
        side_k = (to_k & ~to_l).nonzero()[0]
        side_l = (to_l & ~to_k).nonzero()[0][::-1]
        nodes = tree.order[np.concatenate((side_k, side_l))]
        loses = np.concatenate((nodes[:len(side_k)] < n,
                                nodes[len(side_k):] >= n)).nonzero()[0]
        cells = tree.pred[nodes]
        flows = plan[cells[loses]]
        theta = float(flows.min())
        last = loses[(flows == theta).nonzero()[0][-1]]
        if theta > 0.0:
            plan[cells[loses]] -= theta
            plan[np.delete(cells, loses)] += theta
        plan[cells[last]], plan[cell] = 0.0, theta
        # the leaving cell hangs node q; its subtree moves to the other
        # end of the entering cell, re-rooted at the end it holds, and its
        # potentials shift so that the entering cell prices at zero
        if last < len(side_k):
            end, path, to_end, other, to_other = k, side_k[last:], to_k, \
                n + l, to_l
        else:
            end, path, to_end, other, to_other = n + l, \
                side_l[last - len(side_k)::-1], to_l, k, to_k
        moved = tree.order[path[0]:path[0] + tree.size[nodes[last]]]
        pi[moved] += np.where((moved < n) == (end < n), rc, -rc)
        tree.rehang(path, to_end, other, to_other, cell)
