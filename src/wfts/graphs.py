"""The indexed graph of one analysis, and classic graph algorithms on it.

``IndexedModel`` is the only place where a system becomes integer states,
guard bitmasks and adjacency lists; every layer of an analysis and every
cross-check reads the same object.  It also carries the one sign
convention: min mode runs the maximizing algorithms on weights negated
once, here.

``spread`` is the one reachability over product sets: symbolic
reachability and both symbolic component routes run it.  The classic
algorithms (DFS finishing order, Kosaraju's two-pass SCC computation, plain
reachability) are the per-product building blocks.  They double as the
independent reference implementations that the symbolic algorithms are
checked against, so they must follow the same canonical iteration order:
states and out-edges in declaration order.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .model import Wfts


class IndexedModel:
    """A system flattened to integer indices with bit-mask guards.

    ``edges`` holds one ``(u, v, weight, guard mask)`` per transition in
    declaration order; ``out[u]`` and ``pred[v]`` list ``(neighbour, guard
    mask)`` pairs in that order, without the edges no valid product enables.
    Weights are scaled to integers by the least common multiple of the
    denominators, so that the inner loops stay in int arithmetic, and
    multiplied by ``sign`` (1 for max mode, -1 for min mode).  Lengths are
    ignored: the cycle-mean layers need ``expand_lengths`` to have run.
    """

    def __init__(self, w: Wfts, sign: int = 1):
        fm = w.feature_model
        self.wfts = w
        self.feature_model = fm
        self.states = w.states
        self.transitions = w.transitions
        self.sign = sign
        self.n = len(w.states)
        self.index = {s: i for i, s in enumerate(w.states)}
        self.initial = [self.index[s] for s in w.initial]
        self.scale = lcm(1, *(t.weight.denominator for t in w.transitions))
        self.edges: list[tuple[int, int, int, int]] = []
        self.out: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        self.pred: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for t in w.transitions:
            g = fm.mask(t.guard)
            u, v = self.index[t.source], self.index[t.target]
            self.edges.append((u, v, sign * int(t.weight * self.scale), g))
            if g:
                self.out[u].append((v, g))
                self.pred[v].append((u, g))

    def product_adj(self, bit: int) -> list[list[int]]:
        """Forward adjacency for one product (edge order preserved)."""
        return [[v for v, g in edges if g & bit] for edges in self.out]

    def product_radj(self, bit: int) -> list[list[int]]:
        return [[u for u, g in edges if g & bit] for edges in self.pred]

    def product_edges(self, bit: int) -> list[tuple[int, int, int]]:
        return [(u, v, wt) for u, v, wt, g in self.edges if g & bit]


def finish_order(adj: list[list[int]], n: int) -> list[int]:
    """Nodes in increasing DFS finishing time, roots in index order.

    Matches the recursive formulation exactly: out-neighbours are tried in
    adjacency order and a node is emitted once all of them are explored.
    """
    color = [False] * n
    order: list[int] = []
    for root in range(n):
        if color[root]:
            continue
        color[root] = True
        stack: list[list[int]] = [[root, 0]]
        while stack:
            frame = stack[-1]
            u, i = frame
            neighbours = adj[u]
            while i < len(neighbours) and color[neighbours[i]]:
                i += 1
            if i < len(neighbours):
                frame[1] = i + 1
                v = neighbours[i]
                color[v] = True
                stack.append([v, 0])
            else:
                frame[1] = i
                order.append(u)
                stack.pop()
    return order


def kosaraju_components(
    adj: list[list[int]], radj: list[list[int]], n: int
) -> list[list[int]]:
    """SCCs via two DFS passes, in decreasing finishing time of their roots.

    Within each component, nodes appear in the order the transpose search
    assigned them (the root first).
    """
    order = finish_order(adj, n)
    comp = [-1] * n
    components: list[list[int]] = []
    for root in reversed(order):
        if comp[root] != -1:
            continue
        cid = len(components)
        members = [root]
        comp[root] = cid
        stack = [root]
        while stack:
            u = stack.pop()
            for v in radj[u]:
                if comp[v] == -1:
                    comp[v] = cid
                    members.append(v)
                    stack.append(v)
        components.append(members)
    return components


def reachable_from(adj: list[list[int]], sources: list[int], n: int) -> list[bool]:
    seen = [False] * n
    stack = []
    for s in sources:
        if not seen[s]:
            seen[s] = True
            stack.append(s)
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return seen


def spread(
    seeds: list[tuple[int, int]],
    blocked: list[int],
    adj: list[list[tuple[int, int]]],
) -> list[int]:
    """Per state, the products under which it is connected to a seed along
    ``adj`` (``im.out``: reached from it; ``im.pred``: reaching it).  Each
    ``(state, mask)`` seed holds its state under its products, and no state
    is entered under a product in its ``blocked`` mask."""
    r = [0] * len(adj)
    for s, m in seeds:
        r[s] |= m
    stack = list(seeds)
    while stack:
        s, px = stack.pop()
        for sp, guard in adj[s]:
            new = px & guard & ~(r[sp] | blocked[sp])
            if new:
                r[sp] |= new
                stack.append((sp, new))
    return r


def tight_cycle(
    n: int,
    edges: list[tuple[int, int, int]],
    sources: list[int],
    target_mean: Fraction,
) -> list[int] | None:
    """A cycle of mean exactly ``target_mean`` among ``edges``.

    Requires that ``target_mean`` is the maximum cycle mean of the graph and
    that every node lies on a path from ``sources`` (restrict beforehand).
    Shifting weights by the target makes all cycles non-positive; longest
    walk values L then converge, and every optimal cycle lies in the "tight"
    subgraph where L[v] = L[u] + w.  Any cycle found there is optimal; we
    pick one deterministically, preferring small node indices, and rotate it
    to start at its smallest node.
    """
    a, b = target_mean.numerator, target_mean.denominator
    shifted = [(u, v, w * b - a) for u, v, w in edges]
    level: list[int | None] = [None] * n
    for s in sources:
        level[s] = 0
    for _ in range(n):
        changed = False
        for u, v, w in shifted:
            lu = level[u]
            if lu is None:
                continue
            cand = lu + w
            lv = level[v]
            if lv is None or cand > lv:
                level[v] = cand
                changed = True
        if not changed:
            break
    tight: list[list[int]] = [[] for _ in range(n)]
    rtight: list[list[int]] = [[] for _ in range(n)]
    for u, v, w in shifted:
        if level[u] is not None and level[v] == level[u] + w:
            tight[u].append(v)
            rtight[v].append(u)
    for members in kosaraju_components(tight, rtight, n):
        mset = set(members)
        has_edge = any(v in mset for u in members for v in tight[u])
        if not has_edge:
            continue
        start = min(members)
        path = [start]
        seen_at = {start: 0}
        while True:
            u = path[-1]
            nxt = min(v for v in tight[u] if v in mset)
            if nxt in seen_at:
                cycle = path[seen_at[nxt]:]
                pivot = cycle.index(min(cycle))
                return cycle[pivot:] + cycle[:pivot]
            seen_at[nxt] = len(path)
            path.append(nxt)
    return None
