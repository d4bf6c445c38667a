"""The indexed graph of one analysis, and classic graph algorithms on it.

``IndexedModel`` is the only place where a system becomes unit steps,
integer states, guard bitmasks and adjacency lists; every layer of an
analysis and every cross-check reads the same object, so each takes a
system as written.  It also carries the one sign convention: min mode runs
the maximizing algorithms on weights negated once, here.  Its ``series``
view folds every chain of pass-through states back into one arc with a
weight and a length; the two value routes read that view, and the
witnesses, the checks and the oracle read the unit steps.  The series view
is contracted from the unit steps, not read off the declared transitions,
so a system that is already expanded gets the same view.

``spread`` is the one reachability over product sets: symbolic
reachability, both symbolic component routes and the witness stage's
components run it.  The classic algorithms (DFS finishing order,
Kosaraju's second pass over that order, plain reachability) are the
per-product references of the checks and of the witness rule's tests (a
witness lies in the tight component of the critical state that finishes
last in the classic DFS), so they must follow the same canonical
iteration order as the symbolic algorithms: states and out-edges in
declaration order.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm
from typing import NamedTuple

from .model import Wfts, expand_lengths


class Series(NamedTuple):
    """An index with every pass-through state folded into the arc that
    crosses it (``IndexedModel.series``).

    ``kept[i]`` is the index of state i; ``initial`` lists the initial
    states.  ``arcs`` holds one ``(u, v, weight, length, guard mask,
    first-hop weight)`` per chain of edges from a kept state through
    pass-through states to the next kept state, in the declaration order
    of its first hop: the chain's total weight, its number of unit steps,
    the AND of its guards (never 0) and the weight of its first edge.
    ``out`` and ``pred`` list ``(neighbour, guard mask)`` pairs in that
    order, as ``IndexedModel.out`` and ``pred`` do.
    """

    kept: tuple[int, ...]
    initial: list[int]
    arcs: list[tuple[int, int, int, int, int, int]]
    out: list[list[tuple[int, int]]]
    pred: list[list[tuple[int, int]]]


class IndexedModel:
    """A system's length expansion flattened to integer indices with
    bit-mask guards.

    ``wfts``, ``states`` and ``transitions`` are ``expand_lengths(w)``'s,
    so cycle means are taken per unit step.  ``edges`` holds one ``(u, v,
    weight, guard mask)`` per unit transition in declaration order;
    ``out[u]`` and ``pred[v]`` list ``(neighbour, guard mask)`` pairs in
    that order, without the edges no valid product enables.  Weights are
    scaled to integers by the least common multiple of the denominators, so
    that the inner loops stay in int arithmetic, and multiplied by ``sign``
    (1 for max mode, -1 for min mode).  A simple cycle has at most ``n``
    steps, so every cycle mean is an int over ``denominator``, ``scale``
    times ``period`` = lcm(1..n): total t over k steps is t·(period // k).
    """

    def __init__(self, w: Wfts, sign: int = 1):
        w = expand_lengths(w)
        fm = w.feature_model
        self.wfts = w
        self.feature_model = fm
        self.states = w.states
        self.transitions = w.transitions
        self.sign = sign
        self.n = len(w.states)
        self.index = {s: i for i, s in enumerate(w.states)}
        self.initial = [self.index[s] for s in w.initial]
        self.scale = scale = lcm(1, *(t.weight.denominator for t in w.transitions))
        self.period = lcm(1, *range(2, self.n + 1))
        self.denominator = self.period * scale
        self.edges: list[tuple[int, int, int, int]] = []
        self.out: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        self.pred: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for t in w.transitions:
            g = fm.mask(t.guard)
            u, v = self.index[t.source], self.index[t.target]
            weight = t.weight.numerator * (scale // t.weight.denominator)
            self.edges.append((u, v, sign * weight, g))
            if g:
                self.out[u].append((v, g))
                self.pred[v].append((u, g))

    @cached_property
    def series(self) -> Series:
        """This graph with every pass-through state folded into one arc.

        A state is pass-through when it is not initial and has exactly one
        in-edge and one out-edge that some valid product enables; a length
        expansion's ``#`` states are, and so may be declared states.  A
        chain of them between two kept states becomes one arc, whose means
        are cost-to-time ratios: a cycle of arcs has mean Σweight / Σlength,
        its mean over the unit steps.  Arcs whose guards no product meets
        at once are dropped, and so are cycles of pass-through states alone,
        which no kept state enters.  Kept states keep their index order, so
        a cycle's smallest kept state is the same in both views.
        """
        out, pred = self.out, self.pred
        through = [len(o) == 1 and len(p) == 1 for o, p in zip(out, pred)]
        for s in self.initial:
            through[s] = False
        if not any(through):
            arcs = [(u, v, wt, 1, g, wt) for u, v, wt, g in self.edges if g]
            return Series(tuple(range(self.n)), self.initial, arcs, out, pred)
        kept = tuple(u for u in range(self.n) if not through[u])
        number = [-1] * self.n
        for i, u in enumerate(kept):
            number[u] = i
        onward = {}  # pass-through state -> its one edge (target, weight, guard)
        for u, v, wt, g in self.edges:
            if g and through[u]:
                onward[u] = (v, wt, g)
        arcs = []
        s_out: list[list[tuple[int, int]]] = [[] for _ in kept]
        s_pred: list[list[tuple[int, int]]] = [[] for _ in kept]
        for u, v, first, g in self.edges:
            if not g or through[u]:
                continue
            total, length = first, 1
            while g and through[v]:
                v, wt, guard = onward[v]
                total += wt
                length += 1
                g &= guard
            if g:
                a, b = number[u], number[v]
                arcs.append((a, b, total, length, g, first))
                s_out[a].append((b, g))
                s_pred[b].append((a, g))
        return Series(kept, [number[s] for s in self.initial], arcs, s_out, s_pred)

    def product_adj(self, bit: int) -> list[list[int]]:
        """Forward adjacency for one product (edge order preserved)."""
        return [[v for v, g in edges if g & bit] for edges in self.out]

    def product_radj(self, bit: int) -> list[list[int]]:
        return [[u for u, g in edges if g & bit] for edges in self.pred]


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


def kosaraju_components(order: list[int], radj: list[list[int]]) -> list[list[int]]:
    """SCCs by Kosaraju's second pass: ``order`` is the first pass's
    ``finish_order`` of the graph whose transpose is ``radj``.  Components
    come in decreasing finishing time of their roots; within each, nodes
    appear in the order the transpose search assigned them (the root first).
    """
    comp = [-1] * len(radj)
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
