"""The indexed graph of one analysis, and the reachability over it.

``IndexedModel`` is the only place where a system becomes integer states,
guard bitmasks and arcs; every layer of an analysis and every
cross-check reads the same object, so each takes a system as written.  It
also carries the one sign convention: min mode runs the maximizing
algorithms on weights negated once, here.  It holds one arc per declared
transition, with its weight and length, and builds its views of those
arcs on first read.  The ``series`` view folds every chain of pass-through
states into one arc with a weight and a length; the two value routes read
it.  ``live`` is that view's live part, computed once per index: per
state, the products that reach it and have an infinite run from it, and
its arcs under the products that keep both ends.  The family route runs
on it whole, and the product route reads one live graph off it per
distinct set of kept arcs.  The witness stage reads the declared arcs, so
that a witness names the declared states a run visits, and so do the
checks' per-product projections.  The unit steps, in which a transition
of length k is a chain of k unit transitions, are the arcs of another
index, that of the length expansion,
``IndexedModel(expand_lengths(w), sign)``, which only the tests'
references build.  An expanded system gets the same series view, since
its ``#`` states are pass-through.

``refine`` splits the products into the checks' and the product route's
blocks.  ``spread`` is the one reachability in ``src/``, over product
sets: the live view, the witness stage's components and the checks'
per-block reach all run it.  It follows the canonical iteration order:
states and out-edges in declaration order.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm
from typing import NamedTuple

from .model import Wfts


class Series(NamedTuple):
    """An index with every pass-through state folded into the arc that
    crosses it (``IndexedModel.series``).

    ``kept[i]`` is the index of state i; ``initial`` lists the initial
    states.  ``arcs`` holds one ``(u, v, weight, length, guard mask,
    first-hop weight)`` per chain of arcs from a kept state through
    pass-through states to the next kept state, in the declaration order
    of its first arc: the chain's total weight, its number of unit steps,
    the AND of its guards (never 0) and the weight of its first unit step.
    ``out`` and ``pred`` list ``(neighbour, guard mask)`` pairs in that
    order.
    """

    kept: tuple[int, ...]
    initial: list[int]
    arcs: list[tuple[int, int, int, int, int, int]]
    out: list[list[tuple[int, int]]]
    pred: list[list[tuple[int, int]]]


# (products, target, weight, length, first-hop weight, position in series.arcs)
Arc = tuple[int, int, int, int, int, int]


class Live(NamedTuple):
    """The live part of a series view (``IndexedModel.live``).

    ``masks[u]`` holds the products under which state u is reached from an
    initial state and has an infinite run.  ``arcs[u]`` lists u's out-arcs
    in declaration order as ``(products, target, weight, length, first-hop
    weight, position in series.arcs)``, the products being the arc's guard
    AND both ends' masks; an arc no product keeps is dropped.  A product's
    live states are then the sources of the arcs it keeps, so the products
    that keep the same arcs share one live graph.
    """

    masks: list[int]
    arcs: list[list[Arc]]

    def out(self, mask: int) -> list[list[Arc] | None]:
        """Per state, the arcs that the products of ``mask`` keep, for the
        states live under them, else None.  ``mask`` is one product, or
        products that agree on every arc's products."""
        return [[arc for arc in arcs if arc[0] & mask] if live & mask else None
                for live, arcs in zip(self.masks, self.arcs)]


class IndexedModel:
    """A system as written, flattened to integer indices with bit-mask
    guards.

    ``system`` is the system itself.  ``arcs`` holds one ``(u, v, weight,
    length, guard mask, first hop)`` per declared transition in
    declaration order, over the declared states in declaration order.
    Weights are scaled to integers by the least common multiple of the
    denominators, so that the inner loops stay in int arithmetic, and
    multiplied by ``sign`` (1 for max mode, -1 for min mode).  The first
    hop is the unit index of the transition's first unit step's target:
    the target itself for length 1, else the first ``#`` state of its
    chain.

    ``n`` counts the unit states, the declared ones and one per further
    step of each chain: no simple cycle of the unit steps is longer.
    """

    def __init__(self, w: Wfts, sign: int = 1):
        fm = w.feature_model
        self.system = w
        self.feature_model = fm
        self.sign = sign
        index = {s: i for i, s in enumerate(w.states)}
        self.initial = [index[s] for s in w.initial]
        self.scale = scale = lcm(1, *(t.weight.denominator for t in w.transitions))
        self.arcs: list[tuple[int, int, int, int, int, int]] = []
        hop = len(w.states)  # the index of the next chain's first # state
        for t in w.transitions:
            v = index[t.target]
            weight = sign * t.weight.numerator * (scale // t.weight.denominator)
            self.arcs.append((index[t.source], v, weight, t.length, fm.mask(t.guard),
                              v if t.length == 1 else hop))
            hop += t.length - 1
        self.n = hop

    @cached_property
    def series(self) -> Series:
        """The declared arcs with every pass-through state folded into one
        arc.

        A state is pass-through when it is not initial and has exactly one
        in-arc and one out-arc that some valid product enables; an
        expanded system's ``#`` states are, and so may be declared states.
        A chain of them between two kept states becomes one arc, whose
        means are cost-to-time ratios: a cycle of arcs has mean Σweight /
        Σlength, its mean over the unit steps.  Arcs whose guards no
        product meets at once are dropped, and so are cycles of
        pass-through states alone, which no kept state enters.  Kept
        states keep their index order, so a cycle's smallest kept state is
        the same in every view.
        """
        n = len(self.system.states)
        ins, outs = [0] * n, [0] * n
        onward = {}  # per state, its last enabled arc (target, weight, length, guard)
        for u, v, wt, length, g, _ in self.arcs:
            if g:
                outs[u] += 1
                ins[v] += 1
                onward[u] = (v, wt, length, g)
        through = [o == 1 == i for o, i in zip(outs, ins)]
        for s in self.initial:
            through[s] = False
        kept = tuple(u for u in range(n) if not through[u])
        number = [-1] * n
        for i, u in enumerate(kept):
            number[u] = i
        arcs = []
        s_out: list[list[tuple[int, int]]] = [[] for _ in kept]
        s_pred: list[list[tuple[int, int]]] = [[] for _ in kept]
        for u, v, first, length, g, _ in self.arcs:
            if not g or through[u]:
                continue
            total = first
            while g and through[v]:
                v, wt, ln, guard = onward[v]
                total += wt
                length += ln
                g &= guard
            if g:
                a, b = number[u], number[v]
                arcs.append((a, b, total, length, g, first))
                s_out[a].append((b, g))
                s_pred[b].append((a, g))
        return Series(kept, [number[s] for s in self.initial], arcs, s_out, s_pred)

    @cached_property
    def live(self) -> Live:
        """The live part of ``series``, computed once per index: symbolic
        reachability from the initial states, with the states that have no
        way out peeled per product, then each state's out-arcs under the
        products that keep both ends.

        The peel is a worklist to the greatest fixpoint: a state keeps the
        reached products that enable an arc to a state that keeps them, and
        a state that loses products puts back the predecessors that led to
        it under them.
        """
        g = self.series
        out, pred = g.out, g.pred
        full = self.feature_model.full_mask
        masks = spread([(s, full) for s in g.initial], [0] * len(g.kept), out)
        stack = [u for u, m in enumerate(masks) if m]
        while stack:
            u = stack.pop()
            have = masks[u]
            if not have:
                continue
            keep = 0
            for v, guard in out[u]:
                keep |= guard & masks[v]
            keep &= have
            if keep != have:
                masks[u] = keep
                lost = have ^ keep
                stack.extend(p for p, guard in pred[u] if masks[p] & guard & lost)
        arcs: list[list[Arc]] = [[] for _ in g.kept]
        for pos, (u, v, wt, ln, guard, first) in enumerate(g.arcs):
            m = guard & masks[u] & masks[v]
            if m:
                arcs[u].append((m, v, wt, ln, first, pos))
        return Live(masks, arcs)


def refine(full: int, guards) -> list[int]:
    """``full`` refined by every distinct guard mask, in order of lowest
    product; a one-product part is set aside as soon as it appears."""
    blocks, single = [full], []
    for g in dict.fromkeys(guards):
        split = []
        for b in blocks:
            part = b & g
            if part and part != b:
                rest = b ^ part
                (split if part & (part - 1) else single).append(part)
                (split if rest & (rest - 1) else single).append(rest)
            else:
                split.append(b)
        blocks = split
        if not blocks:
            break
    single.sort()  # a power of two is its own lowest product
    return sorted(blocks + single, key=lambda b: b & -b) if blocks else single


def spread(
    seeds: list[tuple[int, int]],
    blocked: list[int],
    adj: list[list[tuple[int, int]]],
) -> list[int]:
    """Per state, the products under which it is connected to a seed along
    ``adj`` (out-pairs: reached from it; in-pairs: reaching it).  Each
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
