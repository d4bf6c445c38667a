"""The per-product references: one product at a time, from scratch.

``successors`` and ``reachable_from`` are one product's adjacency over
the declared arcs and a plain DFS over it, the check of the one
``spread`` that ``checks.product_inputs`` and the live view run.

``reference_live_out`` finds a product's live graph by a plain reach and
peel over the arcs of ``im.series``: the states reached from an initial
state, then, to a fixpoint, only those with an arc to a state still kept.
``cold_key`` runs ``meancycle._howard`` on it from a fresh start, and
``cold_values`` merges one such run per product into value classes.  None
of it reads ``IndexedModel.live``, the one live view per index that the
family and product routes share, nor the product route's blocks, warm
starts and carried certificates, so it checks them instead of sharing
them.
"""

from __future__ import annotations

from wfts.analysis import Classes, _merge
from wfts.graphs import IndexedModel
from wfts.meancycle import _howard


def successors(im: IndexedModel, bit: int) -> list[list[int]]:
    """Per declared state of ``im``, its targets under product ``bit`` in
    declaration order."""
    adj: list[list[int]] = [[] for _ in im.system.states]
    for u, v, _, _, g, _ in im.arcs:
        if g & bit:
            adj[u].append(v)
    return adj


def reachable_from(adj: list[list[int]], sources: list[int], n: int) -> list[bool]:
    """Per state of ``n``, whether a plain DFS over ``adj`` reaches it from
    ``sources``."""
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


def reference_live_out(im: IndexedModel, bit: int) -> list:
    """Product ``bit``'s live out-lists over ``im.series``: per state, its
    ``(bit, target, weight, length, first-hop weight, position)`` arcs
    within the live graph in declaration order, or None for a state off
    it."""
    g = im.series
    arcs = [(u, (bit, v, wt, ln, first, pos))
            for pos, (u, v, wt, ln, guard, first) in enumerate(g.arcs) if guard & bit]
    live = set(g.initial)
    while True:
        reached = live | {arc[1] for u, arc in arcs if u in live}
        if reached == live:
            break
        live = reached
    while True:
        kept = {u for u, arc in arcs if u in live and arc[1] in live}
        if kept == live:
            break
        live = kept
    return [[arc for v, arc in arcs if v == u and arc[1] in live] if u in live else None
            for u in range(len(g.kept))]


def unmasked(out: list) -> list:
    """Out-lists without each arc's products: the arcs of the graph alone,
    as a live view's lists and ``reference_live_out``'s both give them."""
    return [None if arcs is None else [arc[1:] for arc in arcs] for arcs in out]


def cold_key(im: IndexedModel, bit: int) -> tuple[int, int] | None:
    """Product ``bit``'s best reachable mean as a reduced ``(num, den)``
    pair over ``im``'s signed, scaled weights: one ``_howard`` run on its
    reference live graph, started from no earlier run, and the best of its
    live initial states.  None when no initial state is live."""
    out = reference_live_out(im, bit)
    initial = [s for s in im.series.initial if out[s] is not None]
    if not initial:
        return None
    _, num, den, _ = _howard(out, [None] * len(out))
    best = initial[0]
    for s in initial:
        if num[s] * den[best] > num[best] * den[s]:
            best = s
    return num[best], den[best]


def cold_values(im: IndexedModel) -> Classes:
    """The value classes of one cold run per product."""
    bits = [1 << p for p in range(im.feature_model.full_mask.bit_length())]
    return _merge(im, ((bit, cold_key(im, bit)) for bit in bits))
