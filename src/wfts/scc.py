"""Symbolic strongly connected components over product sets, two routes.

A component is an anchor state and, per state, the products that put the
state in it; one product's SCC partition is read off the masks alone
(``product_owners``).

``forward_backward_sccs`` is the route the analysis takes (Xie & Beerel
1999; Gentilini, Piazza & Policriti 2003): from each state in index order,
for the products it still has, the states reached from it meet the states
reaching it in its component, and those masks leave the remaining set.
Seeded with symbolic reachability, it gives each product the components of
its reachable subgraph, and products that share behaviour share one
component: at most one component per state.

``symbolic_sccs`` is the paper's route, read off the finishing tree, and
the independent second route that ``checks`` compares with it.  The classic
two-pass scheme processes states in decreasing finishing time and, for each
unassigned state, collects everything reachable in the transpose graph
among unassigned states.  Here the finishing order comes from the tree (one
order per family of products), and "assigned" is a per-state product set
threaded along each root-to-leaf path and restored on backtracking.  Its
masks partition correctly because a component's masks lie within the
family of its tree node's path, and each product selects exactly one path:
per product, the components containing it are the ones on its path.

Both routes spread with one walk, ``_reaching``.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import IndexedModel
from .ordering import FinishingTree


class SymbolicScc(NamedTuple):
    """One symbolic component: per state, the products that put it here.

    ``masks`` is indexed like the graph's states.  Every mask lies within
    ``masks[anchor]``: the walk that collects the component starts from the
    anchor's products and only ever narrows them.
    """

    anchor: int
    masks: list[int]


class SymbolicSccs:
    """The components of one finishing tree, in computation order."""

    def __init__(self, components: list[SymbolicScc]):
        self._components = components

    def components(self) -> list[SymbolicScc]:
        return self._components


def _reaching(
    s0: int,
    lam0: int,
    blocked: list[int],
    adj: list[list[tuple[int, int]]],
) -> list[int]:
    """Products under which each state is connected to ``s0`` along ``adj``
    (``im.out``: reached from it; ``im.pred``: reaching it), starting from
    ``lam0`` at ``s0`` and never entering a state under a product in its
    ``blocked`` mask."""
    r = [0] * len(adj)
    r[s0] = lam0
    stack: list[tuple[int, int]] = [(s0, lam0)]
    while stack:
        s, px = stack.pop()
        for sp, guard in adj[s]:
            new = px & guard & ~(r[sp] | blocked[sp])
            if new:
                r[sp] |= new
                stack.append((sp, new))
    return r


def forward_backward_sccs(im: IndexedModel, within: list[int]) -> list[SymbolicScc]:
    """The components of every product's graph restricted to ``within``
    (per state, a product mask), by forward-backward decomposition.

    For each state ``v`` in index order that still has products ``lam`` in
    ``remaining``, the states reached from ``v`` and the states reaching it,
    both under ``lam`` and inside ``remaining``, meet in ``v``'s component
    for each of those products.  Clearing the component from ``remaining``
    removes whole components per product, so later spreads stay exact.
    """
    full = im.feature_model.full_mask
    remaining = list(within)
    components: list[SymbolicScc] = []
    for v in range(im.n):
        lam = remaining[v]
        if not lam:
            continue
        blocked = [full & ~m for m in remaining]
        fwd = _reaching(v, lam, blocked, im.out)
        bwd = _reaching(v, lam, blocked, im.pred)
        masks = [f & b for f, b in zip(fwd, bwd)]
        components.append(SymbolicScc(v, masks))
        remaining = [r & ~m for r, m in zip(remaining, masks)]
    return components


def symbolic_sccs(tree: FinishingTree, im: IndexedModel) -> SymbolicSccs:
    """Depth-first walk of the finishing tree computing one component per
    node whose state is not yet fully assigned on the current path.

    The assigned-products map is pushed (by value) when descending an edge
    and restored when backtracking, so sibling branches never see each
    other's assignments.
    """
    idx, pred = im.index, im.pred
    components: list[SymbolicScc] = []
    for root_child in tree.root.children:
        assigned = [0] * im.n
        # Frame: [node, path expression, next child index]
        frames: list[list] = [[root_child, root_child.edge_mask, 0]]
        snapshots: list[list[int]] = [list(assigned)]
        while frames:
            frame = frames[-1]
            node, lam, child_i = frame
            s = idx[node.state]
            fresh = lam & ~assigned[s]
            if fresh:  # zero on a revisit: the first visit assigned it
                masks = _reaching(s, fresh, assigned, pred)
                components.append(SymbolicScc(s, masks))
                for i, m in enumerate(masks):
                    if m:
                        assigned[i] |= m
            if child_i < len(node.children):
                frame[2] = child_i + 1
                child = node.children[child_i]
                snapshots.append(list(assigned))
                frames.append([child, lam & child.edge_mask, 0])
            else:
                frames.pop()
                assigned = snapshots.pop()
        assert not snapshots, "assignment snapshots must pop in lockstep"
    return SymbolicSccs(components)


def product_owners(
    components: list[SymbolicScc], products: int, n: int
) -> list[list[int]]:
    """Per product, each of the ``n`` states' component: the index of the
    one whose mask holds the product, -1 if none does and -2 if several do.

    One pass scatters each mask's set bits, so the cost is the number of
    (state, product) memberships plus one scan of every component's masks,
    and the result holds one int per (product, state).
    """
    owners = [[-1] * n for _ in range(products)]
    for c, scc in enumerate(components):
        for v, m in enumerate(scc.masks):
            while m:
                low = m & -m
                row = owners[low.bit_length() - 1]
                row[v] = c if row[v] == -1 else -2
                m ^= low
    return owners
