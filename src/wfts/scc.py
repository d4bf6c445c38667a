"""Symbolic strongly connected components, read off the finishing tree.

The classic two-pass SCC scheme processes states in decreasing finishing
time and, for each unassigned state, collects everything reachable in the
transpose graph among unassigned states.  Here both ingredients become
symbolic: the finishing order comes from the tree (one order per family of
products), and "assigned" is a per-state product set threaded along each
root-to-leaf path and restored on backtracking.

The tree is only the route to the components.  A component is an anchor
state and, per state, the products that put the state in it; one product's
SCC partition is read off the masks alone (``product_partitions``).  That
is sound because a component's masks lie within the family of its tree
node's path, and each product selects exactly one path: per product, the
components containing it are the ones on its path, which partition the
states.
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
    assigned: list[int],
    pred: list[list[tuple[int, int]]],
) -> list[int]:
    """Products under which each state reaches ``s0``, walking ``pred`` and
    avoiding per-product anything already assigned to an earlier component."""
    n = len(pred)
    r = [0] * n
    r[s0] = lam0
    stack: list[tuple[int, int]] = [(s0, lam0)]
    while stack:
        s, px = stack[-1]
        advanced = False
        for sp, guard in pred[s]:
            new = px & guard & ~(r[sp] | assigned[sp])
            if new:
                r[sp] |= new
                stack.append((sp, new))
                advanced = True
                break
        if not advanced:
            stack.pop()
    return r


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


def product_partitions(
    components: list[SymbolicScc], products: int
) -> list[list[list[int]]]:
    """Per product, its SCC partition: the member states of each component
    whose masks contain the product, in component order.

    One pass scatters each mask's set bits, so the cost is the number of
    (state, product) memberships plus one scan of every component's masks.
    A state in two components, or in none, shows up as such in the result.
    """
    parts: list[dict[int, list[int]]] = [{} for _ in range(products)]
    for c, scc in enumerate(components):
        for v, m in enumerate(scc.masks):
            while m:
                low = m & -m
                parts[low.bit_length() - 1].setdefault(c, []).append(v)
                m ^= low
    return [list(p.values()) for p in parts]
