"""Symbolic strongly connected components over product sets.

A component is an anchor state and, per state, the products that put the
state in it; one product's SCC partition is read off the masks alone, as
``checks.check_scc_tree`` does once per block of products that enable the
same edges.

``symbolic_sccs`` is the paper's route, read off the finishing tree, which
``checks`` compares with the classic Kosaraju partition of every product.
The classic two-pass scheme processes states in decreasing finishing time
and, for each unassigned state, collects everything reachable in the
transpose graph among unassigned states.  Here the finishing order comes
from the tree (one order per family of products), and "assigned" is a
per-state product set threaded along each root-to-leaf path and restored
on backtracking.  Its masks partition correctly because a component's
masks lie within the family of its tree node's path, and each product
selects exactly one path: per product, the components containing it are
the ones on its path.  The spread is ``graphs.spread``.

The analysis needs no components: its policy iteration
(``meancycle.family_means``) runs on the live graph as a whole.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import IndexedModel, spread
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
                masks = spread([(s, fresh)], assigned, pred)
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

