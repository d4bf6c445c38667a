"""Feature-aware depth-first search and the per-family finishing-order tree.

A single DFS over the featured system cannot assign one finishing time per
state, because different products enable different transitions.  Instead the
search tracks, per state, the set of products under which the state is still
unexplored, and stamps one (state, product-set) entry per visit.  For every
single product, the stamped subsequence containing it equals the classic DFS
finishing order of that product's projection under the canonical iteration
order (states and out-edges in declaration order).

The tree construction then turns the stamped order into a rooted tree whose
root-to-leaf paths list states in decreasing finishing time for the family of
products accumulated along the path's edge labels.  Sibling edges carry
disjoint product sets, every leaf sits at depth |S|, and each product selects
exactly one path.

The search runs over any out-list and any context of products.  On the
unit steps' guards it feeds the tree, whose components
(``scc.symbolic_sccs``) ``checks`` compares with every product's classic
Kosaraju partition; the analysis's values need no components.  On the
tight graph of the declared arcs, over the products with a value, it
feeds the witness stage: scanned from the last entry, it yields each
product's critical state that finishes last, whose tight component holds
the witness cycle.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import NamedTuple

from .graphs import IndexedModel


class OrderEntry(NamedTuple):
    state: str
    mask: int  # products for which this entry is the state's finishing point
    time: int  # 1-based, consecutive


class DfsOrder:
    """Stamped finishing entries of the feature-aware DFS over the products
    of ``context``: ``stamps`` as ``(state index, mask)`` pairs, and
    ``entries`` as named, timed records."""

    def __init__(self, states, context: int, stamps: list[tuple[int, int]]):
        self.states = states
        self.context = context
        self.stamps = stamps

    @cached_property
    def entries(self) -> tuple[OrderEntry, ...]:
        states = self.states
        return tuple([
            OrderEntry(states[u], mask, i) for i, (u, mask) in enumerate(self.stamps, 1)
        ])


def dfs_order(
    im: IndexedModel,
    out: list[list[tuple[int, int]]] | None = None,
    context: int | None = None,
) -> DfsOrder:
    """Run the feature-aware DFS and return the stamped finishing order.

    The graph is ``out`` (per state, ``(target, mask)`` pairs in the order
    the classic DFS tries them) over the products of ``context`` (all valid
    products by default).  By default it is the unit steps, ``im.out``,
    named by ``im.states``; a given ``out`` is over the declared states,
    named by ``im.system.states``.  Per state the unexplored-products set starts at ``context``; a
    visit under expression lam stamps the still-unexplored part of lam and
    recurses along every out-edge whose mask leaves some product of lam
    unexplored at the target.  The recursion is realised with an explicit
    stack but preserves the recursive visit order exactly.
    """
    if out is None:
        out, states = im.out, im.states
    else:
        states = im.system.states
    if context is None:
        context = im.feature_model.full_mask
    white = [context] * len(out)
    entries: list[tuple[int, int]] = []

    # Frame: [state, lam, exploring, next edge index]; pushing a frame
    # removes its products from the state's unexplored set.
    frames: list[list[int]] = []
    for root, lam in enumerate(white):
        if not lam:
            continue
        white[root] = 0
        frames.append([root, lam, lam, 0])
        while frames:
            frame = frames[-1]
            u, lam, _, i = frame
            edges = out[u]
            descended = False
            while i < len(edges):
                v, guard = edges[i]
                i += 1
                nxt = guard & lam
                exploring = white[v] & nxt
                if exploring:
                    frame[3] = i
                    white[v] &= ~nxt
                    frames.append([v, nxt, exploring, 0])
                    descended = True
                    break
            if not descended:
                frame[3] = i
                entries.append((u, frame[2]))
                frames.pop()
    return DfsOrder(states, context, entries)


class TreeNode:
    """One node of the finishing-order tree.

    ``edge_mask`` labels the edge from the parent; ``path_mask`` is the
    conjunction of edge labels from the root, i.e. the family of products
    whose finishing order follows this path.  ``found_at`` records the order
    entry the node was created from; children are scanned strictly below it.
    """

    __slots__ = ("state", "edge_mask", "path_mask", "found_at", "parent",
                 "children", "depth")

    def __init__(self, state, edge_mask, path_mask, found_at, parent):
        self.state = state
        self.edge_mask = edge_mask
        self.path_mask = path_mask
        self.found_at = found_at
        self.parent = parent
        self.children: list[TreeNode] = []
        self.depth = 0 if parent is None else parent.depth + 1

    def path_states(self) -> list[str]:
        node, states = self, []
        while node.parent is not None:
            states.append(node.state)
            node = node.parent
        return states[::-1]


class FinishingTree:
    """Tree of per-family DFS finishing orders."""

    def __init__(self, root: TreeNode, nodes: list[TreeNode], order: DfsOrder):
        self.root = root
        self.nodes = nodes  # creation (breadth-first) order, root excluded
        self.order = order

    def leaves(self) -> list[TreeNode]:
        return [n for n in self.nodes if not n.children]


def build_finishing_tree(order: DfsOrder) -> FinishingTree:
    """Construct the finishing-order tree from the stamped DFS entries.

    Breadth-first: each node scans the entries strictly below its own
    creation point, from high to low, adding a child for every entry whose
    products intersect the path family and are not already covered by an
    earlier sibling.  The root scans from the very last entry.
    """
    context = order.context
    entries = order.entries
    root = TreeNode(None, context, context, len(entries) + 1, None)
    nodes: list[TreeNode] = []
    queue = deque([root])
    while queue:
        node = queue.popleft()
        not_children = context
        path = node.path_mask
        for j in range(node.found_at - 1, 0, -1):
            if not not_children & path:
                break
            e = entries[j - 1]
            edge = e.mask & not_children
            if edge & path:
                child = TreeNode(e.state, edge, path & edge, j, node)
                node.children.append(child)
                nodes.append(child)
                queue.append(child)
                not_children &= ~e.mask
    return FinishingTree(root, nodes, order)

