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

The analysis takes its components from ``scc.forward_backward_sccs``; the
tree is the independent route to them (``scc.symbolic_sccs``) that
``checks`` compares with it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graphs import IndexedModel


@dataclass(frozen=True)
class OrderEntry:
    state: str
    mask: int  # products for which this entry is the state's finishing point
    time: int  # 1-based, consecutive


class DfsOrder:
    """Stamped finishing entries of the feature-aware DFS."""

    def __init__(self, im: IndexedModel, entries: list[tuple[str, int]]):
        self.states = im.states
        self.model = im.feature_model
        self.entries = tuple(
            OrderEntry(state, mask, i + 1) for i, (state, mask) in enumerate(entries)
        )


def dfs_order(im: IndexedModel) -> DfsOrder:
    """Run the feature-aware DFS and return the stamped finishing order.

    Per state the unexplored-products set starts at all valid products; a
    visit under expression lam stamps the still-unexplored part of lam and
    recurses along every out-edge whose guard leaves some product of lam
    unexplored at the target.  The recursion is realised with an explicit
    stack but preserves the recursive visit order exactly.
    """
    out = im.out
    white = [im.feature_model.full_mask] * im.n
    entries: list[tuple[str, int]] = []

    # Frame: [state, lam, exploring, next edge index]
    frames: list[list[int]] = []

    def push(u: int, lam: int) -> None:
        exploring = white[u] & lam
        white[u] &= ~lam
        frames.append([u, lam, exploring, 0])

    for root in range(im.n):
        if not white[root]:
            continue
        push(root, white[root])
        while frames:
            frame = frames[-1]
            u, lam, _, i = frame
            edges = out[u]
            descended = False
            while i < len(edges):
                v, guard = edges[i]
                i += 1
                nxt = guard & lam
                if white[v] & nxt:
                    frame[3] = i
                    push(v, nxt)
                    descended = True
                    break
            if not descended:
                frame[3] = i
                entries.append((im.states[u], frame[2]))
                frames.pop()
    return DfsOrder(im, entries)


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
    fm = order.model
    entries = order.entries
    root = TreeNode(None, fm.full_mask, fm.full_mask, len(entries) + 1, None)
    nodes: list[TreeNode] = []
    queue = deque([root])
    while queue:
        node = queue.popleft()
        not_children = fm.full_mask
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

