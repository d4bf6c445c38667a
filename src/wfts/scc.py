"""Symbolic strongly connected components, one set per finishing-tree path.

The classic two-pass SCC scheme processes states in decreasing finishing
time and, for each unassigned state, collects everything reachable in the
transpose graph among unassigned states.  Here both ingredients become
symbolic: the finishing order comes from the tree (one order per family of
products), and "assigned" is a per-state product set threaded along each
root-to-leaf path and restored on backtracking.
"""

from __future__ import annotations

from .features import ProductSet
from .graphs import IndexedModel
from .ordering import FinishingTree, TreeNode


class SymbolicScc:
    """One symbolic component: per state, the products that put it here."""

    __slots__ = ("graph", "anchor_state", "anchor_mask", "masks")

    def __init__(self, graph: IndexedModel, anchor_state: str, anchor_mask: int,
                 masks: list[int]):
        self.graph = graph
        self.anchor_state = anchor_state
        self.anchor_mask = anchor_mask
        self.masks = masks  # indexed like graph.states

    def members(self) -> list[str]:
        return [s for s, m in zip(self.graph.states, self.masks) if m]

    def products_of(self, state: str) -> ProductSet:
        return ProductSet(self.graph.feature_model, self.masks[self.graph.index[state]])

    def members_at(self, bit: int) -> list[str]:
        return [s for s, m in zip(self.graph.states, self.masks) if m & bit]

    def __repr__(self) -> str:
        return f"SymbolicScc(anchor={self.anchor_state}, members={self.members()})"


class SccTree:
    """The finishing tree annotated with the component found at each node."""

    def __init__(self, tree: FinishingTree, by_node: dict[TreeNode, SymbolicScc]):
        self.tree = tree
        self.by_node = by_node  # insertion order = computation order

    def components(self) -> list[SymbolicScc]:
        return list(self.by_node.values())

    def components_at(self, product) -> list[list[str]]:
        """The per-product SCC partition, following the product's tree path."""
        bit = 1 << self.tree.model.product_index(product)
        partition = []
        for node in self.tree.path_for(product):
            scc = self.by_node.get(node)
            if scc is None:
                continue
            members = scc.members_at(bit)
            if members:
                partition.append(members)
        return partition


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


def reach_excluding(
    im: IndexedModel,
    anchor_state: str,
    anchor: ProductSet,
    assigned: dict[str, ProductSet] | None = None,
) -> SymbolicScc:
    """Per product, the states that reach ``anchor_state`` in ``im``, never
    passing through (state, product) pairs already in ``assigned``.

    This is the component-collection step: everything that reaches the
    anchor among unassigned states, read off the predecessor lists.
    """
    excluded = [0] * im.n
    for state, products in (assigned or {}).items():
        excluded[im.index[state]] = products.mask
    masks = _reaching(im.index[anchor_state], anchor.mask, excluded, im.pred)
    return SymbolicScc(im, anchor_state, anchor.mask, masks)


def symbolic_sccs(tree: FinishingTree, im: IndexedModel) -> SccTree:
    """Depth-first walk of the finishing tree computing one component per
    node whose state is not yet fully assigned on the current path.

    The assigned-products map is pushed (by value) when descending an edge
    and restored when backtracking, so sibling branches never see each
    other's assignments.
    """
    idx, pred = im.index, im.pred
    by_node: dict[TreeNode, SymbolicScc] = {}
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
            if fresh and node not in by_node:
                masks = _reaching(s, fresh, assigned, pred)
                by_node[node] = SymbolicScc(im, node.state, fresh, masks)
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
    return SccTree(tree, by_node)


def render_scc_tree(scc_tree: SccTree) -> str:
    """Per leaf path, the components with their per-state product sets
    (debugging aid, not a stable format)."""
    tree = scc_tree.tree
    fm = tree.model
    lines: list[str] = []
    for leaf in tree.leaves():
        path: list[TreeNode] = []
        node = leaf
        while node.parent is not None:
            path.append(node)
            node = node.parent
        path.reverse()
        family = fm.expr_for_mask(leaf.path_mask)
        lines.append(f"path {' '.join(n.state for n in path)}  [{family}]")
        for n in path:
            scc = scc_tree.by_node.get(n)
            if scc is None:
                continue
            parts = ", ".join(
                f"{s}:{fm.expr_for_mask(m)}"
                for s, m in zip(scc.graph.states, scc.masks)
                if m
            )
            lines.append(f"  scc@{n.state}: {parts}")
    return "\n".join(lines)
