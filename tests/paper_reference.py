"""The paper's finishing-order tree and symbolic components, and the classic
per-product DFS and Kosaraju they are checked against: the tests'
reference for the unit steps' structure, which no value or witness that
``analyze`` prints depends on.

The feature-aware DFS (``wfts.ordering.dfs_order``) run on the unit
steps (``unit_order``) stamps one (state, product-set) entry per visit.
``build_finishing_tree`` turns that stamped order into a rooted tree
whose root-to-leaf paths list states in decreasing finishing time for
the family of products accumulated along the path's edge labels.
Sibling edges carry disjoint product sets, every leaf sits at depth |S|,
and each product selects exactly one path.

``symbolic_sccs`` reads the components off that tree.  A component is an
anchor state and, per state, the products that put the state in it; one
product's SCC partition is read off the masks alone, as ``check_scc_tree``
does once per block of products that enable the same edges.  The classic
two-pass scheme processes states in decreasing finishing time and, for
each unassigned state, collects everything reachable in the transpose
graph among unassigned states.  Here the finishing order comes from the
tree (one order per family of products), and "assigned" is a per-state
product set threaded along each root-to-leaf path and restored on
backtracking.  Its masks partition correctly because a component's masks
lie within the family of its tree node's path, and each product selects
exactly one path: per product, the components containing it are the ones
on its path.  The spread is ``wfts.graphs.spread``.

The classic algorithms (``finish_order``, Kosaraju's second pass over that
order) follow the same canonical iteration order as the symbolic ones:
states and out-edges in declaration order.  ``classic_references`` runs
them once per block of ``wfts.checks.product_inputs``, and the suites
``check_order_coverage``, ``check_tree`` and ``check_scc_tree`` compare a
block at a time where its products agree.

Every function here reads the unit steps as the arcs of the length
expansion's own index, ``IndexedModel(expand_lengths(w))``: ``guarded``
gives its guarded adjacency, and ``cold_reference.successors`` one product's.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from wfts.analysis import _per_product, format_product
from wfts.checks import CheckResult, ProductInputs, _bits
from wfts.graphs import IndexedModel, spread
from wfts.ordering import DfsOrder, dfs_order

from cold_reference import successors

Guarded = list[list[tuple[int, int]]]  # per state, (neighbour, guard mask) pairs


def guarded(im: IndexedModel) -> tuple[Guarded, Guarded]:
    """Per state of ``im``, its out-pairs ``(target, guard mask)`` and its
    in-pairs ``(source, guard mask)`` in declaration order, without the
    arcs that no valid product enables."""
    out: Guarded = [[] for _ in im.system.states]
    pred: Guarded = [[] for _ in im.system.states]
    for u, v, _, _, g, _ in im.arcs:
        if g:
            out[u].append((v, g))
            pred[v].append((u, g))
    return out, pred


def symbolic_reachable_masks(im: IndexedModel) -> list[int]:
    """For each state, the exact set of products (a bitmask) under which it
    is reachable from some initial state via guard-satisfying transitions."""
    full = im.feature_model.full_mask
    return spread([(i, full) for i in im.initial], [0] * im.n, guarded(im)[0])


def product_radj(im: IndexedModel, bit: int) -> list[list[int]]:
    """Backward adjacency of the unit steps for one product (edge order
    preserved)."""
    return [[u for u, g in edges if g & bit] for edges in guarded(im)[1]]


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


def unit_order(im: IndexedModel) -> DfsOrder:
    """The feature-aware DFS over the unit steps, for every valid product."""
    return dfs_order(guarded(im)[0], im.system.states, im.feature_model.full_mask)


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


class SymbolicScc(NamedTuple):
    """One symbolic component: per state, the products that put it here.

    ``masks`` is indexed like the graph's states.  Every mask lies within
    ``masks[anchor]``: the walk that collects the component starts from the
    anchor's products and only ever narrows them.
    """

    anchor: int
    masks: list[int]


def symbolic_sccs(tree: FinishingTree, im: IndexedModel) -> list[SymbolicScc]:
    """Depth-first walk of the finishing tree computing one component per
    node whose state is not yet fully assigned on the current path, in
    computation order.

    The assigned-products map is pushed (by value) when descending an edge
    and restored when backtracking, so sibling branches never see each
    other's assignments.
    """
    idx = {s: i for i, s in enumerate(im.system.states)}
    pred = guarded(im)[1]
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
    return components


class ClassicReferences(NamedTuple):
    """The blocks of ``product_inputs`` and the classic answers per block."""

    blocks: list[int]  # ProductInputs.blocks
    block_of: list[int]  # per product, its block's position
    orders: list[list[int]]  # per block, its classic DFS finish order
    components: list[list[list[int]]]  # per block, its Kosaraju SCCs


def classic_references(im: IndexedModel, inputs: ProductInputs) -> ClassicReferences:
    """Each block's classic DFS finishing order, which is also Kosaraju's
    first pass, and its Kosaraju partition, at the block's lowest
    product."""
    blocks = inputs.blocks
    bits = [block & -block for block in blocks]
    orders = [finish_order(successors(im, bit), im.n) for bit in bits]
    components = [kosaraju_components(o, product_radj(im, bit)) for o, bit in zip(orders, bits)]
    count = im.feature_model.full_mask.bit_length()
    block_of = _per_product([(block, i) for i, block in enumerate(blocks)], count)
    return ClassicReferences(blocks, block_of, orders, components)


def check_order_coverage(order: DfsOrder) -> CheckResult:
    """Each state finishes exactly once per product: per state, the stamped
    product sets are disjoint and cover the order's context."""
    result = CheckResult("order-coverage")
    per_state: dict[str, list[int]] = {s: [] for s in order.states}
    for e in order.entries:
        if e.mask == 0:
            result.failures.append(f"entry {e.time} for {e.state} is empty")
        per_state[e.state].append(e.mask)
    for s, masks in per_state.items():
        union = 0
        for m in masks:
            if union & m:
                result.failures.append(f"state {s}: overlapping finish entries")
            union |= m
        if union != order.context:
            result.failures.append(f"state {s}: finish entries do not cover all products")
    total = sum(bin(m).count("1") for masks in per_state.values() for m in masks)
    expected = len(order.states) * bin(order.context).count("1")
    if total != expected:
        result.failures.append(
            f"stamp count {total} != |S| * |products| = {expected}"
        )
    return result


def check_tree(tree: FinishingTree, im: IndexedModel, refs: ClassicReferences) -> CheckResult:
    """The five structural tree conditions, including per-product fidelity
    against the classic DFS finishing order of the product's graph: one
    walk down the tree splits the products wherever the children's edge
    masks differ."""
    result = CheckResult("tree")
    fm = im.feature_model  # its products are named only in failures
    n = im.n

    for leaf in tree.leaves():
        if leaf.depth != n:
            result.failures.append(
                f"leaf {leaf.state} at depth {leaf.depth}, expected {n}"
            )
    bits: dict[str, int] = {}  # a bit per state name
    on_path = {tree.root: 0}  # per node, its path's states; -1 below a repeat
    for node in tree.nodes:  # a parent comes before its children
        bit = bits.setdefault(node.state, 1 << len(bits))
        above = on_path[node.parent]
        on_path[node] = -1 if above & bit else above | bit
        if on_path[node] < 0:
            result.failures.append(f"repeated state on path {node.path_states()}")
        for i, a in enumerate(node.children):
            for b in node.children[i + 1:]:
                if a.edge_mask & b.edge_mask:
                    result.failures.append(
                        f"sibling edges overlap below {node.state or 'root'}"
                    )

    # A path lists states in decreasing finishing time: n, n-1, ..., 1.
    classic = [[im.system.states[u] for u in reversed(order)] for order in refs.orders]
    lines: list[tuple[int, int, str]] = []  # (product, depth, failure)
    walk = [(tree.root, im.feature_model.full_mask)]
    while walk:
        node, here = walk.pop()
        if node.depth == n:
            path = node.path_states()
            while here:
                b = refs.block_of[(here & -here).bit_length() - 1]
                if path != classic[b]:
                    lines += [(p, n + 1, f"product {format_product(fm.products[p])}: path "
                               f"{path} != classic finish order {classic[b]}")
                              for p in _bits(here & refs.blocks[b])]
                here &= ~refs.blocks[b]
            continue
        depth = node.depth + 1
        once = twice = 0
        for child in node.children:
            twice |= once & child.edge_mask
            once |= child.edge_mask
        for p in _bits(here & (twice | ~once)):
            matching = sum(1 for child in node.children if child.edge_mask >> p & 1)
            lines.append((p, depth, f"product {format_product(fm.products[p])} matches "
                          f"{matching} children at depth {depth}"))
        for child in node.children:
            down = here & child.edge_mask & ~twice
            if down:
                lines += [(p, depth, f"product {format_product(fm.products[p])} missing "
                           f"from path mask at depth {depth}")
                          for p in _bits(down & ~child.path_mask)]
                walk.append((child, down))
    result.failures += [line for *_, line in sorted(lines)]
    return result


def _named(partition: list[list[int]], names: tuple[str, ...]) -> list[list[str]]:
    """A partition's distinct components as sorted state names."""
    return sorted(map(list, {tuple(sorted(names[u] for u in comp)) for comp in partition}))


def check_scc_tree(
    routes: dict[str, list[SymbolicScc]], im: IndexedModel, refs: ClassicReferences
) -> CheckResult:
    """Per product and per route, the partition read off the component
    masks equals the classic one of the product's graph, with every state
    in exactly one component.  ``routes`` maps a route's name to its
    components.  The masks are read at each block's lowest product, and at
    every product of a block that some mask holds only part of."""
    result = CheckResult("scc")
    fm = im.feature_model  # its products are named only in failures
    names = im.system.states
    blocks, block_of = refs.blocks, refs.block_of
    lowest = sum(block & -block for block in blocks)
    lines: list[tuple[int, int, str]] = []  # (product, route, failure)
    for r, (route, components) in enumerate(routes.items()):
        owners: dict[int, list[int]] = {}  # per product read, each state's component
        passes = [lowest]  # then the other products of the blocks that a mask splits
        for read in passes:
            owners.update((p, [-1] * im.n) for p in _bits(read))
            split = 0
            for c, scc in enumerate(components):
                for v, m in enumerate(scc.masks):
                    if not m:
                        continue
                    whole = 0
                    for p in _bits(m & read):
                        row = owners[p]
                        row[v] = c if row[v] == -1 else -2  # -2: in several
                        whole |= blocks[block_of[p]]
                    split |= whole ^ m
            if split and read == lowest:
                passes.append(sum({blocks[block_of[p]] for p in _bits(split)}) & ~lowest)
        for p, owner in owners.items():
            classic = refs.components[block_of[p]]
            # Equal partitions: a state's two components determine each other.
            pairs = len({(owner[u], cid) for cid, comp in enumerate(classic) for u in comp})
            if min(owner, default=0) >= 0 and pairs == len(set(owner)) == len(classic):
                continue
            symbolic = [[u for u, c in enumerate(owner) if c == k]
                        for k in set(owner) if k >= 0]
            failures = [f"symbolic SCCs {_named(symbolic, names)} "
                        f"!= classic {_named(classic, names)}"]
            failures += [f"state {names[u]} in two components"
                         for u, c in enumerate(owner) if c == -2]
            assigned = sum(1 for c in owner if c != -1)
            if assigned != im.n:
                failures.append(f"{assigned} of {im.n} states assigned")
            # A product read in the second pass stands for itself alone.
            block = blocks[block_of[p]]
            for q in _bits(1 << p if block & sum(passes[1:]) else block):
                where = f"{route} route, product {format_product(fm.products[q])}"
                lines += [(q, r, f"{where}: {failure}") for failure in failures]
    result.failures += [line for *_, line in sorted(lines, key=lambda line: line[:2])]
    return result
