"""Cross-validation suites: every symbolic result against a classic oracle.

Three layers of checking, used both by the test suite and by the ``validate``
CLI command:

* tree conditions — the finishing-order tree is well-formed and, for every
  single product, reproduces the classic DFS finishing order of that
  product's projection;
* component equivalence — the partition read off the finishing tree's
  symbolic components at any product is exactly the classic Kosaraju
  partition;
* the oracle triangle — family-based, product-based and brute-force cycle
  enumeration report identical values for every product, in both modes.

Every suite reads the per-product graphs off the unit steps of one
``IndexedModel``, which both analyses read too; the triangle adds its
min-signed twin for min mode, so that ``check_model`` builds two.  The
brute-force oracle alone takes the model's own weights
(``reachable_projection``): unsigned Fractions that it scales to ints by
the lcm of their own denominators, summing paths in ints and comparing
cycles by cross-multiplication in each mode.  Neither that scale nor that
comparison comes from the index, so the oracle checks the index's sign and
scale instead of sharing them.

Every product is compared, but each classic reference runs once per
distinct input, in one place (``product_inputs``).  The unit is a block
(``product_blocks``): the products that enable the same edges, an atom of
the guards' algebra, so that every mask a correct symbolic route computes
holds a block whole or not at all.  Each block gets one adjacency, one
reachable projection and one DFS finishing order, which is both the
tree's reference and Kosaraju's first pass; blocks with the same
projection share one oracle enumeration, which answers both modes.  A
model that the oracle cannot enumerate is rejected before any other
reference or suite runs.  The suites only compare, a block at a time
where its products agree; the product route, which is under test, runs
in the triangle once per projection and mode.

Failures carry enough context to reproduce: ``check_model`` adds one header
with the model text as given (before length expansion), and each line names
the product and the disagreeing values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .analysis import _family_values, _per_product, format_product
from .dsl import serialize
from .graphs import IndexedModel, finish_order, kosaraju_components, reachable_from
from .meancycle import BRUTE_FORCE_MAX_STATES, best_reachable_mean, brute_force_mean_cycle
from .model import ModelError, Wfts
from .ordering import DfsOrder, FinishingTree, build_finishing_tree, dfs_order
from .randgen import random_corpus
from .scc import SymbolicScc, symbolic_sccs


@dataclass
class CheckResult:
    label: str
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def merge(self, other: "CheckResult") -> None:
        self.failures.extend(other.failures)


def _model_header(w: Wfts, label: str) -> str:
    try:
        return f"model {label}:\n{serialize(w)}"
    except ModelError:
        return f"model {label}: (not serializable)"


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


Projection = tuple[int, list[tuple[int, int, Fraction]]]


def product_blocks(im: IndexedModel) -> list[int]:
    """The products split by the edges they enable: the full mask refined
    by every distinct guard mask of ``im.edges``, sorted by lowest product."""
    blocks = [im.feature_model.full_mask]
    for g in {g for *_, g in im.edges}:
        blocks = [part for b in blocks for part in (b & g, b & ~g) if part]
    return sorted(blocks, key=lambda b: b & -b)


def _bits(mask: int):
    """The products of ``mask``, lowest first."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


class ProductInputs(NamedTuple):
    """The blocks, each classic reference's answer once per distinct input,
    and the input that each block reads."""

    blocks: list[int]  # product_blocks(im)
    block_of: list[int]  # per product, its block's position
    orders: list[list[int]]  # per block, its classic DFS finish order
    components: list[list[list[int]]]  # per block, its Kosaraju SCCs
    projection_of: list[int]  # per block, its projection's position below
    projections: list[Projection]  # the distinct reachable projections
    lowest: list[int]  # per projection, the bit of its lowest product
    oracle: list[dict[str, Fraction | None]]  # per projection, brute force


def product_inputs(im: IndexedModel, label: str) -> ProductInputs:
    """One pass over the blocks builds each block's adjacency
    (``product_adj`` at its lowest product) and reachable projection
    (``reachable_projection``).  Once the largest projection has passed
    ``check_oracle_limit``, each classic reference runs once per distinct
    input: the DFS finishing order per block, which is also Kosaraju's
    first pass, and the oracle per projection."""
    blocks = product_blocks(im)
    bits = [block & -block for block in blocks]  # each block's lowest product
    adjs = [im.product_adj(bit) for bit in bits]
    index: dict[tuple, int] = {}
    projections: list[Projection] = []
    lowest: list[int] = []
    projection_of: list[int] = []
    for bit, adj in zip(bits, adjs):
        n, edges = reachable_projection(im, bit, adj)
        # A Fraction hashes slowly; its int pair is as exact.
        key = (n, tuple([(u, v, wt.as_integer_ratio()) for u, v, wt in edges]))
        if key not in index:
            index[key] = len(projections)
            projections.append((n, edges))
            lowest.append(bit)
        projection_of.append(index[key])
    check_oracle_limit(projections, label)
    orders = [finish_order(adj, im.n) for adj in adjs]
    components = [kosaraju_components(o, im.product_radj(bit)) for o, bit in zip(orders, bits)]
    oracle = [brute_force_mean_cycle(n, edges) for n, edges in projections]
    count = im.feature_model.full_mask.bit_length()
    block_of = _per_product([(block, i) for i, block in enumerate(blocks)], count)
    return ProductInputs(
        blocks, block_of, orders, components, projection_of, projections, lowest, oracle
    )


def check_tree(tree: FinishingTree, im: IndexedModel, inputs: ProductInputs) -> CheckResult:
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
    classic = [[im.states[u] for u in reversed(order)] for order in inputs.orders]
    lines: list[tuple[int, int, str]] = []  # (product, depth, failure)
    walk = [(tree.root, im.feature_model.full_mask)]
    while walk:
        node, here = walk.pop()
        if node.depth == n:
            path = node.path_states()
            while here:
                b = inputs.block_of[(here & -here).bit_length() - 1]
                if path != classic[b]:
                    lines += [(p, n + 1, f"product {format_product(fm.products[p])}: path "
                               f"{path} != classic finish order {classic[b]}")
                              for p in _bits(here & inputs.blocks[b])]
                here &= ~inputs.blocks[b]
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
    routes: dict[str, list[SymbolicScc]], im: IndexedModel, inputs: ProductInputs
) -> CheckResult:
    """Per product and per route, the partition read off the component
    masks equals the classic one of the product's graph, with every state
    in exactly one component.  ``routes`` maps a route's name to its
    components.  The masks are read at each block's lowest product, and at
    every product of a block that some mask holds only part of."""
    result = CheckResult("scc")
    fm = im.feature_model  # its products are named only in failures
    names = im.states
    blocks, block_of = inputs.blocks, inputs.block_of
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
            classic = inputs.components[block_of[p]]
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


def reachable_projection(im: IndexedModel, bit: int, adj: list[list[int]]) -> Projection:
    """Product ``bit``'s graph, whose adjacency is ``adj``, restricted to
    the states reachable from an initial state, renumbered in declaration
    order: the state count and ``(u, v, weight)`` edges with the model's
    own weights."""
    reach = reachable_from(adj, im.initial, im.n)
    local: dict[int, int] = {}
    for u, r in enumerate(reach):
        if r:
            local[u] = len(local)
    edges = [
        (local[u], local[v], t.weight)
        for t, (u, v, _, g) in zip(im.transitions, im.edges)
        if g & bit and reach[u]  # target is reachable too, then
    ]
    return len(local), edges


def check_oracle_limit(projections: list[Projection], label: str) -> None:
    """Raise a ModelError when a projection has more states than the
    brute-force oracle enumerates: the triangle cannot be checked."""
    largest = max(n for n, _ in projections)
    if largest > BRUTE_FORCE_MAX_STATES:
        raise ModelError(
            f"{label}: a product reaches {largest} states after length "
            f"expansion; the brute-force oracle stops at {BRUTE_FORCE_MAX_STATES}"
        )


def check_triangle(im: IndexedModel, inputs: ProductInputs, label: str) -> CheckResult:
    """Family-based == product-based == brute force, exactly, per product,
    in both modes.

    The oracle's answer is the one of the product's reachable projection,
    keyed on the projection itself: its state count and its edges, with
    each weight as an exact int pair.  The product route runs Howard
    (``best_reachable_mean``) once per projection and mode, on the
    projection's lowest product.  Howard reads only a product's reachable
    states and edges, so the products that share a projection share its
    value.  The family route runs once per mode.  Both routes read ``im``
    in the mode of its sign and one twin index of the other sign.

    The comparison runs per block: a block that lies in one family value
    class passes with one comparison of that class's value with its
    projection's two values.  Only a block that fails it is compared
    product by product, and its failures are listed by product.
    """
    result = CheckResult("triangle")
    fm = im.feature_model
    for mode, sign in (("max", 1), ("min", -1)):
        signed = im if im.sign == sign else IndexedModel(im.system, sign)
        family = _family_values(signed)
        routed = [best_reachable_mean(signed, bit) for bit in inputs.lowest]
        routed = [v if v is None else sign * v for v in routed]
        # Per product, the last class holding it, as ``_per_product`` reads
        # them; ``after[i]`` holds the products of the classes after class i.
        count = fm.full_mask.bit_length()
        owner = _per_product([(mask, i) for i, (mask, _) in enumerate(family)], count)
        after = [0] * len(family)
        for i in range(len(family) - 1, 0, -1):
            after[i - 1] = after[i] | family[i][0]
        per_product = None  # the family value of every product, once a block fails
        lines: list[tuple[int, str]] = []  # (product, failure)
        for block, which in zip(inputs.blocks, inputs.projection_of):
            prod_v, oracle_v = routed[which], inputs.oracle[which][mode]
            i = owner[(block & -block).bit_length() - 1]
            if (i is not None and not block & (~family[i][0] | after[i])
                    and family[i][1] == prod_v == oracle_v):
                continue
            if per_product is None:
                per_product = _per_product(family, count)
            for p in _bits(block):
                fam_v = per_product[p]
                if not (fam_v == prod_v == oracle_v):
                    lines.append((p, f"{label} mode={mode} product "
                                     f"{format_product(fm.products[p])}: family={fam_v} "
                                     f"product-based={prod_v} brute-force={oracle_v}"))
        result.failures += [line for _, line in sorted(lines)]
    return result


def check_model(w: Wfts, label: str = "model") -> CheckResult:
    """All suites on one system's unit steps, sharing one partition
    of the products into blocks with every classic reference's answers
    (``product_inputs``), one feature-aware DFS and two indexed graphs: the
    max-signed one that every suite reads, and its min-signed twin, which
    the triangle builds for min mode.  A model past the oracle's limit
    raises its ModelError before any suite runs.  When a suite fails, the
    failures start with one header holding ``w``'s own text, which
    ``parse`` reads back."""
    result = CheckResult(label)
    im = IndexedModel(w)
    inputs = product_inputs(im, label)
    order = dfs_order(im)
    result.merge(check_order_coverage(order))
    tree = build_finishing_tree(order)
    result.merge(check_tree(tree, im, inputs))
    routes = {"tree": symbolic_sccs(tree, im).components()}
    result.merge(check_scc_tree(routes, im, inputs))
    result.merge(check_triangle(im, inputs, label))
    if result.failures:
        result.failures.insert(0, _model_header(w, label))
    return result


def check_random_batch(seed: int, count: int) -> CheckResult:
    """The full suite over a deterministic batch of random systems."""
    result = CheckResult(f"random batch seed={seed} count={count}")
    for i, w in enumerate(random_corpus(seed, count)):
        result.merge(check_model(w, label=f"random[{seed}:{i}]"))
    return result
