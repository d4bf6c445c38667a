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

Every suite reads the per-product graphs off one ``IndexedModel``, as both
analyses do; the triangle adds its min-signed twin for min mode, so that
``check_model`` builds two.  The brute-force oracle alone takes the model's
own weights (``reachable_projection``): unsigned Fractions that it scales
to ints by the lcm of their own denominators, summing paths in ints and
comparing cycles by cross-multiplication in each mode.  Neither that scale
nor that comparison comes from the index, so the oracle checks the index's
sign and scale instead of sharing them.

Every product is compared, but each classic reference runs once per
distinct input, in one place (``product_inputs``): products with the same
graph share one DFS finishing order, which is both the tree's reference
and the first pass of their Kosaraju partition, and products with the same
reachable projection share one oracle enumeration, which answers both
modes at once.  Both keys are read off the plain per-product graphs, never
off a symbolic result, in one pass that builds each product's adjacency
once.  A model that the oracle cannot enumerate is rejected right after
that pass, before any reference or suite runs.  The suites only compare;
the product route, which is under test, runs in the triangle once per
projection and mode.

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
from .scc import SymbolicScc, product_owners, symbolic_sccs


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


class ProductInputs(NamedTuple):
    """Each classic reference's answer, once per distinct input, and the
    input that each product reads."""

    graph_of: list[int]  # per product, its graph's position in the two below
    orders: list[list[int]]  # per distinct graph, its classic DFS finish order
    components: list[list[list[int]]]  # per distinct graph, its Kosaraju SCCs
    projection_of: list[int]  # per product, its projection's position below
    projections: list[Projection]  # the distinct reachable projections
    lowest: list[int]  # per projection, the bit of its lowest product
    oracle: list[dict[str, Fraction | None]]  # per projection, brute force


def product_inputs(im: IndexedModel, label: str) -> ProductInputs:
    """One pass over the products groups them: each product's adjacency
    (``product_adj``) is built once, keys its graph and gives its reachable
    projection (``reachable_projection``).  Then each classic reference
    runs once per distinct input: the DFS finishing order per graph, which
    is also Kosaraju's first pass, and the oracle per projection, once the
    largest projection has passed ``check_oracle_limit``."""
    graphs: dict[tuple, int] = {}  # adjacency -> its position
    bits: list[int] = []  # per graph, the bit of its lowest product
    graph_of: list[int] = []
    index: dict[tuple, int] = {}
    projections: list[Projection] = []
    lowest: list[int] = []
    projection_of: list[int] = []
    for p in range(len(im.feature_model.products)):
        bit = 1 << p
        adj = im.product_adj(bit)
        graph_of.append(graphs.setdefault(tuple(map(tuple, adj)), len(graphs)))
        if len(bits) < len(graphs):
            bits.append(bit)
        n, edges = reachable_projection(im, bit, adj)
        # A Fraction hashes slowly; its int pair is as exact.
        key = (n, tuple([(u, v, wt.as_integer_ratio()) for u, v, wt in edges]))
        if key not in index:
            index[key] = len(projections)
            projections.append((n, edges))
            lowest.append(bit)
        projection_of.append(index[key])
    check_oracle_limit(projections, label)
    orders = [finish_order(adj, im.n) for adj in graphs]
    components = [
        kosaraju_components(order, im.product_radj(bit)) for order, bit in zip(orders, bits)
    ]
    oracle = [brute_force_mean_cycle(n, edges) for n, edges in projections]
    return ProductInputs(
        graph_of, orders, components, projection_of, projections, lowest, oracle
    )


def check_tree(tree: FinishingTree, im: IndexedModel, inputs: ProductInputs) -> CheckResult:
    """The five structural tree conditions, including per-product fidelity
    against the classic DFS finishing order of the product's graph."""
    result = CheckResult("tree")
    fm = im.feature_model
    n = im.n

    for leaf in tree.leaves():
        if leaf.depth != n:
            result.failures.append(
                f"leaf {leaf.state} at depth {leaf.depth}, expected {n}"
            )
    for node in tree.nodes:
        states = node.path_states()
        if len(set(states)) != len(states):
            result.failures.append(f"repeated state on path {states}")
        for i, a in enumerate(node.children):
            for b in node.children[i + 1:]:
                if a.edge_mask & b.edge_mask:
                    result.failures.append(
                        f"sibling edges overlap below {node.state or 'root'}"
                    )

    # A path lists states in decreasing finishing time: n, n-1, ..., 1.
    classic = [[im.states[u] for u in reversed(order)] for order in inputs.orders]
    for p_idx, product in enumerate(fm.products):
        bit = 1 << p_idx
        node = tree.root
        path = []
        ok = True
        for depth in range(1, n + 1):
            matching = [c for c in node.children if c.edge_mask & bit]
            if len(matching) != 1:
                result.failures.append(
                    f"product {format_product(product)} matches {len(matching)} "
                    f"children at depth {depth}"
                )
                ok = False
                break
            node = matching[0]
            if not node.path_mask & bit:
                result.failures.append(
                    f"product {format_product(product)} missing from path mask "
                    f"at depth {depth}"
                )
            path.append(node.state)
        if not ok:
            continue
        expected = classic[inputs.graph_of[p_idx]]
        if path != expected:
            result.failures.append(
                f"product {format_product(product)}: path {path} != classic "
                f"finish order {expected}"
            )
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
    components."""
    result = CheckResult("scc")
    fm = im.feature_model
    names = im.states
    by_route = {
        route: product_owners(components, len(fm.products), im.n)
        for route, components in routes.items()
    }
    labels = []  # per graph, each state's classic component id
    for classic in inputs.components:
        label = [0] * im.n
        for cid, comp in enumerate(classic):
            for u in comp:
                label[u] = cid
        labels.append(label)
    for p_idx, product in enumerate(fm.products):
        graph = inputs.graph_of[p_idx]
        classic, label = inputs.components[graph], labels[graph]
        where = f"product {format_product(product)}"
        for route, owners in by_route.items():
            owner = owners[p_idx]
            # Equal partitions: owner and label determine each other.
            pairs = len(set(zip(owner, label)))
            if min(owner, default=0) >= 0 and pairs == len(set(owner)) == len(classic):
                continue
            symbolic: dict[int, list[int]] = {}
            for u, c in enumerate(owner):
                if c >= 0:
                    symbolic.setdefault(c, []).append(u)
            result.failures.append(
                f"{route} route, {where}: symbolic SCCs "
                f"{_named(list(symbolic.values()), names)} != classic "
                f"{_named(classic, names)}"
            )
            for u, c in enumerate(owner):
                if c == -2:
                    result.failures.append(
                        f"{route} route, {where}: state {names[u]} in two components"
                    )
            assigned = sum(1 for c in owner if c != -1)
            if assigned != im.n:
                result.failures.append(
                    f"{route} route, {where}: {assigned} of {im.n} states assigned"
                )
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
    value; a graph key, which holds target lists only, would not do.  The
    family route runs once per mode.  Both routes read ``im`` in the mode
    of its sign and one twin index of the other sign.
    """
    result = CheckResult("triangle")
    products = im.feature_model.products
    for mode, sign in (("max", 1), ("min", -1)):
        signed = im if im.sign == sign else IndexedModel(im.wfts, sign)
        family = _per_product(_family_values(signed), len(products))
        routed = [best_reachable_mean(signed, bit) for bit in inputs.lowest]
        routed = [v if v is None else sign * v for v in routed]
        for p_idx, product in enumerate(products):
            which = inputs.projection_of[p_idx]
            fam_v, prod_v, oracle_v = family[p_idx], routed[which], inputs.oracle[which][mode]
            if not (fam_v == prod_v == oracle_v):
                result.failures.append(
                    f"{label} mode={mode} product {format_product(product)}: "
                    f"family={fam_v} product-based={prod_v} brute-force={oracle_v}"
                )
    return result


def check_model(w: Wfts, label: str = "model") -> CheckResult:
    """All suites on one system's length expansion, sharing one grouping of
    the products with every classic reference's answers
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
