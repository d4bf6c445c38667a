"""Cross-validation: every analysis result against a brute-force oracle.

The oracle triangle, used both by the test suite and by the ``validate``
CLI command: family-based, product-based and brute-force cycle
enumeration report identical values for every product, in both modes.
The paper's finishing-order tree and its symbolic components feed no
value or witness that ``analyze`` prints, so they and their classic
DFS and Kosaraju references are the tests' (``tests/paper_reference.py``),
which read the blocks below.

The family and product routes read one ``IndexedModel`` and its one live
view, and the triangle adds its min-signed twin for min mode, so that
``check_model`` builds two of each.  The per-product projections read the
same index's declared arcs, each with its length.
The brute-force oracle alone takes the model's own weights
(``reachable_projection``): unsigned Fractions that it scales to ints by
the lcm of their own denominators, summing paths' weights and lengths in
ints and comparing cycles by cross-multiplication in each mode.  Neither
that scale nor that comparison comes from the index, so the oracle checks
the index's sign and scale instead of sharing them.

Every product is compared, but the oracle runs once per distinct input,
in one place (``product_inputs``).  The unit is a block
(``product_blocks``): the products that enable the same edges, an atom of
the guards' algebra, so that every mask a correct symbolic route computes
holds a block whole or not at all.  Each block reads its reach off one
``spread`` over the declared arcs and gets one reachable projection;
blocks with the same projection share one oracle enumeration, which
answers both modes.  A model that the oracle cannot enumerate, with a
block that reaches more declared states than the oracle's limit, is
rejected before any projection is built.  Both value routes run once per
mode, as ``analyze --strategy both`` runs them, and share their index's
live view; the triangle compares their classes once per mode, and each
block with the oracle at once where its products agree.

Failures carry enough context to reproduce: ``check_model`` adds one header
with the model text as given, and each line names the product and the
disagreeing values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .analysis import _family_values, _per_product, _product_values, format_product
from .dsl import serialize
from .graphs import IndexedModel, refine, spread
from .meancycle import BRUTE_FORCE_MAX_STATES, brute_force_mean_cycle
from .model import ModelError, Wfts
from .randgen import random_corpus


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


Projection = tuple[int, list[tuple[int, int, Fraction, int]]]


def product_blocks(im: IndexedModel) -> list[int]:
    """The products split by the edges they enable: the full mask refined
    (``refine``) by the guards of ``im.arcs``."""
    return refine(im.feature_model.full_mask, [arc[4] for arc in im.arcs])


def _bits(mask: int):
    """The products of ``mask``, lowest first."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


class ProductInputs(NamedTuple):
    """The blocks, the oracle's answer once per distinct projection, and
    the projection that each block reads."""

    blocks: list[int]  # product_blocks(im)
    projection_of: list[int]  # per block, its projection's position below
    projections: list[Projection]  # the distinct reachable projections
    oracle: list[dict[str, Fraction | None]]  # per projection, brute force


def product_inputs(im: IndexedModel, label: str) -> ProductInputs:
    """One ``spread`` from the initial states over the declared arcs gives,
    per declared state, the products that reach it; each block's reach is
    read off it at the block's lowest product.  A block that reaches more
    declared states than the oracle enumerates raises a ModelError before
    any projection is built; every other block gets its reachable
    projection (``reachable_projection``).  The oracle runs once per
    distinct projection."""
    blocks = product_blocks(im)
    bits = [block & -block for block in blocks]  # each block's lowest product
    adj: list[list[tuple[int, int]]] = [[] for _ in im.system.states]
    for u, v, _, _, g, _ in im.arcs:
        adj[u].append((v, g))
    masks = spread([(s, im.feature_model.full_mask) for s in im.initial], [0] * len(adj), adj)
    reaches = [[bool(m & bit) for m in masks] for bit in bits]
    largest = max(map(sum, reaches))
    if largest > BRUTE_FORCE_MAX_STATES:
        raise ModelError(f"{label}: a product reaches {largest} states; "
                         f"the brute-force oracle stops at {BRUTE_FORCE_MAX_STATES}")
    index: dict[tuple, int] = {}
    projections: list[Projection] = []
    projection_of: list[int] = []
    for bit, reach in zip(bits, reaches):
        n, edges = reachable_projection(im, bit, reach)
        # A Fraction hashes slowly; its int pair is as exact.
        key = (n, tuple([(u, v, wt.as_integer_ratio(), ln) for u, v, wt, ln in edges]))
        if key not in index:
            index[key] = len(projections)
            projections.append((n, edges))
        projection_of.append(index[key])
    oracle = [brute_force_mean_cycle(n, edges) for n, edges in projections]
    return ProductInputs(blocks, projection_of, projections, oracle)


def reachable_projection(im: IndexedModel, bit: int, reach: list[bool]) -> Projection:
    """Product ``bit``'s graph of ``im``'s declared arcs, restricted to the
    states it reaches from an initial state (``reach``, per declared
    state), renumbered in declaration order: the state count and ``(u, v,
    weight, length)`` edges with the model's own weights."""
    local: dict[int, int] = {}
    for u, r in enumerate(reach):
        if r:
            local[u] = len(local)
    edges = [
        (local[u], local[v], t.weight, ln)
        for t, (u, v, _, ln, g, _) in zip(im.system.transitions, im.arcs)
        if g & bit and reach[u]  # target is reachable too, then
    ]
    return len(local), edges


def check_triangle(im: IndexedModel, inputs: ProductInputs, label: str) -> CheckResult:
    """Family-based == product-based == brute force, exactly, per product,
    in both modes.

    The oracle's answer is the one of the product's reachable projection,
    keyed on the projection itself: its state count and its edges, with
    each weight as an exact int pair.  The routes are the ones ``analyze``
    runs: ``_family_values`` and ``_product_values``, with the product
    route's blocks, warm starts and carried certificates, once per mode,
    on ``im`` in the mode of its sign and on one twin index of the other
    sign.  Their classes are compared once per mode, as lists.

    The comparison with the oracle runs per block: when the two routes'
    classes are equal, a block that lies in one family value class passes
    with one comparison of that class's value with its projection's oracle
    value.  Any other block is compared product by product, and its
    failures are listed by product, each with both routes' values.
    """
    result = CheckResult("triangle")
    fm = im.feature_model
    count = fm.full_mask.bit_length()
    for mode, sign in (("max", 1), ("min", -1)):
        signed = im if im.sign == sign else IndexedModel(im.system, sign)
        family = _family_values(signed)
        routed = _product_values(signed)
        same = routed == family
        # Per product, the last class holding it, as ``_per_product`` reads
        # them; ``after[i]`` holds the products of the classes after class i.
        owner = _per_product([(mask, i) for i, (mask, _) in enumerate(family)], count)
        after = [0] * len(family)
        for i in range(len(family) - 1, 0, -1):
            after[i - 1] = after[i] | family[i][0]
        per_product = None  # both routes' values of every product, once a block fails
        lines: list[tuple[int, str]] = []  # (product, failure)
        for block, which in zip(inputs.blocks, inputs.projection_of):
            oracle_v = inputs.oracle[which][mode]
            i = owner[(block & -block).bit_length() - 1]
            if (same and i is not None and not block & (~family[i][0] | after[i])
                    and family[i][1] == oracle_v):
                continue
            if per_product is None:
                per_product = list(zip(_per_product(family, count), _per_product(routed, count)))
            for p in _bits(block):
                fam_v, prod_v = per_product[p]
                if not (fam_v == prod_v == oracle_v):
                    lines.append((p, f"{label} mode={mode} product "
                                     f"{format_product(fm.products[p])}: family={fam_v} "
                                     f"product-based={prod_v} brute-force={oracle_v}"))
        result.failures += [line for _, line in sorted(lines)]
    return result


def check_model(w: Wfts, label: str = "model") -> CheckResult:
    """The oracle triangle on one system, on the blocks and oracle answers
    of ``product_inputs`` and two indexed graphs: the max-signed one, and
    its min-signed twin, which the triangle builds for min mode.  A model
    with a block past the oracle's limit of declared states raises its
    ModelError before the triangle runs.  When it fails, the failures
    start with one header holding ``w``'s own text, which ``parse`` reads
    back."""
    result = CheckResult(label)
    im = IndexedModel(w)
    result.merge(check_triangle(im, product_inputs(im, label), label))
    if result.failures:
        result.failures.insert(0, _model_header(w, label))
    return result


def check_random_batch(seed: int, count: int) -> CheckResult:
    """The full suite over a deterministic batch of random systems."""
    result = CheckResult(f"random batch seed={seed} count={count}")
    for i, w in enumerate(random_corpus(seed, count)):
        result.merge(check_model(w, label=f"random[{seed}:{i}]"))
    return result
