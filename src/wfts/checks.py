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
``check_model`` builds two of each.  The per-product projections come
from the unit steps, the arcs of the length expansion's own index,
``IndexedModel(expand_lengths(w))``.
The brute-force oracle alone takes the model's own weights
(``reachable_projection``): unsigned Fractions that it scales to ints by
the lcm of their own denominators, summing paths in ints and comparing
cycles by cross-multiplication in each mode.  Neither that scale nor that
comparison comes from the index, so the oracle checks the index's sign and
scale instead of sharing them.

Every product is compared, but the oracle runs once per distinct input,
in one place (``product_inputs``).  The unit is a block
(``product_blocks``): the products that enable the same edges, an atom of
the guards' algebra, so that every mask a correct symbolic route computes
holds a block whole or not at all.  Each block gets one adjacency and one
reachable projection; blocks with the same projection share one oracle
enumeration, which answers both modes.  A model that the oracle cannot
enumerate is rejected before the oracle or the triangle runs; one with
more unit states than the oracle's limit, before its lengths are
expanded.  The
triangle compares a block at a time where its products agree; the product
route, which is under test, runs in it once per projection and mode, on
the live view it shares with the family route.

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
from .graphs import IndexedModel, reachable_from, refine, successors
from .meancycle import BRUTE_FORCE_MAX_STATES, best_reachable_mean, brute_force_mean_cycle
from .model import ModelError, Wfts, expand_lengths
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


Projection = tuple[int, list[tuple[int, int, Fraction]]]


def product_blocks(im: IndexedModel) -> list[int]:
    """The products split by the edges they enable: the full mask refined
    (``refine``) by the guards of ``im.arcs``, which are those of the unit
    steps less the true guard of a chain's later steps."""
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
    lowest: list[int]  # per projection, the bit of its lowest product
    oracle: list[dict[str, Fraction | None]]  # per projection, brute force


def product_inputs(im: IndexedModel, label: str) -> ProductInputs:
    """One pass over the blocks builds each block's reachable projection
    (``reachable_projection``) at its lowest product, on the unit steps,
    and the oracle runs once per projection.  A model with more unit
    states than the oracle enumerates is first checked on its declared
    arcs (``unit_states``), so that ``check_oracle_limit`` refuses it
    before its lengths are expanded."""
    blocks = product_blocks(im)
    if im.n > BRUTE_FORCE_MAX_STATES:
        check_oracle_limit(max(unit_states(im, block & -block) for block in blocks), label)
    unit = IndexedModel(expand_lengths(im.system))
    index: dict[tuple, int] = {}
    projections: list[Projection] = []
    lowest: list[int] = []
    projection_of: list[int] = []
    for block in blocks:
        bit = block & -block  # the block's lowest product
        n, edges = reachable_projection(unit, bit)
        # A Fraction hashes slowly; its int pair is as exact.
        key = (n, tuple([(u, v, wt.as_integer_ratio()) for u, v, wt in edges]))
        if key not in index:
            index[key] = len(projections)
            projections.append((n, edges))
            lowest.append(bit)
        projection_of.append(index[key])
    oracle = [brute_force_mean_cycle(n, edges) for n, edges in projections]
    return ProductInputs(blocks, projection_of, projections, lowest, oracle)


def reachable_projection(im: IndexedModel, bit: int) -> Projection:
    """Product ``bit``'s graph of ``im``'s arcs, restricted to the states
    reachable from an initial state, renumbered in declaration order: the
    state count and ``(u, v, weight)`` edges with the model's own weights.
    On the index of a length expansion, these are the unit steps."""
    reach = reachable_from(successors(im, bit), im.initial, len(im.system.states))
    local: dict[int, int] = {}
    for u, r in enumerate(reach):
        if r:
            local[u] = len(local)
    edges = [
        (local[u], local[v], t.weight)
        for t, (u, v, _, _, g, _) in zip(im.system.transitions, im.arcs)
        if g & bit and reach[u]  # target is reachable too, then
    ]
    return len(local), edges


def unit_states(im: IndexedModel, bit: int) -> int:
    """The unit states that product ``bit`` reaches from an initial state,
    counted on ``im``'s declared arcs: the reachable declared states, and
    the ℓ − 1 ``#`` states of each reachable arc of length ℓ it enables.
    That is the state count of its reachable projection on the unit steps."""
    reach = reachable_from(successors(im, bit), im.initial, len(im.system.states))
    return sum(reach) + sum(ln - 1 for u, _, _, ln, g, _ in im.arcs if g & bit and reach[u])


def check_oracle_limit(largest: int, label: str) -> None:
    """Raise a ModelError when a product reaches ``largest`` unit states,
    more than the brute-force oracle enumerates: the triangle cannot be
    checked."""
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
    """The oracle triangle on one system, on the blocks and oracle answers
    of ``product_inputs`` and two indexed graphs: the max-signed one, and
    its min-signed twin, which the triangle builds for min mode.  A model
    past the oracle's limit raises its ModelError before the triangle
    runs.  When it fails, the failures start with one header holding
    ``w``'s own text, which ``parse`` reads back."""
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
