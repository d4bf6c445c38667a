"""Per-product limit-average reports, family-based and product-based.

Both strategies answer the same question for every valid product: the best
(maximum or minimum) long-run average transition weight over infinite runs
from an initial state, which equals the best mean-weight cycle reachable
from an initial state.  Products whose reachable subgraph is acyclic have no
infinite run and report "undefined".

A report holds the values as disjoint ``(product mask, value)`` classes
and the witnesses as disjoint ``(product mask, cycle)`` cells; its
``outcomes`` are their per-product view.  The renderers
(``report_to_json``, ``report_to_csv``, ``report_to_table``) write the
text of each class and cell once and spread it to the products they
hold.  ``analyze_family`` runs one
Howard policy iteration for every product at once, on the live graph (per
state, the products that reach it from an initial state and have an
infinite run from it), with policies and values held as cells of
products, and merges each product's values at its initial states;
``analyze_products`` solves each distinct live graph separately, once
per block of products that keep the same arcs of the index's live view,
by the same policy iteration, each run started from the arcs the runs
before it improved to.  Both read the one live view of their index.
They must agree exactly; ``analyze_both`` enforces that.
One witness stage, ``_witnesses``, is a symbolic pass over the classes: per
product, the witness lies in the tight component of the critical state (a
state on a cycle of optimal mean) that finishes last in the classic DFS of
the tight graph, and is the cycle a walk through that component closes.

Both take a system as written and read one ``IndexedModel`` per call, built
by ``_analyze``: it indexes the declared transitions, each an arc of
weight and length, and cycle means are taken per unit step, a cycle's
total weight over its total length.  The value routes read its series
view, one arc per chain of pass-through states; the witness stage reads
the declared arcs, so that a witness names the declared states a run
visits.  Neither expands the lengths into unit steps.  One sign
convention holds throughout: min mode runs the maximizing algorithms on
weights negated once, inside ``IndexedModel``, and negates the values
they return, once per class.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii
from math import lcm
from typing import Iterator

from .features import FeatureModel
from .graphs import IndexedModel, refine, spread
from .meancycle import _paint, family_means, product_keys
from .model import Wfts
from .ordering import dfs_order

Classes = list[tuple[int, Fraction | None]]  # disjoint (product mask, value)


class StrategyMismatch(AssertionError):
    """Two value routes disagreed, or a cycle beats a reported value."""


@dataclass(frozen=True)
class ProductOutcome:
    product: frozenset
    value: Fraction | None  # None = undefined (no reachable cycle)
    witness: tuple[str, ...] | None = None


@dataclass
class Report:
    """The result: the values as disjoint ``(product mask, value)`` classes
    covering every product, one per distinct value (None = undefined), by
    lowest product; when sought, the witnesses as disjoint ``(product mask,
    cycle)`` cells, one per distinct cycle, covering exactly the products
    with a value.  ``outcomes`` is their per-product view, built on first
    read."""

    mode: str
    classes: Classes
    witnesses: list[tuple[int, tuple[str, ...]]] | None
    timing_ms: dict
    wfts: Wfts

    @cached_property
    def outcomes(self) -> tuple[ProductOutcome, ...]:
        """One outcome per product, in enumeration order."""
        products = self.wfts.feature_model.products
        return tuple(map(ProductOutcome, products, _per_product(self.classes, len(products)),
                         _per_product(self.witnesses or [], len(products))))

    def value_of(self, product) -> Fraction | None:
        bit = 1 << self.wfts.feature_model.product_index(product)
        return next(value for mask, value in self.classes if mask & bit)


def _per_product(cells: list[tuple[int, object]], count: int, default=None) -> list:
    """Per product, the item of the disjoint cell holding it, else ``default``."""
    items = [default] * count
    for mask, item in cells:
        bits = bin(mask)[:1:-1]  # the digit of product p at index p
        p = bits.find("1")
        while p >= 0:
            items[p] = item
            p = bits.find("1", p + 1)
    return items


def _merge(im: IndexedModel, cells) -> Classes:
    """The classes of ``(product mask, (num, den))`` cells of a maximizing
    route, over ``im``'s scaled weights: each product takes the best mean
    of the cells holding it, else None, as a ``Fraction`` built once per
    class and negated in min mode; ordered by lowest product.  The means
    are ranked as ints over ``span``, the lcm of the dens of the cells."""
    cells = [cell for cell in cells if cell[1] is not None]
    span = lcm(*[den for _, (_, den) in cells])
    candidates: dict[int, int] = {}
    for mask, (num, den) in cells:
        key = num * (span // den)
        candidates[key] = candidates.get(key, 0) | mask
    classes = [(mask, None if key is None else Fraction(im.sign * key, span * im.scale))
               for mask, key in _paint(candidates, im.feature_model.full_mask)]
    return sorted(classes, key=lambda cell: cell[0] & -cell[0])


def _family_values(im: IndexedModel) -> Classes:
    """The products' best means as value classes, via the symbolic
    pipeline: one policy iteration over product sets on the live graph."""
    return _merge(im, family_means(im))


def _product_values(im: IndexedModel) -> Classes:
    """The products' best means as value classes, one Howard run per
    distinct live graph: the products with a live initial state, refined
    (``refine``) by the products of each arc of ``im.live``, each run
    started from the arcs the runs before it improved to.  Every other
    product is undefined."""
    live = im.live
    reach = 0
    for s in im.series.initial:
        reach |= live.masks[s]
    blocks = refine(reach, [arc[0] for arcs in live.arcs for arc in arcs]) if reach else []
    return _merge(im, zip(blocks, product_keys(im, blocks)))


def _tight_graph(
    im: IndexedModel, classes: list[tuple[int, Fraction]]
) -> list[list[tuple[int, int, int]]]:
    """Per declared state, its out-arcs in declaration order as ``(first
    hop, target, tight mask)`` triples, without the arcs that are tight
    for no product.

    For a value class with ``a/b`` its signed, scaled value, the level of a
    state is the longest walk from an initial state with every arc of
    weight w and length ℓ shifted to ``w·b − a·ℓ``, its unit steps'
    shifts summed; it is finite because the value is the best cycle mean,
    so no shifted cycle is positive.  The levels come from one
    label-correcting pass over ``(level → products)`` cells per state, in
    first-in first-out order as Bellman–Ford's rounds.  Each entry carries
    the number of unit steps of its walk; without a positive shifted cycle
    every level is met first by a walk that visits no declared state
    twice, which has fewer than ``im.n`` steps, so a push at ``im.n`` or
    more raises ``StrategyMismatch``: a cycle beats the value.  An arc is
    tight for a product that enables it when the target's level is the
    source's plus the shifted weight.  The classes are disjoint, so one
    mask per arc holds all of them.
    """
    n = len(im.system.states)
    arcs: list[list[tuple[int, int, int, int, int]]] = [[] for _ in range(n)]
    for e, (u, v, w, length, g, _) in enumerate(im.arcs):
        if g:
            arcs[u].append((e, v, w, length, g))
    tight = [0] * len(im.arcs)
    for mask, value in classes:
        num, b = value.as_integer_ratio()
        a = im.sign * im.scale * num
        level: list[dict[int, int] | None] = [None] * n
        have = [0] * n  # per state, the products with a level
        queue = []
        for s in im.initial:
            level[s] = {0: mask}
            have[s] = mask
            queue.append((s, mask, 0, 0))
        for u, m, lu, steps in queue:  # first in, first out: the loop sees appends
            m &= level[u].get(lu, 0)  # products still at this level
            if not m:
                continue
            for _, v, w, length, g in arcs[u]:
                gain = m & g
                if not gain:
                    continue
                c = lu + w * b - a * length
                cells = level[v]
                if cells is None:
                    cells = level[v] = {}
                elif gain & have[v]:
                    # Cells partition the products: a lower cell meets
                    # ``gain`` only in products that no higher cell holds.
                    lower = []
                    for lv, mv in cells.items():
                        if lv >= c:
                            gain &= ~mv
                        elif mv & gain:
                            lower.append(lv)
                    if not gain:
                        continue
                    for lv in lower:
                        rest = cells.pop(lv) & ~gain
                        if rest:
                            cells[lv] = rest
                if steps + length >= im.n:
                    raise StrategyMismatch(f"a cycle beats the value {value} "
                                           f"under {im.feature_model.expr_for_mask(gain)}")
                have[v] |= gain
                cells[c] = cells.get(c, 0) | gain
                queue.append((v, gain, c, steps + length))
        for u, here in enumerate(level):
            if not here:
                continue
            for e, v, w, length, g in arcs[u]:
                there = level[v]
                if there is None:
                    continue
                shift = w * b - a * length
                for lu, mu in here.items():
                    hit = mu & g & there.get(lu + shift, 0)
                    if hit:
                        tight[e] |= hit
    out: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for (u, v, *_, hop), m in zip(im.arcs, tight):
        if m:
            out[u].append((hop, v, m))
    return out


def _witnesses(im: IndexedModel, classes: Classes) -> list[tuple[int, tuple[str, ...]]]:
    """Per product with a value in ``classes``, an optimal cycle of that
    value, as declared state names, for all products in one symbolic
    pass: disjoint ``(product mask, cycle)`` cells, one per distinct
    cycle.

    The rule, on each product's reachable subgraph of unit steps with
    ``im``'s signed weights: every cycle of the tight graph is optimal,
    and a state is *critical* when it lies on one.  The witness lies in
    the tight component of the critical state that finishes last in the
    classic DFS of the tight graph (roots in index order, out-edges in
    declaration order).  The walk starts at that component's smallest
    state and steps to the smallest successor inside it until a state
    repeats; the cycle it closes, rotated to its smallest state, is the
    witness, without the ``#`` states of length expansion.

    A product whose tight graph has no cycle has a value no cycle attains,
    above the best, and ends the stage in ``StrategyMismatch``; one below
    the best already fails ``_tight_graph``'s level pass.

    The stage applies that rule to the declared arcs (``_tight_graph``),
    which gives the unit steps' answer exactly.  Every ``#`` state is
    indexed after every declared state and has one way in, from its
    chain's source, which is tight wherever the state has a level: so a
    chain lies on a tight cycle exactly when its arc is tight, a DFS
    visits it from its source, every critical state that finishes last is
    declared, and components and walks meet the declared states in the
    unit steps' order.  The walk ranks out-arcs by their first hop: the
    target's index for length 1, else the index of the chain's first
    ``#`` state.  The series view would not do: it drops declared
    pass-through states, which witnesses name and which can root the DFS
    before a kept state.

    Symbolically, the DFS is ``dfs_order`` on the tight graph, and the
    component comes from Kosaraju's second pass over its entries from the
    last: an entry spreads backward, under its products not yet assigned,
    to its component, and the products whose component has a tight arc
    are done.  Kosaraju emits components in decreasing finishing time of
    their roots, so that component holds the last critical state to
    finish.  States without a tight arc in or out are assigned from the
    start: each is a component of its own without an arc.  The walk
    splits the product sets wherever the first successor differs.  A
    system given already expanded names its ``#`` states as declared
    ones; they are dropped from the rendering too.
    """
    classes = [(mask, value) for mask, value in classes if value is not None]
    context = sum(mask for mask, _ in classes)  # the classes are disjoint
    if not context:
        return []
    n = len(im.system.states)
    ranked = _tight_graph(im, classes)
    out = [[(v, m) for _, v, m in arcs] for arcs in ranked]
    pred: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    into = [0] * n
    onward = [0] * n
    for u, edges in enumerate(out):
        for v, m in edges:
            pred[v].append((u, m))
            into[v] |= m
            onward[u] |= m

    # Kosaraju's second pass, up to each product's first component with an
    # arc; the states without a tight arc in or out start assigned.
    assigned = [context & ~(i & o) for i, o in zip(into, onward)]
    component = [0] * n
    left = context
    for u, mask in reversed(dfs_order(out, im.system.states, context).stamps):
        fresh = mask & left & ~assigned[u]
        if not fresh:
            continue
        masks = spread([(u, fresh)], assigned, pred)
        cyclic = 0
        for x, m in enumerate(masks):
            if m:
                assigned[x] |= m
                for y, tm in out[x]:
                    cyclic |= m & tm & masks[y]
        if cyclic:
            left ^= cyclic
            for x, m in enumerate(masks):
                component[x] |= m & cyclic
            if not left:
                break
    for mask, value in classes:  # a value no tight cycle attains is above the best
        if mask & left:
            raise StrategyMismatch(f"no cycle attains the value {value} "
                                   f"under {im.feature_model.expr_for_mask(mask & left)}")

    found: dict[tuple[str, ...], int] = {}
    walks: list[tuple[int, list[int]]] = []
    left = context  # every product now has its component
    for u, m in enumerate(component):
        hit = m & left
        if hit:
            walks.append((hit, [u]))
            left ^= hit
    states = im.system.states
    while walks:
        products, path = walks.pop()
        for _, v, m in sorted(ranked[path[-1]]):
            hit = products & m & component[v]
            if not hit:
                continue
            products ^= hit
            if v in path:
                cycle = path[path.index(v):]
                pivot = cycle.index(min(cycle))
                names = [states[u] for u in cycle[pivot:] + cycle[:pivot]]
                witness = tuple(s for s in names if "#" not in s) or tuple(names)
                found[witness] = found.get(witness, 0) | hit
            else:
                walks.append((hit, path + [v]))
            if not products:
                break
    return [(mask, witness) for witness, mask in found.items()]


def _timed(timing: dict, key: str, stage, *args):
    """``stage(*args)``, with its time put into ``timing[key]``."""
    start = time.perf_counter()
    result = stage(*args)
    timing[key] = (time.perf_counter() - start) * 1000.0
    return result


def _analyze(w: Wfts, mode: str, witnesses: bool, **routes) -> Report:
    """The report of the value classes that ``routes`` compute on one
    indexed graph, each timed under its keyword.  Their classes must be
    equal, and are compared before any witness is sought."""
    if mode not in ("max", "min"):
        raise ValueError(f"mode must be 'max' or 'min', not {mode!r}")
    im = IndexedModel(w, 1 if mode == "max" else -1)
    timing: dict = {}
    classes, *others = [_timed(timing, key, route, im) for key, route in routes.items()]
    for other in others:
        if other != classes:
            count = w.feature_model.full_mask.bit_length()
            lines = [
                f"  product {format_product(p)}: family={v1} product-based={v2}"
                for p, v1, v2 in zip(w.feature_model.products, _per_product(classes, count),
                                     _per_product(other, count))
                if v1 != v2
            ]
            raise StrategyMismatch(
                "family-based and product-based analyses disagree:\n" + "\n".join(lines)
            )
    found = _timed(timing, "witness_ms", _witnesses, im, classes) if witnesses else None
    return Report(mode, classes, found, timing, w)


def analyze_family(w: Wfts, mode: str = "max", witnesses: bool = False) -> Report:
    """Family-based analysis: one symbolic run answering every product."""
    return _analyze(w, mode, witnesses, family_ms=_family_values)


def analyze_products(w: Wfts, mode: str = "max", witnesses: bool = False) -> Report:
    """Product-based baseline: solve each distinct product graph once, in
    order of lowest product, each from the arcs earlier runs improved to."""
    return _analyze(w, mode, witnesses, product_ms=_product_values)


def analyze_both(w: Wfts, mode: str = "max", witnesses: bool = False) -> Report:
    """Run both strategies on one indexed graph and fail loudly if they
    disagree anywhere, before any witness is sought."""
    return _analyze(w, mode, witnesses,
                    family_ms=_family_values, product_ms=_product_values)


# -- rendering ---------------------------------------------------------------

def format_product(product: frozenset) -> str:
    if not product:
        return "{}"
    return "{" + ",".join(sorted(product)) + "}"


def decimal2(value: Fraction) -> str:
    """Exact half-up (away from zero) rendering to two decimal places."""
    sign = "-" if value < 0 else ""
    num, den = abs(value.numerator), value.denominator
    q, r = divmod(num * 100, den)
    if 2 * r >= den:
        q += 1
    return f"{sign}{q // 100}.{q % 100:02d}"


def value_text(value: Fraction | None) -> str:
    """A value as a report writes it: exact, or "undefined"."""
    return "undefined" if value is None else str(value)


def product_rows(report: Report) -> Iterator[tuple[tuple[str, ...], str]]:
    """Per product, in enumeration order: its features in declaration order
    and its value's text, made once per value class."""
    fm = report.wfts.feature_model
    texts = _per_product([(mask, value_text(value)) for mask, value in report.classes],
                         fm.full_mask.bit_length())
    return zip(fm.tabulate((), lambda rows, f: [(f,) + row for row in rows]), texts)


def _block(items: list[str], indent: int, brackets: str = "[]") -> str:
    """Encoded items as ``json.dumps(..., indent=2)`` lays out a list (or,
    with "{}", an object) that opens ``indent`` spaces in."""
    if not items:
        return brackets
    inner = "\n" + " " * (indent + 2)
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}\n{' ' * indent}{brackets[1]}"


def report_to_json(report: Report) -> str:
    """The report as ``json.dumps(..., indent=2)`` writes it, byte for byte,
    without the pure-Python encoder that an indent selects: strings go
    through the C ``encode_basestring_ascii``.  Each product's feature list
    is built the way ``FeatureModel`` enumerates the products, and its
    value and witness text once per value class and once per witness cell,
    so that a product costs one string operation."""
    enc = encode_basestring_ascii
    fm = report.wfts.feature_model
    count = fm.full_mask.bit_length()
    # Feature names are ASCII identifiers, which JSON quotes as they are.
    between = '",\n        "'
    listed = fm.tabulate("", lambda tails, f: [f + between + t if t else f for t in tails])

    def fields(value: Fraction | None) -> str:
        decimal = "null" if value is None else enc(decimal2(value))
        return f'{enc(value_text(value))},\n      "decimal": {decimal},\n      "witness": '

    values = _per_product([(mask, fields(value)) for mask, value in report.classes], count)
    cycles = _per_product([(mask, _block(list(map(enc, witness)), 6) + "\n    }")
                           for mask, witness in report.witnesses or []], count, "null\n    }")
    products = [f'{{\n      "features": [\n        "{t}"\n      ],\n      "value": {v}{c}' if t
                else f'{{\n      "features": [],\n      "value": {v}{c}'
                for t, v, c in zip(listed, values, cycles)]
    families = [f'{{\n      "expr": {enc(str(fm.expr_for_mask(mask)))},'
                f'\n      "value": {enc(value_text(value))}\n    }}'
                for mask, value in report.classes]
    timing = [f"{enc(k)}: {json.dumps(round(v, 3))}" for k, v in report.timing_ms.items()]
    members = [f'"mode": {enc(report.mode)}', f'"products": {_block(products, 2)}',
               f'"families": {_block(families, 2)}', f'"timing": {_block(timing, 2, "{}")}']
    return _block(members, 0, "{}")


def _sorted_features(fm: FeatureModel, sep: str) -> list[str]:
    """Per product, in enumeration order, its features in sorted order
    joined by ``sep``.  The texts of all bit-vector codes are built by the
    same doubling as ``FeatureModel.tabulate``, over the features in
    sorted order; each product finds its own by its code in that order."""
    ranked = sorted(fm.features)
    texts = [""]
    for f in reversed(ranked):
        texts += [f + sep + t if t else f for t in texts]
    weight = {f: 1 << i for i, f in enumerate(reversed(ranked))}
    return [texts[c] for c in fm.tabulate(0, lambda codes, f: [c + weight[f] for c in codes])]


def report_to_table(report: Report, color: bool = False) -> str:
    """The report as a table, one row per product: its text built once per
    product, and its value and cycle columns once per value class and
    witness cell."""
    bold = ("\x1b[1m", "\x1b[0m") if color else ("", "")
    fm = report.wfts.feature_model
    count = fm.full_mask.bit_length()
    products = [f"{{{t}}}" for t in _sorted_features(fm, ",")]
    values = [(mask, "undefined" if value is None else decimal2(value))
              for mask, value in report.classes]
    cycles = [(mask, "->".join(witness + witness[:1])) for mask, witness in report.witnesses or []]
    header = ("product", report.mode + ".", "cycle")
    widths = [max(len(text) for text in column) for column in (
        [header[0], *products], [header[1], *(text for _, text in values)],
        [header[2], *(text for _, text in cycles)])]
    padded = _per_product([(mask, text.ljust(widths[1]) + "  ") for mask, text in values], count)
    lines = [bold[0] + "  ".join(cell.ljust(width) for cell, width in zip(header, widths)).rstrip()
             + bold[1]]
    lines += [f"{product.ljust(widths[0])}  {value}{cycle}".rstrip()
              for product, value, cycle in zip(products, padded, _per_product(cycles, count, ""))]
    return "\n".join(lines)


def report_to_csv(report: Report) -> str:
    """The report as CSV, one row per product, built as the table is."""
    fm = report.wfts.feature_model
    count = fm.full_mask.bit_length()
    values = _per_product([(mask, "undefined,," if value is None else
                            f"{value},{decimal2(value)},") for mask, value in report.classes],
                          count)
    cycles = _per_product([(mask, "->".join(witness)) for mask, witness in report.witnesses or []],
                          count, "")
    rows = [f"{product or '-'},{value}{cycle}"
            for product, value, cycle in zip(_sorted_features(fm, "+"), values, cycles)]
    return "product,value,decimal,witness\n" + "\n".join(rows) + "\n"
