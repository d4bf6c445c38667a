"""Per-product limit-average reports, family-based and product-based.

Both strategies answer the same question for every valid product: the best
(maximum or minimum) long-run average transition weight over infinite runs
from an initial state, which equals the best mean-weight cycle reachable
from an initial state.  Products whose reachable subgraph is acyclic have no
infinite run and report "undefined".

``analyze_family`` computes the symbolic components of every product's
reachable subgraph at once, by forward-backward decomposition over product
sets seeded with symbolic reachability, and runs the partitioned Karp
recurrence once per component;  ``analyze_products`` solves every
product's graph separately.  They must agree exactly; the
``strategy="both"`` entry point enforces that.

Both read one ``IndexedModel`` per call, built by ``_indexed``, and one sign
convention holds throughout: min mode runs the maximizing algorithms on
weights negated once, inside ``IndexedModel``, and negates the values they
return.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction

from .graphs import IndexedModel, reachable_from, tight_cycle
from .meancycle import best_reachable_mean, karp_cells
from .model import Wfts, symbolic_reachable_masks
from .scc import forward_backward_sccs


class StrategyMismatch(AssertionError):
    """Family-based and product-based analyses disagreed."""


@dataclass(frozen=True)
class ProductOutcome:
    product: frozenset
    value: Fraction | None  # None = undefined (no reachable cycle)
    witness: tuple[str, ...] | None = None


@dataclass
class Report:
    mode: str
    strategy: str
    outcomes: tuple[ProductOutcome, ...]  # product enumeration order
    timing_ms: dict
    wfts: Wfts

    def value_of(self, product) -> Fraction | None:
        i = self.wfts.feature_model.product_index(product)
        return self.outcomes[i].value

    def families(self) -> list[tuple[int, Fraction | None]]:
        """Products grouped by equal value, as (product mask, value) pairs
        in first-occurrence order."""
        groups: dict[object, int] = {}
        for i, outcome in enumerate(self.outcomes):
            groups[outcome.value] = groups.get(outcome.value, 0) | (1 << i)
        return [(mask, value) for value, mask in groups.items()]


def _family_values(im: IndexedModel) -> list[Fraction | None]:
    """Best per-product means of ``im``'s signed weights, via the symbolic
    pipeline (maximizing)."""
    components = forward_backward_sccs(im, symbolic_reachable_masks(im))
    best: list[Fraction | None] = [None] * len(im.feature_model.products)
    for scc in components:
        for mask, value in karp_cells(scc, im):
            while mask:
                low = mask & -mask
                p = low.bit_length() - 1
                mask ^= low
                if best[p] is None or value > best[p]:
                    best[p] = value
    return best


def _witness(im: IndexedModel, bit: int, value: Fraction) -> tuple[str, ...] | None:
    """An optimal cycle of mean ``value`` for one product, as original state
    names.

    Runs on the product's reachable subgraph with ``im``'s signed weights;
    intermediate states introduced by length expansion are dropped from the
    rendering.
    """
    reach = reachable_from(im.product_adj(bit), im.initial, im.n)
    edges = [(u, v, w) for u, v, w in im.product_edges(bit) if reach[u]]
    cycle = tight_cycle(im.n, edges, im.initial, im.sign * value * im.scale)
    if cycle is None:
        return None
    names = [im.states[u] for u in cycle]
    visible = tuple(s for s in names if "#" not in s)
    return visible or tuple(names)


def _outcomes(
    w: Wfts, values: list[Fraction | None], im: IndexedModel | None
) -> tuple[ProductOutcome, ...]:
    """One outcome per product, with a witness cycle when ``im`` is given."""
    outcomes = []
    for i, (product, value) in enumerate(zip(w.feature_model.products, values)):
        witness = None
        if value is not None and im is not None:
            witness = _witness(im, 1 << i, value)
        outcomes.append(ProductOutcome(product, value, witness))
    return tuple(outcomes)


def _indexed(w: Wfts, mode: str) -> IndexedModel:
    """The one indexed graph of an analysis, signed for ``mode``."""
    sign = _sign(mode)
    if any(t.length != 1 for t in w.transitions):
        raise ValueError("expand_lengths must run before analysis")
    return IndexedModel(w, sign)


def analyze_family(w: Wfts, mode: str = "max", witnesses: bool = False) -> Report:
    """Family-based analysis: one symbolic run answering every product."""
    im = _indexed(w, mode)
    start = time.perf_counter()
    values = _family_values(im)
    elapsed = (time.perf_counter() - start) * 1000.0
    values = [None if v is None else im.sign * v for v in values]
    return Report(
        mode, "family", _outcomes(w, values, im if witnesses else None),
        {"family_ms": elapsed}, w,
    )


def analyze_products(w: Wfts, mode: str = "max", witnesses: bool = False) -> Report:
    """Product-based baseline: solve each product's graph separately."""
    im = _indexed(w, mode)
    start = time.perf_counter()
    values = []
    for i in range(len(w.feature_model.products)):
        best = best_reachable_mean(im, 1 << i)
        values.append(None if best is None else im.sign * best)
    elapsed = (time.perf_counter() - start) * 1000.0
    return Report(
        mode, "product", _outcomes(w, values, im if witnesses else None),
        {"product_ms": elapsed}, w,
    )


def analyze_both(w: Wfts, mode: str = "max", witnesses: bool = False) -> Report:
    """Run both strategies and fail loudly if they disagree anywhere."""
    fam = analyze_family(w, mode, witnesses)
    prod = analyze_products(w, mode)
    diffs = []
    for a, b in zip(fam.outcomes, prod.outcomes):
        if a.value != b.value:
            diffs.append((a.product, a.value, b.value))
    if diffs:
        lines = [
            f"  product {format_product(p)}: family={v1} product-based={v2}"
            for p, v1, v2 in diffs
        ]
        raise StrategyMismatch(
            "family-based and product-based analyses disagree:\n" + "\n".join(lines)
        )
    timing = dict(fam.timing_ms)
    timing.update(prod.timing_ms)
    return Report(mode, "both", fam.outcomes, timing, w)


def _sign(mode: str) -> int:
    if mode == "max":
        return 1
    if mode == "min":
        return -1
    raise ValueError(f"mode must be 'max' or 'min', not {mode!r}")


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


def report_to_dict(report: Report, include_timing: bool = True) -> dict:
    fm = report.wfts.feature_model
    products = []
    for outcome in report.outcomes:
        value = outcome.value
        products.append(
            {
                "features": sorted(outcome.product, key=fm.features.index),
                "value": "undefined" if value is None else str(value),
                "decimal": None if value is None else decimal2(value),
                "witness": list(outcome.witness) if outcome.witness else None,
            }
        )
    families = [
        {
            "expr": str(fm.expr_for_mask(mask)),
            "value": "undefined" if value is None else str(value),
        }
        for mask, value in report.families()
    ]
    out = {"mode": report.mode, "products": products, "families": families}
    if include_timing:
        out["timing"] = {k: round(v, 3) for k, v in report.timing_ms.items()}
    return out


def report_to_json(report: Report, include_timing: bool = True) -> str:
    return json.dumps(report_to_dict(report, include_timing), indent=2)


def report_to_table(report: Report, color: bool = False) -> str:
    bold = ("\x1b[1m", "\x1b[0m") if color else ("", "")
    rows = [("product", report.mode + ".", "cycle")]
    for outcome in report.outcomes:
        if outcome.value is None:
            rows.append((format_product(outcome.product), "undefined", ""))
            continue
        witness = ""
        if outcome.witness:
            witness = "->".join(outcome.witness + (outcome.witness[0],))
        rows.append((format_product(outcome.product), decimal2(outcome.value), witness))
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    lines = []
    for i, row in enumerate(rows):
        text = "  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip()
        if i == 0:
            text = bold[0] + text + bold[1]
        lines.append(text)
    return "\n".join(lines)


def report_to_csv(report: Report) -> str:
    lines = ["product,value,decimal,witness"]
    for outcome in report.outcomes:
        product = "+".join(sorted(outcome.product)) or "-"
        if outcome.value is None:
            lines.append(f"{product},undefined,,")
        else:
            witness = "->".join(outcome.witness) if outcome.witness else ""
            lines.append(
                f"{product},{outcome.value},{decimal2(outcome.value)},{witness}"
            )
    return "\n".join(lines) + "\n"
