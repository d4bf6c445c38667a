"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
The cross-validation corpus (three bundled models plus 500 seeded random
systems) is built once and shared by the triangle, tree and component
equivalence criteria.
"""

import json
import time
from fractions import Fraction

import pytest

from wfts.analysis import analyze_family, decimal2
from wfts.bench import bench_model, trend_warnings
from wfts.checks import check_triangle, product_inputs
from wfts.cli import main
from wfts.features import Or, Var
from wfts.generators import grant_request, minepump_lite, taxi
from wfts.graphs import IndexedModel
from wfts.model import Transition, Wfts, expand_lengths
from wfts.randgen import random_corpus

from cold_reference import cold_key
from karp_reference import forward_backward_sccs
from paper_reference import (
    build_finishing_tree,
    check_order_coverage,
    check_scc_tree,
    check_tree,
    classic_references,
    symbolic_sccs,
    unit_order,
)

SEED = 20260808
CORPUS_SIZE = 500


def report(number: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {number} [{title}]: {status}{suffix}")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def corpus():
    models = [
        ("taxi:1", expand_lengths(taxi(1))),
        ("grantrequest", expand_lengths(grant_request())),
        ("minepump", expand_lengths(minepump_lite())),
    ]
    for i, w in enumerate(random_corpus(SEED, CORPUS_SIZE)):
        models.append((f"random[{i}]", expand_lengths(w)))
    return models


@pytest.fixture(scope="module")
def corpus_trees(corpus):
    """Per model, its index, the products' blocks with the classic
    references' answers, and its finishing tree."""
    graphs = [(label, IndexedModel(w)) for label, w in corpus]
    return [
        (label, im, classic_references(im, product_inputs(im, label)),
         build_finishing_tree(unit_order(im)))
        for label, im in graphs
    ]


def triangle(w, label):
    """``check_triangle`` on ``w``, with the grouping it reads."""
    im = IndexedModel(w)
    return check_triangle(im, product_inputs(im, label), label)


TAXI_GOLDEN = {
    (): Fraction(73, 6),
    ("L1",): Fraction(73, 6),
    ("S",): Fraction(103, 8),
    ("T",): Fraction(14),
    ("L1", "S"): Fraction(133, 10),
    ("L1", "T"): Fraction(14),
    ("S", "T"): Fraction(43, 3),
    ("L1", "S", "T"): Fraction(73, 5),
}
TAXI_GOLDEN_SHOWN = {
    (): "12.17", ("L1",): "12.17", ("S",): "12.88", ("T",): "14.00",
    ("L1", "S"): "13.30", ("L1", "T"): "14.00", ("S", "T"): "14.33",
    ("L1", "S", "T"): "14.60",
}


def test_criterion_1_taxi_golden_table(capsys):
    start = time.perf_counter()
    code = main(["analyze", "--generate", "taxi:1", "--mode", "max",
                 "--format", "json"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    with capsys.disabled():
        ok = code == 0 and elapsed < 1.0
        data = json.loads(out)
        seen = {}
        for entry in data["products"]:
            key = tuple(sorted(entry["features"]))
            value = Fraction(entry["value"])
            ok = ok and value == TAXI_GOLDEN[key]
            ok = ok and entry["decimal"] == TAXI_GOLDEN_SHOWN[key]
            ok = ok and abs(Fraction(entry["decimal"]) - value) <= Fraction(5, 1000)
            seen[key] = value
        ok = ok and len(seen) == 8
        report(1, "taxi golden table", ok, f"{elapsed:.2f}s, 8 products exact")


ROUTES = [
    ([("AP", "R1", 50, 3), ("R1", "P1", -2, 1), ("P1", "AR", 40, 3),
      ("AR", "AP", -5, 1)], Fraction(83, 8), "10.38"),
    ([("AP", "R2", 45, 2), ("R2", "P2", -2, 1), ("P2", "AR", 35, 2),
      ("AR", "AP", -5, 1)], Fraction(73, 6), "12.17"),
    ([("AP", "Re", 60, 4), ("Re", "Pe", -2, 1), ("Pe", "AR", 50, 4),
      ("AR", "AP", -5, 1)], Fraction(103, 10), "10.30"),
    ([("AP", "R2", 45, 2), ("R2", "R1", 15, 1), ("R1", "P1", -2, 1),
      ("P1", "AR", 40, 3), ("AR", "AP", -5, 1)], Fraction(93, 8), "11.63"),
    ([("AP", "R1", 50, 3), ("R1", "P1", -2, 1), ("P1", "P2", 15, 1),
      ("P2", "AR", 35, 2), ("AR", "AP", -5, 1)], Fraction(93, 8), "11.63"),
    ([("AP", "R2", 45, 2), ("R2", "R1", 15, 1), ("R1", "P1", -2, 1),
      ("P1", "P2", 15, 1), ("P2", "AR", 35, 2), ("AR", "AP", -5, 1)],
     Fraction(103, 8), "12.88"),
]


def test_criterion_2_route_mean_spot_checks(capsys):
    from wfts.features import FeatureModel

    with capsys.disabled():
        ok = True
        for spec, expected, shown in ROUTES:
            fm = FeatureModel([])
            states = [src for src, _, _, _ in spec]
            trans = [Transition(s, t, w, length=l) for s, t, w, l in spec]
            w = expand_lengths(Wfts(states, [states[0]], trans, fm))
            im = IndexedModel(w)
            num, den = cold_key(im, 1)
            value = Fraction(num, den * im.scale)
            ok = ok and value == expected and decimal2(value) == shown
        report(2, "route mean spot checks", ok,
               "6 subgraphs: 10.38 12.17 10.30 11.63 11.63 12.88")


def test_criterion_3_oracle_triangle(corpus, capsys):
    with capsys.disabled():
        start = time.perf_counter()
        failures = []
        for label, w in corpus:
            failures.extend(triangle(w, label).failures)
        elapsed = time.perf_counter() - start
        detail = (
            f"{len(corpus)} models x products x 2 modes in {elapsed:.1f}s"
        )
        if failures:
            detail = failures[0]
        report(3, "oracle triangle", not failures and elapsed < 60.0, detail)


def test_criterion_4_tree_conditions(corpus_trees, capsys):
    with capsys.disabled():
        failures = []
        for label, im, refs, tree in corpus_trees:
            failures.extend(f"{label}: {f}" for f in check_order_coverage(tree.order).failures)
            failures.extend(f"{label}: {f}" for f in check_tree(tree, im, refs).failures)
        report(4, "finishing-tree conditions",
               not failures, failures[0] if failures else
               f"{len(corpus_trees)} trees, all five conditions + DFS fidelity")


def test_criterion_5_component_equivalence(corpus_trees, capsys):
    with capsys.disabled():
        failures = []
        for label, im, refs, tree in corpus_trees:
            full = [im.feature_model.full_mask] * im.n
            routes = {
                "tree": symbolic_sccs(tree, im),
                "forward-backward": forward_backward_sccs(im, full),
            }
            result = check_scc_tree(routes, im, refs)
            failures.extend(f"{label}: {f}" for f in result.failures)
        report(5, "symbolic component equivalence",
               not failures, failures[0] if failures else
               f"{len(corpus_trees)} models, tree and forward-backward routes "
               f"vs per-product Kosaraju")


def test_criterion_6_tree_shape_reproduction(capsys):
    with capsys.disabled():
        w = grant_request()
        fm = w.feature_model
        tree = build_finishing_tree(unit_order(IndexedModel(w)))
        ga = fm.mask(Or(Var("G"), Var("A")))
        children = {c.state: c for c in tree.root.children}
        ok = set(children) == {"s0", "s2"}
        ok = ok and children["s0"].edge_mask == ga
        ok = ok and children["s2"].edge_mask == fm.full_mask & ~ga

        def states_of(node):
            out = []
            while True:
                out.append(node.state)
                if not node.children:
                    return out
                (node,) = node.children

        ok = ok and states_of(children["s0"]) == ["s0", "s2", "s1", "s3"]
        ok = ok and states_of(children["s2"]) == ["s2", "s0", "s1", "s3"]
        report(6, "published tree shape", ok,
               "root split {G||A, !(G||A)}, branches s0 s2 s1 s3 / s2 s0 s1 s3")


def _scaled(w: Wfts, factor: Fraction) -> Wfts:
    return Wfts(
        w.states, w.initial,
        [Transition(t.source, t.target, t.weight * factor, t.guard, t.action,
                    t.length) for t in w.transitions],
        w.feature_model,
    )


def _shifted(w: Wfts, delta: Fraction) -> Wfts:
    return Wfts(
        w.states, w.initial,
        [Transition(t.source, t.target, t.weight + delta, t.guard, t.action,
                    t.length) for t in w.transitions],
        w.feature_model,
    )


def test_criterion_7_scaling_and_shift(corpus, capsys):
    with capsys.disabled():
        factor, delta = Fraction(3, 2), Fraction(-7, 3)
        failures = []
        for li, (label, w) in enumerate(corpus):
            if not label.startswith("random"):
                continue
            variants = (_scaled(w, factor), _shifted(w, delta))
            # Fractional weights: the shared index scales them (scale 2 and
            # 3), which integral inputs never exercise.
            for variant in variants:
                failures.extend(triangle(variant, label).failures)
            for mode in ("max", "min"):
                base = [o.value for o in analyze_family(w, mode).outcomes]
                scaled = [o.value for o in analyze_family(variants[0], mode).outcomes]
                shifted = [o.value for o in analyze_family(variants[1], mode).outcomes]
                for b, s, sh in zip(base, scaled, shifted):
                    if (b is None) != (s is None) or (b is None) != (sh is None):
                        failures.append(f"{label} {mode}: definedness changed")
                    elif b is not None and (s != b * factor or sh != b + delta):
                        failures.append(
                            f"{label} {mode}: base={b} scaled={s} shifted={sh}"
                        )
        # Witness sequences are scale-invariant (checked on the taxi model).
        base_w = analyze_family(expand_lengths(taxi(1)), "max", witnesses=True)
        scaled_w = analyze_family(
            expand_lengths(_scaled(taxi(1), factor)), "max", witnesses=True
        )
        for a, b in zip(base_w.outcomes, scaled_w.outcomes):
            if a.witness != b.witness or b.value != a.value * factor:
                failures.append(f"witness changed under scaling: {a} vs {b}")
        report(7, "scaling and shift are exact", not failures,
               failures[0] if failures else
               f"x{factor} and +{delta} on {CORPUS_SIZE} random models, both modes, "
               f"triangle included")


@pytest.fixture(scope="module")
def taxi_bench_rows():
    return [bench_model(f"taxi:{n}", taxi(n), reps=5) for n in range(1, 7)]


def test_criterion_8_speedup_trend_soft(taxi_bench_rows, capsys):
    with capsys.disabled():
        warnings = trend_warnings(taxi_bench_rows)
        for row in taxi_bench_rows:
            print(
                f"    {row.label}: family {row.family_mean_s:.3f}s "
                f"product {row.product_mean_s:.3f}s speedup {row.speedup:.2f}x"
            )
        for warning in warnings:
            print(f"    {warning}")
        ok = all(r.family_mean_s > 0 and r.product_mean_s > 0
                 for r in taxi_bench_rows)
        detail = "trend holds" if not warnings else \
            f"{len(warnings)} row(s) against the trend (soft, reported above)"
        report(8, "family-vs-product timing trend (soft)", ok, detail)


def test_criterion_9_honest_minepump_row(capsys):
    with capsys.disabled():
        row = bench_model("minepump", minepump_lite(), reps=5)
        print(
            f"    minepump: family {row.family_mean_s:.3f}s "
            f"product {row.product_mean_s:.3f}s speedup {row.speedup:.2f}x"
        )
        ok = row.family_mean_s > 0 and row.product_mean_s > 0
        report(9, "minepump timings reported without bias", ok,
               "both strategies measured; no superiority asserted")
