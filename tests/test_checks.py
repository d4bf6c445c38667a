"""``check_model`` runs each classic reference once per distinct input and
still compares every product, and its verdicts do not depend on the order
in which features are declared."""

from collections import Counter
from fractions import Fraction

import pytest

from wfts import checks
from wfts.analysis import analyze_family, analyze_products, format_product
from wfts.features import FeatureModel, Var
from wfts.generators import grant_request, minepump_lite, taxi
from wfts.graphs import IndexedModel
from wfts.model import Transition, Wfts, expand_lengths
from wfts.randgen import random_corpus


def projections(w: Wfts) -> list:
    """Per product of ``w``'s length expansion, its reachable projection as
    a hashable ``(state count, edges)`` pair."""
    im = IndexedModel(expand_lengths(w))
    return [
        (n, tuple(edges))
        for n, edges in (
            checks.reachable_projection(im, 1 << p)
            for p in range(len(w.feature_model.products))
        )
    ]


def graphs(w: Wfts) -> list:
    """Per product of ``w``'s length expansion, its adjacency as a tuple."""
    im = IndexedModel(expand_lengths(w))
    return [
        tuple(map(tuple, im.product_adj(1 << p)))
        for p in range(len(w.feature_model.products))
    ]


def counting(monkeypatch, name: str) -> list:
    """Replace ``checks.<name>`` with a wrapper that records each call."""
    calls = []
    original = getattr(checks, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(checks, name, counted)
    return calls


def test_oracle_runs_once_per_distinct_reachable_projection(monkeypatch):
    w = taxi(4)
    distinct = set(projections(w))
    calls = counting(monkeypatch, "brute_force_mean_cycle")
    assert checks.check_model(w, ("max", "min"), "taxi:4").ok
    assert len(calls) == len(distinct) < 2 * len(w.feature_model.products)
    # Each call answers both modes at once.
    assert all(modes == ("max", "min") for _, _, modes in calls)


def test_projections_that_differ_only_in_weights_are_not_shared(monkeypatch):
    # Both products have one state and one self-loop; only its weight differs.
    w = Wfts(
        ["a"], ["a"],
        [Transition("a", "a", 1, Var("F")), Transition("a", "a", 2, ~Var("F"))],
        FeatureModel(["F"]),
    )
    calls = counting(monkeypatch, "brute_force_mean_cycle")
    assert checks.check_model(w).ok
    assert len(calls) == 2


def test_classic_references_run_once_per_distinct_product_graph(monkeypatch):
    w = next(
        w for w in random_corpus(11, 40)
        if len(set(graphs(w))) < len(w.feature_model.products)
    )
    distinct = len(set(graphs(w)))
    kosaraju = counting(monkeypatch, "kosaraju_components")
    finish = counting(monkeypatch, "finish_order")
    assert checks.check_model(w).ok
    assert len(kosaraju) == len(finish) == distinct


def test_an_oracle_wrong_on_one_projection_fails_every_product_sharing_it(
    monkeypatch,
):
    w = taxi(2)
    per_product = projections(w)
    # The projection most products share, and those products.
    wrong, sharing = Counter(per_product).most_common(1)[0]
    assert 1 < sharing < len(per_product)
    oracle = checks.brute_force_mean_cycle

    def stub(n, edges, modes):
        if (n, tuple(edges)) == wrong:
            return {mode: Fraction(-999) for mode in modes}
        return oracle(n, edges, modes)

    monkeypatch.setattr(checks, "brute_force_mean_cycle", stub)
    result = checks.check_model(w, ("max", "min"), "taxi:2")
    header, *lines = result.failures
    assert header.startswith("model taxi:2:\n")
    expected = {
        f"taxi:2 mode={mode} product {format_product(product)}:"
        for mode in ("max", "min")
        for product, projection in zip(w.feature_model.products, per_product)
        if projection == wrong
    }
    assert len(expected) == 2 * sharing
    assert {line.split(" family=")[0] for line in lines} == expected
    assert len(lines) == len(expected)
    assert all("brute-force=-999" in line for line in lines)


def _reordered(w: Wfts) -> Wfts:
    """``w`` with its features declared in reverse order."""
    fm = w.feature_model
    reordered = FeatureModel(reversed(fm.features), fm.constraint)
    return Wfts(w.states, w.initial, w.transitions, reordered)


FEATURE_ORDER_MODELS = [
    ("taxi:3", taxi(3)),
    ("grantrequest", grant_request()),
    ("minepump", minepump_lite()),
    *((f"random[0:{i}]", w) for i, w in enumerate(random_corpus(0, 60))),
]


@pytest.mark.parametrize(
    "label, w", FEATURE_ORDER_MODELS, ids=[label for label, _ in FEATURE_ORDER_MODELS]
)
def test_feature_declaration_order_changes_no_value(label, w):
    reordered = _reordered(w)
    products = w.feature_model.products
    assert set(reordered.feature_model.products) == set(products)
    base, other = expand_lengths(w), expand_lengths(reordered)
    for analyze in (analyze_family, analyze_products):
        for mode in ("max", "min"):
            want, got = analyze(base, mode), analyze(other, mode)
            for product in products:
                assert got.value_of(product) == want.value_of(product), (
                    label, analyze.__name__, mode, sorted(product)
                )
    assert checks.check_model(reordered, ("max", "min"), label).ok
