"""``check_model`` runs each classic reference and the product route once
per distinct input on two indexed graphs, still compares every product,
rejects a model past the oracle's limit before any suite runs, and its
verdicts do not depend on the order in which features are declared."""

import re
from collections import Counter
from fractions import Fraction

import pytest

from wfts import checks
from wfts.analysis import analyze_family, analyze_products, format_product
from wfts.features import FeatureModel, Var
from wfts.generators import grant_request, minepump_lite, taxi
from wfts.graphs import IndexedModel
from wfts.model import ModelError, Transition, Wfts, expand_lengths
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
    routed = counting(monkeypatch, "best_reachable_mean")
    assert checks.check_model(w).ok
    assert len(calls) == 2
    # The product route runs for both products, in each mode.
    assert sorted((im.sign, bit) for im, bit in routed) == [(-1, 1), (-1, 2), (1, 1), (1, 2)]


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


TAXI2 = taxi(2)
TAXI2_PROJECTIONS = projections(TAXI2)
# The projection most products of taxi:2 share, and how many share it.
WRONG, SHARING = Counter(TAXI2_PROJECTIONS).most_common(1)[0]


def failures_wrong_on_one_projection(monkeypatch, name, stub) -> list[str]:
    """The failure lines of ``check_model`` on taxi:2 with ``checks.<name>``
    replaced by ``stub``, which is wrong on ``WRONG`` alone: after the
    model header, one line per mode for every product with that projection,
    and none for any other product."""
    assert 1 < SHARING < len(TAXI2_PROJECTIONS)
    monkeypatch.setattr(checks, name, stub)
    result = checks.check_model(TAXI2, ("max", "min"), "taxi:2")
    header, *lines = result.failures
    assert header.startswith("model taxi:2:\n")
    expected = {
        f"taxi:2 mode={mode} product {format_product(product)}:"
        for mode in ("max", "min")
        for product, projection in zip(TAXI2.feature_model.products, TAXI2_PROJECTIONS)
        if projection == WRONG
    }
    assert len(expected) == 2 * SHARING
    assert {line.split(" family=")[0] for line in lines} == expected
    assert len(lines) == len(expected)
    return lines


def test_an_oracle_wrong_on_one_projection_fails_every_product_sharing_it(
    monkeypatch,
):
    oracle = checks.brute_force_mean_cycle

    def stub(n, edges, modes):
        if (n, tuple(edges)) == WRONG:
            return {mode: Fraction(-999) for mode in modes}
        return oracle(n, edges, modes)

    lines = failures_wrong_on_one_projection(monkeypatch, "brute_force_mean_cycle", stub)
    assert all("brute-force=-999" in line for line in lines)


def test_a_product_route_wrong_on_one_projection_fails_every_product_sharing_it(
    monkeypatch,
):
    route = checks.best_reachable_mean

    def stub(im, bit):
        if TAXI2_PROJECTIONS[bit.bit_length() - 1] == WRONG:
            return im.sign * Fraction(-999)  # -999 once the sign is applied
        return route(im, bit)

    lines = failures_wrong_on_one_projection(monkeypatch, "best_reachable_mean", stub)
    form = re.compile(r"taxi:2 mode=(max|min) product \{[\w,]*\}: "
                      r"family=(-?\d+(/\d+)?) product-based=-999 brute-force=\2")
    assert all(form.fullmatch(line) for line in lines)


def _shares_projections(w: Wfts) -> bool:
    return len(set(projections(w))) < len(w.feature_model.products)


SHARED = [("taxi:4", taxi(4)), next(
    (f"random[11:{i}]", w) for i, w in enumerate(random_corpus(11, 40)) if _shares_projections(w)
)]


@pytest.mark.parametrize("label, w", SHARED, ids=[label for label, _ in SHARED])
def test_product_route_runs_once_per_distinct_projection_per_mode(monkeypatch, label, w):
    per_product = projections(w)
    lowest = {}
    for p, projection in enumerate(per_product):
        lowest.setdefault(projection, 1 << p)
    assert len(lowest) < len(per_product)
    calls = counting(monkeypatch, "best_reachable_mean")
    assert checks.check_model(w, ("max", "min"), label).ok
    for sign in (1, -1):
        bits = [bit for im, bit in calls if im.sign == sign]
        assert sorted(bits) == sorted(lowest.values())
    assert len(calls) == 2 * len(lowest)


def test_check_model_builds_one_index_per_sign(monkeypatch):
    signs = []
    init = IndexedModel.__init__

    def counted(self, w, sign=1):
        signs.append(sign)
        init(self, w, sign)

    monkeypatch.setattr(IndexedModel, "__init__", counted)
    assert checks.check_model(taxi(3), ("max", "min"), "taxi:3").ok
    assert sorted(signs) == [-1, 1]


def test_a_model_past_the_oracle_limit_fails_before_any_suite(monkeypatch):
    calls = counting(monkeypatch, "dfs_order")
    with pytest.raises(ModelError, match=(
        r"^taxi:5: a product reaches 52 states after length expansion; "
        r"the brute-force oracle stops at 48$"
    )):
        checks.check_model(taxi(5), ("max", "min"), "taxi:5")
    assert calls == []


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
