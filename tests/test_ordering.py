from hypothesis import given, settings, strategies as st

from wfts.checks import product_inputs
from wfts.features import FeatureModel, Or, Var
from wfts.graphs import IndexedModel
from wfts.model import Transition, Wfts, expand_lengths
from wfts.randgen import random_wfts

from paper_reference import (
    build_finishing_tree,
    check_order_coverage,
    check_tree,
    classic_references,
    unit_order,
)


def order_of(w):
    return unit_order(IndexedModel(expand_lengths(w)))


def test_grant_request_stamp_sequence(grantreq):
    fm = grantreq.feature_model
    order = order_of(grantreq)
    got = [(e.state, e.mask, e.time) for e in order.entries]
    g_or_a = fm.mask(Or(Var("G"), Var("A")))
    full = fm.full_mask
    assert got == [
        ("s3", full, 1),
        ("s1", full, 2),
        ("s2", g_or_a, 3),
        ("s0", full, 4),
        ("s2", full & ~g_or_a, 5),
    ]


def test_grant_request_s0_finishes_last_for_g_or_a_products(grantreq):
    # In products with G or A the highest finishing time belongs to s0; in
    # the basic product it belongs to s2.
    fm = grantreq.feature_model
    order = order_of(grantreq)
    for product in fm.products:
        bit = 1 << fm.product_index(product)
        ranked = [e.state for e in order.entries if e.mask & bit]
        assert len(ranked) == 4
        if product:
            assert ranked[-1] == "s0"
            assert ranked == ["s3", "s1", "s2", "s0"]
        else:
            assert ranked[-1] == "s2"
            assert ranked == ["s3", "s1", "s0", "s2"]


def test_single_product_order_is_classic_dfs():
    fm = FeatureModel([])
    w = Wfts(
        ["a", "b", "c"],
        ["a"],
        [Transition("a", "b", 0), Transition("b", "c", 0), Transition("c", "a", 0)],
        fm,
    )
    order = order_of(w)
    assert [(e.state, e.time) for e in order.entries] == [("c", 1), ("b", 2), ("a", 3)]


def test_every_state_finishes_once_per_product(taxi1_expanded):
    result = check_order_coverage(order_of(taxi1_expanded))
    assert result.ok, result.failures


def test_inverse_lookup(grantreq):
    order = order_of(grantreq)
    assert order.entries[0].state == "s3"
    assert order.entries[-1].state == "s2"


def test_tree_matches_published_shape(grantreq):
    fm = grantreq.feature_model
    tree = build_finishing_tree(order_of(grantreq))
    children = tree.root.children
    assert len(children) == 2
    by_state = {c.state: c for c in children}
    assert set(by_state) == {"s0", "s2"}
    g_or_a = fm.mask(Or(Var("G"), Var("A")))
    assert by_state["s0"].edge_mask == g_or_a
    assert by_state["s2"].edge_mask == fm.full_mask & ~g_or_a

    def branch(node):
        states = []
        while True:
            states.append(node.state)
            if not node.children:
                return states
            (node,) = node.children

    assert branch(by_state["s0"]) == ["s0", "s2", "s1", "s3"]
    assert branch(by_state["s2"]) == ["s2", "s0", "s1", "s3"]


def test_no_feature_model_yields_single_path():
    fm = FeatureModel([])
    w = Wfts(
        ["a", "b"],
        ["a"],
        [Transition("a", "b", 0), Transition("b", "a", 0)],
        fm,
    )
    tree = build_finishing_tree(order_of(w))
    assert len(tree.leaves()) == 1
    assert len(tree.nodes) == 2


def test_tree_conditions_on_bundled_models(taxi1_expanded, grantreq, minepump):
    for w in (taxi1_expanded, grantreq, expand_lengths(minepump)):
        im = IndexedModel(w)
        tree = build_finishing_tree(unit_order(im))
        result = check_tree(tree, im, classic_references(im, product_inputs(im, "model")))
        assert result.ok, result.failures


def test_taxi_tree_leaf_count_is_bounded_by_products(taxi1_expanded):
    tree = build_finishing_tree(order_of(taxi1_expanded))
    assert len(tree.leaves()) <= len(taxi1_expanded.feature_model.products)


def test_determinism(taxi1_expanded):
    a = order_of(taxi1_expanded)
    b = order_of(taxi1_expanded)
    assert [(e.state, e.mask) for e in a.entries] == [(e.state, e.mask) for e in b.entries]
    ta = build_finishing_tree(a)
    tb = build_finishing_tree(b)
    assert [(n.state, n.edge_mask) for n in ta.nodes] == [
        (n.state, n.edge_mask) for n in tb.nodes
    ]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_tree_conditions_on_random_models(seed):
    im = IndexedModel(expand_lengths(random_wfts(f"tree:{seed}")))
    order = unit_order(im)
    result = check_order_coverage(order)
    assert result.ok, result.failures
    tree = build_finishing_tree(order)
    result = check_tree(tree, im, classic_references(im, product_inputs(im, f"tree:{seed}")))
    assert result.ok, result.failures

