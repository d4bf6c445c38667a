from hypothesis import given, settings, strategies as st

from wfts.checks import check_scc_tree
from wfts.features import FeatureModel, Or, Var
from wfts.graphs import IndexedModel, finish_order, kosaraju_components
from wfts.model import Transition, Wfts, expand_lengths
from wfts.ordering import build_finishing_tree, dfs_order
from wfts.randgen import random_wfts
from wfts.scc import render_scc_tree, symbolic_sccs


def scc_tree_of(w):
    im = IndexedModel(w)
    return symbolic_sccs(build_finishing_tree(dfs_order(im)), im)


def test_grant_request_partitions(grantreq):
    tree = scc_tree_of(grantreq)
    # Basic product: {s0,s1,s3} plus isolated {s2}.
    assert tree.components_at(frozenset()) == [["s2"], ["s0", "s1", "s3"]]
    # Any product with G or A: one component with every state.
    for product in [{"G"}, {"A"}, {"G", "A"}]:
        (single,) = tree.components_at(frozenset(product))
        assert sorted(single) == ["s0", "s1", "s2", "s3"]


def test_no_feature_model_matches_kosaraju():
    fm = FeatureModel([])
    w = Wfts(
        ["a", "b", "c", "d"],
        ["a"],
        [
            Transition("a", "b", 0),
            Transition("b", "a", 0),
            Transition("b", "c", 0),
            Transition("c", "d", 0),
            Transition("d", "c", 0),
        ],
        fm,
    )
    tree = scc_tree_of(w)
    im = IndexedModel(w)
    classic = kosaraju_components(im.product_adj(1), im.product_radj(1), im.n)
    classic_names = [[w.states[u] for u in comp] for comp in classic]
    assert tree.components_at(frozenset()) == classic_names


def test_taxi_every_product_has_one_nontrivial_component(taxi1_expanded):
    tree = scc_tree_of(taxi1_expanded)
    fm = taxi1_expanded.feature_model
    for product in fm.products:
        nontrivial = [c for c in tree.components_at(product) if len(c) > 1]
        assert len(nontrivial) == 1
        # and it contains the whole reachable core of that product
        assert {"AP", "AR", "P1", "P2", "R1", "R2"} <= set(nontrivial[0])


def test_anchor_mask_matches_component(grantreq):
    tree = scc_tree_of(grantreq)
    for scc in tree.components():
        anchor_products = scc.masks[scc.graph.index[scc.anchor_state]]
        assert anchor_products & scc.anchor_mask == scc.anchor_mask
        assert scc.anchor_mask != 0


def test_single_product_anchor_reachability_degenerates_to_classic(grantreq):
    # With a one-product family the symbolic masks reduce to plain
    # membership in the classic component of that product.
    fm = grantreq.feature_model
    tree = scc_tree_of(grantreq)
    for product in fm.products:
        bit = 1 << fm.product_index(product)
        im = IndexedModel(grantreq)
        classic = kosaraju_components(im.product_adj(bit), im.product_radj(bit), im.n)
        classic_sets = {frozenset(grantreq.states[u] for u in c) for c in classic}
        symbolic_sets = {frozenset(c) for c in tree.components_at(product)}
        assert symbolic_sets == classic_sets


def test_equivalence_on_bundled_models(taxi1_expanded, grantreq, minepump):
    for w in (taxi1_expanded, grantreq, expand_lengths(minepump)):
        result = check_scc_tree(scc_tree_of(w), IndexedModel(w))
        assert result.ok, result.failures


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_equivalence_on_random_models(seed):
    w = expand_lengths(random_wfts(f"scc:{seed}"))
    result = check_scc_tree(scc_tree_of(w), IndexedModel(w))
    assert result.ok, result.failures


def test_components_disjoint_along_paths(taxi1_expanded):
    tree = scc_tree_of(taxi1_expanded)
    fm = taxi1_expanded.feature_model
    for leaf in tree.tree.leaves():
        per_state: dict[str, int] = {}
        node = leaf
        path = []
        while node.parent is not None:
            path.append(node)
            node = node.parent
        for n in path:
            scc = tree.by_node.get(n)
            if scc is None:
                continue
            for state, mask in zip(taxi1_expanded.states, scc.masks):
                assert per_state.get(state, 0) & mask == 0
                per_state[state] = per_state.get(state, 0) | mask


def test_finish_order_is_postorder():
    adj = [[1], [2], [0], []]
    assert finish_order(adj, 4) == [2, 1, 0, 3]


def test_render_scc_tree_smoke(grantreq):
    text = render_scc_tree(scc_tree_of(grantreq))
    assert "path" in text and "scc@" in text


class TestReachExcluding:
    def test_grant_request_basic_family_anchor_s0(self, grantreq):
        from wfts.features import Not, Or, Var
        from wfts.scc import reach_excluding

        fm = grantreq.feature_model
        basic = fm.denote(Not(Or(Var("G"), Var("A"))))
        scc = reach_excluding(IndexedModel(grantreq), "s0", basic)
        assert scc.members() == ["s0", "s1", "s3"]
        for state in scc.members():
            assert scc.products_of(state) == basic

    def test_singleton_family_degenerates_to_classic(self, grantreq):
        from wfts.graphs import reachable_from
        from wfts.scc import reach_excluding

        fm = grantreq.feature_model
        im = IndexedModel(grantreq)
        for product in fm.products:
            bit = 1 << fm.product_index(product)
            classic = reachable_from(im.product_radj(bit), [0], im.n)
            scc = reach_excluding(im, "s0", fm.product_set([product]))
            got = [bool(m) for m in scc.masks]
            assert got == classic

    def test_exclusion_blocks_paths(self, grantreq):
        from wfts.features import TRUE
        from wfts.scc import reach_excluding

        fm = grantreq.feature_model
        everything = fm.denote(TRUE)
        blocked = reach_excluding(
            IndexedModel(grantreq), "s0", everything, {"s3": everything}
        )
        # s3 already assigned: nothing reaches s0 except
        # itself (s2's clean edge still works where A is present).
        assert "s1" not in blocked.members()
        assert "s3" not in blocked.members()
