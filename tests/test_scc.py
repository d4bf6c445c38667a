from hypothesis import given, settings, strategies as st

from wfts.checks import product_inputs
from wfts.features import FeatureModel, Not, Or, Var
from wfts.graphs import IndexedModel, spread
from wfts.generators import taxi
from wfts.model import Transition, Wfts, expand_lengths
from wfts.randgen import random_wfts

from cold_reference import reachable_from, successors
from karp_reference import forward_backward_sccs
from paper_reference import (
    build_finishing_tree,
    check_scc_tree,
    classic_references,
    finish_order,
    guarded,
    kosaraju_components,
    product_radj,
    symbolic_reachable_masks,
    symbolic_sccs,
    unit_order,
)


def components_of(w):
    im = IndexedModel(expand_lengths(w))
    return symbolic_sccs(build_finishing_tree(unit_order(im)), im)


def product_owners(components, products, n):
    """Per product, each of the ``n`` states' component: the index of the
    one whose mask holds the product, -1 if none does and -2 if several do."""
    owners = [[-1] * n for _ in range(products)]
    for c, scc in enumerate(components):
        for v, m in enumerate(scc.masks):
            for p in range(products):
                if m >> p & 1:
                    owners[p][v] = c if owners[p][v] == -1 else -2
    return owners


def product_partitions(components, products, n):
    """Per product, its partition read off the component masks: the member
    states of each component, in component order."""
    partitions = []
    for owner in product_owners(components, products, n):
        groups = {}
        for v, c in enumerate(owner):
            assert c >= 0, "a state in no component or in several"
            groups.setdefault(c, []).append(v)
        partitions.append([groups[c] for c in sorted(groups)])
    return partitions


def full_start(im):
    return [im.feature_model.full_mask] * im.n


def routes_of(w):
    """The finishing tree's components, which ``check_model`` compares, and
    the Karp reference's forward-backward ones."""
    im = IndexedModel(expand_lengths(w))
    return {
        "tree": components_of(w),
        "forward-backward": forward_backward_sccs(im, full_start(im)),
    }


def check(routes, im):
    """``check_scc_tree`` on ``routes``, against ``im``'s classic components."""
    return check_scc_tree(routes, im, classic_references(im, product_inputs(im, "model")))


def assert_routes_match_kosaraju(w):
    """Per product, both routes' partitions equal Kosaraju's (as sets of
    state sets), and forward-backward keeps its shape invariants."""
    im = IndexedModel(expand_lengths(w))
    products = len(w.feature_model.products)
    routes = routes_of(w)
    as_sets = {
        route: [{frozenset(c) for c in part} for part in product_partitions(comps, products, im.n)]
        for route, comps in routes.items()
    }
    for p in range(products):
        bit = 1 << p
        classic = kosaraju_components(finish_order(successors(im, bit), im.n),
                                      product_radj(im, bit))
        expected = {frozenset(c) for c in classic}
        assert as_sets["forward-backward"][p] == expected == as_sets["tree"][p]
    for within in (full_start(im), symbolic_reachable_masks(im)):
        components = forward_backward_sccs(im, within)
        anchors = [scc.anchor for scc in components]
        assert len(set(anchors)) == len(anchors) <= im.n
        for scc in components:
            assert all(m & ~w_m == 0 for m, w_m in zip(scc.masks, within))


def partitions_of(w):
    """Per product, its partition read off the component masks, as names."""
    fm = w.feature_model
    return [
        [[w.states[u] for u in comp] for comp in partition]
        for partition in product_partitions(components_of(w), len(fm.products), len(w.states))
    ]


def partition_at(w, product):
    return partitions_of(w)[w.feature_model.product_index(product)]


def test_grant_request_partitions(grantreq):
    # Basic product: {s0,s1,s3} plus isolated {s2}.
    assert partition_at(grantreq, frozenset()) == [["s2"], ["s0", "s1", "s3"]]
    # Any product with G or A: one component with every state.
    for product in [{"G"}, {"A"}, {"G", "A"}]:
        (single,) = partition_at(grantreq, frozenset(product))
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
    im = IndexedModel(w)
    classic = kosaraju_components(finish_order(successors(im, 1), im.n), product_radj(im, 1))
    classic_names = [[w.states[u] for u in comp] for comp in classic]
    assert partition_at(w, frozenset()) == classic_names


def test_taxi_every_product_has_one_nontrivial_component(taxi1_expanded):
    for partition in partitions_of(taxi1_expanded):
        nontrivial = [c for c in partition if len(c) > 1]
        assert len(nontrivial) == 1
        # and it contains the whole reachable core of that product
        assert {"AP", "AR", "P1", "P2", "R1", "R2"} <= set(nontrivial[0])


def test_anchor_mask_matches_component(grantreq):
    for scc in components_of(grantreq):
        anchor_products = scc.masks[scc.anchor]
        assert anchor_products != 0
        for mask in scc.masks:
            assert mask & anchor_products == mask


def test_single_product_anchor_reachability_degenerates_to_classic(grantreq):
    # With a one-product family the symbolic masks reduce to plain
    # membership in the classic component of that product.
    fm = grantreq.feature_model
    im = IndexedModel(grantreq)
    partitions = partitions_of(grantreq)
    for product in fm.products:
        p_idx = fm.product_index(product)
        bit = 1 << p_idx
        classic = kosaraju_components(finish_order(successors(im, bit), im.n),
                                      product_radj(im, bit))
        classic_sets = {frozenset(grantreq.states[u] for u in c) for c in classic}
        symbolic_sets = {frozenset(c) for c in partitions[p_idx]}
        assert symbolic_sets == classic_sets


def test_equivalence_on_bundled_models(taxi1_expanded, grantreq, minepump):
    for w in (taxi1_expanded, grantreq, expand_lengths(minepump)):
        result = check(routes_of(w), IndexedModel(w))
        assert result.ok, result.failures
        assert_routes_match_kosaraju(w)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_equivalence_on_random_models(seed):
    w = expand_lengths(random_wfts(f"scc:{seed}"))
    result = check(routes_of(w), IndexedModel(w))
    assert result.ok, result.failures
    assert_routes_match_kosaraju(w)


def test_forward_backward_reach_seeded_taxi_is_one_component():
    # Every license subset has its own reachable core, but the products'
    # components share one anchor: the first declared state, R1.
    im = IndexedModel(expand_lengths(taxi(4)))
    (scc,) = forward_backward_sccs(im, symbolic_reachable_masks(im))
    assert im.system.states[scc.anchor] == "R1" == im.system.states[0]
    assert len(im.feature_model.products) == 64
    assert scc.masks[scc.anchor] == im.feature_model.full_mask


def test_forward_backward_route_failures_name_the_route(grantreq):
    im = IndexedModel(grantreq)
    routes = routes_of(grantreq)
    doubled = routes["forward-backward"] * 2
    result = check({**routes, "forward-backward": doubled}, im)
    assert result.failures
    assert all(f.startswith("forward-backward route, product ") for f in result.failures)
    assert any("in two components" in f for f in result.failures)


def test_components_disjoint_along_paths(taxi1_expanded):
    # Components on one path never share a (state, product) pair; since a
    # component's masks lie within its path's family and sibling families
    # are disjoint, per state the masks of all components partition the
    # products.
    fm = taxi1_expanded.feature_model
    components = components_of(taxi1_expanded)
    for v, state in enumerate(taxi1_expanded.states):
        union = 0
        for scc in components:
            assert union & scc.masks[v] == 0, state
            union |= scc.masks[v]
        assert union == fm.full_mask, state


def test_check_reports_shared_and_unassigned_states(grantreq):
    im = IndexedModel(grantreq)
    components = components_of(grantreq)
    doubled = check({"tree": components + components[:1]}, im)
    assert any("tree route" in f and "in two components" in f for f in doubled.failures)
    dropped = check({"tree": components[1:]}, im)
    assert any("tree route" in f and "states assigned" in f for f in dropped.failures)


def test_finish_order_is_postorder():
    adj = [[1], [2], [0], []]
    assert finish_order(adj, 4) == [2, 1, 0, 3]


class TestReachExcluding:
    def test_grant_request_basic_family_anchor_s0(self, grantreq):
        fm = grantreq.feature_model
        im = IndexedModel(grantreq)
        basic = fm.mask(Not(Or(Var("G"), Var("A"))))
        masks = spread([(grantreq.states.index("s0"), basic)], [0] * im.n, guarded(im)[1])
        members = [s for s, m in zip(grantreq.states, masks) if m]
        assert members == ["s0", "s1", "s3"]
        for m in masks:
            assert m in (0, basic)

    def test_singleton_family_degenerates_to_classic(self, grantreq):
        fm = grantreq.feature_model
        im = IndexedModel(grantreq)
        for product in fm.products:
            bit = 1 << fm.product_index(product)
            classic = reachable_from(product_radj(im, bit), [0], im.n)
            masks = spread([(grantreq.states.index("s0"), bit)], [0] * im.n, guarded(im)[1])
            got = [bool(m) for m in masks]
            assert got == classic

    def test_exclusion_blocks_paths(self, grantreq):
        fm = grantreq.feature_model
        im = IndexedModel(grantreq)
        everything = fm.full_mask
        assigned = [0] * im.n
        index = grantreq.states.index
        assigned[index("s3")] = everything
        blocked = spread([(index("s0"), everything)], assigned, guarded(im)[1])
        # s3 already assigned: nothing reaches s0 except
        # itself (s2's clean edge still works where A is present).
        assert blocked[index("s1")] == 0
        assert blocked[index("s3")] == 0

    def test_forward_spread_degenerates_to_classic(self, grantreq):
        fm = grantreq.feature_model
        im = IndexedModel(grantreq)
        for product in fm.products:
            bit = 1 << fm.product_index(product)
            for s in range(im.n):
                classic = reachable_from(successors(im, bit), [s], im.n)
                masks = spread([(s, bit)], [0] * im.n, guarded(im)[0])
                assert [bool(m) for m in masks] == classic
