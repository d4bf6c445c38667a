"""``check_model`` splits the products into the blocks that a grouping by
enabled edges finds, runs the oracle once per distinct input and each
value route once per mode, as ``analyze`` runs it, on two indexed graphs,
still compares every product, fails on a wrong carried certificate of the
product route,
rejects a model past the oracle's limit before the triangle runs, runs no
feature-aware DFS, and its verdicts do not depend on the order in which
features are declared.  The tests' tree, component and order-coverage
suites (``paper_reference``) name each corruption of a tree, component or
order in fixed failure lines, also when it touches a product that is not
its block's lowest."""

import inspect
import re
import sys
import textwrap
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import given, settings, strategies as st

from wfts import analysis, checks, meancycle, ordering
from wfts.analysis import analyze_family, analyze_products, format_product
from wfts.dsl import parse
from wfts.features import TRUE, FeatureModel, Var
from wfts.generators import grant_request, minepump_lite, taxi
from wfts.graphs import IndexedModel
from wfts.meancycle import brute_force_mean_cycle
from wfts.model import ModelError, Transition, Wfts, expand_lengths
from wfts.ordering import DfsOrder
from wfts.randgen import random_corpus, random_wfts

from cold_reference import reachable_from, successors
from paper_reference import (
    build_finishing_tree,
    check_order_coverage,
    check_scc_tree,
    check_tree,
    classic_references,
    symbolic_sccs,
    unit_order,
)
from test_meancycle import unit_projection


def reach(im: IndexedModel, bit: int) -> list[bool]:
    """Per declared state of ``im``, whether product ``bit`` reaches it."""
    return reachable_from(successors(im, bit), im.initial, len(im.system.states))


def projections(w: Wfts) -> list:
    """Per product of ``w``, its reachable projection on the declared arcs
    as a hashable ``(state count, edges)`` pair."""
    im = IndexedModel(w)
    return [
        (n, tuple(edges))
        for n, edges in (
            checks.reachable_projection(im, bit, reach(im, bit))
            for bit in (1 << p for p in range(len(w.feature_model.products)))
        )
    ]


def graphs(w: Wfts) -> list:
    """Per product of ``w``'s length expansion, its adjacency as a tuple."""
    im = IndexedModel(expand_lengths(w))
    return [
        tuple(map(tuple, successors(im, 1 << p)))
        for p in range(len(w.feature_model.products))
    ]


def reference_blocks(im: IndexedModel) -> list[int]:
    """The products grouped one by one by the unit steps they enable: one
    mask per distinct set of enabled steps, in order of lowest product."""
    unit = IndexedModel(expand_lengths(im.system))
    groups: dict[tuple, int] = {}
    for p in range(len(im.feature_model.products)):
        enabled = tuple(i for i, (*_, g, _) in enumerate(unit.arcs) if g >> p & 1)
        groups[enabled] = groups.get(enabled, 0) | 1 << p
    return list(groups.values())


def assert_blocks_are_the_grouping(w: Wfts) -> None:
    """``product_blocks`` finds the classes of equal enabled edges, and a
    block's products share one graph."""
    im = IndexedModel(w)
    blocks = checks.product_blocks(im)
    assert blocks == reference_blocks(im)
    per_product = graphs(w)
    for block in blocks:
        assert len({per_product[p] for p in checks._bits(block)}) == 1


BLOCK_MODELS = [(f"taxi:{k}", taxi(k)) for k in range(1, 5)] + [
    ("minepump", minepump_lite()), ("grantrequest", grant_request())
]


@pytest.mark.parametrize("label, w", BLOCK_MODELS, ids=[label for label, _ in BLOCK_MODELS])
def test_blocks_equal_the_per_product_grouping_on_bundled_models(label, w):
    assert_blocks_are_the_grouping(w)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9), wide=st.booleans())
def test_blocks_equal_the_per_product_grouping_on_random_models(seed, wide):
    sizes = {"max_states": 16, "max_features": 10} if wide else {}
    assert_blocks_are_the_grouping(random_wfts(f"blocks:{seed}", **sizes))


def counting(monkeypatch, name: str, *owners) -> list:
    """Replace ``<owner>.<name>`` on every owner (``checks`` by default)
    with one wrapper that records each call."""
    owners = owners or (checks,)
    calls = []
    original = getattr(owners[0], name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    for owner in owners:
        monkeypatch.setattr(owner, name, counted)
    return calls


def routed(monkeypatch) -> list:
    """Every run of the product route that ``check_model`` makes from now
    on (``checks._product_values``), as ``(index, classes)``."""
    calls = []
    route = checks._product_values

    def recorded(im):
        classes = route(im)
        calls.append((im, classes))
        return classes

    monkeypatch.setattr(checks, "_product_values", recorded)
    return calls


def test_oracle_runs_once_per_distinct_reachable_projection(monkeypatch):
    w = taxi(4)
    distinct = set(projections(w))
    calls = counting(monkeypatch, "brute_force_mean_cycle")
    assert checks.check_model(w, "taxi:4").ok
    # Each call answers both modes at once.
    assert len(calls) == len(distinct) < len(w.feature_model.products)


def test_projections_that_differ_only_in_weights_are_not_shared(monkeypatch):
    # Both products have one state and one self-loop; only its weight differs.
    w = Wfts(
        ["a"], ["a"],
        [Transition("a", "a", 1, Var("F")), Transition("a", "a", 2, ~Var("F"))],
        FeatureModel(["F"]),
    )
    calls = counting(monkeypatch, "brute_force_mean_cycle")
    runs = routed(monkeypatch)
    assert checks.check_model(w).ok
    assert len(calls) == 2
    # The product route tells the two products apart, in each mode.
    assert [sorted(value for _, value in classes) for _, classes in runs] == [[1, 2], [1, 2]]


def test_classic_references_run_once_per_block(monkeypatch):
    w = next(
        w for w in random_corpus(11, 40)
        if len(checks.product_blocks(IndexedModel(w))) < len(w.feature_model.products)
    )
    blocks = checks.product_blocks(IndexedModel(w))
    built = counting(monkeypatch, "reachable_projection")
    assert checks.check_model(w).ok
    assert [bit for _, bit, _ in built] == [block & -block for block in blocks]


def assert_block_reaches_are_the_classic_ones(w: Wfts) -> None:
    """The reach that ``product_inputs`` reads off its one ``spread`` for
    each block is every product's classic reach (``reachable_from`` over
    ``successors``) on the declared arcs."""
    im = IndexedModel(w)
    with pytest.MonkeyPatch.context() as patch:
        built = counting(patch, "reachable_projection")
        blocks = checks.product_inputs(im, "model").blocks
    assert [bit for _, bit, _ in built] == [block & -block for block in blocks]
    for (_, _, got), block in zip(built, blocks):
        for p in checks._bits(block):
            assert got == reach(im, 1 << p), p


@pytest.mark.parametrize("label, w", BLOCK_MODELS, ids=[label for label, _ in BLOCK_MODELS])
def test_block_reaches_equal_classic_reachability_on_bundled_models(label, w):
    assert_block_reaches_are_the_classic_ones(w)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9), wide=st.booleans())
def test_block_reaches_equal_classic_reachability_on_random_models(seed, wide):
    sizes = {"max_states": 16, "max_features": 10} if wide else {}
    assert_block_reaches_are_the_classic_ones(random_wfts(f"reach:{seed}", **sizes))


def test_check_model_runs_no_feature_aware_dfs(monkeypatch):
    # Every module that holds the name, so that one imported into checks counts.
    owners = [m for m in (ordering, analysis, checks) if hasattr(m, "dfs_order")]
    calls = counting(monkeypatch, "dfs_order", *owners)
    assert checks.check_model(taxi(2), "taxi:2").ok
    assert calls == []


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
    result = checks.check_model(TAXI2, "taxi:2")
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

    def stub(n, edges):
        if (n, tuple(edges)) == WRONG:
            return {"max": Fraction(-999), "min": Fraction(-999)}
        return oracle(n, edges)

    lines = failures_wrong_on_one_projection(monkeypatch, "brute_force_mean_cycle", stub)
    assert all("brute-force=-999" in line for line in lines)


def test_a_product_route_wrong_on_one_projection_fails_every_product_sharing_it(
    monkeypatch,
):
    route = checks._product_values
    wrong = sum(1 << p for p, projection in enumerate(TAXI2_PROJECTIONS) if projection == WRONG)

    def stub(im):
        classes = [(mask & ~wrong, value) for mask, value in route(im) if mask & ~wrong]
        return classes + [(wrong, Fraction(-999))]

    lines = failures_wrong_on_one_projection(monkeypatch, "_product_values", stub)
    form = re.compile(r"taxi:2 mode=(max|min) product \{[\w,]*\}: "
                      r"family=(-?\d+(/\d+)?) product-based=-999 brute-force=\2")
    assert all(form.fullmatch(line) for line in lines)


def _shares_projections(w: Wfts) -> bool:
    return len(set(projections(w))) < len(w.feature_model.products)


SHARED = [("taxi:4", taxi(4)), next(
    (f"random[11:{i}]", w) for i, w in enumerate(random_corpus(11, 40)) if _shares_projections(w)
)]


@pytest.mark.parametrize("label, w", SHARED, ids=[label for label, _ in SHARED])
def test_product_route_runs_once_per_mode_on_that_modes_index(monkeypatch, label, w):
    # The route is the one ``analyze`` runs: once per mode, on the index
    # of that mode's sign, with the classes that ``analyze`` prints.
    runs = routed(monkeypatch)
    assert checks.check_model(w, label).ok
    assert [(im.sign, im.system is w) for im, _ in runs] == [(1, True), (-1, True)]
    for (_, classes), mode in zip(runs, ("max", "min")):
        assert classes == analyze_products(w, mode).classes, mode


def test_check_model_builds_one_index_per_sign(monkeypatch):
    # The value routes read one index per sign, and the projections read
    # the declared arcs of the first: no index of a length expansion.
    w = taxi(3)
    built = []
    init = IndexedModel.__init__

    def counted(self, system, sign=1):
        built.append((sign, system is w))
        init(self, system, sign)

    monkeypatch.setattr(IndexedModel, "__init__", counted)
    assert checks.check_model(w, "taxi:3").ok
    assert sorted(built) == [(-1, True), (1, True)]


def live_views(monkeypatch) -> list:
    """The sign of every index whose live view is built from now on."""
    built = []
    build = IndexedModel.__dict__["live"].func

    def counted(self):
        built.append(self.sign)
        return build(self)

    view = cached_property(counted)
    view.__set_name__(IndexedModel, "live")
    monkeypatch.setattr(IndexedModel, "live", view)
    return built


def test_check_model_builds_one_live_view_per_sign(monkeypatch):
    # The family route and the product route share their index's live
    # view, in each mode.
    built = live_views(monkeypatch)
    runs = routed(monkeypatch)
    w = taxi(3)
    assert len(checks.product_blocks(IndexedModel(w))) > 1
    assert checks.check_model(w, "taxi:3").ok
    assert len(runs) == 2
    assert sorted(built) == [-1, 1]


@pytest.mark.parametrize("mode, sign", [("max", 1), ("min", -1)])
def test_analyze_both_builds_one_live_view(monkeypatch, mode, sign):
    built = live_views(monkeypatch)
    analysis.analyze_both(random_wfts("wide:23", 16, 10), mode, witnesses=True)
    assert built == [sign]


def test_a_model_past_the_oracle_limit_fails_before_any_suite(monkeypatch):
    family = counting(monkeypatch, "_family_values")
    runs = routed(monkeypatch)
    with pytest.raises(ModelError, match=(
        r"^taxi:5: a product reaches 52 states after length expansion; "
        r"the brute-force oracle stops at 48$"
    )):
        checks.check_model(taxi(5), "taxi:5")
    assert family == runs == []


def expansions(monkeypatch) -> list:
    """Every ``expand_lengths`` call from now on, counted in every ``wfts``
    module that holds the name."""
    import wfts.cli  # noqa: F401  (so that every module validate runs is loaded)

    owners = [module for name, module in list(sys.modules.items())
              if name.startswith("wfts") and hasattr(module, "expand_lengths")]
    return counting(monkeypatch, "expand_lengths", *owners)


def test_the_limit_is_checked_on_the_declared_arcs_before_expansion(monkeypatch):
    # One product reaches s, t and the 59 states of the chain s -> t.
    text = ("features { A }\nstates { s, t }\ninit { s }\n"
            "trans s -> t weight=4 length=60\ntrans t -> s [A] weight=1\n")
    w = parse(text)
    largest = max(unit_projection(IndexedModel(w), bit)[0] for bit in (1, 2))
    assert largest == 61
    expanded = expansions(monkeypatch)
    with pytest.raises(ModelError) as caught:
        checks.check_model(w, "long")
    assert str(caught.value) == (f"long: a product reaches {largest} states after length "
                                 "expansion; the brute-force oracle stops at 48")
    assert expanded == []


def test_validate_refuses_a_length_of_200000_at_once(tmp_path, capsys):
    from wfts.cli import main

    path = tmp_path / "long.wfts"
    path.write_text("features { A }\nstates { s, t }\ninit { s }\n"
                    "trans s -> t weight=4 length=200000\ntrans t -> s [A] weight=1\n")
    start = time.perf_counter()
    assert main(["validate", str(path)]) == 2
    assert time.perf_counter() - start < 0.05
    assert "a product reaches 200001 states after length expansion" in capsys.readouterr().err


# Lengths 2 to 5 and fractional weights, under the oracle's limit.
FRACTIONAL = ("features { A, B }\nstates { s, t, u }\ninit { s }\n"
              "trans s -> t weight=1.5 length=2\n"
              "trans t -> u [A] weight=-0.25 length=5\n"
              "trans u -> s weight=2.75 length=3\n"
              "trans t -> s [B] weight=0.125 length=4\n"
              "trans s -> s [!B] weight=3.5 length=2\n")


@pytest.mark.parametrize("source", ["taxi:2", "fractional"])
def test_validate_expands_no_lengths(monkeypatch, tmp_path, capsys, source):
    from wfts.cli import main

    if source == "taxi:2":
        args = ["--generate", "taxi:2"]
    else:
        path = tmp_path / "fractional.wfts"
        path.write_text(FRACTIONAL)
        args = [str(path)]
    expanded = expansions(monkeypatch)
    assert main(["validate", *args]) == 0
    assert expanded == []
    assert capsys.readouterr().err == ""


def assert_projections_match_the_unit_steps(w: Wfts) -> None:
    """Per block, at its lowest product: the declared projection's unit
    count is the state count of the unit steps' projection, and the oracle
    on it answers as on the unit steps, in both modes."""
    im = IndexedModel(w)
    for block in checks.product_blocks(im):
        bit = block & -block
        reached = reach(im, bit)
        n, edges = unit_projection(im, bit)
        assert checks.unit_states(im, bit, reached) == n
        declared = checks.reachable_projection(im, bit, reached)
        assert brute_force_mean_cycle(*declared) == brute_force_mean_cycle(n, edges)


@pytest.mark.parametrize("label, w", BLOCK_MODELS, ids=[label for label, _ in BLOCK_MODELS])
def test_declared_projections_match_the_unit_steps_on_bundled_models(label, w):
    assert_projections_match_the_unit_steps(w)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**9), data=st.data())
def test_declared_projections_match_the_unit_steps_on_random_models(seed, data):
    # At most 5 states and 14 arcs of length at most 4: at most 47 unit
    # states, within the oracle's limit.
    w = random_wfts(f"lengths:{seed}", max_states=5)
    divisor = st.integers(1, 4)
    trans = [replace(t, weight=t.weight / data.draw(divisor), length=data.draw(st.integers(1, 4)))
             for t in w.transitions]
    parallel = data.draw(st.sampled_from(trans))  # a parallel arc of another length
    trans.append(replace(parallel, length=parallel.length % 4 + 1))
    s = data.draw(st.sampled_from(w.states))
    trans.append(Transition(s, s, Fraction(data.draw(st.integers(-9, 9)), data.draw(divisor)),
                            TRUE, "tau", data.draw(st.integers(2, 4))))
    assert_projections_match_the_unit_steps(Wfts(w.states, w.initial, trans, w.feature_model))


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
    assert checks.check_model(reordered, label).ok


def taxi2_tree():
    """taxi:2's index and finishing tree, with the leaf that two products
    share and its parent: a fresh tree per call, free to corrupt."""
    im = IndexedModel(expand_lengths(TAXI2))
    tree = build_finishing_tree(unit_order(im))
    leaf = tree.leaves()[1]
    assert bin(leaf.path_mask).count("1") == 2 and leaf.parent.children == [leaf]
    return im, tree, leaf


def tree_failures(tree, im) -> list[str]:
    refs = classic_references(im, checks.product_inputs(im, "taxi:2"))
    return check_tree(tree, im, refs).failures


def test_a_swapped_node_state_fails_each_product_on_its_path():
    im, tree, leaf = taxi2_tree()
    want = leaf.path_states()
    leaf.state, leaf.parent.state = leaf.parent.state, leaf.state
    got = leaf.path_states()
    assert got[-2:] == want[:-3:-1] == ["P2#AR#1", "P2"]
    assert tree_failures(tree, im) == [
        f"product {product}: path {got} != classic finish order {want}"
        for product in ("{L1}", "{L1,S}")
    ]


def test_a_repeated_state_fails_its_node_and_every_node_below():
    im, tree, _ = taxi2_tree()
    top = tree.root.children[0]
    node = top.children[0]
    node.state = top.state

    def below(n):
        while n is not None and n is not node:
            n = n.parent
        return n is node

    want = [f"repeated state on path {n.path_states()}" for n in tree.nodes if below(n)]
    assert len(want) > im.n - 1  # the node's whole subtree
    got = [line for line in tree_failures(tree, im) if line.startswith("repeated")]
    assert got == want
    node.state = "nowhere"  # a name the model lacks is no repeat
    assert not [line for line in tree_failures(tree, im) if line.startswith("repeated")]


def test_a_cleared_edge_mask_strands_its_products():
    im, tree, _ = taxi2_tree()
    child = tree.root.children[2]
    assert (child.state, bin(child.path_mask).count("1")) == ("R1", 4)
    child.edge_mask = 0
    assert tree_failures(tree, im) == [
        "product {L1,L2} matches 0 children at depth 1",
        "product {L1,L2,T} matches 0 children at depth 1",
        "product {L1,L2,S} matches 0 children at depth 1",
        "product {L1,L2,S,T} matches 0 children at depth 1",
    ]


def test_a_dropped_path_mask_bit_is_named_at_its_depth():
    im, tree, leaf = taxi2_tree()
    leaf.path_mask &= leaf.path_mask - 1  # its lowest product, {L1}
    assert tree_failures(tree, im) == ["product {L1} missing from path mask at depth 28"]


def test_an_emptied_order_entry_fails_coverage_and_count():
    order = unit_order(IndexedModel(expand_lengths(TAXI2)))
    u, mask = order.stamps[0]
    assert mask == order.context  # 16 products
    corrupted = DfsOrder(order.states, order.context, [(u, 0), *order.stamps[1:]])
    assert check_order_coverage(corrupted).failures == [
        "entry 1 for P2#AR#1 is empty",
        "state P2#AR#1: finish entries do not cover all products",
        "stamp count 432 != |S| * |products| = 448",
    ]


def test_a_widened_order_entry_overlaps_its_state():
    order = unit_order(IndexedModel(expand_lengths(TAXI2)))
    stamps = list(order.stamps)
    # Entry 9 takes entry 25's 4 products too: both are Pe2#AR#1's.
    (u, mask), (v, other) = stamps[8], stamps[24]
    assert u == v and bin(other).count("1") == 4
    stamps[8] = (u, mask | other)
    corrupted = DfsOrder(order.states, order.context, stamps)
    assert check_order_coverage(corrupted).failures == [
        "state Pe2#AR#1: overlapping finish entries",
        "stamp count 452 != |S| * |products| = 448",
    ]


# A wide random model: 64 products in 9 blocks, the largest of 16.
WIDE = random_wfts("wide:4", max_states=16, max_features=10)


def wide_tree():
    """WIDE's index, its classic references and a fresh finishing tree,
    free to corrupt, and a product that is not its block's lowest."""
    im = IndexedModel(expand_lengths(WIDE))
    refs = classic_references(im, checks.product_inputs(im, "wide:4"))
    block = max(refs.blocks, key=lambda b: bin(b).count("1"))
    assert bin(block).count("1") == 16
    q = list(checks._bits(block))[1]
    return im, refs, build_finishing_tree(unit_order(im)), q


def test_a_tree_edge_without_a_non_lowest_product_fails_that_product_alone():
    im, refs, tree, q = wide_tree()
    assert check_tree(tree, im, refs).ok
    node = next(node for node in tree.nodes
                if node.depth == im.n // 2 and node.path_mask >> q & 1)
    node.edge_mask &= ~(1 << q)
    product = format_product(WIDE.feature_model.products[q])
    assert check_tree(tree, im, refs).failures == [
        f"product {product} matches 0 children at depth {im.n // 2}"
    ]


def test_a_component_without_a_non_lowest_product_fails_that_product_alone():
    im, refs, tree, q = wide_tree()
    components = symbolic_sccs(tree, im)
    assert check_scc_tree({"tree": components}, im, refs).ok
    scc = next(scc for scc in components if scc.masks[scc.anchor] >> q & 1)
    scc.masks[scc.anchor] &= ~(1 << q)
    product = format_product(WIDE.feature_model.products[q])
    failures = check_scc_tree({"tree": components}, im, refs).failures
    assert failures[0].startswith(f"tree route, product {product}: symbolic SCCs ")
    assert failures[1:] == [
        f"tree route, product {product}: {im.n - 1} of {im.n} states assigned"
    ]


def named_products(failures: list[str]) -> set[str]:
    return {re.search(r"product (\{[\w,]*\})", line).group(1) for line in failures}


def products_of(mask: int) -> set[str]:
    return {format_product(WIDE.feature_model.products[p]) for p in checks._bits(mask)}


def test_a_swapped_leaf_fails_every_product_of_its_blocks():
    im, refs, tree, q = wide_tree()
    leaf = next(leaf for leaf in tree.leaves() if leaf.path_mask >> q & 1)
    leaf.state, leaf.parent.state = leaf.parent.state, leaf.state
    failures = check_tree(tree, im, refs).failures
    assert len(failures) == bin(leaf.path_mask).count("1") > 1
    assert named_products(failures) == products_of(leaf.path_mask)


def test_a_dropped_component_fails_every_product_of_its_blocks():
    im, refs, tree, q = wide_tree()
    components = symbolic_sccs(tree, im)
    scc = next(scc for scc in components if scc.masks[scc.anchor] >> q & 1)
    components.remove(scc)
    failures = check_scc_tree({"tree": components}, im, refs).failures
    assert named_products(failures) == products_of(scc.masks[scc.anchor])


def reference_triangle(im: IndexedModel, inputs: checks.ProductInputs,
                       label: str) -> list[str]:
    """``check_triangle``'s failure lines, compared product by product."""
    products = im.feature_model.products
    block_of = {p: b for b, block in enumerate(inputs.blocks) for p in checks._bits(block)}
    failures = []
    for mode, sign in (("max", 1), ("min", -1)):
        signed = im if im.sign == sign else IndexedModel(im.system, sign)
        family = checks._per_product(checks._family_values(signed), len(products))
        product = checks._per_product(checks._product_values(signed), len(products))
        for p, name in enumerate(products):
            which = inputs.projection_of[block_of[p]]
            fam_v, prod_v, oracle_v = family[p], product[p], inputs.oracle[which][mode]
            if not (fam_v == prod_v == oracle_v):
                failures.append(f"{label} mode={mode} product {format_product(name)}: "
                                f"family={fam_v} product-based={prod_v} "
                                f"brute-force={oracle_v}")
    return failures


def _family_mutants():
    """Wrong value routes, each as a function of the right one's classes."""
    def one_product_off(classes):  # the second product leaves its class
        (mask, value), *_ = [cell for cell in classes if cell[0] & 2] or [(0, None)]
        if not mask:
            return classes
        moved = (2, Fraction(-999) if value is None else value + Fraction(1, 7))
        return [(m & ~2, v) for m, v in classes if m & ~2] + [moved]

    def products_alone(classes):  # right values, one class per product
        return [(1 << p, v) for m, v in classes for p in range(m.bit_length()) if m >> p & 1]

    return {
        "right": lambda classes: classes,
        "one product off": one_product_off,
        "every class shifted": lambda classes: [
            (m, v if v is None else v - Fraction(1, 1000)) for m, v in classes],
        "products alone": products_alone,
        "undefined everywhere": lambda classes: [(sum(m for m, _ in classes), None)],
    }


@pytest.mark.parametrize("mutant", list(_family_mutants()))
def test_the_triangle_by_blocks_names_the_failures_of_the_per_product_one(
    mutant, monkeypatch,
):
    # The mutant replaces one route at a time: the family route, then the
    # product route.
    models = [taxi(2), minepump_lite(), grant_request(), *random_corpus(0, 60)]
    mutate = _family_mutants()[mutant]
    for name in ("_family_values", "_product_values"):
        route = getattr(checks, name)
        monkeypatch.setattr(checks, name, lambda im: mutate(route(im)))
        failing = 0
        for i, w in enumerate(models):
            im = IndexedModel(w)
            inputs = checks.product_inputs(im, f"model {i}")
            want = reference_triangle(im, inputs, f"model {i}")
            assert checks.check_triangle(im, inputs, f"model {i}").failures == want, name
            failing += bool(want)
        assert (failing == 0) == (mutant in ("right", "products alone")), name
        monkeypatch.undo()


def _certify_mutants():
    """Wrong carried certificates of the product route
    (``meancycle._certify``): one that passes every block, and one without
    Howard's type-2 test (a successor of equal mean and better
    potential)."""
    source = textwrap.dedent(inspect.getsource(meancycle._certify))
    cut = source.replace(
        " or (nv == nu and dv == du and du * wt - nu * ln + x[v] > x[u])", "")
    assert cut != source
    namespace = dict(vars(meancycle))
    exec(cut, namespace)
    return {"always": lambda *args: True, "no type 2": namespace["_certify"]}


@pytest.mark.parametrize("mutant", list(_certify_mutants()))
def test_a_wrong_carried_certificate_fails_the_triangle(mutant, monkeypatch):
    # The blocks after the first of taxi:2 are mostly certified from the
    # last block's values: a wrong certificate gives some products the
    # last block's value, which the family route and the oracle refute.
    monkeypatch.setattr(meancycle, "_certify", _certify_mutants()[mutant])
    header, *lines = checks.check_model(TAXI2, "taxi:2").failures
    assert header.startswith("model taxi:2:\n")
    form = re.compile(r"taxi:2 mode=(max|min) product \{[\w,]*\}: "
                      r"family=(\S+) product-based=(\S+) brute-force=\2")
    matches = [form.fullmatch(line) for line in lines]
    assert lines and all(m and m.group(2) != m.group(3) for m in matches), lines[:3]
