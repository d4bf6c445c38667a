from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from wfts.features import (
    FALSE,
    MAX_GUARD_DEPTH,
    TRUE,
    And,
    FeatureError,
    FeatureModel,
    Not,
    Or,
    Var,
)


def powerset(names):
    return [
        frozenset(c)
        for r in range(len(names) + 1)
        for c in combinations(names, r)
    ]


def products_of(fm, mask):
    """The products a mask holds, as a set of feature sets."""
    return {p for i, p in enumerate(fm.products) if mask >> i & 1}


@pytest.fixture
def fm_gl():
    return FeatureModel(["G", "A"])


@pytest.fixture
def fm_stl():
    return FeatureModel(["S", "T", "L"])


def test_denote_true_is_all_products(fm_stl):
    assert len(products_of(fm_stl, fm_stl.mask(TRUE))) == 8


def test_denote_contradiction_is_empty(fm_gl):
    g = Var("G")
    assert fm_gl.mask(g & ~g) == 0


def test_denote_disjunction_truth_table(fm_gl):
    got = products_of(fm_gl, fm_gl.mask(Var("G") | Var("A")))
    assert got == {frozenset({"G"}), frozenset({"A"}), frozenset({"G", "A"})}


def test_satisfiable_negated_disjunction(fm_gl):
    # The empty product satisfies neither G nor A.
    assert fm_gl.mask(~(Var("G") | Var("A"))) != 0


def test_unsatisfiable_cases(fm_gl):
    assert fm_gl.mask(FALSE) == 0
    assert fm_gl.mask(Var("G") & ~Var("G")) == 0


def test_entailment(fm_gl):
    def entails(a, b):
        return fm_gl.mask(a) & ~fm_gl.mask(b) == 0

    g, a = Var("G"), Var("A")
    assert entails(g, g | a)
    assert not entails(g | a, g)
    assert entails(g & a, TRUE)
    assert entails(FALSE, g)


def test_enumerate_products_order(fm_gl):
    assert fm_gl.products == (
        frozenset(),
        frozenset({"A"}),
        frozenset({"G"}),
        frozenset({"G", "A"}),
    )


def test_enumerate_products_with_constraint():
    fm = FeatureModel(["F"], Var("F"))
    assert fm.products == (frozenset({"F"}),)


def test_empty_product_set_rejected():
    with pytest.raises(FeatureError):
        FeatureModel(["F"], FALSE)


def test_duplicate_and_invalid_names_rejected():
    with pytest.raises(FeatureError):
        FeatureModel(["F", "F"])
    with pytest.raises(FeatureError):
        FeatureModel(["2bad"])


def test_unknown_feature_in_expression(fm_gl):
    with pytest.raises(FeatureError):
        fm_gl.mask(Var("Z"))


def test_too_deep_expression_is_a_feature_error():
    fm = FeatureModel(["G"])
    shallow = deep = Var("G")
    for levels in range(1, 1002):
        deep = deep & Var("G")
        if levels == MAX_GUARD_DEPTH:
            shallow = deep
    assert fm.mask(shallow) == fm.mask(Var("G"))
    # A 1,001-deep chain once raised RecursionError while it was hashed.
    for e in (And(shallow, Var("G")), deep):
        with pytest.raises(FeatureError, match="deeper than"):
            fm.mask(e)


def test_no_features_single_product():
    fm = FeatureModel([])
    assert fm.products == (frozenset(),)
    assert fm.mask(TRUE) == 1


def exprs(features, depth=3):
    leaf = st.sampled_from(
        [TRUE, FALSE] + [Var(f) for f in features]
    )
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            sub.map(Not),
            st.tuples(sub, sub).map(lambda t: And(*t)),
            st.tuples(sub, sub).map(lambda t: Or(*t)),
        ),
        max_leaves=8,
    )


@given(e=exprs(["x", "y", "z"]))
def test_denotation_matches_truth_table(e):
    fm = FeatureModel(["x", "y", "z"])
    got = products_of(fm, fm.mask(e))
    expected = {p for p in powerset(["x", "y", "z"]) if _eval(e, p)}
    assert got == expected
    assert (fm.mask(e) != 0) == bool(expected)


@given(a=exprs(["x", "y"]), b=exprs(["x", "y"]))
def test_denotation_is_homomorphic(a, b):
    fm = FeatureModel(["x", "y"])
    assert fm.mask(And(a, b)) == fm.mask(a) & fm.mask(b)
    assert fm.mask(Or(a, b)) == fm.mask(a) | fm.mask(b)
    assert fm.mask(Not(a)) == fm.full_mask & ~fm.mask(a)


@given(e=exprs(["x", "y", "z"]))
def test_product_set_round_trips_through_expression(e):
    fm = FeatureModel(["x", "y", "z"])
    mask = fm.mask(e)
    assert fm.mask(fm.expr_for_mask(mask)) == mask


def test_equivalent_formulas_denote_equal_sets(fm_gl):
    g, a = Var("G"), Var("A")
    de_morgan = fm_gl.mask(~(g | a))
    assert de_morgan == fm_gl.mask(~g & ~a)


def test_product_set_ops_respect_valid_products():
    # Complement stays inside the constrained product set.
    fm = FeatureModel(["x", "y"], Var("x") | Var("y"))
    everything = fm.mask(TRUE)
    assert len(products_of(fm, everything)) == 3
    assert fm.mask(~TRUE) == 0
    not_x = fm.mask(~Var("x"))
    assert not_x & ~everything == 0
    assert products_of(fm, not_x) == {frozenset({"y"})}


def _eval(e, product) -> bool:
    """Whether ``product`` satisfies ``e``, by the truth tables."""
    if e == TRUE:
        return True
    if e == FALSE:
        return False
    if isinstance(e, Var):
        return e.name in product
    if isinstance(e, Not):
        return not _eval(e.operand, product)
    if isinstance(e, And):
        return _eval(e.left, product) and _eval(e.right, product)
    return _eval(e.left, product) or _eval(e.right, product)


def reference_products(features, constraint):
    """The valid products by the definition: every bit-vector code in
    increasing order, its top bit the first declared feature."""
    n = len(features)
    products = []
    for code in range(1 << n):
        product = frozenset(features[j] for j in range(n) if code >> (n - 1 - j) & 1)
        if _eval(constraint, product):
            products.append(product)
    return products


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_enumeration_matches_the_definition(data):
    count = data.draw(st.integers(0, 12))
    # Declared out of name order, so that name order cannot stand in for it.
    features = data.draw(st.permutations([f"f{i}" for i in range(count)]))
    constraint = data.draw(st.sampled_from([TRUE, FALSE]) | exprs(features))
    expected = reference_products(features, constraint)
    if not expected:
        with pytest.raises(FeatureError):
            FeatureModel(features, constraint)
        return
    fm = FeatureModel(features, constraint)
    assert fm.products == tuple(expected)
    assert [fm.product_index(p) for p in expected] == list(range(len(expected)))
    for f in features:
        assert fm.mask(Var(f)) == sum(1 << i for i, p in enumerate(expected) if f in p)


@pytest.mark.parametrize("features,constraint", [
    ([], FALSE),
    (["x", "y", "z"], Var("y") & ~Var("y")),
    (["x", "y"], (Var("x") | Var("y")) & ~Var("x") & ~Var("y")),
])
def test_constraints_without_products_are_rejected(features, constraint):
    assert reference_products(features, constraint) == []
    with pytest.raises(FeatureError):
        FeatureModel(features, constraint)


def test_feature_masks_at_sixteen_features():
    # Each mask is built by shifts over the 2^16 codes; here it is read off
    # the enumerated products, one digit per product.
    features = [f"f{i}" for i in range(16)]
    fm = FeatureModel(features)
    assert fm.products == tuple(reference_products(features, TRUE))
    for f in features:
        digits = "".join(["1" if f in p else "0" for p in reversed(fm.products)])
        assert fm.mask(Var(f)) == int(digits, 2)
