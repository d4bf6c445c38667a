from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from wfts.features import (
    FALSE,
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


def _eval(e, product):
    from wfts.features import _eval as impl

    return impl(e, product)
