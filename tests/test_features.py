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


@pytest.fixture
def fm_gl():
    return FeatureModel(["G", "A"])


@pytest.fixture
def fm_stl():
    return FeatureModel(["S", "T", "L"])


def test_denote_true_is_all_products(fm_stl):
    assert len(fm_stl.denote(TRUE)) == 8


def test_denote_contradiction_is_empty(fm_gl):
    g = Var("G")
    assert not fm_gl.denote(g & ~g)


def test_denote_disjunction_truth_table(fm_gl):
    got = set(fm_gl.denote(Var("G") | Var("A")))
    assert got == {frozenset({"G"}), frozenset({"A"}), frozenset({"G", "A"})}


def test_satisfiable_negated_disjunction(fm_gl):
    # The empty product satisfies neither G nor A.
    assert fm_gl.is_satisfiable(~(Var("G") | Var("A")))


def test_unsatisfiable_cases(fm_gl):
    assert not fm_gl.is_satisfiable(FALSE)
    assert not fm_gl.is_satisfiable(Var("G") & ~Var("G"))


def test_entailment(fm_gl):
    g, a = Var("G"), Var("A")
    assert fm_gl.entails(g, g | a)
    assert not fm_gl.entails(g | a, g)
    assert fm_gl.entails(g & a, TRUE)
    assert fm_gl.entails(FALSE, g)


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
    got = set(fm.denote(e))
    expected = {p for p in powerset(["x", "y", "z"]) if _eval(e, p)}
    assert got == expected
    assert fm.is_satisfiable(e) == bool(expected)


@given(a=exprs(["x", "y"]), b=exprs(["x", "y"]))
def test_denotation_is_homomorphic(a, b):
    fm = FeatureModel(["x", "y"])
    assert fm.denote(And(a, b)) == fm.denote(a) & fm.denote(b)
    assert fm.denote(Or(a, b)) == fm.denote(a) | fm.denote(b)
    assert fm.denote(Not(a)) == ~fm.denote(a)


@given(e=exprs(["x", "y", "z"]))
def test_product_set_round_trips_through_expression(e):
    fm = FeatureModel(["x", "y", "z"])
    ps = fm.denote(e)
    assert fm.denote(ps.to_expr()) == ps


def test_equivalent_formulas_denote_equal_sets(fm_gl):
    g, a = Var("G"), Var("A")
    de_morgan = fm_gl.denote(~(g | a))
    assert de_morgan == fm_gl.denote(~g & ~a)


def test_product_set_ops_respect_valid_products():
    # Complement stays inside the constrained product set.
    fm = FeatureModel(["x", "y"], Var("x") | Var("y"))
    everything = fm.denote(TRUE)
    assert len(everything) == 3
    nothing = ~everything
    assert not nothing


def _eval(e, product):
    from wfts.features import _eval as impl

    return impl(e, product)
