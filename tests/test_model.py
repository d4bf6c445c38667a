from fractions import Fraction

import pytest

from wfts.features import MAX_GUARD_DEPTH, TRUE, FeatureError, FeatureModel, Var
from wfts.graphs import IndexedModel
from wfts.model import ModelError, Transition, Wfts, expand_lengths

from cold_reference import reachable_from, successors
from paper_reference import symbolic_reachable_masks


def tiny(features=(), constraint=TRUE, **kwargs):
    fm = FeatureModel(features, constraint)
    defaults = dict(
        states=["a", "b"],
        initial=["a"],
        transitions=[Transition("a", "b", 1), Transition("b", "a", 2)],
    )
    defaults.update(kwargs)
    return Wfts(feature_model=fm, **defaults)


class TestValidation:
    def test_empty_states(self):
        with pytest.raises(ModelError):
            tiny(states=[], initial=[], transitions=[])

    def test_duplicate_state(self):
        with pytest.raises(ModelError):
            tiny(states=["a", "a"])

    def test_missing_initial(self):
        with pytest.raises(ModelError):
            tiny(initial=[])

    def test_undeclared_endpoint(self):
        with pytest.raises(ModelError):
            tiny(transitions=[Transition("a", "zz", 1)])

    def test_unknown_guard_feature(self):
        with pytest.raises(ModelError):
            tiny(transitions=[Transition("a", "b", 1, Var("nope"))])

    def test_float_weight_rejected(self):
        with pytest.raises(ModelError):
            Transition("a", "b", 0.5)

    def test_bad_length(self):
        with pytest.raises(ModelError):
            Transition("a", "b", 1, length=0)

    def test_exact_weight_from_string(self):
        assert Transition("a", "b", "13.5").weight == Fraction(27, 2)

    def test_weights_become_exact_fractions_and_fractions_stay(self):
        class Ratio(Fraction):
            pass

        exact = Fraction(7, 3)
        assert Transition("a", "b", exact).weight is exact
        for weight, want in ((3, Fraction(3)), ("-7/4", Fraction(-7, 4)),
                             (Ratio(1, 2), Fraction(1, 2))):
            got = Transition("a", "b", weight).weight
            assert type(got) is Fraction and got == want
        for bad in (0.5, "x", None):
            with pytest.raises(ModelError):
                Transition("a", "b", bad)

    def test_guard_depth_is_bounded_before_any_recursion(self):
        def chain(levels):
            e = Var("G")
            for _ in range(levels):
                e = e & Var("G")
            return e

        def build(guard):
            return Wfts(["a"], ["a"], [Transition("a", "a", 1, guard)],
                        FeatureModel(["G"]))

        # The parser's own bound is accepted; a 1,001-deep chain once raised
        # RecursionError while the guard was hashed.
        build(chain(MAX_GUARD_DEPTH))
        for levels in (MAX_GUARD_DEPTH + 1, 1001):
            with pytest.raises(ModelError, match="deeper than"):
                build(chain(levels))
        with pytest.raises(FeatureError, match="deeper than"):
            FeatureModel(["G"], chain(1001))


def product_edges(w, product):
    """One product's ``(source, target)`` unit steps, read off the index of
    the length expansion."""
    im = IndexedModel(expand_lengths(w))
    names = im.system.states
    bit = 1 << w.feature_model.product_index(product)
    return [(names[u], names[v]) for u, v, _, _, g, _ in im.arcs if g & bit]


class TestProjection:
    def test_taxi_empty_product_keeps_the_unguarded_core(self, taxi1):
        def chain(*states):
            return list(zip(states, states[1:]))

        pairs = product_edges(taxi1, frozenset())
        # All 7 unguarded transitions of the base service survive as 13
        # unit steps through the states of length expansion.
        core = chain("R1", "P1", "P1#AR#1", "P1#AR#2", "AR", "AP", "AP#R2#1",
                     "R2", "P2", "P2#AR#1", "AR") + chain("AP", "AP#R1#1", "AP#R1#2", "R1")
        # Every S-, T- and licensed transition loses its first step, the
        # only guarded one: the unguarded rest of the two four-step licensed
        # trips stays, unreachable.
        tails = (chain("AP#Re1#1", "AP#Re1#2", "AP#Re1#3", "Re1")
                 + chain("Pe1#AR#1", "Pe1#AR#2", "Pe1#AR#3", "AR"))
        assert sorted(pairs) == sorted(core + tails)
        # A product's graph never drops states.
        im = IndexedModel(expand_lengths(taxi1))
        assert len(successors(im, 1)) == im.n == IndexedModel(taxi1).n == 20

    def test_grant_request_empty_product_isolates_s2(self, grantreq):
        touching = [p for p in product_edges(grantreq, frozenset()) if "s2" in p]
        assert touching == []

    def test_true_guards_project_identically(self):
        w = tiny()
        assert len(product_edges(w, frozenset())) == len(w.transitions)

    def test_invalid_product_rejected(self, taxi1):
        with pytest.raises(FeatureError):
            taxi1.feature_model.product_index(frozenset({"no-such-feature"}))


class TestExpandLengths:
    def test_weight_on_first_hop(self, taxi1):
        expanded = expand_lengths(taxi1)
        chain = [
            t for t in expanded.transitions
            if t.source == "P1" or t.source.startswith("P1#AR")
        ]
        chain = [t for t in chain if t.target.startswith("P1#AR") or t.target == "AR"]
        assert [t.weight for t in chain] == [40, 0, 0]
        assert all(t.length == 1 for t in expanded.transitions)

    def test_unit_transition_unchanged(self):
        w = tiny()
        assert expand_lengths(w) is w

    def test_taxi_empty_product_cycle_mean(self, taxi1_expanded):
        # The airport loop via location 2 has 6 unit edges totaling 73.
        im = IndexedModel(taxi1_expanded)
        bit = 1 << taxi1_expanded.feature_model.product_index(frozenset())
        hops = {
            (im.system.states[u], im.system.states[v]): Fraction(wt, im.scale)
            for u, v, wt, _, g, _ in im.arcs
            if g & bit
        }
        cycle = ["AP", "AP#R2#1", "R2", "P2", "P2#AR#1", "AR", "AP"]
        total = sum(hops[pair] for pair in zip(cycle, cycle[1:]))
        assert total == 73
        assert Fraction(total, len(cycle) - 1) == Fraction(73, 6)

    def test_intermediate_names_are_reserved_and_unique(self, taxi1_expanded):
        names = list(taxi1_expanded.states)
        assert len(names) == len(set(names))
        fresh = [s for s in names if "#" in s]
        assert len(fresh) == len(names) - 8

    def test_multiedges_between_same_pair_do_not_collide(self):
        fm = FeatureModel([])
        w = Wfts(
            ["a", "b"],
            ["a"],
            [Transition("a", "b", 1, length=3), Transition("a", "b", 5, length=2),
             Transition("b", "a", 0)],
            fm,
        )
        expanded = expand_lengths(w)
        assert len(expanded.states) == 2 + 2 + 1
        assert len(set(expanded.states)) == len(expanded.states)


class TestSymbolicReachable:
    @staticmethod
    def reach(w):
        """State name -> the products (a bitmask) that reach it."""
        return dict(zip(w.states, symbolic_reachable_masks(IndexedModel(expand_lengths(w)))))

    def test_initials_reach_everything_true(self, grantreq):
        fm = grantreq.feature_model
        assert self.reach(grantreq)["s0"] == fm.mask(TRUE)

    def test_grant_request_s2_needs_g_or_a(self, grantreq):
        fm = grantreq.feature_model
        assert self.reach(grantreq)["s2"] == fm.mask(Var("G") | Var("A"))

    def test_taxi_ext_states_need_the_license(self, taxi1):
        fm = taxi1.feature_model
        reach = self.reach(taxi1)
        lic = fm.mask(Var("L1"))
        for state in taxi1.states:
            if state in ("Pe1", "Re1"):
                assert reach[state] == lic
            else:
                assert reach[state] == fm.mask(TRUE)

    def test_matches_classic_reachability_per_product(self, taxi1_expanded):
        w = taxi1_expanded
        fm = w.feature_model
        im = IndexedModel(w)
        reach = symbolic_reachable_masks(im)
        for i in range(len(fm.products)):
            classic = reachable_from(successors(im, 1 << i), im.initial, im.n)
            for mask, flag in zip(reach, classic):
                assert bool(mask >> i & 1) == flag