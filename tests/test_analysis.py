import json
import random
from fractions import Fraction

import pytest

from wfts.analysis import (
    StrategyMismatch,
    analyze_both,
    analyze_family,
    analyze_products,
    decimal2,
    report_to_csv,
    report_to_dict,
    report_to_json,
    report_to_table,
)
from wfts.features import FeatureModel, Var
from wfts.generators import grant_request, minepump_lite, taxi
from wfts.model import Transition, Wfts, expand_lengths
from wfts.randgen import random_corpus

TAXI_GOLDEN = {
    frozenset(): Fraction(73, 6),
    frozenset({"L1"}): Fraction(73, 6),
    frozenset({"S"}): Fraction(103, 8),
    frozenset({"T"}): Fraction(14),
    frozenset({"L1", "S"}): Fraction(133, 10),
    frozenset({"L1", "T"}): Fraction(14),
    frozenset({"S", "T"}): Fraction(43, 3),
    frozenset({"L1", "S", "T"}): Fraction(73, 5),
}

TAXI_GOLDEN_SHOWN = {
    frozenset(): "12.17",
    frozenset({"L1"}): "12.17",
    frozenset({"S"}): "12.88",
    frozenset({"T"}): "14.00",
    frozenset({"L1", "S"}): "13.30",
    frozenset({"L1", "T"}): "14.00",
    frozenset({"S", "T"}): "14.33",
    frozenset({"L1", "S", "T"}): "14.60",
}


@pytest.fixture(scope="module")
def taxi_family(taxi1_expanded):
    return analyze_family(taxi1_expanded, "max", witnesses=True)


class TestTaxiGolden:
    def test_family_values(self, taxi_family):
        for outcome in taxi_family.outcomes:
            assert outcome.value == TAXI_GOLDEN[outcome.product]

    def test_rounded_rendering(self, taxi_family):
        for outcome in taxi_family.outcomes:
            assert decimal2(outcome.value) == TAXI_GOLDEN_SHOWN[outcome.product]

    def test_product_based_agrees(self, taxi1_expanded, taxi_family):
        report = analyze_products(taxi1_expanded, "max")
        for a, b in zip(taxi_family.outcomes, report.outcomes):
            assert a.value == b.value

    def test_witness_cycles_are_optimal_cycles(self, taxi1_expanded, taxi_family):
        # Witness means must equal the reported value (cycle through the
        # original states; expansion hops contribute their full weight).
        unexpanded = {}
        from wfts.generators import taxi

        for t in taxi(1).transitions:
            unexpanded[(t.source, t.target)] = (t.weight, t.length)
        for outcome in taxi_family.outcomes:
            cyc = outcome.witness
            assert cyc is not None
            total, steps = Fraction(0), 0
            for src, tgt in zip(cyc, cyc[1:] + cyc[:1]):
                w, length = unexpanded[(src, tgt)]
                total += w
                steps += length
            assert total / steps == outcome.value

    def test_full_product_witness(self, taxi_family):
        full = next(
            o for o in taxi_family.outcomes
            if o.product == frozenset({"L1", "S", "T"})
        )
        assert set(full.witness) == {"Pe1", "P1", "P2", "R1", "Re1"}
        assert full.value == Fraction(73, 5)


class TestGrantRequest:
    def test_max_is_zero_everywhere(self, grantreq):
        report = analyze_both(grantreq, "max")
        assert [o.value for o in report.outcomes] == [0, 0, 0, 0]

    def test_min_values(self, grantreq):
        report = analyze_both(grantreq, "min")
        by_product = {o.product: o.value for o in report.outcomes}
        assert by_product == {
            frozenset(): 0,
            frozenset({"A"}): Fraction(-1, 2),
            frozenset({"G"}): -1,
            frozenset({"G", "A"}): -1,
        }

    def test_min_witness_for_g(self, grantreq):
        report = analyze_family(grantreq, "min", witnesses=True)
        g = next(o for o in report.outcomes if o.product == frozenset({"G"}))
        assert g.witness == ("s2",)  # the penalty self-loop


class TestUndefined:
    @pytest.fixture
    def half_dead(self):
        # Under !F the only cycle disappears: limit average undefined.
        fm = FeatureModel(["F"])
        return Wfts(
            ["a", "b"],
            ["a"],
            [Transition("a", "b", 3, Var("F")), Transition("b", "a", 1)],
            fm,
        )

    def test_undefined_reported_per_product(self, half_dead):
        report = analyze_both(half_dead, "max")
        by_product = {o.product: o.value for o in report.outcomes}
        assert by_product[frozenset()] is None
        assert by_product[frozenset({"F"})] == 2

    def test_undefined_rendering(self, half_dead):
        report = analyze_family(half_dead, "max", witnesses=True)
        data = report_to_dict(report)
        empty = next(p for p in data["products"] if p["features"] == [])
        assert empty["value"] == "undefined"
        assert empty["decimal"] is None
        assert empty["witness"] is None
        assert "undefined" in report_to_table(report)

    def test_unreachable_cycle_does_not_count(self):
        fm = FeatureModel([])
        w = Wfts(
            ["a", "b", "c"],
            ["a"],
            [Transition("b", "c", 100), Transition("c", "b", 100)],
            fm,
        )
        report = analyze_both(w, "max")
        assert report.outcomes[0].value is None


class TestFamilies:
    def test_families_partition_products(self, taxi1_expanded):
        report = analyze_family(taxi1_expanded, "max")
        families = report.families()
        masks = [mask for mask, _ in families]
        union = 0
        for m in masks:
            assert union & m == 0
            union |= m
        assert union == taxi1_expanded.feature_model.full_mask

    def test_equal_values_coalesce(self, taxi1_expanded):
        report = analyze_family(taxi1_expanded, "max")
        families = {v for _, v in report.families()}
        assert Fraction(14) in families
        by_value = {v: mask for mask, v in report.families()}
        index = taxi1_expanded.feature_model.product_index
        assert by_value[Fraction(14)] == (1 << index({"T"})) | (1 << index({"L1", "T"}))


class TestReportFormats:
    def test_json_schema_and_stability(self, taxi1_expanded):
        report = analyze_family(taxi1_expanded, "max", witnesses=True)
        text = report_to_json(report, include_timing=False)
        again = analyze_family(taxi1_expanded, "max", witnesses=True)
        assert text == report_to_json(again, include_timing=False)
        data = json.loads(text)
        assert list(data) == ["mode", "products", "families"]
        assert list(data["products"][0]) == ["features", "value", "decimal", "witness"]
        assert list(data["families"][0]) == ["expr", "value"]

    def test_json_timing_section(self, grantreq):
        data = report_to_dict(analyze_family(grantreq, "max"))
        assert set(data["timing"]) == {"family_ms"}
        both = report_to_dict(analyze_both(grantreq, "max"))
        assert set(both["timing"]) == {"family_ms", "product_ms"}

    def test_csv(self, grantreq):
        text = report_to_csv(analyze_family(grantreq, "max"))
        lines = text.strip().split("\n")
        assert lines[0] == "product,value,decimal,witness"
        assert len(lines) == 5

    def test_table_color_toggle(self, grantreq):
        report = analyze_family(grantreq, "max")
        assert "\x1b[1m" in report_to_table(report, color=True)
        assert "\x1b" not in report_to_table(report, color=False)


class TestStrategyMismatch:
    def test_disagreement_raises(self, grantreq, monkeypatch):
        import wfts.analysis as analysis

        broken = lambda im: [Fraction(1)] * len(im.feature_model.products)
        monkeypatch.setattr(analysis, "_family_values", broken)
        with pytest.raises(StrategyMismatch) as err:
            analyze_both(grantreq, "max")
        assert "family=1" in str(err.value)


class TestDecimal2:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (Fraction(73, 6), "12.17"),
            (Fraction(103, 8), "12.88"),      # exact half rounds away from 0
            (Fraction(-103, 8), "-12.88"),
            (Fraction(14), "14.00"),
            (Fraction(1, 3), "0.33"),
            (Fraction(-1, 200), "-0.01"),     # -0.005 rounds away from 0
            (Fraction(0), "0.00"),
        ],
    )
    def test_rounding(self, value, expected):
        assert decimal2(value) == expected


class TestModeValidation:
    def test_bad_mode(self, grantreq):
        with pytest.raises(ValueError):
            analyze_family(grantreq, "median")



def _permuted(w: Wfts, rng: random.Random) -> Wfts:
    """``w`` with its states, initial states and transitions declared in a
    shuffled order; the features, and so the products, keep theirs."""
    states, initial, transitions = list(w.states), list(w.initial), list(w.transitions)
    for seq in (states, initial, transitions):
        rng.shuffle(seq)
    return Wfts(states, initial, transitions, w.feature_model)


def _metamorphic_models():
    named = [(f"taxi:{k}", taxi(k)) for k in (1, 2, 3)]
    named += [("grantrequest", grant_request()), ("minepump", minepump_lite())]
    named += [(f"random[0:{i}]", w) for i, w in enumerate(random_corpus(0, 60))]
    return named


class TestDeclarationOrder:
    """Per-product family values do not depend on the order in which states
    and transitions are declared, although the component pivots (index
    order) and the DFS order do."""

    @pytest.mark.parametrize("mode", ["max", "min"])
    def test_permuted_declarations_keep_family_values(self, mode):
        for label, w in _metamorphic_models():
            expected = [o.value for o in analyze_family(expand_lengths(w), mode).outcomes]
            for variant in range(2):
                rng = random.Random(f"{label}:{variant}")
                permuted = expand_lengths(_permuted(w, rng))
                got = [o.value for o in analyze_family(permuted, mode).outcomes]
                assert got == expected, (label, variant)


class TestBeyondTheOracle:
    """Models past the brute-force oracle's 48 states: the family route
    (forward-backward components) and the product route must agree."""

    @pytest.mark.parametrize("licenses", [5, 6])
    @pytest.mark.parametrize("mode", ["max", "min"])
    def test_taxi_strategies_agree(self, licenses, mode):
        report = analyze_both(expand_lengths(taxi(licenses)), mode)
        assert len(report.outcomes) == 2 ** (licenses + 2)
        assert all(o.value is not None for o in report.outcomes)
