import hashlib
import json
import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from wfts.analysis import (
    StrategyMismatch,
    _tight_graph,
    analyze_both,
    analyze_family,
    analyze_products,
    decimal2,
    format_product,
    report_to_csv,
    report_to_json,
    report_to_table,
)
from wfts.cli import main
from wfts.features import FALSE, TRUE, FeatureModel, Not, Var
from wfts.generators import grant_request, minepump_lite, taxi
from wfts.graphs import IndexedModel
from wfts.model import Transition, Wfts, expand_lengths
from wfts.ordering import dfs_order
from wfts.randgen import random_corpus, random_wfts

from cold_reference import reachable_from, successors
from paper_reference import check_order_coverage, finish_order, kosaraju_components
from test_features import _eval, exprs, powerset
from test_golden import without_timing

def reference_dict(report) -> dict:
    """The report as plain data, in the shape ``report_to_json`` writes:
    ``json.dumps(reference_dict(r), indent=2)`` is its reference."""
    fm = report.wfts.feature_model
    products = []
    for outcome in report.outcomes:
        value = outcome.value
        products.append(
            {
                "features": sorted(outcome.product, key=fm.features.index),
                "value": "undefined" if value is None else str(value),
                "decimal": None if value is None else decimal2(value),
                "witness": list(outcome.witness) if outcome.witness else None,
            }
        )
    families = [
        {
            "expr": str(fm.expr_for_mask(mask)),
            "value": "undefined" if value is None else str(value),
        }
        for mask, value in report.classes
    ]
    timing = {k: round(v, 3) for k, v in report.timing_ms.items()}
    return {"mode": report.mode, "products": products, "families": families,
            "timing": timing}


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
        data = reference_dict(report)
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
        families = report.classes
        masks = [mask for mask, _ in families]
        union = 0
        for m in masks:
            assert union & m == 0
            union |= m
        assert union == taxi1_expanded.feature_model.full_mask

    @pytest.mark.parametrize("mode", ["max", "min"])
    def test_both_strategies_give_the_same_classes_on_the_corpus(self, mode):
        for w in random_corpus(0, 300):
            fm = w.feature_model
            family, product = analyze_family(w, mode), analyze_products(w, mode)
            classes = family.classes
            assert classes == product.classes
            union = 0
            for mask, _ in classes:
                assert mask and not mask & union
                union |= mask
            assert union == fm.full_mask
            lowest = [mask & -mask for mask, _ in classes]
            assert lowest == sorted(lowest)
            values = [value for _, value in classes]
            assert len(set(values)) == len(values)
            for report in (family, product):
                for outcome in report.outcomes:
                    assert report.value_of(outcome.product) == outcome.value

    def test_equal_values_coalesce(self, taxi1_expanded):
        report = analyze_family(taxi1_expanded, "max")
        families = {v for _, v in report.classes}
        assert Fraction(14) in families
        by_value = {v: mask for mask, v in report.classes}
        index = taxi1_expanded.feature_model.product_index
        assert by_value[Fraction(14)] == (1 << index({"T"})) | (1 << index({"L1", "T"}))


class TestReportFormats:
    def test_json_schema_and_stability(self, taxi1_expanded):
        report = analyze_family(taxi1_expanded, "max", witnesses=True)
        text = without_timing(report_to_json(report) + "\n")
        again = analyze_family(taxi1_expanded, "max", witnesses=True)
        assert text == without_timing(report_to_json(again) + "\n")
        data = json.loads(text)
        assert list(data) == ["mode", "products", "families"]
        assert list(data["products"][0]) == ["features", "value", "decimal", "witness"]
        assert list(data["families"][0]) == ["expr", "value"]

    def test_json_timing_section(self, grantreq):
        data = reference_dict(analyze_family(grantreq, "max"))
        assert set(data["timing"]) == {"family_ms"}
        both = reference_dict(analyze_both(grantreq, "max"))
        assert set(both["timing"]) == {"family_ms", "product_ms"}
        family = reference_dict(analyze_family(grantreq, "max", witnesses=True))
        assert set(family["timing"]) == {"family_ms", "witness_ms"}
        product = reference_dict(analyze_products(grantreq, "max", witnesses=True))
        assert set(product["timing"]) == {"product_ms", "witness_ms"}

    def test_csv(self, grantreq):
        text = report_to_csv(analyze_family(grantreq, "max"))
        lines = text.strip().split("\n")
        assert lines[0] == "product,value,decimal,witness"
        assert len(lines) == 5

    def test_table_color_toggle(self, grantreq):
        report = analyze_family(grantreq, "max")
        assert "\x1b[1m" in report_to_table(report, color=True)
        assert "\x1b" not in report_to_table(report, color=False)


# State names JSON must escape: quotes, backslashes, control characters,
# non-ASCII, astral-plane and lone surrogate code points (no whitespace,
# which ``Wfts`` rejects).
HOSTILE = st.text(
    st.sampled_from('"\\/\x00\x07\x1b\x7fa#é\u2603\U0001f600\ud800') | st.characters(),
    min_size=1, max_size=4,
).filter(lambda s: not any(c.isspace() for c in s))


def assert_json_matches_reference(report) -> None:
    assert report_to_json(report) == json.dumps(reference_dict(report), indent=2)


class TestJsonEmitter:
    """``report_to_json`` writes ``json.dumps(..., indent=2)``'s bytes."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_bytes_equal_the_reference_encoder(self, data):
        states = data.draw(st.lists(HOSTILE, min_size=1, max_size=5, unique=True))
        features = [f"F{i}" for i in range(data.draw(st.integers(0, 8)))]
        # A constraint that drops products makes the renderer pick the
        # valid bit-vector codes out of all of them.
        constraint = data.draw(st.just(TRUE) | exprs(features))
        assume(any(_eval(constraint, p) for p in powerset(features)))
        guards = [TRUE, *map(Var, features), *(~Var(f) for f in features)]
        state = st.sampled_from(states)
        # Few transitions leave cycles out, so some values are undefined.
        transitions = data.draw(st.lists(
            st.builds(Transition, state, state,
                      st.fractions(-20, 20, max_denominator=7),
                      st.sampled_from(guards), st.just("tau"), st.sampled_from([1, 1, 2])),
            max_size=8,
        ))
        initial = data.draw(st.lists(state, min_size=1, max_size=2, unique=True))
        w = expand_lengths(Wfts(states, initial, transitions,
                                FeatureModel(features, constraint)))
        mode = data.draw(st.sampled_from(["max", "min"]))
        report = analyze_family(w, mode, witnesses=data.draw(st.booleans()))
        assert_json_matches_reference(report)
        # JSON's float rule, odd floats included.
        report.timing_ms = data.draw(st.dictionaries(
            st.sampled_from(["family_ms", "witness_ms", "product_ms"]), st.floats()))
        assert_json_matches_reference(report)

    @pytest.mark.parametrize("mode", ["max", "min"])
    def test_bytes_equal_the_reference_encoder_on_the_corpus(self, mode):
        for w in map(expand_lengths, random_corpus(0, 300) + _wide(16)):
            for witnesses in (True, False):
                assert_json_matches_reference(analyze_family(w, mode, witnesses))


def reference_table(report, color: bool = False) -> str:
    """``report_to_table`` row by row, through ``Report.outcomes``."""
    bold = ("\x1b[1m", "\x1b[0m") if color else ("", "")
    rows = [("product", report.mode + ".", "cycle")]
    for outcome in report.outcomes:
        if outcome.value is None:
            rows.append((format_product(outcome.product), "undefined", ""))
            continue
        witness = ""
        if outcome.witness:
            witness = "->".join(outcome.witness + (outcome.witness[0],))
        rows.append((format_product(outcome.product), decimal2(outcome.value), witness))
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    lines = []
    for i, row in enumerate(rows):
        text = "  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip()
        if i == 0:
            text = bold[0] + text + bold[1]
        lines.append(text)
    return "\n".join(lines)


def reference_csv(report) -> str:
    """``report_to_csv`` row by row, through ``Report.outcomes``."""
    lines = ["product,value,decimal,witness"]
    for outcome in report.outcomes:
        product = "+".join(sorted(outcome.product)) or "-"
        if outcome.value is None:
            lines.append(f"{product},undefined,,")
        else:
            witness = "->".join(outcome.witness) if outcome.witness else ""
            lines.append(f"{product},{outcome.value},{decimal2(outcome.value)},{witness}")
    return "\n".join(lines) + "\n"


def assert_text_matches_reference(report) -> None:
    assert report_to_csv(report) == reference_csv(report)
    for color in (False, True):
        assert report_to_table(report, color) == reference_table(report, color)


class TestTextEmitters:
    """``report_to_csv`` and ``report_to_table`` write a row per product
    from the value classes and witness cells, with the bytes of a
    rendering through ``Report.outcomes``."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_bytes_equal_the_per_outcome_rendering(self, data):
        # Declaration order is not sorted order, and a constraint may
        # drop products.
        features = data.draw(st.lists(st.sampled_from(["b", "A", "a", "Z_1", "c2", "B", "a0"]),
                                      max_size=6, unique=True))
        constraint = data.draw(st.just(TRUE) | exprs(features))
        assume(any(_eval(constraint, p) for p in powerset(features)))
        states = [f"s{i}" for i in range(data.draw(st.integers(1, 4)))]
        guards = [TRUE, *map(Var, features), *(~Var(f) for f in features)]
        state = st.sampled_from(states)
        transitions = data.draw(st.lists(
            st.builds(Transition, state, state, st.fractions(-20, 20, max_denominator=7),
                      st.sampled_from(guards), st.just("tau"), st.sampled_from([1, 1, 2])),
            max_size=8,
        ))
        w = Wfts(states, [states[0]], transitions, FeatureModel(features, constraint))
        report = analyze_family(w, data.draw(st.sampled_from(["max", "min"])),
                                witnesses=data.draw(st.booleans()))
        assert_text_matches_reference(report)

    @pytest.mark.parametrize("mode", ["max", "min"])
    def test_bytes_equal_the_per_outcome_rendering_on_taxi_12(self, mode):
        assert_text_matches_reference(analyze_family(taxi(12), mode, witnesses=True))


class TestStrategyMismatch:
    def test_disagreement_raises(self, grantreq, monkeypatch):
        import wfts.analysis as analysis

        broken = lambda im: [(im.feature_model.full_mask, Fraction(1))]
        monkeypatch.setattr(analysis, "_family_values", broken)
        with pytest.raises(StrategyMismatch) as err:
            analyze_both(grantreq, "max")
        assert "family=1" in str(err.value)

    def test_a_value_below_the_best_fails_before_witnesses(self, monkeypatch):
        # The values are compared before the witness stage runs, so the
        # failure names both routes' values.
        import wfts.analysis as analysis

        family = analysis._family_values
        lowered = lambda im: [(m, v if v is None else v - Fraction(1, 1000))
                              for m, v in family(im)]
        monkeypatch.setattr(analysis, "_family_values", lowered)
        with within(5, "analyze --strategy both"):
            with pytest.raises(StrategyMismatch) as err:
                analyze_both(taxi(1), "max", witnesses=True)
            assert "product-based=" in str(err.value)
            assert main(["analyze", "--generate", "taxi:1", "--strategy", "both"]) == 3

    @pytest.mark.parametrize("mode, shift", [("max", -1), ("min", 1)])
    def test_a_value_below_the_best_fails_the_level_pass(self, mode, shift, monkeypatch,
                                                          capsys):
        # With one route, the witness stage is the only check: its level
        # pass meets a positive shifted cycle, and a push at walk length n
        # ends it with exit 3.  "Below" is in the signed frame: a min value
        # is raised.
        import wfts.analysis as analysis

        family = analysis._family_values
        moved = lambda im: [(m, v if v is None else v + Fraction(shift, 1000))
                            for m, v in family(im)]
        monkeypatch.setattr(analysis, "_family_values", moved)
        argv = ["analyze", "--generate", "taxi:1", "--strategy", "family", "--mode", mode]
        with within(5, "analyze --strategy family"):
            assert main(argv) == 3
        assert "a cycle beats the value" in capsys.readouterr().err

    @staticmethod
    def past_the_best(monkeypatch):
        """Patch ``_family_values`` to move its first class with a value
        1/1000 past the best: up in max mode, down in min mode."""
        import wfts.analysis as analysis

        family = analysis._family_values

        def moved(im):
            classes = family(im)
            i = next(i for i, (_, v) in enumerate(classes) if v is not None)
            mask, value = classes[i]
            classes[i] = (mask, value + Fraction(im.sign, 1000))
            return classes

        monkeypatch.setattr(analysis, "_family_values", moved)
        return family

    @pytest.mark.parametrize("mode", ["max", "min"])
    @pytest.mark.parametrize("label, w", [("taxi:9", taxi(9)),
                                          ("wide:23", random_wfts("wide:23", 16, 10))])
    def test_a_value_past_the_best_gets_no_witness(self, monkeypatch, label, w, mode):
        # No tight cycle attains a value above the best, so its products
        # get no witness, and the witness stage names the first of them.
        family = self.past_the_best(monkeypatch)
        sign = 1 if mode == "max" else -1
        value = next(v for _, v in family(IndexedModel(w, sign)) if v is not None)
        with within(10, f"analyze {label} with witnesses"):
            with pytest.raises(StrategyMismatch) as err:
                analyze_family(w, mode, witnesses=True)
        moved = value + Fraction(sign, 1000)
        assert str(err.value).startswith(f"no cycle attains the value {moved} under ")
        analyze_family(w, mode)  # without witnesses, nothing checks the value

    def test_a_value_past_the_best_ends_analyze_in_exit_3(self, monkeypatch, capsys):
        self.past_the_best(monkeypatch)
        argv = ["analyze", "--generate", "taxi:9", "--strategy", "family", "--mode", "min"]
        with within(10, "analyze --strategy family"):
            assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("mismatch: no cycle attains the value ")
        assert " under " in err


@contextmanager
def within(seconds, what):
    """Fail the block with a TimeoutError once it runs past ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"{what} ran on past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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
    and transitions are declared, although the cycle roots and walks
    (index order), the tie-breaks (edge order) and the DFS order do."""

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
    (policy iteration over product sets) and the product route must
    agree."""

    @pytest.mark.parametrize("licenses", [5, 6, 8, 9])
    @pytest.mark.parametrize("mode", ["max", "min"])
    def test_taxi_strategies_agree(self, licenses, mode):
        report = analyze_both(expand_lengths(taxi(licenses)), mode)
        assert len(report.outcomes) == 2 ** (licenses + 2)
        assert all(o.value is not None for o in report.outcomes)


def _tight_adjacency(
    n: int, edges: list[tuple[int, int, int]], sources: list[int], target: Fraction
) -> list[list[int]]:
    """The tight graph of one product, edge order preserved: with weights
    shifted by ``target`` (the best cycle mean, so no cycle is positive),
    Bellman-Ford's longest walks L from ``sources`` converge, and an edge
    is tight where L[v] = L[u] + w."""
    a, b = target.numerator, target.denominator
    shifted = [(u, v, w * b - a) for u, v, w in edges]
    level: list[int | None] = [None] * n
    for s in sources:
        level[s] = 0
    for _ in range(n):
        changed = False
        for u, v, w in shifted:
            lu = level[u]
            if lu is None:
                continue
            cand = lu + w
            lv = level[v]
            if lv is None or cand > lv:
                level[v] = cand
                changed = True
        if not changed:
            break
    tight: list[list[int]] = [[] for _ in range(n)]
    for u, v, w in shifted:
        if level[u] is not None and level[v] == level[u] + w:
            tight[u].append(v)
    return tight


def tight_cycle(
    n: int,
    edges: list[tuple[int, int, int]],
    sources: list[int],
    target_mean: Fraction,
) -> list[int] | None:
    """A cycle of mean exactly ``target_mean`` among ``edges``, the best
    cycle mean of a graph whose nodes all lie on a path from ``sources``.

    Every cycle of the tight graph is optimal.  Of Kosaraju's components,
    in decreasing finishing time of their roots, the first with a tight
    edge holds the cycle: start at its smallest node, step to the smallest
    successor inside it until a node repeats, and rotate the closed cycle
    to start at its smallest node.
    """
    tight = _tight_adjacency(n, edges, sources, target_mean)
    rtight: list[list[int]] = [[] for _ in range(n)]
    for u, targets in enumerate(tight):
        for v in targets:
            rtight[v].append(u)
    for members in kosaraju_components(finish_order(tight, n), rtight):
        mset = set(members)
        if not any(v in mset for u in members for v in tight[u]):
            continue
        path = [min(members)]
        seen_at = {path[0]: 0}
        while True:
            nxt = min(v for v in tight[path[-1]] if v in mset)
            if nxt in seen_at:
                cycle = path[seen_at[nxt]:]
                pivot = cycle.index(min(cycle))
                return cycle[pivot:] + cycle[:pivot]
            seen_at[nxt] = len(path)
            path.append(nxt)
    return None


def _reachable_edges(im: IndexedModel, bit: int) -> list[tuple[int, int, int]]:
    """Product ``bit``'s arcs from its reachable states, in declaration
    order, with ``im``'s signed weights: its unit steps when ``im`` indexes
    a length expansion."""
    reach = reachable_from(successors(im, bit), im.initial, im.n)
    return [(u, v, wt) for u, v, wt, _, g, _ in im.arcs if g & bit and reach[u]]


def _reference_witnesses(w: Wfts, mode: str, values) -> list:
    """The per-product witness rule: ``tight_cycle`` on each product's
    reachable subgraph of unit steps, rendered without the states of length
    expansion."""
    im = IndexedModel(expand_lengths(w), 1 if mode == "max" else -1)
    witnesses = []
    for i, value in enumerate(values):
        cycle = None
        if value is not None:
            edges = _reachable_edges(im, 1 << i)
            cycle = tight_cycle(im.n, edges, im.initial, im.sign * value * im.scale)
        if cycle is None:
            witnesses.append(None)
            continue
        names = [im.system.states[u] for u in cycle]
        witnesses.append(tuple(s for s in names if "#" not in s) or tuple(names))
    return witnesses


def _wide(count: int) -> list[Wfts]:
    return [random_wfts(f"wide:{i}", max_states=16, max_features=10)
            for i in range(count)]


def _assert_witnesses_follow_the_rule(w: Wfts, mode: str) -> None:
    family = analyze_family(w, mode, witnesses=True)
    product = analyze_products(w, mode, witnesses=True)
    values = [o.value for o in family.outcomes]
    assert [o.value for o in product.outcomes] == values
    expected = _reference_witnesses(w, mode, values)
    assert [o.witness for o in family.outcomes] == expected
    assert [o.witness for o in product.outcomes] == expected


class TestWitnessSharing:
    """The symbolic witness stage picks, for every product, exactly the
    cycle the per-product rule (``tight_cycle``) picks, so products with the
    same reachable behaviour share their witness."""

    @pytest.mark.parametrize("mode", ["max", "min"])
    def test_witnesses_equal_the_per_product_rule(self, mode):
        models = (
            random_corpus(0, 300)
            + random_corpus(7, 300, max_states=12, max_features=6)
            + _wide(32)
            + [taxi(k) for k in range(1, 8)]
            + [grant_request(), minepump_lite()]
        )
        for w in map(expand_lengths, models):
            _assert_witnesses_follow_the_rule(w, mode)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_ties_pick_the_per_product_cycle(self, data):
        # Weights in {-1, 0, 1} make many cycles and walks tie, and ties
        # decide which cycle is the witness.
        states = [f"s{i}" for i in range(data.draw(st.integers(1, 6)))]
        features = [f"F{i}" for i in range(data.draw(st.integers(0, 3)))]
        guards = [TRUE, *map(Var, features), *(~Var(f) for f in features)]
        state = st.sampled_from(states)
        transitions = data.draw(st.lists(
            st.builds(Transition, state, state, st.integers(-1, 1),
                      st.sampled_from(guards), st.just("tau"),
                      st.sampled_from([1, 1, 1, 2])),
            min_size=1, max_size=14,
        ))
        initial = data.draw(st.lists(state, min_size=1, max_size=3, unique=True))
        w = expand_lengths(Wfts(states, initial, transitions, FeatureModel(features)))
        for mode in ("max", "min"):
            _assert_witnesses_follow_the_rule(w, mode)

    @pytest.mark.parametrize("mode", ["max", "min"])
    def test_dfs_on_the_tight_graph_gives_each_product_its_finish_order(self, mode):
        checked = 0
        for w in map(expand_lengths, random_corpus(3, 120) + [taxi(3)]):
            im = IndexedModel(w, 1 if mode == "max" else -1)
            report = analyze_family(w, mode)
            values = [o.value for o in report.outcomes]
            classes = [(m, v) for m, v in report.classes if v is not None]
            context = sum(m for m, _ in classes)
            out = [[(v, m) for _, v, m in arcs] for arcs in _tight_graph(im, classes)]
            order = dfs_order(out, im.system.states, context)
            assert order.context == context
            assert check_order_coverage(order).ok
            for p, value in enumerate(values):
                ranked = [e.state for e in order.entries if e.mask >> p & 1]
                if value is None:
                    assert ranked == []
                    continue
                edges = _reachable_edges(im, 1 << p)
                target = im.sign * value * im.scale
                tight = _tight_adjacency(im.n, edges, im.initial, target)
                assert ranked == [im.system.states[u] for u in finish_order(tight, im.n)]
                checked += 1
        assert checked > 100

    @pytest.mark.parametrize("mode", ["max", "min"])
    def test_walk_that_closes_a_cycle_away_from_its_start(self, mode):
        # Every cycle has mean 0, so every edge is tight and the component
        # is all four states.  The walk a -> d -> b -> d never returns to
        # a, and the cycle it closes is rotated to start at b.
        w = Wfts(
            ["a", "b", "c", "d"],
            ["a"],
            [Transition("a", "d", 0), Transition("d", "c", 0), Transition("d", "b", 0),
             Transition("b", "d", 0), Transition("c", "a", 0)],
            FeatureModel([]),
        )
        for analyze in (analyze_family, analyze_products):
            (outcome,) = analyze(w, mode, witnesses=True).outcomes
            assert outcome.value == 0
            assert outcome.witness == ("b", "d")
        assert _reference_witnesses(w, mode, [Fraction(0)]) == [("b", "d")]

    @pytest.mark.parametrize("analyze", [analyze_family, analyze_products])
    def test_features_guarding_nothing_reachable_share_one_witness(self, analyze):
        k = 4
        w = Wfts(
            ["a", "b", "c"],
            ["a"],
            [Transition("a", "b", 3), Transition("b", "a", 1),
             Transition("c", "c", 9, Var("F0"))],  # c is unreachable
            FeatureModel([f"F{i}" for i in range(k)]),
        )
        for mode in ("max", "min"):
            report = analyze(w, mode, witnesses=True)
            assert len(report.outcomes) == 2 ** k
            assert {o.value for o in report.outcomes} == {Fraction(2)}
            assert {o.witness for o in report.outcomes} == {("a", "b")}

    @pytest.mark.parametrize("mode", ["max", "min"])
    def test_one_witness_per_value_and_reachable_projection(self, mode):
        # Products with equal value and equal reachable enabled transitions
        # have the same reachable graph, so the rule gives them one cycle.
        for w in map(expand_lengths, _wide(32)):
            values = [o.value for o in analyze_family(w, mode).outcomes]
            defined = [p for p, v in enumerate(values) if v is not None]
            im = IndexedModel(w)
            classes: dict = {}
            for p in defined:
                reach = reachable_from(successors(im, 1 << p), im.initial, im.n)
                projection = frozenset(
                    j for j, (u, *_, g, _) in enumerate(im.arcs) if g >> p & 1 and reach[u]
                )
                classes.setdefault((values[p], projection), []).append(p)
            if defined and len(classes) < len(defined):
                break
        else:
            pytest.fail("no wide model has a class of several defined products")
        outcomes = analyze_family(w, mode, witnesses=True).outcomes
        for members in classes.values():
            assert outcomes[members[0]].witness is not None
            assert {outcomes[p].witness for p in members} == {outcomes[members[0]].witness}
        assert any(len(members) > 1 for members in classes.values())

    # sha256 of the per-product witness lists of taxi:1..4, minepump and
    # grantrequest (max, then min, each), as the stage gave them before it
    # returned cells.
    PINNED_WITNESSES = "bdea7284093a818c56cc8f1fae9dae9dc7e49fc4d902eb889a065f38b5913746"

    @pytest.mark.parametrize("analyze", [analyze_family, analyze_products])
    def test_witness_cells_partition_the_defined_products(self, analyze):
        named = [taxi(k) for k in range(1, 5)] + [minepump_lite(), grant_request()]
        digest = hashlib.sha256()
        for w, pinned in [(w, True) for w in named] + [(w, False) for w in _wide(8)]:
            for mode in ("max", "min"):
                report = analyze(expand_lengths(w), mode, witnesses=True)
                defined = sum(mask for mask, value in report.classes if value is not None)
                covered = 0
                for mask, witness in report.witnesses:
                    assert mask and not mask & covered and witness
                    covered |= mask
                assert covered == defined
                assert len({witness for _, witness in report.witnesses}) == len(report.witnesses)
                if pinned:
                    digest.update(repr([o.witness for o in report.outcomes]).encode())
        assert digest.hexdigest() == self.PINNED_WITNESSES


def _assert_declared_witnesses(w: Wfts, mode: str) -> None:
    """The witness stage on ``w`` as written gives the witness cells of its
    length expansion, and the witnesses of the per-product rule.  The
    cells may come in another order: a chain that closes the walk's cycle
    is one step here and several there."""
    got = analyze_family(w, mode, witnesses=True)
    want = analyze_family(expand_lengths(w), mode, witnesses=True)
    assert got.classes == want.classes
    assert sorted(got.witnesses) == sorted(want.witnesses)
    witnesses = [o.witness for o in got.outcomes]
    assert witnesses == _reference_witnesses(w, mode, [o.value for o in got.outcomes])


class TestDeclaredWitnesses:
    """The witness stage reads the declared transitions, each chain of unit
    steps as one arc, and gives the unit steps' witnesses exactly."""

    GUARDS = [TRUE, TRUE, Var("F"), Var("G"), Not(Var("F"))]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_declared_arcs_give_the_unit_steps_witnesses(self, data):
        core = [f"c{i}" for i in range(data.draw(st.integers(1, 4)))]
        node = st.sampled_from(core)
        weight = data.draw(st.sampled_from([st.integers(-1, 1), st.integers(-9, 9)]))
        guard = st.sampled_from(self.GUARDS)
        states = list(core)
        transitions = []

        def add(a, b, g=None, length=None):
            transitions.append(Transition(
                a, b, data.draw(weight), data.draw(guard) if g is None else g, "tau",
                data.draw(st.integers(1, 3)) if length is None else length))

        for _ in range(data.draw(st.integers(1, 5))):
            add(data.draw(node), data.draw(node))
        for _ in range(data.draw(st.integers(0, 2))):
            # A declared state that one arc enters and one leaves.
            p = f"p{len(states)}"
            states.append(p)
            add(data.draw(node), p)
            add(p, data.draw(node))
        a, b = data.draw(node), data.draw(node)  # parallel chains
        add(a, b, length=data.draw(st.integers(2, 3)))
        add(a, b, length=data.draw(st.integers(2, 3)))
        add(data.draw(node), data.draw(node), FALSE, data.draw(st.integers(2, 3)))
        # Any declaration order: a pass-through state may come first.
        states = data.draw(st.permutations(states))
        initial = data.draw(st.lists(st.sampled_from(states), min_size=1, max_size=2,
                                     unique=True))
        w = Wfts(states, initial, data.draw(st.permutations(transitions)),
                 FeatureModel(["F", "G"]))
        for mode in ("max", "min"):
            _assert_declared_witnesses(w, mode)

    @pytest.mark.parametrize("mode", ["max", "min"])
    def test_declared_arcs_give_the_unit_steps_witnesses_on_the_corpus(self, mode):
        models = (random_corpus(0, 300) + _wide(16) + [taxi(k) for k in range(1, 9)]
                  + [minepump_lite(), grant_request()])
        for w in models:
            _assert_declared_witnesses(w, mode)

    def test_a_pass_through_state_declared_first_roots_the_dfs(self):
        # p is pass-through (one way in, one way out) and declared before
        # k1 and k2.  The unit DFS roots at p: k1 finishes before k2, so
        # k2's component holds the witness.  A view without p roots at k1
        # and finishes k2 first.
        w = Wfts(["p", "k1", "k2"], ["k1"],
                 [Transition("k1", "p", 1), Transition("p", "k2", 1),
                  Transition("k2", "k1", 1), Transition("k1", "k1", 3, length=3)],
                 FeatureModel([]))
        for mode in ("max", "min"):
            _assert_declared_witnesses(w, mode)
