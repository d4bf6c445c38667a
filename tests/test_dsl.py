from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wfts.dsl import ParseError, parse, serialize
from wfts.features import Or, TRUE, Var
from wfts.generators import grant_request, minepump_lite, minepump_source, taxi
from wfts.model import ModelError, Transition, Wfts
from wfts.randgen import random_corpus, random_wfts

MINI = """
features { G, A }
states { s0, s1 }
init { s0 }
"""


def test_long_transition_with_guard_action_and_length():
    w = parse(MINI + "trans s0 -> s1 [true] weight=40 length=3\n")
    t = w.transitions[0]
    assert (t.source, t.action, t.target) == ("s0", "tau", "s1")
    assert t.guard == TRUE
    assert t.weight == 40 and t.length == 3


def test_guarded_negative_weight():
    w = parse(MINI + "trans s0 -> s1 [G || A] weight=-1")
    t = w.transitions[0]
    assert t.guard == Or(Var("G"), Var("A"))
    assert t.weight == -1 and t.length == 1


def test_decimal_weights_parse_exactly():
    w = parse(MINI + "trans s0 -> s1 weight=13.5\ntrans s1 -> s0 weight=-0.25")
    assert w.transitions[0].weight == Fraction(27, 2)
    assert w.transitions[1].weight == Fraction(-1, 4)


def test_defaults_and_actions():
    w = parse(MINI + "trans s0 -> s1 action=go weight=0")
    assert w.transitions[0].action == "go"


def test_comments_and_whitespace():
    src = "features{G,A}\n# comment\nstates{s0}\ninit{s0}   # trailing\n"
    w = parse(src)
    assert w.states == ("s0",)


def test_empty_states_block_is_a_syntax_error():
    with pytest.raises(ParseError):
        parse("features { G } states { } init { s0 }")


def test_error_positions_are_line_col():
    with pytest.raises(ParseError) as err:
        parse("features { G }\nstates { s0, s0 }\ninit { s0 }")
    assert str(err.value).startswith("2:")


def test_undeclared_state_and_feature():
    with pytest.raises(ParseError):
        parse(MINI + "trans s0 -> nope weight=0")
    with pytest.raises(ParseError):
        parse(MINI + "trans s0 -> s1 [Z] weight=0")


def test_empty_product_set_rejected_at_load():
    with pytest.raises(ParseError):
        parse("features { G } constraint G && !G states { s0 } init { s0 }")


def test_unexpected_character_reports_position():
    with pytest.raises(ParseError) as err:
        parse("features { G$ }")
    assert "1:13" in str(err.value)


def test_constraint_parses():
    w = parse("features { G, A } constraint G || A states { s0 } init { s0 }")
    assert len(w.feature_model.products) == 3


class TestRoundTrip:
    def assert_round_trips(self, w: Wfts):
        text = serialize(w)
        again = parse(text)
        assert again == w
        assert serialize(again) == text

    def test_bundled_models(self):
        self.assert_round_trips(taxi(1))
        self.assert_round_trips(taxi(3))
        self.assert_round_trips(grant_request())
        self.assert_round_trips(minepump_lite())

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_random_models(self, seed):
        self.assert_round_trips(random_wfts(f"roundtrip:{seed}"))

    def test_random_corpus(self):
        corpus = random_corpus(0, 300)
        assert sum(not w.feature_model.features for w in corpus) == 71
        for w in corpus:
            assert parse(serialize(w)) == w

    def test_fractional_weights(self):
        w = parse(MINI + "trans s0 -> s1 weight=2.375\ntrans s1 -> s0 weight=-11.2")
        self.assert_round_trips(w)


def test_minepump_source_matches_generator():
    assert parse(minepump_source()) == minepump_lite()


def test_serialize_rejects_unrepresentable_weight():
    w = Wfts(
        ["a"], ["a"],
        [Transition("a", "a", Fraction(1, 3))],
        grant_request().feature_model,
    )
    with pytest.raises(ModelError):
        serialize(w)


def test_serialize_rejects_expansion_states():
    from wfts.model import expand_lengths

    with pytest.raises(ModelError):
        serialize(expand_lengths(taxi(1)))


def test_featureless_models_round_trip():
    from wfts.features import FeatureModel

    w = Wfts(["a"], ["a"], [Transition("a", "a", 1)], FeatureModel([]))
    text = serialize(w)
    assert text.startswith("features { }\n")
    assert parse(text) == w


def test_check_failures_carry_featureless_model_text():
    from wfts.checks import _model_header
    from wfts.features import FeatureModel

    w = Wfts(["a"], ["a"], [Transition("a", "a", 1)], FeatureModel([]))
    assert _model_header(w, "plain") == "model plain:\n" + serialize(w)


def test_check_failures_carry_the_unexpanded_model_text(monkeypatch):
    from wfts import checks

    # An oracle stubbed to disagree with both analyses on every product.
    monkeypatch.setattr(
        checks, "brute_force_mean_cycle",
        lambda n, edges, modes: {mode: Fraction(-999) for mode in modes},
    )
    result = checks.check_model(taxi(1), ("max",), "taxi:1")
    header, *lines = result.failures
    assert len(lines) == len(taxi(1).feature_model.products)
    assert all("brute-force=-999" in line and "model" not in line for line in lines)
    assert header.startswith("model taxi:1:\n")
    assert parse(header.split("\n", 1)[1]) == taxi(1)
