from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wfts.dsl import ParseError, parse, serialize
from wfts.features import Or, TRUE, Var
from wfts.generators import grant_request, minepump_lite, taxi
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


LONG = "9" * 5000  # past the interpreter's 4,300-digit limit on int strings


@pytest.mark.parametrize("attribute, col, digits", [
    (f"weight={LONG}", 23, 5000),
    (f"weight=1.{LONG}", 23, 5001),
    (f"weight=-{LONG}", 24, 5000),
    (f"weight=1 length={LONG}", 32, 5000),
], ids=["weight", "decimal weight", "negative weight", "length"])
def test_a_number_past_the_int_string_limit_is_a_parse_error(attribute, col, digits):
    with pytest.raises(ParseError) as err:
        parse(MINI + f"trans s0 -> s1 {attribute}\n")
    assert str(err.value) == f"5:{col}: number of {digits} digits is too long to read"


def test_a_long_number_within_the_limit_parses_exactly():
    w = parse(MINI + f"trans s0 -> s1 weight=0.{'9' * 4000} length={'9' * 4000}\n")
    t = w.transitions[0]
    assert t.weight == 1 - Fraction(1, 10 ** 4000)
    assert t.length == 10 ** 4000 - 1


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
        lambda n, edges: {"max": Fraction(-999), "min": Fraction(-999)},
    )
    result = checks.check_model(taxi(1), "taxi:1")
    header, *lines = result.failures
    assert len(lines) == 2 * len(taxi(1).feature_model.products)
    assert all("brute-force=-999" in line and "model" not in line for line in lines)
    assert header.startswith("model taxi:1:\n")
    assert parse(header.split("\n", 1)[1]) == taxi(1)


# Tokens as (kind, text, line, col), or the ParseError text, recorded from
# the character-at-a-time lexer before it became one compiled regex.  Only
# "\n" starts a line; every other character, whitespace included, is one
# column.  An identifier starts with a letter or "_" (so not "²", which
# ``str.isalnum`` accepts), and a number's fraction needs a digit after
# the dot.
LEX_TABLE = [
    ("features\r\n{ G }", [("ident", "features", 1, 1), ("symbol", "{", 2, 1),
                            ("ident", "G", 2, 3), ("symbol", "}", 2, 5), ("eof", "", 2, 6)]),
    ("a\tb\x0cc", [("ident", "a", 1, 1), ("ident", "b", 1, 3), ("ident", "c", 1, 5),
                   ("eof", "", 1, 6)]),
    ("a\xa0b\u2028c\nd", [("ident", "a", 1, 1), ("ident", "b", 1, 3), ("ident", "c", 1, 5),
                          ("ident", "d", 2, 1), ("eof", "", 2, 2)]),
    ("a\x85b", [("ident", "a", 1, 1), ("ident", "b", 1, 3), ("eof", "", 1, 4)]),
    ("\r\n\r\n  x", [("ident", "x", 3, 3), ("eof", "", 3, 4)]),
    ("été x²", [("ident", "été", 1, 1), ("ident", "x²", 1, 5),
                               ("eof", "", 1, 7)]),
    ("\U0001d400 x", [("ident", "\U0001d400", 1, 1), ("ident", "x", 1, 3), ("eof", "", 1, 4)]),
    ("x½", [("ident", "x½", 1, 1), ("eof", "", 1, 3)]),
    ("²x", "1:1: unexpected character '²'"),
    ("a ²", "1:3: unexpected character '²'"),
    ("½x", "1:1: unexpected character '½'"),
    ("Ⅻ", "1:1: unexpected character 'Ⅻ'"),
    ("1.", "1:2: unexpected character '.'"),
    ("1.5.2", "1:4: unexpected character '.'"),
    ("12.50 -3", [("number", "12.50", 1, 1), ("symbol", "-", 1, 7), ("number", "3", 1, 8),
                  ("eof", "", 1, 9)]),
    ("s0->s1", [("ident", "s0", 1, 1), ("symbol", "->", 1, 3), ("ident", "s1", 1, 5),
                ("eof", "", 1, 7)]),
    ("s0- >s1", "1:5: unexpected character '>'"),
    ("G && !A || (B)", [("ident", "G", 1, 1), ("symbol", "&&", 1, 3), ("symbol", "!", 1, 6),
                        ("ident", "A", 1, 7), ("symbol", "||", 1, 9), ("symbol", "(", 1, 12),
                        ("ident", "B", 1, 13), ("symbol", ")", 1, 14), ("eof", "", 1, 15)]),
    ("weight=-0.25 [G]", [("ident", "weight", 1, 1), ("symbol", "=", 1, 7),
                          ("symbol", "-", 1, 8), ("number", "0.25", 1, 9),
                          ("symbol", "[", 1, 14), ("ident", "G", 1, 15),
                          ("symbol", "]", 1, 16), ("eof", "", 1, 17)]),
    ("&", "1:1: unexpected character '&'"),
    ("a | b", "1:3: unexpected character '|'"),
    # A comment that ends the input leaves end of input at its "#".
    ("a # comment", [("ident", "a", 1, 1), ("eof", "", 1, 3)]),
    ("a\n  # comment\n", [("ident", "a", 1, 1), ("eof", "", 3, 1)]),
    ("a # c\nb", [("ident", "a", 1, 1), ("ident", "b", 2, 1), ("eof", "", 2, 2)]),
    ("", [("eof", "", 1, 1)]),
    ("$", "1:1: unexpected character '$'"),
    ("x\n  $", "2:3: unexpected character '$'"),
    ("a\r\n$", "2:1: unexpected character '$'"),
    ("a\u2028$", "1:3: unexpected character '$'"),
]

# ParseError texts of whole documents, recorded with the table above.
PARSE_ERROR_TABLE = [
    ("features { G } # no newline", "1:16: expected 'states', found 'end of input'"),
    ("features {\tG, }", "1:15: expected feature name, found '}'"),
    ("features { G }\r\nstates { s0 }\u2028init { s1 }",
     "2:10: initial state not declared: 's1'"),
    ("features { G }\nstates { s0 }\ninit { s0 }\ntrans s0 -> s0 weight=1.",
     "4:24: unexpected character '.'"),
    ("features { G } states { s0 } init { s0 } trans s0 -> s0 weight=1 length=1.5",
     "1:73: expected an integer, found '1.5'"),
    ("features { G }\x0cstates { s0, s0 } init { s0 }", "1:25: duplicate state name: 's0'"),
]


def _kind(text: str) -> str:
    if not text:
        return "eof"
    if text[0].isalpha() or text[0] == "_":
        return "ident"
    return "number" if text[0].isdecimal() else "symbol"


@pytest.mark.parametrize("src,expected", LEX_TABLE)
def test_lexer_tokens_and_positions(src, expected):
    from wfts.dsl import _error, _lex, _offset

    try:
        tokens = _lex(src)
    except ParseError as exc:
        got = str(exc)
    else:
        at = [_error(src, _offset(src, tokens, i), "") for i in range(len(tokens))]
        got = [(_kind(text), text, e.line, e.col) for text, e in zip(tokens, at)]
    assert got == expected


@pytest.mark.parametrize("src,expected", PARSE_ERROR_TABLE)
def test_parse_error_positions(src, expected):
    with pytest.raises(ParseError) as err:
        parse(src)
    assert str(err.value) == expected
