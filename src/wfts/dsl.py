"""Textual model format: parser and serializer.

Grammar (whitespace-insensitive, ``#`` starts a line comment)::

    model      := "features" "{" (id ("," id)*)? "}" constraint? states init trans*
    constraint := "constraint" expr
    states     := "states" "{" id ("," id)* "}"
    init       := "init" "{" id ("," id)* "}"
    trans      := "trans" id "->" id ("[" expr "]")? ("action" "=" id)?
                  "weight" "=" rational ("length" "=" int)?
    expr       := expr "||" expr | expr "&&" expr | "!" expr
                  | "(" expr ")" | id | "true" | "false"
    rational   := ["-"] digits ["." digits]

Omitted guard means ``true``, omitted action ``tau``, omitted length ``1``.
Weights are parsed exactly (``13.5`` becomes 27/2).  The suggested file
extension is ``.wfts``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice

from .features import (
    FALSE, MAX_GUARD_DEPTH, TRUE, FeatureError, FeatureExpr, FeatureModel, Not, Var,
)
from .model import ModelError, Transition, Wfts

_KEYWORDS = {
    "features", "constraint", "states", "init", "trans",
    "action", "weight", "length", "true", "false",
}

# One token, or one character that starts none (an empty group), then the
# whitespace and comments after it, so that nothing backtracks into them at
# the end of input.  ``\w``, ``\d`` and ``\s`` are ``str.isalnum`` (or
# "_"), ``str.isdecimal`` and ``str.isspace``.
_SKIP = r"(?:\s+|#[^\n]*)*"
_SKIP_RE = re.compile(_SKIP)
_TOKEN_RE = re.compile(r"(?:([^\W\d]\w*|\d+(?:\.\d+)?|->|&&|\|\||[{}\[\](),=!-])|.)" + _SKIP)


class ParseError(ValueError):
    """Syntax or lexical error, with a 1-based line:col position."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


def _lex(src: str) -> list[str]:
    """The token texts of ``src``, ended by "" for the end of input.  They
    need no kind: an identifier starts with a letter or "_", a number with
    a digit, and a symbol with neither."""
    tokens = _TOKEN_RE.findall(src, _SKIP_RE.match(src).end())
    tokens.append("")
    bad = tokens.index("")
    if not src.isascii():
        # ``[^\W\d]`` also takes the digits and numerals that are not
        # decimal, such as "²", which cannot start an identifier.
        bad = next((i for i, text in enumerate(tokens[:bad]) if text[0].isalnum()
                    and not (text[0].isalpha() or text[0].isdecimal())), bad)
    if bad < len(tokens) - 1:
        offset = _offset(src, tokens, bad)
        raise _error(src, offset, f"unexpected character {src[offset]!r}")
    return tokens


def _offset(src: str, tokens: list[str], index: int) -> int:
    """Where token ``index`` of ``_lex(src)`` starts.  The end of input is
    at the "#" of a comment that runs to it."""
    if index == len(tokens) - 1:
        end = src.find("#", src.rfind("\n") + 1)
        return len(src) if end < 0 else end
    matches = _TOKEN_RE.finditer(src, _SKIP_RE.match(src).end())
    return next(islice(matches, index, None)).start()


def _error(src: str, offset: int, message: str) -> ParseError:
    """A ParseError at ``offset`` of ``src``, where only "\\n" starts a line."""
    return ParseError(src.count("\n", 0, offset) + 1, offset - src.rfind("\n", 0, offset),
                      message)


def _is_ident(text: str) -> bool:
    return text[:1].isalpha() or text[:1] == "_"


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _lex(src)
        self.pos = 0
        # Open "!" and "(" on the current parse path.  The parser recurses on
        # them, so their nesting is bounded like the tree's height.
        self.nesting = 0

    def peek(self) -> str:
        return self.tokens[self.pos]

    def next(self) -> str:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, text: str) -> bool:
        """Take the next token if it is ``text``."""
        taken = self.tokens[self.pos] == text
        self.pos += taken
        return taken

    def error(self, message: str, at: int | None = None) -> ParseError:
        """An error at token ``at``, by default the one just taken; only now
        is its position computed."""
        at = self.pos - 1 if at is None else at
        return _error(self.src, _offset(self.src, self.tokens, at), message)

    def expect(self, text: str) -> None:
        tok = self.next()
        if tok != text:
            raise self.error(f"expected {text!r}, found {tok or 'end of input'!r}")

    def expect_ident(self, what: str = "identifier") -> str:
        tok = self.next()
        if not _is_ident(tok):
            raise self.error(f"expected {what}, found {tok or 'end of input'!r}")
        if tok in _KEYWORDS:
            raise self.error(f"keyword {tok!r} cannot be used as {what}")
        return tok

    def ident_list(self, what: str) -> list[str]:
        items = [self.expect_ident(what)]
        while self.accept(","):
            items.append(self.expect_ident(what))
        return items

    # Expressions: ! binds tighter than &&, which binds tighter than ||;
    # both binary operators are left-associative.  Each level returns the
    # expression and the height of its tree.
    def parse_expr(self) -> tuple[FeatureExpr, int]:
        e, height = self.parse_and()
        while self.accept("||"):
            at = self.pos - 1
            right, h = self.parse_and()
            e, height = e | right, self.deeper(at, max(height, h))
        return e, height

    def parse_and(self) -> tuple[FeatureExpr, int]:
        e, height = self.parse_unary()
        while self.accept("&&"):
            at = self.pos - 1
            right, h = self.parse_unary()
            e, height = e & right, self.deeper(at, max(height, h))
        return e, height

    def deeper(self, at: int, height: int) -> int:
        """One level more than ``height``; past the bound, an error at token
        ``at``."""
        if height >= MAX_GUARD_DEPTH:
            raise self.error(
                f"feature expression nests deeper than {MAX_GUARD_DEPTH} levels", at
            )
        return height + 1

    def parse_unary(self) -> tuple[FeatureExpr, int]:
        at = self.pos
        tok = self.next()
        if tok == "!" or tok == "(":
            self.nesting = self.deeper(at, self.nesting)
            if tok == "!":
                operand, height = self.parse_unary()
                result = Not(operand), self.deeper(at, height)
            else:
                result = self.parse_expr()
                self.expect(")")
            self.nesting -= 1
            return result
        if _is_ident(tok):
            if tok == "true":
                return TRUE, 1
            if tok == "false":
                return FALSE, 1
            if tok in _KEYWORDS:
                raise self.error(f"keyword {tok!r} cannot be used as a feature")
            return Var(tok), 1
        raise self.error(f"expected a feature expression, found {tok or 'end of input'!r}")

    def parse_rational(self) -> Fraction:
        negative = self.accept("-")
        tok = self.next()
        if not tok[:1].isdecimal():
            raise self.error(f"expected a number, found {tok or 'end of input'!r}")
        value = self.number(Fraction, tok)
        return -value if negative else value

    def parse_int(self) -> int:
        tok = self.next()
        if not tok[:1].isdecimal() or "." in tok:
            raise self.error(f"expected an integer, found {tok or 'end of input'!r}")
        return self.number(int, tok)

    def number(self, kind, tok: str):
        """``kind(tok)`` for a number token just taken; past the
        interpreter's limit on the digits of an int string, an error at
        the token."""
        try:
            return kind(tok)
        except ValueError as exc:
            digits = len(tok) - tok.count(".")
            raise self.error(f"number of {digits} digits is too long to read") from exc

    def parse_model(self) -> Wfts:
        self.expect("features")
        self.expect("{")
        features_at = 0 if self.peek() == "}" else self.pos  # "features" if none
        features = [] if self.peek() == "}" else self.ident_list("feature name")
        self.expect("}")

        constraint: FeatureExpr = TRUE
        if self.accept("constraint"):
            constraint, _ = self.parse_expr()

        self.expect("states")
        self.expect("{")
        states_at = self.pos
        states = self.ident_list("state name")
        self.expect("}")

        self.expect("init")
        self.expect("{")
        initial = self.ident_list("state name")
        self.expect("}")

        transitions = []
        while self.accept("trans"):
            transitions.append(self.parse_trans())
        tok = self.peek()
        if tok:
            raise self.error(f"expected 'trans' or end of input, found {tok!r}", self.pos)

        try:
            fm = FeatureModel(features, constraint)
        except FeatureError as exc:
            raise self.error(str(exc), features_at) from exc
        try:
            return Wfts(states, initial, transitions, fm)
        except ModelError as exc:
            raise self.error(str(exc), states_at) from exc

    def parse_trans(self) -> Transition:
        src = self.expect_ident("state name")
        self.expect("->")
        tgt = self.expect_ident("state name")
        guard: FeatureExpr = TRUE
        if self.accept("["):
            guard, _ = self.parse_expr()
            self.expect("]")
        action = "tau"
        if self.accept("action"):
            self.expect("=")
            action = self.expect_ident("action name")
        self.expect("weight")
        self.expect("=")
        weight = self.parse_rational()
        length = 1
        if self.accept("length"):
            self.expect("=")
            length = self.parse_int()
            if length < 1:
                raise self.error("length must be >= 1")
        return Transition(src, tgt, weight, guard, action, length)


def parse(src: str) -> Wfts:
    """Parse a model document into a validated system."""
    return _Parser(src).parse_model()


def _render_weight(value: Fraction) -> str:
    den = value.denominator
    if den == 1:
        return str(value.numerator)
    # A finite decimal exists iff the denominator is of the form 2^a * 5^b.
    shift = den
    digits = 0
    while shift % 2 == 0:
        shift //= 2
        digits += 1
    fives = 0
    while shift % 5 == 0:
        shift //= 5
        fives += 1
    if shift != 1:
        raise ModelError(
            f"weight {value} has no finite decimal form and cannot be serialized"
        )
    digits = max(digits, fives)
    scaled = abs(value.numerator) * 10**digits // den
    text = f"{scaled:0{digits + 1}d}"
    sign = "-" if value < 0 else ""
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def serialize(w: Wfts) -> str:
    """Render a system back to the textual format (inverse of ``parse``)."""
    from .features import _IDENT_RE

    for name in w.states:
        if not _IDENT_RE.match(name):
            raise ModelError(
                f"state {name!r} is not an identifier and cannot be serialized"
            )
    fm = w.feature_model
    names = ", ".join(fm.features)
    lines = [f"features {{ {names} }}" if names else "features { }"]
    if fm.constraint != TRUE:
        lines.append(f"constraint {fm.constraint}")
    lines.append(f"states {{ {', '.join(w.states)} }}")
    lines.append(f"init {{ {', '.join(w.initial)} }}")
    for t in w.transitions:
        parts = [f"trans {t.source} -> {t.target}"]
        if t.guard != TRUE:
            parts.append(f"[{t.guard}]")
        if t.action != "tau":
            parts.append(f"action={t.action}")
        parts.append(f"weight={_render_weight(t.weight)}")
        if t.length != 1:
            parts.append(f"length={t.length}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
