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

from fractions import Fraction

from .features import (
    FALSE, MAX_GUARD_DEPTH, TRUE, FeatureError, FeatureExpr, FeatureModel, Not, Var,
)
from .model import ModelError, Transition, Wfts

_KEYWORDS = {
    "features", "constraint", "states", "init", "trans",
    "action", "weight", "length", "true", "false",
}

_SYMBOLS = ("->", "&&", "||", "{", "}", "[", "]", "(", ")", ",", "=", "!", "-")


class ParseError(ValueError):
    """Syntax or lexical error, with a 1-based line:col position."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # "ident" | "number" | "symbol" | "eof"
        self.text = text
        self.line = line
        self.col = col


def _lex(src: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and src[i] != "\n":
                i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("ident", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isdecimal():
            j = i
            while j < n and src[j].isdecimal():
                j += 1
            if j < n and src[j] == "." and j + 1 < n and src[j + 1].isdecimal():
                j += 1
                while j < n and src[j].isdecimal():
                    j += 1
            tokens.append(_Token("number", src[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if src.startswith(sym, i):
                tokens.append(_Token("symbol", sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ParseError(line, col, f"unexpected character {c!r}")
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.tokens = _lex(src)
        self.pos = 0
        # Open "!" and "(" on the current parse path.  The parser recurses on
        # them, so their nesting is bounded like the tree's height.
        self.nesting = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, tok: _Token, message: str) -> ParseError:
        return ParseError(tok.line, tok.col, message)

    def expect_symbol(self, sym: str) -> _Token:
        tok = self.next()
        if tok.kind != "symbol" or tok.text != sym:
            raise self.error(tok, f"expected {sym!r}, found {tok.text or 'end of input'!r}")
        return tok

    def expect_keyword(self, word: str) -> _Token:
        tok = self.next()
        if tok.kind != "ident" or tok.text != word:
            raise self.error(tok, f"expected {word!r}, found {tok.text or 'end of input'!r}")
        return tok

    def expect_ident(self, what: str = "identifier") -> _Token:
        tok = self.next()
        if tok.kind != "ident":
            raise self.error(tok, f"expected {what}, found {tok.text or 'end of input'!r}")
        if tok.text in _KEYWORDS:
            raise self.error(tok, f"keyword {tok.text!r} cannot be used as {what}")
        return tok

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text == word

    def ident_list(self, what: str) -> list[_Token]:
        items = [self.expect_ident(what)]
        while self.peek().kind == "symbol" and self.peek().text == ",":
            self.next()
            items.append(self.expect_ident(what))
        return items

    # Expressions: ! binds tighter than &&, which binds tighter than ||;
    # both binary operators are left-associative.  Each level returns the
    # expression and the height of its tree.
    def parse_expr(self) -> tuple[FeatureExpr, int]:
        e, height = self.parse_and()
        while self.peek().kind == "symbol" and self.peek().text == "||":
            tok = self.next()
            right, h = self.parse_and()
            e, height = e | right, self.deeper(tok, max(height, h))
        return e, height

    def parse_and(self) -> tuple[FeatureExpr, int]:
        e, height = self.parse_unary()
        while self.peek().kind == "symbol" and self.peek().text == "&&":
            tok = self.next()
            right, h = self.parse_unary()
            e, height = e & right, self.deeper(tok, max(height, h))
        return e, height

    def deeper(self, tok: _Token, height: int) -> int:
        """One level more than ``height``; past the bound, an error at ``tok``."""
        if height >= MAX_GUARD_DEPTH:
            raise self.error(
                tok, f"feature expression nests deeper than {MAX_GUARD_DEPTH} levels"
            )
        return height + 1

    def parse_unary(self) -> tuple[FeatureExpr, int]:
        tok = self.peek()
        if tok.kind == "symbol" and tok.text in ("!", "("):
            self.next()
            self.nesting = self.deeper(tok, self.nesting)
            if tok.text == "!":
                operand, height = self.parse_unary()
                result = Not(operand), self.deeper(tok, height)
            else:
                result = self.parse_expr()
                self.expect_symbol(")")
            self.nesting -= 1
            return result
        if tok.kind == "ident":
            self.next()
            if tok.text == "true":
                return TRUE, 1
            if tok.text == "false":
                return FALSE, 1
            if tok.text in _KEYWORDS:
                raise self.error(tok, f"keyword {tok.text!r} cannot be used as a feature")
            return Var(tok.text), 1
        raise self.error(tok, f"expected a feature expression, found {tok.text or 'end of input'!r}")

    def parse_rational(self) -> Fraction:
        tok = self.peek()
        negative = False
        if tok.kind == "symbol" and tok.text == "-":
            self.next()
            negative = True
            tok = self.peek()
        tok = self.next()
        if tok.kind != "number":
            raise self.error(tok, f"expected a number, found {tok.text or 'end of input'!r}")
        value = Fraction(tok.text)
        return -value if negative else value

    def parse_int(self) -> int:
        tok = self.next()
        if tok.kind != "number" or "." in tok.text:
            raise self.error(tok, f"expected an integer, found {tok.text or 'end of input'!r}")
        return int(tok.text)

    def parse_model(self) -> Wfts:
        features_tok = self.expect_keyword("features")
        self.expect_symbol("{")
        feature_toks = []
        if not (self.peek().kind == "symbol" and self.peek().text == "}"):
            feature_toks = self.ident_list("feature name")
        self.expect_symbol("}")

        constraint: FeatureExpr = TRUE
        if self.at_keyword("constraint"):
            self.next()
            constraint, _ = self.parse_expr()

        self.expect_keyword("states")
        self.expect_symbol("{")
        state_toks = self.ident_list("state name")
        self.expect_symbol("}")

        self.expect_keyword("init")
        self.expect_symbol("{")
        init_toks = self.ident_list("state name")
        self.expect_symbol("}")

        transitions = []
        while self.at_keyword("trans"):
            transitions.append(self.parse_trans())
        tok = self.peek()
        if tok.kind != "eof":
            raise self.error(tok, f"expected 'trans' or end of input, found {tok.text!r}")

        try:
            fm = FeatureModel([t.text for t in feature_toks], constraint)
        except FeatureError as exc:
            tok = feature_toks[0] if feature_toks else features_tok
            raise ParseError(tok.line, tok.col, str(exc)) from exc
        try:
            return Wfts(
                [t.text for t in state_toks],
                [t.text for t in init_toks],
                transitions,
                fm,
            )
        except ModelError as exc:
            tok = state_toks[0]
            raise ParseError(tok.line, tok.col, str(exc)) from exc

    def parse_trans(self) -> Transition:
        self.expect_keyword("trans")
        src = self.expect_ident("state name")
        self.expect_symbol("->")
        tgt = self.expect_ident("state name")
        guard: FeatureExpr = TRUE
        if self.peek().kind == "symbol" and self.peek().text == "[":
            self.next()
            guard, _ = self.parse_expr()
            self.expect_symbol("]")
        action = "tau"
        if self.at_keyword("action"):
            self.next()
            self.expect_symbol("=")
            action = self.expect_ident("action name").text
        self.expect_keyword("weight")
        self.expect_symbol("=")
        weight = self.parse_rational()
        length = 1
        if self.at_keyword("length"):
            self.next()
            self.expect_symbol("=")
            length_tok = self.peek()
            length = self.parse_int()
            if length < 1:
                raise self.error(length_tok, "length must be >= 1")
        return Transition(src.text, tgt.text, weight, guard, action, length)


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
