"""Boolean feature algebra: feature models, feature expressions, product sets.

A feature model declares an ordered list of feature names plus one boolean
constraint; the valid products are exactly the constraint's satisfying
assignments.  A product set is a plain int bitmask over the enumerated
valid products (bit i is ``products[i]``): ``mask`` denotes an expression
as one, logical operations are exact int operations (complement within
``full_mask``), equal sets are equal ints, and ``expr_for_mask`` turns one
back into a formula.  Everything here is immutable and shareable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Bitset enumeration is exact but exponential in the feature count.
MAX_FEATURES = 20

# Deepest feature expression a model may hold.  Expression trees are walked
# recursively (hashing, denotation, rendering); a few hundred levels exhaust
# Python's default recursion limit.
MAX_GUARD_DEPTH = 100


class FeatureError(ValueError):
    """Malformed feature model or feature expression."""


class FeatureExpr:
    """Boolean formula over feature variables.

    Subclasses form a plain syntax tree; semantics live in
    :meth:`FeatureModel.mask`.  `&`, `|` and `~` build And/Or/Not nodes.
    """

    def __and__(self, other: "FeatureExpr") -> "FeatureExpr":
        return And(self, other)

    def __or__(self, other: "FeatureExpr") -> "FeatureExpr":
        return Or(self, other)

    def __invert__(self) -> "FeatureExpr":
        return Not(self)

    def variables(self) -> Iterator[str]:
        return iter(())

    def __str__(self) -> str:
        return _render(self, 0)


@dataclass(frozen=True)
class _TrueExpr(FeatureExpr):
    def __repr__(self) -> str:
        return "TRUE"


@dataclass(frozen=True)
class _FalseExpr(FeatureExpr):
    def __repr__(self) -> str:
        return "FALSE"


TRUE = _TrueExpr()
FALSE = _FalseExpr()


@dataclass(frozen=True)
class Var(FeatureExpr):
    name: str

    def variables(self) -> Iterator[str]:
        yield self.name


@dataclass(frozen=True)
class Not(FeatureExpr):
    operand: FeatureExpr

    def variables(self) -> Iterator[str]:
        return self.operand.variables()


@dataclass(frozen=True)
class And(FeatureExpr):
    left: FeatureExpr
    right: FeatureExpr

    def variables(self) -> Iterator[str]:
        yield from self.left.variables()
        yield from self.right.variables()


@dataclass(frozen=True)
class Or(FeatureExpr):
    left: FeatureExpr
    right: FeatureExpr

    def variables(self) -> Iterator[str]:
        yield from self.left.variables()
        yield from self.right.variables()


_PREC_OR, _PREC_AND, _PREC_NOT = 1, 2, 3


def _render(e: FeatureExpr, parent_prec: int) -> str:
    if isinstance(e, _TrueExpr):
        return "true"
    if isinstance(e, _FalseExpr):
        return "false"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Not):
        inner = _render(e.operand, _PREC_NOT)
        return f"!{inner}"
    if isinstance(e, And):
        # Left-associative: the right child needs parens at equal precedence.
        s = f"{_render(e.left, _PREC_AND)} && {_render(e.right, _PREC_AND + 1)}"
        return f"({s})" if parent_prec > _PREC_AND else s
    if isinstance(e, Or):
        s = f"{_render(e.left, _PREC_OR)} || {_render(e.right, _PREC_OR + 1)}"
        return f"({s})" if parent_prec > _PREC_OR else s
    raise TypeError(f"not a feature expression: {e!r}")


def check_depth(expr: FeatureExpr) -> None:
    """Raise FeatureError if ``expr`` is more than ``MAX_GUARD_DEPTH`` levels
    deep (a variable or constant is level 0).  Iterative, so it is safe to
    run before anything walks or hashes the tree recursively."""
    if not isinstance(expr, (Not, And, Or)):
        return  # most guards: a constant or a variable
    stack = [(expr, 0)]
    while stack:
        e, depth = stack.pop()
        if depth > MAX_GUARD_DEPTH:
            raise FeatureError(
                f"feature expression nests deeper than {MAX_GUARD_DEPTH} levels"
            )
        if isinstance(e, Not):
            stack.append((e.operand, depth + 1))
        elif isinstance(e, (And, Or)):
            stack.append((e.left, depth + 1))
            stack.append((e.right, depth + 1))


class FeatureModel:
    """Ordered feature names plus a constraint selecting the valid products.

    Products are enumerated once, in lexicographic order of the feature
    bit-vector (declaration order, absent < present), and every expression
    is denoted as a bitset over that enumeration.  Each feature's bitset is
    built by shifts over all 2^k bit-vectors, the constraint is denoted
    over those, and, when it drops products, each bitset is compressed
    through the valid ones.  ``tabulate`` builds per-product items the way
    the products are enumerated; ``products`` itself is built that way on
    first read.
    """

    def __init__(self, features: Iterable[str], constraint: FeatureExpr = TRUE):
        feats = tuple(features)
        seen = set()
        for name in feats:
            if not isinstance(name, str) or not _IDENT_RE.match(name):
                raise FeatureError(f"invalid feature name: {name!r}")
            if name in seen:
                raise FeatureError(f"duplicate feature name: {name!r}")
            seen.add(name)
        if len(feats) > MAX_FEATURES:
            raise FeatureError(
                f"{len(feats)} features exceed the bitset backend limit "
                f"of {MAX_FEATURES}"
            )
        check_depth(constraint)
        self._features = feats
        self._constraint = constraint
        for v in constraint.variables():
            if v not in seen:
                raise FeatureError(f"unknown feature in constraint: {v!r}")

        # Code c of the 2^k bit-vectors holds the first feature as its top
        # bit, so codes count in lexicographic order.  Over all codes, the
        # mask of the feature at bit b is runs of 2^b zeros and 2^b ones,
        # doubled up to 2^k bits; the constraint is denoted over them.
        size = 1 << len(feats)
        self.full_mask = (1 << size) - 1
        self._feature_masks = {}
        for b, f in enumerate(reversed(feats)):
            run = 1 << b
            m, span = ((1 << run) - 1) << run, 2 * run
            while span < size:
                m |= m << span
                span <<= 1
            self._feature_masks[f] = m
        valid = self._mask_uncached(constraint)
        if not valid:
            raise FeatureError("feature model admits no valid products")
        self._codes = None if valid == self.full_mask else [
            c for c, bit in enumerate(bin(valid)[:1:-1]) if bit == "1"]
        if self._codes is not None:  # compress each mask through the valid codes
            pick = itemgetter(*self._codes)
            self._feature_masks = {f: int("".join(pick(f"{m:0{size}b}"[::-1]))[::-1], 2)
                                   for f, m in self._feature_masks.items()}
            self.full_mask = (1 << len(self._codes)) - 1
        self._mask_cache: dict[FeatureExpr, int] = {}

    @property
    def features(self) -> tuple[str, ...]:
        return self._features

    @property
    def constraint(self) -> FeatureExpr:
        return self._constraint

    @cached_property
    def products(self) -> tuple[frozenset, ...]:
        """All valid products, in the canonical bit-vector order, built on
        first read; their count is ``full_mask.bit_length()``."""
        return tuple(self.tabulate(frozenset(), lambda ps, f: [p | {f} for p in ps]))

    def tabulate(self, empty, extend) -> list:
        """One item per product, in enumeration order, built the way the
        products are: ``empty`` is the empty product's item, and, last
        feature first, ``extend(items, f)`` gives the items of the products
        listed so far with ``f`` added ahead of every feature they hold."""
        items = [empty]
        for f in reversed(self._features):
            items += extend(items, f)
        return items if self._codes is None else [items[c] for c in self._codes]

    @cached_property
    def _index(self) -> dict[frozenset, int]:
        return {p: i for i, p in enumerate(self.products)}

    def product_index(self, product: Iterable[str]) -> int:
        p = frozenset(product)
        try:
            return self._index[p]
        except KeyError:
            raise FeatureError(f"not a valid product: {sorted(p)}") from None

    def mask(self, expr: FeatureExpr) -> int:
        """Raw bitset of valid products satisfying ``expr``.  FeatureError
        if ``expr`` nests deeper than ``MAX_GUARD_DEPTH`` levels."""
        try:
            return self._mask_cache[expr]
        except (KeyError, RecursionError):  # RecursionError: too deep to hash
            check_depth(expr)
        m = self._mask_cache[expr] = self._mask_uncached(expr)
        return m

    def _mask_uncached(self, expr: FeatureExpr) -> int:
        if isinstance(expr, _TrueExpr):
            return self.full_mask
        if isinstance(expr, _FalseExpr):
            return 0
        if isinstance(expr, Var):
            try:
                return self._feature_masks[expr.name]
            except KeyError:
                raise FeatureError(f"unknown feature: {expr.name!r}") from None
        if isinstance(expr, Not):
            return self.full_mask & ~self._mask_uncached(expr.operand)
        if isinstance(expr, And):
            return self._mask_uncached(expr.left) & self._mask_uncached(expr.right)
        if isinstance(expr, Or):
            return self._mask_uncached(expr.left) | self._mask_uncached(expr.right)
        raise FeatureError(f"not a feature expression: {expr!r}")

    def expr_for_mask(self, mask: int) -> FeatureExpr:
        """A compact formula denoting exactly the given product bitset."""
        return _expr_for_mask(self, mask & self.full_mask, 0, self.full_mask)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FeatureModel)
            and self._features == other._features
            and self._constraint == other._constraint
        )

    def __hash__(self) -> int:
        return hash((self._features, self._constraint))

    def __repr__(self) -> str:
        return f"FeatureModel({list(self._features)}, {self.full_mask.bit_length()} products)"


def _expr_for_mask(fm: FeatureModel, mask: int, i: int, care: int) -> FeatureExpr:
    # Shannon expansion along the declaration order; `care` tracks which
    # products are still compatible with the literals chosen so far.
    if care & mask == care:
        return TRUE
    if care & mask == 0:
        return FALSE
    f = fm.features[i]
    fmask = fm._feature_masks[f]
    pos = _expr_for_mask(fm, mask, i + 1, care & fmask)
    neg = _expr_for_mask(fm, mask, i + 1, care & ~fmask)
    if pos == neg:
        return pos
    v = Var(f)
    if pos == TRUE and neg == FALSE:
        return v
    if pos == FALSE and neg == TRUE:
        return Not(v)
    if pos == FALSE:
        return And(Not(v), neg)
    if neg == FALSE:
        return v if pos == TRUE else And(v, pos)
    if pos == TRUE:
        return Or(v, neg)
    if neg == TRUE:
        return Or(Not(v), pos)
    return Or(And(v, pos), And(Not(v), neg))
