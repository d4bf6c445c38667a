"""Weighted featured transition systems: the model and its basic transforms.

A transition carries a feature-expression guard, an exact rational weight and
a positive integer length.  Lengths model multi-step trips, and cycle means
are taken per unit step: a cycle's total weight over its total length.
Every analysis takes a system as written, and ``graphs.IndexedModel``
indexes its declared transitions, each with its length.
``expand_lengths`` rewrites the lengths into chains of unit transitions,
the unit steps, which the tests' references read.
Weights stay exact Fractions throughout; nothing here touches floating
point.  A single product's system is not a separate object: every
analysis reads it off the shared ``graphs.IndexedModel`` through the
product's bit.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .features import TRUE, FeatureError, FeatureExpr, FeatureModel


class ModelError(ValueError):
    """Structurally invalid transition system."""


def _as_fraction(value) -> Fraction:
    if type(value) is Fraction:  # already exact: the parser and generators make these
        return value
    if isinstance(value, float):
        raise ModelError(
            f"weight {value!r} is a float; pass an int, string or Fraction"
        )
    try:
        return Fraction(value)
    except (TypeError, ValueError) as exc:
        raise ModelError(f"invalid weight: {value!r}") from exc


@dataclass(frozen=True)
class Transition:
    source: str
    target: str
    weight: Fraction
    guard: FeatureExpr = TRUE
    action: str = "tau"
    length: int = 1

    def __post_init__(self):
        object.__setattr__(self, "weight", _as_fraction(self.weight))
        if not isinstance(self.length, int) or self.length < 1:
            raise ModelError(f"transition length must be a positive int: {self.length!r}")


class Wfts:
    """Weighted featured transition system.

    States, initial states and transitions keep their declaration order; all
    symbolic algorithms iterate in that order, which makes every downstream
    result deterministic.  Instances are immutable after construction.
    """

    def __init__(
        self,
        states: Iterable[str],
        initial: Iterable[str],
        transitions: Iterable[Transition],
        feature_model: FeatureModel,
    ):
        self.states = tuple(states)
        self.initial = tuple(initial)
        self.transitions = tuple(transitions)
        self.feature_model = feature_model
        self._validate()

    def _validate(self) -> None:
        if not self.states:
            raise ModelError("at least one state is required")
        seen = set()
        for s in self.states:
            if not isinstance(s, str) or not s or any(c.isspace() for c in s):
                raise ModelError(f"invalid state name: {s!r}")
            if s in seen:
                raise ModelError(f"duplicate state name: {s!r}")
            seen.add(s)
        if not self.initial:
            raise ModelError("at least one initial state is required")
        for s in self.initial:
            if s not in seen:
                raise ModelError(f"initial state not declared: {s!r}")
        if len(set(self.initial)) != len(self.initial):
            raise ModelError("duplicate initial state")
        for t in self.transitions:
            if t.source not in seen:
                raise ModelError(f"undeclared source state: {t.source!r}")
            if t.target not in seen:
                raise ModelError(f"undeclared target state: {t.target!r}")
            try:
                self.feature_model.mask(t.guard)
            except FeatureError as exc:
                raise ModelError(
                    f"bad guard on {t.source} -> {t.target}: {exc}"
                ) from exc

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Wfts)
            and self.states == other.states
            and self.initial == other.initial
            and self.transitions == other.transitions
            and self.feature_model == other.feature_model
        )

    def __repr__(self) -> str:
        return (
            f"Wfts({len(self.states)} states, {len(self.transitions)} transitions, "
            f"{self.feature_model.full_mask.bit_length()} products)"
        )


def expand_lengths(w: Wfts) -> Wfts:
    """Rewrite every transition of length k > 1 into a chain of k unit hops.

    The first hop keeps the original weight, guard and action; the remaining
    hops have weight 0 and guard true.  Intermediate states are named
    ``src#tgt#i`` with a per-(source, target) running counter; ``#`` cannot
    occur in parsed models, so the names never collide with user states.
    A system whose lengths are all 1 is returned as it is.  The result is
    not validated again: ``w`` was, and the hops it adds are valid by
    construction.
    """
    if all(t.length == 1 for t in w.transitions):
        return w
    new_states = list(w.states)
    new_trans: list[Transition] = []
    counters: dict[tuple[str, str], int] = {}
    zero = Fraction(0)
    for t in w.transitions:
        if t.length == 1:
            new_trans.append(t)
            continue
        base = counters.get((t.source, t.target), 0)
        counters[(t.source, t.target)] = base + t.length - 1
        hops = [
            f"{t.source}#{t.target}#{base + i}" for i in range(1, t.length)
        ]
        new_states.extend(hops)
        chain = [t.source] + hops + [t.target]
        new_trans.append(
            Transition(chain[0], chain[1], t.weight, t.guard, t.action, 1)
        )
        for a, b in zip(chain[1:], chain[2:]):
            new_trans.append(Transition(a, b, zero, TRUE, "tau", 1))
    expanded = copy.copy(w)
    expanded.states, expanded.transitions = tuple(new_states), tuple(new_trans)
    return expanded
