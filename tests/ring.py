"""The ring model: a family where, in max mode, no two products share a value.

``ring(k)`` has features ``F0..Fk-1`` and states ``s0..sk``, initial
``s0``.  From each ``si`` to ``s(i+1)`` run three edges: weight 2^i under
``Fi``, weight 0 under ``!Fi``, and weight 1/3 under ``F((i+1) mod k)``;
``sk -> s0`` has weight 0 and no guard.  In max mode a product's cycle
takes 2^i at each step whose ``Fi`` it has, and for k up to 10 no two
products share a value, so the family policy iteration holds one cell
per product at every state.
"""

from __future__ import annotations

from fractions import Fraction

from wfts.features import TRUE, FeatureModel, Not, Var
from wfts.model import Transition, Wfts


def ring(k: int) -> Wfts:
    """The ring model with ``k`` features."""
    features = [f"F{i}" for i in range(k)]
    states = [f"s{i}" for i in range(k + 1)]
    trans = []
    for i in range(k):
        here, there = states[i], states[i + 1]
        trans += [
            Transition(here, there, 2 ** i, Var(features[i])),
            Transition(here, there, 0, Not(Var(features[i]))),
            Transition(here, there, Fraction(1, 3), Var(features[(i + 1) % k])),
        ]
    trans.append(Transition(states[k], states[0], 0, TRUE))
    return Wfts(states, [states[0]], trans, FeatureModel(features))
