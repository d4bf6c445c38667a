"""Seeded random model generation for cross-validation suites.

Models are kept small on purpose: the point is exhaustive per-product
checking against brute-force oracles, not stress testing.  Generation is
fully determined by the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .features import FALSE, TRUE, FeatureError, FeatureExpr, FeatureModel, Not, Var
from .model import Transition, Wfts

_ACTIONS = ("tau", "go", "step", "work")
MAX_WEIGHT = 10  # weights are integers in [-MAX_WEIGHT, MAX_WEIGHT]
MAX_LENGTH = 3  # the longest transition length drawn


def random_expr(rng: random.Random, features: tuple[str, ...], depth: int = 2) -> FeatureExpr:
    if not features or depth == 0:
        if not features:
            return TRUE
        return Var(rng.choice(features))
    roll = rng.random()
    if roll < 0.40:
        return Var(rng.choice(features))
    if roll < 0.55:
        return Not(random_expr(rng, features, depth - 1))
    if roll < 0.75:
        return random_expr(rng, features, depth - 1) & random_expr(rng, features, depth - 1)
    if roll < 0.95:
        return random_expr(rng, features, depth - 1) | random_expr(rng, features, depth - 1)
    return TRUE if rng.random() < 0.7 else FALSE


def random_wfts(seed, max_states: int = 8, max_features: int = 4) -> Wfts:
    """One random system, reproducible from ``seed``."""
    rng = random.Random(seed)
    n_states = rng.randint(2, max_states)
    n_features = rng.randint(0, max_features)
    features = tuple(f"f{i}" for i in range(n_features))

    fm = None
    if features and rng.random() < 0.3:
        for _ in range(4):
            try:
                fm = FeatureModel(features, random_expr(rng, features))
                break
            except FeatureError:
                continue  # constraint excluded every product; retry
    if fm is None:
        fm = FeatureModel(features)

    states = [f"s{i}" for i in range(n_states)]
    n_trans = rng.randint(1, 2 * n_states + 2)
    transitions = []
    for _ in range(n_trans):
        guard = random_expr(rng, features) if features and rng.random() < 0.6 else TRUE
        transitions.append(
            Transition(
                rng.choice(states),
                rng.choice(states),
                Fraction(rng.randint(-MAX_WEIGHT, MAX_WEIGHT)),
                guard,
                rng.choice(_ACTIONS),
                rng.choice((1, 1, 1, 2, MAX_LENGTH)),
            )
        )
    initial = rng.sample(states, rng.randint(1, n_states))
    return Wfts(states, initial, transitions, fm)


def random_corpus(seed: int, count: int, **kwargs) -> list[Wfts]:
    """A deterministic batch of random systems."""
    return [random_wfts(f"{seed}:{i}", **kwargs) for i in range(count)]
