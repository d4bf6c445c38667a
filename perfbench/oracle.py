"""Independent correctness checks for the benchmark.

Nothing here imports ``wfts``.  A model is read through its public
attributes into a plain form (``Plain``); guards are evaluated by this
module's own interpreter, products are enumerated from the constraint
again, and cycle values come from an exact oracle that shares no algorithm
with the program: cycle improvement with a Bellman-Ford positive-cycle
test, on the unexpanded model with transition lengths as transit times.

Each ``verify_*`` function returns a list of failure messages; an empty
list means every output agreed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as cartesian
from math import lcm


class OracleError(RuntimeError):
    """The oracle itself reached an impossible state."""


# -- plain models --------------------------------------------------------------

def _guard_fn(expr):
    """A predicate on products (frozensets of feature names) for a guard tree."""
    kind = type(expr).__name__
    if kind == "_TrueExpr":
        return lambda p: True
    if kind == "_FalseExpr":
        return lambda p: False
    if kind == "Var":
        name = expr.name
        return lambda p: name in p
    if kind == "Not":
        inner = _guard_fn(expr.operand)
        return lambda p: not inner(p)
    if kind in ("And", "Or"):
        left, right = _guard_fn(expr.left), _guard_fn(expr.right)
        if kind == "And":
            return lambda p: left(p) and right(p)
        return lambda p: left(p) or right(p)
    raise OracleError(f"unknown guard node {kind}")


@dataclass
class Plain:
    """A model as plain data: products, states and guarded transitions."""

    products: list  # valid products, enumerated here from the constraint
    states: tuple
    initial: tuple
    trans: list  # (source, target, weight Fraction, guard predicate, length)

    def enabled(self, product: frozenset) -> tuple:
        return tuple(i for i, t in enumerate(self.trans) if t[3](product))


def plain(w) -> Plain:
    """Read an unexpanded model through its public attributes."""
    fm = w.feature_model
    features = tuple(fm.features)
    allowed = _guard_fn(fm.constraint)
    products = [
        frozenset(f for f, on in zip(features, bits) if on)
        for bits in cartesian((False, True), repeat=len(features))
    ]
    trans = [
        (t.source, t.target, Fraction(t.weight), _guard_fn(t.guard), t.length)
        for t in w.transitions
    ]
    return Plain([p for p in products if allowed(p)], tuple(w.states),
                 tuple(w.initial), trans)


# -- the exact best cycle ratio ------------------------------------------------

def _reachable(states, initial, edges) -> set:
    out: dict = {}
    for u, v, _, _ in edges:
        out.setdefault(u, []).append(v)
    seen = set(initial)
    stack = list(initial)
    while stack:
        for v in out.get(stack.pop(), ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def _positive_cycle(nodes, edges, a: int, b: int):
    """Edges of a cycle with sum(b*W - a*L) > 0, or None (Bellman-Ford from
    a virtual source; with strict relaxations every cycle of the parent
    graph is positive)."""
    dist = {v: 0 for v in nodes}
    parent: dict = {}
    last = None
    for _ in range(len(nodes)):
        last = None
        for e in edges:
            u, v, wt, ln = e
            cand = dist[u] + wt * b - a * ln
            if cand > dist[v]:
                dist[v] = cand
                parent[v] = e
                last = v
        if last is None:
            return None
    seen = set()
    while last not in seen:
        seen.add(last)
        if last not in parent:
            raise OracleError("Bellman-Ford parent chain ends without a cycle")
        last = parent[last][0]
    cycle, y = [], last
    while True:
        e = parent[y]
        cycle.append(e)
        y = e[0]
        if y == last:
            return cycle


def best_ratio(states, initial, edges, mode: str) -> Fraction | None:
    """Best (max or min) weight/length ratio over cycles reachable from
    ``initial``; ``edges`` are (source, target, weight, length).  None when
    no cycle is reachable.

    Cycle improvement: start below every cycle ratio; while the graph with
    weights ``w - lam*L`` has a positive cycle, move ``lam`` up to that
    cycle's ratio.  Each step strictly raises ``lam`` among finitely many
    cycle ratios, and the final ``lam`` admits no better cycle.
    """
    sign = 1 if mode == "max" else -1
    reach = _reachable(states, initial, edges)
    live = [(u, v, sign * w, ln) for u, v, w, ln in edges if u in reach]
    if not live:
        return None
    scale = lcm(*(w.denominator for _, _, w, _ in live))
    ints = [(u, v, int(w * scale), ln) for u, v, w, ln in live]
    lam = min(Fraction(w, ln) for _, _, w, ln in ints) - 1
    found = False
    while True:
        cycle = _positive_cycle(sorted(reach), ints, lam.numerator, lam.denominator)
        if cycle is None:
            break
        ratio = Fraction(sum(e[2] for e in cycle), sum(e[3] for e in cycle))
        if ratio <= lam:
            raise OracleError("Bellman-Ford returned a cycle that does not improve")
        lam, found = ratio, True
    return sign * lam / scale if found else None


def expected_values(m: Plain, mode: str) -> dict:
    """Product -> best ratio, one oracle run per distinct projection."""
    by_projection: dict = {}
    values = {}
    for p in m.products:
        enabled = m.enabled(p)
        if enabled not in by_projection:
            edges = [m.trans[i] for i in enabled]
            by_projection[enabled] = best_ratio(
                m.states, m.initial, [(u, v, w, ln) for u, v, w, _, ln in edges], mode
            )
        values[p] = by_projection[enabled]
    return values


def clone_values(taxi1: dict, products) -> dict:
    """Clone symmetry of the taxi example: the license clones carry equal
    weights, so a product's value is the taxi:1 value of the product that
    keeps its S and T and has L1 iff it has any license."""
    out = {}
    for p in products:
        core = p & {"S", "T"}
        out[p] = taxi1[core | {"L1"} if p - core else core]
    return out


# -- output checks -------------------------------------------------------------

def render_decimal(value: Fraction) -> str:
    """Two decimal places, halves rounded away from zero."""
    hundredths = (200 * abs(value.numerator) + value.denominator) // (
        2 * value.denominator
    )
    sign = "-" if value < 0 else ""
    return f"{sign}{hundredths // 100}.{hundredths % 100:02d}"


def verify_values(label: str, reported, expected: dict) -> list:
    """``reported`` is a list of (product, value); every product once."""
    failures = []
    seen = set()
    for prod, value in reported:
        if prod not in expected:
            failures.append(f"{label}: {sorted(prod)} is not a valid product")
        elif value != expected[prod]:
            failures.append(
                f"{label}: {sorted(prod)} reported {value}, expected {expected[prod]}"
            )
        seen.add(prod)
    if seen != set(expected) or len(reported) != len(expected):
        failures.append(
            f"{label}: {len(reported)} products reported, {len(expected)} valid"
        )
    return failures


def verify_witness(m: Plain, product: frozenset, witness, value: Fraction,
                   mode: str) -> str | None:
    """A witness must be a closed walk of enabled transitions, reachable from
    an initial state, whose mean is the value.  Between two listed states the
    walk may take any enabled transition; the best such choice must give
    total ``sum(w - value*L)`` exactly 0."""
    if not witness or any(s not in m.states for s in witness):
        return f"witness {witness} names unknown states"
    enabled = [m.trans[i] for i in m.enabled(product)]
    reach = _reachable(m.states, m.initial, [(u, v, w, ln) for u, v, w, _, ln in enabled])
    if witness[0] not in reach:
        return f"witness {witness} is not reachable"
    pick = max if mode == "max" else min
    total = Fraction(0)
    for a, b in zip(witness, witness[1:] + witness[:1]):
        steps = [w - value * ln for u, v, w, _, ln in enabled if u == a and v == b]
        if not steps:
            return f"witness {witness}: no enabled transition {a} -> {b}"
        total += pick(steps)
    if total != 0:
        return f"witness {witness} does not have mean {value}"
    return None


def verify_report_json(label: str, text: str, m: Plain, expected: dict,
                       mode: str) -> list:
    """The CLI's JSON report: mode, values, half-up decimals and witnesses."""
    try:
        doc = json.loads(text)
        entries = doc["products"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{label}: unreadable JSON report ({exc})"]
    failures = []
    if doc.get("mode") != mode:
        failures.append(f"{label}: mode {doc.get('mode')!r}, expected {mode!r}")
    reported = []
    try:
        for entry in entries:
            prod = frozenset(entry["features"])
            raw = entry["value"]
            value = None if raw == "undefined" else Fraction(raw)
            reported.append((prod, value))
            want = expected.get(prod)
            if value != want:
                continue  # reported by verify_values below
            decimal = None if want is None else render_decimal(want)
            if entry["decimal"] != decimal:
                failures.append(f"{label}: {sorted(prod)} decimal "
                                f"{entry['decimal']!r}, expected {decimal!r}")
            if want is None:
                if entry["witness"] is not None:
                    failures.append(f"{label}: {sorted(prod)} has a witness but no value")
                continue
            problem = verify_witness(m, prod, entry["witness"], want, mode)
            if problem:
                failures.append(f"{label}: {sorted(prod)} {problem}")
    except (KeyError, TypeError, ValueError) as exc:
        return failures + [f"{label}: malformed product entry ({exc!r})"]
    return verify_values(label, reported, expected) + failures
