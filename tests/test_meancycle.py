import sys
from fractions import Fraction
from functools import reduce
from operator import or_

import pytest
from hypothesis import assume, given, settings, strategies as st

from wfts.analysis import (
    analyze_both, analyze_family, analyze_products, decimal2, report_to_json,
)
from wfts.checks import reachable_projection
from wfts.features import TRUE, And, FeatureModel, Not, Or, Var
from wfts.generators import grant_request, minepump_lite, taxi
from wfts.graphs import IndexedModel, spread
from wfts.meancycle import brute_force_mean_cycle, product_keys
from wfts.model import Transition, Wfts, expand_lengths
from wfts.randgen import random_corpus, random_wfts

from cold_reference import (
    cold_key, cold_values, reachable_from, reference_live_out, successors, unmasked,
)
from karp_reference import karp_values
from ring import ring
from test_analysis import within
from test_golden import without_timing


def system(edges, states=None):
    """A featureless system over named ``(source, target, weight)`` edges,
    started in its first state."""
    if states is None:
        states = sorted({s for e in edges for s in e[:2]})
    trans = [Transition(src, tgt, Fraction(w)) for src, tgt, w in edges]
    return Wfts(states, [states[0]], trans, FeatureModel([]))


def graph(edges, states=None):
    """The same edges as the oracle reads them: a state count and
    ``(u, v, weight, length)`` edges, each of length 1."""
    if states is None:
        states = sorted({s for e in edges for s in e[:2]})
    idx = {s: i for i, s in enumerate(states)}
    return len(states), [(idx[a], idx[b], Fraction(w), 1) for a, b, w in edges]


def route_mean(im, bit):
    """Product ``bit``'s value on the product route, a one-mask, cold
    ``product_keys`` call, as a ``Fraction`` of ``im``'s signed weights."""
    (key,) = product_keys(im, [bit])
    return None if key is None else Fraction(key[0], key[1] * im.scale)


def product_mean(w, mode="max"):
    """The product-based value of a featureless system's only product."""
    (outcome,) = analyze_products(w, mode).outcomes
    return outcome.value


def cycle_system(spec):
    """One weighted cycle through the named locations, multi-step hops
    expanded (no features involved)."""
    states = [src for src, _, _, _ in spec]
    trans = [
        Transition(src, tgt, w, TRUE, "tau", length)
        for (src, tgt, w, length) in spec
    ]
    return expand_lengths(Wfts(states, [states[0]], trans, FeatureModel([])))


def unit_projection(im, bit):
    """Product ``bit``'s reachable projection on the unit steps, the arcs of
    the length expansion's own index, renumbered in declaration order: the
    state count and ``(u, v, weight, 1)`` edges with the model's own
    weights.  The reference that ``checks.reachable_projection``, on the
    declared arcs with their lengths, is compared against."""
    unit = IndexedModel(expand_lengths(im.system))
    reach = reachable_from(successors(unit, bit), unit.initial, len(unit.system.states))
    local = {}
    for u, r in enumerate(reach):
        if r:
            local[u] = len(local)
    edges = [
        (local[u], local[v], t.weight, 1)
        for t, (u, v, _, _, g, _) in zip(unit.system.transitions, unit.arcs)
        if g & bit and reach[u]
    ]
    return len(local), edges


def reference_mean_cycle(n, edges):
    """The oracle's answer in both modes in plain ``Fraction`` arithmetic: every
    simple cycle of ``(u, v, weight, length)`` edges, rooted at its smallest
    state, with its mean, total weight over total length, compared
    directly.  ``brute_force_mean_cycle`` must return an equal dict."""
    out = [[] for _ in range(n)]
    for u, v, w, ln in edges:
        out[u].append((v, w, ln))
    means = []
    on_path = [False] * n

    def explore(root, u, total, length):
        for v, w, ln in out[u]:
            if v == root:
                means.append((total + w) / (length + ln))
            elif v > root and not on_path[v]:
                on_path[v] = True
                explore(root, v, total + w, length + ln)
                on_path[v] = False

    for root in range(n):
        on_path[root] = True
        explore(root, root, Fraction(0), 0)
        on_path[root] = False
    return {"max": max(means, default=None), "min": min(means, default=None)}


class TestClassicKarp:
    """Small cycle means through the product-based baseline."""

    def test_two_cycle(self):
        w = system([("a", "b", 3), ("b", "a", 1)])
        assert route_mean(IndexedModel(w), 1) == 2

    def test_two_cycle_min(self):
        assert product_mean(system([("a", "b", 3), ("b", "a", 1)]), "min") == 2

    def test_self_loop(self):
        assert route_mean(IndexedModel(system([("a", "a", 7)])), 1) == 7

    def test_no_edges_signals_no_cycle(self):
        w = Wfts(["a"], ["a"], [], FeatureModel([]))
        assert route_mean(IndexedModel(w), 1) is None

    def test_best_of_two_loops(self):
        w = system([("a", "b", 10), ("b", "a", 0), ("a", "a", 4)])
        assert product_mean(w) == 5
        assert product_mean(w, "min") == 4

    # Cycle means enumerated for the taxi walk-through: each of the five
    # published route means, reproduced on the route's own subgraph.
    @pytest.mark.parametrize(
        "spec, expected, shown",
        [
            (
                [("AP", "R1", 50, 3), ("R1", "P1", -2, 1),
                 ("P1", "AR", 40, 3), ("AR", "AP", -5, 1)],
                Fraction(83, 8), "10.38",
            ),
            (
                [("AP", "R2", 45, 2), ("R2", "P2", -2, 1),
                 ("P2", "AR", 35, 2), ("AR", "AP", -5, 1)],
                Fraction(73, 6), "12.17",
            ),
            (
                [("AP", "Re", 60, 4), ("Re", "Pe", -2, 1),
                 ("Pe", "AR", 50, 4), ("AR", "AP", -5, 1)],
                Fraction(103, 10), "10.30",
            ),
            (
                [("AP", "R2", 45, 2), ("R2", "R1", 15, 1), ("R1", "P1", -2, 1),
                 ("P1", "AR", 40, 3), ("AR", "AP", -5, 1)],
                Fraction(93, 8), "11.63",
            ),
            (
                [("AP", "R1", 50, 3), ("R1", "P1", -2, 1), ("P1", "P2", 15, 1),
                 ("P2", "AR", 35, 2), ("AR", "AP", -5, 1)],
                Fraction(93, 8), "11.63",
            ),
            (
                [("AP", "R2", 45, 2), ("R2", "R1", 15, 1), ("R1", "P1", -2, 1),
                 ("P1", "P2", 15, 1), ("P2", "AR", 35, 2), ("AR", "AP", -5, 1)],
                Fraction(103, 8), "12.88",
            ),
        ],
    )
    def test_taxi_route_means(self, spec, expected, shown):
        w = cycle_system(spec)
        value = route_mean(IndexedModel(w), 1)
        assert value == expected
        assert decimal2(value) == shown
        assert product_mean(w, "min") == expected  # a single cycle

    @pytest.mark.parametrize("mode", ["max", "min"])
    def test_analyses_take_the_system_as_written(self, mode):
        models = ([taxi(k) for k in range(1, 5)] + [grant_request(), minepump_lite()]
                  + random_corpus(0, 60))
        assert any(t.length > 1 for w in models for t in w.transitions)
        for w in models:
            expanded = expand_lengths(w)
            for analyze in (analyze_family, analyze_products, analyze_both):
                written, unit = analyze(w, mode, True), analyze(expanded, mode, True)
                assert written.outcomes == unit.outcomes  # values and witnesses
                assert (without_timing(report_to_json(written) + "\n")
                        == without_timing(report_to_json(unit) + "\n"))


def both_signs(w):
    """The product-based value of a featureless system's only product and
    the oracle's on its reachable projection, per mode."""
    for sign, mode in ((1, "max"), (-1, "min")):
        im = IndexedModel(w, sign)
        got = route_mean(im, 1)
        oracle = brute_force_mean_cycle(*unit_projection(im, 1))[mode]
        yield mode, None if got is None else sign * got, oracle


class TestHoward:
    """Howard policy iteration, the product-based route, against the
    brute-force oracle: ties, parallel edges, self-loops, dead ends and
    better cycles that no initial state reaches."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_brute_force_on_the_reachable_projection(self, data):
        core = [f"c{i}" for i in range(data.draw(st.integers(1, 5)))]
        dead = [f"d{i}" for i in range(data.draw(st.integers(0, 2)))]
        weights = data.draw(st.sampled_from(
            [st.just(0), st.integers(-1, 1), st.integers(-10**6, 10**6)]
        ))
        divisor = data.draw(st.sampled_from([1, 1, 2, 3]))
        core_state = st.sampled_from(core)
        edges = data.draw(st.lists(st.tuples(core_state, core_state, weights),
                                   max_size=3 * len(core)))
        if data.draw(st.booleans()) and edges:
            edges.append(edges[0])  # a parallel copy
        # A branch of states with no way out hanging off the core.
        for src, tgt in zip([data.draw(core_state)] + dead, dead):
            edges.append((src, tgt, data.draw(weights)))
        # Better cycles in both modes, behind states nothing enters.
        top = max([abs(wt) for *_, wt in edges] + [1]) + 1
        edges += [("z0", "z0", top), ("z1", "z1", -top),
                  ("z0", core[0], 0), ("z1", data.draw(core_state), 0)]
        edges = data.draw(st.permutations(edges))
        states = core + dead + ["z0", "z1"]
        initial = data.draw(st.lists(st.sampled_from(core + dead),
                                     min_size=1, max_size=2, unique=True))
        trans = [Transition(a, b, Fraction(wt, divisor)) for a, b, wt in edges]
        w = Wfts(states, initial, trans, FeatureModel([]))
        for mode, got, oracle in both_signs(w):
            assert got == oracle, mode

    def test_equal_mean_cycles_behind_one_initial_state(self):
        # Both cycles have mean 2; the potentials tie at "i", which keeps
        # its first edge.
        w = system([("i", "p", 0), ("i", "q", 0), ("p", "p2", 3), ("p2", "p", 1),
                    ("q", "q2", 2), ("q2", "q", 2)], ["i", "p", "p2", "q", "q2"])
        for mode, got, oracle in both_signs(w):
            assert got == oracle == 2, mode

    def test_potential_improvement_closes_a_better_cycle(self):
        # The first policy takes the heavier self-loop (mean 3); only a
        # type-2 step, among successors of equal mean, finds a-b-a (mean 4).
        w = system([("a", "a", 3), ("a", "b", 2), ("b", "a", 6)])
        assert {mode: got for mode, got, _ in both_signs(w)} == {"max": 4, "min": 3}

    def test_live_initial_state_beside_a_dead_end_one(self):
        edges = [("d", "e", 5), ("a", "b", 1), ("b", "a", 3)]
        w = Wfts(["d", "e", "a", "b"], ["d", "a"],
                 [Transition(s, t, Fraction(wt)) for s, t, wt in edges],
                 FeatureModel([]))
        for mode, got, oracle in both_signs(w):
            assert got == oracle == 2, mode
        dead_only = Wfts(["d", "e", "a", "b"], ["d"], w.transitions, FeatureModel([]))
        assert [got for _, got, _ in both_signs(dead_only)] == [None, None]

    def test_cycle_reached_only_through_a_pruned_chain(self):
        # c1 and c2 lose their dead branches but stay: they lead to the
        # only cycle, c3-c4, of mean 1/2.
        w = system([("i", "c1", 0), ("c1", "x1", 100), ("c1", "c2", 0),
                    ("c2", "x2", -100), ("x2", "x3", 50), ("c2", "c3", 7),
                    ("c3", "c4", 0), ("c4", "c3", 1)],
                   ["i", "c1", "x1", "c2", "x2", "x3", "c3", "c4"])
        for mode, got, oracle in both_signs(w):
            assert got == oracle == Fraction(1, 2), mode


class TestFamilyHoward:
    """The family route, policy iteration over product sets on the live
    graph, against the Karp reference and the per-product oracle."""

    GUARDS = [TRUE, Var("F"), Var("G"), Var("H"), Not(Var("F")),
              And(Var("G"), Not(Var("H"))), Or(Var("F"), Var("H"))]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equals_karp_and_brute_force(self, data):
        from wfts.analysis import _family_values, _per_product

        core = [f"c{i}" for i in range(data.draw(st.integers(1, 5)))]
        dead = [f"d{i}" for i in range(data.draw(st.integers(1, 2)))]
        weights = data.draw(st.sampled_from(
            [st.just(0), st.integers(-1, 1), st.integers(-10**6, 10**6)]
        ))
        divisor = data.draw(st.sampled_from([1, 2, 3, 7]))
        guard = st.sampled_from(self.GUARDS)
        core_state = st.sampled_from(core)
        edges = data.draw(st.lists(st.tuples(core_state, core_state, weights, guard),
                                   min_size=1, max_size=3 * len(core)))
        # A parallel edge of equal weight under another guard (a tie), and
        # a self-loop.
        a, b, wt, _ = edges[0]
        edges.append((a, b, wt, data.draw(guard)))
        loop = data.draw(core_state)
        edges.append((loop, loop, data.draw(weights), data.draw(guard)))
        # A branch of states with no way out hanging off the core.
        for src, tgt in zip([data.draw(core_state)] + dead, dead):
            edges.append((src, tgt, data.draw(weights), data.draw(guard)))
        # Better cycles in both modes, behind states nothing enters.
        top = max([abs(e[2]) for e in edges] + [1]) + 1
        edges += [("z0", "z0", top, TRUE), ("z1", "z1", -top, data.draw(guard)),
                  ("z0", core[0], 0, TRUE), ("z1", data.draw(core_state), 0, TRUE)]
        edges = data.draw(st.permutations(edges))
        initial = data.draw(st.lists(st.sampled_from(core + dead),
                                     min_size=1, max_size=2, unique=True))
        fm = FeatureModel(["F", "G", "H"])
        trans = [Transition(a, b, Fraction(wt, divisor), g) for a, b, wt, g in edges]
        w = Wfts(core + dead + ["z0", "z1"], initial, trans, fm)
        for sign, mode in ((1, "max"), (-1, "min")):
            im = IndexedModel(w, sign)
            with within(10, "family policy iteration"):
                family = _family_values(im)
            assert family == karp_values(im), mode
            values = _per_product(family, len(fm.products))
            for p, value in enumerate(values):
                oracle = brute_force_mean_cycle(*unit_projection(im, 1 << p))[mode]
                assert value == oracle, (mode, sorted(fm.products[p]))

    def test_one_product_ends_while_another_improves_by_potential(self, monkeypatch):
        # Without F, a's self-loop (mean 3) is the only cycle: the first
        # policy is final after round 1.  With F, only a type-2 step, among
        # successors of equal mean, finds a-b-a (mean 4), in a second round.
        import wfts.meancycle as meancycle

        rounds = []
        determine = meancycle._determine

        def recorded(policy, outs, todo):
            active = 0
            for m in todo:
                active |= m
            rounds.append(active)
            return determine(policy, outs, todo)

        monkeypatch.setattr(meancycle, "_determine", recorded)
        fm = FeatureModel(["F"])
        w = Wfts(["a", "b"], ["a"], [Transition("a", "a", 3),
                                      Transition("a", "b", 2, Var("F")),
                                      Transition("b", "a", 6)], fm)
        with within(5, "family policy iteration"):
            report = analyze_family(w, "max")
        assert {o.product: o.value for o in report.outcomes} == {
            frozenset(): 3, frozenset("F"): 4}
        with_f = 1 << fm.product_index({"F"})
        assert rounds == [fm.full_mask, with_f]

    @pytest.mark.parametrize("k", range(1, 9))
    def test_ring_equals_karp_products_and_brute_force(self, k):
        # In max mode no two products of the ring share a value.
        from wfts.analysis import _family_values, _per_product, _product_values

        w = ring(k)
        count = len(w.feature_model.products)
        for sign, mode in ((1, "max"), (-1, "min")):
            im = IndexedModel(w, sign)
            with within(10, "family policy iteration"):
                family = _family_values(im)
            assert family == karp_values(im) == _product_values(im), mode
            assert mode == "min" or len(family) == count
            for p, value in enumerate(_per_product(family, count)):
                oracle = brute_force_mean_cycle(*unit_projection(im, 1 << p))[mode]
                assert value == oracle, (mode, p)

    ROUNDS = [(f"taxi:{k}", taxi(k), [3, 3]) for k in range(1, 8)] + [
        ("minepump", minepump_lite(), [4, 5]), ("grantrequest", grant_request(), [1, 1])
    ] + [(f"ring:{k}", ring(k), [1, 1]) for k in range(1, 10)]

    @pytest.mark.parametrize("label, w, rounds", ROUNDS, ids=[r[0] for r in ROUNDS])
    def test_round_counts(self, monkeypatch, label, w, rounds):
        # One value determination per round, in max then min mode.
        import wfts.meancycle as meancycle
        from wfts.analysis import _family_values

        calls = []
        determine = meancycle._determine

        def counted(*args):
            calls.append(None)
            return determine(*args)

        monkeypatch.setattr(meancycle, "_determine", counted)
        got = []
        for sign in (1, -1):
            calls.clear()
            _family_values(IndexedModel(w, sign))
            got.append(len(calls))
        assert got == rounds

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_each_product_is_a_cold_howard_run_lifted(self, seed):
        # Per product, its cells in the last value determination it is
        # active in are the final means and potentials of a cold _howard
        # run on its own live graph, at every live state, after as many
        # rounds: one iteration, run on sets of products.
        import wfts.meancycle as meancycle

        w = random_wfts(seed, max_states=10, max_features=3)
        determine, evaluate = meancycle._determine, meancycle._evaluate
        determined = []  # (todo, values) of each family round
        evaluated = []  # one entry per cold round

        def recorded(policy, outs, todo):
            values = determine(policy, outs, todo)
            determined.append((todo, values))
            return values

        def counted(*args):
            evaluated.append(None)
            return evaluate(*args)

        for sign, mode in ((1, "max"), (-1, "min")):
            im = IndexedModel(w, sign)
            determined.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(meancycle, "_determine", recorded)
                meancycle.family_means(im)
            for p in range(w.feature_model.full_mask.bit_length()):
                bit = 1 << p
                out = reference_live_out(im, bit)
                active = [values for todo, values in determined if any(m & bit for m in todo)]
                if all(out[s] is None for s in im.series.initial):
                    assert active == [], (mode, p)
                    continue
                evaluated.clear()
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(meancycle, "_evaluate", counted)
                    _, num, den, x = meancycle._howard(out, [None] * len(out))
                cold = [None if arcs is None else (num[u], den[u], x[u])
                        for u, arcs in enumerate(out)]
                lifted = [next((cell for cell, m in here.items() if m & bit), None)
                          for here in active[-1]]
                assert lifted == cold, (mode, p)
                assert len(active) == len(evaluated), (mode, p)

    def test_long_expansion_under_the_default_recursion_limit(self):
        # About 9,000 expanded states: no walk of the analysis recurses.
        from wfts.dsl import parse

        w = parse("features { A }\nstates { s, t }\ninit { s }\n"
                  "trans s -> t weight=4 length=6000\n"
                  "trans t -> s [A] weight=0 length=3000\n"
                  "trans t -> s weight=0\n")
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            with within(30, "a 9,000-state analysis"):
                best = analyze_family(w, "max", witnesses=True)
                least = analyze_family(w, "min")
        finally:
            sys.setrecursionlimit(limit)
        assert [(o.value, o.witness) for o in best.outcomes] == [
            (Fraction(4, 6001), ("s", "t"))] * 2
        assert {o.product: o.value for o in least.outcomes} == {
            frozenset(): Fraction(4, 6001), frozenset("A"): Fraction(1, 2250)}


class TestSeries:
    """The series view, ``IndexedModel.series``, that both value routes
    read: its shape, and its values against the Karp reference and the
    oracle, which read the unit steps."""

    GUARDS = [TRUE, TRUE, Var("F"), Var("G"), Not(Var("F")), And(Var("F"), Var("G"))]
    BIG = ("features { A }\nstates { s, t }\ninit { s }\n"
           "trans s -> t weight=4 length=6000\n"
           "trans t -> s [A] weight=0 length=3000\n"
           "trans t -> s weight=0\n")

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_routes_equal_karp_and_brute_force(self, data):
        from wfts.analysis import _family_values, _per_product, _product_values

        core = [f"c{i}" for i in range(data.draw(st.integers(1, 4)))]
        weights = data.draw(st.sampled_from([st.integers(-1, 1), st.integers(-9, 9)]))
        divisor = data.draw(st.sampled_from([1, 2, 3]))
        core_state = st.sampled_from(core)
        guard = st.sampled_from(self.GUARDS)
        length = st.integers(1, 3)
        states = list(core)
        edges = []  # (source, target, weight, guard, length)

        def chain(src, tgt, inner):
            # Declared states that only this chain enters and leaves, so
            # each is a pass-through state; a later hop's guard may cut
            # the chain partway.
            hops = [src] + [f"p{len(states) + i}" for i in range(inner)] + [tgt]
            states.extend(hops[1:-1])
            for a, b in zip(hops, hops[1:]):
                edges.append((a, b, data.draw(weights), data.draw(guard), data.draw(length)))
            return hops[1:-1]

        inner = []
        for _ in range(data.draw(st.integers(1, 2))):  # at most 38 unit states
            src, tgt = data.draw(core_state), data.draw(core_state)
            inner += chain(src, tgt, data.draw(st.integers(0, 2)))
            if data.draw(st.booleans()):  # a second chain between the same pair
                inner += chain(src, tgt, data.draw(st.integers(0, 2)))
        loop = data.draw(core_state)
        edges.append((loop, loop, data.draw(weights), data.draw(guard), data.draw(length)))
        # Cycles of pass-through states alone, which no other state enters,
        # better than any reachable cycle in each mode.
        top = 10
        for sign, name in ((1, "up"), (-1, "down")):
            a, b = f"{name}0", f"{name}1"
            states += [a, b]
            edges += [(a, b, sign * top, TRUE, data.draw(length)), (b, a, sign * top, TRUE, 1)]
        initial = [data.draw(core_state)]
        if inner and data.draw(st.booleans()):  # an initial pass-through state
            initial.append(data.draw(st.sampled_from(inner)))
        edges = data.draw(st.permutations(edges))
        fm = FeatureModel(["F", "G"])
        trans = [Transition(a, b, Fraction(wt, divisor), g, "tau", k)
                 for a, b, wt, g, k in edges]
        w = Wfts(states, initial, trans, fm)
        for sign, mode in ((1, "max"), (-1, "min")):
            im = IndexedModel(w, sign)
            assert IndexedModel(expand_lengths(w), sign).series == im.series
            with within(2, "the value routes on the series view"):
                family, product = _family_values(im), _product_values(im)
            assert family == product == karp_values(im), mode
            for p, value in enumerate(_per_product(family, len(fm.products))):
                oracle = brute_force_mean_cycle(*unit_projection(im, 1 << p))[mode]
                assert value == oracle, (mode, sorted(fm.products[p]))

    def test_a_cut_chain_is_one_arc_under_its_guards(self):
        # p and b are pass-through states: a -> p -> b -> a is one arc of
        # 6 steps, which F cuts at its second hop, so the products with F
        # only have the self-loop at a.
        fm = FeatureModel(["F"])
        w = Wfts(["a", "p", "b"], ["a"], [
            Transition("a", "a", 1),
            Transition("a", "p", 5, TRUE, "tau", 2),
            Transition("p", "b", 7, Not(Var("F"))),
            Transition("b", "a", 0, TRUE, "tau", 3),
        ], fm)
        im = IndexedModel(w)
        series = im.series
        assert [w.states[u] for u in series.kept] == ["a"]
        assert series.arcs == [(0, 0, 1, 1, fm.full_mask, 1),
                               (0, 0, 12, 6, fm.mask(Not(Var("F"))), 5)]
        with within(2, "both value routes"):
            report = analyze_both(w, "max")
        assert {o.product: o.value for o in report.outcomes} == {
            frozenset(): 2, frozenset("F"): 1}

    @pytest.mark.parametrize("k", range(1, 8))
    def test_taxi_series_is_the_declared_system(self, k):
        w = taxi(k)
        fm = w.feature_model
        for sign in (1, -1):
            im = IndexedModel(w, sign)
            series = im.series
            assert IndexedModel(expand_lengths(w), sign).series == series
            assert [w.states[u] for u in series.kept] == list(w.states)
            declared = [(t.source, t.target, t.length, fm.mask(t.guard),
                         sign * t.weight * im.scale)
                        for t in w.transitions if fm.mask(t.guard)]
            assert [(w.states[u], w.states[v], length, g, wt)
                    for u, v, wt, length, g, first in series.arcs] == declared
            assert all(first == wt for _, _, wt, _, _, first in series.arcs)

    def test_the_9000_state_expansion_is_two_states_and_three_arcs(self):
        from wfts.analysis import _family_values, _product_values
        from wfts.dsl import parse

        w = parse(self.BIG)
        for sign in (1, -1):
            im = IndexedModel(w, sign)
            assert im.n == 9000
            assert len(im.series.kept) == 2 and len(im.series.arcs) == 3
            with within(1, "the family route on 9,000 states"):
                family = _family_values(im)
            with within(1, "the product route on 9,000 states"):
                product = _product_values(im)
            assert family == product


    def test_a_length_of_100000_costs_no_more_than_a_short_one(self):
        # One transition of 100,000 unit steps: no route reads a number of
        # the size of lcm(1..n), and no analysis expands the length.
        from wfts.dsl import parse

        w = parse("features { A }\nstates { s, t }\ninit { s }\n"
                  "trans s -> t weight=4 length=100000\n"
                  "trans t -> s [A] weight=1\n"
                  "trans t -> s weight=0 length=2\n")
        fm = w.feature_model
        expected = {
            "max": {frozenset(): Fraction(4, 100002), frozenset("A"): Fraction(5, 100001)},
            "min": {frozenset(): Fraction(4, 100002), frozenset("A"): Fraction(4, 100002)},
        }
        with within(1, "three analyses with witnesses of a 100,000-step arc, both modes"):
            for mode in ("max", "min"):
                for analyze in (analyze_family, analyze_products, analyze_both):
                    report = analyze(w, mode, witnesses=True)
                    assert {o.product: o.value for o in report.outcomes} == expected[mode]
                    assert {o.witness for o in report.outcomes} == {("s", "t")}
        assert len(fm.products) == 2

    def test_the_9000_state_analysis_never_expands_lengths(self, monkeypatch):
        import wfts.analysis
        import wfts.graphs
        import wfts.meancycle
        import wfts.model
        from wfts.dsl import parse

        calls = []
        expand = wfts.model.expand_lengths

        def counted(w):
            calls.append(w)
            return expand(w)

        for module in (wfts.model, wfts.graphs, wfts.analysis, wfts.meancycle):
            if hasattr(module, "expand_lengths"):
                monkeypatch.setattr(module, "expand_lengths", counted)
        w = parse(self.BIG)
        for mode in ("max", "min"):
            with within(5, "a 9,000-state analysis with witnesses"):
                report = analyze_family(w, mode, witnesses=True)
            assert report.witnesses
        assert calls == []


def live_out(im, bit):
    """Product ``bit``'s out-lists, read off the index's live view."""
    return unmasked(im.live.out(bit))


def named(im, out):
    """The listed states of out-lists as ``{state: [target, ...]}`` over
    the declared names."""
    name = [im.system.states[u] for u in im.series.kept]
    return {name[u]: [name[arc[0]] for arc in arcs]
            for u, arcs in enumerate(out) if arcs is not None}


class TestLiveOut:
    """Each product's live graph, read off the index's one live view
    (``IndexedModel.live``): the out-lists of the states a product reaches
    from an initial state and has an infinite run from, as a plain reach
    and peel per product finds them (``reference_live_out``)."""

    @staticmethod
    def bits(w):
        return [1 << p for p in range(w.feature_model.full_mask.bit_length())]

    def assert_every_product(self, w):
        for sign in (1, -1):
            im = IndexedModel(w, sign)
            live = im.live
            # A product's live states are the sources of the arcs it keeps.
            assert live.masks == [reduce(or_, (a[0] for a in arcs), 0) for arcs in live.arcs], sign
            for bit in self.bits(w):
                assert live_out(im, bit) == unmasked(reference_live_out(im, bit)), (sign, bit)

    MODELS = [(f"taxi:{k}", taxi(k)) for k in range(1, 6)] + [
        ("minepump", minepump_lite()), ("grantrequest", grant_request())] + [
        (f"ring:{k}", ring(k)) for k in range(1, 7)] + [
        (f"wide:{i}", random_wfts(f"wide:{i}", 16, 10)) for i in (23, 27)]

    @pytest.mark.parametrize("label, w", MODELS, ids=[m[0] for m in MODELS])
    def test_every_product_equals_a_plain_reach_and_peel(self, label, w):
        self.assert_every_product(w)

    def test_a_random_corpus(self):
        with within(5, "the live graphs of 100 random systems"):
            for w in random_corpus(11, 100):
                self.assert_every_product(w)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_random_systems(self, seed):
        w = random_wfts(seed, 12, 6)
        with within(2, "the live graphs of one random system"):
            self.assert_every_product(w)

    def test_a_dead_end_reached_from_the_initial_state(self):
        w = system([("i", "i", 1), ("i", "d", 5)], ["i", "d"])
        im = IndexedModel(w)
        assert named(im, live_out(im, 1)) == {"i": ["i"]}

    def test_a_dead_end_behind_a_cycle(self):
        # x and y lead only to the dead end z: both go, and a-b-a stays.
        w = system([("i", "a", 0), ("a", "x", 0), ("a", "b", 1), ("b", "a", 1),
                    ("b", "b", 0), ("x", "y", 0), ("x", "y", 1), ("y", "z", 0),
                    ("y", "z", 1)], ["i", "a", "b", "x", "y", "z"])
        im = IndexedModel(w)
        assert len(im.series.kept) == 6
        assert named(im, live_out(im, 1)) == {"i": ["a"], "a": ["b"], "b": ["a", "b"]}

    def test_parallel_arcs_into_a_dead_end_count_twice(self):
        # a has three out-arcs, two of them into the dead end d: losing d
        # leaves a its arc to c, whose self-loop keeps it.
        w = system([("a", "d", 1), ("a", "d", 2), ("a", "c", 0), ("c", "c", 3)],
                   ["a", "d", "c"])
        im = IndexedModel(w)
        assert named(im, live_out(im, 1)) == {"a": ["c"], "c": ["c"]}
        assert route_mean(im, 1) == 3

    def test_a_product_with_no_live_initial_state(self, monkeypatch):
        # Without F, i's only way on is to the dead end d: no Howard run.
        import wfts.meancycle as meancycle

        w = Wfts(["i", "d"], ["i"], [
            Transition("i", "i", 1, Var("F")), Transition("i", "d", 0)],
            FeatureModel(["F"]))
        im = IndexedModel(w)
        without = 1 << w.feature_model.product_index(set())
        assert live_out(im, without) == [None, None]
        runs = []
        howard = meancycle._howard
        monkeypatch.setattr(meancycle, "_howard", lambda *a: runs.append(None) or howard(*a))
        assert product_keys(im, [without]) == [None]
        assert runs == []
        assert named(im, live_out(im, 3 ^ without)) == {"i": ["i"]}

    def test_a_repeated_initial_state(self):
        # b is initial and also reached from a.
        w = Wfts(["a", "b"], ["a", "b"], [
            Transition("a", "b", 1), Transition("b", "a", 2), Transition("b", "b", 0)],
            FeatureModel([]))
        im = IndexedModel(w)
        assert named(im, live_out(im, 1)) == {"a": ["b"], "b": ["a", "b"]}
        assert live_out(im, 1) == unmasked(reference_live_out(im, 1))

    def test_no_dead_end_returns_the_reached_lists(self):
        # Every reached state has an out-arc, so nothing is peeled; z,
        # which nothing reaches, is still unlisted.
        w = Wfts(["a", "b", "z"], ["a"], [
            Transition("a", "b", 1), Transition("b", "a", 2), Transition("a", "a", 0),
            Transition("b", "b", 0), Transition("z", "a", 9)], FeatureModel([]))
        im = IndexedModel(w)
        assert named(im, live_out(im, 1)) == {"a": ["b", "a"], "b": ["a", "b"]}
        for k in (1, 3, 5):
            g = taxi(k)
            im = IndexedModel(g)
            full = g.feature_model.full_mask
            reached = spread([(s, full) for s in im.series.initial], [0] * len(im.series.kept),
                             im.series.out)
            assert im.live.masks == reached, k


class TestWarmStart:
    """The product route's warm start, ``product_keys``: each product's
    Howard run starts from the arcs earlier products' runs improved to,
    where they are live for it, and ends at the same values as a cold
    run."""

    # Products are given by their bit, so each test picks the order in
    # which the policies are carried.
    @staticmethod
    def bit(w, *features):
        return 1 << w.feature_model.product_index(set(features))

    @staticmethod
    def rounds(monkeypatch):
        """One entry per round of a ``_howard`` run from now on: its value
        determinations, and not ``_certify``'s."""
        import wfts.meancycle as meancycle

        calls = []
        evaluate = meancycle._evaluate

        def counted(*args):
            if sys._getframe(1).f_code is meancycle._howard.__code__:
                calls.append(None)
            return evaluate(*args)

        monkeypatch.setattr(meancycle, "_evaluate", counted)
        return calls

    def test_a_remembered_arc_disabled_by_its_guard(self):
        # With F, a takes a -F-> b for a-b-a (mean 5); without F that arc
        # is gone, and a-b-a by the other arc (mean -5) loses to a-a (1).
        w = Wfts(["a", "b"], ["a"], [
            Transition("a", "a", 1),
            Transition("a", "b", 0, Var("F")),
            Transition("a", "b", -20),
            Transition("b", "a", 10),
        ], FeatureModel(["F"]))
        im = IndexedModel(w)
        bits = [self.bit(w, "F"), self.bit(w)]
        with within(2, "the warm product route"):
            keys = product_keys(im, bits)
        assert keys == [(5, 1), (1, 1)]
        assert keys == [cold_key(im, bit) for bit in bits]

    def test_a_remembered_arc_into_a_peeled_state(self):
        # With F, a leaves its own loop for b's heavier one; without F, b
        # has no way out and is peeled, though a -> b is still enabled.
        w = Wfts(["a", "b"], ["a"], [
            Transition("a", "a", 1),
            Transition("a", "b", 0),
            Transition("b", "b", 9, Var("F")),
        ], FeatureModel(["F"]))
        im = IndexedModel(w)
        bits = [self.bit(w, "F"), self.bit(w)]
        with within(2, "the warm product route"):
            keys = product_keys(im, bits)
        assert keys == [(9, 1), (1, 1)]
        assert keys == [cold_key(im, bit) for bit in bits]

    def test_a_suboptimal_warm_policy_takes_both_step_types(self, monkeypatch):
        # {F} moves i from a (its heavier first hop) to x, for x's F-loop
        # (mean 100).  Under {G}, i starts on x, now worth 0, and moves
        # back to a by mean (type 1); a starts on its self-loop (3) and
        # finds a-b-a (4) only by potential (type 2), one round later.  A
        # cold start would skip the first of those rounds.
        w = Wfts(["i", "x", "a", "b"], ["i"], [
            Transition("i", "x", 0),
            Transition("x", "x", 100, Var("F")),
            Transition("x", "x", 0),
            Transition("i", "a", 1),
            Transition("a", "a", 3),
            Transition("a", "b", 2, Var("G")),
            Transition("b", "a", 6),
        ], FeatureModel(["F", "G"]))
        im = IndexedModel(w)
        bits = [self.bit(w, "F"), self.bit(w, "G")]
        calls = self.rounds(monkeypatch)
        with within(2, "the warm product route"):
            product_keys(im, bits[:1])
            first = len(calls)
            calls.clear()
            keys = product_keys(im, bits)
            warm = len(calls) - first
            calls.clear()
            assert cold_key(im, bits[1]) == keys[1]
        assert keys == [(100, 1), (4, 1)]
        assert (warm, len(calls)) == (3, 2)

    def test_each_call_starts_cold(self, monkeypatch):
        # Max mode improves a from p (its heaviest first hop, into a loop
        # of -100) to q (a loop of 100), the worst start for min mode,
        # whose own first choice, r (a loop of -200), is already optimal.
        w = Wfts(["a", "p", "q", "r"], ["a"], [
            Transition("a", "p", 5), Transition("p", "p", -100),
            Transition("a", "q", 0), Transition("q", "q", 100),
            Transition("a", "r", -5), Transition("r", "r", -200),
        ], FeatureModel(["F"]))
        bits = [self.bit(w), self.bit(w, "F")]
        most, least = IndexedModel(w), IndexedModel(w, -1)
        # The two products share one live graph: the first runs, and the
        # second is certified from its values.  A policy or a certificate
        # carried over from max mode would take min mode's run a second
        # round, or none.
        calls = self.rounds(monkeypatch)
        assert product_keys(least, bits) == [(200, 1)] * 2
        alone = len(calls)
        assert product_keys(most, bits) == [(100, 1)] * 2
        calls.clear()
        assert product_keys(least, bits) == [(200, 1)] * 2
        assert len(calls) == alone == 1

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6), data=st.data())
    def test_any_order_equals_cold_runs_and_karp(self, seed, data):
        from wfts.analysis import _merge

        w = random_wfts(seed, max_features=8)
        count = w.feature_model.full_mask.bit_length()
        assume(len(w.feature_model.features) >= 4)
        bits = data.draw(st.permutations([1 << p for p in range(count)]))
        for sign, mode in ((1, "max"), (-1, "min")):
            im = IndexedModel(w, sign)
            with within(2, "the warm and cold product routes"):
                warm = product_keys(im, bits)
                assert warm == [cold_key(im, bit) for bit in bits], mode
            assert _merge(im, zip(bits, warm)) == karp_values(im), mode

    # (label, system, max-mode value determinations cold and warm, and
    # min-mode ones when pinned), in one process: max mode runs first.
    # Every taxi and ring product is a live graph of its own; the wide
    # draws' warm route has one block per distinct live graph.  The warm
    # route runs Howard only on the blocks that the last block's values do
    # not certify (TestCarriedCertificate): 19, 22 and 25 of taxi:5..7's
    # 128, 256 and 512.
    COUNTS = [(f"taxi:{k}", taxi(k), [(c, h)]) for k, c, h in
              ((5, 289, 39), (6, 577, 45), (7, 1153, 51))] + [
        ("wide:23", random_wfts("wide:23", 16, 10), [(114, 26), (108, 4)]),
        ("wide:27", random_wfts("wide:27", 16, 10), [(126, 25), (188, 19)]),
        # Every product's first choices are optimal: nothing is carried.
        # No block is certified either: each product after the first
        # loses a policy arc or gains a better arc.
        ("ring:8", ring(8), [(256, 256), (256, 256)]),
    ]

    @pytest.mark.parametrize("label, w, counts", COUNTS, ids=[c[0] for c in COUNTS])
    def test_round_counts(self, monkeypatch, label, w, counts):
        # One value determination per round of each run, summed over the
        # runs: cold runs product by product, then the warm route, one run
        # per distinct live graph.
        from wfts.analysis import _product_values

        calls = self.rounds(monkeypatch)
        bits = [1 << p for p in range(w.feature_model.full_mask.bit_length())]
        got = []
        for sign, _ in zip((1, -1), counts):
            im = IndexedModel(w, sign)
            calls.clear()
            for bit in bits:
                cold_key(im, bit)
            cold = len(calls)
            calls.clear()
            _product_values(im)
            got.append((cold, len(calls)))
        assert got == counts


def series_blocks(im):
    """The product masks that ``_product_values`` runs the route on."""
    import wfts.analysis as analysis

    masks = []
    keys = analysis.product_keys

    def recorded(im, blocks):
        masks.extend(blocks)
        return keys(im, blocks)

    analysis.product_keys = recorded
    try:
        analysis._product_values(im)
    finally:
        analysis.product_keys = keys
    return masks


def reference_live_blocks(im):
    """The products grouped one by one by their live graph
    (``reference_live_out``), in order of lowest product; a product with
    no live initial state, whose graph lists no state, is in no block."""
    groups = {}
    for p in range(im.feature_model.full_mask.bit_length()):
        out = unmasked(reference_live_out(im, 1 << p))
        if any(arcs is not None for arcs in out):
            key = tuple(arcs if arcs is None else tuple(arcs) for arcs in out)
            groups[key] = groups.get(key, 0) | 1 << p
    return list(groups.values())


def howard_runs(monkeypatch) -> list:
    """The out-lists of every ``_howard`` run from now on."""
    import wfts.meancycle as meancycle

    runs = []
    howard = meancycle._howard
    monkeypatch.setattr(meancycle, "_howard", lambda out, start: runs.append(out)
                        or howard(out, start))
    return runs


class TestSeriesBlocks:
    """The product route runs once per live block: the products with a
    live initial state that keep the same arcs of the index's live view,
    and so share one live graph and one value.  Every other product is
    undefined."""

    @staticmethod
    def assert_blocks_and_values(w):
        from wfts.analysis import _product_values

        for sign in (1, -1):
            im = IndexedModel(w, sign)
            assert series_blocks(im) == reference_live_blocks(im), sign
            assert _product_values(im) == cold_values(im), sign

    def test_the_corpus(self):
        with within(10, "the live blocks of 300 random systems"):
            for w in random_corpus(0, 300):
                self.assert_blocks_and_values(w)

    def test_the_wide_draws(self):
        with within(5, "the live blocks of 40 wide draws"):
            for i in range(40):
                im = IndexedModel(random_wfts(f"wide:{i}", 16, 10))
                assert series_blocks(im) == reference_live_blocks(im), i

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_random_systems(self, seed):
        w = random_wfts(f"blocks:{seed}", max_states=16, max_features=10)
        with within(2, "the live blocks and values of one random system"):
            self.assert_blocks_and_values(w)

    def test_a_chain_folds_two_edge_blocks_into_one(self, monkeypatch):
        # p passes u -G1-> p -G2-> v through: the series arc u -> v is
        # guarded by G1 and G2, so {G1} and {} keep the same live arcs,
        # though not the same edges, and share one run.
        from wfts.analysis import _product_values
        from wfts.checks import product_blocks

        w = Wfts(["u", "p", "v"], ["u"], [
            Transition("u", "u", 1),
            Transition("u", "p", 0, Var("G1")),
            Transition("p", "v", 0, Var("G2")),
            Transition("v", "v", 5),
        ], FeatureModel(["G1", "G2"]))
        im = IndexedModel(w)
        assert len(im.series.kept) == 2
        bit = {p: 1 << w.feature_model.product_index(p)
               for p in ((), ("G1",), ("G2",), ("G1", "G2"))}
        both = bit["G1", "G2"]
        rest = bit[()] | bit["G1",] | bit["G2",]
        assert series_blocks(im) == sorted([rest, both], key=lambda m: m & -m)
        assert sorted(product_blocks(im)) == sorted(bit.values())
        runs = howard_runs(monkeypatch)
        assert _product_values(im) == sorted(
            [(rest, Fraction(1)), (both, Fraction(5))], key=lambda c: c[0] & -c[0])
        assert len(runs) == 2

    def test_one_live_graph_per_block(self, monkeypatch):
        # A block runs Howard only where the last block's values do not
        # certify it, and each run is on its own block's live graph.
        from wfts.analysis import _product_values

        w = random_wfts("wide:23", 16, 10)
        runs, passed = howard_runs(monkeypatch), certified_blocks(monkeypatch)
        for sign in (1, -1):
            im = IndexedModel(w, sign)
            runs.clear()
            passed.clear()
            _product_values(im)
            blocks = reference_live_blocks(im)
            graphs = iter([unmasked(reference_live_out(im, block & -block)) for block in blocks])
            assert all(out in graphs for out in map(unmasked, runs))
            assert len(runs) + len(passed) == len(blocks) < w.feature_model.full_mask.bit_length()
            assert runs and passed

    def test_dead_blocks_run_no_howard(self, monkeypatch):
        # Every run lists a live initial state, and a product without one
        # stays undefined.
        from wfts.analysis import _per_product, _product_values

        runs = howard_runs(monkeypatch)
        dead = 0
        for w in random_corpus(0, 100) + [random_wfts(f"wide:{i}", 16, 10) for i in range(8)]:
            for sign in (1, -1):
                im = IndexedModel(w, sign)
                runs.clear()
                values = _per_product(_product_values(im), w.feature_model.full_mask.bit_length())
                assert all(any(out[s] is not None for s in im.series.initial) for out in runs)
                for p, value in enumerate(values):
                    if all(arcs is None for arcs in reference_live_out(im, 1 << p)):
                        assert value is None
                        dead += 1
        assert dead

    def test_two_hundred_runs_per_wide_pass(self, monkeypatch):
        # The benchmark's wide inputs, seed 0: the first 16 draws with at
        # least six features whose expansion has at most 48 states, in min
        # mode.  589 series blocks, 160 of them without a live initial
        # state, hold 200 distinct live graphs, and so 200 blocks with a
        # key: 123 Howard runs, and 77 blocks certified from the last
        # block's values.
        picked, i = [], 0
        while len(picked) < 16:
            w = random_wfts(f"wide:{i}", max_states=16, max_features=10)
            i += 1
            if len(w.feature_model.features) >= 6 and len(expand_lengths(w).states) <= 48:
                picked.append(expand_lengths(w))
        assert sum(len(series_blocks(IndexedModel(w, -1))) for w in picked) == 200
        runs, passed = howard_runs(monkeypatch), certified_blocks(monkeypatch)
        for w in picked:
            analyze_products(w, "min")
        assert (len(runs), len(passed)) == (123, 77)


def certified_blocks(monkeypatch) -> list:
    """The lowest product of every block that ``product_keys`` certifies
    from the last block's values, without a run, from now on."""
    import wfts.meancycle as meancycle

    passed = []
    certify = meancycle._certify

    def recorded(live, bit, *rest):
        ok = certify(live, bit, *rest)
        if ok:
            passed.append(bit)
        return ok

    monkeypatch.setattr(meancycle, "_certify", recorded)
    return passed


class TestCarriedCertificate:
    """``product_keys`` certifies a block from the last block's final
    policy, means and potentials, and runs Howard only where that
    certificate fails.  Each system is one path of the check: the products
    come in the given order, the first one runs, and the second is either
    certified or run."""

    @staticmethod
    def keys_and_runs(monkeypatch, w, first, then):
        """The keys of products ``first`` then ``then`` (feature sets),
        checked against cold runs, and the number of ``_howard`` runs."""
        im = IndexedModel(w)
        bits = [1 << w.feature_model.product_index(set(p)) for p in (first, then)]
        runs = howard_runs(monkeypatch)
        keys = product_keys(im, bits)
        assert keys == [cold_key(im, bit) for bit in bits]
        return keys, len(runs)

    def test_a_policy_arc_the_block_does_not_keep(self, monkeypatch):
        # {F} ends on a's F-loop (5); {} keeps only the loop of 1, and no
        # arc is gained, so only the lost policy arc fails the check.
        w = Wfts(["a"], ["a"], [
            Transition("a", "a", 5, Var("F")), Transition("a", "a", 1),
        ], FeatureModel(["F"]))
        assert self.keys_and_runs(monkeypatch, w, ["F"], []) == ([(5, 1), (1, 1)], 2)

    def test_a_gained_arc_of_a_carried_state_improves_by_mean(self, monkeypatch):
        # Under {}, b's best is its own loop (0) and a's is 1; {F} gains
        # b -> a, of better mean, which closes a-b-a (5).
        w = Wfts(["a", "b"], ["a"], [
            Transition("a", "a", 1), Transition("a", "b", 0), Transition("b", "b", 0),
            Transition("b", "a", 10, Var("F")),
        ], FeatureModel(["F"]))
        assert self.keys_and_runs(monkeypatch, w, [], ["F"]) == ([(1, 1), (5, 1)], 2)

    def test_an_arc_of_a_newly_live_state_improves_by_mean(self, monkeypatch):
        # {F} makes b live.  b starts on b -> z, its heavier first hop,
        # into z's loop (0), which a's arc into b does not beat (1); b's
        # other arc, the chain b -> m -> a, leads to a's better mean and
        # closes a-b-m-a (20/3).
        w = Wfts(["a", "b", "m", "z"], ["a"], [
            Transition("a", "a", 1), Transition("a", "z", -100), Transition("z", "z", 0),
            Transition("a", "b", 0, Var("F")), Transition("b", "z", 5),
            Transition("b", "m", 0), Transition("m", "a", 20),
        ], FeatureModel(["F"]))
        assert self.keys_and_runs(monkeypatch, w, [], ["F"]) == ([(1, 1), (20, 3)], 2)

    def test_a_gained_arc_improves_only_by_potential(self, monkeypatch):
        # {G} gains a -> b, and b (newly live) is valued through a's loop
        # at a's mean (3): a -> b has equal mean, better potential, and
        # leads to a-b-a (4).
        w = Wfts(["a", "b"], ["a"], [
            Transition("a", "a", 3), Transition("a", "b", 2, Var("G")), Transition("b", "a", 6),
        ], FeatureModel(["G"]))
        assert self.keys_and_runs(monkeypatch, w, [], ["G"]) == ([(3, 1), (4, 1)], 2)

    def test_a_newly_live_state_valued_through_carried_ones(self, monkeypatch):
        # {F} makes b live, on its one arc back into a's loop (5): a -> b
        # improves on nothing, and the key is read off the carried values.
        w = Wfts(["a", "b"], ["a"], [
            Transition("a", "a", 5), Transition("a", "b", 0, Var("F")), Transition("b", "a", 0),
        ], FeatureModel(["F"]))
        passed = certified_blocks(monkeypatch)
        assert self.keys_and_runs(monkeypatch, w, [], ["F"]) == ([(5, 1), (5, 1)], 1)
        assert len(passed) == 1

    def test_newly_live_states_that_close_a_cycle(self, monkeypatch):
        # {F} makes b and c live, and their only arcs close b-c-b (4),
        # which no carried value holds: Howard runs.
        w = Wfts(["a", "b", "c"], ["a"], [
            Transition("a", "a", 1), Transition("a", "b", 0, Var("F")),
            Transition("b", "c", 0), Transition("c", "b", 8),
        ], FeatureModel(["F"]))
        passed = certified_blocks(monkeypatch)
        assert self.keys_and_runs(monkeypatch, w, [], ["F"]) == ([(1, 1), (4, 1)], 2)
        assert passed == []

    # (k, Howard runs, certified blocks) of _product_values on taxi:k in
    # max mode, the benchmark's taxi pass: every product is a block of its
    # own.
    COUNTS = [(5, 19, 109), (6, 22, 234), (7, 25, 487)]

    @pytest.mark.parametrize("k, runs, certified", COUNTS, ids=[f"taxi:{c[0]}" for c in COUNTS])
    def test_runs_and_certified_blocks(self, monkeypatch, k, runs, certified):
        from wfts.analysis import _product_values

        w = taxi(k)
        ran, passed = howard_runs(monkeypatch), certified_blocks(monkeypatch)
        _product_values(IndexedModel(w))
        assert (len(ran), len(passed)) == (runs, certified)
        assert runs + certified == w.feature_model.full_mask.bit_length()


class TestBruteForce:
    def test_dag_has_no_cycle(self):
        assert brute_force_mean_cycle(*graph([("a", "b", 1), ("b", "c", 1)])) == {
            "max": None, "min": None
        }

    def test_size_guard(self):
        edges = [(f"s{i}", f"s{i+1}", 1) for i in range(60)]
        with pytest.raises(ValueError):
            brute_force_mean_cycle(*graph(edges))

    def test_simple_cycles_found(self):
        g = graph([("a", "b", 3), ("b", "a", 1), ("b", "b", -4)])
        assert brute_force_mean_cycle(*g) == {"max": 2, "min": -4}

    def test_grant_request_min_of_product_g(self, grantreq):
        bit = 1 << grantreq.feature_model.product_index({"G"})
        # The oracle reads the model's own weights, whatever the index's sign.
        g = unit_projection(IndexedModel(grantreq, -1), bit)
        assert brute_force_mean_cycle(*g)["min"] == -1

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_karp_equals_enumeration_on_random_sccs(self, seed):
        import random

        rng = random.Random(f"karp:{seed}")
        n = rng.randint(1, 7)
        states = [f"s{i}" for i in range(n)]

        def weight():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

        # ring to force strong connectivity, plus random chords
        edges = [(states[i], states[(i + 1) % n], weight()) for i in range(n)]
        for _ in range(rng.randint(0, 2 * n)):
            edges.append((rng.choice(states), rng.choice(states), weight()))
        w = system(edges, states)
        oracle = brute_force_mean_cycle(*graph(edges, states))
        for mode in ("max", "min"):
            assert product_mean(w, mode) == oracle[mode]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_the_fraction_reference(self, data):
        """The int enumeration scales by its own edges' lcm, so it is drawn
        fractional weights; with integer weights that scale is 1."""
        n = data.draw(st.integers(1, 7))
        state = st.integers(0, n - 1)
        weight = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
        length = st.integers(1, 4)
        edges = data.draw(st.lists(st.tuples(state, state, weight, length), max_size=14))
        if data.draw(st.booleans()):  # a DAG: every edge climbs, no cycle
            edges = [(min(u, v), max(u, v), w, ln) for u, v, w, ln in edges if u != v]
        assert brute_force_mean_cycle(n, edges) == reference_mean_cycle(n, edges)


def test_mode_validation():
    with pytest.raises(ValueError):
        analyze_products(system([("a", "a", 1)]), "avg")


class TestPartitionDiscipline:
    """The refinement helpers must produce partitions of their context with
    pointwise-best values."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_paint(self, data):
        from wfts.meancycle import _paint

        context = data.draw(st.integers(1, 0xFFFF))
        n_cands = data.draw(st.integers(0, 6))
        candidates = {}
        for _ in range(n_cands):
            val = data.draw(st.integers(-20, 20))
            region = data.draw(st.integers(0, 0xFFFF)) & context
            if val in candidates:
                candidates[val] |= region
            else:
                candidates[val] = region
        cells = _paint(candidates, context)
        union = 0
        for mask, _ in cells:
            assert mask, "empty cell"
            assert union & mask == 0, "overlapping cells"
            union |= mask
        assert union == context, "cells must cover the context"
        values = [v for _, v in cells]
        assert len(set(values)) == len(values), "equal-valued cells must merge"
        for bit_i in range(16):
            bit = 1 << bit_i
            if not context & bit:
                continue
            best = max(
                (v for v, region in candidates.items() if region & bit),
                default=None,
            )
            got = next(v for mask, v in cells if mask & bit)
            assert got == best

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_fold_ratios(self, data):
        # Ratios of steps 1..9 are folded as the routes' cycle means are
        # merged: reduced (num, den) pairs over the weights' scale, ranked
        # as ints over the lcm of the dens met, one class per value.
        from math import gcd
        from types import SimpleNamespace

        from wfts.analysis import _merge

        scale = data.draw(st.integers(1, 6))
        context = data.draw(st.integers(1, 0xFFFF))
        sign = data.draw(st.sampled_from([1, -1]))
        im = SimpleNamespace(sign=sign, scale=scale,
                             feature_model=SimpleNamespace(full_mask=context))
        cells = []
        for _ in range(data.draw(st.integers(0, 6))):
            num = data.draw(st.integers(-15, 15))
            den = data.draw(st.integers(1, 9))
            g = gcd(num, den)
            region = data.draw(st.integers(0, 0xFFFF)) & context
            cells.append((region, (num // g, den // g)))
        cells.append((data.draw(st.integers(0, 0xFFFF)) & context, None))
        classes = _merge(im, cells)
        union = 0
        for mask, _ in classes:
            assert mask and union & mask == 0
            union |= mask
        assert union == context
        values = [v for _, v in classes]
        assert len(set(values)) == len(values), "equal values must share a class"
        for bit_i in range(16):
            bit = 1 << bit_i
            if not context & bit:
                continue
            covering = [Fraction(num, den * scale) for region, pair in cells
                        if pair is not None and region & bit for num, den in [pair]]
            got = next(v for mask, v in classes if mask & bit)
            if not covering:
                assert got is None
            else:
                assert got == sign * max(covering)


class TestCommonDenominator:
    """Every cycle mean of an analysis is a reduced ``(num, den)`` pair
    over the index's scaled weights, with den at most the unit states'
    count, and the merge ranks the pairs as ints over one common
    denominator: the lcm of the dens it meets, times the scale."""

    @pytest.mark.parametrize("mode", ["max", "min"])
    def test_every_class_value_is_an_int_over_the_denominator(self, mode):
        from math import gcd, lcm

        from wfts.analysis import _family_values, _product_values
        from wfts.meancycle import family_means

        for w in random_corpus(0, 300):
            im = IndexedModel(w, 1 if mode == "max" else -1)
            pairs = [pair for _, pair in family_means(im)]
            pairs += product_keys(im, [1 << p for p in range(len(w.feature_model.products))])
            pairs = [pair for pair in pairs if pair is not None]
            assert all(gcd(num, den) == 1 and 0 < den <= im.n for num, den in pairs)
            denominator = lcm(*(den for _, den in pairs)) * im.scale
            family, product = _family_values(im), _product_values(im)
            assert family == product
            for _, value in family:
                assert value is None or (value * denominator).denominator == 1

    @pytest.mark.parametrize("k", range(3, 14))
    def test_farey_neighbours(self, k):
        # Two cycles through s0, of k and k - 1 steps, at c per step but
        # one step 1 lower: their means c - 1/k and c - 1/(k - 1) are
        # Farey neighbours over the scale 3, 1/(k(k - 1)) apart.
        c = Fraction(2, 3)
        fm = FeatureModel(["F", "G"])
        trans = [
            Transition("s0", "a", c - 1, Var("F")),
            Transition("a", "s0", c * (k - 1), TRUE, "tau", k - 1),
            Transition("s0", "b", c - 1, Var("G")),
            Transition("b", "s0", c * (k - 2), TRUE, "tau", k - 2),
        ]
        w = Wfts(["s0", "a", "b"], ["s0"], trans, fm)
        long, short = c - Fraction(1, k), c - Fraction(1, k - 1)
        assert long - short == Fraction(1, k * (k - 1))
        expected = {
            "max": {frozenset(): None, frozenset("F"): long, frozenset("G"): short,
                    frozenset("FG"): long},
            "min": {frozenset(): None, frozenset("F"): long, frozenset("G"): short,
                    frozenset("FG"): short},
        }
        for sign, mode in ((1, "max"), (-1, "min")):
            family, product = analyze_family(w, mode), analyze_products(w, mode)
            im = IndexedModel(w, sign)
            for outcome in family.outcomes:
                bit = 1 << fm.product_index(outcome.product)
                oracle = brute_force_mean_cycle(*unit_projection(im, bit))[mode]
                assert outcome.value == product.value_of(outcome.product) == oracle
                assert outcome.value == expected[mode][outcome.product]


def scaled(w, k):
    """``w`` with every weight and every length multiplied by ``k``."""
    trans = [Transition(t.source, t.target, k * t.weight, t.guard, t.action, k * t.length)
             for t in w.transitions]
    return Wfts(w.states, w.initial, trans, w.feature_model)


class TestAffineScaling:
    """Multiplying every weight and every length by one k changes no cycle
    mean, Σkw / Σkℓ, so every class mask and value stays, in both routes.
    The models lie past the oracle's reach: its enumeration cannot check
    them, and this relation holds without it."""

    MODELS = [(f"taxi:{k}", [taxi(k)]) for k in (9, 10, 11)] + [
        (f"ring:{k}", [ring(k)]) for k in (8, 9, 10)] + [
        ("wide", [random_wfts(f"wide:{i}", 16, 10) for i in range(40)])]

    @pytest.mark.parametrize("label, models", MODELS, ids=[m[0] for m in MODELS])
    def test_classes_are_unchanged(self, label, models):
        from wfts.analysis import _family_values, _product_values

        for i, w in enumerate(models):
            for sign in (1, -1):
                im = IndexedModel(w, sign)
                base = _family_values(im)
                assert _product_values(im) == base, (label, i, sign)
                for k in range(2, 6):
                    im = IndexedModel(scaled(w, k), sign)
                    assert _family_values(im) == base, (label, i, sign, k, "family")
                    assert _product_values(im) == base, (label, i, sign, k, "product")


class TestWalkTableFidelity:
    """Per product, the Karp reference's partitioned walk-weight table must
    match a classic per-product Karp table on the same component, cell for
    cell: a head's row directly, a contracted state's row as its head's row
    ``depth`` steps earlier plus the chain's weight offset."""

    def classic_rows(self, edges, n_states, s0, n):
        rows = [[None] * n_states for _ in range(n + 1)]
        rows[0][s0] = 0
        for k in range(1, n + 1):
            cur, prev = rows[k], rows[k - 1]
            for u, v, w in edges:
                d = prev[u]
                if d is not None and (cur[v] is None or d + w > cur[v]):
                    cur[v] = d + w
        return rows

    def assert_matches_classic(self, w, label):
        from karp_reference import _contract, _walk_tables
        from paper_reference import build_finishing_tree, symbolic_sccs, unit_order

        im = IndexedModel(w)
        for scc in symbolic_sccs(build_finishing_tree(unit_order(im)), im):
            masks = scc.masks
            members = [v for v in range(im.n) if masks[v]]
            n = len(members)
            s0 = scc.anchor
            trans = []
            for u, v, wt, _, g, _ in im.arcs:
                em = g & masks[u] & masks[v]
                if em:
                    trans.append((u, v, wt, em))
            if not trans:
                continue
            heads, chains, hops = _contract(masks, s0, trans)
            assert s0 in heads and not set(heads) & set(chains)
            rows = _walk_tables(masks, heads, s0, hops, n)

            def cell(k, v, bit):
                return next(val for mask, val in rows[k][v] if mask & bit)

            for p_idx in range(len(im.feature_model.products)):
                bit = 1 << p_idx
                if not masks[s0] & bit:
                    continue
                edges_p = [(u, v, wt) for u, v, wt, em in trans if em & bit]
                classic = self.classic_rows(edges_p, im.n, s0, n)
                for k in range(n + 1):
                    for v in members:
                        if not masks[v] & bit:
                            continue
                        if v in heads:
                            expected = cell(k, v, bit)
                        elif v in chains:
                            h, d, off, m = chains[v]
                            earlier = cell(k - d, h, bit) if k >= d and m & bit else None
                            expected = None if earlier is None else earlier + off
                        else:  # on a cycle no head enters: never reached
                            expected = None
                        assert classic[k][v] == expected, (
                            f"{label}: k={k} v={w.states[v]} product {p_idx}"
                        )

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_against_classic_tables(self, seed):
        from wfts.randgen import random_wfts

        w = expand_lengths(random_wfts(f"walks:{seed}", max_states=6))
        self.assert_matches_classic(w, f"seed {seed}")

    def test_taxi_chains_against_classic_tables(self):
        from wfts.generators import taxi

        self.assert_matches_classic(expand_lengths(taxi(2)), "taxi:2")


class TestShiftedHorizons:
    """In the Karp reference, a contracted state's Karp term is its head's
    term at horizon n - d; reading the heads at horizon n alone loses these
    cycles.  The family route, the product route and the oracle must give
    the same values."""

    @pytest.mark.parametrize(
        "transitions, best, least",
        [
            # Two 2-step loops through one state: n = 3, yet every cycle
            # has even length, so D[3] of the anchor is undefined.
            (["s0 -> s0 weight=8 length=2", "s0 -> s0 weight=6 length=2"],
             Fraction(4), Fraction(3)),
            # A pure cycle whose anchor has a single in-edge.
            (["s0 -> s0 weight=5 length=3"], Fraction(5, 3), Fraction(5, 3)),
        ],
    )
    def test_family_product_and_brute_force_agree(self, transitions, best, least):
        from karp_reference import karp_values
        from wfts.analysis import analyze_family
        from wfts.dsl import parse

        text = "features { }\nstates { s0 }\ninit { s0 }\n" + "".join(
            f"trans {t}\n" for t in transitions
        )
        w = expand_lengths(parse(text))
        oracle_graph = unit_projection(IndexedModel(w), 1)
        for sign, mode, expected in ((1, "max", best), (-1, "min", least)):
            (family,) = analyze_family(w, mode).outcomes
            assert family.value == expected
            assert karp_values(IndexedModel(w, sign)) == [(1, expected)]
            assert product_mean(w, mode) == expected
            assert brute_force_mean_cycle(*oracle_graph)[mode] == expected


class TestExpansionPreservesMeans:
    """Length expansion keeps every cycle's total weight and length, so the
    per-product optimum must match a length-aware enumeration done directly
    on the unexpanded model."""

    @staticmethod
    def length_aware_best(w, product, mode):
        """The oracle on the product's reachable projection of the declared
        arcs, one per transition, each with its length."""
        im = IndexedModel(w)
        bit = 1 << w.feature_model.product_index(product)
        reach = reachable_from(successors(im, bit), im.initial, len(w.states))
        return brute_force_mean_cycle(*reachable_projection(im, bit, reach))[mode]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_family_analysis_matches_length_aware_oracle(self, seed):
        from wfts.analysis import analyze_family
        from wfts.randgen import random_wfts

        w = random_wfts(f"expand:{seed}", max_states=6)
        for mode in ("max", "min"):
            report = analyze_family(expand_lengths(w), mode)
            for outcome in report.outcomes:
                expected = self.length_aware_best(w, outcome.product, mode)
                assert outcome.value == expected

    def test_taxi_table_matches_length_aware_oracle(self, taxi1):
        from wfts.analysis import analyze_family

        report = analyze_family(expand_lengths(taxi1), "max")
        for outcome in report.outcomes:
            assert outcome.value == self.length_aware_best(taxi1, outcome.product, "max")
