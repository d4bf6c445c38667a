"""Maximum (or minimum) mean-weight cycles.

Three routes to the same quantity live here:

* ``family_means`` — the family-based route: Howard policy iteration
  (Cochet-Terrasson et al. 1998) for every product at once.  It runs on
  the index's one live view (``IndexedModel.live``: per state of the
  series view, the products that reach it from an initial state and have
  an infinite run from it, and its arcs under the products that keep both
  ends), with policies and values held as cells of products that split
  only where the products' choices or values differ.  A round is one
  sweep that pairs each cell of a state with its successors' cells once;
  the type-2 steps it finds wait for the sweep's end, and the values are
  determined on the policy cells in place.
* ``product_keys`` — the product-based baseline: the same policy
  iteration (``_howard``), per block of products that keep the same live
  arcs, and so have one live graph.  A block whose live graph the last
  block's final values already certify, by Howard's stopping test on the
  arcs it gains (``_certify``, which values its newly live states by a
  run's own ``_evaluate``), takes its key from them; any other block
  gets a run on that graph's out-lists read off the same view
  (``Live.out``), started from the arcs the runs before it improved to.
  ``analysis._product_values`` runs it, for ``analyze`` and ``validate``
  alike.
* ``brute_force_mean_cycle`` — exhaustive simple-cycle enumeration over
  the declared arcs, each with its length, the oracle both other routes
  are checked against, answering both modes from one enumeration.
  Correct because some optimal-mean cycle is always simple: a closed walk
  splits into simple cycles, and its ratio lies between theirs.

Every pointwise-best choice over product sets (a policy improvement, the
caller's merge of the values at the initial states) is one fold,
``_paint``, over ints ranked by a plain sort.  Both Howard routes hold a
mean as a reduced ``(num, den)`` pair, a cycle of total t over k unit
steps as (t / g, k / g) with g = gcd(t, k): equal means are equal pairs,
and a mean is compared by cross-multiplication.  Where a fold ranks
means, they are ints over the lcm of the dens it meets, and the caller
builds a ``Fraction`` once per value class.

Both Howard routes run on ``IndexedModel.series``, where a chain of
pass-through states is one arc of weight w and length ℓ (the number of
unit steps it stands for).  A cycle's mean is then the cost-to-time ratio
Σw / Σℓ, and Howard's iteration carries over to that ratio form (Dasdan,
Irani and Gupta 1999) with the length in the potentials, scaled by the
den of the state's mean: x(u) = den·w − num·ℓ + x(π(u)).  A pass-through
state has one choice, and the family
route's first policy, like a product's cold start, ranks arcs by their
first hop's weight, which is the edge the unit steps' first policy
compares.  Both routes root a new policy cycle at its smallest kept
state (``_determine``, ``_evaluate``), so the family route, read per
product, is that product's cold ``_howard`` run, state for state and
round for round.  When the pass-through states are a length chain's
``#`` states, indexed after every declared state, that is the unit
steps' root too, and the iteration is the one on the unit steps, arc
for chain and round for round.  The paper's route, components and a
partitioned Karp recurrence per component, is the tests' reference for
``family_means``; it reads the unit steps, the arcs of the length
expansion's own index.

The family and product routes share one ``IndexedModel`` and its one sign
convention: they maximize over weights that min mode negated once, inside
the index, and their callers negate the result.  The oracle shares nothing
of that: it takes the model's own unsigned weights, scales them to ints by
the lcm of their own denominators, sums each path's weights and lengths
in ints and compares the closed cycles' (total, length) pairs by
cross-multiplication in each mode.
Its scale comes only from the edges it is given, so a fault in the index's
sign or scale still shows as a disagreement.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

from .graphs import Arc, IndexedModel, Live

Cells = list[tuple[int, object]]  # (product mask, value or None)

# Largest graph the brute-force oracle enumerates (exponential in general).
BRUTE_FORCE_MAX_STATES = 48


def _paint(candidates: dict, context: int) -> Cells:
    """Partition ``context`` by pointwise-best (largest) candidate value.

    ``candidates`` map values (ints, or tuples of ints ranked in order) to
    product regions; each product gets the first region, best value first,
    that covers it.  Products no candidate covers form a trailing ``None``
    cell.  The result is the
    coarsest partition of the pointwise-best function, so equal-valued
    cells are already merged.
    """
    cells: Cells = []
    covered = 0
    for val in sorted(candidates, reverse=True):
        region = candidates[val] & ~covered
        if region:
            cells.append((region, val))
            covered |= region
        if covered == context:
            break
    rest = context & ~covered
    if rest:
        cells.append((rest, None))
    return cells


Values = list[dict[tuple[int, int, int], int]]  # per state, (num, den, potential) -> products


def _determine(policy: list[dict[int, int]], outs: list[list[Arc]], todo: list[int]) -> Values:
    """Value determination of product-partitioned policies: per state,
    ``(num, den, potential)`` cells over its products in ``todo``, with
    ``(num, den)`` the reduced mean.

    ``policy[u]`` maps a position in ``outs[u]`` to the products that take
    that edge, and is read in place.  A walk from each state in index
    order follows the policy under the products it still lacks a value
    for, splits at each cell, and closes a cycle where it meets a state
    already on the walk.  The cycle's mean is its total weight over its
    total length, reduced; its root is its smallest state, with potential
    0, and the cycle's other states are valued backwards from it.  A state
    leaving the walk takes its other products' values from its
    successors, x(u) = den·w − num·ℓ + x(π(u)) over an arc of weight w and
    length ℓ.  Equal cells of a state share one entry.  No
    step recurses.
    """
    n = len(policy)
    values: Values = [{} for _ in range(n)]
    valued = [0] * n
    depth = [-1] * n  # position on the current walk
    for s in range(n):
        m = todo[s] & ~valued[s]
        if not m:
            continue
        # (state, products, weight and length of the arc in, cells left)
        walk = [(s, m, 0, 0, iter(policy[s].items()))]
        depth[s] = 0
        while walk:
            u, mu, _, _, cells = walk[-1]
            for e, c in cells:
                _, v, wt, ln, _, _ = outs[u][e]
                hit = mu & c & ~valued[v]
                if not hit:
                    continue
                d = depth[v]
                if d < 0:
                    depth[v] = len(walk)
                    walk.append((v, hit, wt, ln, iter(policy[v].items())))
                    break
                # The products of ``hit`` follow walk[d:] around to v.
                cycle = [f[0] for f in walk[d:]]
                # steps[i]: the arc cycle[i] -> cycle[i + 1]
                steps = [(f[2], f[3]) for f in walk[d + 1:]]
                steps.append((wt, ln))
                total, length = map(sum, zip(*steps))
                g = gcd(total, length)
                num, den = total // g, length // g
                r = cycle.index(min(cycle))
                x = 0
                for i in range(r, r - len(cycle), -1):
                    here = values[cycle[i]]
                    here[num, den, x] = here.get((num, den, x), 0) | hit
                    valued[cycle[i]] |= hit
                    w, k = steps[i - 1]
                    x += den * w - num * k
            else:
                left = mu & ~valued[u]
                if left:
                    here = values[u]
                    for e, c in policy[u].items():
                        r = left & c
                        if not r:
                            continue
                        _, v, wt, ln, _, _ = outs[u][e]
                        for (num, den, x), mv in values[v].items():
                            hit = r & mv
                            if hit:
                                cell = (num, den, den * wt - num * ln + x)
                                here[cell] = here.get(cell, 0) | hit
                    valued[u] |= left
                depth[u] = -1
                walk.pop()
    return values


def _adopt(cells: dict[int, int], candidates: dict, context: int) -> int:
    """Move each product of ``context`` that has a candidate to the edge of
    its best one, in one state's policy ``cells`` (edge position ->
    products).  Candidates are keyed ``(rank, -edge position)``, so that a
    tie goes to the first edge.  Returns the products that moved."""
    moved = 0
    for region, best in _paint(candidates, context):
        if best is None:
            continue
        for f in list(cells):
            rest = cells[f] & ~region
            if rest:
                cells[f] = rest
            else:
                del cells[f]
        e = -best[1]
        cells[e] = cells.get(e, 0) | region
        moved |= region
    return moved


def family_means(im: IndexedModel) -> list[tuple[int, tuple[int, int]]]:
    """Best reachable cycle means of every product, as ``(product mask,
    (num, den))`` cells with each mean a reduced pair: Howard
    policy iteration (``_howard``) for all products at once, on the live
    view ``im.live`` of the series view ``im.series`` with ``im``'s
    signed weights, so maximizing.  A mean is a cost-to-time ratio, an
    arc's weight counting over its length (Dasdan, Irani and Gupta 1999).

    A policy picks one out-arc per state and product; it is held as cells
    of products per arc, which ``_determine`` reads in place, and the
    values as ``(num, den, potential)`` cells.  Each product's run is a cold
    ``_howard`` run: the first policy takes the first arc of maximum
    first-hop weight, a state improves to the first arc of strictly better
    mean (type 1), and only a product with no type-1 change in a round
    improves by strictly better potential among successors of equal mean
    (type 2).  Means are compared by cross-multiplication; a cell's type-1
    candidates are ranked as ints over the lcm of their dens.
    Every choice is one ``_adopt``.  A round is one sweep: each cell of a
    state with a choice meets each successor's cells once, for both its
    type-1 candidates, adopted at once, and its type-2 ones, kept until
    the sweep has shown which products no type-1 step moved.  Every cycle
    is rooted at its smallest state, as in ``_howard``, so a cycle that
    survives an improvement keeps its root, and every round strictly
    improves each changed product.  A product whose policy does not change
    is final and leaves the round; its cells are its values at its initial states, and
    the caller's merge takes the best of them.  Products without a live
    initial state have no cell.
    """
    g = im.series
    live, outs = im.live
    policy: list[dict[int, int]] = [{} for _ in g.kept]  # per state, edge position -> products
    for u, arcs in enumerate(outs):
        if arcs:
            firsts = {}
            for e, arc in enumerate(arcs):
                firsts[arc[4], -e] = arc[0]
            _adopt(policy[u], firsts, live[u])
    active = 0
    for s in g.initial:
        active |= live[s]
    found: list[tuple[int, tuple[int, int]]] = []
    while active:
        todo = [m & active for m in live]
        values = _determine(policy, outs, todo)
        better = 0
        kept = []  # (state, type-2 candidates, products) of each cell
        for u, edges in enumerate(outs):
            if len(edges) < 2:  # one edge leaves no choice
                continue
            for (nu, du, xu), mu in values[u].items():
                up: dict[tuple[int, int, int], int] = {}  # a successor of better mean
                tie: dict[tuple[int, int], int] = {}  # equal mean, better potential
                for e, (em, v, wt, ln, _, _) in enumerate(edges):
                    r = em & mu
                    if not r:
                        continue
                    base = du * wt - nu * ln
                    for (nv, dv, xv), mv in values[v].items():
                        hit = r & mv
                        if not hit:
                            continue
                        if nv * du > nu * dv:
                            up[nv, dv, -e] = up.get((nv, dv, -e), 0) | hit
                        elif nv == nu and dv == du and base + xv > xu:
                            cand = (base + xv, -e)
                            tie[cand] = tie.get(cand, 0) | hit
                if up:
                    span = lcm(*(dv for _, dv, _ in up))
                    ranked = {(nv * (span // dv), at): m for (nv, dv, at), m in up.items()}
                    better |= _adopt(policy[u], ranked, mu)
                if tie:
                    kept.append((u, tie, mu))
        level = active & ~better
        for u, candidates, mu in kept:
            mu &= level
            if mu:
                better |= _adopt(policy[u], {c: m & mu for c, m in candidates.items()}, mu)
        final = active & ~better
        for s in g.initial:
            for (num, den, _), m in values[s].items():
                if m & final:
                    found.append((m & final, (num, den)))
        active = better
    return found


_first_hop = itemgetter(4)


def _evaluate(policy: list[Arc | None], states: list[int], valued: list[bool],
              num: list[int], den: list[int], x: list[int]) -> bool:
    """Value determination of one ``_howard`` policy: sets the mean
    ``(num, den)`` and potential ``x`` of every listed state that
    ``valued`` does not yet flag, in place, and flags it.  A walk follows
    the policy from each state until it meets a valued state or closes a
    new cycle, which is rooted at its smallest state, as ``_determine``
    roots it.  Returns whether a walk closed a new cycle.
    """
    walk = [-1] * len(policy)
    closed = False
    for s in states:
        path = []
        v = s
        while not valued[v] and walk[v] != s:
            walk[v] = s
            path.append(v)
            v = policy[v][1]
        if not valued[v]:
            cycle = path[path.index(v):]
            del path[-len(cycle):]
            total = sum(policy[c][2] for c in cycle)
            length = sum(policy[c][3] for c in cycle)
            g = gcd(total, length)
            r = cycle.index(min(cycle))
            root = cycle[r]
            # Valued backwards from the root: the cycle, then the path
            # into it.
            path += cycle[r + 1:] + cycle[:r]
            num[root], den[root], x[root] = total // g, length // g, 0
            valued[root] = closed = True
        for u in reversed(path):
            _, t, wt, ln, _, _ = policy[u]
            num[u], den[u] = num[t], den[t]
            x[u] = den[t] * wt - num[t] * ln + x[t]
            valued[u] = True
    return closed


def _howard(out: list[list[Arc] | None], start: list[Arc | None]
            ) -> tuple[list[Arc | None], list[int], list[int], list[int]]:
    """Howard policy iteration (Cochet-Terrasson et al. 1998) for maximum
    cycle means, in the ratio form of Dasdan, Irani and Gupta (1999): a
    cycle's mean is its total weight over its total length.  ``out`` is
    one live graph (``Live.out``): every listed state has an out-arc, and
    every arc's target is listed.  Returns the final policy (per listed
    state, its arc), and, per listed state v, the best mean of a cycle
    reachable from v as a reduced ``(num[v], den[v])`` pair and its
    potential ``x[v]``: values that pass the stopping test below on every
    arc, which ``product_keys`` carries to the next block.

    A policy picks one out-arc per state; each state then leads to one
    policy cycle, whose mean it takes.  Its potential is kept scaled by the
    den of that mean, x(v) = den * w - num * l + x(pi(v)) over an arc of
    weight w and length l, with x = 0 at the cycle's root, its smallest
    state, so that the arithmetic stays in ints.  ``start`` holds, per
    state, the arc an earlier run last improved it to, or None.  A listed
    state starts on that arc when it is among its out-arcs (the arc's
    position in ``im.series.arcs`` tells it apart), else on its first arc
    of maximum first-hop weight, and each improvement is written back to
    ``start``.
    A state improves first by mean (type 1, compared by
    cross-multiplication), and, when no state can, by potential among
    successors of equal mean (type 2).  The policy changes only on strict
    improvement, to the first best edge in declaration order, and a cycle
    that survives an improvement keeps its smallest state, and so its
    root: every round then strictly improves (mean, potential), so the
    iteration ends, and it ends at the optimum, whatever the first policy.
    ``family_means`` is this iteration on sets of products: a product's
    cells there are a cold run's values, state for state.
    """
    n = len(out)
    states = [u for u in range(n) if out[u] is not None]
    policy = start[:]
    for u in states:
        if policy[u] not in out[u]:
            policy[u] = max(out[u], key=_first_hop)
    num = [0] * n
    den = [1] * n
    x = [0] * n
    while True:
        _evaluate(policy, states, [False] * n, num, den, x)
        changed = False
        for u in states:  # type 1: a successor of better mean
            bn, bd = num[u], den[u]
            best = None
            for edge in out[u]:
                v = edge[1]
                if num[v] * bd > bn * den[v]:
                    bn, bd, best = num[v], den[v], edge
            if best is not None:
                policy[u] = start[u] = best
                changed = True
        if not changed:
            for u in states:  # type 2: equal mean, better potential
                un, ud, bx = num[u], den[u], x[u]
                best = None
                for edge in out[u]:
                    _, v, wt, ln, _, _ = edge
                    if num[v] == un and den[v] == ud:
                        cand = ud * wt - un * ln + x[v]
                        if cand > bx:
                            bx, best = cand, edge
                if best is not None:
                    policy[u] = start[u] = best
                    changed = True
        if not changed:
            return policy, num, den, x


def _certify(live: Live, bit: int, last: int, policy: list[Arc | None], num: list[int],
             den: list[int], x: list[int], start: list[Arc | None]) -> bool:
    """Whether the last block's final values certify the block of product
    ``bit`` too, so that its key needs no ``_howard`` run.  ``last`` is the
    last block's lowest product; ``policy``, ``num``, ``den`` and ``x``
    hold its final policy, means and potentials, which pass Howard's
    stopping test on every arc it keeps.  A block's products agree on
    every arc, so one bit stands for it, and one AND with both bits per
    state, and per arc of a state live for both, tells which keeps it.

    The check fails where a state live for both loses its policy arc.
    Otherwise each such state's policy walk stays among them, and its
    values stand.  A state live for ``bit`` alone takes the arc
    ``_howard`` would start it on, and ``_evaluate`` values it along its
    policy into the carried states, given as valued, in place; the check
    fails where that call closes a new cycle.  Howard's
    stopping test, no successor of better mean (type 1) and none of equal
    mean and better potential (type 2), then runs on the arcs that ``bit``
    keeps and ``last`` does not, every arc of a newly live state among
    them.  Every other arc ``bit`` keeps joins two states whose values
    have not changed, so it passed the test at the last block.  When all
    pass, no policy improves on the values, and the means are the optimal
    ones a run would end on.
    """
    both = bit | last
    fresh = []  # the states live for bit alone
    gained = []  # (state, arc) of each arc that bit keeps and last does not
    for u, m in enumerate(live.masks):
        k = m & both
        if k == both:
            if not policy[u][0] & bit:
                return False
            for arc in live.arcs[u]:
                if arc[0] & both == bit:
                    gained.append((u, arc))
        elif k == bit:
            fresh.append(u)
    if fresh:
        valued = [True] * len(policy)  # the carried states keep their values
        for u in fresh:
            arcs = [arc for arc in live.arcs[u] if arc[0] & bit]
            first = start[u]
            policy[u] = first if first in arcs else max(arcs, key=_first_hop)
            gained += [(u, arc) for arc in arcs]
            valued[u] = False
        if _evaluate(policy, fresh, valued, num, den, x):
            return False
    for u, (_, v, wt, ln, _, _) in gained:
        nu, du, nv, dv = num[u], den[u], num[v], den[v]
        if nv * du > nu * dv or (nv == nu and dv == du and du * wt - nu * ln + x[v] > x[u]):
            return False
    return True


def product_keys(im: IndexedModel, masks) -> list[tuple[int, int] | None]:
    """The best mean of a cycle reachable from an initial state, for each
    mask of ``masks`` in order, on ``im``'s signed weights (so maximizing),
    as a reduced ``(num, den)`` pair over ``im``'s scaled weights: the best
    value of a live initial state.  A mask is one product, or a block that
    keeps the same arcs of ``im.live`` and so has one live graph.  A mask
    without a live initial state, whose reachable part is acyclic, gets
    None and no run.  Each block is first checked against the last block's
    final values (``_certify``); neighbouring products mostly share their
    optimal policies, so most blocks pass and read their key off those
    values.  A block that fails gets a warm-started run (``_howard``) on
    its out-lists (``Live.out``): a state starts on the arc an earlier run
    last improved it to, when that arc is live for this mask, else on its
    first arc of maximum first-hop weight.  A one-mask call runs cold.
    """
    g, live = im.series, im.live
    start: list[Arc | None] = [None] * len(g.kept)
    keys: list[tuple[int, int] | None] = []
    last = 0  # the lowest product of the last block with a key
    for mask in masks:
        initial = [s for s in g.initial if live.masks[s] & mask]
        if not initial:
            keys.append(None)
            continue
        bit = mask & -mask
        if not (last and _certify(live, bit, last, policy, num, den, x, start)):
            policy, num, den, x = _howard(live.out(mask), start)
        last = bit
        best = initial[0]
        for s in initial:
            if num[s] * den[best] > num[best] * den[s]:
                best = s
        keys.append((num[best], den[best]))
    return keys


def brute_force_mean_cycle(
    n: int, edges: list[tuple[int, int, Fraction, int]]
) -> dict[str, Fraction | None]:
    """Best mean over all simple cycles of ``(u, v, weight, length)`` edges
    on states ``0..n-1``, by exhaustive enumeration, in both modes.

    Enumerates every simple cycle once (each rooted at its smallest state
    index) and keeps both the largest and the smallest mean, so one
    enumeration answers every mode.  A cycle's mean is its total weight
    over its total length.  The weights are scaled by the lcm of their
    denominators, so each path's total is an int, and a closed cycle's
    ``(total, length)`` pair is compared with the best ones by
    cross-multiplication, exact since lengths are positive.  Returns a dict
    from "max" and "min" to the best mean, None when there is no cycle.
    Guarded by ``BRUTE_FORCE_MAX_STATES``; this is an oracle for small
    systems, not an algorithm.
    """
    if n > BRUTE_FORCE_MAX_STATES:
        raise ValueError(f"{n} states exceed the brute-force limit {BRUTE_FORCE_MAX_STATES}")
    scale = lcm(*(w.denominator for _, _, w, _ in edges))
    out: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for u, v, w, ln in edges:
        out[u].append((v, w.numerator * (scale // w.denominator), ln))

    hi: tuple[int, int] | None = None  # best (total, length) per mode
    lo: tuple[int, int] | None = None
    on_path = [False] * n

    def explore(root: int, u: int, total: int, length: int) -> None:
        nonlocal hi, lo
        for v, w, ln in out[u]:
            if v == root:
                t, k = total + w, length + ln
                if hi is None or t * hi[1] > hi[0] * k:
                    hi = (t, k)
                if lo is None or t * lo[1] < lo[0] * k:
                    lo = (t, k)
            elif v > root and not on_path[v]:
                on_path[v] = True
                explore(root, v, total + w, length + ln)
                on_path[v] = False

    for root in range(n):
        on_path[root] = True
        explore(root, root, 0, 0)
        on_path[root] = False
    return {
        mode: None if best is None else Fraction(best[0], best[1] * scale)
        for mode, best in (("max", hi), ("min", lo))
    }
