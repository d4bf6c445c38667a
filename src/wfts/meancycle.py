"""Maximum (or minimum) mean-weight cycles.

Three routes to the same quantity live here:

* ``karp_cells`` — the family-based dynamic program over a symbolic
  component.  It is Karp's recurrence where every table cell is defined on a
  partition of the products for which its state belongs to the component;
  cells split whenever an update improves only part of a partition.  The
  table is chain-contracted: only *heads* (the anchor and the states with
  more than one way in) get rows, filled by a recurrence with transit
  times over the chains between them (Hartmann & Orlin 1993).  A state
  with a single way in, such as an intermediate state of length
  expansion, sits at some depth d below its head, and its Karp term is
  the head's term at the shifted horizon n - d.
* ``best_reachable_mean`` — the product-based baseline: Howard policy
  iteration (Cochet-Terrasson et al. 1998) on the states of one product
  that have an infinite run from an initial state.
* ``brute_force_mean_cycle`` — exhaustive simple-cycle enumeration, the
  oracle both other routes are checked against, answering both modes from
  one enumeration.  Correct because some optimal-mean cycle is always
  simple.

Every pointwise-best step of ``karp_cells`` (a walk-table row, the
per-state minimum mean, the maximum across states) is one fold,
``_paint``, over ints ranked by a plain sort.  Means are ints over the
index's one denominator: a candidate (D_H - D_k)/(H - k) is (D_H - D_k)
· (period // (H - k)), so no ratio is reduced or cross-multiplied, and
the caller builds a ``Fraction`` once per value class.

The family and product routes share one ``IndexedModel`` and its one sign
convention: they maximize over weights that min mode negated once, inside
the index, and their callers negate the result.  The oracle shares nothing
of that: it takes the model's own unsigned weights, scales them to ints by
the lcm of their own denominators, sums each path in ints and compares the
closed cycles' (total, length) pairs by cross-multiplication in each mode.
Its scale comes only from the edges it is given, so a fault in the index's
sign or scale still shows as a disagreement.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .graphs import IndexedModel
from .scc import SymbolicScc

Cells = list[tuple[int, object]]  # (product mask, value or None)

# Largest graph the brute-force oracle enumerates (exponential in general).
BRUTE_FORCE_MAX_STATES = 48


def _paint(candidates: dict[int, int], context: int, maximize: bool = True) -> Cells:
    """Partition ``context`` by pointwise-best (largest, or smallest unless
    ``maximize``) candidate value.

    ``candidates`` map int values to product regions; each product gets
    the first region, best value first, that covers it.  Products no
    candidate covers form a trailing ``None`` cell.  The result is the
    coarsest partition of the pointwise-best function, so equal-valued
    cells are already merged.
    """
    cells: Cells = []
    covered = 0
    for val in sorted(candidates, reverse=maximize):
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


Chain = tuple[int, int, int, int]  # (head, depth, weight offset, mask)


def _contract(
    masks: list[int], s0: int, edges: list[tuple[int, int, int, int]]
) -> tuple[list[int], dict[int, Chain], dict[tuple[int, int], list]]:
    """Contract the states with exactly one way in.

    ``edges`` are the component's ``(u, v, weight, mask)`` edges.  Every
    member other than the anchor that has exactly one in-edge among them is
    contracted: all its walks from the anchor run through one chain of
    single in-edges back to a *head* (the anchor or a state with several
    ways in).  Such a state resolves to ``(head, depth, weight offset,
    mask)``, the mask being the products that enable the whole chain.
    Contracted states that no head reaches lie on a cycle nothing enters,
    so no walk from the anchor visits them; they are left out.

    Returns the heads, the chains of the contracted states, and the hops
    between heads keyed by (source head, length), each a list of
    ``(target head, weight, mask)``.
    """
    n_in = [0] * len(masks)
    outs: list[list[tuple[int, int, int]]] = [[] for _ in masks]
    for u, v, wt, em in edges:
        n_in[v] += 1
        outs[u].append((v, wt, em))
    contracted = [v != s0 and n_in[v] == 1 for v in range(len(masks))]
    heads = [v for v, m in enumerate(masks) if m and not contracted[v]]
    chains: dict[int, Chain] = {}
    for h in heads:
        # Single in-edges make the contracted states below a head a tree.
        stack = [(v, 1, wt, em) for v, wt, em in outs[h] if contracted[v]]
        while stack:
            c, d, off, m = stack.pop()
            chains[c] = (h, d, off, m)
            stack.extend(
                (v, d + 1, off + wt, m & em) for v, wt, em in outs[c] if contracted[v]
            )
    hops: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for u, v, wt, em in edges:
        if contracted[v]:
            continue
        if not contracted[u]:
            key, hop = (u, 1), (v, wt, em)
        elif u in chains:
            h, d, off, m = chains[u]
            key, hop = (h, d + 1), (v, off + wt, m & em)
        else:
            continue
        hops.setdefault(key, []).append(hop)
    return heads, chains, hops


def _walk_tables(
    masks: list[int],
    heads: list[int],
    s0: int,
    hops: dict[tuple[int, int], list[tuple[int, int, int]]],
    n: int,
) -> list[list[Cells | None]]:
    """Partitioned best-walk weights of the heads: rows[k][v] is the maximum
    weight of a length-k walk from the anchor to head v, per family of
    products, with D_k(v) = max D_{k-L}(u) + w over hops (u, v, w, L).
    Rows hold None for the states that are not heads."""
    rows: list[list[Cells | None]] = []
    row0: list[Cells | None] = [None] * len(masks)
    for v in heads:
        row0[v] = [(masks[v], 0 if v == s0 else None)]
    rows.append(row0)
    for k in range(1, n + 1):
        proposals: dict[int, dict[int, int]] = {}
        for (u, length), out_edges in hops.items():
            if length > k:
                continue
            pcells = rows[k - length][u]
            if len(pcells) == 1 and pcells[0][1] is None:
                continue
            for v, wt, edge_mask in out_edges:
                into = proposals.get(v)
                if into is None:
                    into = proposals[v] = {}
                remaining = edge_mask
                for m3, val3 in pcells:
                    region = remaining & m3
                    if not region:
                        continue
                    remaining ^= region
                    if val3 is not None:
                        cand = val3 + wt
                        have = into.get(cand)
                        into[cand] = region if have is None else have | region
                    if not remaining:
                        break
        row: list[Cells | None] = [None] * len(masks)
        for v in heads:
            into = proposals.get(v)
            if into:
                row[v] = _paint(into, masks[v])
            else:
                row[v] = [(masks[v], None)]
        rows.append(row)
    return rows


def karp_cells(scc: SymbolicScc, im: IndexedModel) -> list[tuple[int, int]]:
    """Maximum mean-cycle values of one symbolic component, per family.

    Karp's formula over the component's member states, with n their count:
    the best over states v of the least (D[n][v]-D[k][v])/(n-k), where
    D[k][v] is the best weight of a length-k walk from the anchor to v.
    When products share the component, one product's members may be fewer
    than n; the formula holds at any horizon of at least that many.
    States with one way in (``_contract``) get no table rows: D is kept
    only for heads, and a contracted state at depth d below head h has
    D[k] = D_h[k-d] + offset, so its Karp term is h's term at the shifted
    horizon n-d, restricted to its chain's mask.  The min-over-k step runs
    once per distinct (head, horizon) pair, on the OR of their masks.

    Each table cell list partitions the products under which its state is
    in the component, refined as transitions with different guards propose
    different walk weights; the minima and the final maximum refine the
    same way.  Only families that actually contain a cycle are returned,
    each with its value as an exact int over ``im.denominator``: a horizon
    is at most n ≤ ``im.n`` steps, so ``im.period`` is a multiple of it.
    """
    masks = scc.masks
    n = sum(1 for m in masks if m)
    s0 = scc.anchor

    edges = []
    for u, v, wt, g in im.edges:
        edge_mask = g & masks[u] & masks[v]
        if edge_mask:
            edges.append((u, v, wt, edge_mask))
    if not edges:
        return []

    heads, chains, hops = _contract(masks, s0, edges)
    rows = _walk_tables(masks, heads, s0, hops, n)
    horizons: dict[tuple[int, int], int] = {(v, n): masks[v] for v in heads}
    for h, d, _, m in chains.values():
        key = (h, n - d)
        horizons[key] = horizons.get(key, 0) | m
    steps = [0] + [im.period // span for span in range(1, n + 1)]
    top: dict[int, int] = {}
    for (v, horizon), context in horizons.items():
        dn_cells = [
            (m & context, dn) for m, dn in rows[horizon][v]
            if dn is not None and m & context
        ]
        if not dn_cells:
            continue
        means: dict[int, int] = {}
        for k in range(horizon):
            dk_cells = rows[k][v]
            if len(dk_cells) == 1 and dk_cells[0][1] is None:
                continue
            step = steps[horizon - k]
            for m2, dn in dn_cells:
                remaining = m2
                for m3, dk in dk_cells:
                    region = remaining & m3
                    if not region:
                        continue
                    remaining ^= region
                    if dk is not None:
                        key = (dn - dk) * step
                        have = means.get(key)
                        means[key] = region if have is None else have | region
                    if not remaining:
                        break
        # Per state the minimum mean wins; across states the maximum wins.
        for mask, key in _paint(means, context, maximize=False):
            if key is not None:
                top[key] = top.get(key, 0) | mask
    return [cell for cell in _paint(top, masks[s0]) if cell[1] is not None]


def _live_out(im: IndexedModel, bit: int) -> list[list[tuple[int, int]] | None]:
    """Per state, the ``(target, weight)`` out-edges of product ``bit`` in
    declaration order, kept for the states with an infinite run from an
    initial state and None for the others.

    One pass over ``im.edges`` gives the product's out-lists; the states
    reached from the initial states are kept, and then the states with no
    way out are removed until none is left.
    """
    n = im.n
    succ: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, wt, g in im.edges:
        if g & bit:
            succ[u].append((v, wt))
    alive = [False] * n
    stack = []
    for s in im.initial:
        if not alive[s]:
            alive[s] = True
            stack.append(s)
    # Every successor of a reached state is reached, so a reached state's
    # out-degree within the reached part is its plain out-degree.
    preds: list[list[int]] = [[] for _ in range(n)]
    degree = [0] * n
    dead_ends = []
    while stack:
        u = stack.pop()
        degree[u] = len(succ[u])
        if not degree[u]:
            dead_ends.append(u)
        for v, _ in succ[u]:
            preds[v].append(u)
            if not alive[v]:
                alive[v] = True
                stack.append(v)
    stack = dead_ends
    while stack:
        u = stack.pop()
        alive[u] = False
        for p in preds[u]:
            degree[p] -= 1
            if not degree[p]:
                stack.append(p)
    return [
        [(v, wt) for v, wt in succ[u] if alive[v]] if alive[u] else None
        for u in range(n)
    ]


def _howard(out: list[list[tuple[int, int]] | None]) -> tuple[list[int], list[int]]:
    """Howard policy iteration (Cochet-Terrasson et al. 1998) for maximum
    cycle means.  ``out`` is ``_live_out``'s: every listed state has an
    out-edge, and every edge's target is listed.  Returns, per listed state
    v, the best mean of a cycle reachable from v as a reduced
    ``(num[v], den[v])`` pair.

    A policy picks one out-edge per state; each state then leads to one
    policy cycle, whose mean it takes.  Its potential is kept scaled by the
    den of that mean, x(v) = den * w - num + x(pi(v)), with x = 0 at the
    cycle's root, so that the arithmetic stays in ints.  A state improves
    first by mean (type 1, compared by cross-multiplication), and, when no
    state can, by potential among successors of equal mean (type 2).  The
    policy changes only on strict improvement, to the first best edge in
    declaration order, and a cycle that survives an improvement keeps its
    root: every round then strictly improves (mean, potential), so the
    iteration ends, and it ends at the optimum.
    """
    n = len(out)
    states = [u for u in range(n) if out[u] is not None]
    # The first maximum-weight edge of every state.
    policy = [max(edges, key=lambda edge: edge[1]) if edges else None for edges in out]
    num = [0] * n
    den = [1] * n
    x = [0] * n
    was_root = [False] * n
    while True:
        # Value determination: follow the policy from each state until the
        # walk meets a valued state or closes a new cycle.
        is_root = [False] * n
        valued = [False] * n
        walk = [-1] * n
        for s in states:
            path = []
            v = s
            while not valued[v] and walk[v] != s:
                walk[v] = s
                path.append(v)
                v = policy[v][0]
            if not valued[v]:
                cycle = path[path.index(v):]
                del path[-len(cycle):]
                total = sum(policy[c][1] for c in cycle)
                g = gcd(total, len(cycle))
                r = next((i for i, c in enumerate(cycle) if was_root[c]), 0)
                root = cycle[r]
                # Valued backwards from the root: the cycle, then the
                # path into it.
                path += cycle[r + 1:] + cycle[:r]
                num[root], den[root], x[root] = total // g, len(cycle) // g, 0
                is_root[root] = valued[root] = True
            for u in reversed(path):
                t, wt = policy[u]
                num[u], den[u] = num[t], den[t]
                x[u] = den[t] * wt - num[t] + x[t]
                valued[u] = True
        was_root = is_root

        changed = False
        for u in states:  # type 1: a successor of better mean
            bn, bd = num[u], den[u]
            best = None
            for edge in out[u]:
                v = edge[0]
                if num[v] * bd > bn * den[v]:
                    bn, bd, best = num[v], den[v], edge
            if best is not None:
                policy[u] = best
                changed = True
        if not changed:
            for u in states:  # type 2: equal mean, better potential
                un, ud, bx = num[u], den[u], x[u]
                best = None
                for edge in out[u]:
                    v, wt = edge
                    if num[v] == un and den[v] == ud:
                        cand = ud * wt - un + x[v]
                        if cand > bx:
                            bx, best = cand, edge
                if best is not None:
                    policy[u] = best
                    changed = True
        if not changed:
            return num, den


def best_reachable_mean(im: IndexedModel, bit: int) -> Fraction | None:
    """Best mean cycle of one product, restricted to the part reachable from
    the initial states, on ``im``'s signed weights (so maximizing).

    The product-based pipeline: the states with an infinite run from an
    initial state (``_live_out``), Howard policy iteration on them
    (``_howard``), and the best value of a surviving initial state.  None
    when no initial state survives, i.e. when the reachable subgraph is
    acyclic.
    """
    out = _live_out(im, bit)
    starts = [s for s in im.initial if out[s] is not None]
    if not starts:
        return None
    num, den = _howard(out)
    # A reduced den divides its cycle's length, so it divides ``im.period``.
    return Fraction(max(num[s] * (im.period // den[s]) for s in starts), im.denominator)


def brute_force_mean_cycle(
    n: int, edges: list[tuple[int, int, Fraction]]
) -> dict[str, Fraction | None]:
    """Best mean over all simple cycles of ``(u, v, weight)`` edges on
    states ``0..n-1``, by exhaustive enumeration, in both modes.

    Enumerates every simple cycle once (each rooted at its smallest state
    index) and keeps both the largest and the smallest mean, so one
    enumeration answers every mode.  The weights are scaled by the lcm of
    their denominators, so each path's total is an int, and a closed
    cycle's ``(total, length)`` pair is compared with the best ones by
    cross-multiplication, exact since lengths are positive.  Returns a dict
    from "max" and "min" to the best mean, None when there is no cycle.
    Guarded by ``BRUTE_FORCE_MAX_STATES``; this is an oracle for small
    systems, not an algorithm.
    """
    if n > BRUTE_FORCE_MAX_STATES:
        raise ValueError(f"{n} states exceed the brute-force limit {BRUTE_FORCE_MAX_STATES}")
    scale = lcm(*(w.denominator for _, _, w in edges))
    out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, w in edges:
        out[u].append((v, w.numerator * (scale // w.denominator)))

    hi: tuple[int, int] | None = None  # best (total, length) per mode
    lo: tuple[int, int] | None = None
    on_path = [False] * n

    def explore(root: int, u: int, total: int, length: int) -> None:
        nonlocal hi, lo
        for v, w in out[u]:
            if v == root:
                t, k = total + w, length + 1
                if hi is None or t * hi[1] > hi[0] * k:
                    hi = (t, k)
                if lo is None or t * lo[1] < lo[0] * k:
                    lo = (t, k)
            elif v > root and not on_path[v]:
                on_path[v] = True
                explore(root, v, total + w, length + 1)
                on_path[v] = False

    for root in range(n):
        on_path[root] = True
        explore(root, root, 0, 0)
        on_path[root] = False
    return {
        mode: None if best is None else Fraction(best[0], best[1] * scale)
        for mode, best in (("max", hi), ("min", lo))
    }
