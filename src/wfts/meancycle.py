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
* ``best_reachable_mean`` — the product-based baseline: plain Karp
  (``karp_best_mean``) on each reachable strongly connected component of
  one product.
* ``brute_force_mean_cycle`` — exhaustive simple-cycle enumeration, the
  oracle both other routes are checked against.  Correct because some
  optimal-mean cycle is always simple.

Every pointwise-best step of ``karp_cells`` (a walk-table row, the
per-state minimum ratio, the maximum across states) is one fold,
``_paint``, over candidates ranked best-first.

The two Karp routes share one ``IndexedModel`` and its one sign
convention: they maximize over weights that min mode negated once, inside
the index, and their callers negate the result.  The oracle shares nothing
of that: it takes the model's own weights, unsigned and unscaled, and
compares means directly in each mode, so a fault in the sign or the scale
still shows as a disagreement.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import gcd

from .graphs import IndexedModel, kosaraju_components, reachable_from
from .scc import SymbolicScc

Cells = list[tuple[int, object]]  # (product mask, value or None)

# Largest graph the brute-force oracle enumerates (exponential in general).
BRUTE_FORCE_MAX_STATES = 48


def _paint(candidates: dict, context: int, ordered_values: list) -> Cells:
    """Partition ``context`` by pointwise-best candidate value.

    ``ordered_values`` lists candidate values best-first; each product gets
    the first candidate region that covers it.  Products no candidate covers
    form a trailing ``None`` cell.  The result is the coarsest partition of
    the pointwise-best function, so equal-valued cells are already merged.
    """
    cells: Cells = []
    covered = 0
    for val in ordered_values:
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


def _fold_ratios(candidates: dict, context: int, maximize: bool) -> Cells:
    """Pointwise best over exact ratio candidates, in pure int arithmetic.

    Candidates map (numerator, denominator) pairs to product regions; they
    are ranked by cross-multiplication and painted best-first.
    """
    # Exact because the keys are in lowest terms with positive denominators:
    # equal values have equal keys, so no two keys tie in the ranking and
    # ``_paint`` gives each value one cell.
    by_ratio = cmp_to_key(lambda x, y: x[0] * y[1] - y[0] * x[1])
    return _paint(candidates, context, sorted(candidates, key=by_ratio, reverse=maximize))


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
                row[v] = _paint(into, masks[v], sorted(into, reverse=True))
            else:
                row[v] = [(masks[v], None)]
        rows.append(row)
    return rows


def karp_cells(scc: SymbolicScc, im: IndexedModel) -> list[tuple[int, Fraction]]:
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
    same way.  Only families that actually contain a cycle are returned;
    ratios stay exact (int pairs, Fraction at the end).
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
    scale = im.scale
    top: dict[tuple[int, int], int] = {}
    for (v, horizon), context in horizons.items():
        dn_cells = [
            (m & context, dn) for m, dn in rows[horizon][v]
            if dn is not None and m & context
        ]
        if not dn_cells:
            continue
        ratios: dict[tuple[int, int], int] = {}
        for k in range(horizon):
            dk_cells = rows[k][v]
            if len(dk_cells) == 1 and dk_cells[0][1] is None:
                continue
            span = horizon - k
            for m2, dn in dn_cells:
                remaining = m2
                for m3, dk in dk_cells:
                    region = remaining & m3
                    if not region:
                        continue
                    remaining ^= region
                    if dk is not None:
                        g = gcd(dn - dk, span)
                        key = ((dn - dk) // g, span // g)
                        have = ratios.get(key)
                        ratios[key] = region if have is None else have | region
                    if not remaining:
                        break
        if not ratios:
            continue
        # Per state the minimum ratio wins; across states the maximum wins.
        for mask, val in _fold_ratios(ratios, context, maximize=False):
            if val is not None:
                have = top.get(val)
                top[val] = mask if have is None else have | mask
    if not top:
        return []
    return [
        (mask, Fraction(val[0], val[1] * scale))
        for mask, val in _fold_ratios(top, masks[s0], maximize=True)
        if val is not None
    ]


def karp_best_mean(
    component: list[int], edges: list[tuple[int, int, int]]
) -> Fraction | None:
    """Classic Karp on one strongly connected component (scaled weights).

    ``edges`` must already be restricted to the component.  Returns the
    maximum mean of a cycle, or None if the component carries no edge.
    """
    if not edges:
        return None
    n = len(component)
    pos = {node: i for i, node in enumerate(component)}
    local = [(pos[u], pos[v], w) for u, v, w in edges]
    rows: list[list] = [[None] * n for _ in range(n + 1)]
    rows[0][0] = 0  # anchor = first node of the component
    for k in range(1, n + 1):
        cur, prev = rows[k], rows[k - 1]
        for u, v, w in local:
            d = prev[u]
            if d is None:
                continue
            cand = d + w
            if cur[v] is None or cand > cur[v]:
                cur[v] = cand
    best = None
    last = rows[n]
    for v in range(n):
        dn = last[v]
        if dn is None:
            continue
        ratio = None
        for k in range(n):
            dk = rows[k][v]
            if dk is None:
                continue
            cand = Fraction(dn - dk, n - k)
            if ratio is None or cand < ratio:
                ratio = cand
        if ratio is not None and (best is None or ratio > best):
            best = ratio
    return best


def best_reachable_mean(im: IndexedModel, bit: int) -> Fraction | None:
    """Best mean cycle of one product, restricted to the part reachable from
    the initial states, on ``im``'s signed weights (so maximizing).

    The product-based pipeline: Kosaraju components of the product's
    graph, classic Karp on every reachable component that carries an edge,
    best of those.  None when the reachable subgraph is acyclic.
    """
    adj = im.product_adj(bit)
    reach = reachable_from(adj, im.initial, im.n)
    components = kosaraju_components(adj, im.product_radj(bit), im.n)
    comp_of = [0] * im.n
    for cid, comp in enumerate(components):
        for u in comp:
            comp_of[u] = cid
    comp_edges: list[list[tuple[int, int, int]]] = [[] for _ in components]
    for u, v, wt in im.product_edges(bit):
        if reach[u] and comp_of[u] == comp_of[v]:
            comp_edges[comp_of[u]].append((u, v, wt))
    best = None
    for comp, edges in zip(components, comp_edges):
        value = karp_best_mean(comp, edges)
        if value is not None and (best is None or value > best):
            best = value
    return None if best is None else best / im.scale


def brute_force_mean_cycle(
    n: int,
    edges: list[tuple[int, int, Fraction]],
    mode: str = "max",
    max_states: int = BRUTE_FORCE_MAX_STATES,
) -> Fraction | None:
    """Best mean over all simple cycles of ``(u, v, weight)`` edges on
    states ``0..n-1``, by exhaustive enumeration.

    Enumerates every simple cycle once (each rooted at its smallest state
    index) and takes the best mean directly in the requested mode.  Guarded
    by a state-count limit; this is an oracle for small systems, not an
    algorithm.
    """
    if mode not in ("max", "min"):
        raise ValueError(f"mode must be 'max' or 'min', not {mode!r}")
    if n > max_states:
        raise ValueError(f"{n} states exceed the brute-force guard ({max_states})")
    out: list[list[tuple[int, Fraction]]] = [[] for _ in range(n)]
    for u, v, w in edges:
        out[u].append((v, w))

    best: Fraction | None = None
    better = (lambda a, b: a > b) if mode == "max" else (lambda a, b: a < b)
    on_path = [False] * n

    def explore(root: int, u: int, total: Fraction, length: int) -> None:
        nonlocal best
        for v, w in out[u]:
            if v == root:
                mean = (total + w) / (length + 1)
                if best is None or better(mean, best):
                    best = mean
            elif v > root and not on_path[v]:
                on_path[v] = True
                explore(root, v, total + w, length + 1)
                on_path[v] = False

    for root in range(n):
        on_path[root] = True
        explore(root, root, Fraction(0), 0)
        on_path[root] = False
    return best
