"""The paper's Karp route to every product's best cycle mean: the tests'
reference for the family route, ``meancycle.family_means``.

``forward_backward_sccs`` gives the components of every product's
reachable subgraph at once, by forward-backward decomposition over
product sets seeded with symbolic reachability (Xie & Beerel 1999;
Gentilini, Piazza & Policriti 2003).  ``karp_cells`` runs a partitioned
Karp recurrence on each: every table cell is defined on a partition of
the products for which its state belongs to the component, and cells split
whenever an update improves only part of a partition.  The table is
chain-contracted (``_contract``): only *heads* (the anchor and the states
with more than one way in) get rows, filled by a recurrence with transit
times over the chains between them (Hartmann & Orlin 1993).  A state with a
single way in, such as an intermediate state of length expansion, sits at
some depth d below its head, and its Karp term is the head's term at the
shifted horizon n - d.  ``karp_values`` merges the cells of all components
into value classes, as the analysis merges its own route's.  It reads
the unit steps, the arcs of the length expansion's own index.

Every pointwise-best step (a walk-table row, the per-state minimum mean,
the maximum across states) is one fold, ``meancycle._paint``.  Within a
component of n states, means are ints over its own period, lcm(1..n): a
candidate (D_H - D_k)/(H - k) is (D_H - D_k) · (period // (H - k)).
"""

from __future__ import annotations

from math import lcm

from wfts.analysis import Classes, _merge
from wfts.graphs import IndexedModel, spread
from wfts.meancycle import Cells, _paint
from wfts.model import expand_lengths

from paper_reference import SymbolicScc, guarded, symbolic_reachable_masks


def forward_backward_sccs(im: IndexedModel, within: list[int]) -> list[SymbolicScc]:
    """The components of every product's graph restricted to ``within``
    (per state, a product mask), by forward-backward decomposition.

    For each state ``v`` in index order that still has products ``lam`` in
    ``remaining``, the states reached from ``v`` and the states reaching it,
    both under ``lam`` and inside ``remaining``, meet in ``v``'s component
    for each of those products.  Clearing the component from ``remaining``
    removes whole components per product, so later spreads stay exact.
    """
    full = im.feature_model.full_mask
    out, pred = guarded(im)
    remaining = list(within)
    components: list[SymbolicScc] = []
    for v in range(im.n):
        lam = remaining[v]
        if not lam:
            continue
        blocked = [full & ~m for m in remaining]
        fwd = spread([(v, lam)], blocked, out)
        bwd = spread([(v, lam)], blocked, pred)
        masks = [f & b for f, b in zip(fwd, bwd)]
        components.append(SymbolicScc(v, masks))
        remaining = [r & ~m for r, m in zip(remaining, masks)]
    return components


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


def karp_cells(scc: SymbolicScc, im: IndexedModel) -> list[tuple[int, tuple[int, int]]]:
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
    each with its value as an exact ``(key, period)`` pair, period being
    lcm(1..n): a horizon is at most n steps, so period is a multiple of it.
    """
    masks = scc.masks
    n = sum(1 for m in masks if m)
    s0 = scc.anchor

    edges = []
    for u, v, wt, _, g, _ in im.arcs:
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
    period = lcm(*range(1, n + 1))
    steps = [0] + [period // span for span in range(1, n + 1)]
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
        # Per state the minimum mean wins, painted as the largest negation;
        # across states the maximum wins.
        for mask, key in _paint({-key: m for key, m in means.items()}, context):
            if key is not None:
                top[-key] = top.get(-key, 0) | mask
    return [(mask, (key, period)) for mask, key in _paint(top, masks[s0]) if key is not None]


def karp_values(im: IndexedModel) -> Classes:
    """The products' best means as value classes, via the Karp route: the
    Karp cells of every component of the products' reachable subgraphs of
    unit steps, those of ``im``'s length expansion, in ``im``'s sign."""
    unit = IndexedModel(expand_lengths(im.system), im.sign)
    components = forward_backward_sccs(unit, symbolic_reachable_masks(unit))
    return _merge(unit, (cell for scc in components for cell in karp_cells(scc, unit)))
