"""Feature-aware depth-first search.

A single DFS over the featured system cannot assign one finishing time per
state, because different products enable different transitions.  Instead the
search tracks, per state, the set of products under which the state is still
unexplored, and stamps one (state, product-set) entry per visit.  For every
single product, the stamped subsequence containing it equals the classic DFS
finishing order of that product's projection under the canonical iteration
order (states and out-edges in declaration order).

The search runs over any out-list and any context of products.  On the
tight graph of the declared arcs, over the products with a value, it
feeds the witness stage: scanned from the last entry, it yields each
product's critical state that finishes last, whose tight component holds
the witness cycle.  The paper's finishing-order tree, which the search
feeds on the unit steps, and the components read off it are the tests'
reference (``tests/paper_reference.py``); no value or witness depends on
them.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple


class OrderEntry(NamedTuple):
    state: str
    mask: int  # products for which this entry is the state's finishing point
    time: int  # 1-based, consecutive


class DfsOrder:
    """Stamped finishing entries of the feature-aware DFS over the products
    of ``context``: ``stamps`` as ``(state index, mask)`` pairs, and
    ``entries`` as named, timed records."""

    def __init__(self, states, context: int, stamps: list[tuple[int, int]]):
        self.states = states
        self.context = context
        self.stamps = stamps

    @cached_property
    def entries(self) -> tuple[OrderEntry, ...]:
        states = self.states
        return tuple([
            OrderEntry(states[u], mask, i) for i, (u, mask) in enumerate(self.stamps, 1)
        ])


def dfs_order(
    out: list[list[tuple[int, int]]], states, context: int
) -> DfsOrder:
    """Run the feature-aware DFS and return the stamped finishing order.

    The graph is ``out`` (per state, ``(target, mask)`` pairs in the order
    the classic DFS tries them), named by ``states``, over the products of
    ``context``.  Per state the unexplored-products set starts at
    ``context``; a visit under expression lam stamps the still-unexplored
    part of lam and recurses along every out-edge whose mask leaves some
    product of lam unexplored at the target.  The recursion is realised
    with an explicit stack but preserves the recursive visit order exactly.
    """
    white = [context] * len(out)
    entries: list[tuple[int, int]] = []

    # Frame: [state, lam, exploring, next edge index]; pushing a frame
    # removes its products from the state's unexplored set.
    frames: list[list[int]] = []
    for root, lam in enumerate(white):
        if not lam:
            continue
        white[root] = 0
        frames.append([root, lam, lam, 0])
        while frames:
            frame = frames[-1]
            u, lam, _, i = frame
            edges = out[u]
            descended = False
            while i < len(edges):
                v, guard = edges[i]
                i += 1
                nxt = guard & lam
                exploring = white[v] & nxt
                if exploring:
                    frame[3] = i
                    white[v] &= ~nxt
                    frames.append([v, nxt, exploring, 0])
                    descended = True
                    break
            if not descended:
                frame[3] = i
                entries.append((u, frame[2]))
                frames.pop()
    return DfsOrder(states, context, entries)
