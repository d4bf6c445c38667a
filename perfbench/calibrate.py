"""The calibration kernel: a fixed piece of pure-Python work.

On a shared machine the speed of one process changes by a factor of up to
1.8 within seconds (CPU time still equals wall time), so raw seconds do not
repeat between runs.  The ratio of a timed block to this kernel, sampled
every 0.1 s while the block runs, does much better.  The kernel imitates
the analyses: symbolic reachability with 256-bit product masks over
adjacency lists, and a dict merge of masks.  Between the machine's slow and
fast states its time changes by about the same factor as the analyses'
(see README.md), which a kernel of plain big-int arithmetic did not (its
factor was 1.84 against 1.45-1.63).

Every time metric is reported in reference-speed seconds: raw seconds times
NOMINAL_S over the kernel time measured next to the block.  Do not change
the kernel or NOMINAL_S: doing so re-bases every number the benchmark has
reported.
"""

from __future__ import annotations

NOMINAL_S = 0.0085  # about the kernel's median time on the reference machine

_NODES = 300
_FULL = (1 << 256) - 1


def _graph() -> list:
    state = 12345
    adj = []
    for _ in range(_NODES):
        out = []
        for _ in range(3):
            state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            target = state % _NODES
            mask = 0
            for _ in range(4):
                state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
                mask = (mask << 64) | state
            out.append((target, mask))
        adj.append(out)
    return adj


_ADJ = _graph()


_REACH = [0] * _NODES
_WORK: list = []
_CELLS: dict = {}


def kernel() -> int:
    """One symbolic reachability and one merge of masks.  The containers are
    allocated once and reused, so a sample taken while the program runs
    leaves its garbage-collector counts unchanged."""
    reach, work, cells = _REACH, _WORK, _CELLS
    for i in range(_NODES):
        reach[i] = 0
    reach[0] = _FULL
    work.append(0)
    while work:
        u = work.pop()
        ru = reach[u]
        for v, g in _ADJ[u]:
            new = ru & g & ~reach[v]
            if new:
                reach[v] |= new
                work.append(v)
    cells.clear()
    for u in range(_NODES):
        for v, g in _ADJ[u]:
            key = (u * 31 + v) % 97
            have = cells.get(key)
            cells[key] = reach[u] & g if have is None else have | (reach[u] & g)
    total = 0
    for m in cells.values():
        total += bin(m).count("1")
    return total
