"""Built-in example systems.

``taxi`` is the combined taxi/shuttle service: three city pickup/release
location pairs plus an airport, where the third pair needs an extra license.
Trips to and from the airport take 2, 3 or 4 time units (transition lengths);
city hops take one.  The generator is parameterized by the number of
extra-license features, each cloning the licensed location pair.

``grant_request`` is a four-state arbiter with optional features G (always
grant) and A (alternate), where unnecessary grants and waiting requests cost
a penalty of 1.

``minepump_lite`` is a small water-pump controller with an optional command
module C and an optional methane sensor M (four products), kept deliberately
compact so exhaustive oracles stay cheap.
"""

from __future__ import annotations

from .dsl import parse
from .features import MAX_FEATURES, TRUE, FeatureModel, Var
from .model import Transition, Wfts

# Most extra licenses ``taxi`` builds: S and T are the other two features.
MAX_LICENSES = MAX_FEATURES - 2


def taxi(licenses: int = 1) -> Wfts:
    """The taxi/shuttle system with ``licenses`` extra-license features.

    ``licenses=1`` is the base example: features S, T, L1; eight states;
    eight products.  Each further license Li adds its own PeI/ReI location
    pair and the nine transitions touching it.
    """
    if not 0 <= licenses <= MAX_LICENSES:
        raise ValueError(f"licenses must be between 0 and {MAX_LICENSES}")
    s, t = Var("S"), Var("T")
    features = ["S", "T"] + [f"L{i}" for i in range(1, licenses + 1)]
    fm = FeatureModel(features)
    lic = [(Var(f"L{i}"), f"Pe{i}", f"Re{i}") for i in range(1, licenses + 1)]

    # Declaration order is semantically irrelevant but pins the symbolic
    # search.  This particular order keeps the whole unguarded core on one
    # shared finishing entry, so products differing only in S/T lump into
    # common tree branches instead of one branch per product.
    states = ["R1", "P1", "P2", "R2", "AP", "AR"]
    for _, pe, re in lic:
        states += [pe, re]
    trans = [
        Transition("R1", "P1", -2, TRUE, "drive"),
        Transition("P1", "AR", 40, TRUE, "drive", 3),
        Transition("AR", "AP", -5, TRUE, "drive"),
        Transition("AP", "R2", 45, TRUE, "drive", 2),
        Transition("R2", "P2", -2, TRUE, "drive"),
        Transition("P2", "AR", 35, TRUE, "drive", 2),
        Transition("P2", "R1", 30, t, "drive"),
        Transition("R2", "R1", 15, s, "drive"),
    ]
    trans += [Transition("AP", re, 60, li, "drive", 4) for li, _, re in lic]
    trans += [
        Transition("AP", "R1", 50, TRUE, "drive", 3),
        Transition("P1", "P2", 15, s, "drive"),
        Transition("P1", "R2", 30, t, "drive"),
    ]
    for li, pe, re in lic:
        trans += [
            Transition("R1", re, 15, s & li, "drive"),
            Transition("P2", re, 30, t & li, "drive"),
            Transition("P1", re, 30, t & li, "drive"),
            Transition(re, pe, -2, li, "drive"),
            Transition(pe, "AR", 50, li, "drive", 4),
            Transition(pe, "P1", 15, s & li, "drive"),
            Transition(pe, "R1", 30, t & li, "drive"),
            Transition(pe, "R2", 30, t & li, "drive"),
        ]
    return Wfts(states, ["AP"], trans, fm)


def grant_request() -> Wfts:
    """Arbiter with optional always-grant (G) and alternating (A) features.

    State s0 is declared first and its request edge before its grant edge;
    the symbolic search results depend on this order, so it is pinned here.
    """
    g, a = Var("G"), Var("A")
    fm = FeatureModel(["G", "A"])
    trans = [
        Transition("s0", "s1", 0, TRUE, "request"),
        Transition("s0", "s2", -1, g | a, "grant"),
        Transition("s1", "s3", 0, TRUE, "grant"),
        Transition("s2", "s2", -1, g, "grant"),
        Transition("s2", "s0", 0, a, "clean"),
        Transition("s2", "s3", 0, g | a, "request"),
        Transition("s3", "s0", 0, TRUE, "serve"),
    ]
    return Wfts(["s0", "s1", "s2", "s3"], ["s0"], trans, fm)


_MINEPUMP_SRC = """\
# Water-pump controller, abstracted to its key states.
# C = command module, M = methane sensor.  Weights are net energy units.
features { C, M }
states { ready, rising, high, pumping, drained, lowWater, inspect,
         standby, service, cmdReq, cmdAck, cmdNack, alarm, venting,
         vented, flush }
init { ready }
trans ready -> rising action=rain weight=2
trans rising -> high action=rain weight=3
trans high -> pumping action=autostart weight=-1
trans pumping -> drained action=pump weight=-4 length=2
trans drained -> lowWater action=drain weight=-1
trans lowWater -> ready action=settle weight=1
trans drained -> inspect action=check weight=0 length=2
trans inspect -> ready action=ok weight=1
trans inspect -> flush action=clog weight=-2
trans flush -> ready action=flushed weight=-1 length=2
trans ready -> standby action=idle weight=0
trans standby -> ready action=wake weight=-1
trans standby -> service action=maintain weight=-2 length=3
trans service -> ready action=done weight=2
trans high -> cmdReq [C] action=request weight=0
trans cmdReq -> cmdAck [C] action=grant weight=-1 length=2
trans cmdAck -> pumping [C] action=start weight=1
trans cmdReq -> cmdNack [C] action=deny weight=-1
trans cmdNack -> high [C] action=retry weight=-1
trans high -> alarm [M] action=detect weight=-2
trans alarm -> venting [M] action=stop weight=-3 length=3
trans venting -> vented [M] action=vent weight=0
trans vented -> ready [M] action=clear weight=5
trans rising -> pumping [C && M] action=early weight=-2
trans alarm -> cmdReq [C && M] action=escalate weight=0
"""


def minepump_lite() -> Wfts:
    """Hand-built mine-pump abstraction: two optional features, four products."""
    return parse(_MINEPUMP_SRC)
