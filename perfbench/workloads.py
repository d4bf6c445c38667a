"""The three workloads: their inputs, their timed passes and their checks.

Model structure is pinned per workload and the run seed picks a relabelling
that keeps every layer's work the same: a positive affine map of the
weights (``w -> a*w + b*length``, so every cycle ratio maps to ``a*r + b``
and no comparison inside the program changes) and, for random models, the
declaration order of the features (which permutes the products).  Seed 0 is
the identity.  Drawing the structure itself from the seed made one-pass
times differ by 20-170% (interquartile range over median) between seeds,
far beyond any bound a regression could be told apart with.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracle

NAMES = ("taxi", "wide", "corpus")
OPERATIONS = ("family", "product", "analyze", "validate")

TAXI_SIZES = (5, 6, 7)
TAXI_VALIDATE = (1, 2, 3, 4)
WIDE_MODELS = 16
CORPUS_MODELS = 300
ORACLE_MAX_STATES = 48  # the brute-force guard of ``check_model``


@dataclass
class Inputs:
    """Everything one set-up produces: the program's modules and inputs."""

    wfts: object
    cli: object
    checks: object
    sources: dict = field(default_factory=dict)  # label -> unexpanded model
    analyses: list = field(default_factory=list)  # (label, expanded, mode)
    files: list = field(default_factory=list)  # (label, path, mode)
    validate: list = field(default_factory=list)  # (label, expanded)


def import_program(tracer=None):
    """Import ``wfts`` afresh, so that every set-up pays for the import."""
    for name in [n for n in sys.modules if n == "wfts" or n.startswith("wfts.")]:
        del sys.modules[name]
    mods = [importlib.import_module(n) for n in ("wfts", "wfts.cli", "wfts.checks")]
    if tracer is not None:
        tracer.install()
    return mods


def _relabel(wf, w, rng: random.Random | None, shuffle_features: bool):
    """The model rebuilt with weights ``a*w + b*length`` and, if asked,
    shuffled features; seed 0 (``rng`` None) rebuilds it unchanged, so that
    every seed pays the same set-up."""
    a, b = (rng.randint(2, 9), rng.randint(-20, 20)) if rng else (1, 0)
    fm = w.feature_model
    features = list(fm.features)
    if shuffle_features and rng:
        rng.shuffle(features)
    trans = [
        wf.Transition(t.source, t.target, a * t.weight + b * t.length, t.guard,
                      t.action, t.length)
        for t in w.transitions
    ]
    return wf.Wfts(w.states, w.initial, trans, wf.FeatureModel(features, fm.constraint))


def _rng(name: str, seed: int, i) -> random.Random | None:
    return None if seed == 0 else random.Random(f"{name}:{seed}:{i}")


def _wide_structures(wf, count: int) -> list:
    """The first ``count`` random systems with at least six features whose
    expansion the brute-force oracle admits: many products, few distinct
    behaviours."""
    from wfts.randgen import random_wfts

    picked, i = [], 0
    while len(picked) < count:
        w = random_wfts(f"wide:{i}", max_states=16, max_features=10)
        i += 1
        if (len(w.feature_model.features) >= 6
                and len(wf.expand_lengths(w).states) <= ORACLE_MAX_STATES):
            picked.append(w)
    return picked


def setup(name: str, seed: int, out_dir: Path, tiny: bool = False,
          tracer=None) -> Inputs:
    """Import the program, generate the inputs, expand them and write the
    model files that the command-line path reads."""
    wf, cli, checks = import_program(tracer)
    inp = Inputs(wf, cli, checks)
    if name == "taxi":
        sizes = (2, 3) if tiny else TAXI_SIZES
        small = (1, 2) if tiny else TAXI_VALIDATE
        for n in sorted({1, *sizes, *small}):
            # One weight map for every size keeps the clone symmetry.
            inp.sources[f"taxi:{n}"] = _relabel(wf, wf.taxi(n), _rng(name, seed, 0), False)
        runs = [(f"taxi:{n}", "max") for n in sizes]
        checked = [f"taxi:{n}" for n in small]
    elif name == "wide":
        count = 3 if tiny else WIDE_MODELS
        for i, w in enumerate(_wide_structures(wf, count)):
            inp.sources[f"wide[{i}]"] = _relabel(wf, w, _rng(name, seed, i), True)
        runs = [(label, "min") for label in inp.sources]
        checked = list(inp.sources)
    elif name == "corpus":
        from wfts.randgen import random_corpus

        for i, w in enumerate(random_corpus(0, 20 if tiny else CORPUS_MODELS)):
            inp.sources[f"corpus[{i}]"] = _relabel(wf, w, _rng(name, seed, i), True)
        runs = [(label, mode) for label in inp.sources for mode in ("max", "min")]
        checked = list(inp.sources)
    else:
        raise ValueError(f"unknown workload {name!r}")

    needed = dict.fromkeys([label for label, _ in runs] + checked)
    expanded = {label: wf.expand_lengths(inp.sources[label]) for label in needed}
    inp.analyses = [(label, expanded[label], mode) for label, mode in runs]
    inp.validate = [(label, expanded[label]) for label in checked
                    if len(expanded[label].states) <= ORACLE_MAX_STATES]
    out_dir.mkdir(parents=True, exist_ok=True)
    written = {}
    for label, mode in runs:
        w = inp.sources[label]
        if not w.feature_model.features:
            continue  # the text format cannot express a model without features
        if label not in written:
            path = out_dir / f"{len(written)}.wfts"
            path.write_text(wf.serialize(w), encoding="utf-8")
            written[label] = str(path)
        inp.files.append((label, written[label], mode))
    return inp


# -- the timed passes ----------------------------------------------------------

def _attempt(fn, *args):
    try:
        return fn(*args), None
    except Exception as exc:  # a failing operation is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}"


def _cli_analyze(cli, path: str, mode: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["analyze", path, "--format", "json", "--mode", mode])
    if code != 0:
        raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
    return out.getvalue()


def items(op: str, inp: Inputs) -> list:
    """The operations of one pass, as (label, mode) pairs."""
    if op == "analyze":
        return [(label, mode) for label, _, mode in inp.files]
    if op == "validate":
        return [(label, None) for label, _ in inp.validate]
    return [(label, mode) for label, _, mode in inp.analyses]


def run_pass(op: str, inp: Inputs) -> list:
    """One pass of ``op`` over the workload's inputs: (output, error) each."""
    wf = inp.wfts
    if op == "family":
        fn, calls = wf.analyze_family, [(w, mode) for _, w, mode in inp.analyses]
    elif op == "product":
        fn, calls = wf.analyze_products, [(w, mode) for _, w, mode in inp.analyses]
    elif op == "analyze":
        fn, calls = _cli_analyze, [(inp.cli, path, mode) for _, path, mode in inp.files]
    elif op == "validate":
        fn, calls = inp.checks.check_model, [(w,) for _, w in inp.validate]
    else:
        raise ValueError(f"unknown operation {op!r}")
    return [_attempt(fn, *args) for args in calls]


# -- checks against the oracle -------------------------------------------------

# Two values of the unmodified taxi:1 model; the oracle must reproduce them.
TAXI1_PINNED = (("max", frozenset({"S", "T", "L1"}), Fraction(73, 5)),
                ("min", frozenset({"L1"}), Fraction(103, 10)))
MAX_MESSAGES = 40


class Checker:
    """Expected values from the oracle, and the check of every pass output.

    An output equal to one already verified for the same operation and
    input is accepted without verifying it again.
    """

    def __init__(self, name: str, inp: Inputs):
        self.inp = inp
        self.failures: list = []
        self.errors: list = []
        self.verified: dict = {}
        self.plain = {label: oracle.plain(w) for label, w in inp.sources.items()}
        for label, w in inp.sources.items():
            if set(w.feature_model.products) != set(self.plain[label].products):
                self.failures.append(f"{label}: the program enumerates other products")
        wanted = {(label, mode) for op in OPERATIONS for label, mode in items(op, inp)
                  if mode is not None}
        if name == "taxi":
            taxi1 = oracle.plain(inp.wfts.taxi(1))
            for mode, prod, value in TAXI1_PINNED:
                got = oracle.expected_values(taxi1, mode)[prod]
                if got != value:
                    self.failures.append(f"oracle: taxi:1 {mode} {sorted(prod)} = {got}, not {value}")
            base = {mode: oracle.expected_values(self.plain["taxi:1"], mode)
                    for _, mode in wanted}
            self.expected = {
                (label, mode): oracle.clone_values(base[mode], self.plain[label].products)
                for label, mode in wanted
            }
        else:
            self.expected = {(label, mode): oracle.expected_values(self.plain[label], mode)
                             for label, mode in wanted}

    def _problems(self, op: str, label: str, mode, out) -> list:
        where = f"{op} {label}" + (f" {mode}" if mode else "")
        if op in ("family", "product"):
            return oracle.verify_values(where, out, self.expected[(label, mode)])
        if op == "analyze":
            return oracle.verify_report_json(where, out, self.plain[label],
                                             self.expected[(label, mode)], mode)
        ok, messages = out
        if ok:
            return []
        return [f"{where}: {line}" for line in messages] or [f"{where}: check failed"]

    def _output(self, op: str, result):
        """The part of a result that is checked, comparable between passes."""
        if op in ("family", "product"):
            return [(o.product, o.value) for o in result.outcomes]
        if op == "validate":
            return (result.ok, tuple(result.failures))
        return result

    def check(self, op: str, results: list) -> int:
        """Check one pass; returns the number of failed operations."""
        failed = 0
        for i, ((label, mode), (result, error)) in enumerate(zip(items(op, self.inp), results)):
            if error is not None:
                failed += 1
                self.errors.append(f"{op} {label}: {error}")
                continue
            out = self._output(op, result)
            comparable = out
            if op == "analyze":
                with contextlib.suppress(ValueError, AttributeError):
                    comparable = json.loads(out)
                    comparable.pop("timing", None)  # the only part that may differ
            if self.verified.get((op, i)) == comparable:
                continue
            problems = self._problems(op, label, mode, out)
            if problems:
                self.failures.extend(problems)
            else:
                self.verified[(op, i)] = comparable
        del self.failures[MAX_MESSAGES:], self.errors[MAX_MESSAGES:]
        return failed
