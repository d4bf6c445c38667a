#!/usr/bin/env python3
"""Self-test of the benchmark's checks, with no timing.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, on seed 0 (the unmodified models) and
seed 1 (relabelled weights and features), and requires every output of one
pass of each operation to pass its check.  Then it shows that the checks
reject a perturbed value, a perturbed decimal, a broken witness and a
failed verdict.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _rejects(checker, op: str, results: list) -> bool:
    checker.failures = []
    checker.check(op, results)
    rejected = bool(checker.failures)
    checker.failures = []
    return rejected


def _perturbed_value(results: list) -> list:
    for i, (report, _) in enumerate(results):
        outcomes = [SimpleNamespace(product=o.product, value=o.value) for o in report.outcomes]
        for o in outcomes:
            if o.value is not None:
                o.value += Fraction(1, 7)
                return results[:i] + [(SimpleNamespace(outcomes=outcomes), None)] + results[i + 1:]
    raise LookupError("no defined value to perturb")


def _perturbed_json(results: list, plain: dict, labels: list, what: str) -> list:
    """One decimal moved by a hundredth, or one witness given a hop that no
    transition of the model makes."""
    for i, ((text, _), label) in enumerate(zip(results, labels)):
        doc = json.loads(text)
        for entry in doc["products"]:
            if what == "decimal" and entry["decimal"] is not None:
                digits = entry["decimal"]
                entry["decimal"] = digits[:-1] + str((int(digits[-1]) + 1) % 10)
            elif what == "witness" and entry["witness"]:
                start = entry["witness"][0]
                model = plain[label]
                targets = {v for u, v, *_ in model.trans if u == start}
                stray = [s for s in model.states if s not in targets]
                if not stray:
                    continue
                entry["witness"] = [start, stray[0]] + entry["witness"][1:]
            else:
                continue
            return results[:i] + [(json.dumps(doc), None)] + results[i + 1:]
    raise LookupError(f"no {what} to perturb")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    out_dir = HERE / ".run" / f"selftest-{os.getpid()}"
    problems = []
    try:
        for name in workloads.NAMES:
            for seed in (0, 1):
                where = f"{name} seed={seed}"
                inp = workloads.setup(name, seed, out_dir, tiny=True)
                checker = workloads.Checker(name, inp)
                results = {}
                for op in workloads.OPERATIONS:
                    results[op] = workloads.run_pass(op, inp)
                    if checker.check(op, results[op]) or not results[op]:
                        problems.append(f"{where}: {op} pass failed: {checker.errors}")
                problems += [f"{where}: {line}" for line in checker.failures]
                labels = [label for label, _ in workloads.items("analyze", inp)]
                perturbed = {
                    "a perturbed value": ("family", _perturbed_value(results["family"])),
                    "a perturbed decimal": ("analyze", _perturbed_json(
                        results["analyze"], checker.plain, labels, "decimal")),
                    "a broken witness": ("analyze", _perturbed_json(
                        results["analyze"], checker.plain, labels, "witness")),
                    "a failed verdict": ("validate", [(SimpleNamespace(
                        ok=False, failures=["injected failure"]), None)]
                        + results["validate"][1:]),
                }
                for what, (op, bad) in perturbed.items():
                    if not _rejects(checker, op, bad):
                        problems.append(f"{where}: {what} was accepted")
                print(f"selftest {where}: {len(inp.analyses)} analyses, "
                      f"{len(inp.files)} files, {len(inp.validate)} checked models; "
                      f"{len(perturbed)} perturbations tried")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for line in problems:
        print(f"FAIL {line}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
