"""Command-line front end.

Three subcommands:

* ``analyze`` — per-product limit-average report for one model,
  family-based, product-based, or both (with a hard equality check);
* ``bench`` — timing comparison of the two strategies over generated models;
* ``validate`` — the cross-validation suites (tree conditions, component
  equivalence, oracle triangle) on bundled models, a file, or a seeded
  random batch; optionally diffs a model against a stored report.

Exit codes: 0 ok, 1 usage error, 2 parse or model error, 3 mismatch or
property failure.  Set ``WFTS_COLOR=0`` to disable ANSI styling.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from functools import partial

from . import generators
from .analysis import (
    StrategyMismatch,
    analyze_both,
    analyze_family,
    analyze_products,
    report_to_csv,
    report_to_dict,
    report_to_json,
    report_to_table,
)
from .bench import bench_model, rows_to_csv, rows_to_json_dict, rows_to_table, trend_warnings
from .checks import check_model, check_random_batch
from .dsl import ParseError, parse
from .features import FeatureError
from .model import ModelError, Wfts, expand_lengths

EXIT_OK, EXIT_USAGE, EXIT_MODEL, EXIT_MISMATCH = 0, 1, 2, 3


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    """One resolved invocation: exactly one model source, sane knobs."""

    command: str
    model_path: str | None = None
    generate: str | None = None
    mode: str = "max"
    strategy: str = "family"
    format: str = "table"
    reps: int = 5
    seed: int = 0
    count: int = 100
    witnesses: bool = True
    against: str | None = None

    def __post_init__(self):
        if self.reps < 1:
            raise UsageError("--reps must be >= 1")
        if self.count < 0:
            raise UsageError("--count must be >= 0")
        if self.model_path and self.generate:
            raise UsageError("give either --generate or a model path, not both")

    def load_model(self) -> Wfts:
        if self.generate:
            return _generate(self.generate)
        if self.model_path:
            try:
                with open(self.model_path, encoding="utf-8") as fh:
                    return parse(fh.read())
            except OSError as exc:
                raise ModelError(
                    f"cannot read {self.model_path}: {exc.strerror}"
                ) from exc
        raise UsageError("a model is required: --generate SPEC or a .wfts path")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _color_enabled() -> bool:
    if os.environ.get("WFTS_COLOR", "") == "0":
        return False
    return sys.stdout.isatty()


def _generate(spec: str) -> Wfts:
    name, sep, arg = spec.partition(":")
    fixed = {"grantrequest": generators.grant_request, "minepump": generators.minepump_lite}
    if name in fixed and sep:
        raise UsageError(f"generator {name!r} takes no argument: {spec!r}")
    try:
        if name == "taxi":
            return generators.taxi(int(arg) if arg else 1)
        if name in fixed:
            return fixed[name]()
    except ValueError as exc:
        raise UsageError(f"bad generator argument in {spec!r}: {exc}") from exc
    raise UsageError(f"unknown generator {name!r} (try taxi:N, grantrequest, minepump)")


def _generate_range(spec: str) -> list[tuple[str, Wfts]]:
    name, _, arg = spec.partition(":")
    if name == "taxi" and ".." in arg:
        lo, hi = arg.split("..", 1)
        try:
            sizes = range(int(lo), int(hi) + 1)
        except ValueError as exc:
            raise UsageError(f"bad generator range in {spec!r}: {exc}") from exc
        if not sizes:
            raise UsageError(f"empty generator range in {spec!r}")
        return [(f"taxi:{i}", _generate(f"taxi:{i}")) for i in sizes]
    return [(spec, _generate(spec))]


def _cmd_analyze(cfg: RunConfig) -> int:
    w = expand_lengths(cfg.load_model())
    if cfg.strategy == "family":
        report = analyze_family(w, cfg.mode, cfg.witnesses)
    elif cfg.strategy == "product":
        report = analyze_products(w, cfg.mode, cfg.witnesses)
    else:
        report = analyze_both(w, cfg.mode, cfg.witnesses)
    if cfg.format == "json":
        print(report_to_json(report))
    elif cfg.format == "csv":
        print(report_to_csv(report), end="")
    else:
        print(report_to_table(report, color=_color_enabled()))
    return EXIT_OK


def _cmd_bench(cfg: RunConfig) -> int:
    rows = [
        bench_model(label, w, cfg.reps, cfg.mode)
        for label, w in _generate_range(cfg.generate)
    ]
    if cfg.format == "json":
        print(json.dumps(rows_to_json_dict(rows), indent=2))
    elif cfg.format == "csv":
        print(rows_to_csv(rows), end="")
    else:
        print(rows_to_table(rows))
    for warning in trend_warnings(rows):
        print(warning, file=sys.stderr)
    return EXIT_OK


def _read_report(path: str, mode: str) -> tuple[str, list[tuple[tuple[str, ...], object]]]:
    """The mode and the (features, value) entries of a stored JSON report."""
    try:
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
    except OSError as exc:
        raise ModelError(f"cannot read report {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ModelError(f"report {path} is not JSON text: {exc}") from exc
    try:
        entries = [
            (tuple(str(f) for f in p["features"]), p["value"])
            for p in stored["products"]
        ]
    except (LookupError, TypeError) as exc:
        raise ModelError(
            f"report {path} needs a 'products' list whose entries have "
            f"'features' and 'value'"
        ) from exc
    mode = stored.get("mode", mode)
    if mode not in ("max", "min"):
        raise ModelError(f"{path}: mode must be 'max' or 'min', not {mode!r}")
    return mode, entries


def _against_report(w: Wfts, path: str, mode: str) -> list[str]:
    mode, entries = _read_report(path, mode)
    report = analyze_both(expand_lengths(w), mode)
    current = {
        tuple(p["features"]): p["value"] for p in report_to_dict(report)["products"]
    }
    diffs = []
    for key, value in entries:
        got = current.get(key)
        if got is None:
            diffs.append(f"product {{{','.join(key)}}}: not present in current model")
        elif got != value:
            diffs.append(f"product {{{','.join(key)}}}: expected {value}, got {got}")
    stored_keys = {key for key, _ in entries}
    diffs += [
        f"product {{{','.join(key)}}}: missing from the stored report"
        for key in current
        if key not in stored_keys
    ]
    return diffs


def _cmd_validate(cfg: RunConfig) -> int:
    failures: list[str] = []
    if cfg.generate or cfg.model_path:
        w = cfg.load_model()
        if cfg.against:
            failures += _against_report(w, cfg.against, cfg.mode)
        result = check_model(w, label=cfg.generate or cfg.model_path)
        failures += result.failures
        print(f"checked {cfg.generate or cfg.model_path}: "
              f"{'ok' if not failures else 'FAILED'}")
    else:
        for label, maker in (
            ("taxi:1", lambda: generators.taxi(1)),
            ("grantrequest", generators.grant_request),
            ("minepump", generators.minepump_lite),
        ):
            result = check_model(maker(), label=label)
            failures += result.failures
            print(f"checked {label}: {'ok' if result.ok else 'FAILED'}")
        result = check_random_batch(cfg.seed, cfg.count)
        failures += result.failures
        print(
            f"checked {cfg.count} random models (seed {cfg.seed}): "
            f"{'ok' if result.ok else 'FAILED'}"
        )
    if failures:
        for f in failures:
            print(f, file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


_COMMANDS = {"analyze": _cmd_analyze, "bench": _cmd_bench, "validate": _cmd_validate}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wfts", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    # Sub-commands leave out what is not given: every default is RunConfig's.
    add_command = partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    def add_model_args(p):
        p.add_argument("model_path", metavar="model", nargs="?",
                       help="path to a .wfts model file")
        p.add_argument("--generate", metavar="SPEC",
                       help="built-in model: taxi:N, grantrequest, minepump")
        p.add_argument("--mode", choices=("max", "min"))

    p = add_command("analyze", help="per-product limit-average report")
    add_model_args(p)
    p.add_argument("--strategy", choices=("family", "product", "both"))
    p.add_argument("--format", choices=("table", "json", "csv"))
    p.add_argument("--no-witness", dest="witnesses", action="store_false",
                   help="skip witness cycle extraction")

    p = add_command("bench", help="time family-based vs product-based")
    p.add_argument("--generate", metavar="SPEC", required=True,
                   help="generator spec, ranges allowed: taxi:1..6")
    p.add_argument("--mode", choices=("max", "min"))
    p.add_argument("--reps", type=int)
    p.add_argument("--format", choices=("table", "json", "csv"))

    p = add_command("validate", help="run the cross-validation suites")
    add_model_args(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--count", type=int,
                   help="random models to check when no model is given")
    p.add_argument("--against", metavar="REPORT.json",
                   help="diff the model's analysis against a stored report")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        cfg = RunConfig(**vars(parser.parse_args(argv)))
        return _COMMANDS[cfg.command](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, ModelError, FeatureError) as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except StrategyMismatch as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
