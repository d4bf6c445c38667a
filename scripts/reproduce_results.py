#!/usr/bin/env python3
"""Regenerate the headline results: per-product limit averages for the
bundled examples and the family-vs-product timing table.

Usage:
    python scripts/reproduce_results.py [--reps N] [--max-taxi N] [--out DIR]

Writes CSV files when --out is given, otherwise prints everything.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from wfts.analysis import analyze_both, report_to_csv, report_to_table
from wfts.bench import bench_model, rows_to_csv, rows_to_table, trend_warnings
from wfts.generators import grant_request, minepump_lite, taxi


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--max-taxi", type=int, default=6)
    parser.add_argument("--out", type=pathlib.Path, default=None)
    args = parser.parse_args()

    sections = []
    for label, model, mode in [
        ("taxi:1", taxi(1), "max"),
        ("grantrequest", grant_request(), "max"),
        ("grantrequest", grant_request(), "min"),
        ("minepump", minepump_lite(), "max"),
        ("minepump", minepump_lite(), "min"),
    ]:
        report = analyze_both(model, mode, witnesses=True)
        sections.append((f"{label} ({mode})", report))
        print(f"== {label} ({mode}, both strategies agree) ==")
        print(report_to_table(report))
        print()

    rows = [
        bench_model(f"taxi:{n}", taxi(n), args.reps)
        for n in range(1, args.max_taxi + 1)
    ]
    rows.append(bench_model("minepump", minepump_lite(), args.reps))
    print(f"== timings (reps={args.reps}, warm-up excluded) ==")
    print(rows_to_table(rows))
    for warning in trend_warnings(rows):
        print(warning)

    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        for name, report in sections:
            safe = name.replace(" ", "_").replace("(", "").replace(")", "")
            (args.out / f"values_{safe}.csv").write_text(report_to_csv(report))
        (args.out / "timings.csv").write_text(rows_to_csv(rows))
        print(f"\nwrote CSVs to {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
