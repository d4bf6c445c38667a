"""Timing comparison of the two analysis strategies.

Each row builds one model, runs a discarded warm-up of both strategies, then
times ``reps`` runs each and reports mean seconds with relative standard
deviation.  Absolute numbers are machine-dependent; the interesting output
is the family/product ratio per row.  The harness reports whatever it
measures — on models with few products and little sharing the family-based
strategy can lose, and that is shown as-is.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from .analysis import analyze_family, analyze_products
from .model import Wfts, expand_lengths

# Rows with at least this many features warn when family-based is not faster.
TREND_MIN_FEATURES = 4


@dataclass
class BenchRow:
    label: str
    features: int
    products: int
    states: int
    family_mean_s: float
    family_rsd_pct: float
    product_mean_s: float
    product_rsd_pct: float

    @property
    def speedup(self) -> float:
        if self.family_mean_s == 0:
            return float("inf")
        return self.product_mean_s / self.family_mean_s


def _time_runs(fn, reps: int) -> tuple[float, float]:
    fn()  # warm-up, excluded
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    mean = statistics.fmean(samples)
    spread = statistics.stdev(samples) if reps > 1 else 0.0
    rsd = (spread / mean * 100.0) if mean > 0 else 0.0
    return mean, rsd


def bench_model(label: str, w: Wfts, reps: int, mode: str = "max") -> BenchRow:
    expanded = expand_lengths(w)
    fam_mean, fam_rsd = _time_runs(lambda: analyze_family(expanded, mode), reps)
    prod_mean, prod_rsd = _time_runs(lambda: analyze_products(expanded, mode), reps)
    return BenchRow(
        label,
        len(w.feature_model.features),
        len(w.feature_model.products),
        len(expanded.states),
        fam_mean,
        fam_rsd,
        prod_mean,
        prod_rsd,
    )


def trend_warnings(rows: list[BenchRow]) -> list[str]:
    """Soft check: family-based should win once enough features share work."""
    warnings = []
    for row in rows:
        if row.features >= TREND_MIN_FEATURES and row.family_mean_s >= row.product_mean_s:
            warnings.append(
                f"warning: {row.label}: family-based ({row.family_mean_s:.3f}s) "
                f"not faster than product-based ({row.product_mean_s:.3f}s)"
            )
    return warnings


def rows_to_table(rows: list[BenchRow]) -> str:
    header = (
        "model", "features", "products", "states",
        "family (s)", "product (s)", "speedup",
    )
    body = [header]
    for r in rows:
        body.append(
            (
                r.label,
                str(r.features),
                str(r.products),
                str(r.states),
                f"{r.family_mean_s:.3f} ±{r.family_rsd_pct:.1f}%",
                f"{r.product_mean_s:.3f} ±{r.product_rsd_pct:.1f}%",
                f"{r.speedup:.2f}x",
            )
        )
    widths = [max(len(row[i]) for row in body) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in body
    )


def rows_to_csv(rows: list[BenchRow]) -> str:
    lines = [
        "model,features,products,states,family_mean_s,family_rsd_pct,"
        "product_mean_s,product_rsd_pct,speedup"
    ]
    for r in rows:
        lines.append(
            f"{r.label},{r.features},{r.products},{r.states},"
            f"{r.family_mean_s:.6f},{r.family_rsd_pct:.2f},"
            f"{r.product_mean_s:.6f},{r.product_rsd_pct:.2f},{r.speedup:.3f}"
        )
    return "\n".join(lines) + "\n"


def rows_to_json_dict(rows: list[BenchRow]) -> list[dict]:
    return [
        {
            "model": r.label,
            "features": r.features,
            "products": r.products,
            "states": r.states,
            "family_mean_s": round(r.family_mean_s, 6),
            "family_rsd_pct": round(r.family_rsd_pct, 2),
            "product_mean_s": round(r.product_mean_s, 6),
            "product_rsd_pct": round(r.product_rsd_pct, 2),
            "speedup": round(r.speedup, 3),
        }
        for r in rows
    ]
