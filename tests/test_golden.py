"""Byte-for-byte ``analyze`` output on the bundled models.

The files under ``tests/golden/`` pin the table, CSV and JSON formats and
the choice of witness cycle, in both modes and both strategies.  Rewrite
them only for an intended format change, with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from wfts.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
MODELS = ("taxi:1", "taxi:2", "taxi:3", "taxi:5", "grantrequest", "minepump")
MODES = ("max", "min")
VARIANTS = {
    "family.txt": ("--format", "table"),
    "family.csv": ("--format", "csv"),
    "family.json": ("--format", "json"),
    "product.csv": ("--strategy", "product", "--format", "csv"),
}
CASES = [(spec, mode, variant) for spec in MODELS for mode in MODES for variant in VARIANTS]


def golden_path(spec: str, mode: str, variant: str) -> Path:
    return GOLDEN / f"{spec.replace(':', '-')}.{mode}.{variant}"


def without_timing(text: str) -> str:
    """The JSON text with its last member, the machine-dependent
    ``"timing"`` object, cut out and every other byte kept."""
    data = json.loads(text)
    timing = data.pop("timing")
    head, cut, member = text.rpartition(',\n  "timing": ')
    assert cut and member.endswith("\n}\n")
    assert json.loads(member.removesuffix("\n}\n")) == timing
    assert json.loads(head + "\n}") == data
    return head + "\n}\n"


def render(spec: str, mode: str, variant: str) -> str:
    """The command's standard output; JSON loses its machine-dependent timing."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["analyze", "--generate", spec, "--mode", mode, *VARIANTS[variant]])
    assert code == 0
    text = out.getvalue()
    return without_timing(text) if variant.endswith(".json") else text


@pytest.mark.parametrize("spec,mode,variant", CASES)
def test_output_matches_golden(spec, mode, variant, monkeypatch):
    monkeypatch.setenv("WFTS_COLOR", "0")
    expected = golden_path(spec, mode, variant).read_bytes()
    assert render(spec, mode, variant).encode("utf-8") == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        golden_path(*case).write_bytes(render(*case).encode("utf-8"))
