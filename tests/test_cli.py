import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from wfts import generators
from wfts.cli import build_parser, main
from wfts.dsl import serialize
from wfts.generators import taxi

from test_checks import cycle_source


@pytest.fixture
def taxi_file(tmp_path):
    path = tmp_path / "taxi1.wfts"
    path.write_text(serialize(taxi(1)), encoding="utf-8")
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_table(capsys, monkeypatch):
    monkeypatch.setenv("WFTS_COLOR", "0")
    code, out, _ = run(capsys, "analyze", "--generate", "taxi:1", "--mode", "max")
    assert code == 0
    assert "12.17" in out and "14.60" in out
    assert "\x1b" not in out


def test_analyze_json_strategy_both(capsys):
    code, out, _ = run(
        capsys, "analyze", "--generate", "taxi:1", "--strategy", "both",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    values = {tuple(p["features"]): p["decimal"] for p in data["products"]}
    assert values[()] == "12.17"
    assert values[("S", "T", "L1")] == "14.60"
    assert set(data["timing"]) == {"family_ms", "witness_ms", "product_ms"}


def test_successive_calls_do_not_share_options(capsys):
    """One parser serves every call in a process; no option given to one
    call may reach the next, not even from a call that ends in a usage
    error after parsing some of its options."""

    def analyze(*options):
        code, out, _ = run(
            capsys, "analyze", "--generate", "grantrequest", "--format", "json",
            *options,
        )
        assert code == 0
        data = json.loads(out)
        return data["mode"], all(p["witness"] for p in data["products"])

    def usage_error():
        code, out, err = run(
            capsys, "analyze", "--generate", "grantrequest", "--mode", "min",
            "--no-witness", "--format", "xml",
        )
        assert (code, out) == (1, "") and err.startswith("usage error")

    assert build_parser() is build_parser()
    assert analyze("--mode", "min") == ("min", True)
    assert analyze() == ("max", True)
    assert analyze("--no-witness") == ("max", False)
    assert analyze() == ("max", True)
    analyze("--mode", "min", "--no-witness")
    usage_error()
    assert analyze() == ("max", True)
    usage_error()
    assert analyze("--mode", "min") == ("min", True)


def test_analyze_csv(capsys):
    code, out, _ = run(
        capsys, "analyze", "--generate", "grantrequest", "--format", "csv",
        "--mode", "min",
    )
    assert code == 0
    assert out.splitlines()[0] == "product,value,decimal,witness"
    assert "A,-1/2,-0.50" in out


def test_analyze_model_file(capsys, taxi_file):
    code, out, _ = run(capsys, "analyze", str(taxi_file))
    assert code == 0
    assert "12.88" in out


def test_missing_file_is_a_model_error(capsys):
    code, _, err = run(capsys, "analyze", "missing.wfts")
    assert code == 2
    assert "missing.wfts" in err


@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_a_file_that_is_not_utf8_is_a_model_error(capsys, tmp_path, command):
    bad = tmp_path / "bad.wfts"
    bad.write_bytes(b"features { }\n\xff\n")
    code, out, err = run(capsys, command, str(bad))
    assert code == 2
    assert out == ""
    assert err == f"model error: cannot read {bad}: not UTF-8 text (byte 0xff at offset 13)\n"


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.wfts"
    bad.write_text("features { }", encoding="utf-8")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "model error" in err


@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_a_number_past_the_int_string_limit_exits_2_without_a_traceback(tmp_path, command):
    bad = tmp_path / "long.wfts"
    bad.write_text(f"features {{ }}\nstates {{ s0 }}\ninit {{ s0 }}\n"
                   f"trans s0 -> s0 weight={'9' * 5000}\n", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-m", "wfts.cli", command, str(bad)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2
    assert done.stdout == "" and "Traceback" not in done.stderr
    assert done.stderr == "model error: 4:23: number of 5000 digits is too long to read\n"


@pytest.mark.parametrize("attribute", ["weight", "length"])
def test_non_decimal_digit_is_a_parse_error(capsys, tmp_path, attribute):
    # "²" is a digit to str.isdigit but not a decimal one, and Fraction()
    # and int() reject it: the lexer must, with a position.
    bad = tmp_path / "bad.wfts"
    bad.write_text(
        f"features {{ }}\nstates {{ s0 }}\ninit {{ s0 }}\ntrans s0 -> s0 {attribute}=\u00b2\n",
        encoding="utf-8",
    )
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "4:23: unexpected character" in err


def test_usage_errors(capsys):
    code, _, err = run(capsys, "analyze")
    assert code == 1
    code, _, err = run(capsys, "analyze", "--generate", "warp:9")
    assert code == 1
    code, _, err = run(capsys, "analyze", "--generate", "taxi:1", "x.wfts")
    assert code == 1


def test_validate_given_model(capsys):
    code, out, _ = run(capsys, "validate", "--generate", "grantrequest")
    assert code == 0
    assert "ok" in out


def test_validate_random_batch(capsys):
    code, out, _ = run(capsys, "validate", "--seed", "7", "--count", "5")
    assert code == 0
    assert "5 random models" in out


def test_validate_against_stored_report(capsys, tmp_path, taxi_file):
    code, out, _ = run(
        capsys, "analyze", "--generate", "taxi:1", "--format", "json"
    )
    stored = tmp_path / "expected.json"
    stored.write_text(out, encoding="utf-8")

    code, _, _ = run(
        capsys, "validate", "--generate", "taxi:1", "--against", str(stored)
    )
    assert code == 0

    # Perturb one weight in the model file: the diff must name the products.
    tampered = taxi_file.read_text(encoding="utf-8").replace("weight=45", "weight=46")
    taxi_file.write_text(tampered, encoding="utf-8")
    code, out, err = run(
        capsys, "validate", str(taxi_file), "--against", str(stored)
    )
    assert code == 3
    assert "expected 73/6" in err


def test_bench_csv(capsys):
    code, out, _ = run(
        capsys, "bench", "--generate", "taxi:1..2", "--reps", "1",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("model,features,products,states")
    assert len(lines) == 3
    assert lines[1].startswith("taxi:1,3,8,20,")


def test_bench_single_model_table(capsys):
    code, out, _ = run(
        capsys, "bench", "--generate", "minepump", "--reps", "1"
    )
    assert code == 0
    assert "minepump" in out
    assert "family (s)" in out and "product (s)" in out


def test_bench_times_the_system_as_written(monkeypatch):
    import sys

    from wfts import model
    from wfts.bench import bench_model

    calls = []
    expand = model.expand_lengths

    def counted(w):
        calls.append(w)
        return expand(w)

    for name, module in list(sys.modules.items()):
        if name.startswith("wfts") and hasattr(module, "expand_lengths"):
            monkeypatch.setattr(module, "expand_lengths", counted)
    w = taxi(2)
    row = bench_model("taxi:2", w, reps=1)
    assert calls == []
    assert row.states == len(expand(w).states) == 28


class TestRunConfig:
    def test_reps_must_be_positive(self):
        from wfts.cli import RunConfig, UsageError

        with pytest.raises(UsageError):
            RunConfig(command="bench", generate="taxi:1", reps=0)

    def test_exactly_one_model_source(self):
        from wfts.cli import RunConfig, UsageError

        with pytest.raises(UsageError):
            RunConfig(command="analyze", generate="taxi:1", model_path="x.wfts")
        with pytest.raises(UsageError):
            RunConfig(command="analyze").load_model()

    def test_generator_specs(self):
        from wfts.cli import RunConfig

        assert len(RunConfig(command="analyze", generate="taxi:2").load_model().states) == 10
        assert RunConfig(command="analyze", generate="minepump").load_model()
        assert RunConfig(command="analyze", generate="grantrequest").load_model()


def test_analyze_featureless_model_file(capsys, tmp_path):
    path = tmp_path / "plain.wfts"
    path.write_text(
        "features { }\nstates { a, b }\ninit { a }\n"
        "trans a -> b weight=1\ntrans b -> a weight=3\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "analyze", str(path), "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "-,2,2.00,a->b"


@pytest.mark.parametrize(
    "content",
    [
        None,  # no such file
        "{not json",
        "{}",
        '{"products": [{"value": "1"}]}',
        '{"products": [{"features": []}]}',
    ],
    ids=["missing", "not-json", "empty-object", "no-features", "no-value"],
)
def test_validate_against_bad_report_is_a_model_error(capsys, tmp_path, content):
    report = tmp_path / "report.json"
    if content is not None:
        report.write_text(content, encoding="utf-8")
    code, _, err = run(
        capsys, "validate", "--generate", "grantrequest", "--against", str(report)
    )
    assert code == 2
    assert err.startswith("model error:")
    assert "report.json" in err


def test_validate_against_report_missing_products(capsys, tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text('{"products": []}', encoding="utf-8")
    code, _, err = run(
        capsys, "validate", "--generate", "grantrequest", "--against", str(empty)
    )
    assert code == 3
    assert "product {}: missing from the stored report" in err
    assert "product {G,A}: missing from the stored report" in err

    code, out, _ = run(capsys, "analyze", "--generate", "taxi:1", "--format", "json")
    smaller = tmp_path / "taxi1.json"
    smaller.write_text(out, encoding="utf-8")
    code, _, err = run(
        capsys, "validate", "--generate", "taxi:2", "--against", str(smaller)
    )
    assert code == 3
    missing = [line for line in err.splitlines() if "missing from the stored report" in line]
    # taxi:2 has twice taxi:1's products; the stored ones still agree.
    assert len(missing) == 8
    assert all("L2" in line for line in missing)
    assert "expected" not in err


def test_validate_against_unreadable_report_is_a_model_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "validate", "--generate", "grantrequest", "--against", str(tmp_path)
    )
    assert code == 2
    assert err.startswith("model error: cannot read report")


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--generate", "grantrequest:..3"),
        ("analyze", "--generate", "minepump:2"),
        ("bench", "--generate", "taxi:1..x"),
        ("bench", "--generate", "taxi:3..1"),
        ("validate", "--count", "-5"),
    ],
    ids=[
        "analyze-grantrequest:..3", "analyze-minepump:2", "bench-taxi:1..x",
        "bench-taxi:3..1", "validate-count:-5",
    ],
)
def test_bad_generator_arguments_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("usage error:")
    assert out == ""


def test_huge_taxi_license_count_is_rejected_before_building(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", "--generate", "taxi:99999999999999")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert err.startswith("usage error:")
    assert out == ""


def test_out_of_bound_taxi_range_builds_no_model(capsys, monkeypatch):
    builds = []

    def counting_taxi(licenses=1):
        builds.append(licenses)
        return taxi(1)

    monkeypatch.setattr(generators, "taxi", counting_taxi)
    code, out, err = run(capsys, "bench", "--generate", "taxi:1..99999999999999")
    assert (code, out, builds) == (1, "", [])
    assert err == (
        "usage error: bad generator argument in 'taxi:19': "
        "licenses must be between 0 and 18\n"
    )


# Every range that builds stays within taxi:0..3, so each case is quick.
SIZES = st.sampled_from([-2, -1, 0, 1, 2, 3, 19, 10**14])
BENCH_SPECS = st.one_of(
    st.builds("taxi:{}..{}".format, SIZES, SIZES),
    st.sampled_from(["taxi:x", "taxi:1..x", "taxi:3", "minepump", "minepump:1",
                     "grantrequest", "pump", "", ":"]),
)


def option(name, values):
    """``[name, value]`` for a drawn value, nothing when the option is left out."""
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [name, str(v)]))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(spec="taxi:1..100000000000000", reps=["--reps", "1"], fmt=[], mode=[])
@example(spec="taxi:-2..19", reps=["--reps", "-1"], fmt=[], mode=[])
@given(
    spec=BENCH_SPECS,
    reps=option("--reps", [-1, 0, 1]),
    fmt=option("--format", ["table", "json", "csv", "xml"]),
    mode=option("--mode", ["max", "min", "avg"]),
)
def test_bench_arguments_end_in_an_exit_code(capsys, spec, reps, fmt, mode):
    # Left out, --reps is 5; the drawn specs that build cost little even so.
    code, _, _ = run(capsys, "bench", "--generate", spec, *reps, *fmt, *mode)
    assert code in (0, 1, 2)


FUZZ_BASE = """features { G, A }
constraint !(G && A) || G
states { s0, s1, s2 }
init { s0 }
trans s0 -> s1 [G || A] action=req weight=2.5 length=2
trans s1 -> s0 [!G] weight=-1
trans s1 -> s2 weight=0
trans s2 -> s2 [A] weight=3
"""
GUARD = FUZZ_BASE.index("G || A")
LENGTH = FUZZ_BASE.index("length=2") + len("length=")
# No piece carries a decimal digit, so only deletions that join digits grow a
# length or a weight, and no mutation makes a model too large to analyze in a
# moment.
PIECES = (
    "&&", "||", "!", "(", ")", "[", "]", "{", "}", "->", "=", ",", "-", ".",
    "#", " ", "\n", "\t", "G", "A", "x", "s0", "s2", "true", "false", "trans",
    "weight", "length", "action", "features", "states", "init", "constraint",
    "\u00e9", "\u00b2", "\r", "\u00a0", "\u2028",
)
EDITS = st.lists(
    st.tuples(st.integers(0, len(FUZZ_BASE)), st.integers(0, 8), st.sampled_from(PIECES)),
    max_size=5,
)


def run_mutated(capsys, tmp_path, edits, *command):
    """Each edit replaces ``cut`` characters at ``pos`` by a piece of the
    format's vocabulary; whatever comes out, the command ends in a
    documented exit code instead of an exception."""
    text = FUZZ_BASE
    for pos, cut, piece in edits:
        text = text[:pos] + piece + text[pos + cut:]
    path = tmp_path / "fuzz.wfts"
    path.write_text(text, encoding="utf-8")
    code, _, _ = run(capsys, *command, str(path))
    assert code in (0, 1, 2, 3)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(edits=[(GUARD, 6, "G" + " && G" * 3000)])
@example(edits=[(GUARD, 6, "!" * 5000 + "G")])
@example(edits=[(GUARD, 6, "(" * 2000 + "G" + ")" * 2000)])
@given(edits=EDITS)
def test_mutated_models_end_in_an_exit_code(capsys, tmp_path, edits):
    run_mutated(capsys, tmp_path, edits, "analyze")


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(edits=[(GUARD, 6, "G" + " && G" * 3000)])
# Deleting characters can join digits into a long length; the expansion then
# outgrows the brute-force oracle, which once raised ValueError.
@example(edits=[(LENGTH, 1, "60")])
@given(edits=EDITS)
def test_mutated_models_end_in_an_exit_code_under_validate(capsys, tmp_path, edits):
    run_mutated(capsys, tmp_path, edits, "validate")


def test_validate_beyond_the_oracle_is_a_model_error(capsys, tmp_path):
    path = tmp_path / "cycle.wfts"
    path.write_text(cycle_source(49))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "brute-force oracle stops at 48" in err


def test_validate_passes_taxi_5(capsys):
    # 52 unit states but at most 24 declared ones: within the oracle's limit.
    code, out, err = run(capsys, "validate", "--generate", "taxi:5")
    assert code == 0
    assert "ok" in out and err == ""
