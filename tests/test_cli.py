"""Command-line interface: outputs, determinism, and exit codes."""

import json
import subprocess
import sys
import time

import pytest

import lamvar.variation
from lamvar import LambdaSequence, PropertyViolationError, bernstein_of, kantorovich_of, named_function
from lamvar.cli import main
from lamvar.serialize import format_float
from lamvar.variation import IntervalSystem, VariationResult, wiener_profile


@pytest.fixture()
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return {
        "hat": write("hat.json", '{"type": "named", "name": "hat"}'),
        "identity": write("identity.json", '{"type": "named", "name": "identity"}'),
        "ce": write("ce.json", '{"type": "named", "name": "counterexample"}'),
        "abs_mid": write("abs_mid.json", '{"type": "named", "name": "abs_mid"}'),
        "zigzag": write("zigzag.json", json.dumps({
            "type": "plf",
            "points": [[k / 30, k % 2] for k in range(31)],
        })),
        "const": write("const.json", '{"family": "constant", "params": {"c": 1}}'),
        "lin": write("lin.json", '{"family": "linear", "params": {"a": 1, "b": 0}}'),
        "tiny": write("tiny.json", '{"family": "constant", "params": {"c": 1e-309}}'),
        "bad": write("bad.json", '{"type": "plf", "points": [[0, 0], [1]]}'),
        "nan_plf": write("nan_plf.json",
                         '{"type": "plf", "points": [[0, NaN], [0.5, 1], [1, 0]]}'),
        "bern": write("bern.json", '{"type": "bernstein", "coeffs": [0, 1]}'),
        "inf_bern": write("inf_bern.json", '{"type": "bernstein", "coeffs": [0, Infinity, 1]}'),
        "wide_bern": write("wide_bern.json",
                           '{"type": "bernstein", "coeffs": [1e308, -1e308, 1e308]}'),
        "wide_plf": write("wide_plf.json",
                          '{"type": "plf", "points": [[0, 0], [0.5, 1e308], [1, -1e308]]}'),
        "high_plf": write("high_plf.json",
                          '{"type": "plf", "points": [[0, 1.5e308], [0.5, 0], [1, 0]]}'),
        "tall_plf": write("tall_plf.json",
                          '{"type": "plf", "points": [[0, 0], [0.5, 1e308], [1, 0]]}'),
        "dir": tmp_path,
    }


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- variation -----------------------------------------------------------

def test_variation_hat_constant(capsys, files):
    code, out, _ = run(capsys, ["variation", "--fn", files["hat"], "--lambda", files["const"]])
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 2.0
    assert doc["method"] == "exact"
    assert doc["witness"] == [[0.0, 0.5], [0.5, 1.0]]


def test_variation_tail(capsys, files):
    code, out, _ = run(capsys, ["variation", "--fn", files["hat"], "--lambda",
                                files["lin"], "--tail", "1"])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1.0 / 2 + 1.0 / 3, abs=1e-12)


def test_variation_restricted(capsys, files):
    code, out, _ = run(capsys, ["variation", "--fn", files["ce"], "--lambda",
                                files["lin"], "--delta", "0.75"])
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(0.8125, abs=1e-12)
    assert doc["method"] == "exact"


def test_variation_malformed_input_exits_2(capsys, files):
    code, _, err = run(capsys, ["variation", "--fn", files["bad"], "--lambda", files["const"]])
    assert code == 2
    assert "points[1]" in err


@pytest.mark.parametrize(
    "argv, field",
    [
        (["variation", "--fn", "nan_plf", "--lambda", "const"], "points[0][1]"),
        (["operator", "--op", "kantorovich", "--fn", "nan_plf", "-n", "3"], "points[0][1]"),
        (["variation", "--fn", "inf_bern", "--lambda", "const"], "coeffs[1]"),
    ],
    ids=["variation-nan", "kantorovich-nan", "variation-infinity"],
)
def test_non_finite_input_exits_2(capsys, files, argv, field):
    code, out, err = run(capsys, [files.get(arg, arg) for arg in argv])
    assert code == 2
    assert out == ""
    assert f"{field}: must be finite" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["variation", "--fn", "wide_bern", "--lambda", "const"],
         "coeffs: differences of neighbouring coefficients overflow"),
        (["variation", "--fn", "wide_plf", "--lambda", "const"],
         "points[2][1]: increment from the previous point overflows"),
        (["variation", "--fn", "tall_plf", "--lambda", "const"],
         "fn: the variation overflows"),
        (["variation", "--fn", "tall_plf", "--lambda", "const", "--delta", "0.5"],
         "fn: the variation overflows"),
        (["variation", "--fn", "hat", "--lambda", "tiny", "--delta", "0.5"],
         "fn: the variation overflows"),
        (["converge", "--fn", "high_plf", "--lambda", "lin", "--schedule", "1,2"],
         "fn: the norm overflows"),
    ],
    ids=["bernstein-derivative", "plf-increment", "variation", "restricted-variation",
         "restricted-weights", "converge-norm"],
)
def test_overflow_exits_2(capsys, files, argv, message):
    # before these checks the first input printed an "exact" 0 and the others
    # died in a traceback while printing infinity; with the weight 1e-309 the
    # increments are finite but each quotient by it is not
    code, out, err = run(capsys, [files.get(arg, arg) for arg in argv])
    assert code == 2
    assert out == ""
    assert message in err


def test_variation_missing_file_exits_2(capsys, files):
    code, _, err = run(capsys, ["variation", "--fn", str(files["dir"] / "no.json"),
                                "--lambda", files["const"]])
    assert code == 2
    assert "error:" in err


def test_variation_too_many_critical_points_exits_4(capsys, files):
    code, _, err = run(capsys, ["variation", "--fn", files["zigzag"], "--lambda", files["const"]])
    assert code == 4
    assert "grid_oracle" in err


def test_usage_errors_exit_1(capsys, files):
    assert run(capsys, ["variation", "--fn", files["hat"]])[0] == 1
    assert run(capsys, ["operator", "--op", "fourier", "--fn", files["hat"], "-n", "2"])[0] == 1
    assert run(capsys, ["no-such-command"])[0] == 1


def test_help_exits_0(capsys):
    assert run(capsys, ["--help"])[0] == 0


def test_csv_columns_only_in_converge_help(capsys):
    # diminish writes JSON only; converge writes the CSV table
    assert "CSV columns" not in run(capsys, ["diminish", "--help"])[1]
    assert "CSV columns" in run(capsys, ["converge", "--help"])[1]


# -- operator ------------------------------------------------------------

def test_operator_coeffs(capsys, files):
    code, out, _ = run(capsys, ["operator", "--op", "bernstein", "--fn", files["hat"], "-n", "2"])
    assert code == 0
    assert out.splitlines() == ["index,coefficient", "0,0", "1,1", "2,0"]
    # a Bernstein input is integrated exactly: the identity's means over the n + 1 cells
    code, out, _ = run(capsys, ["operator", "--op", "kantorovich", "--fn", files["bern"], "-n", "3"])
    assert code == 0
    assert out.splitlines() == ["index,coefficient", "0,0.125", "1,0.375", "2,0.625", "3,0.875"]


def test_operator_samples(capsys, files):
    code, out, _ = run(capsys, ["operator", "--op", "kantorovich", "--fn", files["hat"],
                                "-n", "2", "--emit", "samples:5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 6
    x, v = lines[3].split(",")
    assert float(x) == 0.5


def test_operator_samples_match_one_evaluation_per_sample(capsys, files):
    # degree 200: 163 samples a chunk, so 400 samples take three evaluation
    # calls, the last one short; degree 3 runs the kernel's list loop
    for op, n, count in (("bernstein", 200, 400), ("kantorovich", 200, 400), ("bernstein", 3, 7)):
        code, out, _ = run(capsys, ["operator", "--op", op, "--fn", files["abs_mid"],
                                    "-n", str(n), "--emit", f"samples:{count}"])
        p = (bernstein_of if op == "bernstein" else kantorovich_of)(named_function("abs_mid"), n)
        lines = ["x,value"]
        for i in range(count):
            x = i / (count - 1)
            lines.append(f"{format_float(x)},{format_float(p.eval(x))}")
        assert (code, out) == (0, "\n".join(lines) + "\n")


def test_operator_bad_emit_exits_2(capsys, files):
    code, _, err = run(capsys, ["operator", "--op", "bernstein", "--fn", files["hat"],
                                "-n", "2", "--emit", "samples:x"])
    assert code == 2
    assert "emit" in err
    code, out, err = run(capsys, ["operator", "--op", "bernstein", "--fn", files["hat"],
                                  "-n", "2", "--emit", "bogus"])
    assert (code, out) == (2, "")
    assert err == "error: emit: expected 'coeffs' or 'samples:K', got 'bogus'\n"


def test_operator_degree_above_cap_exits_4(capsys, files):
    for op in ("bernstein", "kantorovich"):
        code, out, err = run(capsys, ["operator", "--op", op, "--fn", files["abs_mid"],
                                      "-n", "1000000000"])
        assert code == 4
        assert out == ""
        assert "degree cap of 65536" in err


@pytest.mark.parametrize("argv, message", [
    (["variation", "--fn", "identity", "--lambda", "lin", "--delta", "0.5",
      "--resolution", "1000000000"],
     "the 1000000001 grid points of resolution 1000000000 exceed the restricted-solver "
     "cap of 512; lower the resolution"),
    (["counterexample", "--lambda", "lin", "--nmax", "70000"],
     "degree 65537 exceeds the degree cap of 65536"),
    (["counterexample", "--lambda", "lin", "--nmax", "1983"],
     "de Casteljau work 1300604752 (the sum of n*n/2 over the degrees) exceeds the budget "
     "of 1300000000"),
    (["diminish", "--nmax", "70000"],
     "degree 70000 exceeds the degree cap of 65536"),
    (["diminish", "--cases", "1", "--nmax", "65536"],
     "diminish work 187654541606912 (cases times the sum of n*n + 2000 over a case's "
     "images) exceeds the budget of 70000000"),
    # the per-image term: many cheap cases, or a few cases of many images
    (["diminish", "--cases", "53846", "--nmax", "12"],
     "diminish work 2654607800 (cases times the sum of n*n + 2000 over a case's images) "
     "exceeds the budget of 70000000"),
    (["diminish", "--cases", "10", "--nmax", "218"],
     "diminish work 78264180 (cases times the sum of n*n + 2000 over a case's images) "
     "exceeds the budget of 70000000"),
    (["converge", "--fn", "zigzag", "--lambda", "lin", "--schedule", "4,5200"],
     "converge work 811200480 (segments times the sum of n*n over the rows within the "
     "degree cap) exceeds the budget of 800000000"),
    (["operator", "--op", "bernstein", "--fn", "hat", "-n", "3", "--emit", "samples:30000000"],
     "30000000 samples exceed the sample cap of 1000"),
    (["operator", "--op", "bernstein", "--fn", "hat", "-n", "2000", "--emit", "samples:1000"],
     "de Casteljau work 2000000000 (K*n*n/2 for K samples at degree n) exceeds the budget "
     "of 1300000000"),
], ids=["resolution", "counterexample-degree", "counterexample-work", "diminish-degree",
        "diminish-work", "diminish-image-work", "diminish-image-work-high-degree",
        "converge-work", "operator-samples", "operator-samples-work"])
def test_resource_cap_trips_before_the_work(capsys, files, argv, message):
    started = time.perf_counter()
    code, out, err = run(capsys, [files.get(arg, arg) for arg in argv])
    assert time.perf_counter() - started < 2.0
    assert code == 4
    assert out == ""
    assert message in err


# -- campaigns -----------------------------------------------------------

def test_diminish_small(capsys, files):
    code, out, _ = run(capsys, ["diminish", "--cases", "5", "--nmax", "4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["violation_count"] == 0
    assert len(doc["cases"]) == 5


def test_diminish_out_file(capsys, files):
    path = str(files["dir"] / "report.json")
    code, out, _ = run(capsys, ["diminish", "--cases", "3", "--nmax", "3", "--out", path])
    assert code == 0
    assert json.loads(out)["out"] == path
    doc = json.loads(open(path).read())
    assert doc["campaign"] == "diminish"


def test_diminish_bad_family_exits_2(capsys, files):
    code, _, err = run(capsys, ["diminish", "--cases", "2", "--lambdas", "constant,weird"])
    assert code == 2
    assert "unknown family" in err
    code, out, err = run(capsys, ["diminish", "--cases", "2", "--lambdas", ","])
    assert (code, out) == (2, "")
    assert err == "error: lambdas: expected a comma-separated list\n"


def test_diminish_ops_picks_the_operators(capsys, files):
    code, out, _ = run(capsys, ["diminish", "--cases", "2", "--nmax", "3", "--ops", "kantorovich"])
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["operators"] == "kantorovich"
    assert [case["outputs"]["worst_op"] for case in doc["cases"]] == ["kantorovich"] * 2
    code, out, err = run(capsys, ["diminish", "--cases", "2", "--ops", "fourier"])
    assert (code, out) == (1, "")
    assert "invalid choice: 'fourier'" in err


def test_out_into_missing_directory_exits_2(capsys, files):
    path = str(files["dir"] / "missing" / "report.json")
    code, out, err = run(capsys, ["diminish", "--cases", "2", "--nmax", "2", "--out", path])
    assert (code, out) == (2, "")
    assert err == f"error: out: cannot write {path}: No such file or directory\n"


def test_counterexample_cli(capsys, files):
    code, out, _ = run(capsys, ["counterexample", "--lambda", files["lin"]])
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["baseline"] == pytest.approx(0.8125, abs=1e-12)
    assert doc["summary"]["min_excess"] > 0.0


def test_counterexample_constant_weights_exit_2(capsys, files):
    code, _, err = run(capsys, ["counterexample", "--lambda", files["const"]])
    assert code == 2
    assert "term" in err


def test_converge_csv_stdout(capsys, files):
    code, out, _ = run(capsys, ["converge", "--fn", files["abs_mid"], "--lambda",
                                files["lin"], "--schedule", "2,4,8,16"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "case_id,inputs_digest,key_values,margin,violation"
    assert len(lines) == 5
    # a row above the degree cap is skipped and does not count against the
    # work budget, which it alone would pass
    code, out, _ = run(capsys, ["converge", "--fn", files["abs_mid"], "--lambda",
                                files["lin"], "--schedule", "2,4,8,16,70000"])
    assert code == 0
    assert "skipped=true" in out.splitlines()[-1]


def test_converge_out_file(capsys, files):
    path = str(files["dir"] / "table.csv")
    code, _, _ = run(capsys, ["converge", "--fn", files["abs_mid"], "--lambda",
                              files["lin"], "--schedule", "2,4,8,16", "--out", path])
    assert code == 0
    assert open(path).read().startswith("case_id,")


def test_converge_stalled_trend_exits_3(capsys, files):
    code, out, _ = run(capsys, ["converge", "--fn", files["hat"], "--lambda",
                                files["lin"], "--schedule", "2,3"])
    assert code == 3


def test_converge_bad_schedule_exits_2(capsys, files):
    code, _, err = run(capsys, ["converge", "--fn", files["hat"], "--lambda",
                                files["lin"], "--schedule", "2,two"])
    assert code == 2
    assert "schedule" in err


# -- profiles and ratios -------------------------------------------------

def test_wiener_profile_cli(capsys, files):
    code, out, _ = run(capsys, ["wiener", "--fn", files["identity"], "--lambda",
                                files["lin"], "--deltas", "0.5,0.25"])
    assert code == 0
    prof = json.loads(out)["profile"]
    assert prof[0] == [0.5, 0.75]
    assert prof[1][1] == pytest.approx(0.5208333333333333, abs=1e-12)


def test_wiener_increasing_profile_exits_3(monkeypatch, capsys, files):
    # a stand-in solver whose value grows as delta shrinks trips the guard
    def growing(f, seq, delta, resolution):
        return VariationResult(1.0 - delta, IntervalSystem([]), (), "exact")

    monkeypatch.setattr(lamvar.variation, "restricted_variation", growing)
    with pytest.raises(PropertyViolationError, match="increased from delta=0.5 to delta=0.25"):
        wiener_profile(named_function("hat"), LambdaSequence.linear(), [0.5, 0.25])
    code, out, err = run(capsys, ["wiener", "--fn", files["hat"], "--lambda",
                                  files["lin"], "--deltas", "0.5,0.25"])
    assert code == 3
    assert out == ""
    assert "restricted variation increased" in err


def test_wiener_increasing_deltas_exit_2(capsys, files):
    code, _, err = run(capsys, ["wiener", "--fn", files["identity"], "--lambda",
                                files["lin"], "--deltas", "0.25,0.5"])
    assert code == 2


def test_shao_sablin_cli(capsys, files):
    code, out, _ = run(capsys, ["shao-sablin", "--lambda", files["const"],
                                "--points", "1,10,100"])
    assert code == 0
    ratios = json.loads(out)["ratios"]
    assert [r["ratio"] for r in ratios] == [2.0, 2.0, 2.0]
    assert [r["n"] for r in ratios] == [1, 10, 100]


@pytest.mark.parametrize("weights", [
    # reciprocals that overflow to inf
    '{"family": "constant", "params": {"c": 1e-320}}',
    '{"family": "explicit", "params": {"prefix": [1e-310, 1.0], "tail": {"a": 1.0, "b": 0.0}}}',
])
def test_shao_sablin_refuses_sum_that_is_not_finite_and_positive(capsys, tmp_path, weights):
    path = tmp_path / "lambda.json"
    path.write_text(weights)
    code, out, err = run(capsys, ["shao-sablin", "--lambda", str(path), "--points", "100"])
    assert code == 2
    assert out == ""
    assert "lambda: the sum of 1/term(i) for i = 1..200 is" in err


@pytest.mark.parametrize("argv", [
    ["variation", "--fn", "hat"],
    ["wiener", "--fn", "hat", "--deltas", "0.5,0.25"],
    ["converge", "--fn", "hat", "--schedule", "4,16"],
    ["shao-sablin", "--points", "100"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("weights, index", [
    # every term overflows to inf, so every reciprocal would be 0
    ('{"family": "linear", "params": {"a": 1e308, "b": 1e308}}', 1),
    ('{"family": "linear", "params": {"a": 1e305, "b": 0}, "shift": 2000}', 2001),
    # term 1 is finite, term 2 overflows
    ('{"family": "linear", "params": {"a": 1e308, "b": 0}}', 2),
    ('{"family": "explicit", "params": {"prefix": [1.0], "tail": {"a": 1e308, "b": 0}}}', 2),
], ids=["linear-every-term", "linear-shifted", "linear-second-term", "explicit-tail"])
def test_weight_terms_that_overflow_are_refused(capsys, files, tmp_path, argv, weights, index):
    path = tmp_path / "lambda.json"
    path.write_text(weights)
    argv = [files.get(a, a) for a in argv] + ["--lambda", str(path)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: lambda: base term {index} (index plus shift) overflows to inf\n"


def test_oracle_check_cli(capsys, files):
    code, out, _ = run(capsys, ["oracle-check", "--cases", "5"])
    assert code == 0
    assert json.loads(out)["summary"]["violation_count"] == 0


# -- determinism ---------------------------------------------------------

def test_reruns_byte_identical(capsys, files):
    argv = ["diminish", "--cases", "4", "--nmax", "3"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_module_entry_point(files):
    proc = subprocess.run(
        [sys.executable, "-m", "lamvar.cli", "shao-sablin", "--lambda",
         files["const"], "--points", "5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ratios"][0]["ratio"] == 2.0


def test_commands_without_arrays_run_with_numpy_blocked(tmp_path, files):
    """oracle-check, shao-sablin and variation without --delta never import
    numpy, nor do diminish, counterexample and operator --emit samples at
    degrees up to the split kernel's list-loop cutover: in an interpreter
    where importing it fails they print what an ordinary run prints.  Above
    the cutover diminish isolates roots on arrays and imports numpy on first
    use, not with lamvar.cli."""
    plf = tmp_path / "plf.json"
    plf.write_text('{"type": "plf", "points": [[0, 0], [0.3, 1], [0.6, -0.5], [1, 0.25]]}')
    commands = [
        ["oracle-check", "--seed", "3", "--cases", "5"],
        ["shao-sablin", "--lambda", files["lin"], "--points", "3"],
        ["variation", "--fn", str(plf), "--lambda", files["lin"]],
        ["counterexample", "--lambda", files["lin"], "--nmax", "10"],
        ["operator", "--op", "bernstein", "--fn", str(plf), "-n", "12", "--emit", "samples:5"],
        ["diminish", "--cases", "5", "--nmax", "12"],
    ]
    blocked = subprocess.run([sys.executable, "-c", """if True:
        import contextlib, io, json, sys
        sys.modules["numpy"] = None  # `import numpy` now raises ImportError
        from lamvar.cli import main
        runs = []
        for argv in json.loads(sys.argv[1]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            runs.append([code, out.getvalue()])
        print(json.dumps(runs))
        """, json.dumps(commands)], capture_output=True, text=True)
    assert blocked.returncode == 0, blocked.stderr
    for argv, (code, out) in zip(commands, json.loads(blocked.stdout)):
        ordinary = subprocess.run([sys.executable, "-m", "lamvar.cli", *argv],
                                  capture_output=True, text=True)
        assert (code, out) == (0, ordinary.stdout), argv
    lazy = subprocess.run([sys.executable, "-c", """if True:
        import sys
        from lamvar.cli import main
        assert "numpy" not in sys.modules
        code = main(["diminish", "--nmax", "12"])
        assert "numpy" not in sys.modules
        code |= main(["diminish", "--cases", "1", "--nmax", "60"])
        assert "numpy" in sys.modules
        sys.exit(code)
        """], capture_output=True, text=True)
    assert lazy.returncode == 0, lazy.stderr
