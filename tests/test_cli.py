import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import sp4whittaker
from sp4whittaker.cli import run
from sp4whittaker.report import dumps


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_classify_output(capsys):
    code, out = _capture(capsys, ["classify", "--lambda", "2,-1"])
    assert code == 0
    assert json.loads(out) == {"xi_type": "II", "blattner": [3, -1], "d": 4}


def test_blattner_output(capsys):
    code, out = _capture(capsys, ["blattner", "--lambda", "1,-3"])
    assert code == 0
    assert json.loads(out) == {"blattner": [1, -4], "d": 5}


def test_domain_error_exit_code(capsys):
    code = run(["classify", "--lambda", "2,2"])
    assert code == 1
    assert "singular" in capsys.readouterr().err


def test_usage_error_exit_code():
    assert run(["unknown-subcommand"]) == 2
    assert run([]) == 2
    assert run(["--threads", "2", "classify", "--lambda", "2,-1"]) == 2


@pytest.mark.parametrize("argv", [
    ["eval", "siegel", "--lambda", "2,-1", "--c0", "nan"],
    ["eval", "siegel", "--lambda", "2,-1", "--c0", "1e308"],
    ["eval", "siegel", "--lambda", "2,-1", "--grid", "1:inf"],
    ["eval", "fj", "--lambda", "3,-1", "--pi1", "x"],
    ["eval", "siegel", "--lambda", "2,-1", "--const", "1"],
    ["eval", "borel", "--lambda", "2,-1", "--grid", "1:inf"],
    ["eval", "borel", "--lambda", "2,-1", "--grid", "nan:1"],
    ["eval", "fj", "--lambda", "3,-1", "--pi1", "+:2", "--a", "inf"],
    ["eval", "fj", "--lambda", "3,-1", "--pi1", "+:2", "--a", "nan"],
    ["eval", "siegel", "--lambda", "2,-1", "--const", "nan,1", "--grid", "1:1"],
    ["eval", "fj", "--lambda", "3,-1", "--pi1", "+:2", "--a", "-1e-3"],
    ["eval", "siegel", "--lambda", "2,-1", "--c0", "inf"],
])
def test_malformed_input_one_line_error(capsys, argv):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    c0 = dict(zip(argv, argv[1:])).get("--c0")
    if c0 is not None and not math.isfinite(float(c0)):
        assert "--c0" in lines[0], captured.err


@pytest.mark.parametrize("argv", [
    ["verify", "beta", "--max-degree", "1"],
    ["verify", "beta", "--max-degree", "0"],
    ["verify", "lie", "--max-degree=-3"],
    ["--format", "csv", "classify", "--lambda", "2,-1"],
    ["--format", "csv", "blattner", "--lambda", "2,-1"],
    ["--format", "csv", "solve", "borel", "--lambda", "2,-1"],
    ["--format", "csv", "table", "embeddings", "--lambda", "2,-1"],
    ["--format", "csv", "verify", "rules"],
])
def test_usage_error_one_error_line(capsys, argv):
    # a verify run below degree 2 would pass with no contraction case at
    # all, and CSV rows exist only for eval's grid values
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [ln for ln in captured.err.splitlines() if "error:" in ln]
    assert len(errors) == 1 and "Traceback" not in captured.err, captured.err


def test_negative_number_in_exponent_notation(capsys):
    # argparse alone would read -1e-3 as an option flag: a usage error
    argv = ["eval", "siegel", "--lambda", "2,-1", "--grid", "1:1"]
    spaced = _capture(capsys, argv + ["--c0", "-1e-3"])
    joined = _capture(capsys, argv + ["--c0=-1e-3"])
    assert spaced[0] == 0
    assert spaced == joined


def test_negative_lambda_pair_spaced_or_joined(capsys):
    # argparse alone would read -1,-3 as an option flag: a usage error
    spaced = _capture(capsys, ["classify", "--lambda", "-1,-3"])
    joined = _capture(capsys, ["classify", "--lambda=-1,-3"])
    assert spaced[0] == 0
    assert spaced == joined
    assert json.loads(spaced[1])["xi_type"] == "IV"


def _readme_commands():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## Command line", 1)[1].split("```sh", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    return [shlex.split(ln.split("#", 1)[0])[1:] for ln in lines
            if ln.startswith("sp4whittaker ") and ln.split()[1] != "verify"]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_line_examples_run(capsys, argv):
    assert run(argv) == 0, capsys.readouterr().err


def test_cli_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate would be the costliest import; neither a cold start
    # nor a first call in the integral regime (a = 1/2 here) may pay for it
    src = str(Path(sp4whittaker.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import sp4whittaker.cli; "
            "print('scipy.integrate' in sys.modules); "
            "from sp4whittaker.specialfns import whittaker_w; "
            "whittaker_w(kappa=1.0, mu=1.0, y=2.0); "
            "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False", "False"]


def test_table_cuspidal_weights(capsys):
    code, out = _capture(capsys, ["table", "cuspidal", "--parabolic", "siegel",
                                  "--lambda", "2,-1"])
    assert code == 0
    payload = json.loads(out)
    assert [c["weight"] for c in payload["verdict"]] == [2, 4]


def test_table_embeddings(capsys):
    code, out = _capture(capsys, ["table", "embeddings", "--lambda", "2,-1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["siegel_targets"] == [{"exponent": "3/2", "weight": 2},
                                         {"exponent": "1/2", "weight": 4}]
    patterns = {e["pattern"]: e for e in payload["principal_patterns"]}
    assert patterns[4]["condition"] == "never"
    assert len(payload["convergence"]) == 6


def test_eval_borel_csv(capsys):
    code, out = _capture(capsys, ["--format", "csv", "eval", "borel",
                                  "--lambda", "2,-1", "--family", "f1",
                                  "--grid", "1:1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a1,a2,i,value"
    assert len(lines) == 6
    assert lines[1].split(",") == ["1", "1", "0", "1"]


def test_eval_siegel_values(capsys):
    code, out = _capture(capsys, ["eval", "siegel", "--lambda", "2,-1",
                                  "--c0", "1", "--grid", "1:1", "--const", "1,0"])
    assert code == 0
    payload = json.loads(out)
    vals = {row["i"]: row["value"] for row in payload["values"]}
    assert vals[0] == 0.0
    assert abs(vals[3] - 0.0234669774677338967) < 1e-12


def test_eval_fj(capsys):
    code, out = _capture(capsys, ["eval", "fj", "--lambda", "3,-1",
                                  "--pi1", "+:2", "--a", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["power"] == 5
    assert [t["value"] for t in payload["values"]] == [1.0, -2.0]


def test_solve_borel(capsys):
    code, out = _capture(capsys, ["solve", "borel", "--lambda", "2,-1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 5
    st = {e["family"]: e["status"]
          for e in payload["printed_table_comparison"]["families"]}
    assert st["f0"] == st["f1"] == st["f2"] == "MATCH"


def test_verify_rules_exit_zero(capsys):
    code, out = _capture(capsys, ["verify", "rules"])
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["FAIL"] == 0


def test_json_byte_determinism(capsys):
    a = _capture(capsys, ["table", "embeddings", "--lambda", "3,-2"])
    b = _capture(capsys, ["table", "embeddings", "--lambda", "3,-2"])
    assert a == b
    c = _capture(capsys, ["solve", "borel", "--lambda", "3,-2"])
    d = _capture(capsys, ["solve", "borel", "--lambda", "3,-2"])
    assert c == d


def test_float_formatting_17_digits():
    assert dumps(0.1) == "0.10000000000000001"
    assert dumps(1.0) == "1.0"
    assert dumps({"b": 2, "a": 1}) == '{"a":1,"b":2}'
