"""CLI contract: envelope schema, exit codes, canonical printing."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from tkern.cli import ENVELOPE_SCHEMA, ERROR_SCHEMA, main

ALL_COMMANDS = [
    ["kernel", "--symbol", "zbar^2"],
    ["kernel", "--symbol", "(2*z+1)/(z^4*(2+z))", "--verify-inline"],
    ["dim", "--symbol", "zbar^2"],
    ["minkernel", "--vector", "1-z"],
    ["maximal", "--vector", "1+0.5*z", "--symbol", "zbar^2"],
    ["factor", "--mode", "inner-outer", "--f", "z^2*(1+0.5*z)"],
    ["factor", "--mode", "wiener-hopf", "--f", "(z+0.5)/(1+0.5*z)"],
    ["mult", "--w", "1+z", "--g", "zbar", "--h", "zbar^2"],
    ["m2", "--g", "zbar", "--h", "zbar^2"],
    ["minf", "--g", "zbar", "--h", "zbar^3"],
    ["include", "--g", "zbar", "--h", "zbar^2"],
    ["equal", "--g", "zbar^2", "--h", "zbar^3"],
    ["equiv", "--g1", "conj(z*B(0.5))", "--g2", "zbar^2"],
    ["crofoot", "--w", "1/(1-0.5*z)", "--theta", "z"],
    ["surjective", "--w", "1/(1-0.5*z)", "--g", "zbar", "--h", "(2-z)/(2*z-1)"],
    ["rigid", "--p", "1+0.5*z"],
    ["cayley", "--mode", "function", "--f", "1/(s+1i)"],
    ["cayley", "--mode", "symbol", "--f", "(s-1i)/(s+1i)"],
    ["verify", "--suite", "paper-examples"],
]


SPACE_NOTE = (
    "for rational symbols every Smirnov-class multiplier with Carleson control is rational, "
    "so the unrestricted and square-integrable multiplier spaces coincide here"
)


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda a: " ".join(a[:3]))
def test_every_subcommand_emits_valid_envelope(argv, capsys):
    code, doc = run_cli(argv, capsys)
    assert code == 0
    jsonschema.validate(doc, ENVELOPE_SCHEMA)
    assert doc["command"] == argv[0]


# inputs and printed result fields (``*_raw`` keys left out) of each
# ALL_COMMANDS entry; the principal angle and the verify details carry
# numbers at rounding level and are checked apart
PRINTED = {
    "kernel --symbol zbar^2": (
        {"symbol": "1/(z^2)"},
        {"dimension": 2, "winding": -2, "basis": ["1", "z"]},
    ),
    "kernel --symbol (2*z+1)/(z^4*(2+z)) --verify-inline": (
        {"symbol": "(1 + 2*z)/(2*z^4 + z^5)"},
        {"dimension": 3, "winding": -3, "basis": ["1 + 0.5*z", "z + 0.5*z^2", "z^2 + 0.5*z^3"],
         "oracle": {"dimension": 3}},
    ),
    "dim --symbol zbar^2": ({"symbol": "1/(z^2)"}, {"dimension": 2, "winding": -2}),
    "minkernel --vector 1-z": (
        {"vector": "1 - z"},
        {"dimension": 2, "winding": -2, "basis": ["1", "z"], "symbol": "-1/(z^2)"},
    ),
    "maximal --vector 1+0.5*z --symbol zbar^2": (
        {"vector": "1 + 0.5*z", "symbol": "1/(z^2)"},
        {"is_maximal": False, "certificate": "0.5 + z", "witness_zero": "-0.5"},
    ),
    "factor --mode inner-outer --f z^2*(1+0.5*z)": (
        {"f": "z^2 + 0.5*z^3", "mode": "inner-outer"},
        {"inner_constant": "1", "inner_zeros": [{"zero": "0", "multiplicity": 2}],
         "outer": "1 + 0.5*z"},
    ),
    "factor --mode wiener-hopf --f (z+0.5)/(1+0.5*z)": (
        {"f": "(1 + 2*z)/(2 + z)", "mode": "wiener-hopf"},
        {"minus": "(0.5 + z)/(z)", "index": 1, "plus": "1 + 0.5*z"},
    ),
    "mult --w 1+z --g zbar --h zbar^2": (
        {"w": "1 + z", "g": "1/(z)", "h": "1/(z^2)"},
        {"is_multiplier": True, "routes": {"maximal_vector": True, "smirnov": True}},
    ),
    "m2 --g zbar --h zbar^2": (
        {"g": "1/(z)", "h": "1/(z^2)"},
        {"dimension": 2, "test_symbol": "1/(z^2)", "basis": ["1", "z"],
         "carleson_filtered": True, "bounded_verified": False, "note": SPACE_NOTE},
    ),
    "minf --g zbar --h zbar^3": (
        {"g": "1/(z)", "h": "1/(z^3)"},
        {"dimension": 3, "test_symbol": "1/(z^3)", "basis": ["1", "z", "z^2"],
         "carleson_filtered": True, "bounded_verified": True, "note": SPACE_NOTE},
    ),
    "include --g zbar --h zbar^2": ({"g": "1/(z)", "h": "1/(z^2)"}, {"includes": True}),
    "equal --g zbar^2 --h zbar^3": ({"g": "1/(z^2)", "h": "1/(z^3)"}, {"equal": False}),
    "equiv --g1 conj(z*B(0.5)) --g2 zbar^2": (
        {"g1": "(1 - 0.5*z)/(-0.5*z + z^2)", "g2": "1/(z^2)"},
        {"equivalent": True, "h_minus": "z/(-0.5 + z)", "h_plus": "1 - 0.5*z"},
    ),
    "crofoot --w 1/(1-0.5*z) --theta z": (
        {"w": "-2/(-2 + z)", "theta": "z"},
        {"companion": {"constant": "1", "zeros": [{"zero": "0.5", "multiplicity": 1}],
                       "rational": "(1 - 2*z)/(-2 + z)"}},
    ),
    "surjective --w 1/(1-0.5*z) --g zbar --h (2-z)/(2*z-1)": (
        {"w": "-2/(-2 + z)", "g": "1/(z)", "h": "(1 - 0.5*z)/(-0.5 + z)"},
        {"holds": True, "outer_ok": True, "carleson_forward_ok": True,
         "carleson_inverse_ok": True, "symbol_identity_ok": True},
    ),
    "rigid --p 1+0.5*z": ({"p": "1 + 0.5*z"}, {"rigid": True}),
    "cayley --mode function --f 1/(s+1i)": (
        {"f": "1/((1i) + s)", "mode": "function"},
        {"result": "(-1.77245385091i)"},
    ),
    "cayley --mode symbol --f (s-1i)/(s+1i)": (
        {"f": "((-1i) + s)/((1i) + s)", "mode": "symbol"},
        {"result": "-z"},
    ),
    "verify --suite paper-examples": (
        {"suite": "paper-examples"},
        {"suite": "paper-examples", "passed": 16, "failed": 0, "checks": [
            (name, True) for name in [
                "model-space-z2-basis", "minimal-kernel-of-constants",
                "z2-maximal-vector-lattice", "reproducing-kernel-not-maximal",
                "backward-shift-is-maximal", "power-multiplier-spaces",
                "power-example-multiplier", "non-multiplier-guard", "dimension-theorem",
                "dimension-theorem-degenerate", "shifted-kernel-dimension-drop",
                "model-space-inclusion-divisibility", "crofoot-companion",
                "image-kernel-dimension-gap", "halfplane-backward-shift-maximal",
                "cayley-isometry-closed-forms",
            ]
        ]},
    ),
}


def _printed(value):
    if isinstance(value, dict):
        return {k: _printed(v) for k, v in value.items() if not k.endswith("_raw")}
    if isinstance(value, list):
        return [_printed(v) for v in value]
    return value


@pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda a: " ".join(a[:3]))
def test_printed_forms_are_pinned(argv, capsys):
    _, doc = run_cli(argv, capsys)
    inputs, result = PRINTED[" ".join(argv)]
    assert doc["inputs"] == inputs
    printed = _printed(doc["result"])
    if "oracle" in printed:
        assert printed["oracle"].pop("principal_angle") < 1e-8
    if "checks" in printed:
        printed["checks"] = [(c["name"], c["ok"]) for c in printed["checks"]]
    assert printed == result


def test_dim_example(capsys):
    code, doc = run_cli(["dim", "--symbol", "zbar^2"], capsys)
    assert code == 0
    assert doc["result"]["dimension"] == 2


def test_m2_power_example(capsys):
    _, doc = run_cli(["m2", "--g", "zbar", "--h", "zbar^2"], capsys)
    assert doc["result"]["dimension"] == 2
    assert doc["result"]["basis"] == ["1", "z"]


def test_maximal_witness_example(capsys):
    _, doc = run_cli(["maximal", "--vector", "1+0.5*z", "--symbol", "zbar^2"], capsys)
    assert doc["result"]["is_maximal"] is False
    assert doc["result"]["witness_zero"] == "-0.5"


def test_crofoot_reports_null_companion(capsys):
    code, doc = run_cli(
        ["crofoot", "--w", "1/((1-0.5*z)^2)", "--theta", "z"], capsys
    )
    assert code == 0
    assert doc["result"]["companion"] is None


def test_parse_error_exit_code_and_object(capsys):
    code = main(["dim", "--symbol", "zbar^^2"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    jsonschema.validate(doc, ERROR_SCHEMA)
    assert doc["error"] == "syntax-error"
    assert doc["position"] == 5


def test_precondition_error_exit_code(capsys):
    code = main(["kernel", "--symbol", "1-z"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert doc["error"] == "not-invertible-on-circle"


@pytest.mark.parametrize(
    "argv",
    [
        # the gain 1e-400 of the fourth power rounds to 0
        ["kernel", "--symbol", "zbar^2*((1+1e-100*z)^4+0.5*z)"],
        # the expansion of the first summand overflows
        ["kernel", "--symbol", "(1+1e-160*z)^2 + 1"],
        # a product of nonzero constants rounds to 0
        ["kernel", "--symbol", "1e-200*1e-200*z"],
        # circle conjugation puts 1e400 into the gain
        ["kernel", "--symbol", "conj((z-1e100)^4)"],
        # the echoed input expands to coefficients near 1e320
        ["equal", "--g", "zbar*(z-1e80)^4", "--h", "zbar*(z-1e80)^4"],
    ],
)
def test_values_outside_double_precision_are_errors(argv, capsys):
    code = main(argv)
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    jsonschema.validate(doc, ERROR_SCHEMA)
    assert doc["error"] == "out-of-range"


def test_overflowing_companion_matrix_is_out_of_range(capsys):
    # the roots are +-1e160i, but 1e160 / 1e-160 is not a double
    code = main(["dim", "--symbol", "1e-160*z^2 + 1e160"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    jsonschema.validate(doc, ERROR_SCHEMA)
    assert doc["error"] == "out-of-range"


def test_root_finding_overflow_does_not_warn(capsys):
    # the derivative of 1 + 1e308 z^3 has the coefficient 3e308, beyond
    # double range; finding the roots must not warn about it
    code, doc = run_cli(["dim", "--symbol", "zbar^3*(1+1e308*z^3)"], capsys)
    assert code == 0
    assert doc["result"] == {"dimension": 0, "winding": 0}
    assert doc["warnings"] == []


def test_verify_suite_passes_and_reports(capsys):
    code, doc = run_cli(["verify", "--suite", "paper-examples", "--seed", "42"], capsys)
    assert code == 0
    assert doc["result"]["failed"] == 0
    assert doc["result"]["passed"] >= 12
    assert doc["seed"] == 42


def test_report_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, doc = run_cli(["dim", "--symbol", "zbar", "--report", str(path)], capsys)
    assert code == 0
    assert json.loads(path.read_text()) == doc


def test_text_mode(capsys):
    code = main(["--text", "dim", "--symbol", "zbar^2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("command: dim")


def test_output_is_deterministic(capsys):
    _, doc1 = run_cli(["kernel", "--symbol", "(2*z+1)/(z^4*(2+z))"], capsys)
    _, doc2 = run_cli(["kernel", "--symbol", "(2*z+1)/(z^4*(2+z))"], capsys)
    assert doc1 == doc2


def test_console_entry_point_via_module():
    proc = subprocess.run(
        [sys.executable, "-m", "tkern", "dim", "--symbol", "zbar^3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["dimension"] == 3


def test_console_script_names_cli_main():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["tk"] == "tkern.cli:main"
    module, _, attr = scripts["tk"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main


def test_tolerance_flag_lands_in_envelope(capsys):
    _, doc = run_cli(["--tol", "1e-6", "dim", "--symbol", "zbar"], capsys)
    assert doc["tolerances"]["tol"] == 1e-6
    _, doc = run_cli(["dim", "--symbol", "zbar", "--tol", "1e-5"], capsys)
    assert doc["tolerances"]["tol"] == 1e-5


def test_cayley_inputs_keep_the_half_plane_variable(capsys):
    _, doc = run_cli(["cayley", "--mode", "symbol", "--f", "(s-1i)/(s+1i)"], capsys)
    assert "s" in doc["inputs"]["f"] and "z" not in doc["inputs"]["f"]
    assert doc["result"]["result"] == "-z"


def test_closed_stdout_exits_141_quietly(tmp_path):
    # a pipe whose reader is gone, as after `tk ... | head -2` has exited
    read_end, write_end = os.pipe()
    os.close(read_end)
    report = tmp_path / "report.json"
    env = {k: v for k, v in os.environ.items() if k != "TK_LOG"}
    argv = ["verify", "--suite", "paper-examples", "--report", str(report)]
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tkern", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""
    assert json.loads(report.read_text())["result"]["failed"] == 0


def _imported_top_level(args):
    """Top-level names of every module that ``python -X importtime
    <args>`` tries to import, read from the import-time report on
    stderr; a failed attempt (``copy`` probes for ``org``) is listed too."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return {
        line.rsplit("|", 1)[1].strip().split(".")[0]
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


@pytest.mark.parametrize(
    "args",
    [["-c", "import tkern"], ["-m", "tkern", "dim", "--symbol", "zbar^2"]],
    ids=["import", "cli"],
)
def test_runtime_imports_only_numpy(args):
    # jsonschema, scipy, sympy and mpmath are installed for the tests;
    # none of them may reach the runtime import graph
    baseline = _imported_top_level(["-c", "pass"])
    tried = _imported_top_level(args) - baseline - set(sys.stdlib_module_names)
    loaded = {name for name in tried if importlib.util.find_spec(name) is not None}
    assert loaded == {"tkern", "numpy"}
