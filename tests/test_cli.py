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

import tkern
from tkern import format_complex, format_rational, parse_expression
from tkern.cli import ENVELOPE_SCHEMA, ERROR_SCHEMA, build_parser, main

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
        {"symbol": "2*(z+0.5)/(z^4*(z+2))"},
        {"dimension": 3, "winding": -3, "basis": ["0.5*(z+2)", "0.5*z*(z+2)", "0.5*z^2*(z+2)"],
         "oracle": {"dimension": 3}},
    ),
    "dim --symbol zbar^2": ({"symbol": "1/(z^2)"}, {"dimension": 2, "winding": -2}),
    "minkernel --vector 1-z": (
        {"vector": "-(z-1)"},
        {"dimension": 2, "winding": -2, "basis": ["1", "z"], "symbol": "-1/(z^2)"},
    ),
    "maximal --vector 1+0.5*z --symbol zbar^2": (
        {"vector": "0.5*(z+2)", "symbol": "1/(z^2)"},
        {"is_maximal": False, "certificate": "(z+0.5)", "witness_zero": "-0.5"},
    ),
    "factor --mode inner-outer --f z^2*(1+0.5*z)": (
        {"f": "0.5*z^2*(z+2)", "mode": "inner-outer"},
        {"inner_constant": "1", "inner_zeros": [{"zero": "0", "multiplicity": 2}],
         "outer": "0.5*(z+2)"},
    ),
    "factor --mode wiener-hopf --f (z+0.5)/(1+0.5*z)": (
        {"f": "2*(z+0.5)/(z+2)", "mode": "wiener-hopf"},
        {"minus": "(z+0.5)/(z)", "index": 1, "plus": "0.5*(z+2)"},
    ),
    "mult --w 1+z --g zbar --h zbar^2": (
        {"w": "(z+1)", "g": "1/(z)", "h": "1/(z^2)"},
        {"is_multiplier": True, "routes": {"maximal_vector": True, "smirnov": True}},
    ),
    "m2 --g zbar --h zbar^2": (
        {"g": "1/(z)", "h": "1/(z^2)"},
        {"dimension": 2, "factor": "1", "basis": ["1", "z"]},
    ),
    "minf --g zbar --h zbar^3": (
        {"g": "1/(z)", "h": "1/(z^3)"},
        {"dimension": 3, "factor": "1", "basis": ["1", "z", "z^2"]},
    ),
    "include --g zbar --h zbar^2": ({"g": "1/(z)", "h": "1/(z^2)"}, {"includes": True}),
    "equal --g zbar^2 --h zbar^3": ({"g": "1/(z^2)", "h": "1/(z^3)"}, {"equal": False}),
    "equiv --g1 conj(z*B(0.5)) --g2 zbar^2": (
        {"g1": "-0.5*(z-2)/(z*(z-0.5))", "g2": "1/(z^2)"},
        {"equivalent": True, "h_minus": "z/(z-0.5)", "h_plus": "-0.5*(z-2)"},
    ),
    "crofoot --w 1/(1-0.5*z) --theta z": (
        {"w": "-2/(z-2)", "theta": "z"},
        {"companion": {"constant": "1", "zeros": [{"zero": "0.5", "multiplicity": 1}],
                       "rational": "-2*(z-0.5)/(z-2)"}},
    ),
    "surjective --w 1/(1-0.5*z) --g zbar --h (2-z)/(2*z-1)": (
        {"w": "-2/(z-2)", "g": "1/(z)", "h": "-0.5*(z-2)/(z-0.5)"},
        {"holds": True, "outer_ok": True, "carleson_forward_ok": True,
         "carleson_inverse_ok": True, "symbol_identity_ok": True},
    ),
    "rigid --p 1+0.5*z": ({"p": "0.5*(z+2)"}, {"rigid": True}),
    "cayley --mode function --f 1/(s+1i)": (
        {"f": "1/(s+1i)", "mode": "function"},
        {"result": "-1.7724538509055159i"},
    ),
    "cayley --mode symbol --f (s-1i)/(s+1i)": (
        {"f": "(s-1i)/(s+1i)", "mode": "symbol"},
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
        # the gain has finite parts, but its modulus is beyond double range
        ["dim", "--symbol", "1.3e308*(1+1i)*z"],
        # the reflected zero 1/conj(-1e-310) is inf
        ["dim", "--symbol", "conj(z^2 + 1e10*z + 1e-300)"],
        # the reflected zero has finite parts, but its modulus is beyond double range
        ["dim", "--symbol", "conj(z^2 + 3e8*z + 1e-300*(1+1i))"],
        # the zero -1e300/1e-300 of a linear factor is inf
        ["dim", "--symbol", "zbar*(1e-300*z + 1e300)"],
        # a multiplicity of 10^20: the plus factor's gain (-2)^(10^20)
        # overflows, and no coefficient list of that degree exists for a sum
        ["dim", "--symbol", "zbar*(z-2)^1e20"],
        ["dim", "--symbol", "z^1e20+1"],
    ],
)
def test_values_outside_double_precision_are_errors(argv, capsys):
    code = main(argv)
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    jsonschema.validate(doc, ERROR_SCHEMA)
    assert doc["error"] == "out-of-range"


def test_blaschke_parameter_in_the_circle_band_is_refused(capsys):
    # BlaschkeProduct refuses it too; the factor's zero and pole, 1e-10
    # apart, would cancel
    code = main(["dim", "--symbol", "zbar*B(0.99999999995)"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    jsonschema.validate(doc, ERROR_SCHEMA)
    assert doc["error"] == "blaschke-parameter-out-of-disc"


@pytest.mark.parametrize(
    "argv",
    [
        # 1 - |a|^2 <= EPS_ROOT: the factor's zero would cancel its own pole
        ["dim", "--symbol", "zbar*B(0.99999999)"],
        ["kernel", "--symbol", "zbar^2*B(0.99999999)"],
    ],
)
def test_blaschke_parameter_whose_zero_cancels_its_pole_is_refused(argv, capsys):
    code = main(argv)
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    jsonschema.validate(doc, ERROR_SCHEMA)
    assert doc["error"] == "blaschke-parameter-out-of-disc"


def test_blaschke_refusal_names_the_parameter_and_the_bound(capsys):
    code = main(["dim", "--symbol", "zbar*B(-0.99999999i)"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert doc["error"] == "blaschke-parameter-out-of-disc"
    assert doc["message"] == "Blaschke zero -0.99999999i is not inside |a| < 0.99999995"


@pytest.mark.parametrize("a", ["0.9999999", "0.99999994"])
def test_blaschke_parameter_just_inside_the_bound_keeps_its_zero(a, capsys):
    code, doc = run_cli(["dim", "--symbol", f"zbar*B({a})"], capsys)
    assert code == 0
    assert doc["result"] == {"dimension": 0, "winding": 0}
    # the zero a and the pole 1/a, each near the band
    assert [w.split(" lies ")[0] for w in doc["warnings"]] == [
        f"root {a}+0j", f"root {format_complex(1 / float(a))}+0j"
    ]


def test_near_band_warnings_are_listed_once_each(capsys):
    # the inside zero 0.9999999 of g, listed once; the decision builds no
    # circle conjugate, whose reflected zero 1.0000001 would be a second entry
    argv = ["mult", "--w", "1+z", "--g", "zbar^2*(z-0.9999999)/(z-3)", "--h", "zbar^3"]
    code, doc = run_cli(argv, capsys)
    assert code == 0
    assert doc["result"]["is_multiplier"] is True
    assert [w.split(" lies ")[0] for w in doc["warnings"]] == ["root 0.9999999-0j"]


def test_mult_routes_agree_when_the_top_vector_cancels_a_pole_of_w(capsys):
    # the top ladder vector z of ker T_{zbar^2} cancels w's pole at 0, but
    # w * 1 = 1/z is not in the Hardy space, so w is no multiplier
    code, doc = run_cli(["mult", "--w", "zbar", "--g", "zbar^2", "--h", "zbar"], capsys)
    assert code == 0
    assert doc["result"] == {
        "is_multiplier": False, "routes": {"maximal_vector": False, "smirnov": False},
    }


def test_mult_forms_no_quotient_gain(capsys):
    # w * plus_g / plus_h has the gain 1e-320, a subnormal; neither route reads it
    argv = ["mult", "--w", "1e-300/(1e20-1e-180*z)", "--g", "zbar", "--h", "zbar*(z-1e200)"]
    code, doc = run_cli(argv, capsys)
    assert code == 0
    assert doc["result"] == {
        "is_multiplier": True, "routes": {"maximal_vector": True, "smirnov": True},
    }


@pytest.mark.parametrize(
    "argv, result",
    [
        # the quotient h / g has the gain 1e400 in both
        (["include", "--g", "1e-200*zbar", "--h", "1e200*zbar^2"], {"includes": True}),
        (["equal", "--g", "1e-200*zbar", "--h", "1e200*zbar"], {"equal": True}),
        # the Smirnov route's h * w / g has the gain 1e-600
        (["mult", "--w", "1e-300", "--g", "1e300*zbar", "--h", "zbar"],
         {"is_multiplier": True, "routes": {"maximal_vector": True, "smirnov": True}}),
    ],
    ids=["include", "equal", "mult"],
)
def test_decisions_read_no_product_gain(argv, result, capsys):
    # a kernel does not change with its symbol's constant factor
    code, doc = run_cli(argv, capsys)
    assert code == 0
    assert doc["result"] == result


TRIVIAL_KERNEL_RELATIONS = [
    (["include", "--g", "z", "--h", "z^2"], {"includes": True}),
    (["equal", "--g", "z", "--h", "z^2"], {"equal": True}),
    (["equal", "--g", "1", "--h", "z"], {"equal": True}),
    (["include", "--g", "1", "--h", "2-z"], {"includes": True}),
    (["include", "--g", "1", "--h", "zbar*(z-1)"], {"includes": True}),
]


@pytest.mark.parametrize(
    "argv, result", TRIVIAL_KERNEL_RELATIONS, ids=[" ".join(a) for a, _ in TRIVIAL_KERNEL_RELATIONS]
)
def test_trivial_kernels_are_included_and_equal(argv, result, capsys):
    # every source symbol here has winding >= 0, so ker T_g is {0}, which
    # lies in every kernel, even that of a target with a circle root
    code, doc = run_cli(argv, capsys)
    assert code == 0
    assert doc["result"] == result


# the first two and the fourth are in the CI step "Error paths answer in JSON"
REFUSED_KERNEL_RELATIONS = [
    # a circle root leaves the kernel undefined, whatever the other symbol
    (["include", "--g", "zbar*(z-1)", "--h", "zbar^2"], "not-invertible-on-circle"),
    (["equal", "--g", "zbar*(z-1)", "--h", "1"], "not-invertible-on-circle"),
    (["equal", "--g", "zbar", "--h", "zbar^2*(z-1)"], "not-invertible-on-circle"),
    # a multiplier space needs a nontrivial source kernel
    (["m2", "--g", "1", "--h", "1"], "trivial-kernel"),
    (["minf", "--g", "1", "--h", "zbar^2"], "trivial-kernel"),
]


@pytest.mark.parametrize(
    "argv, error", REFUSED_KERNEL_RELATIONS, ids=[" ".join(a) for a, _ in REFUSED_KERNEL_RELATIONS]
)
def test_refused_kernel_relation_answers_with_one_json_error(argv, error, capsys):
    code = main(argv)
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    jsonschema.validate(doc, ERROR_SCHEMA)
    assert doc["error"] == error


def test_maximal_certificate_beyond_double_range_is_refused(capsys):
    # the printed certificate conj(z * s * k) has the gain 1e-320, a subnormal
    code = main(["maximal", "--vector", "1e-300", "--symbol", "1e-20*zbar^2"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    jsonschema.validate(doc, ERROR_SCHEMA)
    assert doc["error"] == "out-of-range"


# in the CI step "Error paths answer in JSON"
@pytest.mark.parametrize("mode", ["symbol", "function"])
def test_cayley_pole_factor_below_double_range_is_refused(mode, capsys):
    # composing with the Cayley map puts (-1i - p)^60 = (-2e-7)^60 into the
    # gain for the 60-fold pole p = -1i + 2e-7, and that factor underflows
    code = main(["cayley", "--mode", mode, "--f", "1/(s+1i-2e-7)^60"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    jsonschema.validate(doc, ERROR_SCHEMA)
    assert doc["error"] == "out-of-range"


def test_quadratic_whose_discriminant_overflows_is_decided(capsys):
    # b * b = 1e400 overflows the closed form; the eigenvalues answer
    code, doc = run_cli(["dim", "--symbol", "zbar^3*(z^2+1e200*z+1)"], capsys)
    assert code == 0
    assert doc["result"] == {"dimension": 2, "winding": -2}


def test_equal_keeps_outside_roots_apart_that_reflection_would_merge(capsys):
    code, doc = run_cli(["equal", "--g", "zbar*(z-10.000005)", "--h", "zbar*(z-10)"], capsys)
    assert code == 0
    assert doc["result"] == {"equal": False}


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


def test_text_mode_ends_with_one_line_per_warning(capsys):
    code = main(["--text", "dim", "--symbol", "zbar*B(0.9999999)"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[:2] == [
        "command: dim", "input symbol: -1.00000010000001*(z-0.9999999)/(z*(z-1.00000010000001))"
    ]
    assert [line.split(" lies ")[0] for line in lines[-2:]] == [
        "warning: root 0.9999999+0j", "warning: root 1.0000001+0j"
    ]
    assert not any(line.startswith("warning:") for line in lines[:-2])


def test_equiv_of_different_windings_has_no_witness(capsys):
    code, doc = run_cli(["equiv", "--g1", "zbar", "--g2", "zbar^2"], capsys)
    assert code == 0
    jsonschema.validate(doc, ENVELOPE_SCHEMA)
    assert doc["result"] == {"equivalent": False, "h_minus": None, "h_plus": None}


def test_crofoot_refuses_a_theta_that_is_not_inner(capsys):
    code = main(["crofoot", "--w", "1/(1-0.5*z)", "--theta", "2*z"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    jsonschema.validate(doc, ERROR_SCHEMA)
    assert doc["error"] == "precondition-violation"
    assert doc["message"] == "theta does not reduce to a finite Blaschke product"


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("z + @", "unexpected character '@'", 4),
        ("(z + 1))", "unexpected trailing input ')'", 7),
    ],
)
def test_lexer_and_trailing_input_errors_carry_their_position(text, message, position, capsys):
    code = main(["dim", "--symbol", text])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    jsonschema.validate(doc, ERROR_SCHEMA)
    assert (doc["error"], doc["message"], doc["position"]) == ("syntax-error", message, position)


# the inputs of the CI step "Error paths answer in JSON"
@pytest.mark.parametrize(
    "text, error",
    [
        ("1e400*zbar", "out-of-range"),
        ("zbar*B(1e400)", "out-of-range"),
        ("zbar*B(z)", "syntax-error"),
        ("zbar*B(1.0)", "blaschke-parameter-out-of-disc"),
        ("zbar/0", "zero-denominator"),
        ("z+@", "syntax-error"),
        ("(z+1))", "syntax-error"),
        ("conj(z^2+1e10*z+1e-300)", "out-of-range"),
    ],
)
def test_refused_input_answers_with_one_json_error(text, error, capsys):
    code = main(["dim", "--symbol", text])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    jsonschema.validate(doc, ERROR_SCHEMA)
    assert doc["error"] == error


# a huge exponent is held as a multiplicity, and the echo prints it with no
# coefficient expanded; the CI step "A huge exponent is answered" runs the
# first two
@pytest.mark.parametrize(
    "text, dimension, winding",
    [("z^1e20", 0, 10**20), ("zbar^1e20", 10**20, -(10**20)), ("(z-2)^1e20", 0, 0)],
    ids=["z^1e20", "zbar^1e20", "(z-2)^1e20"],
)
def test_huge_exponent_is_answered(text, dimension, winding, capsys):
    code, doc = run_cli(["dim", "--symbol", text], capsys)
    assert code == 0
    jsonschema.validate(doc, ENVELOPE_SCHEMA)
    assert doc["result"] == {"dimension": dimension, "winding": winding}


# whole argv refused for a global flag or the suite name; the CI step "Error
# paths answer in JSON" runs them too
@pytest.mark.parametrize(
    "argv, message",
    [
        (["kernel", "--symbol", "zbar^2", "--verify-inline", "--tol", "nan"], "--tol must be"),
        (["kernel", "--symbol", "zbar^2", "--verify-inline", "--tol", "-1"], "--tol must be"),
        (["dim", "--symbol", "zbar", "--tol", "inf"], "--tol must be"),
        (["verify", "--suite", "paper-examples", "--seed", "-1"], "--seed must be"),
        (["verify", "--suite", "nope"], "unknown suite 'nope'; available: ['paper-examples']"),
    ],
    ids=["tol-nan", "tol-negative", "tol-inf", "seed-negative", "unknown-suite"],
)
def test_refused_flag_answers_with_one_json_error(argv, message, capsys):
    code = main(argv)
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    jsonschema.validate(doc, ERROR_SCHEMA)
    assert doc["error"] == "precondition-violation"
    assert message in doc["message"]


def test_unwritable_report_answers_with_one_json_error(tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    code = main(["dim", "--symbol", "zbar", "--report", str(path)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    jsonschema.validate(doc, ERROR_SCHEMA)
    assert doc["error"] == "report-not-written"
    assert not path.exists()


def test_blaschke_parameter_may_be_a_complex_expression(capsys):
    code, doc = run_cli(["dim", "--symbol", "zbar*B(0.3+0.4i)"], capsys)
    assert code == 0
    assert doc["result"] == {"dimension": 0, "winding": 0}
    echoed = parse_expression(doc["inputs"]["symbol"]).to_rational()
    assert echoed.is_close(parse_expression("zbar*B(0.3+0.4i)").to_rational(), 1e-11)


COMMAND_LIST = (
    "{kernel,dim,minkernel,maximal,factor,mult,m2,minf,include,equal,equiv,crofoot,"
    "surjective,rigid,cayley,verify}"
)


def test_help_and_command_lookup(tmp_path, monkeypatch, capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    assert COMMAND_LIST in capsys.readouterr().out
    with pytest.raises(SystemExit) as stop:
        main(["dim", "--help"])
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tk dim ")
    with pytest.raises(SystemExit) as stop:
        main(["dimension", "--symbol", "zbar^2"])
    assert stop.value.code == 2
    # two command names: the first is the value of --report
    monkeypatch.chdir(tmp_path)
    code, doc = run_cli(["--report", "mult", "dim", "--symbol", "zbar^2"], capsys)
    assert code == 0 and doc["command"] == "dim"
    assert json.loads((tmp_path / "mult").read_text()) == doc


def _parse_outcome(parser, argv, capsys):
    with pytest.raises(SystemExit) as stop:
        parser.parse_args(argv)
    return stop.value.code, capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [["dim", "--help"], ["dim"], ["dim", "--symbol", "z", "--bogus"], ["factor", "--mode", "x"],
     ["dim", "--symbol", "z", "--tol", "x"]],
    ids=" ".join,
)
def test_one_command_parser_reads_as_the_full_one(argv, capsys):
    # help and error messages, the full usage line among them, are the same
    full = _parse_outcome(build_parser(), argv, capsys)
    assert _parse_outcome(build_parser(argv[0]), argv, capsys) == full


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


def test_stdout_holds_one_json_document_when_refinement_gives_up():
    # this power given by its 177 coefficients at 12 digits; refining a
    # cluster of its roots meets a matrix that is not finite, and LAPACK,
    # handed one, writes to the process's stdout. The 176-fold root comes
    # back as a ring that reaches into the disc, so the answer is not the
    # power's (winding 0, as its factored echo answers)
    power = parse_expression("(((z-(2.63275+1.43828i))^11)^8)^2").to_rational()
    text = " + ".join(f"({format_complex(c)})*z^{k}" for k, c in enumerate(power.num._coeffs))
    code = "import sys; from tkern.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", code, "dim", "--symbol", text], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert set(json.loads(proc.stdout)["result"]) == {"dimension", "winding"}


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


def _imported(args):
    """Every module that ``python -X importtime <args>`` tries to import,
    read from the import-time report on stderr; a failed attempt (``copy``
    probes for ``org``) is listed too."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


def _imported_top_level(args):
    """Top-level names of the modules in ``_imported(args)``."""
    return {name.split(".")[0] for name in _imported(args)}


@pytest.mark.parametrize(
    "args, expected",
    [
        (["-c", "import tkern"], {"tkern"}),
        (["-m", "tkern", "dim", "--symbol", "zbar^2"], {"tkern"}),
        (["-m", "tkern", "verify", "--suite", "paper-examples"], {"tkern", "numpy"}),
        (["-m", "tkern", *ALL_COMMANDS[1]], {"tkern", "numpy"}),
    ],
    ids=["import", "cli", "verify", "verify-inline"],
)
def test_runtime_imports_only_numpy(args, expected):
    # jsonschema, scipy, sympy and mpmath are installed for the tests;
    # none of them may reach the runtime import graph, and numpy only
    # through the oracle
    baseline = _imported_top_level(["-c", "pass"])
    tried = _imported_top_level(args) - baseline - set(sys.stdlib_module_names)
    loaded = {name for name in tried if importlib.util.find_spec(name) is not None}
    assert loaded == expected


@pytest.mark.parametrize(
    "args", [["-c", "import tkern"], ["-m", "tkern", "dim", "--symbol", "zbar^2"]],
    ids=["import", "cli"],
)
def test_runtime_generates_no_code(args):
    # frozen dataclasses import inspect and compile their generated methods
    # in every process; tkern's records need neither
    baseline = _imported_top_level(["-c", "pass"])
    assert not (_imported_top_level(args) - baseline) & {"dataclasses", "inspect"}


def _imported_tkern_modules(args):
    return {name for name in _imported(args) if name == "tkern" or name.startswith("tkern.")}


def test_import_compiles_no_submodule():
    assert _imported_tkern_modules(["-c", "import tkern"]) == {"tkern"}


def test_each_command_imports_only_the_modules_it_uses():
    assert _imported_tkern_modules(["-m", "tkern", "dim", "--symbol", "zbar^2"]) == {
        f"tkern{suffix}" for suffix in
        ("", ".cli", ".errors", ".rational", ".expressions", ".factorization", ".kernels")
    }
    factor = _imported_tkern_modules(
        ["-m", "tkern", "factor", "--mode", "wiener-hopf", "--f", "(z+0.5)/(1+0.5*z)"]
    )
    assert "tkern.factorization" in factor
    assert not factor & {"tkern.kernels", "tkern.multipliers", "tkern.halfplane"}
    cayley = _imported_tkern_modules(
        ["-m", "tkern", "cayley", "--mode", "symbol", "--f", "(s-1i)/(s+1i)"]
    )
    assert "tkern.halfplane" in cayley
    assert not cayley & {"tkern.kernels", "tkern.multipliers"}


def test_every_public_name_is_its_home_modules_object():
    for name in tkern.__all__:
        value = getattr(tkern, name)
        if isinstance(value, type(tkern)):
            assert value is importlib.import_module(f"tkern.{name}")
        else:
            home = sys.modules[value.__module__]
            assert home.__name__.startswith("tkern.") and vars(home)[name] is value, name
    assert dir(tkern) == sorted(tkern.__all__)


# in a fresh interpreter, reads one name of each module in turn, and prints
# for each the public names of that module missing from vars(tkern) after the
# read, and whether the name was bound before it
_FIRST_USE = """
import json, sys
import tkern
report = {}
for name in sys.argv[1:]:
    bound = name in vars(tkern)
    home = sys.modules[getattr(tkern, name).__module__]
    own = [n for n in tkern.__all__ if getattr(vars(home).get(n), "__module__", "") == home.__name__]
    report[name] = (bound, [n for n in own if n not in vars(tkern)])
print(json.dumps(report))
"""


def test_first_use_binds_every_name_of_the_module():
    # once bound, a name is a plain attribute of the package, and the
    # per-layer tracer, which rebinds the aliases it finds in vars(tkern),
    # sees every name of a module that was used
    first = ["TkError", "parse_expression", "wiener_hopf", "in_kernel", "is_multiplier",
             "cayley_function", "poly_roots", "numeric_kernel", "run_suite"]
    proc = subprocess.run(
        [sys.executable, "-c", _FIRST_USE, *first], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report == {name: [False, []] for name in first}


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from tkern import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES


# the two commands that run the oracle, and so load numpy
ORACLE_COMMANDS = {" ".join(ALL_COMMANDS[1]), "verify --suite paper-examples"}

# runs tkern as __main__ once for each argv in the JSON list argv[1], with
# every import of numpy failing, and prints a JSON list of (exit code, stdout)
_RUN_WITHOUT_NUMPY = """
import contextlib, io, json, runpy, sys
sys.modules["numpy"] = None
results = []
for argv in json.loads(sys.argv[1]):
    sys.argv = ["tk", *argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            runpy.run_module("tkern", run_name="__main__")
        except SystemExit as stop:
            results.append((stop.code, out.getvalue()))
print(json.dumps(results))
"""


def test_decision_commands_run_without_numpy():
    commands = [argv for argv in ALL_COMMANDS if " ".join(argv) not in ORACLE_COMMANDS]
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_WITHOUT_NUMPY, json.dumps(commands)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert len(results) == len(commands) == len(ALL_COMMANDS) - 2
    for argv, (code, out) in zip(commands, results):
        doc = json.loads(out)
        assert code == 0, argv
        assert (doc["inputs"], _printed(doc["result"])) == PRINTED[" ".join(argv)], argv


# the package's public names, those loaded eagerly and those loaded on access
PUBLIC_NAMES = {
    "BlaschkeParameterOutOfDisc", "BlaschkeProduct", "BoundarySampling", "CarlesonFailure",
    "ClassificationWarning", "ComplexPolynomial", "DimensionMismatchWarning", "EquivalenceWitness",
    "ExpressionSyntaxError", "HalfPlaneRational", "InnerOuterFactorization",
    "MaximalityCertificate", "MultiplierSpace", "NotInHardySpace", "NotInKernel",
    "NotInvertibleOnCircle", "NotOuter", "NotSquareIntegrable", "NumericSubspace", "OutOfRange",
    "PoleOnCircle", "PreconditionViolation", "RationalFunction", "ResolutionWarning",
    "RootClassification", "SurjectivityReport", "SymbolExpression", "TkError", "ToeplitzKernel",
    "ToeplitzSymbol", "TrivialKernel", "UnboundedSymbol",
    "WienerHopfFactorization", "ZeroDenominator", "ZeroFunction", "ZeroPolynomial", "as_rational",
    "as_symbol", "blaschke_divides", "blaschke_from_rational", "boundary_sampling",
    "carleson_check", "cayley_function", "cayley_symbol",
    "circle_norm_squared", "circle_samples", "classify_roots", "crofoot_companion",
    "dim_from_factorization", "equals", "errors", "expressions", "factorization", "format_complex",
    "format_rational", "fourier_coefficients", "halfplane", "halfplane_multiplier_test",
    "image_kernel", "in_kernel", "includes", "inner_outer", "inverse_cayley_symbol",
    "is_equivalent", "is_maximal", "is_multiplier", "is_rigid", "is_surjective_multiplier",
    "kernel", "kernels", "line_norm_squared", "minimal_kernel", "monomial", "multiplier_space",
    "multipliers", "numeric_kernel", "oracle", "parse_expression",
    "poly_roots", "principal_angle", "random_instances", "rational",
    "run_suite", "smirnov_multiplier_test", "subspace_from_rationals", "transfer_multiplier",
    "verify", "wiener_hopf", "winding_number",
}


def test_public_names_resolve_on_access():
    assert set(tkern.__all__) == PUBLIC_NAMES
    for name in tkern.__all__:
        assert getattr(tkern, name) is not None
    assert tkern.numeric_kernel is tkern.oracle.numeric_kernel
    assert tkern.run_suite is tkern.verify.run_suite
    with pytest.raises(AttributeError):
        tkern.no_such_name


# inputs whose echo, printed from expanded coefficients, re-parsed to another
# value: a k-fold root came back as a ring of radius about eps^(1/k). The
# CI step "Echoes answer as their inputs" runs them too
ECHO_CASES = [
    ("((z-2)^10)^9*zbar", 1),
    ("conj(B(0.5)^32)", 32),
    ("(conj(z-(-0.374532+0.818368i)))^10", 10),
    ("(((z-(1.62091+2.52441i)))/(((z-(1.5+0i)))^5))^7", 0),
    # the multiplicity 3 * (2^53 - 1) is not a double: its echo re-parses
    # to it only when a digit-string exponent is read as an exact integer
    ("(z^3)^9007199254740991", 0),
]


@pytest.mark.parametrize("text, dimension", ECHO_CASES, ids=[t for t, _ in ECHO_CASES])
def test_echo_answers_as_its_input(text, dimension, capsys):
    code, doc = run_cli(["dim", "--symbol", text], capsys)
    assert code == 0 and doc["result"]["dimension"] == dimension
    echo = doc["inputs"]["symbol"]
    assert echo == format_rational(parse_expression(text).to_rational())
    code, again = run_cli(["dim", "--symbol", echo], capsys)
    assert code == 0 and again["result"] == doc["result"]
    assert again["inputs"]["symbol"] == echo


def test_echoed_input_reparses_to_the_decided_value(capsys):
    # the constant term 0.3^24 is below 1e-12 of the leading coefficient,
    # but far above the rounding of its expansion from the roots
    text = "conj(1-(0.3*z)^24)"
    _, doc = run_cli(["dim", "--symbol", text], capsys)
    decided = parse_expression(text).to_rational()
    echoed = parse_expression(doc["inputs"]["symbol"]).to_rational()
    for ours, theirs in ((decided.zeros(), echoed.zeros()), (decided.poles(), echoed.poles())):
        assert sorted(m for _, m in ours) == sorted(m for _, m in theirs)
        for r, m in ours:
            assert min(abs(r - s) for s, k in theirs if k == m) <= 1e-9 * max(abs(r), 1e-300)
    assert len(decided.zeros()) == 24
