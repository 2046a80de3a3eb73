"""Command-line front end.

Every subcommand prints one JSON document on standard output (or a plain
text rendering with --text); human-readable logs go to standard error.
Exit codes: 0 success, 1 verification mismatch, 2 parse or precondition
errors (with a JSON error object), 141 standard output closed early.

Report envelope:

    { "command": str,
      "inputs": {flag: canonical printed form},
      "result": command-specific object,
      "warnings": [str],
      "tolerances": {name: value},
      "seed": int }

Numbers inside ``result`` are printed at 12 significant digits; parallel
``*_raw`` fields keep full precision as [real, imaginary] pairs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

from . import verify as verify_mod
from .errors import PreconditionViolation, TkError
from .expressions import parse_expression
from .factorization import blaschke_from_rational, inner_outer, wiener_hopf
from .halfplane import HalfPlaneRational, cayley_function, cayley_symbol
from .kernels import equals, includes, is_equivalent, is_maximal, is_rigid, kernel, minimal_kernel
from .multipliers import (
    crofoot_companion,
    is_multiplier,
    is_surjective_multiplier,
    multiplier_space,
    multiplier_space_bounded,
    smirnov_multiplier_test,
)
from .oracle import numeric_kernel, principal_angle, subspace_from_rationals
from .rational import RationalFunction, as_symbol, format_complex, format_rational

ENVELOPE_SCHEMA = {
    "type": "object",
    "required": ["command", "inputs", "result", "warnings", "tolerances", "seed"],
    "properties": {
        "command": {"type": "string"},
        "inputs": {"type": "object", "additionalProperties": {"type": "string"}},
        "result": {"type": "object"},
        "warnings": {"type": "array", "items": {"type": "string"}},
        "tolerances": {"type": "object", "additionalProperties": {"type": "number"}},
        "seed": {"type": "integer"},
    },
    "additionalProperties": False,
}

ERROR_SCHEMA = {
    "type": "object",
    "required": ["error", "message"],
    "properties": {
        "error": {"type": "string"},
        "message": {"type": "string"},
        "position": {"type": ["integer", "null"]},
    },
    "additionalProperties": False,
}


def _log(msg: str) -> None:
    if os.environ.get("TK_LOG"):
        print(msg, file=sys.stderr)


def _poly_raw(p):
    return [[float(c.real), float(c.imag)] for c in p.coeffs]


def _rational_raw(r: RationalFunction):
    return {"num": _poly_raw(r.num), "den": _poly_raw(r.den)}


def _complex_raw(c):
    c = complex(c)
    return [float(c.real), float(c.imag)]


def _kernel_result(K, verify_inline: bool, tol: float):
    result = {
        "dimension": K.dimension,
        "winding": K.symbol.winding,
        "basis": [format_rational(b) for b in K.basis],
        "basis_raw": [_rational_raw(b) for b in K.basis],
    }
    mismatch = False
    if verify_inline:
        ns = numeric_kernel(K.symbol)
        angle = 0.0
        if K.dimension and ns.dimension == K.dimension:
            angle = principal_angle(
                subspace_from_rationals(K.basis, ns.degree_cap), ns
            )
        result["oracle"] = {"dimension": ns.dimension, "principal_angle": angle}
        mismatch = ns.dimension != K.dimension or angle > tol
    return result, mismatch


def _cmd_kernel(args):
    K = kernel(as_symbol(args.symbol))
    return _kernel_result(K, args.verify_inline, args.tol)


def _cmd_dim(args):
    s = as_symbol(args.symbol)
    return {"dimension": kernel(s).dimension, "winding": s.winding}, False


def _cmd_minkernel(args):
    v, K = minimal_kernel(args.vector)
    result, _ = _kernel_result(K, False, args.tol)
    result["symbol"] = format_rational(v.value)
    result["symbol_raw"] = _rational_raw(v.value)
    return result, False


def _cmd_maximal(args):
    cert = is_maximal(args.vector, as_symbol(args.symbol))
    witness = None if cert.failure_witness is None else format_complex(cert.failure_witness)
    return {
        "is_maximal": cert.is_maximal,
        "certificate": format_rational(cert.certificate),
        "certificate_raw": _rational_raw(cert.certificate),
        "witness_zero": witness,
        "witness_zero_raw": None if cert.failure_witness is None else _complex_raw(cert.failure_witness),
    }, False


def _cmd_factor(args):
    if args.mode == "inner-outer":
        io = inner_outer(args.f)
        return {
            "inner_constant": format_complex(io.inner.constant),
            "inner_constant_raw": _complex_raw(io.inner.constant),
            "inner_zeros": [
                {"zero": format_complex(a), "zero_raw": _complex_raw(a), "multiplicity": m}
                for a, m in io.inner.zeros
            ],
            "outer": format_rational(io.outer),
            "outer_raw": _rational_raw(io.outer),
        }, False
    wh = wiener_hopf(as_symbol(args.f))
    return {
        "minus": format_rational(wh.minus),
        "minus_raw": _rational_raw(wh.minus),
        "index": wh.index,
        "plus": format_rational(wh.plus),
        "plus_raw": _rational_raw(wh.plus),
    }, False


def _cmd_mult(args):
    w, g, h = args.w, as_symbol(args.g), as_symbol(args.h)
    via_vector = is_multiplier(w, g, h)
    via_smirnov = smirnov_multiplier_test(w, g, h)
    return {
        "is_multiplier": via_vector,
        "routes": {"maximal_vector": via_vector, "smirnov": via_smirnov},
    }, via_vector != via_smirnov


def _space_result(ms):
    return {
        "dimension": ms.dimension,
        "test_symbol": format_rational(ms.test_symbol.value),
        "test_symbol_raw": _rational_raw(ms.test_symbol.value),
        "basis": [format_rational(b) for b in ms.basis],
        "basis_raw": [_rational_raw(b) for b in ms.basis],
        "carleson_filtered": ms.carleson_filtered,
        "bounded_verified": ms.bounded_verified,
        "note": ms.note,
    }


def _cmd_m2(args):
    return _space_result(multiplier_space(as_symbol(args.g), as_symbol(args.h))), False


def _cmd_minf(args):
    return _space_result(
        multiplier_space_bounded(as_symbol(args.g), as_symbol(args.h))
    ), False


def _cmd_include(args):
    return {"includes": includes(as_symbol(args.g), as_symbol(args.h))}, False


def _cmd_equal(args):
    return {"equal": equals(as_symbol(args.g), as_symbol(args.h))}, False


def _cmd_equiv(args):
    witness = is_equivalent(as_symbol(args.g1), as_symbol(args.g2))
    if witness is None:
        return {"equivalent": False, "h_minus": None, "h_plus": None}, False
    return {
        "equivalent": True,
        "h_minus": format_rational(witness.h_minus),
        "h_minus_raw": _rational_raw(witness.h_minus),
        "h_plus": format_rational(witness.h_plus),
        "h_plus_raw": _rational_raw(witness.h_plus),
    }, False


def _cmd_crofoot(args):
    theta = blaschke_from_rational(args.theta)
    if theta is None:
        raise PreconditionViolation("theta does not reduce to a finite Blaschke product")
    phi = crofoot_companion(theta, args.w)
    if phi is None:
        return {"companion": None}, False
    return {
        "companion": {
            "constant": format_complex(phi.constant),
            "constant_raw": _complex_raw(phi.constant),
            "zeros": [
                {"zero": format_complex(a), "zero_raw": _complex_raw(a), "multiplicity": m}
                for a, m in phi.zeros
            ],
            "rational": format_rational(phi.to_rational()),
            "rational_raw": _rational_raw(phi.to_rational()),
        }
    }, False


def _cmd_surjective(args):
    report = is_surjective_multiplier(args.w, as_symbol(args.g), as_symbol(args.h))
    return {
        "holds": report.holds,
        "outer_ok": report.outer_ok,
        "carleson_forward_ok": report.carleson_forward_ok,
        "carleson_inverse_ok": report.carleson_inverse_ok,
        "symbol_identity_ok": report.symbol_identity_ok,
    }, False


def _cmd_rigid(args):
    return {"rigid": is_rigid(args.p)}, False


def _cmd_cayley(args):
    f = HalfPlaneRational(args.f)
    if args.mode == "function":
        out = cayley_function(f)
    else:
        out = cayley_symbol(f).value
    return {"result": format_rational(out), "result_raw": _rational_raw(out)}, False


def _cmd_verify(args):
    report = verify_mod.run_suite(args.suite, seed=args.seed, tol=args.tol)
    for c in report["checks"]:
        _log(f"[{'PASS' if c['ok'] else 'FAIL'}] {c['name']} {c['detail']}")
    return report, report["failed"] > 0


_COMMANDS = {
    "kernel": _cmd_kernel,
    "dim": _cmd_dim,
    "minkernel": _cmd_minkernel,
    "maximal": _cmd_maximal,
    "factor": _cmd_factor,
    "mult": _cmd_mult,
    "m2": _cmd_m2,
    "minf": _cmd_minf,
    "include": _cmd_include,
    "equal": _cmd_equal,
    "equiv": _cmd_equiv,
    "crofoot": _cmd_crofoot,
    "surjective": _cmd_surjective,
    "rigid": _cmd_rigid,
    "cayley": _cmd_cayley,
    "verify": _cmd_verify,
}

_EXPR_FLAGS = {
    "kernel": [("--symbol", "symbol")],
    "dim": [("--symbol", "symbol")],
    "minkernel": [("--vector", "vector")],
    "maximal": [("--vector", "vector"), ("--symbol", "symbol")],
    "factor": [("--f", "f")],
    "mult": [("--w", "w"), ("--g", "g"), ("--h", "h")],
    "m2": [("--g", "g"), ("--h", "h")],
    "minf": [("--g", "g"), ("--h", "h")],
    "include": [("--g", "g"), ("--h", "h")],
    "equal": [("--g", "g"), ("--h", "h")],
    "equiv": [("--g1", "g1"), ("--g2", "g2")],
    "crofoot": [("--w", "w"), ("--theta", "theta")],
    "surjective": [("--w", "w"), ("--g", "g"), ("--h", "h")],
    "rigid": [("--p", "p")],
    "cayley": [("--f", "f")],
    "verify": [],
}


def _add_global_flags(parser, suppress=False):
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--text", action="store_true", default=False if not suppress else d,
                        help="plain text output instead of JSON")
    parser.add_argument("--tol", type=float, default=1e-8 if not suppress else d)
    parser.add_argument("--seed", type=int, default=42 if not suppress else d)
    parser.add_argument("--report", metavar="PATH", default=None if not suppress else d,
                        help="also write the JSON document to PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tk", description="Toeplitz kernels, multipliers and factorizations on rational data"
    )
    _add_global_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, flags in _EXPR_FLAGS.items():
        p = sub.add_parser(name)
        # global flags are accepted after the subcommand as well; SUPPRESS
        # keeps the subparser from clobbering values parsed up front
        _add_global_flags(p, suppress=True)
        for flag, dest in flags:
            p.add_argument(flag, dest=dest, required=True, metavar="EXPR")
        if name == "kernel":
            p.add_argument("--verify-inline", action="store_true")
        if name == "factor":
            p.add_argument("--mode", choices=["inner-outer", "wiener-hopf"], required=True)
        if name == "cayley":
            p.add_argument("--mode", choices=["function", "symbol"], required=True)
        if name == "verify":
            p.add_argument("--suite", required=True)
    return parser


def _lower_inputs(args) -> dict:
    """Parse and lower each expression flag once, replacing its text in
    ``args`` with the rational value, and return the envelope's canonical
    inputs."""
    inputs = {}
    variable = "s" if args.command == "cayley" else "z"
    for flag, dest in _EXPR_FLAGS[args.command]:
        value = parse_expression(getattr(args, dest), variable=variable).to_rational()
        setattr(args, dest, value)
        inputs[flag.lstrip("-")] = format_rational(value, variable=variable)
    if getattr(args, "mode", None):
        inputs["mode"] = args.mode
    if getattr(args, "suite", None):
        inputs["suite"] = args.suite
    return inputs


def _render_text(doc: dict) -> str:
    lines = [f"command: {doc['command']}"]
    for key, value in doc["inputs"].items():
        lines.append(f"input {key}: {value}")
    lines.append(json.dumps(doc["result"], indent=2))
    for w in doc["warnings"]:
        lines.append(f"warning: {w}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _log(f"running {args.command}")
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            inputs = _lower_inputs(args)
            result, mismatch = _COMMANDS[args.command](args)
        doc = {
            "command": args.command,
            "inputs": inputs,
            "result": result,
            "warnings": sorted({str(w.message) for w in caught}),
            "tolerances": {"tol": args.tol},
            "seed": args.seed,
        }
    except TkError as exc:
        err = {
            "error": exc.code,
            "message": str(exc),
            "position": getattr(exc, "position", None),
        }
        return _emit(json.dumps(err), 2)
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(doc, fh, indent=2)
    out = _render_text(doc) if args.text else json.dumps(doc, indent=2)
    return _emit(out, 1 if mismatch else 0)


def _emit(text: str, code: int) -> int:
    """Print ``text`` and return ``code``, or 141 (128 + SIGPIPE) when
    standard output was closed early, as by ``tk ... | head``."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at devnull, so the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
