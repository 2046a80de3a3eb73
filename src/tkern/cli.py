"""Command-line front end.

Every subcommand prints one JSON document on standard output (or a plain
text rendering with --text); human-readable logs go to standard error.
Exit codes: 0 success, 1 verification mismatch, 2 parse or precondition
errors and an unwritable --report path (with a JSON error object), 141
standard output closed early.

Report envelope:

    { "command": str,
      "inputs": {flag: canonical printed form},
      "result": command-specific object,
      "warnings": [str],
      "tolerances": {name: value},
      "seed": int }

A rational value prints from its gain and roots (``format_rational``), a
complex number at 12 significant digits; parallel ``*_raw`` fields keep
full precision: a number as [real, imaginary], a rational value as
{"gain": [re, im], "zeros": [[re, im, m], ...], "poles": [...]}.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

# Each handler imports the modules it calls, so a command compiles only
# those: ``tk dim`` loads no multiplier or half-plane code.
from .errors import PreconditionViolation, TkError
from .expressions import parse_expression
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


def _shown(key: str, value) -> dict:
    """``key`` printed and ``key_raw`` at full precision, for a rational
    or complex value, a sequence of them, or None."""
    if isinstance(value, (list, tuple)):
        shown = [_shown(key, v) for v in value]
        return {k: [s[k] for s in shown] for k in (key, f"{key}_raw")}
    if value is None:
        text = raw = None
    elif isinstance(value, RationalFunction):
        text = format_rational(value)
        raw = {"gain": [value._gain.real, value._gain.imag],
               "zeros": [[r.real, r.imag, m] for r, m in value._zeros],
               "poles": [[r.real, r.imag, m] for r, m in value._poles]}
    else:
        c = complex(value)
        text, raw = format_complex(c), [c.real, c.imag]
    return {key: text, f"{key}_raw": raw}


def _zeros(blaschke):
    return [{**_shown("zero", a), "multiplicity": m} for a, m in blaschke.zeros]


def _kernel_result(K, verify_inline: bool, tol: float):
    result = {"dimension": K.dimension, "winding": K.symbol.winding, **_shown("basis", K.basis)}
    mismatch = False
    if verify_inline:
        # the oracle loads numpy, which no other command needs
        from .oracle import numeric_kernel, principal_angle, subspace_from_rationals

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
    from .kernels import kernel

    return _kernel_result(kernel(args.symbol), args.verify_inline, args.tol)


def _cmd_dim(args):
    from .kernels import kernel

    s = as_symbol(args.symbol)
    return {"dimension": kernel(s).dimension, "winding": s.winding}, False


def _cmd_minkernel(args):
    from .kernels import minimal_kernel

    v, K = minimal_kernel(args.vector)
    result, _ = _kernel_result(K, False, args.tol)
    return {**result, **_shown("symbol", v.value)}, False


def _cmd_maximal(args):
    from .kernels import is_maximal

    cert = is_maximal(args.vector, args.symbol)
    return {
        "is_maximal": cert.is_maximal,
        **_shown("certificate", cert.certificate),
        **_shown("witness_zero", cert.failure_witness),
    }, False


def _cmd_factor(args):
    from .factorization import inner_outer, wiener_hopf

    if args.mode == "inner-outer":
        io = inner_outer(args.f)
        return {
            **_shown("inner_constant", io.inner.constant),
            "inner_zeros": _zeros(io.inner),
            **_shown("outer", io.outer),
        }, False
    wh = wiener_hopf(args.f)
    return {**_shown("minus", wh.minus), "index": wh.index, **_shown("plus", wh.plus)}, False


def _cmd_mult(args):
    from .multipliers import is_multiplier, smirnov_multiplier_test

    # one symbol each for g and h, so both routes share its kept kernel
    w, g, h = args.w, as_symbol(args.g), as_symbol(args.h)
    via_vector = is_multiplier(w, g, h)
    via_smirnov = smirnov_multiplier_test(w, g, h)
    return {
        "is_multiplier": via_vector,
        "routes": {"maximal_vector": via_vector, "smirnov": via_smirnov},
    }, via_vector != via_smirnov


def _cmd_m2(args):
    from .multipliers import multiplier_space

    ms = multiplier_space(args.g, args.h)
    return {"dimension": ms.dimension, **_shown("factor", ms.factor),
            **_shown("basis", ms.basis)}, False


def _cmd_include(args):
    from .kernels import includes

    return {"includes": includes(args.g, args.h)}, False


def _cmd_equal(args):
    from .kernels import equals

    return {"equal": equals(args.g, args.h)}, False


def _cmd_equiv(args):
    from .kernels import is_equivalent

    witness = is_equivalent(args.g1, args.g2)
    if witness is None:
        return {"equivalent": False, "h_minus": None, "h_plus": None}, False
    return {
        "equivalent": True,
        **_shown("h_minus", witness.h_minus),
        **_shown("h_plus", witness.h_plus),
    }, False


def _cmd_crofoot(args):
    from .factorization import blaschke_from_rational
    from .multipliers import crofoot_companion

    theta = blaschke_from_rational(args.theta)
    if theta is None:
        raise PreconditionViolation("theta does not reduce to a finite Blaschke product")
    phi = crofoot_companion(theta, args.w)
    if phi is None:
        return {"companion": None}, False
    return {
        "companion": {
            **_shown("constant", phi.constant),
            "zeros": _zeros(phi),
            **_shown("rational", phi.to_rational()),
        }
    }, False


def _cmd_surjective(args):
    from .multipliers import is_surjective_multiplier

    report = is_surjective_multiplier(args.w, args.g, args.h)
    return {
        "holds": report.holds,
        "outer_ok": report.outer_ok,
        "carleson_forward_ok": report.carleson_forward_ok,
        "carleson_inverse_ok": report.carleson_inverse_ok,
        "symbol_identity_ok": report.symbol_identity_ok,
    }, False


def _cmd_rigid(args):
    from .kernels import is_rigid

    return {"rigid": is_rigid(args.p)}, False


def _cmd_cayley(args):
    from .halfplane import HalfPlaneRational, cayley_function, cayley_symbol

    f = HalfPlaneRational(args.f)
    if args.mode == "function":
        out = cayley_function(f)
    else:
        out = cayley_symbol(f).value
    return _shown("result", out), False


def _cmd_verify(args):
    from .verify import run_suite  # loads numpy and the oracle

    report = run_suite(args.suite, seed=args.seed, tol=args.tol)
    for c in report["checks"]:
        _log(f"[{'PASS' if c['ok'] else 'FAIL'}] {c['name']} {c['detail']}")
    return report, report["failed"] > 0


# Each command: its handler, which takes the parsed arguments and returns
# (result, mismatch); its expression flags, each ``--<dest>`` and lowered to
# a rational value before the handler runs; and its further arguments. The
# required ones among those are inputs and are echoed as given.
_COMMANDS = {
    "kernel": (_cmd_kernel, ["symbol"], {"--verify-inline": dict(action="store_true")}),
    "dim": (_cmd_dim, ["symbol"], {}),
    "minkernel": (_cmd_minkernel, ["vector"], {}),
    "maximal": (_cmd_maximal, ["vector", "symbol"], {}),
    "factor": (_cmd_factor, ["f"],
               {"--mode": dict(choices=["inner-outer", "wiener-hopf"], required=True)}),
    "mult": (_cmd_mult, ["w", "g", "h"], {}),
    "m2": (_cmd_m2, ["g", "h"], {}),
    # for rational data the bounded multipliers are the square-integrable ones
    "minf": (_cmd_m2, ["g", "h"], {}),
    "include": (_cmd_include, ["g", "h"], {}),
    "equal": (_cmd_equal, ["g", "h"], {}),
    "equiv": (_cmd_equiv, ["g1", "g2"], {}),
    "crofoot": (_cmd_crofoot, ["w", "theta"], {}),
    "surjective": (_cmd_surjective, ["w", "g", "h"], {}),
    "rigid": (_cmd_rigid, ["p"], {}),
    "cayley": (_cmd_cayley, ["f"],
               {"--mode": dict(choices=["function", "symbol"], required=True)}),
    "verify": (_cmd_verify, [], {"--suite": dict(required=True)}),
}


def _add_global_flags(parser, suppress=False):
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--text", action="store_true", default=False if not suppress else d,
                        help="plain text output instead of JSON")
    parser.add_argument("--tol", type=float, default=1e-8 if not suppress else d)
    parser.add_argument("--seed", type=int, default=42 if not suppress else d)
    parser.add_argument("--report", metavar="PATH", default=None if not suppress else d,
                        help="also write the JSON document to PATH")


def build_parser(command=None) -> argparse.ArgumentParser:
    """The ``tk`` parser with every command, or with ``command`` alone.
    The one-command parser names every command in its usage line, so its
    help and error messages read as the full parser's."""
    parser = argparse.ArgumentParser(
        prog="tk", description="Toeplitz kernels, multipliers and factorizations on rational data"
    )
    _add_global_flags(parser)
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    for name in _COMMANDS if command is None else [command]:
        _, exprs, options = _COMMANDS[name]
        p = sub.add_parser(name)
        # global flags are accepted after the subcommand as well; SUPPRESS
        # keeps the subparser from clobbering values parsed up front
        _add_global_flags(p, suppress=True)
        for dest in exprs:
            p.add_argument(f"--{dest}", required=True, metavar="EXPR")
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
    return parser


def _lower_inputs(args) -> dict:
    """Parse and lower each expression flag once, replacing its text in
    ``args`` with the rational value, and return the envelope's canonical
    inputs."""
    _, exprs, options = _COMMANDS[args.command]
    variable = "s" if args.command == "cayley" else "z"
    inputs = {}
    for dest in exprs:
        value = parse_expression(getattr(args, dest), variable=variable).to_rational()
        setattr(args, dest, value)
        inputs[dest] = format_rational(value, variable=variable)
    for flag, kwargs in options.items():
        if kwargs.get("required"):
            dest = flag.lstrip("-")
            inputs[dest] = getattr(args, dest)
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
    argv = sys.argv[1:] if argv is None else argv
    # a first token that names a command is the command, and every later
    # token goes to its subparser: building that one subparser alone takes a
    # fraction of the time of building all of them. After a global flag, a
    # command name may be the flag's value (``tk --report mult dim ...``), so
    # any other argv gets the full parser.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    _log(f"running {args.command}")
    try:
        # NaN fails every comparison: it would switch off the --verify-inline
        # check, and prints as ``NaN``, which is not JSON
        if not 0.0 <= args.tol < float("inf"):
            raise PreconditionViolation(f"--tol must be finite and >= 0, got {args.tol}")
        if args.seed < 0:
            raise PreconditionViolation(f"--seed must be >= 0, got {args.seed}")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            inputs = _lower_inputs(args)
            result, mismatch = _COMMANDS[args.command][0](args)
        doc = {
            "command": args.command,
            "inputs": inputs,
            "result": result,
            "warnings": sorted({str(w.message) for w in caught}),
            "tolerances": {"tol": args.tol},
            "seed": args.seed,
        }
    except TkError as exc:
        return _emit(_error(exc.code, str(exc), getattr(exc, "position", None)), 2)
    if args.report:
        try:
            with open(args.report, "w") as fh:
                json.dump(doc, fh, indent=2)
        except OSError as exc:
            return _emit(_error("report-not-written", f"cannot write the report: {exc}"), 2)
    out = _render_text(doc) if args.text else json.dumps(doc, indent=2)
    return _emit(out, 1 if mismatch else 0)


def _error(code: str, message: str, position=None) -> str:
    """The JSON error object of a refused run (``ERROR_SCHEMA``)."""
    return json.dumps({"error": code, "message": message, "position": position})


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
