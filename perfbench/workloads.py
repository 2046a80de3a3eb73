"""The benchmark's four workloads: inputs drawn from a seed, and the
query that runs and checks one case.

Every input is drawn here with numpy, as raw roots or argv, before timing
starts; ``tkern.random_instances`` is deliberately not used, so a change to
the package's generators cannot change a workload. Each query builds its
``RationalFunction``/``ToeplitzSymbol`` values from those raw numbers, so
construction cost is part of the query.

A query returns ``(ok, detail)``. ``Case.expect_pass`` marks cases inside
the range where tkern is known to be right (roots at radius <= 0.45 or
>= 2.6, low degree); a wrong answer there makes the run incorrect. Cases
outside it carry the known defects (a)-(c) of ROADMAP.md: their failures
are counted and listed, never dropped.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import tkern
from hostspeed import run_child
from tkern import cli as tk_cli

SAFE_INSIDE = (0.1, 0.45)
SAFE_OUTSIDE = (2.6, 4.0)
# defect (c): the oracle's dimension disagrees for roots this close
NEAR_INSIDE = (0.5, 0.9)
NEAR_OUTSIDE = (1.1, 2.0)
# defect (a) starts at conj(B(0.5)^8); below this degree answers are right
LOW_DEGREE = 8

# each workload is a fixed case set that the runner repeats in whole passes,
# so which cases run, and which fail, depends on the seed alone; these sizes
# make one pass about half of a 10-second run on a 2-vCPU x86-64 host, and
# whole cycles of the 81 symbol shapes that ``_balanced`` stratifies
MULTIPLIER_CASES = 4 * 81
ORACLE_CASES = 2 * 5 * 81


@dataclass(frozen=True)
class Case:
    id: str
    raw: object
    expect_pass: bool


@dataclass(frozen=True)
class Workload:
    draw: Callable[[np.random.Generator], list]
    query: Callable[[object], tuple]
    # queries run in child processes: peak memory is theirs, and process
    # start-up is the reference for host speed
    in_subprocess: bool = False
    # the query used by the traced run, when it differs
    traced_query: Callable[[object], tuple] | None = None


@dataclass(frozen=True)
class RawRational:
    zeros: tuple
    poles: tuple
    lead: complex


def _separated(rng, n, radii, taken, min_gap=1e-3):
    lo, hi = radii
    out = []
    while len(out) < n:
        c = complex((lo + (hi - lo) * rng.random()) * np.exp(2j * np.pi * rng.random()))
        if all(abs(c - t) > min_gap for t in taken + out):
            out.append(c)
    taken += out
    return out


def _draw_rational(rng, zi, zo, pi, po, inside, outside) -> RawRational:
    taken: list = []
    zeros_in = _separated(rng, zi, inside, taken)
    poles_in = _separated(rng, pi, inside, taken)
    zeros_out = _separated(rng, zo, outside, taken)
    poles_out = _separated(rng, po, outside, taken)
    lead = complex((0.5 + 1.5 * rng.random()) * np.exp(2j * np.pi * rng.random()))
    return RawRational(tuple(zeros_in + zeros_out), tuple(poles_in + poles_out), lead)


def _balanced(rng, size, levels) -> list:
    """``size`` tuples of root counts, count k uniform over ``range(*levels[k])``
    and stratified: each combination appears once per cycle, in drawn
    order, so the share of heavy inputs does not move with the seed."""
    combos = list(itertools.product(*(range(*lv) for lv in levels)))
    out: list = []
    while len(out) < size:
        out += [combos[j] for j in rng.permutation(len(combos))]
    return out[:size]


# kernel symbols as in acceptance criterion 11: winding -1..-3 and at most
# two roots of each kind before tilting, as (dim, zeros in, zeros out, poles out)
KERNEL_SYMBOL_LEVELS = ((1, 4), (0, 3), (0, 3), (0, 3))


def _draw_kernel_symbol(rng, counts, inside=SAFE_INSIDE, outside=SAFE_OUTSIDE) -> RawRational:
    dim, zi, zo, po = counts
    return _draw_rational(rng, zi, zo, zi + dim, po, inside, outside)


def _build(raw: RawRational):
    return tkern.RationalFunction(
        tkern.ComplexPolynomial.from_roots(list(raw.zeros), lead=raw.lead),
        tkern.ComplexPolynomial.from_roots(list(raw.poles)),
    )


# -- multiplier_sweep ---------------------------------------------------------

def draw_multiplier(rng) -> list:
    g_counts = _balanced(rng, MULTIPLIER_CASES, KERNEL_SYMBOL_LEVELS)
    h_counts = _balanced(rng, MULTIPLIER_CASES, KERNEL_SYMBOL_LEVELS)
    w_counts = _balanced(rng, MULTIPLIER_CASES, ((0, 2),) * 4)
    cases = []
    for i in range(MULTIPLIER_CASES):
        g = _draw_kernel_symbol(rng, g_counts[i])
        h = _draw_kernel_symbol(rng, h_counts[i])
        w = _draw_rational(rng, *w_counts[i], SAFE_INSIDE, SAFE_OUTSIDE)
        if i % 10 == 9:  # a pole on the circle, at z = 1
            w = RawRational(w.zeros, w.poles + (1.0 + 0j,), w.lead)
        cases.append(Case(f"triple-{i}", (w, g, h), True))
    return cases


def multiplier_query(raw) -> tuple:
    w_raw, g_raw, h_raw = raw
    g = tkern.ToeplitzSymbol(_build(g_raw))
    h = tkern.ToeplitzSymbol(_build(h_raw))
    w = _build(w_raw)
    by_vector = tkern.is_multiplier(w, g, h)
    by_smirnov = tkern.smirnov_multiplier_test(w, g, h)
    if by_vector == by_smirnov:
        return True, ""
    return False, f"routes disagree: maximal-vector {by_vector}, smirnov {by_smirnov}"


# -- oracle_crosscheck --------------------------------------------------------

def draw_oracle(rng) -> list:
    half = ORACLE_CASES // 2
    safe = _balanced(rng, half, KERNEL_SYMBOL_LEVELS)
    near = _balanced(rng, half, KERNEL_SYMBOL_LEVELS)
    cases = []
    for i in range(half):
        cases.append(Case(f"safe-{2 * i}", _draw_kernel_symbol(rng, safe[i]), True))
        cases.append(Case(f"near-{2 * i + 1}",
                          _draw_kernel_symbol(rng, near[i], NEAR_INSIDE, NEAR_OUTSIDE), False))
    return cases


def oracle_query(raw) -> tuple:
    s = tkern.ToeplitzSymbol(_build(raw))
    K = tkern.kernel(s)
    ns = tkern.numeric_kernel(s)
    angle = tkern.principal_angle(tkern.subspace_from_rationals(K.basis, ns.degree_cap), ns)
    if ns.dimension != K.dimension:
        return False, f"oracle dimension {ns.dimension} != symbolic {K.dimension}"
    if not angle < 1e-6:
        return False, f"principal angle {angle:.3g}"
    if not ns.gap_ratio > 1e3:
        return False, f"gap ratio {ns.gap_ratio:.3g}"
    return True, ""


# -- degree_sweep -------------------------------------------------------------

def draw_degree(rng) -> list:
    """conj(B(0.5)^k) for k = 1..32, then products of n = 4, 8, .., 48
    distinct zeros. The zeros' radii are spread evenly over the safe inside
    range and their angles drawn, so the size from which products fail
    (n = 16 here) does not move with the seed."""
    cases = [Case(f"B(0.5)^{k}", ((0.5 + 0j, k),), k < LOW_DEGREE) for k in range(1, 33)]
    lo, hi = SAFE_INSIDE
    for n in range(4, 49, 4):
        radii = lo + (hi - lo) * (np.arange(n) + 0.5) / n
        zeros = radii * np.exp(2j * np.pi * rng.random(n))
        cases.append(Case(f"distinct-{n}", tuple((complex(a), 1) for a in zeros), n < LOW_DEGREE))
    return cases


def degree_query(raw):
    # a generator: each yield lets the runner probe host speed between the
    # parts of this long query
    theta = tkern.BlaschkeProduct(1.0, list(raw)).to_rational()
    degree = sum(m for _, m in raw)
    s = tkern.ToeplitzSymbol(theta.circle_conjugate())
    K = tkern.kernel(s)
    yield
    # every check runs on every case, so latency does not hinge on which fail
    outside = []
    for j, b in enumerate(K.basis):
        if not tkern.in_kernel(b, s):
            outside.append(j)
        yield
    maximal = False
    if K.basis:
        try:
            maximal = tkern.is_maximal(K.basis[-1], s).is_maximal
        except tkern.NotInKernel:
            pass
    problems = []
    if K.dimension != degree:
        problems.append(f"dimension {K.dimension} != {degree}")
    if outside:
        problems.append(f"{len(outside)} basis elements fail in_kernel, first {outside[0]}")
    if not maximal:
        problems.append("top vector not maximal")
    return not problems, "; ".join(problems)


# -- cli_oneshot --------------------------------------------------------------

def _crofoot_ok(r) -> bool:
    zeros = r["companion"]["zeros"]
    return len(zeros) == 1 and abs(complex(*zeros[0]["zero_raw"]) - 0.5) < 1e-9


# the README's `tk` examples and the result each one must report
CLI_CASES = (
    (("dim", "--symbol", "zbar^2"), lambda r: r["dimension"] == 2),
    (("kernel", "--symbol", "(2*z+1)/(z^4*(2+z))", "--verify-inline"),
     lambda r: r["dimension"] == 3 and r["oracle"]["dimension"] == 3),
    (("minkernel", "--vector", "1-z"), lambda r: r["symbol"] == "-1/(z^2)"),
    (("maximal", "--vector", "1+0.5*z", "--symbol", "zbar^2"), lambda r: r["is_maximal"] is False),
    (("factor", "--mode", "wiener-hopf", "--f", "(z+0.5)/(1+0.5*z)"), lambda r: r["index"] == 1),
    (("mult", "--w", "1+z", "--g", "zbar", "--h", "zbar^2"), lambda r: r["is_multiplier"] is True),
    (("m2", "--g", "zbar", "--h", "zbar^2"), lambda r: r["dimension"] == 2),
    (("minf", "--g", "zbar", "--h", "zbar^3"), lambda r: r["dimension"] == 3),
    (("include", "--g", "zbar", "--h", "zbar^2"), lambda r: r["includes"] is True),
    (("equal", "--g", "zbar^2", "--h", "zbar^3"), lambda r: r["equal"] is False),
    (("equiv", "--g1", "conj(z*B(0.5))", "--g2", "zbar^2"), lambda r: r["equivalent"] is True),
    (("crofoot", "--w", "1/(1-0.5*z)", "--theta", "z"), _crofoot_ok),
    (("surjective", "--w", "1/(1-0.5*z)", "--g", "zbar", "--h", "(2-z)/(2*z-1)"),
     lambda r: r["holds"] is True),
    (("rigid", "--p", "1+0.5*z"), lambda r: r["rigid"] is True),
    (("cayley", "--mode", "symbol", "--f", "(s-1i)/(s+1i)"), lambda r: r["result"] == "-z"),
    (("verify", "--suite", "paper-examples", "--seed", "42"),
     lambda r: r["failed"] == 0 and r["passed"] == 16),
)


def draw_cli(rng) -> list:
    # the seed only orders the commands; whole passes run every one
    order = rng.permutation(len(CLI_CASES))
    return [Case("tk " + " ".join(CLI_CASES[i][0]), int(i), True) for i in order]


def _check_cli(index: int, code: int, stdout: str) -> tuple:
    import jsonschema

    if code != 0:
        return False, f"exit code {code}"
    doc = json.loads(stdout)
    try:
        jsonschema.validate(doc, tk_cli.ENVELOPE_SCHEMA)
    except jsonschema.ValidationError as exc:
        return False, f"envelope: {exc.message}"
    if not CLI_CASES[index][1](doc["result"]):
        return False, "key result differs from the README"
    return True, ""


def cli_query(index: int) -> tuple:
    src = str(Path(tkern.__file__).resolve().parents[1])
    proc = run_child([sys.executable, "-m", "tkern", *CLI_CASES[index][0]], timeout=120,
                     env=dict(os.environ, PYTHONPATH=src))
    return _check_cli(index, proc.returncode, proc.stdout)


def cli_query_in_process(index: int) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = tk_cli.main(list(CLI_CASES[index][0]))
    return _check_cli(index, code, out.getvalue())


WORKLOADS = {
    "multiplier_sweep": Workload(draw_multiplier, multiplier_query),
    "oracle_crosscheck": Workload(draw_oracle, oracle_query),
    "degree_sweep": Workload(draw_degree, degree_query),
    "cli_oneshot": Workload(draw_cli, cli_query, in_subprocess=True,
                            traced_query=cli_query_in_process),
}
