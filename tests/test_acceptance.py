"""Acceptance criteria.

Each test enforces one criterion at its stated tolerance and runtime bound
and prints one [PASS]/[FAIL] line (run with -s to see them inline).
"""

import json
import shutil
import subprocess
import sys
import sysconfig
import time
from contextlib import contextmanager

import jsonschema
import numpy as np

import tkern.halfplane
from tkern import (
    BlaschkeProduct,
    RationalFunction,
    as_symbol,
    blaschke_divides,
    cayley_function,
    circle_norm_squared,
    crofoot_companion,
    equals,
    image_kernel,
    in_kernel,
    includes,
    is_maximal,
    is_multiplier,
    is_rigid,
    is_surjective_multiplier,
    kernel,
    line_norm_squared,
    minimal_kernel,
    monomial,
    multiplier_space,
    numeric_kernel,
    principal_angle,
    smirnov_multiplier_test,
    subspace_from_rationals,
)
from tkern.cli import ENVELOPE_SCHEMA
from tkern.halfplane import HalfPlaneRational
from tkern.multipliers import is_surjective_multiplier as surjective
from tkern.random_instances import (
    random_blaschke,
    random_conjugate_outer,
    random_outer,
    random_rational,
    random_symbol,
)

from conftest import random_halfplane_hardy, random_kernel_symbol

SEED = 42


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.time() - start
    assert elapsed < budget_seconds, f"criterion {number} overran: {elapsed:.1f}s"
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)")


def test_criterion_1_power_model_space_multipliers():
    with criterion(1, "power model spaces: dim M2(K_zn, K_zm) = m-n+1", 1.0):
        for n in range(1, 7):
            for m in range(n, 7):
                ms = multiplier_space(monomial(-n), monomial(-m))
                assert ms.dimension == m - n + 1
                span = subspace_from_rationals(ms.basis, 12)
                mono = subspace_from_rationals([monomial(j) for j in range(m - n + 1)], 12)
                assert principal_angle(span, mono) < 1e-8


def test_criterion_2_z2_lattice():
    with criterion(2, "K_z2 lattice: maximal iff |a| <= |b|; minimal kernels of 1+bz", 1.0):
        s2 = as_symbol(monomial(-2))
        grid = np.arange(-10, 11) / 10.0  # exact negation pairs on the grid
        for a in grid:
            for b in grid:
                if a == 0.0 and b == 0.0:
                    continue
                got = is_maximal(RationalFunction([a, b]), s2).is_maximal
                assert got == (abs(a) <= abs(b)), (a, b)
        for b in (0.0, 0.4, -0.9, 0.3 + 0.4j, 1.0, -1.0, 1j, 1.5, -2.0, 1 + 1j):
            v, K = minimal_kernel(RationalFunction([1.0, b]))
            if abs(b) < 1.0:
                assert K.dimension == 1
                assert not equals(v, s2)
            else:
                assert K.dimension == 2
                assert equals(v, s2)


def test_criterion_3_non_multiplier_guard():
    with criterion(3, "1/(1+bz) is not a multiplier of K_z2 though one product lands inside", 1.0):
        s2 = as_symbol(monomial(-2))
        for b in (0.3, 0.6, 0.9):
            w = RationalFunction([1.0]) / RationalFunction([1.0, b])
            assert not is_multiplier(w, s2, s2)
            assert in_kernel(w * RationalFunction([1.0, b]), s2)


def test_criterion_4_dimension_theorem():
    with criterion(4, "factored symbols: kernel dimension n*N, oracle agrees", 30.0):
        rng = np.random.default_rng(SEED)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            N = int(rng.integers(1, 4))
            theta = random_blaschke(rng, n)
            g_minus = random_conjugate_outer(rng, int(rng.integers(0, 2)), 1)
            g_plus = random_outer(rng, int(rng.integers(0, 2)), 1)
            assert is_rigid(g_plus)
            assembled = as_symbol(g_minus * theta.to_rational() ** (-N) / g_plus)
            K = kernel(assembled)
            assert K.dimension == n * N
            ns = numeric_kernel(assembled)
            assert ns.dimension == n * N
            sym = subspace_from_rationals(K.basis, ns.degree_cap)
            assert principal_angle(sym, ns) < 1e-6


def test_criterion_5_shifted_kernel_dimension_formula():
    with criterion(5, "dim ker T_(zbar theta h) = max(0, dim ker T_(zbar h) - k)", 30.0):
        rng = np.random.default_rng(SEED)
        for _ in range(100):
            h = random_symbol(rng, 2)
            theta = random_blaschke(rng, int(rng.integers(1, 5)))
            base = kernel(as_symbol(monomial(-1) * h.value)).dimension
            lifted = kernel(
                as_symbol(monomial(-1) * theta.to_rational() * h.value)
            ).dimension
            assert lifted == max(0, base - theta.degree)


def test_criterion_6_crofoot():
    with criterion(6, "Crofoot companions (z-a)/(1-conj(a)z) with surjectivity", 1.0):
        for a in (0.2, 0.5, 0.8, 0.5j):
            w = RationalFunction([1.0]) / RationalFunction([1.0, -np.conj(a)])
            phi = crofoot_companion(BlaschkeProduct(1.0, [(0.0, 1)]), w)
            assert phi is not None
            expected = RationalFunction([-a, 1.0], [1.0, -np.conj(a)])
            got = phi.to_rational()
            assert got.num.is_close(expected.num, 1e-10)
            assert got.den.is_close(expected.den, 1e-10)
            report = surjective(
                w, monomial(-1), as_symbol(expected.circle_conjugate())
            )
            assert report.holds


def test_criterion_7_surjectivity_failure_anatomy():
    with criterion(7, "w = 1+z: symbol identity holds, inverse Carleson fails, image not a kernel", 1.0):
        w = RationalFunction([1.0, 1.0])
        report = is_surjective_multiplier(w, monomial(-1), monomial(-2))
        assert report.symbol_identity_ok
        assert not report.carleson_inverse_ok
        assert not report.holds
        assert image_kernel(w, monomial(-1)) is None


def test_criterion_8_oracle_equivalence():
    with criterion(8, "symbolic and numeric kernels agree on 100 random symbols", 60.0):
        rng = np.random.default_rng(SEED)
        for _ in range(100):
            s = random_symbol(rng, 2)
            K = kernel(s)
            ns = numeric_kernel(s)
            assert ns.dimension == K.dimension
            if K.dimension:
                sym = subspace_from_rationals(K.basis, ns.degree_cap)
                assert principal_angle(sym, ns) < 1e-6
            assert ns.gap_ratio > 1e3


def test_criterion_9_inclusion_equality_laws():
    with criterion(9, "conjugate-outer twists preserve kernels; inclusion mirrors divisibility", 10.0):
        rng = np.random.default_rng(SEED)
        for _ in range(100):
            g = random_kernel_symbol(rng)
            p = random_outer(rng, 1, 1)
            q = random_outer(rng, 1, 0)
            h = as_symbol(g.value * p.circle_conjugate() / q.circle_conjugate())
            assert equals(g, h)
        for _ in range(100):
            theta = random_blaschke(rng, int(rng.integers(1, 6)))
            if rng.random() < 0.5 and theta.degree >= 2:
                take = int(rng.integers(1, theta.degree))
                alpha = BlaschkeProduct(1.0, theta.zeros[:take])
            else:
                alpha = random_blaschke(rng, int(rng.integers(1, 5)))
            lhs = includes(
                as_symbol(alpha.to_rational().circle_conjugate()),
                as_symbol(theta.to_rational().circle_conjugate()),
            )
            assert lhs == blaschke_divides(alpha, theta)


def test_criterion_10_cayley_isometry(monkeypatch):
    with criterion(10, "transfer isometry: line and circle norms agree to 1e-6", 5.0):
        rng = np.random.default_rng(SEED)
        f1 = HalfPlaneRational(RationalFunction([1.0], [1j, 1.0]))
        assert abs(line_norm_squared(f1) - np.pi) < 1e-6 * np.pi
        assert abs(circle_norm_squared(cayley_function(f1)) - np.pi) < 1e-6 * np.pi
        f2 = HalfPlaneRational(RationalFunction([1.0], [1j, 1.0]) ** 2)
        assert abs(line_norm_squared(f2) - np.pi / 2) < 1e-6 * np.pi
        assert abs(circle_norm_squared(cayley_function(f2)) - np.pi / 2) < 1e-6 * np.pi
        monkeypatch.setattr(tkern.halfplane, "QUAD_POINTS", 8192)
        for _ in range(50):
            f = HalfPlaneRational(random_halfplane_hardy(rng, int(rng.integers(1, 7))))
            line = line_norm_squared(f)
            circ = circle_norm_squared(cayley_function(f))
            assert abs(line - circ) <= 1e-6 * max(line, circ)


def test_criterion_11_two_route_multiplier_agreement():
    with criterion(11, "maximal-vector route and Smirnov route agree on 500 triples", 60.0):
        rng = np.random.default_rng(SEED)
        circle_pole = RationalFunction([1.0]) / RationalFunction([-1.0, 1.0])
        for i in range(500):
            g = random_kernel_symbol(rng, 3, 2)
            h = random_kernel_symbol(rng, 3, 2)
            w = random_rational(
                rng,
                int(rng.integers(0, 2)),
                int(rng.integers(0, 2)),
                int(rng.integers(0, 2)),
                int(rng.integers(0, 2)),
            )
            if i % 10 == 9:
                w = w * circle_pole
            assert is_multiplier(w, g, h) == smirnov_multiplier_test(w, g, h)


def tk_command():
    """Argv prefix that runs the `tk` CLI of the code under test.

    The console script is used when it is installed for this interpreter;
    looking only in this interpreter's scripts directory keeps a `tk` from
    another environment on PATH from standing in. Without an install (the
    package only on PYTHONPATH) the same `tkern.cli:main` runs as a module.
    """
    script = shutil.which("tk", path=sysconfig.get_path("scripts"))
    return [script] if script else [sys.executable, "-m", "tkern"]


def test_criterion_12_cli_contract():
    with criterion(12, "tk verify --suite paper-examples --seed 42 exits 0 with valid JSON", 120.0):
        proc = subprocess.run(
            [*tk_command(), "verify", "--suite", "paper-examples", "--seed", "42"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        jsonschema.validate(doc, ENVELOPE_SCHEMA)
        assert doc["result"]["failed"] == 0
        names = {c["name"] for c in doc["result"]["checks"]}
        assert {
            "model-space-z2-basis",
            "minimal-kernel-of-constants",
            "z2-maximal-vector-lattice",
            "reproducing-kernel-not-maximal",
            "backward-shift-is-maximal",
            "power-multiplier-spaces",
            "power-example-multiplier",
            "non-multiplier-guard",
            "dimension-theorem",
            "dimension-theorem-degenerate",
            "shifted-kernel-dimension-drop",
            "model-space-inclusion-divisibility",
            "crofoot-companion",
            "image-kernel-dimension-gap",
            "halfplane-backward-shift-maximal",
            "cayley-isometry-closed-forms",
        } <= names
