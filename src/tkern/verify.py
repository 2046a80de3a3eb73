"""Regression suite behind ``tk verify``.

Each check reproduces a worked algebraic fact in closed form and reports
one pass/fail entry; randomized checks draw from the seeded generators so
a run is reproducible from its reported seed.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionViolation
from .factorization import BlaschkeProduct, blaschke_divides
from .halfplane import (
    HalfPlaneRational,
    cayley_function,
    cayley_symbol,
    circle_norm_squared,
)
from .kernels import (
    dim_from_factorization,
    in_kernel,
    includes,
    is_maximal,
    kernel,
    minimal_kernel,
)
from .multipliers import (
    image_kernel,
    is_multiplier,
    is_surjective_multiplier,
    crofoot_companion,
    multiplier_space,
)
from .oracle import principal_angle, subspace_from_rationals
from .random_instances import random_blaschke, random_conjugate_outer, random_outer, random_symbol
from .rational import RationalFunction, ToeplitzSymbol, monomial


def _check(name, ok, detail=""):
    return {"name": name, "ok": bool(ok), "detail": detail}


def _model_space_symbol(n: int) -> ToeplitzSymbol:
    return ToeplitzSymbol(monomial(-n))


def _monomial_subspace(dim: int, cap: int):
    return subspace_from_rationals([monomial(j) for j in range(dim)], cap)


def paper_examples_suite(seed: int = 42, tol: float = 1e-8) -> list[dict]:
    rng = np.random.default_rng(seed)
    checks = []

    # kernel of 1/z^2 is spanned by 1 and z
    K = kernel(_model_space_symbol(2))
    angle = principal_angle(
        subspace_from_rationals(K.basis, 8), _monomial_subspace(2, 8)
    )
    checks.append(
        _check(
            "model-space-z2-basis",
            K.dimension == 2 and angle < tol,
            f"dimension={K.dimension} angle={angle:.2e}",
        )
    )

    # minimal kernel of the constants is the one-dimensional model space
    v, Kmin = minimal_kernel(RationalFunction(1.0))
    checks.append(
        _check(
            "minimal-kernel-of-constants",
            Kmin.dimension == 1 and v.value.is_close(monomial(-1)),
            f"symbol={v} dimension={Kmin.dimension}",
        )
    )

    # maximal vectors a + bz of the two-dimensional model space: |a| <= |b|
    s2 = _model_space_symbol(2)
    lattice_ok = True
    for a in (-1.0, -0.5, 0.0, 0.3, 0.6, 1.0):
        for b in (-1.0, -0.5, 0.0, 0.3, 0.6, 1.0):
            if a == 0.0 and b == 0.0:
                continue
            vec = RationalFunction([a, b])
            expected = abs(a) <= abs(b)
            if is_maximal(vec, s2).is_maximal != expected:
                lattice_ok = False
    checks.append(_check("z2-maximal-vector-lattice", lattice_ok))

    # the reproducing kernel is not maximal; witness zero inside the disc
    cert = is_maximal(RationalFunction([1.0, 0.5]), s2)
    checks.append(
        _check(
            "reproducing-kernel-not-maximal",
            (not cert.is_maximal)
            and cert.failure_witness is not None
            and abs(cert.failure_witness + 0.5) < tol,
            f"witness={cert.failure_witness}",
        )
    )

    # the backward shift of a finite Blaschke product is maximal
    ok = True
    for deg in (1, 2, 3):
        theta = random_blaschke(rng, deg)
        tr = theta.to_rational()
        sstar = (tr - tr(0.0)) / monomial(1)
        ok = ok and is_maximal(sstar, ToeplitzSymbol(tr.circle_conjugate())).is_maximal
    checks.append(_check("backward-shift-is-maximal", ok))

    # multipliers between power model spaces
    ok = True
    details = []
    for n in range(1, 5):
        for m in range(1, 5):
            ms = multiplier_space(_model_space_symbol(n), _model_space_symbol(m))
            expected = m - n + 1 if n <= m else 0
            if ms.dimension != expected:
                ok = False
                details.append(f"(n={n},m={m})->{ms.dimension}")
    checks.append(_check("power-multiplier-spaces", ok, " ".join(details)))

    # 1 + z carries the constants into the two-dimensional model space
    checks.append(
        _check(
            "power-example-multiplier",
            is_multiplier(RationalFunction([1.0, 1.0]), _model_space_symbol(1), s2)
            and not is_multiplier(monomial(2), _model_space_symbol(1), s2),
        )
    )

    # 1/(1+bz) maps one vector into the model space but is not a multiplier
    ok = True
    for b in (0.3, 0.6, 0.9):
        w = RationalFunction([1.0]) / RationalFunction([1.0, b])
        ok = ok and not is_multiplier(w, s2, s2)
        ok = ok and in_kernel(w * RationalFunction([1.0, b]), s2)
    checks.append(_check("non-multiplier-guard", ok))

    # kernel dimension from a factored symbol
    ok = True
    for n, N in ((1, 1), (2, 1), (2, 2), (3, 2)):
        theta = random_blaschke(rng, n)
        gm = random_conjugate_outer(rng, zeros=1, poles=1)
        gp = random_outer(rng, zeros=1, poles=1)
        ok = ok and dim_from_factorization(gm, theta, N, gp) == n * N
    checks.append(_check("dimension-theorem", ok))

    # degenerate branches of the factored dimension count
    theta = random_blaschke(rng, 2)
    gm = random_conjugate_outer(rng, 1, 1)
    gp = random_outer(rng, 1, 1)
    checks.append(
        _check(
            "dimension-theorem-degenerate",
            dim_from_factorization(gm, theta, 0, gp) == 0
            and dim_from_factorization(gm, theta, -1, gp) == 0,
        )
    )

    # dim ker T_{zbar theta h} = max(0, dim ker T_{zbar h} - deg theta)
    ok = True
    for _ in range(10):
        h = random_symbol(rng, max_half_degree=2)
        theta = random_blaschke(rng, int(rng.integers(1, 5)))
        base = kernel(ToeplitzSymbol(monomial(-1) * h.value)).dimension
        shifted = RationalFunction._product((monomial(-1), theta.to_rational(), h.value))
        lifted = kernel(ToeplitzSymbol(shifted)).dimension
        ok = ok and lifted == max(0, base - theta.degree)
    checks.append(_check("shifted-kernel-dimension-drop", ok))

    # inclusion of model spaces mirrors Blaschke divisibility
    ok = True
    for _ in range(12):
        theta = random_blaschke(rng, int(rng.integers(1, 5)))
        if rng.random() < 0.5 and theta.degree >= 2:
            take = int(rng.integers(1, theta.degree))
            alpha = BlaschkeProduct(1.0, theta.zeros[:take])
        else:
            alpha = random_blaschke(rng, int(rng.integers(1, 4)))
        lhs = includes(
            ToeplitzSymbol(alpha.to_rational().circle_conjugate()),
            ToeplitzSymbol(theta.to_rational().circle_conjugate()),
        )
        ok = ok and lhs == blaschke_divides(alpha, theta)
    checks.append(_check("model-space-inclusion-divisibility", ok))

    # companion inner function of the elementary surjective multipliers
    ok = True
    details = []
    for a in (0.2, 0.5, 0.8, 0.5j):
        w = RationalFunction([1.0]) / RationalFunction([1.0, -np.conj(a)])
        phi = crofoot_companion(BlaschkeProduct(1.0, [(0.0, 1)]), w)
        expected = RationalFunction([-a, 1.0], [1.0, -np.conj(a)])
        if phi is None or not phi.to_rational().is_close(expected, 1e-10):
            ok = False
            details.append(f"a={a}")
            continue
        report = is_surjective_multiplier(
            w, _model_space_symbol(1), ToeplitzSymbol(expected.circle_conjugate())
        )
        ok = ok and report.holds
    checks.append(_check("crofoot-companion", ok, " ".join(details)))

    # an image of a kernel that is not itself a kernel
    w = RationalFunction([1.0, 1.0])
    img = image_kernel(w, _model_space_symbol(1))
    _, KminW = minimal_kernel(w)
    checks.append(
        _check(
            "image-kernel-dimension-gap",
            img is None and KminW.dimension == 2,
            f"minimal dimension={KminW.dimension}",
        )
    )

    # half-plane backward shift transfers to a maximal vector on the disc
    theta_hp = HalfPlaneRational(RationalFunction([-1j, 1.0], [1j, 1.0]))
    k_hp = HalfPlaneRational(RationalFunction([1.0], [1j, 1.0]))
    G = cayley_symbol(theta_hp.conjugate_on_line())
    kv = cayley_function(k_hp)
    checks.append(
        _check(
            "halfplane-backward-shift-maximal",
            G.value.is_close(RationalFunction([-1.0], [0.0, 1.0]))
            and is_maximal(kv, G).is_maximal,
            f"transferred symbol={G}",
        )
    )

    # closed-form transfer norms
    f1 = HalfPlaneRational(RationalFunction([1.0], [1j, 1.0]))
    f2 = HalfPlaneRational(RationalFunction([1.0], [1j, 1.0]) ** 2)
    n1 = circle_norm_squared(cayley_function(f1))
    n2 = circle_norm_squared(cayley_function(f2))
    checks.append(
        _check(
            "cayley-isometry-closed-forms",
            abs(n1 - np.pi) < 1e-6 * np.pi and abs(n2 - np.pi / 2) < 1e-6 * np.pi,
            f"norms {n1:.9f}, {n2:.9f}",
        )
    )

    return checks


def run_suite(name: str, seed: int = 42, tol: float = 1e-8) -> dict:
    if name != "paper-examples":
        raise PreconditionViolation(f"unknown suite {name!r}; available: ['paper-examples']")
    checks = paper_examples_suite(seed=seed, tol=tol)
    failed = sum(1 for c in checks if not c["ok"])
    return {
        "suite": name,
        "passed": len(checks) - failed,
        "failed": failed,
        "checks": checks,
    }
