# Minimal kernels and maximal vectors.
#
# Every nonzero Hardy-space rational k sits in a smallest Toeplitz kernel,
# computed from its inner-outer factorization. A vector is maximal for a
# kernel plus * P_{d-1} when that smallest kernel is the whole thing:
# exactly when k / plus has degree d - 1 and no zero outside the closed
# disc. The certificate function conj(z * symbol * k), built when read,
# shows the same: it has no zero inside the disc.

import numpy as np

from tkern import RationalFunction, as_symbol, is_maximal, minimal_kernel, monomial

# Constants generate the one-dimensional model space.
v, K = minimal_kernel(RationalFunction([1.0]))
print("minimal kernel of 1: symbol", v, "dimension", K.dimension)

# A circle zero doubles the minimal kernel: conj(1-z)/(1-z) collapses to
# -1/z on the boundary, so the symbol gains an extra power of 1/z.
v, K = minimal_kernel(RationalFunction([1, -1]))
print("minimal kernel of 1-z: symbol", v, "dimension", K.dimension)

# The lattice of maximal vectors a + bz of the two-dimensional model
# space: maximal exactly when |a| <= |b|.
s2 = as_symbol(monomial(-2))
print("\nmaximality of a + bz for the kernel of 1/z^2:")
for a, b in [(0.0, 1.0), (0.5, 1.0), (1.0, 1.0), (1.0, 0.5), (1.0, 0.0)]:
    cert = is_maximal(RationalFunction([a, b]), s2)
    tag = "maximal" if cert.is_maximal else f"not maximal (witness {cert.failure_witness:.3g})"
    print(f"  a={a:3.1f} b={b:3.1f}: {tag}")

# The reproducing kernel at 1/2 is the classic non-maximal test function:
# its certificate has a zero inside the disc.
cert = is_maximal(RationalFunction([1.0, 0.5]), s2)
print("\nreproducing kernel 1 + z/2: certificate", cert.certificate,
      "-> maximal:", cert.is_maximal)

# The backward shift of a finite Blaschke product is always maximal for
# its model space; the certificate is the invertible outer function
# 1 - conj(theta(0)) theta.
b = RationalFunction([-0.4, 1], [1, -0.4])
theta = monomial(1) * b
sstar = (theta - theta(0.0)) / monomial(1)
cert = is_maximal(sstar, as_symbol(theta.circle_conjugate()))
print("\nbackward shift of z*B(0.4) is maximal:", cert.is_maximal)
print("certificate:", cert.certificate)
