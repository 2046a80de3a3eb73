# Multipliers from one Toeplitz kernel into another.
#
# Membership needs only two ingredients: a Carleson condition (no circle
# pole of w, at rational scale) and the image of one maximal vector. An independent conjugate-Smirnov route cross-checks every
# answer.

from tkern import (
    RationalFunction,
    as_symbol,
    in_kernel,
    is_multiplier,
    monomial,
    multiplier_space,
    smirnov_multiplier_test,
)

s1 = as_symbol(monomial(-1))
s2 = as_symbol(monomial(-2))
s3 = as_symbol(monomial(-3))

# 1 + z maps the constants into the two-dimensional model space.
w = RationalFunction([1, 1])
print("1+z multiplies K_z into K_z2:", is_multiplier(w, s1, s2))
print("smirnov route agrees:", smirnov_multiplier_test(w, s1, s2))

# z^2 overflows the target degree.
print("z^2 multiplies K_z into K_z2:", is_multiplier(monomial(2), s1, s2))

# 1/(1+bz) repairs its own denominator vector but fails on the rest of
# the space: a one-vector test is not enough without maximality.
for b in (0.3, 0.6, 0.9):
    w = RationalFunction([1.0]) / RationalFunction([1.0, b])
    print(f"1/(1+{b}z): moves 1+{b}z into the space:",
          in_kernel(w * RationalFunction([1.0, b]), s2),
          "| is a multiplier:", is_multiplier(w, s2, s2))

# The whole multiplier space, read from the two kernels' parametrisations:
# ker T_g = plus_g * P_{d_g-1} and ker T_h = plus_h * P_{d_h-1} give
# (plus_h / plus_g) * P_{d_h-d_g}. Its elements have no pole on the closed
# disc, so the bounded multipliers are the square-integrable ones here.
print("\nmultiplier spaces between power model spaces:")
for n, m in [(1, 2), (2, 5), (3, 3), (3, 1)]:
    ms = multiplier_space(monomial(-n), monomial(-m))
    print(f"  K_z{n} -> K_z{m}: dimension {ms.dimension}",
          [str(b) for b in ms.basis])

# From the model space of theta = z * B(0.5), whose plus factor is
# 1/(1 - 0.5z), into K_z3, whose plus factor is 1.
theta = monomial(1) * RationalFunction([-0.5, 1.0], [1.0, -0.5])
ms = multiplier_space(theta.circle_conjugate(), s3)
print("\nK_theta -> K_z3: factor", ms.factor, "| basis", [str(b) for b in ms.basis])
