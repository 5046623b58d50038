#!/usr/bin/env python3
"""Tour of exact arithmetic in Q(sqrt(3)).

The running character is alpha = 3/(9 - sqrt(3)) = 9/26 + (1/26) sqrt(3):
every floor, ceiling, comparison and decimal below is computed with integer
arithmetic only, so each printed identity is exact, not approximate.
"""

from fractions import Fraction as F

from divfilt.quadfield import QuadExt

alpha = QuadExt(F(9, 26), F(1, 26), 3)
root3 = QuadExt(0, 1, 3)

print("alpha          =", alpha, "~", alpha.to_decimal(12))
print("alpha^2        =", alpha**2)
print("alpha^3        =", alpha**3)
print("alpha*(9-r3)   =", alpha * (9 - root3), " (defining product)")
print("26a^2-18a+3    =", 26 * alpha**2 - 18 * alpha + 3, " (minimal polynomial)")
print("min quadratic  =", alpha.minimal_quadratic())
print()

print("floors of n*alpha:")
for n in (1, 2, 3, 10, 100, 10**6):
    print(f"  n={n:>7}: floor={alpha.floor_scaled(n):>7}  ceil={alpha.ceil_scaled(n):>7}")
print()

# comparisons are decided by the exact sign of the difference
x = QuadExt(F(-5), F(3), 3)  # -5 + 3 sqrt(3): positive since 27 > 25
print("sign(-5+3r3)   =", x.sign())
print("alpha < 1      =", alpha < 1)
print()

# correctly rounded decimals at any precision
print("alpha to 40 digits:", alpha.to_decimal(40))
print("sqrt(3) to 40 digits:", root3.to_decimal(40))
