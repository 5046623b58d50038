#!/usr/bin/env python3
"""Minimal generator counts of I_n = (z^(n+2)) + z^(n+1) (x, y)^sigma(n).

Whatever positive function sigma is plugged in, the ideal has exactly
sigma(n) + 2 minimal generators, so the length of I_n / m I_n grows as
fast as one likes while the filtration stays graded (I_m I_n inside
I_(m+n), verified below rather than assumed).  Every I_n also has a socle
witness u = x^(sigma(n)-1) z^(n+1): u is not in I_n but xu, yu and zu are,
so m is an associated prime of R/I_n.
"""

from divfilt.monomial import (
    SigmaFiltration,
    build_In,
    filtration_check,
    min_gens_count,
    socle_certificate,
)

linear = SigmaFiltration.from_callable(lambda n: n)
squares = SigmaFiltration.from_callable(lambda n: n * n)
wild = SigmaFiltration(table=(1, 100, 2, 1000, 3, 10**6))

print("generators of I_1 for sigma = 1:", sorted(build_In(SigmaFiltration(table=(1,)), 1)))
print()

print("counts are always sigma(n) + 2:")
for name, f, rng in (("sigma(n)=n", linear, range(1, 8)),
                     ("sigma(n)=n^2", squares, range(1, 8)),
                     ("wild table", wild, range(1, 7))):
    counts = [min_gens_count(build_In(f, n)) for n in rng]
    print(f"  {name:<12} counts = {counts}")
print()

u, ok = socle_certificate(6, wild.sigma(6))
print(f"socle witness of I_6 for the wild table: u = {u}, certified = {ok}")
print()

rep = filtration_check(linear, 30, 30)
print(f"graded check I_m I_n in I_(m+n) for m, n <= 30: ok = {rep.ok}")
rep = filtration_check(wild, 3, 3)
print(f"graded check for the wild table,  m, n <= 3   : ok = {rep.ok}")
