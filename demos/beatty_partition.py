#!/usr/bin/env python3
"""Beatty sequence of alpha = 9/26 + (1/26) sqrt(3), exactly.

sigma(n) = floor(alpha(n+1)) - floor(alpha n) takes only the values 0 and 1;
the indices with sigma = 1 have density alpha, and the fractional parts
{alpha n} equidistribute.  Every count below comes from exact closed forms
(telescoping counts, two-valued gaps and floor sums), so the statistics are
exact, not sampled, at any n_max.
"""

from divfilt.asymptotics import example_alpha
from divfilt.beatty import (
    BeattySequence,
    equidistribution_histogram,
    partition,
    window_constant,
)

seq = BeattySequence(example_alpha())

print("first sigma values: ", [seq.sigma(n) for n in range(1, 21)])
print("window constant    :", window_constant(seq), "(both values in every such window)")
print()

for n_max in (10, 1000, 100_000, 1_000_000):
    rep = partition(seq, n_max)
    density = rep.sigma2_density
    gap = abs(density - seq.alpha)
    print(
        f"n_max={n_max:>8}: sigma2 count={rep.sigma2_count:>7} "
        f"density={float(density):.8f} |density-alpha|~{gap.to_decimal(8)} "
        f"max gaps={rep.max_gap}"
    )
print()

hist = equidistribution_histogram(seq, 1_000_000, 10)
print("fractional parts of alpha*n in ten bins (n <= 1e6):")
for j, count in enumerate(hist.histogram):
    print(f"  [{j / 10:.1f}, {(j + 1) / 10:.1f}): {count}")
