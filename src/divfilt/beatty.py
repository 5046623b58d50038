"""Beatty sequences of quadratic irrationals, exactly.

For irrational alpha > 0 the Beatty sequence is the first-difference
sequence sigma(n) = floor(alpha*(n+1)) - floor(alpha*n).  It takes exactly
the two values floor(alpha) and ceil(alpha), each infinitely often, and the
fractional parts {alpha*n} are uniformly distributed mod 1.  This module
generates sigma exactly, partitions the positive integers by its value,
and produces exact equidistribution histograms.

Large scans avoid per-step Fraction arithmetic: with alpha written as
(A + B*sqrt(d))/q over a common denominator, floor(alpha*n) is
(A*n + isqrt(B^2*d*n^2)) // q, one integer square root per index, in a
single pass over [1, n_max].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

from divfilt.quadfield import QuadExt, rational_str

__all__ = [
    "BeattySequence",
    "PartitionReport",
    "sigma",
    "partition",
    "value_counts",
    "equidistribution_histogram",
    "window_constant",
]


@dataclass(frozen=True)
class BeattySequence:
    """Exact sigma generator for a positive irrational alpha."""

    alpha: QuadExt

    def __post_init__(self) -> None:
        if self.alpha.is_rational():
            raise ValueError("alpha must be irrational")
        if self.alpha.sign() <= 0:
            raise ValueError("alpha must be positive")

    def low_value(self) -> int:
        return self.alpha.floor()

    def high_value(self) -> int:
        return self.alpha.ceil()

    def sigma(self, n: int) -> int:
        """floor(alpha*(n+1)) - floor(alpha*n), exact; requires n >= 1."""
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
        return self.alpha.floor_scaled(n + 1) - self.alpha.floor_scaled(n)

    # Integer kernel parameters: alpha = (A + B*sqrt(d)) / q with B != 0, q > 0.
    def _cleared(self) -> tuple[int, int, int, int]:
        A, B, q = self.alpha._cleared()
        return A, B, q, self.alpha.d


@dataclass(frozen=True)
class PartitionReport:
    """Counts of the two sigma values on [1, n_max], plus optional histogram.

    sigma1_count counts indices with the low value (floor(alpha)) and
    sigma2_count those with the high value (ceil(alpha)); their densities
    are exact rationals.  `histogram`, when filled, counts fractional parts
    {alpha*n} per half-open bin [j/bins, (j+1)/bins).
    """

    n_max: int
    sigma1_count: int
    sigma2_count: int
    sigma2_density: Fraction
    histogram: tuple[int, ...] = ()
    low_value: int = 0
    high_value: int = 1
    max_gap: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.sigma1_count + self.sigma2_count != self.n_max:
            raise ValueError("counts must sum to n_max")

    def to_json(self) -> dict:
        return {
            "n_max": self.n_max,
            "sigma1_count": self.sigma1_count,
            "sigma2_count": self.sigma2_count,
            "sigma2_density": rational_str(self.sigma2_density),
            "histogram": list(self.histogram),
            "low_value": self.low_value,
            "high_value": self.high_value,
            "max_gap": {str(k): v for k, v in sorted(self.max_gap.items())},
        }


@dataclass
class _ScanSummary:
    counts: dict
    first_pos: dict
    last_pos: dict
    max_internal_gap: dict
    histogram: list


def _scan_chunk(A: int, B: int, q: int, d: int, start: int, stop: int, bins: int | None) -> _ScanSummary:
    """Scan sigma on [start, stop] (inclusive), integers only.

    floor(B*m*sqrt(d)) is isqrt(B^2*d*m^2) for B > 0 and -isqrt(..) - 1 for
    B < 0 (the value is irrational for m >= 1, so never an exact integer).
    """
    counts: dict[int, int] = {}
    first_pos: dict[int, int] = {}
    last_pos: dict[int, int] = {}
    max_gap: dict[int, int] = {}
    hist = [0] * bins if bins else []
    dbb = B * B * d
    neg = B < 0

    def floor_irr(numer: int, m: int) -> int:
        s = isqrt(dbb * m * m)
        return (numer + (-s - 1 if neg else s)) // q

    prev_floor = floor_irr(A * start, start)
    for n in range(start, stop + 1):
        n1 = n + 1
        cur_floor = floor_irr(A * n1, n1)
        s = cur_floor - prev_floor
        counts[s] = counts.get(s, 0) + 1
        if s not in first_pos:
            first_pos[s] = n
        else:
            gap = n - last_pos[s]
            if gap > max_gap.get(s, 0):
                max_gap[s] = gap
        last_pos[s] = n
        if bins:
            # bin of {alpha*n} = floor(bins * (alpha*n - prev_floor)), exact
            j = floor_irr((A * n - prev_floor * q) * bins, n * bins)
            hist[j] += 1
        prev_floor = cur_floor
    return _ScanSummary(counts, first_pos, last_pos, max_gap, hist)


def _scan(seq: BeattySequence, n_max: int, bins: int | None) -> _ScanSummary:
    if not isinstance(n_max, int) or n_max < 1:
        raise ValueError(f"n_max must be a positive integer, got {n_max!r}")
    A, B, q, d = seq._cleared()
    return _scan_chunk(A, B, q, d, 1, n_max, bins)


def _boundary_gap(summary: _ScanSummary, value: int, n_max: int) -> int:
    """Largest stretch of [1, n_max] without `value`, including the ends."""
    if value not in summary.first_pos:
        return n_max
    internal = summary.max_internal_gap.get(value, 0)
    head = summary.first_pos[value]  # window [1, head] contains it
    tail = n_max - summary.last_pos[value] + 1
    return max(internal, head, tail)


def sigma(seq: BeattySequence, n: int) -> int:
    return seq.sigma(n)


def value_counts(seq: BeattySequence, n_max: int) -> dict[int, int]:
    """Counts of each sigma value on [1, n_max] (general alpha)."""
    return dict(sorted(_scan(seq, n_max, None).counts.items()))


def partition(seq: BeattySequence, n_max: int) -> PartitionReport:
    """Classify every n <= n_max into the two-value partition.

    The binary labeling (value 0 vs value 1) requires 0 < alpha < 1;
    for larger alpha use `value_counts`.
    """
    if not (0 < seq.alpha < 1):
        raise ValueError("binary labeling requires 0 < alpha < 1; use value_counts")
    summary = _scan(seq, n_max, None)
    ones = summary.counts.get(1, 0)
    zeros = summary.counts.get(0, 0)
    assert zeros + ones == n_max
    return PartitionReport(
        n_max=n_max,
        sigma1_count=zeros,
        sigma2_count=ones,
        sigma2_density=Fraction(ones, n_max),
        low_value=0,
        high_value=1,
        max_gap={v: _boundary_gap(summary, v, n_max) for v in (0, 1)},
    )


def equidistribution_histogram(seq: BeattySequence, n_max: int, bins: int) -> PartitionReport:
    """Partition report plus exact bin counts of the fractional parts."""
    if not isinstance(bins, int) or bins < 2:
        raise ValueError(f"bins must be an integer >= 2, got {bins!r}")
    summary = _scan(seq, n_max, bins)
    low, high = seq.low_value(), seq.high_value()
    lo_count = summary.counts.get(low, 0)
    hi_count = summary.counts.get(high, 0)
    return PartitionReport(
        n_max=n_max,
        sigma1_count=lo_count,
        sigma2_count=hi_count,
        sigma2_density=Fraction(hi_count, n_max),
        histogram=tuple(summary.histogram),
        low_value=low,
        high_value=high,
        max_gap={v: _boundary_gap(summary, v, n_max) for v in (low, high)},
    )


def window_constant(seq: BeattySequence) -> int:
    """ceil(2 / min({alpha}, 1 - {alpha})): every window of this length
    contains both sigma values."""
    frac = seq.alpha.fractional_part()
    one_minus = 1 - frac
    smaller = frac if frac < one_minus else one_minus
    return (2 / smaller).ceil()
