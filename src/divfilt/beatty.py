"""Beatty sequences of quadratic irrationals, exactly.

For irrational alpha > 0 the Beatty sequence is the first-difference
sequence sigma(n) = floor(alpha*(n+1)) - floor(alpha*n).  It takes exactly
the two values floor(alpha) and ceil(alpha), each infinitely often, and the
fractional parts {alpha*n} are uniformly distributed mod 1.  This module
generates sigma exactly, partitions the positive integers by its value,
and produces exact equidistribution histograms.

Reports on [1, n_max] come from closed forms, not from a scan, so n_max may
be any size: the counts telescope, the positions of each value form a
Beatty sequence whose gaps take two adjacent values (Fraenkel 1969; the
three-distance theorem, Sos 1958), and each histogram bin is a difference of
two floor sums evaluated by an O(log n_max) reciprocity recursion (or, past
about n_max/64 bins, each point is binned by its own floors).  Every
floor is exact: one integer square root on cleared denominators.
"""

from __future__ import annotations

from fractions import Fraction

from divfilt.quadfield import ParameterError, QuadExt, _int_parameter, _quad, floor_cleared, rational_str
from divfilt.quadfield import _Record

__all__ = [
    "BeattySequence",
    "PartitionReport",
    "partition",
    "value_counts",
    "equidistribution_histogram",
    "floor_sum",
    "window_constant",
]


class BeattySequence(_Record):
    """Exact sigma generator for a positive irrational alpha."""

    alpha: QuadExt

    def __post_init__(self) -> None:
        if self.alpha.is_rational():
            raise ParameterError("alpha must be irrational")
        if self.alpha.sign() <= 0:
            raise ParameterError("alpha must be positive")

    def low_value(self) -> int:
        return self.alpha.floor()

    def high_value(self) -> int:
        return self.alpha.ceil()

    def sigma(self, n: int) -> int:
        """floor(alpha*(n+1)) - floor(alpha*n), exact; requires n >= 1."""
        _int_parameter("n", n, 1)
        return self.alpha.floor_scaled(n + 1) - self.alpha.floor_scaled(n)


class PartitionReport(_Record):
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
    max_gap: dict = {}

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


def floor_sum(alpha: QuadExt, beta: QuadExt | Fraction | int, n: int) -> int:
    """sum of floor(alpha*k + beta) over 0 <= k < n, exact, for irrational
    alpha and beta in the field of alpha.

    Euclid-style reciprocity: take off the integer parts of alpha and beta,
    then count the lattice points under the line from the other axis, which
    is the same sum with slope 1/alpha over m = floor(alpha*n + beta) terms.
    The slopes run through the continued fraction of alpha, so the depth is
    O(log n).  Each value is the cleared triple (A, B, q) of a `QuadExt`,
    floored by `floor_cleared` as `QuadExt.floor` is and kept in lowest terms
    by `quadfield._quad`, the constructor of every `QuadExt` result.
    """
    d = alpha.d
    (A, B, C), (P, Q, R) = alpha._cleared(), alpha._operand(beta)[:3]
    total = 0
    while n:
        a, b = floor_cleared(A, B, C, d), floor_cleared(P, Q, R, d)
        total += a * (n * (n - 1) // 2) + b * n
        A, P = A - a * C, P - b * R
        # top = alpha*n + beta = (T + U*sqrt(d))/V, and m = floor(top)
        T, U, V = A * n * R + P * C, B * n * R + Q * C, C * R
        m = floor_cleared(T, U, V, d)
        # alpha <- 1/alpha = C*(A - B*sqrt(d))/(A^2 - B^2*d), then
        # beta <- (top - m)/(old alpha) = (top - m) * (new alpha)
        A, B, C = _quad(C * A, -C * B, A * A - B * B * d, d)._cleared()
        T -= m * V
        P, Q, R = _quad(T * A + U * B * d, T * B + U * A, V * C, d)._cleared()
        n = m
    return total


def _max_gap(frac: QuadExt, count: int, n_max: int) -> int:
    """Largest stretch of [1, n_max] without a value that sits at the
    `count` positions floor(k/frac), k = 1..count, including the ends.

    Consecutive positions differ by floor(1/frac) or ceil(1/frac); the
    larger gap occurs iff the positions span more than count-1 small gaps.
    """
    if count == 0:
        return n_max
    gamma = frac.inverse()
    first, last = gamma.floor(), gamma.floor_scaled(count)
    internal = 0
    if count > 1:  # each gap is first = floor(gamma) or first + 1
        internal = first + 1 if last - first > (count - 1) * first else first
    return max(internal, first, n_max - last + 1)


def _histogram(alpha: QuadExt, n_max: int, bins: int) -> tuple[int, ...]:
    """Bin counts of {alpha*n}, n <= n_max, from #{n : {alpha*n} < t} =
    sum floor(alpha*n) - sum floor(alpha*n - t) at t = j/bins.  Past about
    n_max/64 bins (measured), one floor sum per bin costs more than binning
    each point at floor(bins*alpha*n) - bins*floor(alpha*n)."""
    if 64 * bins > n_max:
        (A, B, q), d = alpha._cleared(), alpha.d
        counts = [0] * bins
        for n in range(1, n_max + 1):
            high = floor_cleared(bins * A * n, bins * B * n, q, d)
            counts[high - bins * floor_cleared(A * n, B * n, q, d)] += 1
        return tuple(counts)
    total = floor_sum(alpha, alpha, n_max)  # sum over n = 1..n_max
    below = [0]
    below += [total - floor_sum(alpha, alpha - Fraction(j, bins), n_max) for j in range(1, bins)]
    below.append(n_max)
    return tuple(hi - lo for lo, hi in zip(below, below[1:]))


def _report(seq: BeattySequence, n_max: int, bins: int | None) -> PartitionReport:
    """Counts, gaps and optional histogram of sigma on [1, n_max].

    With frac = {alpha}, sigma(n) - floor(alpha) is the 0/1 difference
    floor(frac*(n+1)) - floor(frac*n): the high value sits at floor(k/frac)
    and, since 1 - sigma is the same difference for 1 - frac, the low value
    at floor(k/(1 - frac)).  The high count telescopes to floor(frac*(n_max+1)).
    """
    _int_parameter("n_max", n_max, 1)
    low, high = seq.low_value(), seq.high_value()
    frac = seq.alpha.fractional_part()
    hi_count = frac.floor_scaled(n_max + 1)
    lo_count = n_max - hi_count
    return PartitionReport(
        n_max=n_max,
        sigma1_count=lo_count,
        sigma2_count=hi_count,
        sigma2_density=Fraction(hi_count, n_max),
        histogram=_histogram(seq.alpha, n_max, bins) if bins else (),
        low_value=low,
        high_value=high,
        max_gap={low: _max_gap(1 - frac, lo_count, n_max), high: _max_gap(frac, hi_count, n_max)},
    )


def value_counts(seq: BeattySequence, n_max: int) -> dict[int, int]:
    """Counts of each sigma value on [1, n_max] (general alpha); a value
    that does not occur is omitted."""
    rep = _report(seq, n_max, None)
    counts = ((rep.low_value, rep.sigma1_count), (rep.high_value, rep.sigma2_count))
    return {v: c for v, c in counts if c}


def partition(seq: BeattySequence, n_max: int) -> PartitionReport:
    """Classify every n <= n_max into the two-value partition.

    The binary labeling (value 0 vs value 1) requires 0 < alpha < 1;
    for larger alpha use `equidistribution_histogram` or `value_counts`.
    """
    if not (0 < seq.alpha < 1):
        raise ParameterError(
            "binary labeling needs 0 < alpha < 1; else pass bins to equidistribution_histogram"
        )
    return _report(seq, n_max, None)


def equidistribution_histogram(seq: BeattySequence, n_max: int, bins: int) -> PartitionReport:
    """Partition report plus exact bin counts of the fractional parts."""
    return _report(seq, n_max, _int_parameter("bins", bins, 2))


def window_constant(seq: BeattySequence) -> int:
    """ceil(2 / min({alpha}, 1 - {alpha})): every window of this length
    contains both sigma values."""
    frac = seq.alpha.fractional_part()
    one_minus = 1 - frac
    smaller = frac if frac < one_minus else one_minus
    return (2 / smaller).ceil()
