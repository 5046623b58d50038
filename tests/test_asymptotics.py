"""Tests for the length model, its limits, the Cesaro oracle and the scan.

Limit values carried by the bundled model are pinned against the stored
reference constants where the two agree, and against independent sympy
recomputation where they do not.
"""

import json
import math
import random
from fractions import Fraction as F
from importlib import resources

import pytest
import sympy

from divfilt import asymptotics
from divfilt.asymptotics import (
    REFERENCE_CUBIC_LIMIT,
    REFERENCE_MULTIPLICITY,
    REFERENCE_SIGMA_LIMITS,
    ExampleModel,
    SigmaStats,
    cesaro_consistency,
    empirical_scan,
    example_alpha,
    example_model,
    limit_exists_report,
    model_from_form,
    model_length,
    multiplicity,
    subsequence_limit,
)
from divfilt.beatty import BeattySequence
from divfilt.cli import main, scan_csv_lines
from divfilt.intersection import BivariatePolynomial, form_from_json
from divfilt.quadfield import QuadExt, rational_str

ALPHA = example_alpha()
MODEL = example_model()
Y3 = BivariatePolynomial({(0, 3): 1})


def degenerate_model(c: int = 1) -> ExampleModel:
    return ExampleModel(ALPHA, BivariatePolynomial({(0, 3): c}))


# -- model validation -----------------------------------------------------------


def test_model_requires_homogeneous_polys():
    with pytest.raises(ValueError):
        ExampleModel(ALPHA, BivariatePolynomial({(0, 3): F(1), (0, 1): F(1)}))
    with pytest.raises(ValueError):
        ExampleModel(ALPHA, Y3, BivariatePolynomial({(0, 3): 1}))
    with pytest.raises(ValueError):
        ExampleModel(QuadExt(0, 1, 3), Y3)  # alpha outside (0, 1)


# -- model length ----------------------------------------------------------------


def test_model_length_small_values():
    assert model_length(MODEL, 0) == 0
    assert model_length(MODEL, 1) == F(1, 6) * 198 + F(1, 4) * (-792 + 564 - 175) == F(-271, 4)
    assert model_length(MODEL, 2) == 5  # x = ceil(2a) = 1


def test_model_length_cubic_normalization():
    # length(n)/n^3 approaches p3(alpha,1)/6; at n = 10^5 the gap is O(1/n)
    n = 100_000
    cubic, _ = multiplicity(MODEL)
    ratio = model_length(MODEL, n) / F(n) ** 3
    gap = abs(ratio - F(1, 6) * cubic)
    assert gap < QuadExt(F(1, 100), 0, 3)


# -- multiplicity ------------------------------------------------------------------


def test_multiplicity_exact_values():
    cubic, scaled = multiplicity(MODEL)
    assert cubic == QuadExt(F(12042, 169), F(-27, 169), 3)
    assert scaled == QuadExt(F(72252, 169), F(-162, 169), 3)
    assert cubic == REFERENCE_CUBIC_LIMIT
    assert scaled == REFERENCE_MULTIPLICITY
    assert scaled == 6 * cubic


def test_multiplicity_matches_sympy():
    a = sympy.Rational(9, 26) + sympy.sqrt(3) / 26
    expr = sympy.simplify(468 * a**3 - 486 * a**2 + 162 * a + 54)
    want = sympy.nsimplify(sympy.Rational(12042, 169) - sympy.Rational(27, 169) * sympy.sqrt(3))
    assert sympy.simplify(expr - want) == 0


def test_multiplicity_degenerate():
    cubic, scaled = multiplicity(degenerate_model())
    assert cubic == 1 and scaled == 6


# -- subsequence limits ---------------------------------------------------------------


def test_sigma0_limit_reference_value():
    assert subsequence_limit(MODEL, 0) == QuadExt(F(144504, 4056), F(-324, 4056), 3)
    assert subsequence_limit(MODEL, 0) == REFERENCE_SIGMA_LIMITS[0]


def test_sigma1_limit_derived_value():
    # symbolic expansion gives (1/6)(918 a^2 - 648 a + 324)
    a = ALPHA
    want = F(1, 6) * (918 * a**2 - 648 * a + 324)
    assert subsequence_limit(MODEL, 1) == want
    # sympy cross-check of the whole derivation
    x, y, s = sympy.symbols("x y s")
    p3 = 468 * x**3 - 486 * x**2 * y + 162 * x * y**2 + 54 * y**3
    diff = sympy.expand(p3.subs({x: x + 1, y: y + 1}, simultaneous=True) - p3)
    deg2 = sum(
        c * x**i * y**j
        for (i, j), c in sympy.Poly(diff, x, y).terms()
        if i + j == 2
    )
    al = sympy.Rational(9, 26) + sympy.sqrt(3) / 26
    val = sympy.simplify(deg2.subs({x: al, y: 1}) / 6)
    got = subsequence_limit(MODEL, 1)
    want_sym = sympy.Rational(got.a.numerator, got.a.denominator) + sympy.Rational(
        got.b.numerator, got.b.denominator
    ) * sympy.sqrt(3)
    assert sympy.simplify(val - want_sym) == 0


def test_derived_limits_coincide():
    # the difference of the two derived limits is 3*(78a^2 - 54a + 9), and
    # 78a^2 - 54a + 9 = 3*(26a^2 - 18a + 3) = 0
    L0, L1 = subsequence_limit(MODEL, 0), subsequence_limit(MODEL, 1)
    a = ALPHA
    assert L1 - L0 == F(1, 6) * 18 * (78 * a**2 - 54 * a + 9)
    assert 78 * a**2 - 54 * a + 9 == 0
    assert L0 == L1


def test_sigma_limit_degenerate():
    m = ExampleModel(ALPHA, BivariatePolynomial({(0, 3): 54}))
    assert subsequence_limit(m, 0) == 27
    assert subsequence_limit(m, 1) == 27


def test_reference_sigma2_value():
    # the reference closed forms, evaluated at alpha, are the stored constants
    assert REFERENCE_SIGMA_LIMITS[0] == F(1, 6) * (-486 * ALPHA**2 + 324 * ALPHA + 162)
    assert REFERENCE_SIGMA_LIMITS[1] == F(1, 6) * (918 * ALPHA**2 - 810 * ALPHA + 324)
    got = REFERENCE_SIGMA_LIMITS[1]
    assert got == QuadExt(F(106596, 4056), F(-4536, 4056), 3)
    assert got.to_decimal(3) == "24.344"
    assert got != subsequence_limit(MODEL, 1)


# -- Cesaro oracle -----------------------------------------------------------------


def test_cesaro_derived_pair_passes():
    res = cesaro_consistency(MODEL, subsequence_limit(MODEL, 0), subsequence_limit(MODEL, 1))
    assert res.passed
    assert res.rhs == F(1, 2) * REFERENCE_CUBIC_LIMIT


def test_cesaro_reference_pair_fails():
    res = cesaro_consistency(MODEL, REFERENCE_SIGMA_LIMITS[0], REFERENCE_SIGMA_LIMITS[1])
    assert not res.passed
    assert res.lhs.to_decimal(3) == "30.889"
    assert res.rhs.to_decimal(3) == "35.489"


def test_cesaro_degenerate():
    m = degenerate_model()
    res = cesaro_consistency(m, QuadExt(F(1, 2), 0, 3), QuadExt(F(1, 2), 0, 3))
    assert res.passed and res.lhs == F(1, 2) and res.rhs == F(1, 2)


def test_cesaro_identity_random_models():
    # (1-a) Q2^0(a,1) + a Q2^1(a,1) = 3 p3(a,1) holds for any homogeneous
    # cubic and any quadratic irrational a in (0,1)
    rng = random.Random(20260811)
    for _ in range(40):
        p3 = BivariatePolynomial(
            {
                (3, 0): F(rng.randint(-30, 30)),
                (2, 1): F(rng.randint(-30, 30)),
                (1, 2): F(rng.randint(-30, 30)),
                (0, 3): F(rng.randint(-30, 30), rng.randint(1, 4)),
            }
        )
        d = rng.choice([2, 3, 5, 7])
        alpha = QuadExt(F(rng.randint(1, 9), 20), F(1, rng.randint(25, 60)), d)
        if not (0 < alpha < 1) or alpha.is_rational():
            continue
        m = ExampleModel(alpha, p3)
        res = cesaro_consistency(m, subsequence_limit(m, 0), subsequence_limit(m, 1))
        assert res.passed, str(alpha)


# -- empirical scan -------------------------------------------------------------------


@pytest.fixture(scope="module")
def scan100k():
    return empirical_scan(
        example_model(), 100_000, sample_stride=1000, checkpoints=(50_000, 100_000)
    )


def test_scan_telescoping(scan100k):
    assert scan100k.telescoping_ok
    small = empirical_scan(MODEL, 10_000, sample_stride=97)
    assert small.telescoping_ok


def test_scan_rows_match_direct_lengths():
    scan = empirical_scan(MODEL, 200, sample_stride=7)
    seq = BeattySequence(ALPHA)
    for n, s, x, num in _rows(scan.rows.chunks()):
        assert F(num, scan.rows.denom) == model_length(MODEL, n + 1) - model_length(MODEL, n)
        assert s == seq.sigma(n)
        assert x == ALPHA.ceil_scaled(n)


def test_scan_sigma_ratios_near_limits(scan100k):
    # near n = 10^5 both classes sit within 1e-3 relative of the derived
    # limit, and far from the reference sigma=1 value
    L = subsequence_limit(MODEL, 0)
    for s in (0, 1):
        st = scan100k.per_sigma[s]
        assert st.last_n > 99_990
        gap = abs(st.last_ratio - L)
        assert gap <= QuadExt(F(1, 1000), 0, 3) * L
    ref1 = REFERENCE_SIGMA_LIMITS[1]
    st1 = scan100k.per_sigma[1]
    assert abs(st1.last_ratio - ref1) > QuadExt(F(1, 1000), 0, 3) * ref1


def test_scan_max_ratio_stable(scan100k):
    m1 = scan100k.checkpoint_max[50_000]
    m2 = scan100k.checkpoint_max[100_000]
    assert m2 >= m1
    assert (m2 - m1) / m2 < F(1, 100)
    assert scan100k.max_ratio == m2
    # the global maximum is finite and the bound constant caps every ratio
    c = scan100k.bound_constant
    for s in (0, 1):
        assert scan100k.per_sigma[s].max_ratio < c


def test_scan_max_at_small_n(scan100k):
    # delta(1) = length(2) - length(1) = 5 + 271/4 = 291/4
    assert scan100k.max_ratio == F(291, 4)
    assert scan100k.max_ratio_at == 1


def test_scan_monotone_threshold(scan100k):
    # the bundled model's first differences are positive from n = 1 on
    assert scan100k.monotone_from == 1
    # a model with a heavy negative quadratic part dips first; the scan
    # finds the exact index from which lengths never decrease again
    m = ExampleModel(ALPHA, Y3, BivariatePolynomial({(0, 2): -100}))
    scan = empirical_scan(m, 200)
    n0 = scan.monotone_from
    assert n0 > 1
    assert model_length(m, n0 - 1) > model_length(m, n0)  # still dipping at n0 - 1
    for n in range(n0, 200):
        assert model_length(m, n + 1) >= model_length(m, n)


def _scan_oracle(model, n_max, checkpoints):
    """Per-index rows, class stats, checkpoint maxima and monotone index from
    model_length differences and QuadExt ceilings."""
    alpha = model.alpha
    length = [model_length(model, n) for n in range(n_max + 2)]
    x = [alpha.ceil_scaled(n) for n in range(n_max + 2)]
    rows, stats, cp = [], {0: SigmaStats(), 1: SigmaStats()}, {}
    best = best_at = None
    last_negative = 0
    for n in range(1, n_max + 1):
        delta = length[n + 1] - length[n]
        ratio = delta / n**2
        s = x[n + 1] - x[n]
        rows.append((n, s, x[n], delta, ratio))
        st = stats[s]
        st.count += 1
        if st.min_ratio is None or ratio < st.min_ratio:
            st.min_ratio, st.min_at = ratio, n
        if st.max_ratio is None or ratio > st.max_ratio:
            st.max_ratio, st.max_at = ratio, n
        st.last_n, st.last_ratio = n, ratio
        if best is None or ratio > best:
            best, best_at = ratio, n
        if delta < 0:
            last_negative = n
        if n in checkpoints:
            cp[n] = best
    return rows, stats, best, best_at, cp, last_negative + 1


def _decimal(value, digits=30):
    m = round(value * 10**digits)  # half-even on Fraction
    ip, fp = divmod(abs(m), 10**digits)
    return f"{'-' if m < 0 else ''}{ip}.{fp:0{digits}d}"


CSV_HEADER = "n,sigma,ceil_alpha_n,delta_exact,delta_over_n2_decimal\n"


def _rows(chunks):
    """The (n, sigma, ceil(alpha*n), delta numerator) rows of column chunks."""
    return [row for cols in chunks for row in zip(*cols)]


def _exact_rows(rows):
    """(n, sigma, ceil(alpha*n), delta, delta/n^2) of each scan row, exactly."""
    d = rows.denom
    return [(n, s, x, F(num, d), F(num, d * n * n)) for n, s, x, num in _rows(rows.chunks())]


def _csv_oracle(rows, digits):
    """The `example-scan` CSV lines of per-index oracle rows."""
    return [CSV_HEADER] + [
        f"{n},{s},{x},{rational_str(delta)},{_decimal(ratio, digits)}\n"
        for n, s, x, delta, ratio in rows
    ]


ORACLE_MODELS = {
    # negative first differences up to n ~ 100: negative decimals and monotone_from
    "heavy-negative": ExampleModel(ALPHA, Y3, BivariatePolynomial({(0, 2): -100})),
    # alpha = 2 - sqrt(3): the ceiling kernel's B < 0 branch
    "negative-sqrt": ExampleModel(QuadExt(F(2), F(-1), 3), MODEL.p3, MODEL.p2),
}


@pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
def test_scan_matches_per_index_oracle(name):
    model = ORACLE_MODELS[name]
    n_max, checkpoints = 2000, (3, 400, 1999)
    rows, stats, best, best_at, cp, monotone_from = _scan_oracle(model, n_max, checkpoints)
    scan = empirical_scan(model, n_max, 1, checkpoints)
    assert _exact_rows(scan.rows) == rows
    assert scan.per_sigma == stats
    assert scan.checkpoint_max == cp
    assert (scan.max_ratio, scan.max_ratio_at) == (best, best_at)
    assert scan.monotone_from == monotone_from
    assert scan.telescoping_ok
    lines = list(scan_csv_lines(scan.rows, 30))
    assert "".join(lines).splitlines(keepends=True)[1:] == [
        f"{n},{s},{x},{rational_str(delta)},{_decimal(ratio)}\n" for n, s, x, delta, ratio in rows
    ]
    # sampled rows: every stride-th index of each segment cut at the
    # checkpoints and at n_max, plus each segment's last index
    sampled = empirical_scan(model, n_max, 7, checkpoints)
    want, lo = [], 1
    for hi in (3, 400, 1999, 2000):
        want += [n for n in range(lo, hi + 1) if (n - lo) % 7 == 0 or n == hi]
        lo = hi + 1
    assert [n for n, _, _, _ in _rows(sampled.rows.chunks())] == want
    assert _exact_rows(sampled.rows) == [rows[n - 1] for n in want]
    assert sampled.per_sigma == stats and sampled.checkpoint_max == cp


def test_oracle_models_cover_their_branches():
    heavy = _scan_oracle(ORACLE_MODELS["heavy-negative"], 200, ())
    assert heavy[5] > 1 and any(row[3] < 0 for row in heavy[0])
    assert ORACLE_MODELS["negative-sqrt"].alpha._cleared()[1] < 0


def _sampled_indices(n_max, stride, checkpoints):
    want, lo = [], 1
    for hi in sorted({n_max, *checkpoints}):
        want += [n for n in range(lo, hi + 1) if (n - lo) % stride == 0 or n == hi]
        lo = hi + 1
    return want


def _bundled_table_model(change):
    """`model_from_form` of the bundled table with row d's value v replaced
    by change(sorted d, int v)."""
    doc = json.loads(resources.files("divfilt").joinpath("data/intersection_table.json").read_text())
    for row in doc["triples"]:
        row["v"] = str(change(sorted(row["d"]), int(row["v"])))
    return model_from_form(form_from_json(doc))


def _random_model(rng):
    while True:
        d = rng.choice((2, 3, 5, 6, 7, 10, 11, 13))
        a = F(rng.randint(-30, 30), rng.randint(1, 30))
        b = F(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 30))
        alpha = QuadExt(a, b, d)
        if 0 < alpha < 1:
            break
    p3 = BivariatePolynomial({(3 - j, j): F(rng.randint(-60, 60)) for j in range(4)})
    p2 = BivariatePolynomial({(2 - j, j): F(rng.randint(-200, 200), rng.randint(1, 3)) for j in range(3)})
    return ExampleModel(alpha, p3, p2)


# p3 = n^3 - x n^2, p2 = (x^2 - n^2)/3: D_1 = -4xn + 4n^2, so on class 1
# 12 delta/n^2 = 4 - 4 alpha - 4 theta/n creeps up to its bound 4 - 4 alpha and
# never reaches it; the class-1 maximum can only be found by scanning all
NEVER_CERTIFIES = ExampleModel(
    ALPHA,
    BivariatePolynomial({(0, 3): F(1), (1, 2): F(-1)}),
    BivariatePolynomial({(2, 0): F(1, 3), (0, 2): F(-1, 3)}),
)

# length = 71 n^3 - 101 n^2: delta/n^2 = 213 + 11/n - 30/n^2 for every n,
# largest at n = 5 and n = 6, both of class 0; ties go to the earlier index
TIES = ExampleModel(
    ALPHA, BivariatePolynomial({(0, 3): 426}), BivariatePolynomial({(0, 2): -404})
)

# length = 7 n^3 - 9 n^2: delta/n^2 = 21 + 3/n - 2/n^2 is 22 at n = 1 (class 0)
# and at n = 2 (class 1); the global maximum is at the earlier index
TIES_ACROSS = ExampleModel(
    ALPHA, BivariatePolynomial({(0, 3): 42}), BivariatePolynomial({(0, 2): -36})
)

SCAN_CASES = [
    ("bundled", MODEL, 3000, 1000, (1500,)),
    ("heavy-negative", ORACLE_MODELS["heavy-negative"], 2500, 1, (3, 400, 1999)),
    ("negative-sqrt", ORACLE_MODELS["negative-sqrt"], 3000, 17, (2999,)),
    # L0 != L1: the bundled table with S.S.S + 6
    ("unequal-limits", _bundled_table_model(lambda d, v: v + 6 if d == ["S"] * 3 else v), 3000, 250, ()),
    ("never-certifies", NEVER_CERTIFIES, 3000, 300, (2000,)),
    ("ties", TIES, 3000, 5, (5, 6)),
    ("ties-across", TIES_ACROSS, 500, 7, (1, 2)),
    # alpha = (sqrt(2) - 1)/10: class 1 is absent from [1, 10]
    ("tiny-alpha", ExampleModel(QuadExt(F(-1, 10), F(1, 10), 2), MODEL.p3, MODEL.p2), 10, 3, (4,)),
]
for _seed in range(30):
    _rng = random.Random(7000 + _seed)
    _n_max = _rng.randint(10, 3000)
    SCAN_CASES.append(
        (
            f"random-{_seed}",
            _random_model(_rng),
            _n_max,
            _rng.choice((1, _rng.randint(2, 50), _rng.randint(51, 1000))),
            tuple(sorted(_rng.sample(range(1, _n_max + 1), _rng.randint(0, 3)))),
        )
    )
# a p2 coefficient over the prime 999983: the common denominator of the
# first differences is 12 * 999983, so most rows reduce to neither an
# integer nor a denominator of 12
SCAN_CASES.append(
    (
        "prime-denominator",
        ExampleModel(ALPHA, MODEL.p3, MODEL.p2 + BivariatePolynomial({(2, 0): F(1, 999983)})),
        2000,
        1,
        (1000,),
    )
)


@pytest.mark.parametrize("case", SCAN_CASES, ids=[c[0] for c in SCAN_CASES])
def test_scan_matches_oracle_on_seeded_models(case):
    _, model, n_max, stride, checkpoints = case
    rows, stats, best, best_at, cp, monotone_from = _scan_oracle(model, n_max, checkpoints)
    scan = empirical_scan(model, n_max, stride, checkpoints)
    assert (scan.n_max, scan.stride) == (n_max, stride)
    assert scan.per_sigma == stats
    assert (scan.max_ratio, scan.max_ratio_at) == (best, best_at)
    assert scan.bound_constant == math.ceil(best) + 1
    assert scan.telescoping_ok
    assert scan.monotone_from == monotone_from
    assert scan.checkpoint_max == cp
    # the envelope constant bounds the remainder on every index, exactly
    limits = {s: subsequence_limit(model, s) for s in (0, 1)}
    assert all(n * abs(ratio - limits[s]) <= scan.remainder_bound for n, s, _, _, ratio in rows)
    want = [rows[n - 1] for n in _sampled_indices(n_max, stride, checkpoints)]
    assert len(scan.rows) == len(want)
    assert _exact_rows(scan.rows) == want
    # at 1 to 3 digits some seeded rows are exact ties, which go to even
    for digits in (1, 2, 3, 30):
        csv = "".join(scan_csv_lines(scan.rows, digits))
        assert csv.splitlines(keepends=True) == _csv_oracle(want, digits)


@pytest.mark.parametrize("case", SCAN_CASES[:12], ids=[c[0] for c in SCAN_CASES[:12]])
def test_envelope_bounds_every_index(case):
    # sign * delta/n^2 <= k + r1/n + r0/n^2 on every index of the class, with
    # r1 and r0 no smaller than their values anywhere on the theta-interval;
    # `_envelope_max` is the largest value over a range of integers
    _, model, n_max, _, _ = case
    deltas = asymptotics._Deltas(model)
    alpha, rng = model.alpha, random.Random(n_max)
    for s in (0, 1):
        lo_t, hi_t = (alpha, 1) if s == 0 else (0, alpha)
        a, b1, b0, c2, c1, c0 = deltas.coeffs[s]
        thetas = [lo_t + (hi_t - lo_t) * F(j, 64) for j in range(65)]
        for sign in (1, -1):
            k, r1, r0 = env = asymptotics._envelope(deltas.coeffs[s], alpha, s, sign)
            assert all(sign * ((2 * a * alpha + b1) * t + b0 * alpha + c1) <= r1 for t in thetas)
            assert all(sign * ((a * t + b0) * t + c0) <= r0 for t in thetas)
            for n, t, _, dnum in _rows(deltas.chunks(range(1, 200))):
                if t == s:
                    assert sign * F(dnum, n * n) <= k + r1 / n + r0 / (n * n)
            for _ in range(4):
                lo = rng.randint(1, 20)
                hi = rng.randint(lo, 80)
                want = max(k + r1 / n + r0 / (n * n) for n in range(lo, hi + 1))
                assert asymptotics._envelope_max(env, lo, hi) == want


@pytest.mark.parametrize("case", SCAN_CASES, ids=[c[0] for c in SCAN_CASES])
def test_envelope_constant_is_the_symbolic_limit(case):
    # two sources of L_s: the scan's envelope constant k over denom, and the
    # degree-2 part of the difference polynomial at (alpha, 1)
    model = case[1]
    deltas = asymptotics._Deltas(model)
    for s in (0, 1):
        for sign in (1, -1):
            k = asymptotics._envelope(deltas.coeffs[s], model.alpha, s, sign)[0]
            assert k / deltas.denom == sign * subsequence_limit(model, s)


def test_window_certificates_settle_early_and_cover_all(monkeypatch):
    # every summary query goes through `_windows`; count the queries it
    # settles before the head and tail windows meet and those it returns
    # open, which have seen every index
    settled, covered = {}, {}
    real = asymptotics._windows

    def counting(deltas, m, queries):
        still_open = real(deltas, m, queries)
        settled[name] = settled.get(name, 0) + len(queries) - len(still_open)
        covered[name] = covered.get(name, 0) + len(still_open)
        if name == "never-certifies" and m == n_max:
            # the class-1 maximum
            assert any(
                isinstance(q, asymptotics._Extreme) and (q.s, q.sign) == (1, 1) for q in still_open
            )
        return still_open

    monkeypatch.setattr(asymptotics, "_windows", counting)
    for name, model, n_max, stride, checkpoints in SCAN_CASES:
        empirical_scan(model, n_max, stride, checkpoints)
    assert settled["bundled"] > 0 and covered["never-certifies"] > 0
    assert sum(settled.values()) > 0 and sum(covered.values()) > 0


KERNEL_MODELS = ("bundled", "negative-sqrt", "tiny-alpha")


@pytest.mark.parametrize("name", KERNEL_MODELS)
def test_chunk_kernel_matches_per_index_formula(monkeypatch, name):
    # index sets shaped like the scan's: a head plus a tail window, a strided
    # segment with its last index appended, and a lone index; chunks of 7
    # split runs of consecutive indices, so the ceiling carries across chunk
    # ends and restarts wherever n != prev + 1
    monkeypatch.setattr(asymptotics, "_CHUNK", 7)
    model = next(case[1] for case in SCAN_CASES if case[0] == name)
    deltas = asymptotics._Deltas(model)
    m = 3000
    index_sets = [
        list(range(1, 65)) + list(range(m - 63, m + 1)),
        list(range(101, 2001, 37)) + [2000],
        [1234],
        list(range(1, 300)),
    ]
    for ns in index_sets:
        cols = list(deltas.chunks(iter(ns)))
        assert all(0 < len(c[0]) <= 7 and len({len(col) for col in c}) == 1 for c in cols)
        rows = _rows(cols)
        assert [n for n, _, _, _ in rows] == ns
        for n, s, x, num in rows:
            assert x == deltas.ceil(n) == model.alpha.ceil_scaled(n)
            assert s == model.alpha.ceil_scaled(n + 1) - x
            assert F(num, deltas.denom) == model_length(model, n + 1) - model_length(model, n)
    # the B < 0 branch of the ceiling comparison runs for negative-sqrt only
    assert (deltas.B < 0) == (name == "negative-sqrt")


def test_reports_do_not_depend_on_the_chunk_size(monkeypatch, tmp_path):
    # the summary windows fold and the CSV renders a chunk at a time, and the
    # kernel carries the ceiling across chunk ends; no report may show where
    # the chunks end
    csv, summary = tmp_path / "scan.csv", tmp_path / "summary.json"
    argv = ["example-scan", "--n-max", "3000", "--stride", "1", "--checkpoint", "1500"]
    argv += ["--out", str(csv), "--summary-out", str(summary)]
    cases = [case for case in SCAN_CASES if case[0] in ("never-certifies", "tiny-alpha")]

    def reports():
        assert main(argv) == 0
        out = [csv.read_bytes(), summary.read_bytes()]
        for _, model, n_max, stride, checkpoints in cases:
            scan = empirical_scan(model, n_max, stride, checkpoints)
            out += ["".join(scan_csv_lines(scan.rows, 30)), json.dumps(scan.to_json())]
        return out

    default = reports()
    assert len(cases) == 2 and len(default[0].splitlines()) == 3001
    for size in (1, 7):
        monkeypatch.setattr(asymptotics, "_CHUNK", size)
        assert reports() == default, size


def test_scan_ties_go_to_the_earliest_index():
    ties = empirical_scan(TIES, 3000)
    assert ties.max_ratio_at == ties.per_sigma[0].max_at == 5
    assert ties.max_ratio == _exact_rows(ties.rows)[5][4]
    across = empirical_scan(TIES_ACROSS, 500)
    assert (across.per_sigma[0].max_at, across.per_sigma[1].max_at) == (1, 2)
    assert across.max_ratio_at == 1 and across.max_ratio == 22


def test_scan_remainder_bound_covers_small_n_and_ignores_n_max():
    # n = 2 is of class 1 and deviates by 2 |delta(2)/4 - L_1| from its
    # limit; a 513-index sample of [1, n_max] skips it once n_max >= 1024.
    # The bound is the model's, the same at n_max = 10 and 10^9
    delta2 = model_length(MODEL, 3) - model_length(MODEL, 2)
    deviation = 2 * abs(delta2 / 4 - subsequence_limit(MODEL, 1))
    assert deviation == QuadExt(F(71831, 1352), F(-27, 169), 3)
    bound = empirical_scan(MODEL, 10).remainder_bound
    assert bound >= deviation
    assert bound == QuadExt(F(69789, 676), F(2679, 338), 3)
    assert empirical_scan(MODEL, 10**9, 10**8).remainder_bound == bound


def test_scan_validation():
    with pytest.raises(ValueError):
        empirical_scan(MODEL, 5)
    with pytest.raises(ValueError):
        empirical_scan(MODEL, 100, sample_stride=0)
    with pytest.raises(ValueError):
        empirical_scan(MODEL, 100, checkpoints=(101,))


# -- assembled report ---------------------------------------------------------------


def test_report_bundled_model():
    rep = limit_exists_report(MODEL)
    assert rep.limit_exists  # derived limits coincide exactly
    assert rep.cesaro_pass
    assert rep.sigma_limits[0] == REFERENCE_SIGMA_LIMITS[0]
    assert rep.sigma_limits[1] != REFERENCE_SIGMA_LIMITS[1]
    slugs = [f.split()[0] for f in rep.audit_flags]
    assert "discrepancy:sigma2-derived-vs-reference" in slugs
    assert "discrepancy:reference-limits-fail-cesaro" in slugs
    assert "note:multiplicity-normalization" in slugs
    assert "discrepancy:sigma1-derived-vs-reference" not in slugs


def test_bundled_model_built_once(monkeypatch):
    # the bundled table is parsed and expanded once per process, not again
    # by every report that asks whether its model is the bundled one
    limit_exists_report(example_model())
    parse = asymptotics.form_from_json
    calls = []

    def counting_parse(doc):
        calls.append(1)
        return parse(doc)

    monkeypatch.setattr(asymptotics, "form_from_json", counting_parse)
    limit_exists_report(example_model())
    assert calls == []


def test_report_other_k_rows_not_bundled():
    # same alpha and p3 as the bundled model, but its own canonical pairing
    other = ExampleModel(ALPHA, MODEL.p3, MODEL.p2 + BivariatePolynomial({(0, 2): 1}))
    rep = limit_exists_report(other)
    assert rep.reference_sigma_limits == {}
    assert rep.audit_flags == ()


def test_report_degenerate_model_no_flags():
    rep = limit_exists_report(degenerate_model())
    assert rep.limit_exists
    assert rep.audit_flags == ()
    assert rep.reference_sigma_limits == {}


def test_report_json_shape():
    doc = limit_exists_report(MODEL).to_json(digits=12)
    assert doc["cubic_limit"]["a"] == "12042/169"
    assert doc["cubic_limit"]["b"] == "-27/169"
    assert doc["multiplicity"]["a"] == "72252/169"
    assert doc["limit_exists"] is True
    assert doc["cesaro"]["pass"] is True
    assert len(doc["audit_flags"]) == 4
