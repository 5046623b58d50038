"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances are fixed here, in the assertions; everything not explicitly
toleranced is compared exactly.
"""

import random
from fractions import Fraction as F

import pytest

from divfilt.asymptotics import (
    REFERENCE_SIGMA_LIMITS,
    cesaro_consistency,
    empirical_scan,
    example_alpha,
    example_model,
    limit_exists_report,
    multiplicity,
    subsequence_limit,
)
from divfilt.beatty import BeattySequence, partition, value_counts, window_constant
from divfilt.cli import main as cli_main
from divfilt.monomial import SigmaFiltration, build_In, min_gens_count
from divfilt.picard import default_curve, infinite_order_witness, qn_sequence, restriction_report
from divfilt.quadfield import QuadExt

ALPHA = example_alpha()
MODEL = example_model()


def note(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num} PASS: {text}")


@pytest.fixture(scope="module")
def scan100k():
    return empirical_scan(MODEL, 100_000, sample_stride=1000, checkpoints=(50_000, 100_000))


def test_criterion_01_field_identities():
    assert ALPHA == QuadExt(F(9, 26), F(1, 26), 3)
    assert ALPHA * (9 - QuadExt(0, 1, 3)) == 3  # alpha = 3/(9 - sqrt(3))
    assert ALPHA**2 == QuadExt(F(84, 676), F(18, 676), 3)
    assert ALPHA**3 == QuadExt(F(810, 17576), F(246, 17576), 3)
    assert 26 * ALPHA**2 - 18 * ALPHA + 3 == 0
    note(1, "alpha, alpha^2, alpha^3 and 26a^2 - 18a + 3 = 0, all exact")


def test_criterion_02_cubic_limit():
    cubic, _ = multiplicity(MODEL)
    assert cubic == QuadExt(F(12042, 169), F(-27, 169), 3)
    note(2, "p3(alpha, 1) = 12042/169 - (27/169) sqrt(3), exact")


def test_criterion_03_multiplicity_factor_six():
    cubic, scaled = multiplicity(MODEL)
    assert scaled == QuadExt(F(72252, 169), F(-162, 169), 3)
    assert scaled == 6 * cubic
    report = limit_exists_report(MODEL)
    assert any(f.startswith("note:multiplicity-normalization") for f in report.audit_flags)
    note(3, "6 * p3(alpha, 1) = 72252/169 - (162/169) sqrt(3); factor-6 relation flagged")


def test_criterion_04_sigma1_limit():
    assert subsequence_limit(MODEL, 0) == QuadExt(F(144504, 4056), F(-324, 4056), 3)
    note(4, "sigma=0 subsequence limit = (144504 - 324 sqrt(3))/4056, exact")


def test_criterion_05_reference_sigma2_value():
    got = REFERENCE_SIGMA_LIMITS[1]
    assert got == QuadExt(F(106596, 4056), F(-4536, 4056), 3)
    assert got == F(1, 6) * (918 * ALPHA**2 - 810 * ALPHA + 324)
    note(5, "reference sigma=1 closed form evaluates to (106596 - 4536 sqrt(3))/4056")


def test_criterion_06_derived_sigma2_audit(scan100k):
    L0 = subsequence_limit(MODEL, 0)
    L1 = subsequence_limit(MODEL, 1)
    ref1 = REFERENCE_SIGMA_LIMITS[1]
    # derived pair satisfies the Cesaro oracle exactly; the reference pair
    # fails the same oracle exactly
    assert cesaro_consistency(MODEL, L0, L1).passed
    assert not cesaro_consistency(MODEL, L0, ref1).passed
    # both verdicts are emitted by the report
    report = limit_exists_report(MODEL)
    assert report.cesaro_pass
    slugs = [f.split()[0] for f in report.audit_flags]
    assert "discrepancy:sigma2-derived-vs-reference" in slugs
    assert "discrepancy:reference-limits-fail-cesaro" in slugs
    # the scan at n_max = 1e5 tracks the derived value along sigma=1, within
    # 1e-3 relative, and not the reference value
    st = scan100k.per_sigma[1]
    assert st.last_n > 99_000
    tol = QuadExt(F(1, 1000), 0, 3)
    assert abs(st.last_ratio - L1) <= tol * L1
    assert abs(st.last_ratio - ref1) > tol * ref1
    note(6, "derived sigma=1 limit passes Cesaro, reference fails; scan follows derived value")


def test_criterion_07_difference_bound_stability(scan100k):
    # the n^2-normalized first differences admit a finite bound constant,
    # and the running maximum is stable on [5e4, 1e5]
    m_half = scan100k.checkpoint_max[50_000]
    m_full = scan100k.checkpoint_max[100_000]
    assert m_full >= m_half > 0
    assert (m_full - m_half) / m_full < F(1, 100)
    assert scan100k.max_ratio <= scan100k.bound_constant
    note(7, f"max delta(n)/n^2 = {scan100k.max_ratio} at n = {scan100k.max_ratio_at}, stable")


def test_criterion_08_beatty_suite():
    seq = BeattySequence(ALPHA)
    counts = value_counts(seq, 100_000)
    assert set(counts) == {0, 1}  # two values only, both occurring
    rep = partition(seq, 100_000)
    w = window_constant(seq)
    assert rep.max_gap[0] <= w and rep.max_gap[1] <= w
    big = partition(seq, 1_000_000)
    assert abs(big.sigma2_density - ALPHA) <= F(2, 1000)
    note(8, f"sigma in {{0,1}} with window constant {w}; density within 2e-3 at 1e6")


def test_criterion_09_monomial_suite():
    rng = random.Random(20260810)
    for _ in range(100):
        table = tuple(rng.randint(1, 1000) for _ in range(100))
        f = SigmaFiltration(table=table)
        for n in range(1, 101):
            assert min_gens_count(build_In(f, n)) == table[n - 1] + 2
    note(9, "min generator count = sigma(n) + 2 for 100 random tables, n <= 100")


def test_criterion_10_picard_suite():
    E, p, q = default_curve()
    step = E.sub(q, p)
    assert infinite_order_witness(E, step).certified_infinite
    rep = qn_sequence(E, p, q, 200)
    assert rep.all_distinct
    assert rep.q_hits == (1,)  # q_1 = q definitionally; no later returns
    assert rep.avoids_q
    for n in range(1, 51):
        assert restriction_report(E, p, q, n).assembled.is_trivial
    note(10, "witness certified; q_n distinct to 200 with no returns; restriction trivial to 50")


def test_criterion_11_cli_determinism(capsys, tmp_path):
    commands = [
        ("quad-eval", "--a", "9/26", "--b", "1/26", "--d", "3", "--scale", "5"),
        ("beatty-scan", "--n-max", "50000", "--bins", "10"),
        ("example-limits",),
        ("example-scan", "--n-max", "2000", "--stride", "100", "--checkpoint", "1000"),
        ("monomial-check", "--n-max", "20", "--filtration-max", "8"),
        ("elliptic-qn", "--n-max", "60", "--restriction-max", "20"),
    ]
    for argv in commands:
        outs = []
        for run in range(2):
            target = tmp_path / f"{argv[0]}-{run}.out"
            code = cli_main([*argv, "--out", str(target)])
            assert code == 0, argv
            outs.append(target.read_bytes())
        assert outs[0] == outs[1], f"non-deterministic output for {argv[0]}"
        assert outs[0]
    capsys.readouterr()
    note(11, "byte-identical reports across two runs of every CLI command")
