"""Tests for the elliptic group law, the q_n sequence and the restriction
bookkeeping.  Hand-derived doubling values and torsion counterexamples act
as oracles; group axioms are spot-checked on random multiples."""

import decimal
import random
from fractions import Fraction as F
from math import gcd

import pytest

from divfilt.picard import (
    O,
    CurvePoint,
    DivisorClass,
    EllipticCurve,
    PointNotOnCurveError,
    QnReport,
    SingularCurveError,
    class_of,
    curve_from_json,
    curve_to_json,
    default_curve,
    exceptional_pairing_holds,
    infinite_order_witness,
    qn_sequence,
    restriction_replay,
    restriction_report,
)

E, P0, Q0 = default_curve()  # y^2 = x^3 - 2, p = O, q = (3, 5)
DOUBLE_Q = CurvePoint(F(129, 100), F(-383, 1000))  # tangent slope 27/10, by hand


def test_singular_curve_rejected():
    with pytest.raises(SingularCurveError):
        EllipticCurve(F(0), F(0))
    with pytest.raises(SingularCurveError):
        EllipticCurve(F(-3), F(2))  # 4*(-27) + 27*4 = 0


def test_points_validated():
    with pytest.raises(PointNotOnCurveError):
        E.add(E.check(CurvePoint(F(1), F(1))), Q0)
    assert E.contains(O)
    # field elements are int or Fraction: a float or bool is rejected where it enters
    with pytest.raises(ValueError):
        EllipticCurve(0, -2).check(CurvePoint(3.0, 5.0))
    with pytest.raises(ValueError):
        qn_sequence(E, O, CurvePoint(3.0, 5.0), 5)
    with pytest.raises(ValueError):
        EllipticCurve(0.5, 1)
    with pytest.raises(ValueError):
        EllipticCurve(True, 1)


def test_identity_and_inverse():
    assert E.add(Q0, O) == Q0
    assert E.add(O, Q0) == Q0
    assert E.add(Q0, E.neg(Q0)) == O


def test_doubling_by_hand():
    assert E.add(Q0, Q0) == DOUBLE_Q
    assert E.mul(2, Q0) == DOUBLE_Q


def test_scalar_mul_basics():
    assert E.mul(0, Q0) == O
    assert E.mul(1, Q0) == Q0
    assert E.mul(-1, Q0) == E.neg(Q0)
    assert E.mul(5, Q0) == E.add(E.mul(2, Q0), E.mul(3, Q0))


def test_group_axioms_spot_checks():
    rng = random.Random(11)
    pts = [E.mul(k, Q0) for k in range(-6, 7)]
    for _ in range(60):
        A, B, C = (rng.choice(pts) for _ in range(3))
        assert E.add(E.add(A, B), C) == E.add(A, E.add(B, C))
        assert E.add(A, B) == E.add(B, A)
        assert E.add(A, E.neg(A)) == O


def test_scalar_mul_homomorphism():
    rng = random.Random(22)
    for _ in range(30):
        m, n = rng.randint(-8, 8), rng.randint(-8, 8)
        assert E.add(E.mul(m, Q0), E.mul(n, Q0)) == E.mul(m + n, Q0)


def test_mul_matches_repeated_addition(monkeypatch):
    # the ladder stops after the top bit: k >= 1 costs bit_length(k) - 1
    # doublings and popcount(k) additions into the accumulator
    Ep = EllipticCurve(400537, 1289995, 1505983)
    Qp = Ep.check(CurvePoint(235916, 396205))
    add = EllipticCurve.add
    calls = []

    def counting_add(self, P, Q):
        calls.append(1)
        return add(self, P, Q)

    for curve, pt in ((E, Q0), (Ep, Qp)):
        multiples = {0: O}
        for k in range(1, 71):
            multiples[k] = add(curve, multiples[k - 1], pt)
        for k in range(1, 21):
            multiples[-k] = curve.neg(multiples[k])
        monkeypatch.setattr(EllipticCurve, "add", counting_add)
        for k in range(-20, 71):
            calls.clear()
            assert curve.mul(k, pt) == multiples[k], k
            if k >= 1:
                assert len(calls) == k.bit_length() + bin(k).count("1") - 1, k
        monkeypatch.setattr(EllipticCurve, "add", add)


def test_finite_field_curve():
    Ep = EllipticCurve(2, 3, 97)
    pt = None
    for x in range(97):
        rhs = (x**3 + 2 * x + 3) % 97
        for y in range(97):
            if y * y % 97 == rhs:
                pt = CurvePoint(x, y)
                break
        if pt:
            break
    assert pt is not None and Ep.contains(pt)
    # Lagrange: the point's order divides the group order; brute-force it
    order = 1
    acc = pt
    while not acc.is_infinity:
        acc = Ep.add(acc, pt)
        order += 1
    assert Ep.mul(order, pt).is_infinity
    with pytest.raises(ValueError):
        EllipticCurve(1, 1, 15)  # not prime
    # psi_12 = 399165290221 * 798330580441 is a strong pseudoprime to the bases 2..37
    with pytest.raises(ValueError, match="odd prime"):
        EllipticCurve(0, 1, 318665857834031151167461)
    assert EllipticCurve(0, 1, 2**61 - 1).p == 2**61 - 1
    with pytest.raises(ValueError, match="below 3317044064679887385961981"):
        EllipticCurve(0, 1, 2**89 - 1)  # prime, but above psi_13
    # over F_p, A, B and coordinates are integers, and a checked coordinate is already reduced
    with pytest.raises(ValueError, match="integers over a prime field"):
        EllipticCurve(F(1, 2), 3, 97)
    assert Ep.check(CurvePoint(0, 10)) == CurvePoint(0, 10)
    for unreduced in (CurvePoint(97, 10), CurvePoint(F(0), F(10))):
        with pytest.raises(ValueError):
            Ep.check(unreduced)
        with pytest.raises(ValueError):
            qn_sequence(Ep, O, unreduced, 5)


# -- divisor classes -----------------------------------------------------------


def test_class_of_empty_and_cancellation():
    assert class_of(E, []) == DivisorClass(0, O)
    assert class_of(E, [(Q0, 1), (Q0, -1)]) == DivisorClass(0, O)


def test_class_of_homomorphism():
    rng = random.Random(33)
    pts = [E.mul(k, Q0) for k in range(1, 6)]
    for _ in range(20):
        d1 = [(rng.choice(pts), rng.randint(-3, 3)) for _ in range(3)]
        d2 = [(rng.choice(pts), rng.randint(-3, 3)) for _ in range(2)]
        c1, c2, c12 = class_of(E, d1), class_of(E, d2), class_of(E, d1 + d2)
        assert c12.degree == c1.degree + c2.degree
        assert c12.point == E.add(c1.point, c2.point)


def test_class_of_qn_shape():
    for n in (1, 2, 7):
        got = class_of(E, [(Q0, n), (P0, 1 - n)])
        assert got.degree == 1
        assert got.point == E.mul(n, Q0)  # p = O here


# -- q_n sequence ------------------------------------------------------------------


def test_qn_first_values():
    rep = qn_sequence(E, P0, Q0, 2)
    assert rep.points[0] == Q0
    assert rep.points[1] == DOUBLE_Q


def test_qn_distinct_to_200():
    rep = qn_sequence(E, P0, Q0, 200)
    assert rep.all_distinct
    # q_1 = q is definitional; the sequence must never return to q
    assert rep.q_hits == (1,)
    assert rep.avoids_q


def test_qn_matches_generic_group_law():
    # the division-polynomial multiples must agree with the group law
    rep = qn_sequence(E, P0, Q0, 25)
    for n, pt in enumerate(rep.points, start=1):
        assert pt == E.mul(n, Q0)  # p = O here


def test_qn_avoids_q_with_affine_p():
    # with p = [2]q the sequence p + n(q - p) never returns to q after n = 1
    p = E.mul(2, Q0)
    rep = qn_sequence(E, p, Q0, 120)
    assert rep.all_distinct
    assert rep.q_hits == (1,)
    assert rep.avoids_q


def test_qn_non_integral_model_falls_back():
    # a quarter-integer A walks the pair ladder: the multiples come
    # from division-polynomial values only on an integral model
    Ew = EllipticCurve(F(-1, 4), F(0))
    t = CurvePoint(F(1, 2), F(0))  # 2-torsion: y = 0
    rep = qn_sequence(Ew, O, t, 6)
    assert not rep.all_distinct and rep.collisions_certified


def _ladder(curve, p, q, n_max):
    # the oracle: one generic chord-tangent step per point
    step = curve.sub(q, p)
    out, cur = [], p
    for _ in range(n_max):
        cur = curve.add(cur, step)
        out.append(cur)
    return out


def _scan_oracle(curve, p, q, points):
    # the per-index scan: each point against the index where it first appeared
    step = curve.sub(q, p)
    seen, collisions, certified, q_hits = {}, [], True, []
    for idx, pt in enumerate(points, start=1):
        if pt in seen:
            collisions.append((seen[pt], idx))
            certified = certified and curve.mul(idx - seen[pt], step).is_infinity
        else:
            seen[pt] = idx
        if pt == q:
            q_hits.append(idx)
    return QnReport(
        coords=tuple(pt if pt.is_infinity else (*pt.x.as_integer_ratio(), *pt.y.as_integer_ratio())
                     for pt in points),
        all_distinct=not collisions,
        collisions=tuple(collisions),
        collisions_certified=certified,
        avoids_q=all(h == 1 for h in q_hits),
        q_hits=tuple(q_hits),
    )


E_NON_INTEGRAL = EllipticCurve(F(0), F(-1, 32))  # y^2 = x^3 - 2 scaled by u = 1/2
E_ORDER_2 = EllipticCurve(F(-1), F(0))
E_ORDER_3 = EllipticCurve(F(0), F(1))
E_ORDER_7 = EllipticCurve(F(-43), F(166))
E_FP = EllipticCurve(400537, 1289995, 1505983)
Q_FP = CurvePoint(235916, 396205)
E_97 = EllipticCurve(2, 3, 97)
Q_97 = CurvePoint(0, 10)  # of order 50: q_50 = q_100 = O

# (id, curve, p, q, n_max, what `_multiples` returned: [True] for the
# multiples, [False] for None on a torsion step, [] when it was not called)
PSI, TORSION, LADDER = [True], [False], []
QN_ORACLE_CASES = [
    ("p=O", E, O, Q0, 40, PSI),
    ("p=[2]q", E, E.mul(2, Q0), Q0, 30, PSI),
    ("p=-[2]q", E, E.mul(-2, Q0), Q0, 20, PSI),
    ("negative-y-step", E, O, E.neg(Q0), 30, PSI),
    ("non-integral-step", E, O, E.mul(3, Q0), 20, PSI),
    ("non-integral-model", E_NON_INTEGRAL, O, CurvePoint(F(3, 4), F(5, 8)), 20, LADDER),
    ("order-2", E_ORDER_2, O, CurvePoint(F(0), F(0)), 10, TORSION),
    ("order-3", E_ORDER_3, O, CurvePoint(F(0), F(1)), 10, TORSION),
    ("order-7", E_ORDER_7, O, CurvePoint(F(3), F(8)), 20, TORSION),
    ("order-7-p", E_ORDER_7, CurvePoint(F(3), F(8)), CurvePoint(F(-5), F(16)), 20, TORSION),
    ("finite-field", E_FP, O, Q_FP, 2000, LADDER),
    ("finite-field-affine-p", E_FP, E_FP.mul(5, Q_FP), Q_FP, 2000, LADDER),
    ("finite-field-order-50", E_97, O, Q_97, 120, LADDER),
    ("finite-field-order-50-affine-p", E_97, E_97.mul(7, Q_97), Q_97, 120, LADDER),
]


@pytest.mark.parametrize(
    "curve,p,q,n_max,calls", [c[1:] for c in QN_ORACLE_CASES], ids=[c[0] for c in QN_ORACLE_CASES]
)
def test_qn_matches_ladder_oracle(monkeypatch, curve, p, q, n_max, calls):
    import divfilt.picard as picard

    multiples = picard._multiples
    results = []

    def spy(*args):
        results.append(multiples(*args))
        return results[-1]

    monkeypatch.setattr(picard, "_multiples", spy)
    rep = qn_sequence(curve, p, q, n_max)
    oracle = _ladder(curve, p, q, n_max)
    assert rep == _scan_oracle(curve, p, q, oracle)
    assert [r is not None for r in results] == calls
    # point for point, with each field's own coordinate type, and as rendered
    assert [tuple(map(type, (pt.x, pt.y))) for pt in rep.points] == [
        tuple(map(type, (pt.x, pt.y))) for pt in oracle]
    assert all(curve.check(pt) == pt for pt in rep.points)
    assert rep.to_json()["points"] == [pt.to_json() for pt in oracle]



def _seeded_lowest_terms_cases(seed=2026, tries=20000):
    """The first two finds of a seeded search over integral points (a, b) of
    y^2 = x^3 + A x + B of infinite order: one where g = gcd(2b, 3a^2 + A) > 1,
    so phi_k and psi_k^2 share the primes of g (Ayad), and a step [2]P or [3]P
    with a denominator, e > 1, on the same kind of integral model."""
    rng, found = random.Random(seed), {}
    for _ in range(tries):
        a, b, A = rng.randint(-12, 12), rng.randint(1, 30), rng.randint(-30, 30)
        try:
            curve = EllipticCurve(F(A), F(b * b - a**3 - A * a))
        except SingularCurveError:
            continue
        point = curve.check(CurvePoint(F(a), F(b)))
        if not infinite_order_witness(curve, point).certified_infinite:
            continue
        if gcd(2 * b, 3 * a * a + A) > 1:
            found.setdefault("g>1", (curve, point))
        for m in (2, 3):
            step = curve.mul(m, point)
            if step.x.denominator > 1:
                found.setdefault("e>1", (curve, step))
        if len(found) == 2:
            return found
    raise AssertionError("the seeded search found no case")


LOWEST_TERMS_CASES = _seeded_lowest_terms_cases()


@pytest.mark.parametrize("case", ["g>1", "e>1"])
def test_multiples_in_lowest_terms_match_the_ladder(case):
    # the division-polynomial path renders x = X/X' and y = Y/Y' with no
    # Fraction; they must be the generic ladder's lowest terms, point by point
    curve, step = LOWEST_TERMS_CASES[case]
    oracle = _ladder(curve, O, step, 30)
    rep = qn_sequence(curve, O, step, 30)
    assert all(type(c) is tuple for c in rep.coords)  # the division-polynomial path
    assert rep.to_json()["points"] == [pt.to_json() for pt in oracle]
    assert list(rep.coords) == [
        (pt.x.numerator, pt.x.denominator, pt.y.numerator, pt.y.denominator) for pt in oracle
    ]
    assert rep.points == tuple(oracle)
    replay = restriction_replay(curve, O, step, 30, rep.coords)
    assert all(r.trivial for r in replay) and [r.qn for r in replay] == oracle

def _small_field_case(rng):
    # a random nonsingular curve over a small F_l with an affine point
    affine = []
    while not affine:
        ell = rng.choice([3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53])
        a, b = rng.randrange(ell), rng.randrange(ell)
        if (4 * a**3 + 27 * b**2) % ell == 0:
            continue
        roots = {}
        for y in range(ell):
            roots.setdefault(y * y % ell, []).append(y)
        affine = [
            CurvePoint(x, y) for x in range(ell) for y in roots.get((x**3 + a * x + b) % ell, [])
        ]
    curve = EllipticCurve(a, b, ell)
    p = O if rng.random() < 0.5 else rng.choice(affine)
    q = rng.choice([pt for pt in affine + [O] if pt != p])
    return curve, p, q, rng.randint(1, 2 * ell + 4)


def test_qn_verdicts_match_scan_oracle_on_small_fields():
    rng = random.Random(8128)
    seen = {"p=O": 0, "p!=O": 0, "collisions": 0, "distinct": 0}
    for _ in range(400):
        curve, p, q, n_max = _small_field_case(rng)
        rep = qn_sequence(curve, p, q, n_max)
        assert rep == _scan_oracle(curve, p, q, _ladder(curve, p, q, n_max)), (curve, p, q, n_max)
        seen["p=O" if p.is_infinity else "p!=O"] += 1
        seen["collisions" if rep.collisions else "distinct"] += 1
    assert min(seen.values()) >= 60, seen


def _law_holds(curve, P, Q, R):
    # R = P + Q by the chord-tangent law's definition, with no division and
    # no library arithmetic: R is on the curve; R = O exactly when
    # x_P = x_Q and y_P + y_Q = 0; otherwise, with the chord or tangent slope
    # s = num/den, x_P + x_Q + x_R = s^2 and -R lies on the line through P of
    # slope s, both cleared of den.  Over F_p everything holds mod p.
    def zero(v):
        return v == 0 if curve.p is None else v % curve.p == 0

    if P.is_infinity or Q.is_infinity:
        return R == (Q if P.is_infinity else P)
    opposite = zero(P.x - Q.x) and zero(P.y + Q.y)
    if R.is_infinity or opposite:
        return R.is_infinity and opposite
    if zero(P.x - Q.x):
        num, den = 3 * P.x * P.x + curve.a, 2 * P.y
    else:
        num, den = Q.y - P.y, Q.x - P.x
    return (zero(R.y * R.y - R.x**3 - curve.a * R.x - curve.b)
            and zero((P.x + Q.x + R.x) * den * den - num * num)
            and zero((-R.y - P.y) * den - num * (R.x - P.x)))


def _ladder_steps(curve, p, q, n_max):
    # every addition R = P + Q behind the pair ladder's q_1 .. q_n_max: the
    # step q - p = q + (-p), then q_n = q_(n-1) + (q - p) from q_0 = p
    step = curve.sub(q, p)
    points = [p, *qn_sequence(curve, p, q, n_max).points]
    return [(q, curve.neg(p), step)] + [(P, step, R) for P, R in zip(points, points[1:])]


def test_ladder_steps_satisfy_the_chord_tangent_law():
    # the oracle `_ladder` shares the library's one law; this certificate
    # does not.  Over the seeded small-field sweep and the ladder rows
    # (LADDER and TORSION) of QN_ORACLE_CASES
    rng = random.Random(8128)
    cases = [_small_field_case(rng) for _ in range(400)]
    cases += [c[1:5] for c in QN_ORACLE_CASES if c[5] is not PSI]
    seen = {"chord": 0, "tangent": 0, "O": 0}
    for curve, p, q, n_max in cases:
        for P, Q, R in _ladder_steps(curve, p, q, n_max):
            assert _law_holds(curve, P, Q, R), (curve, P, Q, R)
            if not (P.is_infinity or Q.is_infinity):
                seen["O" if R.is_infinity else "tangent" if P == Q else "chord"] += 1
    assert min(seen.values()) >= 100, seen


def test_law_certificate_refuses_a_wrong_sum():
    # the certificate itself: each wrong R for a chord, a tangent and P = -Q fails
    for curve, P in ((E, Q0), (E_97, Q_97), (E_FP, Q_FP)):
        Q = curve.mul(3, P)
        for A, B in ((P, Q), (P, P), (P, curve.neg(P))):
            R = curve.add(A, B)
            assert _law_holds(curve, A, B, R)
            for wrong in (O, curve.neg(R), curve.add(R, P), A, B):
                if wrong != R:
                    assert not _law_holds(curve, A, B, wrong), (curve, A, B, wrong)


def test_qn_torsion_collision_detected(monkeypatch):
    # y^2 = x^3 - x has the 2-torsion point (0, 0)
    Et = EllipticCurve(F(-1), F(0))
    t = CurvePoint(F(0), F(0))
    rep = qn_sequence(Et, O, t, 10)
    assert not rep.all_distinct
    assert rep.collisions  # q_{n+2} = q_n throughout
    assert rep.collisions_certified  # the torsion relation re-verified
    assert rep.collisions[0] == (1, 3)
    # the certificate is its own scalar multiplication, not read off the points
    monkeypatch.setattr(EllipticCurve, "mul", lambda self, k, P: P)
    assert not qn_sequence(Et, O, t, 10).collisions_certified


def test_qn_rejects_equal_base_points():
    with pytest.raises(ValueError):
        qn_sequence(E, Q0, Q0, 5)


# -- infinite order witness ----------------------------------------------------------


def test_witness_identity_fails_immediately():
    v = infinite_order_witness(E, O)
    assert not v.passed and v.failed_at == 1


def test_witness_certifies_non_torsion():
    v = infinite_order_witness(E, Q0)
    assert v.passed and v.certified_infinite and not v.bounded_only


def test_witness_two_torsion():
    Et = EllipticCurve(F(-1), F(0))
    v = infinite_order_witness(Et, CurvePoint(F(0), F(0)))
    assert not v.passed and v.failed_at == 2


def test_witness_finite_field_bounded_only():
    Ep = EllipticCurve(2, 3, 97)
    pt = CurvePoint(0, 10)  # 10^2 = 100 = 3 mod 97
    assert Ep.contains(pt)
    v = infinite_order_witness(Ep, pt)
    assert v.bounded_only and not v.certified_infinite


# -- restriction bookkeeping -----------------------------------------------------------


def test_restriction_trivial_to_50():
    for n in range(1, 51):
        assert restriction_report(E, P0, Q0, n).assembled.is_trivial


def test_restriction_trivial_affine_p():
    p = E.mul(3, Q0)
    for n in (1, 2, 5, 17):
        assert restriction_report(E, p, Q0, n).assembled.is_trivial


def test_restriction_n1_trivial():
    assert restriction_report(E, P0, Q0, 1).assembled == DivisorClass(0, O)


def test_restriction_perturbed_ledger_flagged(monkeypatch):
    # without the exceptional term -q_7 the divisor has degree 1
    got = class_of(E, [(Q0, 7), (P0, -6)])
    assert got.degree == 1
    assert not got.is_trivial
    # a group law off by one on negative multiples breaks the ledger point
    # [n]q + [1 - n]p but not q_n, so the verdict must see it
    p = E.mul(3, Q0)
    mul = EllipticCurve.mul
    monkeypatch.setattr(EllipticCurve, "mul", lambda self, k, P: mul(self, k - (k < 0), P))
    rep = restriction_report(E, p, Q0, 7)
    assert not rep.trivial


RESTRICTION_CASES = [
    ("Q,p=O", E, O, Q0),
    ("Q,p=[3]q", E, E.mul(3, Q0), Q0),
    ("F_p,p=[5]q", E_FP, E_FP.mul(5, Q_FP), Q_FP),
]


@pytest.mark.parametrize("drop", [False, True], ids=["full", "dropped"])
@pytest.mark.parametrize("n", [1, 2, 7, 13])
@pytest.mark.parametrize(
    "curve,p,q", [c[1:] for c in RESTRICTION_CASES], ids=[c[0] for c in RESTRICTION_CASES]
)
def test_restriction_report_coherence(curve, p, q, n, drop):
    rep = restriction_report(curve, p, q, n)
    qn = curve.add(p, curve.mul(n, curve.sub(q, p)))
    assert rep.qn == qn
    # the formal divisor, point by point; without the -q_n term it is the
    # degree-1 class (1, q_n), never trivial
    divisor = [(q, n), (p, 1 - n)] if drop else [(q, n), (p, 1 - n), (qn, -1)]
    cls = class_of(curve, divisor)
    assert cls == (DivisorClass(1, qn) if drop else rep.assembled)
    assert cls.is_trivial is not drop
    assert rep.trivial
    assert exceptional_pairing_holds(curve, p, qn)


E_TORSION = EllipticCurve(F(0), F(1))
Q_TORSION = CurvePoint(F(2), F(3))  # order 6 on y^2 = x^3 + 1
REPLAY_CASES = RESTRICTION_CASES + [
    ("Q,torsion", E_TORSION, O, Q_TORSION),
    # integer A with a fractional B: the pair ladder's quadruples meet the Jacobian ledger
    ("Q,non-integral-B", E_NON_INTEGRAL, O, CurvePoint(F(3, 4), F(5, 8))),
]


@pytest.mark.parametrize("known", [20, 6, 0], ids=["from-sequence", "past-sequence", "no-points"])
@pytest.mark.parametrize("curve,p,q", [c[1:] for c in REPLAY_CASES], ids=[c[0] for c in REPLAY_CASES])
def test_restriction_replay_matches_per_level_reports(curve, p, q, known):
    coords = qn_sequence(curve, p, q, 20).coords[:known]
    got = restriction_replay(curve, p, q, 20, coords)
    assert got == [restriction_report(curve, p, q, n) for n in range(1, 21)]


def test_restriction_replay_perturbed_group_law_flagged(monkeypatch):
    # a group law wrong on one input, the ledger's last addition
    # [n]q + [1 - n]p at level 7, breaks that level's ledger in the replay
    # as it does in the per-level report
    p = E.mul(3, Q0)
    coords = qn_sequence(E, p, Q0, 10).coords
    wrong = (E.mul(7, Q0), E.mul(-6, p))
    add = EllipticCurve.add

    def perturbed(self, P, Q):
        return add(self, add(self, P, Q), Q0) if (P, Q) == wrong else add(self, P, Q)

    monkeypatch.setattr(EllipticCurve, "add", perturbed)
    oracle = restriction_report(E, p, Q0, 7)
    assert not oracle.trivial
    replay = restriction_replay(E, p, Q0, 10, coords)
    assert replay[6] == oracle
    assert [r.n for r in replay if not r.trivial] == [7]


def test_restriction_replay_past_sequence_flags_wrong_chord_step(monkeypatch):
    # a group law wrong on the step of q that lands on [11]q: past the end of
    # `coords` the replay must not take q_n from a chord step, which for p = O
    # is the ledger's addition [10]q + q.  From level 12 on the ledger's
    # double-and-add chain goes round the wrong step, so only level 11 is off.
    # Over F_97 the ledger is the `E.add` chain (over Q with p = O and an
    # integral model it is the Jacobian replay, which takes no `E.add` step)
    Ep = EllipticCurve(2, 3, 97)
    q = Ep.check(CurvePoint(0, 10))
    coords = qn_sequence(Ep, O, q, 10).coords
    q10, q11 = Ep.mul(10, q), Ep.mul(11, q)
    add = EllipticCurve.add

    def perturbed(self, P, Q):
        return add(self, q11, q11) if (P, Q) == (q10, q) else add(self, P, Q)

    monkeypatch.setattr(EllipticCurve, "add", perturbed)
    replay = restriction_replay(Ep, O, q, 15, coords)
    assert [r.n for r in replay if not r.trivial] == [11]


def test_restriction_replay_ledger_differs_from_the_ladder(monkeypatch):
    # over F_p with p = O the sequence is the pair ladder q_n = q_(n-1) + q.
    # A wrong q_11 injected into its step [10]q + q breaks every later q_n;
    # a ledger kept as the same running sum, wrong on the same step, would
    # break with it and flag nothing, while the double-and-add ledger
    # recovers at [12]q = [2]([6]q)
    import divfilt.picard as picard

    Ep = EllipticCurve(2, 3, 97)
    q = Ep.check(CurvePoint(0, 10))
    q10, q11 = Ep.mul(10, q), Ep.mul(11, q)
    wrong = Ep.add(q11, q11)
    pair_add, add = picard._pair_add, EllipticCurve.add

    def perturbed_pairs(E, P, Q):
        return (wrong.x, wrong.y) if (P, Q) == ((q10.x, q10.y), (q.x, q.y)) else pair_add(E, P, Q)

    def perturbed(self, P, Q):
        return wrong if (P, Q) == (q10, q) else add(self, P, Q)

    monkeypatch.setattr(picard, "_pair_add", perturbed_pairs)
    monkeypatch.setattr(EllipticCurve, "add", perturbed)
    rep = qn_sequence(Ep, O, q, 15)
    assert rep.points[10] != q11
    replay = restriction_replay(Ep, O, q, 15, rep.coords)
    assert [r.n for r in replay if not r.trivial] == [12, 13, 14, 15]


@pytest.mark.parametrize("levels", [0, -1, 2.0])
def test_restriction_replay_rejects_bad_levels(levels):
    with pytest.raises(ValueError):
        restriction_replay(E, P0, Q0, levels, ())


# -- the Jacobian replay of division-polynomial quadruples -------------------------------

JACOBIAN_CASES = [  # (curve, q, levels, n_max of the sequence the replay reads)
    ("default-50", E, Q0, 50, 50),
    ("default-80-past-1", E, Q0, 80, 1),
    ("g>1-30", *LOWEST_TERMS_CASES["g>1"], 30, 30),
    ("e>1-30", *LOWEST_TERMS_CASES["e>1"], 30, 30),
]


@pytest.mark.parametrize("curve,q,levels,n_max", [c[1:] for c in JACOBIAN_CASES],
                         ids=[c[0] for c in JACOBIAN_CASES])
def test_jacobian_replay_matches_the_fraction_ledger(monkeypatch, curve, q, levels, n_max):
    # every level is certified in Jacobian coordinates: no Fraction ledger
    # (`E.mul`) is run, and the reports equal the per-level oracle's
    coords = qn_sequence(curve, O, q, n_max).coords
    assert all(type(c) is tuple for c in coords)
    oracle = [restriction_report(curve, O, q, n) for n in range(1, levels + 1)]
    assert all(r.trivial for r in oracle)

    def no_ledger(self, k, P):
        raise AssertionError("the Fraction ledger ran")

    monkeypatch.setattr(EllipticCurve, "mul", no_ledger)
    got = restriction_replay(curve, O, q, levels, coords)
    monkeypatch.undo()
    assert got == oracle
    assert [r.to_json() for r in got] == [r.to_json() for r in oracle]


def _int_coords(n_max):
    return [tuple(int(v) for v in c) for c in qn_sequence(E, O, Q0, n_max).coords]


def _ledger_class(n, quadruple):
    # the Fraction ledger's class at level n for a q_n given as a quadruple
    x, x_den, y, y_den = quadruple
    qn = CurvePoint(F(x, x_den), F(y, y_den))
    return qn, DivisorClass(0, E.sub(E.add(E.mul(n, Q0), E.mul(1 - n, P0)), qn))


def _assert_flags_exactly(coords, level):
    replay = restriction_replay(E, P0, Q0, len(coords), coords)
    assert [r.n for r in replay if not r.trivial] == [level]
    qn, cls = _ledger_class(level, coords[level - 1])
    assert replay[level - 1].qn == qn and replay[level - 1].assembled == cls


MUTANTS = {
    "x+1": lambda x, x_den, y, y_den: (x + 1, x_den, y, y_den),
    "y+1": lambda x, x_den, y, y_den: (x, x_den, y + 1, y_den),
    "-y": lambda x, x_den, y, y_den: (x, x_den, -y, y_den),
    "4x'": lambda x, x_den, y, y_den: (x, 4 * x_den, y, y_den),
    # X' != d^2 with d = Y' // X' and Y' = d X' kept: only the X' check sees it
    "x'!=d^2": lambda x, x_den, y, y_den: (x, 2 * x_den, y, 2 * y_den),
    # Y' != d X' with d = Y' // X' and X' = d^2 kept: only the Y' check sees it
    "y'!=dx'": lambda x, x_den, y, y_den: (x, x_den, y, y_den + 1),
}


@pytest.mark.parametrize("mutant", list(MUTANTS))
@pytest.mark.parametrize("level", [1, 2, 3, 17, 50])
def test_jacobian_replay_flags_a_mutated_level(mutant, level):
    # one wrong coordinate of one quadruple is flagged at exactly that level,
    # with the Fraction ledger's class; at level 1 that is q_1 != q
    coords = _int_coords(50)
    coords[level - 1] = MUTANTS[mutant](*coords[level - 1])
    _assert_flags_exactly(coords, level)


def _chain_dependents(level, levels):
    # level and every level whose Jacobian chain passes through it: n even
    # reads q_(n/2), n odd reads q_((n-1)/2) and q_((n+1)/2)
    reached = {level}
    for n in range(level + 1, levels + 1):
        if {n // 2, n - n // 2} & reached:
            reached.add(n)
    return sorted(reached)


@pytest.mark.parametrize("level", [3, 17, 24])
def test_jacobian_replay_reruns_only_the_levels_a_mutant_reaches(monkeypatch, level):
    # a wrong q_m is flagged at m alone, and the Fraction ledger runs at m and
    # at each level certified through it, which then holds no Jacobian point
    coords = _int_coords(50)
    coords[level - 1] = MUTANTS["x+1"](*coords[level - 1])
    mul, ledger = EllipticCurve.mul, []

    def counted_mul(self, k, P):
        ledger.append(k)
        return mul(self, k, P)

    monkeypatch.setattr(EllipticCurve, "mul", counted_mul)
    replay = restriction_replay(E, P0, Q0, 50, coords)
    monkeypatch.undo()
    assert [r.n for r in replay if not r.trivial] == [level]
    assert ledger == _chain_dependents(level, 50)


@pytest.mark.parametrize("context", [decimal.Context(), decimal.Context(prec=decimal.MAX_PREC)],
                         ids=["default-prec-28", "max-prec"])
def test_jacobian_replay_at_depth_runs_no_fraction_ledger(monkeypatch, context):
    # 120 levels are all certified in Jacobian coordinates whatever the
    # caller's decimal context: the replay sets its exact context itself
    coords = qn_sequence(E, P0, Q0, 120).coords

    def no_ledger(self, k, P):
        raise AssertionError("the Fraction ledger ran")

    monkeypatch.setattr(EllipticCurve, "mul", no_ledger)
    with decimal.localcontext(context):
        replay = restriction_replay(E, P0, Q0, 120, coords)
    assert len(replay) == 120 and all(r.trivial for r in replay)


@pytest.mark.parametrize("level", [1, 2, 3, 17, 50])
def test_jacobian_replay_unreduced_point_keeps_its_verdict(level):
    # (4X, 4X', 8Y, 8Y') is the same point: it passes X' = d^2 and Y' = d X'
    # with d doubled, and whether or not 2d divides Z3 the level stays trivial
    coords = _int_coords(50)
    x, x_den, y, y_den = coords[level - 1]
    coords[level - 1] = (4 * x, 4 * x_den, 8 * y, 8 * y_den)
    replay = restriction_replay(E, P0, Q0, 50, coords)
    oracle = [restriction_report(E, P0, Q0, n) for n in range(1, 51)]
    assert [(r.n, r.qn, r.assembled) for r in replay] == [(r.n, r.qn, r.assembled) for r in oracle]


def test_jacobian_replay_takes_no_group_law_step(monkeypatch):
    # the default call's 50 levels are certified with no EllipticCurve.add,
    # and no report builds its q_n until it is read
    coords = qn_sequence(E, P0, Q0, 50).coords

    def no_group_law(self, P, Q):
        raise AssertionError("a group-law step ran")

    monkeypatch.setattr(EllipticCurve, "add", no_group_law)
    replay = restriction_replay(E, P0, Q0, 50, coords)
    assert len(replay) == 50 and all(r.trivial for r in replay)
    assert not any("qn" in vars(r) for r in replay)
    assert replay[-1].qn == CurvePoint(F(int(coords[-1][0]), int(coords[-1][1])),
                                       F(int(coords[-1][2]), int(coords[-1][3])))
    assert "qn" in vars(replay[-1]) and not any("qn" in vars(r) for r in replay[:-1])
    monkeypatch.undo()
    assert replay[-1].qn == E.mul(50, Q0)


# -- JSON ---------------------------------------------------------------------------


def test_curve_json_roundtrip():
    doc = {
        "field": "Q",
        "A": "0",
        "B": "-2",
        "points": {"p": "O", "q": {"x": "3", "y": "5"}},
    }
    curve, pts = curve_from_json(doc)
    assert curve == E
    assert pts["p"] == O and pts["q"] == Q0
    assert curve_to_json(curve, pts) == doc


def test_curve_json_finite_field():
    doc = {"field": {"p": 97}, "A": "2", "B": "3", "points": {"q": {"x": "0", "y": "10"}}}
    curve, pts = curve_from_json(doc)
    assert curve.p == 97 and pts["q"] == CurvePoint(0, 10)


def test_curve_json_validation():
    with pytest.raises(ValueError):
        curve_from_json({"field": "R", "A": "0", "B": "-2"})
    with pytest.raises(ValueError):
        curve_from_json({"field": "Q", "A": "0"})
    with pytest.raises(PointNotOnCurveError):
        curve_from_json(
            {"field": "Q", "A": "0", "B": "-2", "points": {"q": {"x": "1", "y": "1"}}}
        )
