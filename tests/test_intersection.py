"""Tests for intersection forms and bivariate polynomial expansion.

The symbolic oracle is sympy: expansions and substitutions are recomputed
there independently and compared coefficient by coefficient.
"""

import json
import random
from fractions import Fraction as F

import pytest
import sympy

from divfilt.asymptotics import example_form, example_model, model_from_form
from divfilt.intersection import (
    BivariatePolynomial,
    DivisorExpr,
    IntersectionForm,
    POLY_ONE,
    POLY_X,
    POLY_Y,
    UnknownSymbolError,
    difference_polynomial,
    form_from_json,
    triple_product,
)
from divfilt.quadfield import QuadExt, rational_str

X, Y = sympy.symbols("x y")

ALPHA = QuadExt(F(9, 26), F(1, 26), 3)

# Triple table of the bundled three-fold example: cubic rows for the two
# lattice generators plus mixed rows pairing them with the canonical class.
TABLE = {
    ("S", "S", "S"): F(468),
    ("F", "S", "S"): F(-162),
    ("F", "F", "S"): F(54),
    ("F", "F", "F"): F(54),
    ("K", "S", "S"): F(-792),
    ("F", "K", "S"): F(282),
    ("F", "F", "K"): F(-175),
}


@pytest.fixture()
def form() -> IntersectionForm:
    return IntersectionForm(("S", "F", "K"), TABLE)


def dn_expr() -> DivisorExpr:
    return DivisorExpr({"S": POLY_X, "F": POLY_Y})


def to_sympy(p: BivariatePolynomial):
    return sympy.expand(
        sum(sympy.Rational(c.numerator, c.denominator) * X**i * Y**j for (i, j), c in p.terms.items())
    )


def from_sympy(expr) -> BivariatePolynomial:
    poly = sympy.Poly(sympy.expand(expr), X, Y)
    terms = {}
    for (i, j), c in poly.terms():
        terms[(int(i), int(j))] = F(int(sympy.numer(c)), int(sympy.denom(c)))
    return BivariatePolynomial(terms)


def random_poly(rng: random.Random, max_deg: int = 3) -> BivariatePolynomial:
    terms = {}
    for i in range(max_deg + 1):
        for j in range(max_deg + 1 - i):
            if rng.random() < 0.6:
                terms[(i, j)] = F(rng.randint(-20, 20), rng.randint(1, 6))
    return BivariatePolynomial(terms)


# -- polynomial basics ---------------------------------------------------------


def test_zero_coefficients_dropped():
    p = BivariatePolynomial({(1, 0): F(0), (0, 1): F(2)})
    assert p.terms == {(0, 1): F(2)}
    assert BivariatePolynomial.zero().is_zero()


def test_shift_matches_sympy():
    rng = random.Random(555)
    for _ in range(40):
        p = random_poly(rng)
        dx, dy = rng.randint(-3, 3), rng.randint(-3, 3)
        got = p.shift(dx, dy)
        want = from_sympy(to_sympy(p).subs({X: X + dx, Y: Y + dy}, simultaneous=True))
        assert got == want


# -- triple products ------------------------------------------------------------


def test_cubic_expansion(form):
    p3 = triple_product(form, dn_expr(), dn_expr(), dn_expr())
    assert p3 == BivariatePolynomial(
        {(3, 0): F(468), (2, 1): F(-486), (1, 2): F(162), (0, 3): F(54)}
    )


def test_canonical_pairing_expansion(form):
    ky = DivisorExpr.single("K")
    p2 = triple_product(form, dn_expr(), dn_expr(), ky)
    assert p2 == BivariatePolynomial({(2, 0): F(-792), (1, 1): F(564), (0, 2): F(-175)})


def test_constant_triple(form):
    s_plus_f = DivisorExpr({"S": POLY_ONE, "F": POLY_ONE})
    got = triple_product(form, s_plus_f, s_plus_f, s_plus_f)
    # 468 + 3(-162) + 3(54) + 54
    assert got == BivariatePolynomial.constant(198)


def test_unknown_symbol_rejected(form):
    bad = DivisorExpr.single("Z")
    with pytest.raises(UnknownSymbolError):
        triple_product(form, bad, dn_expr(), dn_expr())
    with pytest.raises(UnknownSymbolError):
        form.value("K", "K", "K")  # pure canonical powers are not stored


def test_permutation_symmetry(form):
    # the canonical symbol appears in at most one slot (pure powers are not stored)
    rng = random.Random(777)
    for _ in range(25):
        k_slot = rng.randrange(4)  # 3 = nowhere
        exprs = []
        for slot in range(3):
            syms = ("S", "F", "K") if slot == k_slot else ("S", "F")
            coeffs = {}
            for sym in syms:
                if rng.random() < 0.7:
                    coeffs[sym] = BivariatePolynomial(
                        {(rng.randint(0, 1), rng.randint(0, 1)): F(rng.randint(-5, 5))}
                    )
            exprs.append(DivisorExpr(coeffs))
        A, B, C = exprs
        base = triple_product(form, A, B, C)
        assert base == triple_product(form, C, A, B)
        assert base == triple_product(form, B, C, A)
        assert base == triple_product(form, C, B, A)


def divisor_sum(A, B):
    # the sum of two formal divisors, coefficient by coefficient
    zero = BivariatePolynomial.zero()
    return DivisorExpr(
        {s: A.coefficients.get(s, zero) + B.coefficients.get(s, zero) for s in A.symbols() | B.symbols()}
    )


def test_multilinearity(form):
    rng = random.Random(888)
    for _ in range(25):
        def rand_expr():
            return DivisorExpr(
                {
                    sym: BivariatePolynomial({(1, 0): F(rng.randint(-4, 4)), (0, 1): F(rng.randint(-4, 4))})
                    for sym in ("S", "F")
                }
            )

        A, A2, B, C = rand_expr(), rand_expr(), rand_expr(), rand_expr()
        lhs = triple_product(form, divisor_sum(A, A2), B, C)
        rhs = triple_product(form, A, B, C) + triple_product(form, A2, B, C)
        assert lhs == rhs


# -- difference polynomials -------------------------------------------------------


def test_difference_of_pure_y_cube():
    p = BivariatePolynomial.monomial(0, 3)
    assert difference_polynomial(p, 0) == BivariatePolynomial(
        {(0, 2): F(3), (0, 1): F(3), (0, 0): F(1)}
    )


def test_difference_of_pure_x_cube_sigma_zero():
    p = BivariatePolynomial.monomial(3, 0)
    assert difference_polynomial(p, 0).is_zero()


def test_difference_degree_two_part(form):
    p3 = triple_product(form, dn_expr(), dn_expr(), dn_expr())
    part0 = difference_polynomial(p3, 0).homogeneous_part(2)
    assert part0 == BivariatePolynomial({(2, 0): F(-486), (1, 1): F(324), (0, 2): F(162)})
    part1 = difference_polynomial(p3, 1).homogeneous_part(2)
    assert part1 == BivariatePolynomial({(2, 0): F(918), (1, 1): F(-648), (0, 2): F(324)})


def test_difference_sigma_expansion_matches_sympy(form):
    p3 = triple_product(form, dn_expr(), dn_expr(), dn_expr())
    s = sympy.Symbol("s")
    expr = to_sympy(p3)
    for sigma in (0, 1, 2):
        want = from_sympy(expr.subs({X: X + sigma, Y: Y + 1}, simultaneous=True) - expr)
        assert difference_polynomial(p3, sigma) == want


def test_difference_drops_top_degree():
    rng = random.Random(999)
    for _ in range(30):
        p = random_poly(rng)
        deg = p.total_degree()
        if deg < 0:
            continue
        hom = p.homogeneous_part(deg)
        for sigma in (0, 1):
            assert difference_polynomial(hom, sigma).homogeneous_part(deg).is_zero()


def test_homogeneous_part_basics():
    p = BivariatePolynomial({(0, 2): F(3), (0, 1): F(3), (0, 0): F(1)})
    assert p.homogeneous_part(2) == BivariatePolynomial.monomial(0, 2, 3)
    cubic = BivariatePolynomial({(3, 0): F(468), (2, 1): F(-486), (1, 2): F(162), (0, 3): F(54)})
    assert cubic.homogeneous_part(3) == cubic


# -- evaluation -----------------------------------------------------------------


def test_evaluate_cubic_at_alpha(form):
    p3 = triple_product(form, dn_expr(), dn_expr(), dn_expr())
    assert p3.evaluate(ALPHA, 1) == QuadExt(F(12042, 169), F(-27, 169), 3)


def test_evaluate_constant_term():
    p = BivariatePolynomial({(0, 0): F(7), (2, 1): F(3)})
    assert p.evaluate(0, 0) == 7


def test_evaluate_canonical_quadratic(form):
    ky = DivisorExpr.single("K")
    p2 = triple_product(form, dn_expr(), dn_expr(), ky)
    got = p2.evaluate(ALPHA, 1)
    assert got == -792 * ALPHA**2 + 564 * ALPHA - 175
    assert got == QuadExt(F(-13213, 169), F(102, 169), 3)
    assert got.to_decimal(3) == "-77.138"


def test_evaluate_radicand_mismatch():
    from divfilt.quadfield import RadicandMismatchError

    p = BivariatePolynomial({(1, 1): F(1)})
    with pytest.raises(RadicandMismatchError):
        p.evaluate(QuadExt.sqrt(2), QuadExt.sqrt(3))
    # a rational second argument adopts the first argument's field
    assert p.evaluate(QuadExt.sqrt(2), QuadExt(F(2), F(0), 3)) == 2 * QuadExt.sqrt(2)


def test_evaluate_at_n(form):
    p3 = triple_product(form, dn_expr(), dn_expr(), dn_expr())
    assert p3.evaluate(ALPHA.ceil_scaled(0), 0) == 0
    assert p3.evaluate(ALPHA.ceil_scaled(1), 1) == 198
    # at n = 3 the ceiling is 2: 468*8 - 486*4*3 + 162*2*9 + 54*27
    assert p3.evaluate(ALPHA.ceil_scaled(3), 3) == 468 * 8 - 486 * 12 + 162 * 18 + 54 * 27 == 2286


def test_telescoping_against_difference(form):
    # P(ceil(a(n+1)), n+1) - P(ceil(an), n) equals the difference polynomial
    # at (ceil(an), n) with the step sigma actually taken by the ceiling.
    p3 = triple_product(form, dn_expr(), dn_expr(), dn_expr())
    diffs = {s: difference_polynomial(p3, s) for s in (0, 1)}
    prev_ceil = 0
    prev_val = p3.evaluate(ALPHA.ceil_scaled(0), 0)
    for n in range(0, 10_000):
        cur_ceil = ALPHA.ceil_scaled(n + 1)
        sigma = cur_ceil - prev_ceil
        nxt = p3.evaluate(ALPHA.ceil_scaled(n + 1), n + 1)
        assert nxt - prev_val == diffs[sigma].evaluate(F(prev_ceil), F(n))
        prev_ceil, prev_val = cur_ceil, nxt


# -- JSON ingestion -----------------------------------------------------------


def form_to_json(form: IntersectionForm) -> dict:
    """The JSON document form of a table, the inverse of `form_from_json`."""
    return {
        "generators": list(form.generators),
        "triples": [
            {"d": list(key), "v": rational_str(value)}
            for key, value in sorted(form.table.items())
        ],
    }


def test_json_roundtrip(form):
    doc = form_to_json(form)
    again = form_from_json(json.loads(json.dumps(doc)))
    assert again == form
    assert doc["generators"] == ["S", "F", "K"]


def test_bundled_table_is_the_package_json(form):
    # TABLE above is an independent copy: an edit to the packaged JSON fails here
    assert example_form() == IntersectionForm(("S", "F", "K"), TABLE)
    model = model_from_form(form)
    assert model == example_model()
    assert model.p3 == triple_product(form, dn_expr(), dn_expr(), dn_expr())


def test_json_validation_errors():
    with pytest.raises(ValueError):
        form_from_json({"generators": ["S"], "triples": [{"d": ["S", "S", "S"], "v": "1.5"}]})
    with pytest.raises(ValueError):
        form_from_json({"generators": "S", "triples": []})
    with pytest.raises(UnknownSymbolError):
        form_from_json({"generators": ["S"], "triples": [{"d": ["S", "S", "T"], "v": "1"}]})
    with pytest.raises(ValueError):
        form_from_json(
            {
                "generators": ["S"],
                "triples": [
                    {"d": ["S", "S", "S"], "v": "1"},
                    {"d": ["S", "S", "S"], "v": "2"},
                ],
            }
        )


def test_incomplete_cubic_table_rejected():
    with pytest.raises(ValueError):
        IntersectionForm(("S", "F"), {("S", "S", "S"): F(1), ("F", "F", "F"): F(1)})


def test_value_is_order_independent(form):
    assert form.value("K", "S", "F") == form.value("F", "S", "K") == F(282)
