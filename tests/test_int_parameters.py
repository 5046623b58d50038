"""Count, index and exponent parameters take an `int` and nothing else:
`True` is an `int` subclass, but a report that echoes `"n_max": true` or
keys a checkpoint as `"True"` is malformed, so `bool` is rejected as a
float would be."""

import pytest

from divfilt import beatty, monomial, picard
from divfilt.asymptotics import empirical_scan, example_alpha, example_model, model_length
from divfilt.intersection import BivariatePolynomial
from divfilt.quadfield import QuadExt, decimal_column

ALPHA = example_alpha()
MODEL = example_model()
SEQ = beatty.BeattySequence(ALPHA)
SIGMA = monomial.SigmaFiltration.from_json([1, 2, 3])
E, P, Q = picard.default_curve()

CALLS = {
    "model_length": lambda: model_length(MODEL, True),
    "scan-n_max": lambda: empirical_scan(MODEL, True),
    "scan-stride": lambda: empirical_scan(MODEL, 100, True),
    "scan-checkpoint": lambda: empirical_scan(MODEL, 100, 1, (True,)),
    "beatty-sigma": lambda: SEQ.sigma(True),
    "beatty-partition": lambda: beatty.partition(SEQ, True),
    "beatty-histogram": lambda: beatty.equidistribution_histogram(SEQ, 10, True),
    "poly-exponent": lambda: BivariatePolynomial({(True, 0): 1}),
    "poly-evaluate_at_n": lambda: MODEL.p3.evaluate_at_n(ALPHA, True),
    "sigma-filtration": lambda: SIGMA.sigma(True),
    "build_In": lambda: monomial.build_In(SIGMA, True),
    "curve-mul": lambda: E.mul(True, Q),
    "qn_sequence": lambda: picard.qn_sequence(E, P, Q, True),
    "witness-bound": lambda: picard.infinite_order_witness(E, Q, True),
    "restriction_report": lambda: picard.restriction_report(E, P, Q, True),
    "restriction_replay": lambda: picard.restriction_replay(E, P, Q, True, []),
    "decimal_column": lambda: decimal_column(True),
    "quad-radicand": lambda: QuadExt(1, 1, True),
    "quad-power": lambda: ALPHA**True,
    "floor_scaled": lambda: ALPHA.floor_scaled(True),
    "ceil_scaled": lambda: ALPHA.ceil_scaled(True),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_bool_is_not_an_int_parameter(name):
    with pytest.raises((TypeError, ValueError)):
        CALLS[name]()
