"""Count, index and exponent parameters take an `int` and nothing else:
`True` is an `int` subclass, but a report that echoes `"n_max": true` or
keys a checkpoint as `"True"` is malformed, so `bool` is rejected as a
float would be.  The refusal is a `ParameterError`, which the CLI maps to
exit 2; only an operator that cannot take the operand is a TypeError."""

import pytest

from divfilt import beatty, monomial, picard
from divfilt.asymptotics import empirical_scan, example_alpha, example_model, model_length
from divfilt.intersection import BivariatePolynomial
from divfilt.quadfield import ParameterError, QuadExt, decimal_column

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
    "sigma-filtration": lambda: SIGMA.sigma(True),
    "build_In": lambda: monomial.build_In(SIGMA, True),
    "filtration_check-m_max": lambda: monomial.filtration_check(SIGMA, True, 1),
    "filtration_check-n_max": lambda: monomial.filtration_check(SIGMA, 1, True),
    "curve-mul": lambda: E.mul(True, Q),
    "qn_sequence": lambda: picard.qn_sequence(E, P, Q, True),
    "restriction_report": lambda: picard.restriction_report(E, P, Q, True),
    "restriction_replay": lambda: picard.restriction_replay(E, P, Q, True, []),
    "decimal_column": lambda: decimal_column(True),
    "quad-radicand": lambda: QuadExt(1, 1, True),
    "quad-a": lambda: QuadExt(True, 0, 3),
    "quad-b": lambda: QuadExt(0, True, 3),
    "quad-power": lambda: ALPHA**True,
    "floor_scaled": lambda: ALPHA.floor_scaled(True),
    "ceil_scaled": lambda: ALPHA.ceil_scaled(True),
}


TYPE_ERRORS = {"curve-mul", "quad-power"}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_bool_is_not_an_int_parameter(name):
    with pytest.raises(TypeError if name in TYPE_ERRORS else ParameterError):
        CALLS[name]()


@pytest.mark.parametrize("m_max,n_max,name", [(0, 1, "m_max"), (1, -1, "n_max")])
def test_filtration_check_refuses_an_empty_range(m_max, n_max, name):
    # an empty range of pairs would otherwise report ok over zero pairs
    with pytest.raises(ParameterError, match=f"^{name} must be an integer >= 1"):
        monomial.filtration_check(SIGMA, m_max, n_max)
