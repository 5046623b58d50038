"""The contract of the value records: one table over every record class.

Each record is built positionally and by keyword in its constructor's field
order; its defaults, equality, hashing, immutability, `repr` and copies are
checked against that table, and each `repr` is pinned.  `modulus` on the two
q_n reports takes no part in equality, hashing or `repr`.
"""

import copy
import gc
import pickle
import sys
from fractions import Fraction as F

import pytest

from divfilt.asymptotics import CesaroResult, ExampleModel, LimitReport, ScanResult, SigmaStats
from divfilt.beatty import BeattySequence, PartitionReport
from divfilt.intersection import BivariatePolynomial, IntersectionForm
from divfilt.monomial import FiltrationReport, SigmaFiltration
from divfilt.picard import (
    CurvePoint,
    DivisorClass,
    EllipticCurve,
    QnReport,
    RestrictionReport,
    WitnessVerdict,
)
from divfilt.quadfield import QuadExt

ALPHA = QuadExt(F(9, 26), F(1, 26), 3)
HALF = QuadExt(F(1, 2), F(0), 3)
CUBIC = BivariatePolynomial({(3, 0): F(1)})
SQUARE = BivariatePolynomial({(1, 1): F(2)})
Q = CurvePoint(F(3), F(5))
LEVEL = DivisorClass(0, CurvePoint())

# class, its fields in constructor order, a value for each, the defaults,
# another value for one field (the record then differs), whether it hashes
RECORDS = [
    (ExampleModel, ("alpha", "p3", "p2"), (ALPHA, CUBIC, SQUARE),
     {"p2": BivariatePolynomial({})}, ("p2", BivariatePolynomial({})), False),
    (CesaroResult, ("lhs", "rhs", "passed"), (ALPHA, ALPHA, True), {}, ("passed", False), True),
    (SigmaStats, ("count", "min_ratio", "min_at", "max_ratio", "max_at", "last_n", "last_ratio"),
     (2, F(1, 3), 1, F(1, 2), 2, 2, F(1, 2)),
     {"count": 0, "min_ratio": None, "min_at": None, "max_ratio": None, "max_at": None,
      "last_n": None, "last_ratio": None}, ("max_at", 1), False),
    (ScanResult, ("n_max", "stride", "rows", "per_sigma", "max_ratio", "max_ratio_at",
                  "bound_constant", "telescoping_ok", "monotone_from", "checkpoint_max",
                  "remainder_bound"),
     (10, 1, (), {0: SigmaStats(1)}, F(1, 2), 3, 4, True, 1, {}, ALPHA), {}, ("stride", 2), False),
    (LimitReport, ("alpha", "cubic_limit", "multiplicity", "sigma_limits", "reference_sigma_limits",
                   "cesaro_lhs", "cesaro_rhs", "cesaro_pass", "limit_exists", "audit_flags"),
     (ALPHA, HALF, HALF, {0: HALF, 1: ALPHA}, {0: HALF, 1: ALPHA}, HALF, HALF, True, False, ("ok",)),
     {}, ("audit_flags", ()), False),
    (BeattySequence, ("alpha",), (ALPHA,), {}, ("alpha", ALPHA + 1), True),
    (PartitionReport, ("n_max", "sigma1_count", "sigma2_count", "sigma2_density", "histogram",
                       "low_value", "high_value", "max_gap"),
     (3, 1, 2, F(2, 3), (1, 2), 0, 1, {0: 1}),
     {"histogram": (), "low_value": 0, "high_value": 1, "max_gap": {}}, ("histogram", ()), False),
    (BivariatePolynomial, ("terms",), ({(3, 0): F(1)},), {}, ("terms", {(3, 0): F(2)}), False),
    (IntersectionForm, ("generators", "table"), (("S",), {("S", "S", "S"): F(3)}),
     {"table": {}}, ("table", {("S", "S", "S"): F(4)}), False),
    (SigmaFiltration, ("table", "func"), ((1, 2), None), {"table": (), "func": None},
     ("table", (1, 3)), True),
    (FiltrationReport, ("m_max", "n_max", "ok", "failures"), (2, 3, True, ()), {}, ("ok", False), True),
    (CurvePoint, ("x", "y"), (F(3), F(5)), {"x": None, "y": None}, ("y", F(-5)), True),
    (EllipticCurve, ("a", "b", "p"), (F(0), F(-2), None), {"p": None}, ("b", F(-3)), True),
    (DivisorClass, ("degree", "point"), (1, Q), {}, ("degree", 0), True),
    (QnReport, ("coords", "all_distinct", "collisions", "collisions_certified", "avoids_q",
                "q_hits", "modulus"),
     (((3, 1, 5, 1),), True, (), True, True, (1,), None), {"modulus": None},
     ("avoids_q", False), True),
    (WitnessVerdict, ("passed", "bound", "failed_at", "certified_infinite", "bounded_only"),
     (True, 12, None, True, False), {}, ("failed_at", 3), True),
    (RestrictionReport, ("n", "coords", "assembled", "modulus"), (1, (3, 1, 5, 1), LEVEL, None),
     {"modulus": None}, ("n", 2), True),
]

REPRS = {
    "ExampleModel": "ExampleModel(alpha=QuadExt(Fraction(9, 26), Fraction(1, 26), 3), "
    "p3=BivariatePolynomial(terms={(3, 0): Fraction(1, 1)}), "
    "p2=BivariatePolynomial(terms={(1, 1): Fraction(2, 1)}))",
    "CesaroResult": "CesaroResult(lhs=QuadExt(Fraction(9, 26), Fraction(1, 26), 3), "
    "rhs=QuadExt(Fraction(9, 26), Fraction(1, 26), 3), passed=True)",
    "SigmaStats": "SigmaStats(count=2, min_ratio=Fraction(1, 3), min_at=1, max_ratio=Fraction(1, 2), "
    "max_at=2, last_n=2, last_ratio=Fraction(1, 2))",
    "ScanResult": "ScanResult(n_max=10, stride=1, rows=(), per_sigma={0: SigmaStats(count=1, "
    "min_ratio=None, min_at=None, max_ratio=None, max_at=None, last_n=None, last_ratio=None)}, "
    "max_ratio=Fraction(1, 2), max_ratio_at=3, bound_constant=4, telescoping_ok=True, "
    "monotone_from=1, checkpoint_max={}, remainder_bound=QuadExt(Fraction(9, 26), Fraction(1, 26), 3))",
    "LimitReport": "LimitReport(alpha=QuadExt(Fraction(9, 26), Fraction(1, 26), 3), "
    "cubic_limit=QuadExt(Fraction(1, 2), Fraction(0, 1), 3), "
    "multiplicity=QuadExt(Fraction(1, 2), Fraction(0, 1), 3), "
    "sigma_limits={0: QuadExt(Fraction(1, 2), Fraction(0, 1), 3), "
    "1: QuadExt(Fraction(9, 26), Fraction(1, 26), 3)}, "
    "reference_sigma_limits={0: QuadExt(Fraction(1, 2), Fraction(0, 1), 3), "
    "1: QuadExt(Fraction(9, 26), Fraction(1, 26), 3)}, "
    "cesaro_lhs=QuadExt(Fraction(1, 2), Fraction(0, 1), 3), "
    "cesaro_rhs=QuadExt(Fraction(1, 2), Fraction(0, 1), 3), cesaro_pass=True, "
    "limit_exists=False, audit_flags=('ok',))",
    "BeattySequence": "BeattySequence(alpha=QuadExt(Fraction(9, 26), Fraction(1, 26), 3))",
    "PartitionReport": "PartitionReport(n_max=3, sigma1_count=1, sigma2_count=2, "
    "sigma2_density=Fraction(2, 3), histogram=(1, 2), low_value=0, high_value=1, max_gap={0: 1})",
    "BivariatePolynomial": "BivariatePolynomial(terms={(3, 0): Fraction(1, 1)})",
    "IntersectionForm": "IntersectionForm(generators=('S',), table={('S', 'S', 'S'): Fraction(3, 1)})",
    "SigmaFiltration": "SigmaFiltration(table=(1, 2), func=None)",
    "FiltrationReport": "FiltrationReport(m_max=2, n_max=3, ok=True, failures=())",
    "CurvePoint": "CurvePoint(x=Fraction(3, 1), y=Fraction(5, 1))",
    "EllipticCurve": "EllipticCurve(a=Fraction(0, 1), b=Fraction(-2, 1), p=None)",
    "DivisorClass": "DivisorClass(degree=1, point=CurvePoint(x=Fraction(3, 1), y=Fraction(5, 1)))",
    "QnReport": "QnReport(coords=((3, 1, 5, 1),), all_distinct=True, collisions=(), "
    "collisions_certified=True, avoids_q=True, q_hits=(1,))",
    "WitnessVerdict": "WitnessVerdict(passed=True, bound=12, failed_at=None, "
    "certified_infinite=True, bounded_only=False)",
    "RestrictionReport": "RestrictionReport(n=1, coords=(3, 1, 5, 1), assembled=DivisorClass(degree=0, "
    "point=CurvePoint(x=None, y=None)))",
}

IDS = [row[0].__name__ for row in RECORDS]


def test_the_table_covers_every_record_class():
    assert len(RECORDS) == 17 and set(IDS) == set(REPRS)


@pytest.mark.parametrize("cls, names, values, defaults, other, hashable", RECORDS, ids=IDS)
def test_construction_in_field_order(cls, names, values, defaults, other, hashable):
    record = cls(*values)
    assert [getattr(record, name) for name in names] == list(values)
    assert cls(**dict(zip(names, values))) == record
    assert cls(*values[:1], **dict(zip(names[1:], values[1:]))) == record
    with pytest.raises(TypeError):
        cls(*values, None)
    if len(defaults) < len(names):
        with pytest.raises(TypeError):
            cls()
    with pytest.raises(TypeError):
        cls(*values, not_a_field=1)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})


@pytest.mark.parametrize("cls, names, values, defaults, other, hashable", RECORDS, ids=IDS)
def test_defaults(cls, names, values, defaults, other, hashable):
    required = [v for name, v in zip(names, values) if name not in defaults]
    if cls is SigmaFiltration:  # one of table or func must be given
        required, defaults = [(1,)], {k: v for k, v in defaults.items() if k != "table"}
    first, second = cls(*required), cls(*required)
    for name, default in defaults.items():
        assert getattr(first, name) == default
        if isinstance(default, dict):  # a fresh dict for each record
            assert getattr(first, name) is not getattr(second, name)


@pytest.mark.parametrize("cls, names, values, defaults, other, hashable", RECORDS, ids=IDS)
def test_equality_and_hashing(cls, names, values, defaults, other, hashable):
    record, twin = cls(*values), cls(*values)
    changed = cls(**{**dict(zip(names, values)), other[0]: other[1]})
    assert record == twin and not record != twin
    assert record != changed and not record == changed
    assert record != values and record != None  # noqa: E711
    if hashable:
        assert hash(record) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(record)


@pytest.mark.parametrize("cls, names, values, defaults, other, hashable", RECORDS, ids=IDS)
def test_frozen_records_refuse_assignment_and_deletion(cls, names, values, defaults, other, hashable):
    record = cls(*values)
    if cls is SigmaStats:  # the scan fills it in place
        record.count = 5
        del record.last_n
        assert record.count == 5 and record.last_n is None
        return
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, other[1])
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(*values)


@pytest.mark.parametrize("cls, names, values, defaults, other, hashable", RECORDS, ids=IDS)
def test_repr_is_pinned(cls, names, values, defaults, other, hashable):
    assert repr(cls(*values)) == REPRS[cls.__name__]


@pytest.mark.parametrize("cls, names, values, defaults, other, hashable", RECORDS, ids=IDS)
def test_copies_and_pickles_compare_equal(cls, names, values, defaults, other, hashable):
    record = cls(*values)
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record and repr(twin) == repr(record)


# Writing a field through the instance dict makes CPython keep that dict, which
# slows every later read of the record.  CPython 3.11 and 3.12 show the dict
# among an instance's referents only once it exists; 3.10 always shows it and
# 3.13 never does.
@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] not in ((3, 11), (3, 12)),
    reason="needs CPython 3.11 or 3.12",
)
@pytest.mark.parametrize("cls, names, values, defaults, other, hashable", RECORDS, ids=IDS)
def test_fields_leave_no_instance_dict(cls, names, values, defaults, other, hashable):
    record = cls(*values)
    dicts = [id(ref) for ref in gc.get_referents(record) if type(ref) is dict]
    fields = [id(getattr(record, name)) for name in names if type(getattr(record, name)) is dict]
    assert sorted(dicts) == sorted(fields)


@pytest.mark.parametrize("cls", [QnReport, RestrictionReport])
def test_modulus_takes_no_part_in_equality_hashing_or_repr(cls):
    values = next(dict(zip(row[1], row[2])) for row in RECORDS if row[0] is cls)
    over_q, over_fp = cls(**values), cls(**{**values, "modulus": 7})
    assert over_fp.modulus == 7 and over_q.modulus is None
    assert over_q == over_fp and hash(over_q) == hash(over_fp)
    assert repr(over_q) == repr(over_fp) and "modulus" not in repr(over_fp)
