"""The package's records: named tuples whose checks hold on every path in.

A record with field checks runs them in ``__new__``, so ``_replace`` (through
``_make``) and unpickling run them too.  Records are immutable, travel
through ``pickle`` (density's worker pool pickles results), and compare
equal to the tuple of their fields.  ``PcfCensus`` is the one mutable record.
"""

import pickle

import pytest

from critorbit import (
    CertificateEntry,
    DivisibilitySpec,
    Factorization,
    MaximalityCertificate,
    PcfCensus,
    PeriodType,
    PrimePowerConstraint,
    RationalParam,
    Residue,
    density_report,
    enumerate_pcf,
    hensel_lift,
)

CONSTRAINT = PrimePowerConstraint(n=2, k=1, p=5)

# (a valid record, fields that break it, the message of the refusal)
CHECKED = [
    (Residue(5, 1, 2), {"p": 4, "value": 0}, "4 is not prime"),
    (Residue(5, 1, 2), {"t": 0}, "exponent t must be >= 1"),
    (Residue(5, 1, 2), {"value": 5}, r"value out of range \[0, p\^t\)"),
    (Factorization(((2, 1), (3, 2)), 1, True), {"complete": False},
     "complete flag inconsistent with cofactor"),
    (Factorization(((2, 1), (3, 2)), 1, True), {"factors": ((3, 1), (2, 1))},
     "factor primes must be strictly increasing"),
    (Factorization(((2, 1), (3, 2)), 1, True), {"factors": ((4, 1),)},
     "every listed factor must be prime"),
    (Factorization(((2, 1), (3, 2)), 1, True), {"factors": ((2, 0),)},
     "factor exponents must be positive"),
    (MaximalityCertificate(2, 5, 0, (), (), None), {"d": 1}, "degree must be >= 2"),
    (CONSTRAINT, {"k": 0}, "need n >= 1 and k >= 1"),
    (CONSTRAINT, {"p": 9}, "9 is not prime"),
    (DivisibilitySpec(2, (CONSTRAINT,)), {"d": 1}, "degree must be >= 2"),
    (DivisibilitySpec(2, (CONSTRAINT,)), {"constraints": ()},
     "spec needs at least one constraint"),
    (DivisibilitySpec(2, (CONSTRAINT,)), {"constraints": (CONSTRAINT, CONSTRAINT)},
     "pinned primes must be pairwise distinct"),
    (DivisibilitySpec(2, (CONSTRAINT,)), {"excluded_primes": frozenset({5})},
     "a pinned prime appears in the excluded set"),
    (PeriodType(0, 3), {"tail": -1}, r"need tail >= 0 and period >= 1"),
    (PeriodType(0, 3), {"period": 0}, r"need tail >= 0 and period >= 1"),
    (RationalParam(3, 4), {"b": 0}, "denominator must be positive"),
    (RationalParam(3, 4), {"a": 2}, "a/b must be in lowest terms"),
]


@pytest.mark.parametrize("record,bad,message", CHECKED,
                         ids=[f"{type(r).__name__}-{'-'.join(b)}" for r, b, _ in CHECKED])
def test_a_bad_field_is_refused_by_the_constructor_and_by_replace(record, bad, message):
    fields = {**record._asdict(), **bad}
    with pytest.raises(ValueError, match=f"^{message}$"):
        type(record)(**fields)
    with pytest.raises(ValueError, match=f"^{message}$"):
        record._replace(**bad)
    with pytest.raises(ValueError, match=f"^{message}$"):
        type(record)._make(fields.values())


@pytest.mark.parametrize("record", dict.fromkeys(r for r, _, _ in CHECKED),
                         ids=lambda r: type(r).__name__)
def test_replace_keeps_the_type_and_the_other_fields(record):
    copy = record._replace()
    assert type(copy) is type(record)
    assert copy == record == tuple(record)


def test_an_int_times_a_residue_is_no_tuple_repetition():
    r = Residue(5, 1, 2)
    with pytest.raises(TypeError):
        2 * r
    with pytest.raises(AttributeError):  # Residue * int reads other.p
        r * 2
    assert r * Residue(5, 1, 3) == Residue(5, 1, 1)


def test_fields_cannot_be_set():
    records = [Residue(5, 1, 2), PeriodType(0, 3), RationalParam(3, 4), CONSTRAINT,
               CertificateEntry(2, 5, 1, True, True, True),
               hensel_lift(2, 3, 5, 1, 3), density_report(2, 3, 50)]
    for record in records:
        with pytest.raises(AttributeError):
            record.__setattr__(record._fields[0], 0)
        with pytest.raises(AttributeError):
            record.extra = 0  # no instance dict either


@pytest.mark.parametrize("record", [
    Residue(5, 2, 7), PeriodType(1, 2), hensel_lift(2, 3, 5, 1, 3),
], ids=["Residue", "PeriodType", "LiftResult"])
def test_records_survive_pickle(record):
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record)
    assert back == record


def test_censuses_compare_by_their_rows_not_their_verdicts():
    census = enumerate_pcf(3, 5)  # x^3 + c permutes F_5, so walks carry verdicts
    assert census._simple_roots
    twin = PcfCensus(3, 5)
    twin.periodic.update(census.periodic)
    twin.preperiodic.update(census.preperiodic)
    assert twin == census and not twin != census
    twin.periodic.popitem()
    assert twin != census
    assert PcfCensus(3, 5) != PcfCensus(3, 7)
    assert PcfCensus(3, 5) != (3, 5, {}, {})
    with pytest.raises(TypeError):
        hash(census)
