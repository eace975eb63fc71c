"""The package's immutable value types behave as values.

For each of the eight types: equal fields give equal objects with
equal hashes, an object of another class with the same fields is not
equal, construction works by position and by keyword, fields cannot be
assigned or deleted, and the ``repr`` names the fields.  The
validating constructors keep their error messages.
"""
import copy
import pickle
from fractions import Fraction

import pytest

from origami_census.involutions import InvolutionReport
from origami_census.limits import ReferenceRow, SweepReport, SweepRow
from origami_census.orbits import ComponentSummary
from origami_census.perm import Perm
from origami_census.surface import (
    Origami,
    StratumSignature,
    TrivialStratumError,
)

P = Perm((1, 0, 2))
ROW = SweepRow(4, "all", 9, Fraction(10), Fraction(10))

# type -> (positional fields, keyword fields of the same object, repr).
CASES = {
    Perm: ((P.word,), {"word": (1, 0, 2)}, "Perm('(1,2)(3)')"),
    StratumSignature: (((4,),), {"mu": (4,)}, "StratumSignature(mu=(4,))"),
    Origami: (
        (bytes((1, 2, 0, 0, 2, 1)), StratumSignature((2,))),
        {"words": bytes((1, 2, 0, 0, 2, 1)),
         "stratum": StratumSignature((2,))},
        "Origami(words=b'\\x01\\x02\\x00\\x00\\x02\\x01', "
        "stratum=StratumSignature(mu=(2,)))",
    ),
    InvolutionReport: (
        (P.word, 1, 2, 3, 4, 5),
        {"tau": P.word, "square_centers": 1, "vertical_edges": 2,
         "horizontal_edges": 3, "regular_vertices": 4, "fixed_zeros": 5},
        "InvolutionReport(tau=b'\\x01\\x00\\x02', square_centers=1, "
        "vertical_edges=2, horizontal_edges=3, regular_vertices=4, "
        "fixed_zeros=5)",
    ),
    ComponentSummary: (
        (1, (b"ab",), 1, Fraction(1, 2), Fraction(10), True, None,
         ((1, (2,)),)),
        {"component_id": 1, "member_keys": (b"ab",), "n_classes": 1,
         "total_weight": Fraction(1, 2), "slope": Fraction(10),
         "hyperelliptic": True, "parity": None, "cusps": ((1, (2,)),)},
        "ComponentSummary(component_id=1, member_keys=(b'ab',), "
        "n_classes=1, total_weight=Fraction(1, 2), slope=Fraction(10, 1), "
        "hyperelliptic=True, parity=None, cusps=((1, (2,)),))",
    ),
    ReferenceRow: (
        (3, (4,), "hyp", Fraction(28, 3)),
        {"genus": 3, "mu": (4,), "label": "hyp", "slope": Fraction(28, 3)},
        "ReferenceRow(genus=3, mu=(4,), label='hyp', "
        "slope=Fraction(28, 3))",
    ),
    SweepRow: (
        (4, "all", 9, Fraction(10), Fraction(10)),
        {"degree": 4, "label": "all", "n_classes": 9,
         "total_weight": Fraction(10), "slope": Fraction(10)},
        "SweepRow(degree=4, label='all', n_classes=9, "
        "total_weight=Fraction(10, 1), slope=Fraction(10, 1))",
    ),
    SweepReport: (
        ((ROW,), 5),
        {"rows": (ROW,), "truncated_at": 5},
        "SweepReport(rows=(SweepRow(degree=4, label='all', n_classes=9, "
        "total_weight=Fraction(10, 1), slope=Fraction(10, 1)),), "
        "truncated_at=5)",
    ),
}
TYPES = sorted(CASES, key=lambda t: t.__name__)


def field_names(cls) -> list[str]:
    return list(CASES[cls][1])


@pytest.mark.parametrize("cls", TYPES, ids=lambda t: t.__name__)
def test_equal_fields_give_equal_values_and_hashes(cls):
    args, kwargs, _ = CASES[cls]
    a, b = cls(*args), cls(**kwargs)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    # The hash is the hash of the fields in order, so a set of values
    # iterates in the same order whatever type holds them.
    assert hash(a) == hash(tuple(args))
    assert {a, b} == {a}
    assert [getattr(a, name) for name in field_names(cls)] == list(args)


@pytest.mark.parametrize("cls", TYPES, ids=lambda t: t.__name__)
def test_another_class_with_the_same_fields_is_unequal(cls):
    args, _, _ = CASES[cls]
    twin = type("Twin", (cls,), {})
    assert cls(*args) != twin(*args)
    assert twin(*args) != cls(*args)
    assert cls(*args) != tuple(args) and cls(*args) != args[0]


@pytest.mark.parametrize("cls", TYPES, ids=lambda t: t.__name__)
def test_different_fields_are_unequal(cls):
    args, _, _ = CASES[cls]
    other = {
        Perm: ((0, 1, 2),),
        StratumSignature: ((2,),),
        Origami: (bytes((0, 2, 1, 0, 2, 1)), *args[1:]),
        InvolutionReport: (P.word, 1, 2, 3, 4, 6),
        ComponentSummary: (2, *args[1:]),
        ReferenceRow: (3, (4,), "odd", Fraction(28, 3)),
        SweepRow: (5, *args[1:]),
        SweepReport: ((ROW,), None),
    }[cls]
    assert cls(*args) != cls(*other)


@pytest.mark.parametrize("cls", TYPES, ids=lambda t: t.__name__)
def test_repr_names_the_fields(cls):
    args, _, text = CASES[cls]
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls", TYPES, ids=lambda t: t.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    args, _, _ = CASES[cls]
    value = cls(*args)
    for name in field_names(cls):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, args[0])
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == cls(*args)


@pytest.mark.parametrize("cls", TYPES, ids=lambda t: t.__name__)
def test_copies_and_pickles_are_equal(cls):
    args, _, _ = CASES[cls]
    value = cls(*args)
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_sweep_report_truncated_at_defaults_to_none():
    assert SweepReport((ROW,)).truncated_at is None
    assert SweepReport(rows=(ROW,)) == SweepReport((ROW,), None)


def test_component_summary_by_keyword():
    args, kwargs, _ = CASES[ComponentSummary]
    c = ComponentSummary(**kwargs)
    assert c.component_id == 1 and c.cusp_count == 1
    assert c == ComponentSummary(*args)


@pytest.mark.parametrize("cls,args", [
    (Perm, ()),
    (InvolutionReport, (P, 1, 2, 3, 4)),
    (StratumSignature, ()),
    (Origami, (bytes((1, 2, 0, 0, 2, 1)),)),
    (SweepReport, ()),
    (SweepRow, (4, "all", 9, Fraction(10))),
])
def test_missing_fields_raise_type_error(cls, args):
    with pytest.raises(TypeError):
        cls(*args)


@pytest.mark.parametrize("word,message", [
    ((0, 0), "not a permutation word: (0, 0)"),
    ((1, 2), "not a permutation word: (1, 2)"),
    # A letter must be an int: a float one compared equal to it.
    ((1.0, 0.0), "not a permutation word: (1.0, 0.0)"),
    (("1", "0"), "not a permutation word: ('1', '0')"),
    (range(256), "degree 256 is over 255: words hold one byte per letter"),
    (range(300), "degree 300 is over 255: words hold one byte per letter"),
])
def test_perm_validation_messages(word, message):
    with pytest.raises(ValueError) as exc:
        Perm(word)
    assert str(exc.value) == message


@pytest.mark.parametrize("mu,error,message", [
    ((), TrivialStratumError, "empty zero profile (genus 1)"),
    ((2.0,), ValueError, "zero orders must be integers: (2.0,)"),
    ((2, 0), ValueError, "zero orders must be positive: (2, 0)"),
    ((1, 3), ValueError, "mu must be descending: (1, 3)"),
    ((3,), ValueError, "sum of mu must be even: (3,)"),
])
def test_stratum_signature_validation_messages(mu, error, message):
    with pytest.raises(error) as exc:
        StratumSignature(mu)
    assert type(exc.value) is error
    assert str(exc.value) == message
