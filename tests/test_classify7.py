"""Classification of the (1,2,2,2,1,1,1) complete intersections."""

from fractions import Fraction

import pytest

import artinlocal.classify7 as classify7
from artinlocal.classify7 import (
    TARGET_HF,
    classify,
    classify_ideal,
    contains_split_quadric,
    invariant_separates,
    make_model,
)
from artinlocal.errors import WrongHilbertFunction
from artinlocal.polynomials import parse_poly, random_invertible_map
from artinlocal.quotient import IdealPresentation, build_quotient
from artinlocal.scalars import QQ, Scalar, adjoin_sqrt

CASES = ["case1", "case2a", "case2b1", "case2b2"]


def model_pres(case, p=None):
    return make_model(case, p=p)


def test_models_have_target_invariants():
    for case in CASES:
        p = Fraction(3) if case == "case2b2" else None
        A = build_quotient(model_pres(case, p))
        assert A.hf == TARGET_HF
        assert A.length == sum(TARGET_HF)
        assert A.cm_type == 1


def test_unit_a_gives_case1():
    for text in ("1", "2 + x1", "1 + x1*x2", "-3 + x2^2"):
        assert classify(parse_poly(text, 2, QQ)).case == "case1"


def test_a_in_square_gives_case2a():
    for text in ("0", "x1^2", "x1*x2", "x2^3"):
        r = classify(parse_poly(text, 2, QQ), allow_extension=True)
        assert r.case == "case2a"


def test_case2b1_over_gaussian_extension():
    Qi = adjoin_sqrt(QQ, Scalar(QQ, QQ.rfrom(-1)))
    i = Qi.coerce(Scalar(QQ, QQ.rfrom(-1))).sqrt()
    a = parse_poly("x1", 2, Qi).scale(i + i)
    assert classify(a, field=Qi, allow_extension=True).case == "case2b1"


def test_case2b2_recovers_p_squared():
    r = classify(parse_poly("3*x1", 2, QQ), allow_extension=True)
    assert r.case == "case2b2"
    assert (r.p_squared - r.field.coerce(
        Scalar(QQ, QQ.rfrom(Fraction(9, 13))))).is_zero()


def test_nonlinear_a_same_invariant(monkeypatch):
    """Both square roots of case2b2 are adjoined on scalars before the
    algebra is extended, so one extend_scalars call changes the field."""
    original = classify7.extend_scalars
    changes = []

    def counting(A, field):
        changes.append(field != A.field)
        return original(A, field)

    monkeypatch.setattr(classify7, "extend_scalars", counting)
    r = classify(parse_poly("3*x1 + x2 - x1*x2", 2, QQ), allow_extension=True)
    assert r.case == "case2b2"
    assert (r.p_squared - r.field.coerce(
        Scalar(QQ, QQ.rfrom(Fraction(9, 13))))).is_zero()
    assert changes == [True]
    assert (repr(r.p), repr(r.field)) == (
        "(3/13*sqrt(13))", "QQ[sqrt(13)][sqrt((-26*sqrt(13)))]")


def test_classify_ideal_round_trip():
    for case in CASES:
        p = Fraction(3) if case == "case2b2" else None
        model = model_pres(case, p)
        phi = random_invertible_map(2, QQ, 9, 17)
        moved = IdealPresentation([phi.apply(g) for g in model.gens])
        r = classify_ideal(moved, allow_extension=True)
        assert r.case == case


def test_classify_ideal_rejects_wrong_hf():
    pres = IdealPresentation([parse_poly(t, 2, QQ)
                              for t in ("x1^2", "x2^2")])
    with pytest.raises(WrongHilbertFunction):
        classify_ideal(pres)


def test_invariant_separates():
    assert invariant_separates(Fraction(3), Fraction(2))
    assert not invariant_separates(Fraction(2), Fraction(-2))


def test_split_quadric_isolates_case1():
    flags = {}
    for case in CASES:
        p = Fraction(3) if case == "case2b2" else None
        flags[case] = contains_split_quadric(model_pres(case, p))
    assert flags == {"case1": True, "case2a": False,
                     "case2b1": False, "case2b2": False}
