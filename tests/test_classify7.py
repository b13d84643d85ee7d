"""Classification of the (1,2,2,2,1,1,1) complete intersections, and the
split-quadric test of case 1 against the lifting oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import artinlocal.classify7 as classify7
from artinlocal.classify7 import (
    TARGET_HF,
    classify,
    classify_ideal,
    contains_split_quadric,
    invariant_separates,
    make_model,
)
from artinlocal.errors import FieldExtensionRequired, WrongHilbertFunction
from artinlocal.polynomials import (
    Polynomial,
    monomials_of_degree,
    parse_poly,
    random_invertible_map,
)
from artinlocal.quotient import IdealPresentation, build_quotient
from artinlocal.scalars import QQ, Scalar, adjoin_sqrt

from echelon_oracles import oracle_contains_split_quadric

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


def moved(pres, seed):
    """The ideal carried by random_invertible_map(2, field, s + 2, seed)."""
    s = build_quotient(pres).socle_degree
    phi = random_invertible_map(2, pres.field, s + 2, seed)
    return IdealPresentation([im for im in (phi.apply(g) for g in pres.gens)
                              if not im.is_zero()], 2, pres.field)


SQRT2 = adjoin_sqrt(QQ, 2)


def split_quadric_models():
    """The four models (case2b2 with p = 3, 2 and 1/2), unmoved and moved
    by three random_invertible_maps."""
    out = []
    for case, p in (("case1", None), ("case2a", None), ("case2b1", None),
                    ("case2b2", 3), ("case2b2", 2), ("case2b2", Fraction(1, 2))):
        model = model_pres(case, p)
        out += [(f"{case} p={p}", model)]
        out += [(f"{case} p={p} moved #{seed}", moved(model, seed)) for seed in (1, 2, 3)]
    return out


@pytest.mark.parametrize("pres", [pytest.param(pres, id=label)
                                  for label, pres in split_quadric_models()])
def test_split_quadric_matches_the_lifting_oracle_on_models(pres):
    assert contains_split_quadric(pres) == oracle_contains_split_quadric(pres)


def random_binary_ideal(rng, field):
    """x1^a, x2^b (a, b in 2..4) plus one or two random forms of degree 2
    and 3, whose coefficients over QQ(sqrt 2) take sqrt 2 half the time."""
    gens = [parse_poly(f"x{i + 1}^{rng.randint(2, 4)}", 2, field) for i in range(2)]
    monos = [m for d in (2, 3) for m in monomials_of_degree(2, d)]
    for _ in range(rng.randint(1, 2)):
        terms = {}
        for m in rng.sample(monos, rng.randint(1, 3)):
            c = field.rfrom(rng.randint(-3, 3))
            if field is not QQ and rng.random() < 0.5:
                c = field.radd(c, field.rmul(field.rfrom(rng.randint(-2, 2)), field.sqrt_theta))
            if not field.riszero(c):
                terms[m] = c
        if terms:
            gens.append(Polynomial(2, field, terms))
    return IdealPresentation(gens, 2, field)


@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from([QQ, SQRT2]),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_split_quadric_matches_the_lifting_oracle_on_generated_ideals(seed, field, move):
    pres = random_binary_ideal(random.Random(seed), field)
    if move:
        pres = moved(pres, seed)
    assert contains_split_quadric(pres) == oracle_contains_split_quadric(pres)


@pytest.mark.parametrize("gens", [["x1^2", "x1*x2", "x2^3"], ["x1^2", "x1*x2", "x2^2"],
                                  ["x1^2", "x2^2"]])
def test_split_quadric_is_found_when_i2_has_dimension_at_least_2(gens):
    """A plane of binary quadrics holds one with nonzero discriminant, even
    when both its echelon rows have discriminant 0 (x1^2, x2^2)."""
    pres = IdealPresentation.from_strings(gens, 2)
    assert build_quotient(pres).hf[2:3] in ((), (1,))
    assert contains_split_quadric(pres)
    assert oracle_contains_split_quadric(pres)


def test_split_quadric_needs_two_variables():
    """x1*x2 + x3^3 has initial form x1*x2 and is irreducible, so the
    tangent cone does not decide in three variables."""
    pres = IdealPresentation.from_strings(
        ["x1*x2", "x3^2", "x1^3", "x2^3", "x1*x3", "x2*x3"], 3)
    with pytest.raises(ValueError):
        contains_split_quadric(pres)


def test_split_quadric_needs_no_root_past_the_depth_cap():
    """The discriminant 20 of x1^2 - 5*x2^2 is no square in QQ(sqrt 2)(sqrt 3),
    a tower at the depth cap: the answer holds over its square root, which
    the lifting oracle cannot adjoin."""
    F = adjoin_sqrt(SQRT2, 3)
    pres = moved(IdealPresentation.from_strings(["x1^2 - 5*x2^2", "x2^6"], 2, F), 0)
    assert contains_split_quadric(pres)
    with pytest.raises(FieldExtensionRequired):
        oracle_contains_split_quadric(pres)
