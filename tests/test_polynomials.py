"""Multivariate polynomial arithmetic, parsing, and ring maps."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from artinlocal.errors import ParseError
from artinlocal.polynomials import (
    Polynomial,
    RingMap,
    _sprinkle,
    lex_monomials,
    monomials_of_degree,
    parse_poly,
    poly_to_str,
    random_invertible_map,
)
from artinlocal.scalars import QQ, Scalar, adjoin_sqrt

SQRT2 = adjoin_sqrt(QQ, Scalar(QQ, QQ.rfrom(2)))


def poly_strategy(nvars=2, max_deg=3):
    monos = [m for d in range(max_deg + 1) for m in monomials_of_degree(nvars, d)]
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    return st.dictionaries(st.sampled_from(monos), coeff, max_size=5).map(
        lambda d: Polynomial(
            nvars, QQ, {m: QQ.rfrom(c) for m, c in d.items() if c != 0}
        )
    )


@given(poly_strategy(), poly_strategy(), poly_strategy())
@settings(max_examples=50)
def test_mul_distributes_over_add(p, r, w):
    left = p * (r + w)
    right = p * r + p * w
    assert (left - right).is_zero()


@given(poly_strategy(), poly_strategy())
@settings(max_examples=50)
def test_mul_commutes(p, r):
    assert (p * r - r * p).is_zero()


@given(poly_strategy(), poly_strategy())
@settings(max_examples=50)
def test_mul_trunc_agrees_with_truncated_mul(p, r):
    for D in (2, 4):
        assert (p.mul_trunc(r, D) - (p * r).truncate(D)).is_zero()


@given(poly_strategy())
@settings(max_examples=50)
def test_parser_round_trips_printer(p):
    text = poly_to_str(p)
    assert (parse_poly(text, 2, QQ) - p).is_zero()


def test_parse_basic_forms():
    p = parse_poly("x1^2 - 3/2*x2 + 1", 2, QQ)
    assert p.coeff((2, 0)) == QQ.rone
    assert p.coeff((0, 1)) == QQ.rfrom(Fraction(-3, 2))
    assert p.coeff((0, 0)) == QQ.rone


def test_parse_rejects_garbage():
    for bad in ("x1 +", "x3", "2 ** x1", "(x1", "x1^"):
        with pytest.raises(ParseError):
            parse_poly(bad, 2, QQ)


def test_order_and_degree():
    p = parse_poly("x1^2*x2 + x1^5", 2, QQ)
    assert p.order() == 3
    assert p.degree() == 5


def test_substitute_composes():
    p = parse_poly("x1*x2 + x2^3", 2, QQ)
    x1 = parse_poly("x1 + x2", 2, QQ)
    x2 = parse_poly("x2", 2, QQ)
    out = p.substitute([x1, x2], 10)
    want = parse_poly("x1*x2 + x2^2 + x2^3", 2, QQ)
    assert (out - want).is_zero()


def test_then_composes_maps_over_nested_fields():
    """A QQ map after a QQ(sqrt 2) map composes over QQ(sqrt 2) as it is,
    giving the composition of the lifted maps."""
    r2 = SQRT2.scalar(SQRT2.sqrt_theta)
    first = RingMap([parse_poly("x1 + x2^2", 2, SQRT2).scale(r2),
                     parse_poly("x2 - x1*x2", 2, SQRT2)], 6)
    second = random_invertible_map(2, QQ, 5, 3)
    got = first.then(second)
    want = first.then(second.map_field(SQRT2))
    assert got.field == SQRT2 and got.D == want.D == 5
    assert got.images == want.images


@given(st.integers(min_value=0, max_value=200))
def test_random_map_is_invertible(seed):
    phi = random_invertible_map(2, QQ, 5, seed)
    assert phi.is_invertible()


def test_monomials_of_degree_counts():
    assert len(list(monomials_of_degree(3, 4))) == 15
    assert list(monomials_of_degree(2, 0)) == [(0, 0)]


def test_lex_monomials_are_the_sorted_monomials_descending():
    for n in range(6):
        for d in range(9):
            assert list(lex_monomials(n, d)) == sorted(monomials_of_degree(n, d), reverse=True)


def single_terms(field):
    """A single term c*m in 1..3 variables, c a nonzero value of the field."""
    rational = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    if field is QQ:
        coeff = rational.filter(bool).map(QQ.rfrom)
    else:
        coeff = st.tuples(rational, rational).filter(any).map(
            lambda ab: field.radd(field.rfrom(ab[0]),
                                  field.rmul(field.rfrom(ab[1]), field.sqrt_theta)))
    return st.integers(1, 3).flatmap(lambda n: st.builds(
        lambda m, c: Polynomial(n, field, {m: c}),
        st.tuples(*[st.integers(0, 3)] * n), coeff))


@pytest.mark.parametrize("field", [QQ, SQRT2], ids=["QQ", "QQ(sqrt2)"])
@given(data=st.data())
@settings(max_examples=40)
def test_single_term_power_equals_repeated_multiplication(field, data):
    p = data.draw(single_terms(field))
    for n in range(8):
        want = Polynomial.constant(1, p.nvars, field)
        for _ in range(n):
            want = want.mul_trunc(p, None)
        assert (p ** n).terms == want.terms


def test_negative_exponent_raises():
    for p in (parse_poly("x1", 2, QQ), parse_poly("x1 + x2", 2, QQ)):
        with pytest.raises(ValueError):
            p ** -1


def test_sprinkle_decides_as_random_does():
    """The integer test of random_invertible_map makes the decision that
    random() < 0.35 makes, and leaves the generator in the same state, on
    200 seeds of 500 draws each, interleaved with other draws."""
    decisions = 0
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(500):
            got = _sprinkle(ours)
            assert got == (theirs.random() < 0.35)
            decisions += got
            assert ours.randint(-2, 2) == theirs.randint(-2, 2)
        assert ours.getstate() == theirs.getstate()
    assert 0.3 < decisions / 100000 < 0.4
