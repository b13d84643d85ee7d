"""Field tower arithmetic: rationals and iterated quadratic extensions."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from artinlocal.errors import FieldExtensionRequired
from artinlocal.scalars import QQ, Scalar, adjoin_sqrt, common_field

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


def q(x) -> Scalar:
    return Scalar(QQ, QQ.rfrom(Fraction(x)))


@given(rationals, rationals, rationals)
def test_rational_ring_axioms(a, b, c):
    sa, sb, sc = q(a), q(b), q(c)
    assert ((sa + sb) * sc - (sa * sc + sb * sc)).is_zero()
    assert (sa * sb - sb * sa).is_zero()
    assert (sa + (sb + sc) - ((sa + sb) + sc)).is_zero()


@given(rationals)
def test_rational_inverse(a):
    sa = q(a)
    if sa.is_zero():
        with pytest.raises(ZeroDivisionError):
            sa.inverse()
    else:
        assert (sa * sa.inverse() - q(1)).is_zero()


def test_sqrt_of_square_stays_rational():
    assert (q(Fraction(9, 4)).sqrt() - q(Fraction(3, 2))).is_zero()


def test_adjoined_sqrt_squares_back():
    F = adjoin_sqrt(QQ, q(2))
    r2 = F.coerce(q(2)).sqrt()
    assert (r2 * r2 - F.coerce(q(2))).is_zero()


def test_tower_of_two_extensions():
    F = adjoin_sqrt(QQ, q(2))
    G = adjoin_sqrt(F, F.coerce(q(3)))
    r2 = G.coerce(q(2)).sqrt()
    r3 = G.coerce(q(3)).sqrt()
    assert (r2 * r3 * r2 * r3 - G.coerce(q(6))).is_zero()


def test_depth_cap_raises():
    F = adjoin_sqrt(QQ, q(2))
    G = adjoin_sqrt(F, F.coerce(q(3)))
    with pytest.raises(FieldExtensionRequired):
        adjoin_sqrt(G, G.coerce(q(5)))


def test_adjoining_a_square_is_rejected():
    with pytest.raises(ValueError):
        adjoin_sqrt(QQ, q(4))


def test_common_field_finds_ancestor():
    F = adjoin_sqrt(QQ, q(2))
    assert common_field(QQ, F) is F
    assert common_field(F, F) is F


def test_mixed_arithmetic_coerces():
    F = adjoin_sqrt(QQ, q(5))
    r5 = F.coerce(q(5)).sqrt()
    mixed = r5 + q(1)
    assert mixed.field is F
    assert ((mixed - q(1)) * (mixed - q(1)) - F.coerce(q(5))).is_zero()


def test_nth_root_fourth_power():
    a = q(16)
    r = a.nth_root(4)
    assert (r * r * r * r - a).is_zero()


@pytest.mark.parametrize("base,k", [
    (10 ** 20 + 1, 3),
    (3 ** 233, 3),
    (2 ** 300 - 1, 2),
    (12345678901234567890123, 5),
    (7 ** 50, 8),
])
def test_nth_root_of_large_powers_is_exact(base, k):
    assert QQ.scalar(base ** k).nth_root(k) == q(base)
    assert QQ.scalar(Fraction(base ** k, 5 ** k)).nth_root(k) == q(Fraction(base, 5))
    assert QQ.scalar(base ** k + 1).nth_root(k) is None
    assert QQ.scalar(base ** k - 1).nth_root(k) is None
    if k % 2:
        assert QQ.scalar(-base ** k).nth_root(k) == q(-base)
