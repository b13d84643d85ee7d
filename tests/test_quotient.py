"""Artinian quotients: Hilbert functions, socles, generator counts, roots."""

import gc
import time
import weakref
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from artinlocal.errors import FieldMismatch, NotArtinian, ResidueNotPower
from artinlocal.polynomials import Polynomial, parse_poly, random_invertible_map
from artinlocal.quotient import (
    D_MAX,
    AlgebraElement,
    IdealPresentation,
    algebra_report,
    build_quotient,
    extend_scalars,
    leading_forms,
    min_gens,
    nth_root,
    row_space_equal,
)
from artinlocal.scalars import QQ, Scalar, adjoin_sqrt

from echelon_oracles import ideals_equal


def pres(*texts, nvars=2):
    return IdealPresentation([parse_poly(t, nvars, QQ) for t in texts])


def test_monomial_complete_intersection():
    A = build_quotient(pres("x1^2", "x2^3"))
    assert A.hf == (1, 2, 2, 1)
    assert A.length == 6
    assert A.gorenstein


def test_node_with_tangency():
    p = pres("x1*x2", "x2^2 - x1^3")
    assert build_quotient(p).hf == (1, 2, 1, 1)
    assert min_gens(p) == 2


def test_leading_forms_pick_up_hidden_generator():
    p = pres("x1*x2", "x2^2 - x1^3")
    data = leading_forms(p)
    assert data.v_star == 3
    assert {j: c for j, c in data.new_gens.items() if c} == {2: 2, 4: 1}


def test_non_artinian_raises():
    with pytest.raises(NotArtinian):
        build_quotient(pres("x1^2"))


@st.composite
def under_generated(draw):
    """h in 2..6 and r in 1..h-1 nonzero polynomials in h variables with no
    constant term, of degree at most 4."""
    h = draw(st.integers(2, 6))
    monos = st.lists(st.integers(0, 2), min_size=h, max_size=h).map(tuple).filter(
        lambda m: 1 <= sum(m) <= 4)
    gens = []
    for _ in range(draw(st.integers(1, h - 1))):
        terms = draw(st.dictionaries(monos, st.integers(-3, 3).filter(bool),
                                     min_size=1, max_size=4))
        gens.append(Polynomial(h, QQ, {m: QQ.rfrom(c) for m, c in terms.items()}))
    return IdealPresentation(gens, h)


@given(under_generated())
@settings(max_examples=40, deadline=None)
def test_fewer_generators_than_variables_raise_at_once(p):
    """By Krull's height theorem r < h generators never give an Artinian
    quotient, and the build says so before it builds an echelon."""
    start = time.perf_counter()
    with pytest.raises(NotArtinian, match="Krull"):
        build_quotient(p)
    assert time.perf_counter() - start < 0.1


def test_socle_degree_at_the_cap_is_reported_as_such():
    # the Hilbert function must vanish below D_MAX, so s <= D_MAX - 2 builds
    assert build_quotient(pres("x1^31", "x2")).socle_degree == 30 == D_MAX - 2
    with pytest.raises(NotArtinian, match=f"socle degree >= {D_MAX - 1}") as err:
        build_quotient(pres("x1^32", "x2"))
    assert f"truncation {D_MAX}" in str(err.value)


def test_scalar_outside_the_field_still_raises_field_mismatch():
    A = build_quotient(pres("x1^3", "x2^2"))
    F = adjoin_sqrt(QQ, Scalar(QQ, QQ.rfrom(2)))
    with pytest.raises(FieldMismatch):
        A.variable(0) * F.scalar(F.sqrt_theta)


def test_moved_fourth_powers_build_at_the_least_truncation():
    # moved generators have degree 8, so the build starts at D = 10 with no
    # zero of hf below it; the next step, D = 11 = s+2, is enough
    cube = pres("x1^4", "x2^4", "x3^4", nvars=3)
    phi = random_invertible_map(3, QQ, 11, 1)
    A = build_quotient(IdealPresentation([phi.apply(g) for g in cube.gens]))
    assert A.hf == (1, 3, 6, 10, 12, 12, 10, 6, 3, 1)
    assert A.D == A.socle_degree + 2


def test_socle_of_gorenstein_is_one_dimensional():
    A = build_quotient(pres("x1^2 - x2^2", "x1*x2"))
    tau, elems = A.socle()
    assert tau == 1 == A.cm_type
    assert A.gorenstein


def test_an_algebra_whose_socle_was_read_is_freed_without_the_collector():
    gc.disable()
    try:
        A = build_quotient(pres("x1^2 - x2^2", "x1*x2"))
        assert A.socle()[0] == 1
        ref = weakref.ref(A)
        del A
        assert ref() is None
    finally:
        gc.enable()


def test_min_gens_independent_of_generator_order():
    gens = ["x1*x2", "x2^2 - x1^3", "x1^4"]
    counts = {
        min_gens(pres(*perm)) for perm in permutations(gens)
    }
    assert counts == {2}


def test_min_gens_sees_redundant_generator():
    assert min_gens(pres("x1^2", "x2^2", "x1^2 + x2^2")) == 2


def test_min_gens_stable_under_deeper_truncation():
    # D only sets where the build starts: every build ends at s+2 = 5
    p = pres("x1*x2", "x2^2 - x1^3")
    A = build_quotient(p)
    assert A.D == 5 and build_quotient(p, D=8).D == 5
    assert build_quotient(p, D=8).v == min_gens(p)
    assert build_quotient(p, D=A.D + 1).v == min_gens(p)


def test_row_space_equal_detects_difference():
    p1 = pres("x1^2", "x2^2")
    p2 = pres("x1^2 + x2^2", "x2^2")
    p3 = pres("x1^2", "x2^3")
    assert row_space_equal(p1, p2, 6)
    assert not row_space_equal(p1, p3, 6)
    assert ideals_equal(p1, p2)


def test_row_space_equal_over_a_quadratic_field():
    """Over QQ(sqrt 2) the working rows of one echelon go into the other as
    they are: a unit times a generator plus a multiple of another spans the
    same ideal, and flipping the sign of sqrt 2 keeps the pivots but not
    the span."""
    F = adjoin_sqrt(QQ, 2)
    r2 = F.scalar(F.sqrt_theta)
    x1, x2 = (Polynomial.variable(i, 2, F) for i in range(2))
    g1, g2 = x1 ** 2 + x1 * x2 * r2, x2 ** 3 - x1 ** 3 * r2
    same = IdealPresentation([g1 * (x2 * r2 + 3) + g2 * x1, g2 - g1 * x2 * r2], 2, F)
    flipped = IdealPresentation([x1 ** 2 - x1 * x2 * r2, x2 ** 3 + x1 ** 3 * r2], 2, F)
    p1 = IdealPresentation([g1, g2], 2, F)
    D = build_quotient(p1).D
    assert build_quotient(flipped).hf == build_quotient(p1).hf
    assert row_space_equal(p1, same, D) and row_space_equal(same, p1, D)
    assert not row_space_equal(p1, flipped, D)
    assert not row_space_equal(flipped, p1, D)
    assert not row_space_equal(p1, pres("x1^2", "x2^3"), D)


def test_element_inverse():
    A = build_quotient(pres("x1^3", "x2^2"))
    u = A.element(parse_poly("2 + x1 + x1*x2", 2, QQ))
    assert (u * u.inverse() - A.element(parse_poly("1", 2, QQ))).is_zero()


def test_square_root_of_unit_series():
    A = build_quotient(pres("x1^5", "x2^2", nvars=2))
    a = A.element(parse_poly("1 + x1", 2, QQ))
    r = nth_root(A, a, 2)
    assert (r * r - a).is_zero()


def test_negative_power_of_an_element_raises():
    A = build_quotient(pres("x1^2", "x2^3"))
    with pytest.raises(ValueError):
        A.variable(0) ** -2


def test_cube_root():
    A = build_quotient(pres("x1^4", "x2^3"))
    a = A.element(parse_poly("8 + x1*x2", 2, QQ))
    r = nth_root(A, a, 3)
    assert (r * r * r - a).is_zero()


def test_root_needs_residue_root():
    A = build_quotient(pres("x1^3", "x2^2"))
    a = A.element(parse_poly("2 + x1", 2, QQ))
    with pytest.raises(ResidueNotPower):
        nth_root(A, a, 2)


def test_root_via_extension():
    A = build_quotient(pres("x1^3", "x2^2"))
    B = extend_scalars(A, adjoin_sqrt(QQ, Scalar(QQ, QQ.rfrom(2))))
    a = B.element(parse_poly("2 + x1", 2, B.field))
    r = nth_root(B, a, 2)
    assert r.algebra is B
    assert (r * r - a).is_zero()


@given(st.integers(min_value=2, max_value=4), st.integers(min_value=2, max_value=4))
@settings(max_examples=20, deadline=None)
def test_hf_of_power_pair_sums_to_product(a, b):
    A = build_quotient(pres(f"x1^{a}", f"x2^{b}"))
    assert sum(A.hf) == a * b


def test_report_is_stable_json_material():
    rep = algebra_report(build_quotient(pres("x1*x2", "x2^2 - x1^3")))
    assert rep["schema"] == 1
    assert rep["hilbert_function"] == [1, 2, 1, 1]
    assert rep["min_gens"] == 2


def test_element_power_takes_at_most_two_products_per_bit(monkeypatch):
    """(1 + x1)^n in k[[x1, x2]]/(x1^3, x2^2) is 1 + n*x1 + C(n, 2)*x1^2;
    at n = 10^6 it takes at most 2*bit_length(n) products."""
    A = build_quotient(pres("x1^3", "x2^2"))
    calls = []
    mul = AlgebraElement.__mul__
    monkeypatch.setattr(AlgebraElement, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    n = 10 ** 6
    got = A.element("1 + x1") ** n
    assert len(calls) <= 2 * n.bit_length()
    assert got == A.element(f"1 + {n}*x1 + {n * (n - 1) // 2}*x1^2")
