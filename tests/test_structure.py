"""Canonical stretched / almost-stretched models and their normalizers."""

from fractions import Fraction

import pytest

from artinlocal.errors import FieldExtensionRequired, NotStretched
from artinlocal.polynomials import RingMap, parse_poly, random_invertible_map
from artinlocal.quotient import (
    IdealPresentation,
    build_quotient,
    hilbert_function,
    min_gens,
    row_space_equal,
)
from artinlocal.scalars import QQ, Scalar
from artinlocal.structure import (
    AlmostStretchedParams,
    StretchedParams,
    certify,
    make_1321_models,
    make_almost_stretched,
    make_stretched,
    normalize,
    normalize_units,
    recover_almost_stretched_params,
    recover_stretched_params,
)


def q(x) -> Scalar:
    return Scalar(QQ, QQ.rfrom(Fraction(x)))


def test_stretched_hilbert_function():
    pres = make_stretched(StretchedParams(3, 4, 3))
    assert hilbert_function(pres) == (1, 3, 1, 1, 1)


def test_stretched_generator_counts():
    # tau = h uses all pairwise products plus the power relation
    assert min_gens(make_stretched(StretchedParams(3, 3, 3))) == 6
    # tau < h trades the power relation into the square relations
    p = make_stretched(StretchedParams(3, 3, 1, (q(2), q(3))))
    assert min_gens(p) == 5


def test_stretched_types():
    for tau in (1, 2, 3):
        units = tuple(q(i + 2) for i in range(3 - tau)) if tau < 3 else ()
        A = build_quotient(make_stretched(StretchedParams(3, 4, tau, units)))
        assert A.cm_type == tau
        assert A.is_stretched()


def test_almost_stretched_hilbert_function():
    a = parse_poly("1 + x1", 3, QQ)
    p = AlmostStretchedParams(3, 3, 5, a, q(2), (q(3),))
    assert hilbert_function(make_almost_stretched(p)) == (1, 3, 2, 2, 1, 1)


def test_almost_stretched_is_gorenstein():
    a = parse_poly("0", 2, QQ)
    A = build_quotient(make_almost_stretched(
        AlmostStretchedParams(2, 2, 4, a, q(1))))
    assert A.gorenstein
    assert A.is_almost_stretched()


def test_recover_round_trips_syntactically():
    sp = StretchedParams(4, 5, 2, (q(2), q(5)))
    assert recover_stretched_params(make_stretched(sp)) == sp
    ap = AlmostStretchedParams(3, 3, 6, parse_poly("2 + x1^2", 3, QQ),
                               q(7), (q(2),))
    got = recover_almost_stretched_params(make_almost_stretched(ap))
    assert (got.h, got.t, got.s) == (3, 3, 6)
    assert (got.a - ap.a).is_zero() and (got.w - ap.w).is_zero()


def test_normalize_units_clears_units():
    sp = StretchedParams(3, 4, 1, (q(4), q(9)))
    pres = make_stretched(sp)
    cleared, witness = normalize_units(pres)
    got = recover_stretched_params(cleared)
    assert all((u - q(1)).is_zero() for u in got.units)
    moved = IdealPresentation([witness.apply(g) for g in cleared.gens])
    assert row_space_equal(moved, pres, build_quotient(pres).D)


def test_normalize_units_may_need_extension():
    sp = StretchedParams(3, 4, 1, (q(2), q(3)))
    with pytest.raises(FieldExtensionRequired):
        normalize_units(make_stretched(sp))
    cleared, _ = normalize_units(make_stretched(sp), allow_extension=True)
    assert cleared.field.depth == 2


def test_normalize_stretched_round_trip():
    sp = StretchedParams(3, 4, 2, (q(4),))
    pres = make_stretched(sp)
    phi = random_invertible_map(3, QQ, 8, 7)
    moved = IdealPresentation([phi.apply(g) for g in pres.gens])
    kind, params, witness = normalize(moved, seed=0)
    assert kind == "stretched"
    assert (params.h, params.s, params.tau) == (3, 4, 2)
    model = make_stretched(params)
    back = IdealPresentation([witness.apply(g) for g in model.gens])
    assert row_space_equal(back, moved, build_quotient(moved).D)


def test_normalize_almost_stretched_round_trip():
    ap = AlmostStretchedParams(2, 3, 5, parse_poly("1 + x1", 2, QQ), q(1))
    pres = make_almost_stretched(ap)
    phi = random_invertible_map(2, QQ, 8, 3)
    moved = IdealPresentation([phi.apply(g) for g in pres.gens])
    kind, params, witness = normalize(moved, seed=0)
    assert kind == "almost_stretched"
    assert (params.h, params.t, params.s) == (2, 3, 5)
    model = make_almost_stretched(params)
    back = IdealPresentation([witness.apply(g) for g in model.gens])
    assert row_space_equal(back, moved, build_quotient(moved).D)


def test_normalize_rejects_other_hf():
    pres = IdealPresentation([parse_poly(t, 3, QQ)
                              for t in ("x1^2", "x2^2", "x3^2")])
    with pytest.raises(NotStretched):
        normalize(pres)


def test_1321_models():
    m1, m2 = make_1321_models()
    for pres in (m1, m2):
        A = build_quotient(pres)
        assert A.hf == (1, 3, 2, 1)
        assert A.cm_type == 1
        assert min_gens(pres) == 5


def test_certify_accepts_the_identity_and_rejects_wrong_witnesses():
    pres = make_stretched(StretchedParams(2, 3, 2))  # (x1*x2, x2^2, x1^4)
    D = build_quotient(pres).D

    def images(*texts):
        return RingMap([parse_poly(t, 2, QQ) for t in texts], D)

    certify(pres, images("x1", "x2"), pres, D, "identity")
    certify(pres, images("x1 + x2", "2*x2 + x1^4"), pres, D, "automorphism")
    with pytest.raises(RuntimeError, match="failed certification"):
        certify(pres, images("x2", "x1"), pres, D, "swap")
    with pytest.raises(RuntimeError, match="not invertible"):
        certify(pres, images("x1", "x1 + x2^2"), pres, D, "singular")
