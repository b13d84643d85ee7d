"""Each answer is certified once, where it is returned, and a wrong stage
witness is still rejected there.

The stages (structure._stretched_witness, structure._almost_stretched_witness,
structure.normalize_units and classify7._refine_witness) build witnesses
without certifying them; normalize, classify and classify_ideal certify the
witness they return.  Each test below breaks one stage so that it returns
its witness with the image of x1 doubled, checks with the reference
row_space_equal that this witness is really wrong, and asserts that the
entry point raises CertificationFailed.
"""

from fractions import Fraction

import pytest

import artinlocal.classify7 as classify7
import artinlocal.quotient as quotient
import artinlocal.structure as structure
from artinlocal.classify7 import classify, classify_ideal, make_model
from artinlocal.errors import CertificationFailed
from artinlocal.polynomials import RingMap, parse_poly, random_invertible_map
from artinlocal.quotient import IdealPresentation, build_quotient, row_space_equal
from artinlocal.scalars import QQ, Scalar
from artinlocal.structure import (
    AlmostStretchedParams,
    StretchedParams,
    make_almost_stretched,
    make_stretched,
    normalize,
    normalize_units,
)

CASES = [("case1", None), ("case2a", None), ("case2b1", None),
         ("case2b2", Fraction(3))]


def q(x) -> Scalar:
    return Scalar(QQ, QQ.rfrom(Fraction(x)))


def moved(model, seed):
    """The model carried by a random coordinate change (images truncated
    at s+3; what is cut off lies in n * n^(s+1), so the ideal is kept)."""
    s = build_quotient(model).socle_degree
    phi = random_invertible_map(model.nvars, QQ, s + 3, seed)
    return IdealPresentation([phi.apply(g) for g in model.gens])


def doubled(witness: RingMap) -> RingMap:
    images = list(witness.images)
    images[0] = images[0].scale(witness.field.scalar(2))
    return RingMap(images, witness.D)


def carries_onto(witness, model, pres):
    """The reference check: does the witness carry the model onto pres?"""
    transported = [im for im in map(witness.apply, model.gens) if not im.is_zero()]
    return row_space_equal(IdealPresentation(transported, pres.nvars, witness.field),
                           pres, build_quotient(pres).D)


def break_stage(monkeypatch, module, name):
    """Make module.name return its (..., witness) with doubled(witness);
    returns the list of (args, outputs) of the broken calls."""
    original = getattr(module, name)
    calls = []

    def broken(*args, **kwargs):
        *rest, witness = original(*args, **kwargs)
        out = (*rest, doubled(witness))
        calls.append((args, out))
        return out

    monkeypatch.setattr(module, name, broken)
    return calls


@pytest.mark.parametrize("make,params", [
    (make_stretched, StretchedParams(3, 4, 2, (q(4),))),
    (make_almost_stretched, AlmostStretchedParams(
        2, 3, 5, parse_poly("1 + x1", 2, QQ), q(2))),
], ids=["stretched", "almost_stretched"])
def test_normalize_rejects_a_wrong_stage_witness(monkeypatch, make, params):
    pres = moved(make(params), 5)
    normalize(pres)
    stage = ("_stretched_witness" if make is make_stretched
             else "_almost_stretched_witness")
    calls = break_stage(monkeypatch, structure, stage)
    with pytest.raises(CertificationFailed):
        normalize(pres)
    [(_, (got, wrong))] = calls
    assert not carries_onto(wrong, make(got), pres)


def test_classify_ideal_rejects_a_wrong_almost_stretched_stage(monkeypatch):
    pres = moved(make_model("case2a"), 5)
    calls = break_stage(monkeypatch, classify7, "_almost_stretched_witness")
    with pytest.raises(CertificationFailed, match="composite"):
        classify_ideal(pres, allow_extension=True)
    [(_, (params, wrong))] = calls
    assert not carries_onto(wrong, make_almost_stretched(params), pres)


def test_classify_ideal_rejects_a_wrong_unit_stage(monkeypatch):
    pres = moved(make_model("case2b2", p=3), 5)
    calls = break_stage(monkeypatch, classify7, "normalize_units")
    with pytest.raises(CertificationFailed, match="composite"):
        classify_ideal(pres, allow_extension=True)
    [((params,), (unit_free, wrong))] = calls
    assert not carries_onto(wrong, make_almost_stretched(unit_free),
                            make_almost_stretched(params))


def test_classify_rejects_a_wrong_refined_witness(monkeypatch):
    original = classify7._refine_witness
    calls = []

    def broken(A, model, P, Q):
        calls.append((A, model, doubled(original(A, model, P, Q))))
        return calls[-1][2]

    monkeypatch.setattr(classify7, "_refine_witness", broken)
    with pytest.raises(CertificationFailed):
        classify(parse_poly("x1^2", 2, QQ))
    [(A, model, wrong)] = calls
    assert not carries_onto(wrong, model, A.pres)


def count_echelons(monkeypatch):
    """Count macaulay_echelon calls through every module that binds it."""
    calls = []
    original = quotient.macaulay_echelon

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    for module in (quotient, structure):
        monkeypatch.setattr(module, "macaulay_echelon", counting)
    return calls


@pytest.mark.parametrize("case,p", CASES, ids=[case for case, _ in CASES])
def test_classify_ideal_makes_at_most_four_echelons(monkeypatch, case, p):
    # the input's build, classify's build, and one model echelon for each
    # of the two certificates
    calls = count_echelons(monkeypatch)
    for pres in (make_model(case, p=p), moved(make_model(case, p=p), 3)):
        calls.clear()
        assert classify_ideal(pres, allow_extension=True).case == case
        assert len(calls) <= 4


def test_normalize_units_builds_no_echelon(monkeypatch):
    calls = count_echelons(monkeypatch)
    normalize_units(StretchedParams(3, 4, 1, (q(2), q(3))), allow_extension=True)
    normalize_units(AlmostStretchedParams(3, 2, 4, parse_poly("x2", 3, QQ), q(2),
                                          (q(5),)), allow_extension=True)
    assert calls == []
