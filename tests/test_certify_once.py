"""Each answer is certified once, where it is returned, and a wrong stage
witness is still rejected there.

The stages (structure._stretched_witness, structure._almost_stretched_witness,
structure.normalize_units, classify7._classify_witness and
classify7._refine_witness) build witnesses without certifying them;
normalize, classify and classify_ideal certify the witness they return.  Each test below breaks one stage so that it returns
its witness with the image of x1 doubled, checks with the reference
row_space_equal that this witness is really wrong, and asserts that the
entry point raises CertificationFailed.  certify itself substitutes below
degree s+1 and counts the model's colength modulo n^(s+2): a witness wrong
only in degree s and a model of the right colength modulo n^(s+1) alone
are both rejected.
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
    certify,
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


def break_refinement(monkeypatch):
    """Make _refine_witness return its witness doubled; returns the list of
    (A, model, wrong witness) of the broken calls."""
    original = classify7._refine_witness
    calls = []

    def broken(A, model, P, Q):
        calls.append((A, model, doubled(original(A, model, P, Q))))
        return calls[-1][2]

    monkeypatch.setattr(classify7, "_refine_witness", broken)
    return calls


def test_classify_rejects_a_wrong_refined_witness(monkeypatch):
    calls = break_refinement(monkeypatch)
    with pytest.raises(CertificationFailed):
        classify(parse_poly("x1^2", 2, QQ))
    [(A, model, wrong)] = calls
    assert not carries_onto(wrong, model, A.pres)


def test_classify_ideal_rejects_a_wrong_refined_witness(monkeypatch):
    # the classify stage is uncertified inside classify_ideal, so only the
    # composite certificate stands between the wrong witness and the answer
    pres = moved(make_model("case2a"), 5)
    calls = break_refinement(monkeypatch)
    with pytest.raises(CertificationFailed, match="composite"):
        classify_ideal(pres, allow_extension=True)
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
def test_classify_ideal_makes_at_most_three_echelons(monkeypatch, case, p):
    # the input's build, the classify stage's build, and one model echelon
    # for the one certificate
    calls = count_echelons(monkeypatch)
    for pres in (make_model(case, p=p), moved(make_model(case, p=p), 3)):
        calls.clear()
        assert classify_ideal(pres, allow_extension=True).case == case
        assert len(calls) <= 3


def test_normalize_units_builds_no_echelon(monkeypatch):
    calls = count_echelons(monkeypatch)
    normalize_units(StretchedParams(3, 4, 1, (q(2), q(3))), allow_extension=True)
    normalize_units(AlmostStretchedParams(3, 2, 4, parse_poly("x2", 3, QQ), q(2),
                                          (q(5),)), allow_extension=True)
    assert calls == []


def identity(nvars, D):
    return RingMap([parse_poly(f"x{i + 1}", nvars, QQ) for i in range(nvars)], D)


def test_certify_rejects_a_doubled_witness_wrong_only_in_degree_s():
    # (x1*x2, x1^3 - x2^3) has s = 3; doubling x1 sends x1^3 - x2^3 to
    # 8*x1^3 - x2^3 = 7*x1^3 mod I, all of it in degree s
    pres = IdealPresentation.from_strings(["x1*x2", "x1^3 - x2^3"], 2)
    A = build_quotient(pres)
    assert A.socle_degree == 3
    certify(A, pres, identity(2, A.D), "identity")
    wrong = doubled(identity(2, A.D))
    assert not carries_onto(wrong, pres, pres)
    with pytest.raises(CertificationFailed, match="outside the ideal"):
        certify(A, pres, wrong, "doubled")


def test_certify_counts_the_model_colength_modulo_n_to_the_s_plus_2():
    # A = k[[x1]]/(x1^3): s = 2, length 3.  The model (x1^4) has colength 3
    # modulo n^3 but 4 modulo n^4, and the identity sends x1^4 into I
    A = build_quotient(IdealPresentation.from_strings(["x1^3"], 1))
    assert (A.socle_degree, A.length) == (2, 3)
    model = IdealPresentation.from_strings(["x1^4"], 1)
    with pytest.raises(CertificationFailed, match="another colength"):
        certify(A, model, identity(1, A.D), "x1^4 model")
