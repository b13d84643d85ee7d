"""Canonical stretched / almost-stretched models and their normalizers."""

import random
from fractions import Fraction

import pytest

import artinlocal.structure as structure
from artinlocal.classify7 import make_model
from artinlocal.errors import (
    CertificationFailed,
    FieldExtensionRequired,
    NotStretched,
    SearchExhausted,
)
from artinlocal.linalg import SparseEchelon
from artinlocal.polynomials import (
    Polynomial,
    RingMap,
    monomials_of_degree,
    parse_poly,
    random_invertible_map,
)
from artinlocal.quotient import (
    IdealPresentation,
    build_quotient,
    min_gens,
    row_space_equal,
)
from artinlocal.scalars import QQ, Scalar
from artinlocal.structure import (
    AlmostStretchedParams,
    StretchedParams,
    _clear_product,
    _complete_basis,
    _diagonalize_units,
    _ladder,
    _socle_ratio,
    certify,
    find_lean_basis,
    make_1321_models,
    make_almost_stretched,
    make_stretched,
    normalize,
    normalize_units,
    solve_scalar_combo,
)
from echelon_oracles import oracle_solve_element_combo


def q(x) -> Scalar:
    return Scalar(QQ, QQ.rfrom(Fraction(x)))


def test_stretched_hilbert_function():
    pres = make_stretched(StretchedParams(3, 4, 3))
    assert build_quotient(pres).hf == (1, 3, 1, 1, 1)


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
    assert build_quotient(make_almost_stretched(p)).hf == (1, 3, 2, 2, 1, 1)


def test_almost_stretched_is_gorenstein():
    a = parse_poly("0", 2, QQ)
    A = build_quotient(make_almost_stretched(
        AlmostStretchedParams(2, 2, 4, a, q(1))))
    assert A.gorenstein
    assert A.is_almost_stretched()


def unit_free_model_carries_onto(params, new, witness):
    """Does the witness carry the unit-free model onto the input model?"""
    make = make_stretched if isinstance(params, StretchedParams) else make_almost_stretched
    pres = make(params)
    transported = IdealPresentation([witness.apply(g) for g in make(new).gens])
    return row_space_equal(transported, pres, build_quotient(pres).D)


def test_normalize_units_clears_units():
    sp = StretchedParams(3, 4, 1, (q(4), q(9)))
    new, witness = normalize_units(sp)
    assert (new.h, new.s, new.tau) == (3, 4, 1)
    assert all((u - q(1)).is_zero() for u in new.units)
    assert new.field.depth == 0
    assert unit_free_model_carries_onto(sp, new, witness)


def test_normalize_units_may_need_extension():
    sp = StretchedParams(3, 4, 1, (q(2), q(3)))
    with pytest.raises(FieldExtensionRequired):
        normalize_units(sp)
    new, witness = normalize_units(sp, allow_extension=True)
    assert new.field.depth == 2
    assert unit_free_model_carries_onto(sp, new, witness)


def test_normalize_units_almost_stretched_square_w_stays_rational():
    # w = 4 = v^2 with v = 2: a'(x1, x2) = a(x1, 2*x2) / 2
    ap = AlmostStretchedParams(2, 3, 5, parse_poly("1 + x1 + x2", 2, QQ), q(4))
    new, witness = normalize_units(ap)
    assert (new.h, new.t, new.s) == (2, 3, 5)
    assert (new.w - q(1)).is_zero() and new.field.depth == 0
    assert (new.a - parse_poly("1/2 + 1/2*x1 + x2", 2, QQ)).is_zero()
    assert unit_free_model_carries_onto(ap, new, witness)


def test_normalize_units_almost_stretched_may_need_extension():
    ap = AlmostStretchedParams(3, 2, 4, parse_poly("x2", 3, QQ), q(2), (q(5),))
    with pytest.raises(FieldExtensionRequired):
        normalize_units(ap)
    new, witness = normalize_units(ap, allow_extension=True)
    assert (new.w - new.field.one).is_zero()
    assert all((u - new.field.one).is_zero() for u in new.units)
    assert new.field.depth >= 1
    assert unit_free_model_carries_onto(ap, new, witness)


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


@pytest.mark.parametrize("pres", [
    make_stretched(StretchedParams(2, 4, 1, (q(2),))),
    make_almost_stretched(AlmostStretchedParams(3, 2, 4, parse_poly("x1", 3, QQ), q(3), (q(2),))),
], ids=["stretched", "almost-stretched"])
def test_find_lean_basis_raises_search_exhausted_past_its_budget(pres, monkeypatch):
    """With no candidate allowed, both searches give up with
    SearchExhausted, and so does normalize; the budget is read per call."""
    A = build_quotient(pres)
    monkeypatch.setattr(structure, "LEAN_BASIS_BUDGET", 0)
    with pytest.raises(SearchExhausted):
        find_lean_basis(A)
    with pytest.raises(SearchExhausted):
        normalize(A)
    monkeypatch.undo()
    assert len(find_lean_basis(A)[0]) == (1 if A.is_stretched() else 2)


def test_normalize_rejects_other_hf():
    pres = IdealPresentation([parse_poly(t, 3, QQ)
                              for t in ("x1^2", "x2^2", "x3^2")])
    with pytest.raises(NotStretched):
        normalize(pres)


def hyperbolic(s):
    """The stretched ideal whose unit form z_i * z_j = U_ij * x1^s on
    (x2, x3) is hyperbolic: U = [[0, 1], [1, 0]], no nonzero diagonal."""
    return IdealPresentation.from_strings(
        ["x1*x2", "x1*x3", "x2^2", "x3^2", f"x2*x3 - x1^{s}"], 3)


@pytest.mark.parametrize("s", [3, 4])
def test_normalize_hyperbolic_unit_form(s):
    """Unmoved, the zero diagonal makes x2 gain x3; then x3 loses half of
    that, giving the units 2 and -1/2."""
    kind, params, witness = normalize(hyperbolic(s))
    assert kind == "stretched"
    assert (params.h, params.s, params.tau) == (3, s, 1)
    assert params.units == (q(2), q(Fraction(-1, 2)))
    want = [parse_poly(t, 3, QQ) for t in ("x1", "x2 + x3", "-1/2*x2 + 1/2*x3")]
    assert witness.images == want


@pytest.mark.parametrize("s", [3, 4])
@pytest.mark.parametrize("seed", [1, 2])
def test_normalize_moved_hyperbolic_unit_form(s, seed):
    """Moved, the units change, but not the discriminant's square class:
    -u1*u2 is a square, as -det U = 1 is."""
    phi = random_invertible_map(3, QQ, s + 2, seed)
    moved = IdealPresentation([phi.apply(g) for g in hyperbolic(s).gens], 3, QQ)
    kind, params, _ = normalize(moved)
    assert kind == "stretched"
    assert (params.h, params.s, params.tau) == (3, s, 1)
    u1, u2 = params.units
    assert (-(u1 * u2)).sqrt() is not None


def unit_form_algebra(s=3):
    """A stretched algebra in 4 variables with unit form U = [[0, 1, 2],
    [1, 0, 3], [2, 3, 1]] on (x2, x3, x4) against x1^s."""
    U = {(2, 2): 0, (2, 3): 1, (2, 4): 2, (3, 3): 0, (3, 4): 3, (4, 4): 1}
    gens = ["x1*x2", "x1*x3", "x1*x4"]
    gens += [f"x{i}*x{j} - {c}*x1^{s}" for (i, j), c in U.items()]
    return build_quotient(IdealPresentation.from_strings(gens, 4))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_diagonalize_units_gives_an_orthogonal_basis(seed):
    """z_i * z_j = 0 for i != j and z_i^2 = u_i * x1^s, from the variables
    (a zero diagonal first) and from random combinations of them."""
    A = unit_form_algebra()
    base = A.variable(0) ** A.socle_degree
    zs = [A.variable(i) for i in (1, 2, 3)]
    if seed:
        rng = random.Random(seed)
        zs = [sum((z * rng.randint(-3, 3) for z in zs), A.element(0)) for _ in zs]
    new, units = _diagonalize_units(A, zs, base)
    assert len(new) == len(units) == 3
    for i, zi in enumerate(new):
        for j, zj in enumerate(new):
            want = base * units[i] if i == j else A.element(0)
            assert zi * zj == want
    assert all(not u.is_zero() for u in units)


def test_socle_ratio_rejects_products_off_the_socle_line():
    A = unit_form_algebra()
    x1, x2 = A.variable(0), A.variable(1)
    base = x1 ** A.socle_degree
    assert _socle_ratio(A, x2 * A.variable(2), base) == q(1)
    with pytest.raises(RuntimeError, match="socle line"):
        _socle_ratio(A, x1 ** (A.socle_degree - 1), base)
    with pytest.raises(RuntimeError, match="socle line"):
        _socle_ratio(A, base, A.element(0))


def test_1321_models():
    m1, m2 = make_1321_models()
    for pres in (m1, m2):
        A = build_quotient(pres)
        assert A.hf == (1, 3, 2, 1)
        assert A.cm_type == 1
        assert min_gens(pres) == 5


def test_certify_accepts_the_identity_and_rejects_wrong_witnesses():
    pres = make_stretched(StretchedParams(2, 3, 2))  # (x1*x2, x2^2, x1^4)
    A = build_quotient(pres)

    def images(*texts):
        return RingMap([parse_poly(t, 2, QQ) for t in texts], A.D)

    certify(A, pres, images("x1", "x2"), "identity")
    certify(A, pres, images("x1 + x2", "2*x2 + x1^4"), "automorphism")
    with pytest.raises(RuntimeError, match="failed certification"):
        certify(A, pres, images("x2", "x1"), "swap")
    with pytest.raises(CertificationFailed, match="not invertible"):
        certify(A, pres, images("x1", "x1 + x2^2"), "singular")
    # contained in the ideal, but of colength 6 against 5
    sub = IdealPresentation.from_strings(["x1*x2", "x2^2", "x1^5"], 2)
    with pytest.raises(CertificationFailed, match="failed certification"):
        certify(A, sub, images("x1", "x2"), "proper subideal")


def agreement_models():
    a = parse_poly("1 + x1", 2, QQ)
    return [
        ("stretched h=2 s=4 tau=1", make_stretched(StretchedParams(2, 4, 1, (q(3),)))),
        ("stretched h=3 s=3 tau=2", make_stretched(StretchedParams(3, 3, 2, (q(2),)))),
        ("stretched h=3 s=3 tau=3", make_stretched(StretchedParams(3, 3, 3))),
        ("almost h=2 t=3 s=5", make_almost_stretched(
            AlmostStretchedParams(2, 3, 5, a, q(2)))),
        ("almost h=3 t=2 s=4", make_almost_stretched(AlmostStretchedParams(
            3, 2, 4, parse_poly("x2", 3, QQ), q(1), (q(3),)))),
        ("case1", make_model("case1")),
        ("case2a", make_model("case2a")),
        ("case2b1", make_model("case2b1")),
        ("case2b2", make_model("case2b2", p=3)),
    ]


@pytest.mark.parametrize("label,model", agreement_models(),
                         ids=[label for label, _ in agreement_models()])
def test_certify_agrees_with_row_space_equality(label, model):
    """certify accepts a witness exactly when the transported model and the
    input ideal have the same truncated row space (the reference check)."""
    rng = random.Random(f"certify {label}")
    h = model.nvars
    s = build_quotient(model).socle_degree
    phi = random_invertible_map(h, QQ, s + 2, rng)
    # truncating at s+2 keeps the ideal: what is cut off lies in n * n^(s+1)
    pres = IdealPresentation([im for im in map(phi.apply, model.gens)
                              if not im.is_zero()], h, QQ)
    A = build_quotient(pres)
    true = list(phi.images)
    perturbed = list(true)
    k = rng.randrange(h)
    mono = rng.choice(monomials_of_degree(h, 2))
    c = QQ.rfrom(rng.choice((-2, -1, 1, 2)))
    perturbed[k] = perturbed[k] + Polynomial(h, QQ, {mono: c})
    swapped = [true[1], true[0]] + true[2:]
    singular = [true[0], true[0] + Polynomial(h, QQ, {mono: QQ.rone})] + true[2:]
    verdicts = {}
    for name, images in (("true", true), ("perturbed", perturbed),
                         ("swapped", swapped), ("singular", singular)):
        witness = RingMap(images, A.D)
        try:
            certify(A, model, witness, name)
            accepted = True
        except CertificationFailed:
            accepted = False
        transported = [witness.apply(g) for g in model.gens]
        transported = [g for g in transported if not g.is_zero()]
        reference = bool(transported) and row_space_equal(
            IdealPresentation(transported, h, QQ), pres, A.D)
        assert accepted == reference, name
        verdicts[name] = accepted
    assert verdicts["true"] and not verdicts["singular"]


def ladder_models():
    """Stretched and almost-stretched models with h = 2..4 and units != 1,
    each unmoved and moved by random_invertible_map(h, QQ, s + 2, 11)."""
    def a(text, h):
        return parse_poly(text, h, QQ)

    models = [
        ("stretched h=2 s=4 tau=1", make_stretched(StretchedParams(2, 4, 1, (q(3),)))),
        ("stretched h=3 s=3 tau=1", make_stretched(StretchedParams(3, 3, 1, (q(2), q(5))))),
        ("stretched h=3 s=4 tau=2", make_stretched(StretchedParams(3, 4, 2, (q(-3),)))),
        ("stretched h=4 s=3 tau=1", make_stretched(
            StretchedParams(4, 3, 1, (q(2), q(-1), q(3))))),
        ("almost h=2 t=3 s=5", make_almost_stretched(
            AlmostStretchedParams(2, 3, 5, a("1 + x1", 2), q(2)))),
        ("almost h=3 t=2 s=4", make_almost_stretched(
            AlmostStretchedParams(3, 2, 4, a("x2", 3), q(3), (q(2),)))),
        ("almost h=3 t=3 s=5", make_almost_stretched(
            AlmostStretchedParams(3, 3, 5, a("1 + x1 + x2", 3), q(-2), (q(5),)))),
        ("almost h=4 t=2 s=5", make_almost_stretched(
            AlmostStretchedParams(4, 2, 5, a("x1 - x2", 4), q(2), (q(3), q(-1))))),
    ]
    out = []
    for label, pres in models:
        s = build_quotient(pres).socle_degree
        phi = random_invertible_map(pres.nvars, QQ, s + 2, 11)
        out.append((label, pres))
        out.append((f"moved {label}", IdealPresentation([phi.apply(g) for g in pres.gens])))
    return out


LADDER_MODELS = ladder_models()
LADDER_IDS = [label for label, _ in LADDER_MODELS]


def rank(elems):
    ech = SparseEchelon(QQ)
    return sum(1 for el in elems if ech.add(
        {i: c for i, c in enumerate(el.coords()) if not QQ.riszero(c)}))


def ladder_columns(A):
    """x1 and x2 of find_lean_basis (x2 None if stretched), the ladder
    p1 = [1, x1, ..., x1^s] it returns, which is _ladder's, and the
    columns that span m^2: p1[2:], then,
    almost stretched, x1^(j-1) * x2 for 2 <= j <= t."""
    basis, p1 = find_lean_basis(A)
    x1, x2 = (basis + [None])[:2]
    assert p1 == _ladder(x1, A.socle_degree)
    if x2 is None:
        return x1, x2, p1, p1[2:]
    t = max(j for j in range(2, len(A.hf)) if A.hf[j] == 2)
    return x1, x2, p1, p1[2:] + [p1[j - 1] * x2 for j in range(2, t + 1)]


@pytest.mark.parametrize("label,pres", LADDER_MODELS, ids=LADDER_IDS)
def test_ladder_columns_are_bases_of_the_powers(label, pres):
    """The witness stages' columns are independent and as many as
    sum(hf[2:]) (m^2) and, almost stretched, sum(hf[t+1:]) (m^(t+1))."""
    A = build_quotient(pres)
    _, x2, p1, cols = ladder_columns(A)
    assert rank(cols) == len(cols) == sum(A.hf[2:])
    if x2 is not None:
        t = max(j for j in range(2, len(A.hf)) if A.hf[j] == 2)
        assert rank(p1[t + 1:]) == len(p1[t + 1:]) == sum(A.hf[t + 1:])


@pytest.mark.parametrize("label,pres", [m for m in LADDER_MODELS if "stretched h" in m[0]],
                         ids=[i for i in LADDER_IDS if "stretched h" in i])
def test_stretched_units_agree_with_the_element_solve_oracle(label, pres):
    """z's cleared by the scalar solve over the ladder and by the element
    solve x1^2 * w = x1 * z both have x1 * z = 0 and give the same units,
    which are the ones normalize returns."""
    A = build_quotient(pres)
    _, params, witness = normalize(A)
    x1, _, p1, cols = ladder_columns(A)
    s, tau = A.socle_degree, A.cm_type
    ys = [A.element(im) for im in witness.images[1:tau]]
    zs = _complete_basis(A, [x1] + ys, map(A.variable, range(A.nvars)), A.embdim - tau)
    by_ladder = [_clear_product(A, z, x1 * z, cols, p1[1:s], "x1*z") for z in zs]
    by_oracle = [z - x1 * oracle_solve_element_combo(A, [p1[2]], x1 * z)[0] for z in zs]
    for z in by_ladder + by_oracle:
        assert (x1 * z).is_zero()
    units = _diagonalize_units(A, by_ladder, p1[s])[1]
    assert units == _diagonalize_units(A, by_oracle, p1[s])[1] == params.units


@pytest.mark.parametrize("label,pres", LADDER_MODELS, ids=LADDER_IDS)
def test_witness_clears_the_x1_products(label, pres):
    """On the certified witness, x1 * z = 0 for every z and, almost
    stretched, x1^t * x2 = 0; the moved almost-stretched models with h >= 3
    clear x1 * z with a nonzero coefficient on some x1^(j-1) * x2."""
    A = build_quotient(pres)
    kind, params, witness = normalize(A)
    els = [A.element(im) for im in witness.images]
    x1 = els[0]
    if kind == "stretched":
        zs = els[params.tau:]
    else:
        zs = els[2:]
        assert (x1 ** params.t * els[1]).is_zero()
    assert all((x1 * z).is_zero() for z in zs)
    if kind == "almost_stretched" and label.startswith("moved") and A.embdim >= 3:
        y1, y2, p1, cols = ladder_columns(A)
        starts = _complete_basis(A, [y1, y2], map(A.variable, range(A.nvars)), A.embdim - 2)
        sols = [solve_scalar_combo(A, cols, y1 * z) for z in starts]
        assert any(not c.is_zero() for sol in sols for c in sol[len(p1) - 2:])
