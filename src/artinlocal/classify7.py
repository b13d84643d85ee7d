"""Classification of complete-intersection quotients of k[[x1, x2]] with
Hilbert function (1, 2, 2, 2, 1, 1, 1).

Every such algebra is isomorphic to exactly one of four models:

    case1   (x1*x2,        x2^4 - x1^6)
    case2a  (x1^3*x2,      x2^2 - x1^4)
    case2b1 (x1^2,         x1*x2^3 - x2^5)
    case2b2 (x1^3*x2 - p*x1^5, x2^2 - x1^4)   with p != 0, p^2 != 1

and within case2b2 the residue p^2 is a complete isomorphism invariant.
The classifier starts from the canonical quadratic relation coefficient
a(x1, x2) (see structure.normalize_units), decides the case from residues of
derived elements and assembles a leading witness following the case
analysis.  classify refines that witness and certifies it once, by
containment in the algebra's own echelon plus equal colength
(structure.certify); classify_ideal certifies the composite witness back to
its input coordinates, and no stage is certified on its own.
Square roots that do not exist in the current field are adjoined when
allow_extension is set (within the tower depth cap).  A case takes them on
scalars, from residues, before it builds any element over the larger field
(case1 the root of a socle ratio, case2b2 those of dbar^2 + 4 and -2/cbar),
and extends its algebra once (extend_scalars).  Witnesses over nested
fields compose as they are, over the larger field (Polynomial.substitute).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import WrongHilbertFunction
from .linalg import solve
from .polynomials import Polynomial, RingMap, monomials_of_degree, parse_poly
from .quotient import (
    ArtinAlgebra,
    IdealPresentation,
    build_quotient,
    extend_scalars,
    nth_root,
)
from .scalars import Field, QQ, Scalar, common_field
from .structure import (
    AlmostStretchedParams,
    _almost_stretched_witness,
    _socle_ratio,
    _sqrt_growing,
    certify,
    make_almost_stretched,
    normalize_units,
)

TARGET_HF = (1, 2, 2, 2, 1, 1, 1)
CASES = ("case1", "case2a", "case2b1", "case2b2")


def make_model(case: str, p=None, field: Field = QQ) -> IdealPresentation:
    """The canonical model ideal of a case (p required for case2b2)."""
    if case == "case1":
        return IdealPresentation.from_strings(["x1*x2", "x2^4 - x1^6"], 2, field)
    if case == "case2a":
        return IdealPresentation.from_strings(["x1^3*x2", "x2^2 - x1^4"], 2, field)
    if case == "case2b1":
        return IdealPresentation.from_strings(["x1^2", "x1*x2^3 - x2^5"], 2, field)
    if case == "case2b2":
        if p is None:
            raise ValueError("case2b2 needs the parameter p")
        p = field.coerce(p)
        if p.is_zero() or (p * p - 1).is_zero():
            raise ValueError("case2b2 needs p != 0 and p^2 != 1")
        x1 = Polynomial.variable(0, 2, p.field)
        x2 = Polynomial.variable(1, 2, p.field)
        return IdealPresentation(
            [x1 ** 3 * x2 - (x1 ** 5).scale(p), x2 * x2 - x1 ** 4], 2, p.field
        )
    raise ValueError(f"unknown case {case!r}")


@dataclass
class ClassificationResult:
    case: str
    p: Scalar | None
    p_squared: Scalar | None
    model: IdealPresentation
    witness: RingMap
    field: Field

    def as_dict(self):
        return {
            "schema": 1,
            "case": self.case,
            "p": None if self.p is None else repr(self.p),
            "p_squared": None if self.p_squared is None else repr(self.p_squared),
            "field": repr(self.field),
            "model_generators": [repr(g) for g in self.model.gens],
            "witness_images": [repr(im) for im in self.witness.images],
        }


# ------------------------------------------------------------------ helpers


def _split_by_vars(a: Polynomial):
    """Write a (with zero constant term) as b*x1 + c*x2 with c pure in x2."""
    f = a.field
    b_terms, c_terms = {}, {}
    for m, co in a.terms.items():
        if m[0] >= 1:
            b_terms[(m[0] - 1, m[1])] = co
        elif m[1] >= 1:
            c_terms[(m[0], m[1] - 1)] = co
        else:
            raise ValueError("nonzero constant term")
    return Polynomial(2, f, b_terms), Polynomial(2, f, c_terms)


REFINE_STEPS = 15        # witness refinement steps before giving up


def _refine_witness(A: ArtinAlgebra, model: IdealPresentation, P, Q):
    """Correct the witness images order by order until the model generators
    vanish exactly in A.

    Each step solves the linearized system modulo m^(k+1), where k is the
    current residual order, so all residual degrees <= k are cleared (and
    lower degrees stay clear) in one exact linear solve.  Correction
    directions per image: every monomial of degree 2..s (these span m^2,
    as m^(s+1) is 0 in A) plus the four GL-tangent directions P and Q
    themselves, which realize unit rescalings and linear mixing of the
    images.  No proof that the residual order rises is known yet, so the
    loop checks instead: a step that lowers the order raises "lost
    ground", and a residual left after REFINE_STEPS steps raises "did not
    converge".  Returns the refined witness map x1 -> P, x2 -> Q.
    """
    f = A.field
    gens = [g.map_field(f) for g in model.gens]
    dX = [_partial(g, 0) for g in gens]
    dY = [_partial(g, 1) for g in gens]
    ngen = len(gens)
    monos = [A.element(Polynomial(2, f, {m: f.rone}))
             for d in range(2, A.socle_degree + 1) for m in monomials_of_degree(2, d)]
    last_k = None
    for _ in range(REFINE_STEPS):
        vals = [A.evaluate(g, [P.poly, Q.poly]) for g in gens]
        if all(v.is_zero() for v in vals):
            return RingMap([P.poly, Q.poly], A.D)
        k = min(v.poly.order() for v in vals if not v.is_zero())
        if last_k is not None and k < last_k:
            raise RuntimeError("witness refinement lost ground")
        last_k = k
        jx = [A.evaluate(g, [P.poly, Q.poly]) for g in dX]
        jy = [A.evaluate(g, [P.poly, Q.poly]) for g in dY]
        col_elems = []
        for coord, jac in ((0, jx), (1, jy)):
            for delta in monos + [P, Q]:
                stack = [jac[i] * delta for i in range(ngen)]
                if any(not el.is_zero() for el in stack):
                    col_elems.append((coord, delta, stack))
        # row (i, pos): coordinate pos of each column's stack[i], and of -vals[i] at
        # column n, for pos of degree <= k: pos < sum(hf[:k+1]) (ArtinAlgebra.in_power)
        low, n, rows = sum(A.hf[:k + 1]), len(col_elems), {}
        for i in range(ngen):
            for col, el in enumerate([stack[i] for _, _, stack in col_elems] + [-vals[i]]):
                for pos, c in el.coords().items():
                    if pos < low:
                        rows.setdefault((i, pos), {})[col] = c
        sol = solve(rows.values(), n, f)
        if sol is None:
            raise RuntimeError("witness refinement hit an unsolvable correction")
        images = [P.poly, Q.poly]
        for col, c in sol.items():
            coord, delta, _ = col_elems[col]
            images[coord] = images[coord] + delta.poly.scale(Scalar(f, c))
        P, Q = (A.element(im) for im in images)
    raise RuntimeError("witness refinement did not converge")


def _partial(g: Polynomial, i: int) -> Polynomial:
    """d g / d x_(i+1): distinct terms of g differentiate to distinct
    monomials, so no two terms add."""
    f = g.field
    return Polynomial(2, f, {m[:i] + (m[i] - 1,) + m[i + 1:]: f.rmul(c, f.rfrom(m[i]))
                             for m, c in g.terms.items() if m[i]})


# ------------------------------------------------------------- classifier


def _target_algebra(pres: IdealPresentation) -> ArtinAlgebra:
    """The quotient by pres, which must have the Hilbert function TARGET_HF;
    D = s+2 of the target suffices in one build, another hf steps past it."""
    A = build_quotient(pres, D=len(TARGET_HF) + 1)
    if A.hf != TARGET_HF:
        raise WrongHilbertFunction(f"expected Hilbert function {TARGET_HF}, got {A.hf}")
    return A


def classify(a, field: Field = QQ, allow_extension=False) -> ClassificationResult:
    """Classify the algebra k[[x1,x2]] / (x1^3*x2, x2^2 - a*x1*x2 - x1^4).

    The case analysis gives a leading witness, refined and certified here."""
    A, result = _classify_witness(a, field, allow_extension)
    certify(A, result.model, result.witness, "classification")
    return result


def _classify_witness(a, field: Field, allow_extension: bool):
    """(A, result): the algebra of a's relation and its classification, with
    the refined witness not yet certified; A is over the result's field."""
    if isinstance(a, str):
        a = parse_poly(a, 2, field)
    field = common_field(a.field, field)
    a = a.map_field(field)
    # the model truncates a at degree 6; the dropped terms of a*x1*x2 lie in
    # n^9, inside I whenever the Hilbert function is the target one
    pres = make_almost_stretched(AlmostStretchedParams(2, 3, 6, a, field.one))
    A, case, p, P, Q = _leading_witness(_target_algebra(pres), a, allow_extension)
    model = make_model(case, p=p, field=A.field)
    witness = _refine_witness(A, model, P, Q)
    return A, ClassificationResult(case, p, None if p is None else p * p,
                                   model, witness, A.field)


def _leading_witness(A: ArtinAlgebra, a: Polynomial, allow_extension: bool):
    """(A, case, p, P, Q): the algebra over the case's field, the case, its
    parameter (case2b2 only) and the leading images of x1, x2 there."""
    if not a.constant_coeff().is_zero():
        return _classify_case1(A, a, allow_extension)
    b_poly, c_poly = _split_by_vars(a)
    # x2-coordinate with the pure quadratic relation: x2' = v*x2,
    # v^2 = 1 - c*x1 (residue 1, no extension needed)
    v = nth_root(A, A.element(1) - A.element(c_poly) * A.variable(0), 2)
    x1e = A.variable(0)
    x2e = v * A.variable(1)
    d = A.element(b_poly) * v.inverse()
    dbar = d.residue()
    if dbar.is_zero():
        return _classify_case2a(A, x1e, x2e, d)
    if (dbar * dbar + 4).is_zero():
        # case2b1: the leading candidate whose square dies, x2 - (dbar/2)*x1^2
        return A, "case2b1", None, x2e - x1e * x1e * (dbar / 2), x1e
    return _classify_case2b2(A, x1e, x2e, d, allow_extension)


def _classify_case1(A: ArtinAlgebra, a: Polynomial, allow_extension: bool):
    a_el = A.element(a)
    y1, y2 = A.variable(0), A.variable(1)
    z1 = a_el * y1 - y2
    z2 = y1 ** 3 + a_el * y2
    # exactly one of z1, z2 has its 4th power falling into m^5
    if A.in_power(z2 ** 4, 5):
        u, w = z1, z2
    elif A.in_power(z1 ** 4, 5):
        u, w = z2, z1
    else:
        raise RuntimeError("case1 witness construction failed")
    ratio = _socle_ratio(A, w ** 4, u ** 6)
    field, delta = _sqrt_growing(A.field, ratio, allow_extension)
    A = extend_scalars(A, field)
    return A, "case1", None, A.element(u.poly) * delta, A.element(w.poly) * delta


def _classify_case2a(A: ArtinAlgebra, x1e, x2e, d):
    e_el = A.evaluate(_split_by_vars(d.poly)[1], [x1e.poly, x2e.poly])
    vp = nth_root(A, A.element(1) - e_el * x1e * x1e, 2)
    return A, "case2a", None, x1e, vp * x2e


def _classify_case2b2(A: ArtinAlgebra, x1e, x2e, d, allow_extension: bool):
    """The roots c of d^2 + 4 and e of -2/c have residues sqrt(dbar^2 + 4)
    and sqrt(-2/cbar), so both are adjoined on scalars first and A is
    extended once.  nth_root then takes its residue roots in the final
    field, and they are the roots adjoined here: a tower's square root of an
    element lifted from its base returns the base field's root, lifted."""
    field, cbar = _sqrt_growing(A.field, d.residue() ** 2 + 4, allow_extension)
    field, _ = _sqrt_growing(field, cbar.inverse() * (-2), allow_extension)
    A = extend_scalars(A, field)
    x1e, x2e, d = (A.element(el.poly) for el in (x1e, x2e, d))
    c = nth_root(A, d * d + 4, 2)
    e = nth_root(A, c.inverse() * (-2), 2)
    p_el = d * c.inverse()
    X = x1e * e.inverse()
    return A, "case2b2", p_el.residue(), X, x2e + p_el * X * X


# ------------------------------------------------- classification of ideals


def classify_ideal(pres: IdealPresentation, allow_extension=False, seed=0) -> ClassificationResult:
    """Classify an arbitrary presentation with the target Hilbert function.

    Pipeline: carry the almost-stretched Gorenstein model onto the input,
    push its units to 1 (normalize_units), and classify the unit-free
    coefficient a (_classify_witness).  No stage is certified on its own;
    the returned witness, their composition back to the input coordinates,
    is certified here against the input's own echelon.
    """
    A = _target_algebra(pres)
    params, w1 = _almost_stretched_witness(A, seed)
    unitfree, w2 = normalize_units(params, allow_extension=allow_extension)
    a = unitfree.a
    _, core = _classify_witness(a, a.field, allow_extension)
    total = core.witness.then(w2).then(w1)
    certify(A, core.model, total, "composite classification")
    return ClassificationResult(
        core.case, core.p, core.p_squared, core.model, total, core.field
    )


def invariant_separates(p, q, field: Field = QQ) -> bool:
    """Are the case2b2 models with parameters p and q non-isomorphic?

    The models are isomorphic exactly when p^2 = q^2.
    """
    p = field.coerce(p)
    q = p.field.coerce(q)
    return not (p * p - q * q).is_zero()


# ----------------------------------------- independent case1 criterion


def contains_split_quadric(pres: IdealPresentation) -> bool:
    """Does I, an Artinian ideal of k[[x1, x2]], contain z1*z2 for a minimal
    generating pair z1, z2 of the maximal ideal?  Independent of the main
    classification flow.  Like the factorization it rests on, the answer
    holds over k(sqrt d), d = b^2 - 4ac the discriminant of a form
    a*x1^2 + b*x1*x2 + c*x2^2 of I*_2 with d != 0.

    Proof.  z1*z2 has initial form l1*l2 with l1, l2 independent, so I*_2
    must hold a form with d != 0.  Conversely, let g in I have such an
    initial form; over k(sqrt d) it is l1*l2 with coprime factors.
    Hensel's lemma for the tangent cone (Greuel, Lossen & Shustin,
    "Introduction to Singularities and Deformations", Springer 2007, ch. I)
    lifts them: g = u*z1*z2 with u a unit and z_i of order 1 with linear
    part l_i, so z1*z2 = g/u lies in I.

    Reading it off.  dim I*_2 = 3 - hf(2).  With dim I*_2 >= 2 the answer
    is True: d is a quadratic form of rank 3 in (a, b, c), a totally
    isotropic subspace of it has dimension at most 1, so every plane of
    binary quadrics holds a form with d != 0.  With dim I*_2 = 0 it is
    False.  With dim I*_2 = 1 the echelon has one row with a degree-2
    pivot, its degree-2 part spans I*_2, and its working row is a nonzero
    multiple of it, so the d read off it differs by a nonzero square.

    In more variables the tangent cone does not decide (x1*x2 + x3^3 has
    initial form x1*x2 and is irreducible), so nvars != 2 raises
    ValueError.
    """
    if pres.nvars != 2:
        raise ValueError("contains_split_quadric needs 2 variables")
    A = build_quotient(pres)
    dim = 3 - (A.hf[2] if len(A.hf) > 2 else 0)
    if dim != 1:
        return dim > 1
    f, table = A.field, A.table
    [row] = [row for lead, row in A.ech.working.items() if table.degs[lead] == 2]
    a, b, c = (row.get(table.index[m], f.wzero) for m in ((2, 0), (1, 1), (0, 2)))
    return not f.riszero(f.rsub(f.rmul(b, b), f.rmul(f.rfrom(4), f.rmul(a, c))))
