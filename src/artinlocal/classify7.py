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
allow_extension is set (within the tower depth cap).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import WrongHilbertFunction
from .linalg import solve_dense
from .polynomials import Polynomial, RingMap, monomials_of_degree, parse_poly
from .quotient import (
    AlgebraElement,
    ArtinAlgebra,
    IdealPresentation,
    build_quotient,
    extend_scalars,
    nth_root,
)
from .scalars import Field, QQ, Scalar
from .structure import (
    AlmostStretchedParams,
    _almost_stretched_witness,
    _sqrt_growing,
    certify,
    make_almost_stretched,
    normalize_units,
    solve_scalar_combo,
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
        p = field.coerce(p) if isinstance(p, Scalar) else field.scalar(p)
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


class _Ctx:
    """Mutable classification state: an algebra that may get field-extended."""

    def __init__(self, pres: IdealPresentation, allow_extension: bool):
        self.A = build_quotient(pres, D=len(TARGET_HF) + 1)
        self.allow_extension = allow_extension

    @property
    def field(self):
        return self.A.field

    def lift(self, el: AlgebraElement) -> AlgebraElement:
        if el.algebra is self.A:
            return el
        return self.A.element(el.poly.map_field(self.field))

    def sqrt_scalar(self, c: Scalar) -> Scalar:
        field, r = _sqrt_growing(self.field, c, self.allow_extension)
        if field != self.field:
            self.A = extend_scalars(self.A, field)
        return r

    def sqrt_element(self, el: AlgebraElement) -> AlgebraElement:
        """Hensel square root of a unit, extending the field if needed."""
        self.sqrt_scalar(el.residue())  # may extend self.A
        el = self.lift(el)
        return nth_root(self.A, el, 2)


REFINE_STEPS = 15        # witness refinement steps before giving up
SPLIT_LIFT_STEPS = 10    # factor-lifting steps in contains_split_quadric


def _refine_witness(A: ArtinAlgebra, model: IdealPresentation, P, Q):
    """Correct the witness images order by order until the model generators
    vanish exactly in A.

    Each step solves the linearized system modulo m^(k+1), where k is the
    current residual order, so all residual degrees <= k are cleared (and
    lower degrees stay clear) in one exact linear solve.  Correction
    directions per image: every monomial of degree >= 2 (these span m^2)
    plus the four GL-tangent directions P and Q themselves, which realize
    unit rescalings and linear mixing of the images.  Residual order never
    decreases and the ring is nilpotent, so the loop terminates quickly.
    Returns the refined witness map x1 -> P, x2 -> Q.
    """
    f = A.field
    s = A.socle_degree
    gens = [g.map_field(f) for g in model.gens]
    dX = [_partial(g, 0) for g in gens]
    dY = [_partial(g, 1) for g in gens]
    ngen = len(gens)
    for _ in range(REFINE_STEPS):
        vals = [A.element(g.substitute([P.poly, Q.poly], A.D)) for g in gens]
        if all(v.is_zero() for v in vals):
            return RingMap([P.poly, Q.poly], A.D)
        k = min(v.poly.order() for v in vals if not v.is_zero())
        jx = [A.element(g.substitute([P.poly, Q.poly], A.D)) for g in dX]
        jy = [A.element(g.substitute([P.poly, Q.poly], A.D)) for g in dY]
        directions = []
        for coord in (0, 1):
            for m in (m for d in range(2, s + 2)
                      for m in monomials_of_degree(2, d)):
                directions.append((coord, A.element(Polynomial(2, f, {m: f.rone}))))
            directions.append((coord, P))
            directions.append((coord, Q))
        col_elems = []
        for coord, delta in directions:
            jac = jx if coord == 0 else jy
            stack = [jac[i] * delta for i in range(ngen)]
            if any(not el.is_zero() for el in stack):
                col_elems.append((coord, delta, stack))
        keep = [pos for pos, r in enumerate(A.std) if A.table.deg(r) <= k]
        rows, rhs = [], []
        col_coords = [[col[2][i].coords() for col in col_elems]
                      for i in range(ngen)]
        for i in range(ngen):
            coords = vals[i].coords()
            for pos in keep:
                rows.append([cc[pos] for cc in col_coords[i]])
                rhs.append(f.rneg(coords[pos]))
        sol = solve_dense(rows, rhs, f)
        if sol is None:
            raise RuntimeError("witness refinement hit an unsolvable correction")
        dP = Polynomial(2, f)
        dQ = Polynomial(2, f)
        for c, (coord, delta, _) in zip(sol, col_elems):
            if not f.riszero(c):
                if coord == 0:
                    dP = dP + delta.poly.scale(Scalar(f, c))
                else:
                    dQ = dQ + delta.poly.scale(Scalar(f, c))
        P = A.element(P.poly + dP)
        Q = A.element(Q.poly + dQ)
        new_vals = [A.element(g.substitute([P.poly, Q.poly], A.D)) for g in gens]
        new_k = min((v.poly.order() for v in new_vals if not v.is_zero()),
                    default=None)
        if new_k is not None and new_k < k:
            raise RuntimeError("witness refinement lost ground")
    raise RuntimeError("witness refinement did not converge")


def _partial(g: Polynomial, i: int) -> Polynomial:
    f = g.field
    terms = {}
    for m, c in g.terms.items():
        if m[i] == 0:
            continue
        mm = tuple(e - 1 if k == i else e for k, e in enumerate(m))
        cc = f.rmul(c, f.rfrom(m[i]))
        s = f.radd(terms.get(mm, f.rzero), cc)
        if f.riszero(s):
            terms.pop(mm, None)
        else:
            terms[mm] = s
    return Polynomial(2, f, terms)


# ------------------------------------------------------------- classifier


def classify(a, field: Field = QQ, allow_extension=False) -> ClassificationResult:
    """Classify the algebra k[[x1,x2]] / (x1^3*x2, x2^2 - a*x1*x2 - x1^4).

    The case analysis gives a leading witness, refined and certified here."""
    A, result = _classify_witness(a, field, allow_extension)
    certify(A, result.model, result.witness, "classification")
    return result


def _classify_witness(a, field: Field, allow_extension: bool):
    """(A, result): the algebra of a's relation and its classification, with
    the refined witness not yet certified."""
    if isinstance(a, str):
        a = parse_poly(a, 2, field)
    field = a.field if a.field.depth > field.depth else field
    a = a.map_field(field)
    # the model truncates a at degree 6; the dropped terms of a*x1*x2 lie in
    # n^9, inside I whenever the Hilbert function is the target one
    pres = make_almost_stretched(AlmostStretchedParams(2, 3, 6, a, field.one))
    ctx = _Ctx(pres, allow_extension)
    if ctx.A.hf != TARGET_HF:
        raise WrongHilbertFunction(f"got Hilbert function {ctx.A.hf}")
    case, p, P, Q = _leading_witness(ctx, a)
    A = ctx.A
    model = make_model(case, p=p, field=A.field)
    witness = _refine_witness(A, model, P, Q)
    return A, ClassificationResult(case, p, None if p is None else p * p,
                                   model, witness, A.field)


def _leading_witness(ctx: _Ctx, a: Polynomial):
    """(case, p, P, Q): the case, its parameter (case2b2 only) and the
    leading images of x1, x2 in ctx.A, whose field may have grown."""
    if not a.constant_coeff().is_zero():
        return _classify_case1(ctx, a)
    b_poly, c_poly = _split_by_vars(a)
    # x2-coordinate with the pure quadratic relation: x2' = v*x2,
    # v^2 = 1 - c*x1 (residue 1, no extension needed)
    A = ctx.A
    v = nth_root(A, A.element(1) - A.element(c_poly) * A.variable(0), 2)
    x1e = A.variable(0)
    x2e = v * A.variable(1)
    d = A.element(b_poly) * v.inverse()
    dbar = d.residue()
    if dbar.is_zero():
        return _classify_case2a(ctx, x1e, x2e, d)
    if (dbar * dbar + 4).is_zero():
        return _classify_case2b1(ctx, x1e, x2e, d)
    return _classify_case2b2(ctx, x1e, x2e, d)


def _classify_case1(ctx: _Ctx, a: Polynomial):
    A = ctx.A
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
    sol = solve_scalar_combo(A, [u ** 6], w ** 4)
    if sol is None:
        raise RuntimeError("case1 socle ratio failed")
    delta = ctx.sqrt_scalar(sol[0])
    u, w = ctx.lift(u), ctx.lift(w)
    return "case1", None, u * delta, w * delta


def _classify_case2a(ctx: _Ctx, x1e, x2e, d):
    A = ctx.A
    e_el = A.element(_split_by_vars(d.poly)[1].substitute([x1e.poly, x2e.poly], A.D))
    vp = nth_root(A, A.element(1) - e_el * x1e * x1e, 2)
    return "case2a", None, x1e, vp * x2e


def _classify_case2b1(ctx: _Ctx, x1e, x2e, d):
    # leading candidate whose square dies: x2 - (dbar/2)*x1^2
    return "case2b1", None, x2e - x1e * x1e * (d.residue() / 2), x1e


def _classify_case2b2(ctx: _Ctx, x1e, x2e, d):
    c = ctx.sqrt_element(d * d + 4)
    x1e, x2e, d = ctx.lift(x1e), ctx.lift(x2e), ctx.lift(d)
    e = ctx.sqrt_element(c.inverse() * (-2))
    x1e, x2e, d, c = ctx.lift(x1e), ctx.lift(x2e), ctx.lift(d), ctx.lift(c)
    p_el = d * c.inverse()
    X = x1e * e.inverse()
    return "case2b2", p_el.residue(), X, x2e + p_el * X * X


# ------------------------------------------------- classification of ideals


def classify_ideal(pres: IdealPresentation, allow_extension=False, seed=0) -> ClassificationResult:
    """Classify an arbitrary presentation with the target Hilbert function.

    Pipeline: carry the almost-stretched Gorenstein model onto the input,
    push its units to 1 (normalize_units), and classify the unit-free
    coefficient a (_classify_witness).  No stage is certified on its own;
    the returned witness, their composition back to the input coordinates,
    is certified here against the input's own echelon.
    """
    # D = s+2 of the target suffices in one build; another hf steps past it
    A = build_quotient(pres, D=len(TARGET_HF) + 1)
    if A.hf != TARGET_HF:
        raise WrongHilbertFunction(
            f"expected Hilbert function {TARGET_HF}, got {A.hf}"
        )
    params, w1 = _almost_stretched_witness(A, seed)
    unitfree, w2 = normalize_units(params, allow_extension=allow_extension)
    a = unitfree.a
    _, core = _classify_witness(a, a.field, allow_extension)
    final = core.field
    total = core.witness.map_field(final).then(w2.map_field(final)).then(
        w1.map_field(final)
    )
    certify(A, core.model, total, "composite classification")
    return ClassificationResult(
        core.case, core.p, core.p_squared, core.model, total, final
    )


def invariant_separates(p, q, field: Field = QQ) -> bool:
    """Are the case2b2 models with parameters p and q non-isomorphic?

    The models are isomorphic exactly when p^2 = q^2.
    """
    p = field.coerce(p) if isinstance(p, Scalar) else field.scalar(p)
    q = p.field.coerce(q) if isinstance(q, Scalar) else p.field.scalar(q)
    return not (p * p - q * q).is_zero()


# ----------------------------------------- independent case1 criterion


def contains_split_quadric(pres: IdealPresentation) -> bool:
    """Does I contain a product of two minimal generators of the maximal
    ideal?  Decided by factoring the unique leading quadric of I and lifting
    the factorization through the filtration; independent of the main
    classification flow.  I must be Artinian.

    The echelon rows with a degree-2 pivot have their degree-2 parts in the
    image of I meet n^2 in n^2/n^3, the same space at every truncation
    D > 2; when there is one such row, its degree-2 part is the quadric
    spanning that space, scaled to 1 at its lowest monomial."""
    f = pres.field
    A = build_quotient(pres)
    quadrics = [row for lead, row in A.ech.pivots.items() if A.table.deg(lead) == 2]
    if len(quadrics) != 1:
        return False
    coef = {A.table.monos[r]: c for r, c in quadrics[0].items()}
    al = coef.get((2, 0), f.rzero)
    be = coef.get((1, 1), f.rzero)
    ga = coef.get((0, 2), f.rzero)
    disc = f.rsub(f.rmul(be, be), f.rmul(f.rfrom(4), f.rmul(al, ga)))
    if f.riszero(disc):
        return False
    F, root = _sqrt_growing(f, Scalar(f, disc), True)
    rd = root.val
    al, be, ga = (F.coerce(Scalar(f, v)).val for v in (al, be, ga))
    x1 = Polynomial.variable(0, 2, F)
    x2 = Polynomial.variable(1, 2, F)
    if not F.riszero(al):
        # al*(x1 - r1*x2)(x1 - r2*x2)
        inv2a = F.rinv(F.rmul(F.rfrom(2), al))
        r1 = F.rmul(F.radd(F.rneg(be), rd), inv2a)
        r2 = F.rmul(F.rsub(F.rneg(be), rd), inv2a)
        l1 = x1 - x2.scale(Scalar(F, r1))
        l2 = x1 - x2.scale(Scalar(F, r2))
    else:
        l1 = x2
        l2 = x1.scale(Scalar(F, be)) + x2.scale(Scalar(F, ga))
    if F is not f:
        A = extend_scalars(A, F)
    z1, z2 = A.element(l1), A.element(l2)
    corr = [m for d in range(2, A.socle_degree + 1)
            for m in monomials_of_degree(2, d)]
    mus = [A.element(Polynomial(2, F, {m: F.rone})) for m in corr]
    for _ in range(SPLIT_LIFT_STEPS):
        r = z1 * z2
        if r.is_zero():
            return True
        sol = solve_scalar_combo(A, [z2 * mu for mu in mus] + [z1 * mu for mu in mus], -r)
        if sol is None:
            return False
        q1, q2 = (Polynomial(2, F, {m: c.val for m, c in zip(corr, part) if not c.is_zero()})
                  for part in (sol[:len(corr)], sol[len(corr):]))
        z1 = A.element(z1.poly + q1)
        z2 = A.element(z2.poly + q2)
    return False
