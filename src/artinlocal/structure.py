"""Canonical models and normal forms for stretched and almost-stretched
Artinian local algebras.

"Stretched" means the square of the maximal ideal is principal
(Hilbert function (1, h, 1, ..., 1)); "almost stretched" means it needs two
generators (Hilbert function (1, h, 2, ..., 2, 1, ..., 1)).  Both classes
admit canonical ideal presentations parameterized by a handful of scalars,
and every algebra in the class can be carried onto its canonical model by an
explicit change of coordinates.  This module builds the models (only
make_stretched and make_almost_stretched know their syntax).  Its stages
recover the parameters of an arbitrary presentation together with a witness
coordinate change, and do not certify it: normalize certifies the witness
it returns, once (see certify), and classify7.classify_ideal certifies the
composite of the stages it chains.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import (
    CertificationFailed,
    FieldExtensionRequired,
    NotAlmostStretched,
    NotGorenstein,
    NotStretched,
    SearchExhausted,
)
from .linalg import SparseEchelon, solve_dense
from .polynomials import Polynomial, RingMap, monomials_of_degree
from .quotient import (
    AlgebraElement,
    ArtinAlgebra,
    IdealPresentation,
    build_quotient,
    extend_scalars,
    macaulay_echelon,
    nth_root,
)
from .scalars import Field, QQ, Scalar, adjoin_sqrt, common_field


# ------------------------------------------------------------------ models


@dataclass(frozen=True)
class StretchedParams:
    """Data of the canonical stretched model: embedding dimension h, socle
    degree s, Cohen-Macaulay type tau, and (for tau < h) the unit scalars
    attached to the non-socle square generators."""

    h: int
    s: int
    tau: int
    units: tuple = ()

    def __post_init__(self):
        if self.h < 1 or self.s < 2 or not 1 <= self.tau <= self.h:
            raise ValueError("need h >= 1, s >= 2, 1 <= tau <= h")
        want = self.h - self.tau if self.tau < self.h else 0
        if len(self.units) != want:
            raise ValueError(f"expected {want} unit scalars, got {len(self.units)}")
        for u in self.units:
            if not isinstance(u, Scalar) or u.is_zero():
                raise ValueError("units must be nonzero Scalars")

    @property
    def field(self) -> Field:
        f = QQ
        for u in self.units:
            f = common_field(f, u.field)
        return f


def make_stretched(params: StretchedParams) -> IdealPresentation:
    """Canonical stretched ideal with the given parameters."""
    h, s, tau = params.h, params.s, params.tau
    f = params.field
    x = [Polynomial.variable(i, h, f) for i in range(h)]
    gens = []
    if tau == h:
        gens += [x[0] * x[j] for j in range(1, h)]
        gens += [x[i] * x[j] for i in range(1, h) for j in range(i, h)]
        gens.append(x[0] ** (s + 1))
    else:
        gens += [x[i] * x[j] for i in range(h) for j in range(i + 1, h)]
        gens += [x[j] * x[j] for j in range(1, tau)]
        xs = x[0] ** s
        for k, u in enumerate(params.units):
            i = tau + k
            gens.append(x[i] * x[i] - xs.scale(u))
    return IdealPresentation(gens, h, f)


@dataclass(frozen=True)
class AlmostStretchedParams:
    """Data of the canonical almost-stretched Gorenstein model.

    a is a polynomial in the first two variables (the coefficient of x1*x2
    in the distinguished quadratic relation), w is the unit scalar in front
    of x1^(s-t+1), and units holds the scalars for x3..xh.
    """

    h: int
    t: int
    s: int
    a: Polynomial
    w: Scalar
    units: tuple = ()

    def __post_init__(self):
        if self.h < 2 or self.t < 2 or self.s < self.t + 1:
            raise ValueError("need h >= 2, t >= 2, s >= t + 1")
        if len(self.units) != self.h - 2:
            raise ValueError(f"expected {self.h - 2} unit scalars")
        if not isinstance(self.w, Scalar) or self.w.is_zero():
            raise ValueError("w must be a nonzero Scalar")
        for u in self.units:
            if not isinstance(u, Scalar) or u.is_zero():
                raise ValueError("units must be nonzero Scalars")
        if self.a.nvars != self.h:
            raise ValueError("a must live in the ambient variable count")
        for m in self.a.terms:
            if any(m[2:]):
                raise ValueError("a may involve only the first two variables")

    @property
    def field(self) -> Field:
        f = common_field(self.w.field, self.a.field)
        for u in self.units:
            f = common_field(f, u.field)
        return f


def make_almost_stretched(params: AlmostStretchedParams) -> IdealPresentation:
    """Canonical almost-stretched Gorenstein ideal with the given data."""
    h, t, s = params.h, params.t, params.s
    f = params.field
    x = [Polynomial.variable(i, h, f) for i in range(h)]
    a = params.a.map_field(f).truncate(s)
    gens = []
    gens += [x[0] * x[j] for j in range(2, h)]
    gens += [x[i] * x[j] for i in range(1, h) for j in range(i + 1, h)]
    xs = x[0] ** s
    for k, u in enumerate(params.units):
        j = 2 + k
        gens.append(x[j] * x[j] - xs.scale(u))
    quad = x[1] * x[1] - a * x[0] * x[1] - (x[0] ** (s - t + 1)).scale(params.w)
    gens.append(quad)
    gens.append(x[0] ** t * x[1])
    return IdealPresentation(gens, h, f)


def make_1321_models():
    """The two algebras with Hilbert function (1, 3, 2, 1): one with a
    split quadric relation, one with a double line."""
    first = IdealPresentation.from_strings(
        ["x1*x2", "x1*x3", "x2*x3", "x1^3 - x2^3", "x3^2 - x2^3"], 3
    )
    second = IdealPresentation.from_strings(
        ["x1^3", "x2^2", "x2*x3", "x1*x3", "x3^2 - x1^2*x2"], 3
    )
    return first, second


# ------------------------------------------------------------ certificates


def certify(A: ArtinAlgebra, model: IdealPresentation, witness: RingMap, what: str):
    """Raise CertificationFailed unless the witness phi carries the model
    ideal J onto the ideal I of A (with A's scalars extended to phi's field).

    Proof, with s the socle degree, so n^(s+1) <= I (hf(s+1) = 0):
    * phi has invertible linear part and no constant terms, so it is an
      automorphism of k[[x]] fixing every n^j: phi(J) + n^(s+2) and
      J + n^(s+2) have the same colength.
    * Each g(phi), g a model generator, is 0 in A (A.evaluate) exactly
      when it lies in I.  So phi(J) + n^(s+2) <= I.
    * The model's echelon from s+2 must give colength(J + n^(s+2)) =
      A.length = colength(I).  Its counts sum to that colength even where
      it lowers its cap to j+1 < s+2: degree j is full, so n^j <= J +
      n^(s+2) (see macaulay_echelon), and the colength is that of the
      degrees below j.  Then the inclusion is an equality,
      I = phi(J) + n^(s+2), and n^(s+2) = n * n^(s+1) <= nI, so
      I = phi(J) + nI and Nakayama gives phi(J) = I.
    Conversely phi(J) = I passes every check.
    """
    if not witness.is_invertible():
        raise CertificationFailed(f"{what} witness is not invertible")
    f = common_field(A.field, witness.field)
    A = extend_scalars(A, f)
    for g in model.gens:
        if not A.evaluate(g, witness.images).is_zero():
            raise CertificationFailed(
                f"{what} failed certification: a model generator maps outside the ideal")
    if sum(macaulay_echelon(model, A.socle_degree + 2)[3]) != A.length:
        raise CertificationFailed(
            f"{what} failed certification: the model has another colength")


# ----------------------------------------------------------- unit rescaling


def _sqrt_growing(field: Field, u: Scalar, allow_extension: bool):
    """Square root of u, possibly adjoining it (within the depth cap)."""
    u = field.coerce(u)
    r = u.sqrt()
    if r is not None:
        return field, r
    if not allow_extension:
        raise FieldExtensionRequired(f"sqrt({u!r}) not in {field!r}")
    field = adjoin_sqrt(field, u)
    r = field.coerce(u).sqrt()
    assert r is not None
    return field, r


def normalize_units(params, allow_extension=False):
    """Carry a canonical model onto the one with every unit parameter 1.

    params is a StretchedParams or an AlmostStretchedParams.  Returns
    (unit_free_params, witness), where the witness phi maps the variables of
    make_*(unit_free_params) into those of make_*(params):
    * stretched: every unit u_i becomes 1, by x_i -> x_i / sqrt(u_i);
    * almost stretched: w and u_3..u_h become 1, by x2 -> x2 / v with
      v^2 = w and x_i -> x_i / sqrt(u_i), and a is conjugated to
      a'(x1, x2) = v^-1 a(x1, v x2).
    A square root missing from the field raises FieldExtensionRequired,
    unless allow_extension adjoins it.

    The witness is exact, so it is not certified: phi sends each generator
    of make_*(unit_free_params) to a nonzero scalar multiple of the one at
    the same index in make_*(params).  A monomial goes to a multiple of
    itself, x_i^2 - x1^s to (x_i^2 - u_i x1^s) / u_i, and x2^2 - a' x1 x2 -
    x1^(s-t+1) to (x2^2 - a x1 x2 - w x1^(s-t+1)) / w, as a'(x1, x2/v) =
    a(x1, x2) / v.  The conjugation keeps the degree of every term of a, so
    it commutes with the truncation of a at s.
    """
    stretched = isinstance(params, StretchedParams)
    field = params.field
    roots = []
    for u in ([] if stretched else [params.w]) + list(params.units):
        field, r = _sqrt_growing(field, u, allow_extension)
        roots.append(r)
    scales = [field.coerce(r).inverse() for r in roots]
    ones = tuple(field.one for _ in params.units)
    h = params.h
    if stretched:
        new = StretchedParams(h, params.s, params.tau, ones)
        scales = [field.one] * params.tau + scales
    else:
        v = field.coerce(roots[0])
        a = Polynomial(h, field, {m: field.rmul(c, (v ** (m[1] - 1)).val)
                                  for m, c in params.a.map_field(field).terms.items()})
        new = AlmostStretchedParams(h, params.t, params.s, a, field.one, ones)
        scales = [field.one] + scales
    images = [Polynomial.variable(i, h, field).scale(c) for i, c in enumerate(scales)]
    return new, RingMap(images, params.s + 2)


# ---------------------------------------------------------- generic search


def _graded_classes_independent(A: ArtinAlgebra, elems, j) -> bool:
    """Are the classes of the given elements independent modulo m^(j+1)?

    The coordinate span of m^(j+1) is that of the standard monomials of
    degree > j (see ArtinAlgebra.in_power), so it suffices that the
    coordinates at the positions of degree <= j are independent.
    """
    low = sum(A.hf[:j + 1])
    ech = SparseEchelon(A.field)
    for el in elems:
        row = {i: c for i, c in enumerate(el.coords()[:low]) if not A.field.riszero(c)}
        if not ech.add(row):
            return False
    return True


def _candidate_linears(A: ArtinAlgebra, rng):
    for i in range(A.nvars):
        yield A.variable(i)
    while True:
        el = A.element(0)
        for i in range(A.nvars):
            c = rng.randint(-3, 3)
            if c:
                el = el + A.variable(i) * c
        if el.poly.linear_row():
            yield el


def _ladder(x: AlgebraElement, n: int):
    """[1, x, x^2, ..., x^n] for n >= 1, each power the one before times x."""
    out = [x.algebra.element(1), x]
    for _ in range(n - 1):
        out.append(out[-1] * x)
    return out


LEAN_BASIS_BUDGET = 100  # linear candidates tried before the search gives up


def find_lean_basis(A: ArtinAlgebra, seed=0):
    """A power element x1 (and, in the almost-stretched case, a partner x2)
    generating the powers of the maximal ideal degreewise.

    Generic linear combinations work; the search is a seeded scan over
    coordinate variables followed by random small-integer combinations.
    The powers of each power candidate are taken once, from one ladder,
    which is returned with the elements: ([x1] or [x1, x2], [1, x1, ...,
    x1^s]).  A stretched algebra takes the first power element; an
    almost-stretched one also searches it a partner, and every candidate
    drawn, power or partner, counts against LEAN_BASIS_BUDGET.
    """
    s = A.socle_degree
    if s < 2:
        raise NotStretched("socle degree below 2")
    rng = random.Random(seed)
    stretched = A.is_stretched()
    if not stretched and not A.is_almost_stretched():
        raise NotAlmostStretched("m^2 is not 2-generated")
    t = max((j for j in range(2, len(A.hf)) if A.hf[j] == 2), default=1)
    # A power element alone may admit no partner (its multiples can die
    # early), so on partner failure the power element is rechosen.
    power_cands = _candidate_linears(A, rng)
    spent = 0
    found_power = False
    while spent < LEAN_BASIS_BUDGET:
        x1 = next(power_cands)
        spent += 1
        powers = _ladder(x1, s)
        if powers[s].is_zero():
            continue
        if stretched:
            return [x1], powers
        found_power = True
        partner_cands = _candidate_linears(A, rng)
        for _ in range(20):
            x2 = next(partner_cands)
            spent += 1
            ok = all(
                _graded_classes_independent(A, [powers[j], powers[j - 1] * x2], j)
                for j in range(2, t + 1)
            )
            if ok:
                return [x1, x2], powers
    if not found_power:
        raise SearchExhausted("no power element found")
    raise SearchExhausted("no lean partner element found")


# ----------------------------------------------------- element linear algebra


def solve_scalar_combo(A: ArtinAlgebra, columns, rhs: AlgebraElement):
    """Scalars c_i with sum_i c_i * columns[i] = rhs, or None if there are
    none: one solve_dense on the columns' coordinates.  When the columns are
    independent, as in the witness stages, the solution is the only one."""
    cols = [col.coords() for col in columns]
    rows = [[col[r] for col in cols] for r in range(A.length)]
    sol = solve_dense(rows, rhs.coords(), A.field)
    return None if sol is None else [Scalar(A.field, c) for c in sol]


def _clear_product(A: ArtinAlgebra, el, rhs, columns, shifts, what):
    """el - sum_i c_i * shifts[i], where sum_i c_i * columns[i] = rhs.

    The witness stages pass rhs = y * el and columns[i] = y * shifts[i],
    so the result r has y * r = 0.  Their columns are powers of x1 (and
    products x1^j * x2), a basis of a power of m that holds rhs, so the
    c_i exist and are unique.  RuntimeError if there are none.
    """
    sol = solve_scalar_combo(A, columns, rhs)
    if sol is None:
        raise RuntimeError(f"could not clear {what}")
    for c, sh in zip(sol, shifts):
        if not c.is_zero():
            el = el - sh * c
    return el


def _socle_ratio(A: ArtinAlgebra, prod: AlgebraElement, base: AlgebraElement):
    """Scalar c with prod = c * base, where base spans m^s and hf(s) = 1.

    m^s is then spanned by one standard monomial, the last position (see
    ArtinAlgebra.in_power), so c is the ratio of the last coordinates.
    RuntimeError if prod has another nonzero coordinate or base's is 0.
    """
    f = A.field
    p, b = prod.coords(), base.coords()
    if f.riszero(b[-1]) or not all(f.riszero(c) for c in p[:-1]):
        raise RuntimeError("product does not lie on the socle line")
    return Scalar(f, f.rdiv(p[-1], b[-1]))


# -------------------------------------------------------------- normalizers


def _diagonalize_units(A: ArtinAlgebra, zs, base: AlgebraElement):
    """Diagonalize the unit form z_i * z_j = U_ij * base by a congruence
    on the elements themselves.

    Step k reads each U entry off the current elements (_socle_ratio).  If
    U_kk = 0, z_k is swapped with the first later z_j with U_jj != 0;
    failing one, z_k gains the first later z_j with U_kj != 0, and then
    U_kk = 2 U_kj != 0, as every later U_jj is 0.  Then every later z_j
    loses (U_kj / U_kk) * z_k, which makes U_kj = 0; no later step changes
    z_k or U_kk.  Returns the new elements and the diagonal units, which
    must all be nonzero.
    """
    zs = list(zs)
    n = len(zs)

    def u(i, j):
        return _socle_ratio(A, zs[i] * zs[j], base)

    units = []
    for k in range(n):
        ukk = u(k, k)
        if ukk.is_zero():
            j = next((j for j in range(k + 1, n) if not u(j, j).is_zero()), None)
            if j is not None:
                zs[k], zs[j] = zs[j], zs[k]
            else:
                j = next((j for j in range(k + 1, n) if not u(k, j).is_zero()), None)
                if j is None:
                    raise RuntimeError("degenerate square unit in the unit form")
                zs[k] = zs[k] + zs[j]
            ukk = u(k, k)
        for j in range(k + 1, n):
            ukj = u(k, j)
            if not ukj.is_zero():
                zs[j] = zs[j] - zs[k] * (ukj / ukk)
        units.append(ukk)
    return zs, tuple(units)


def _complete_basis(A: ArtinAlgebra, fixed, cands, count):
    """Extend the linear parts of `fixed` by those of count candidates, each
    kept when its class in m/m^2 is independent of those kept before it;
    returns the candidates kept.

    The linear part of a normal form holds its coordinates at the standard
    monomials of degree 1, which are its class in m/m^2 (see
    _graded_classes_independent).  With the coordinate variables as
    candidates this ends at a basis of m/m^2, embdim - len(fixed) variables
    later, as their classes span it.  RuntimeError if the candidates fall
    short of count.
    """
    ech = SparseEchelon(A.field)
    for el in fixed:
        if not ech.add(el.poly.linear_row()):
            raise RuntimeError("fixed elements are linearly dependent mod m^2")
    out = []
    for cand in cands:
        if len(out) == count:
            break
        if ech.add(cand.poly.linear_row()):
            out.append(cand)
    if len(out) != count:
        raise RuntimeError("candidates do not complete the classes in m/m^2")
    return out


def _stretched_witness(A: ArtinAlgebra, seed):
    """Parameters of A's stretched model and an uncertified witness, which
    sends x_(i+1) to the i-th element of the constructed basis.

    The powers x1^2, ..., x1^s of the lean element are a basis of m^2
    (Sally, "Stretched Gorenstein rings", 1979).  Proof: x1^s != 0
    (find_lean_basis).  If x1^j lay in m^(j+1) for some 2 <= j <= s, then
    x1^s would lie in m^(s+1) = 0; so x1^j spans m^j / m^(j+1), of
    dimension hf(j) = 1, and as m^(s+1) = 0 these s - 1 = sum(hf[2:])
    powers are a basis of m^2.  So x1 * z in m^2 is sum_j c_j x1^j for
    unique scalars, and z - sum_j c_j x1^(j-1) has x1 * z = 0.  Any other
    z - x1 * w with x1 * (z - x1 * w) = 0 differs from it by x1 * e with
    x1^2 * e = 0, so every z_i * z_j, and with them the unit form, is the
    same for either choice.
    """
    h, s, tau = A.embdim, A.socle_degree, A.cm_type
    (x1,), p1 = find_lean_basis(A, seed=seed)
    # socle elements with independent classes mod m^2
    ys = _complete_basis(A, [x1], A.socle()[1], tau - 1)
    zs = _complete_basis(A, [x1] + ys, map(A.variable, range(A.nvars)), h - tau)
    # arrange x1 * z_j = 0
    zs = [_clear_product(A, z, x1 * z, p1[2:], p1[1:s], "x1*z products") for z in zs]
    units = ()
    if tau < h:
        zs, units = _diagonalize_units(A, zs, p1[s])
    params = StretchedParams(h, s, tau, units)
    images = [x1.poly] + [y.poly for y in ys] + [z.poly for z in zs]
    return params, RingMap(images, A.D)


def _almost_stretched_witness(A: ArtinAlgebra, seed):
    """Parameters of A's almost-stretched Gorenstein model and an
    uncertified witness onto it.

    m^2 has the basis x1^j (2 <= j <= s) and x1^(j-1) * x2 (2 <= j <= t),
    and m^(t+1) the basis x1^j (t < j <= s) (Elias and Valla, "Structure
    theorems for certain Gorenstein ideals", 2008).  Proof: find_lean_basis
    gives x1^s != 0 and, for 2 <= j <= t, classes of x1^j and x1^(j-1) * x2
    independent mod m^(j+1), a basis of m^j / m^(j+1) as hf(j) = 2.  For
    t < j <= s, hf(j) = 1 and x1^j spans m^j / m^(j+1), as x1^j in
    m^(j+1) would put x1^s in m^(s+1) = 0.  As m^(s+1) = 0, lifts of
    bases of every m^j / m^(j+1), 2 <= j <= s (or t < j <= s), together
    form a basis of m^2 (or m^(t+1)): sum(hf[2:]) columns (or
    sum(hf[t+1:])).  So x1 * z = sum_j c_j x1^j + sum_j d_j x1^(j-1) x2
    has one solution, and z - sum_j c_j x1^(j-1) - sum_j d_j x1^(j-2) x2
    has x1 * z = 0; x1^t * x2 in m^(t+1) is sum_j c_j x1^j, and
    x2 - sum_j c_j x1^(j-t) has x1^t * x2 = 0.
    """
    if not A.gorenstein:
        raise NotGorenstein(f"Cohen-Macaulay type is {A.cm_type}")
    h, s = A.embdim, A.socle_degree
    t = max(j for j in range(2, len(A.hf)) if A.hf[j] == 2)
    if s < t + 1:
        raise NotGorenstein("socle degree equals the last 2-slot")
    (x1, x2), p1 = find_lean_basis(A, seed=seed)
    zs = _complete_basis(A, [x1, x2], map(A.variable, range(A.nvars)), h - 2)
    # arrange x1 * z_j = 0, then x1^t * x2 = 0
    x2s = [p1[j] * x2 for j in range(t)]
    cols, shifts = p1[2:] + x2s[1:], p1[1:s] + x2s[:-1]
    zs = [_clear_product(A, z, x1 * z, cols, shifts, "x1*z products") for z in zs]
    x2 = _clear_product(A, x2, p1[t] * x2, p1[t + 1:], p1[1:s - t + 1], "x1^t*x2")
    units = ()
    if h > 2:
        base = p1[s]
        zs, units = _diagonalize_units(A, zs, base)
        # make x2 orthogonal to the z's
        for k, z in enumerate(zs):
            akj = _socle_ratio(A, x2 * z, base)
            x2 = x2 - z * (akj / units[k])
    # solve x2^2 = a(x1, x2)*x1*x2 + w(x1)*x1^(s-t+1)
    a_monos = [m for d in range(0, s - 1) for m in monomials_of_degree(2, d)]
    w_exps = list(range(0, t - 1)) or [0]

    def solve_relation(x2_el, scalar_w):
        p2 = _ladder(x2_el, s - 1)
        cols = [p1[i + 1] * p2[k + 1] for (i, k) in a_monos]
        wslots = [0] if scalar_w else w_exps
        for k in wslots:
            cols.append(p1[s - t + 1 + k])
        sol = solve_scalar_combo(A, cols, p2[2])
        if sol is None:
            return None
        return sol[:len(a_monos)], sol[len(a_monos):]

    res = solve_relation(x2, scalar_w=False)
    if res is None:
        raise RuntimeError("distinguished quadratic relation is unsolvable")
    a_coeffs, w_coeffs = res
    if any(not c.is_zero() for c in w_coeffs[1:]):
        w_el = A.element(0)
        for k, c in zip(w_exps, w_coeffs):
            w_el = w_el + p1[k] * c
        w0 = w_coeffs[0]
        if w0.is_zero():
            raise RuntimeError("unit coefficient has zero residue")
        v = nth_root(A, w_el.inverse() * w0, 2)
        x2 = x2 * v
        res = solve_relation(x2, scalar_w=True)
        if res is None:
            raise RuntimeError("scalar-unit relation unsolvable after rescaling")
        a_coeffs, w_coeffs = res
    w = w_coeffs[0]
    if w.is_zero():
        raise RuntimeError("unit coefficient vanished")
    a_poly = Polynomial(h, A.field, {m + (0,) * (h - 2): c.val
                                     for m, c in zip(a_monos, a_coeffs)})
    params = AlmostStretchedParams(h, t, s, a_poly, w, units)
    images = [x1.poly, x2.poly] + [z.poly for z in zs]
    return params, RingMap(images, A.D)


def normalize(pres_or_algebra, seed=0):
    """(kind, params, witness) onto the canonical model that A's Hilbert
    function picks.  The stage of that kind builds the witness, which is
    certified here, once (see certify)."""
    A = (pres_or_algebra if isinstance(pres_or_algebra, ArtinAlgebra)
         else build_quotient(pres_or_algebra))
    if A.is_stretched():
        kind, stage, make = "stretched", _stretched_witness, make_stretched
    elif A.is_almost_stretched():
        kind, stage, make = ("almost_stretched", _almost_stretched_witness,
                             make_almost_stretched)
    else:
        raise NotStretched(f"Hilbert function {A.hf} fits neither normal form")
    params, witness = stage(A, seed)
    certify(A, make(params), witness, f"{kind} normalization")
    return kind, params, witness
