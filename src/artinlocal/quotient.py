"""Artinian quotients A = k[[x1..xh]]/I by exact truncated linear algebra.

The ideal is given by power-series generators (polynomials, regarded as
truncations).  For a truncation degree D we echelonize the span of
{m * g : g generator, m monomial, deg(m) + ord(g) < D}; that span equals
(I + n^D)/n^D where n is the maximal ideal of the power-series ring.  The
non-pivot ("standard") monomials of degree < D form a vector-space basis of
R/(I + n^D), and in every degree below D they count the Hilbert function of
A itself (see build_quotient).

One such echelon per ideal carries every invariant (the method of Lazard,
"Groebner bases, Gaussian elimination and resolution of systems of algebraic
equations", 1983).  The row of m*g is a variable shift of the stored row
of a divisor (m/x_i)*g, and a multiple is not tried when a divisor's row
reduced to zero, since its own row would too.  The multiples of the
single-term generators c*x^a, most generators of the canonical models
and every generator of a lex segment, go in first as one batch: they are
the unit rows of the monomials of nM below D, M the ideal of those x^a,
found by one search over the table's shifts, and stored as they are,
with no reduction, since none can hit a pivot (see macaulay_echelon).
Write s for the socle degree; every build ends at D = s+2.  The echelon
lowers its cap to j+1 as soon as every monomial of some degree j is a pivot
(then n^j <= I); the build starts at the max degree + 2, or at a given D,
and steps D up by one while hf has no zero below it; fewer generators than
variables are rejected at once (see build_quotient).

* Hilbert function.  The pivot of a row is its lowest monomial, so the pivot
  set is the set of lowest monomials of the nonzero elements of the span.
  It does not depend on the order in which rows are inserted, and neither do
  hf, the standard basis or any normal form.
* v(I) = dim I/nI.  The rows with a multiplier of degree >= 1 span
  (nI + n^D)/n^D; they go in first (those of the single-term generators
  as the batch of unit rows of nM), and the rank the generators then add
  is dim (I + n^D)/(nI + n^D).  Since hf(s+1) = 0, Nakayama gives
  n^(s+1) <= I, so n^D <= n * n^(s+1) <= nI and that rank is dim I/nI.
* Leading forms.  For j < D, the rows whose pivot has degree j have all
  their terms in degree >= j; their degree-j parts are leading forms of
  elements of I, they are triangular in their pivots, and there are
  C(h-1+j, j) - hf(j) = dim I*_j of them, so they are a basis of I*_j.
  For j >= s+1, n^j <= I gives I*_j = all forms of degree j.  The
  generators of I* born in degree j are counted on the smaller side: the
  x_i-shifts of that basis of I*_(j-1), or the dual count, which takes
  h * hf(j-1) unknowns from the kernel vectors of the same rows, one per
  standard monomial (Macaulay duality, see leading_forms).
* Socle.  The shifts x_i*m of the standard monomials m of degree < s are
  sorted first: a standard shift is its own coordinate vector, and a pivot
  whose row has one entry is a monomial of I, so only the other shifts are
  reduced.  One nullspace runs on the rows of two or more entries, without
  the columns that a row of one entry, most often a lone standard shift,
  forces to 0 (see ArtinAlgebra.socle).

All downstream invariants (socle, Cohen-Macaulay type, minimal generator
counts, leading-form ideals, Hensel root lifting) are driven by this basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import NotArtinian, ResidueNotPower
from .linalg import (
    MonomialTable,
    SparseEchelon,
    _kernel_vector,
    nullspace,
    poly_from_row,
    row_from_poly,
    same_row_space,
)
from .polynomials import (
    Polynomial,
    _wmul,
    mono_key,
    parse_poly,
)
from .scalars import Field, QQ, Scalar, _power, common_field

D_MAX = 32


class IdealPresentation:
    """A finite list of generators of an ideal inside the maximal ideal."""

    __slots__ = ("nvars", "field", "gens")

    def __init__(self, gens, nvars=None, field=None):
        gens = list(gens)
        if not gens:
            raise ValueError("need at least one generator")
        if nvars is None:
            nvars = gens[0].nvars
        if field is None:
            field = common_field(*(g.field for g in gens))
        gens = [g.map_field(field) for g in gens]
        for g in gens:
            if g.nvars != nvars:
                raise ValueError("generators live in different rings")
            if g.is_zero():
                raise ValueError("zero generator")
            if not g.constant_coeff().is_zero():
                raise ValueError("generators must lie in the maximal ideal")
        self.nvars = nvars
        self.field = field
        self.gens = tuple(gens)

    @classmethod
    def from_strings(cls, texts, nvars, field=QQ):
        return cls([parse_poly(t, nvars, field) for t in texts], nvars, field)

    @property
    def max_degree(self) -> int:
        return max(g.degree() for g in self.gens)

    def map_field(self, field: Field) -> "IdealPresentation":
        return IdealPresentation(
            [g.map_field(field) for g in self.gens], self.nvars, field
        )

    def __repr__(self):
        return f"IdealPresentation({', '.join(repr(g) for g in self.gens)})"


def macaulay_echelon(pres: IdealPresentation, D: int):
    """Echelonized span of {m*g : deg(m)+ord(g) < D}, with the rank v the
    generators add on top of the rows of nI (deg(m) >= 1), which go in first.

    The rows m*g with deg(m) >= 1 of the single-term generators g = c*x^a
    go in before any other row, as one batch of unit rows.  Let M be the
    ideal of those generators' monomials.  Each such row, cut below D, is
    c times the unit row of the monomial m*x^a of nM, or zero; and each
    monomial of nM is x_i*u with u a multiple of some x^a, so such an m*x^a.
    So the batch, the unit rows of the monomials of nM below D, spans the
    rows of nI of the single-term generators.  Those monomials are the
    ranks that one or more steps of table.shift reach from the generators'
    ranks, found by one search.  The batch goes in first, in rank order:
    distinct unit rows on an empty echelon are an echelon basis of their
    span, each its own full reduction, so SparseEchelon.add_units stores
    them with no scan, as add would store them one by one, and each takes
    one from hf at its degree.  A presentation with no single-term
    generator has an empty batch.

    The other generators' rows then go in generator by generator,
    multipliers m in table order, and a row of m*g is not tried when the
    row of a divisor (m/x_i)*g with deg(m/x_i) >= 1 was rejected or
    skipped (Lazard's criterion).  That row lies in the span of the rows
    before it (if skipped, by induction); the order on (g, m) is
    multiplicative, so m*g lies in the span of their x_i-shifts, each
    earlier or zero mod n^D: the x_i-shift of a batch row is a batch row
    (nM is closed under x_i) or zero mod n^D.  A rejected row changes
    nothing, so the pivot rows, their order and v are those of trying every
    row in this order: the single-term generators' rows m*g in the rank
    order of m*x^a (the row of a monomial already in is rejected), then
    every m*g of the other generators, then the generators.

    The multipliers go one degree at a time.  The candidates of degree d+1
    are the shifts x_i*m of the multipliers m of degree d whose rows were
    kept (m = 1 is always kept).  A multiplier m' of degree d+1 is hit once
    for each x_i in its support with m'/x_i kept, so it is tried exactly
    when its hits number the variables in its support, which is when every
    divisor was kept: the rule above.  Within a degree the candidates go in
    ascending rank, and table ranks ascend with degree, so the rows tried
    and their order are those of the rule above in table order.  The row of
    m'*g is the x_i-shift of the row of m*g, truncated below D: the same
    terms in the same order for every such i.  Each generator row is put in
    the field's working form once, and its shifts are added in that form.

    The cap comes down as soon as a degree fills.  After each degree of
    multipliers, and once more at the end, let j < D-1 be the least degree
    whose every monomial is a pivot.  The pivot rows of degree j are
    elements of I + n^D, zero below degree j, whose degree-j parts are
    triangular in their pivots, so they span every form of degree j:
    n^j <= I + n^(j+1), and n^j <= I by Nakayama.  The cap becomes
    D' = j+1, and the pivot rows, the rows of the degree's kept multiples
    and the generator rows are cut below D' (SparseEchelon.truncate).  The
    cut pivot rows are an echelon basis of the cut span, and every row
    tried or skipped so far is, cut, an m*g mod n^D' that it holds or that
    Lazard's criterion puts in it (a relation mod n^D holds mod n^D'); the
    batch cut below D' is the batch at D'.  So the build goes on at D' with
    the next degree and the later generators, on the (h, D') table, whose
    ranks are those of D below D', and it ends with the echelon of
    (I + n^D')/n^D'.  v is still dim I/nI, as n^D' = n * n^j <= nI.  At
    the end, a full degree is a zero of hf, and hf's first zero is s+1; so
    whenever s+2 <= D the echelon ends at D = s+2.

    hf[j] counts the non-pivots of each degree j below the cap, from
    C(h+j-1, j) down: a batch row is stored under its own rank, and a row
    that add keeps under a new pivot, the last key of ech.leads (dicts keep
    insertion order); either way that pivot's degree loses one.  A rejected
    row changes no pivot, and a cut to D' removes exactly the pivots, and
    the counts, of degree >= D'.  A full degree is a zero.

    So the final cap is one more than the least full degree of I + n^D
    below D-1, or D if there is none: the final echelon holds I*_j for
    every j below it, and no full degree is left below its cap less one.

    Returns (table, ech, v, hf), table the final one, D = table.D and hf
    the D counts; v = dim I/nI whenever n^D <= nI.
    """
    f, h = pres.field, pres.nvars
    table = MonomialTable(h, D)
    ech = SparseEchelon(f)
    gen_rows = [f.wrow(row_from_poly(g, table)) for g in pres.gens]
    hf = [comb(h + j - 1, j) for j in range(D)]
    leads, degs = ech.leads, table.degs  # the ranks of degs are the same at every cap

    def add(row, scale):
        if not ech.add(row, scale):
            return False
        hf[degs[next(reversed(leads))]] -= 1
        return True

    def cut():
        """For the least full degree j < table.D - 1, if any, cut the
        table, the echelon, the generator rows and hf at the cap j+1 and
        return the end C(h+j, h) of the ranks kept; else None."""
        nonlocal table, gen_rows
        j = next((j for j in range(1, table.D - 1) if not hf[j]), None)
        if j is None:
            return None
        table, end = MonomialTable(h, j + 1), comb(h + j, h)
        ech.truncate(end)
        gen_rows = [({r: v for r, v in w.items() if r < end}, scale) for w, scale in gen_rows]
        del hf[j + 1:]
        return end

    single = [len(g.terms) == 1 for g in pres.gens]
    batch, layer = set(), {k for one, (w, _) in zip(single, gen_rows) if one for k in w}
    while layer:
        layer = {c for k in layer for shift in table.shift if (c := shift[k]) is not None} - batch
        batch |= layer
    ech.add_units(sorted(batch))
    for k in batch:
        hf[degs[k]] -= 1
    for i in range(len(gen_rows)):
        row = gen_rows[i][0]
        if single[i] or not row:
            continue
        layer = {0: gen_rows[i]}  # multiplier rank -> working row of m*g, for the rows kept
        d = table.degs[min(row)] + 1  # the degree of m*g for the next multipliers m
        while d < table.D:
            support, shifts = table.support, table.shift
            hits, source = {}, {}
            for k, work in layer.items():
                for shift in shifts:
                    c = shift[k]
                    if c in hits:
                        hits[c] += 1
                    else:
                        hits[c] = 1
                        source[c] = shift, work
            layer = {}
            for c in sorted(hits):
                if hits[c] == support[c]:
                    shift, (w, scale) = source[c]
                    w = {shift[r]: v for r, v in w.items() if shift[r] is not None}
                    if add(w, scale):
                        layer[c] = w, scale
            d += 1
            if (end := cut()) is not None:
                layer = {c: ({r: v for r, v in w.items() if r < end}, scale)
                         for c, (w, scale) in layer.items()}
    v = sum(1 for row, scale in gen_rows if add(row, scale))
    cut()
    return table, ech, v, hf


class ArtinAlgebra:
    """A finite-dimensional local quotient with a fixed monomial basis."""

    def __init__(self, pres: IdealPresentation, table, ech, v, hf):
        self.pres = pres
        self.nvars = pres.nvars
        self.field = pres.field
        self.D = table.D
        self.table = table
        self.ech = ech
        self.v = v
        self.hf = tuple(hf)
        self.socle_degree = len(hf) - 1
        # hf(s+1) = 0 puts every monomial of degree s+1 = D-1 in I
        # (Nakayama), so each is a pivot: std, the non-pivots, has degree
        # <= s, and a fully reduced row is supported on std alone.
        self.std = [i for i in range(len(table.monos)) if i not in ech.leads]
        self.std_pos = {r: i for i, r in enumerate(self.std)}
        self.length = len(self.std)
        self._socle = None

    # ----- basic data

    @property
    def embdim(self) -> int:
        return self.hf[1] if len(self.hf) > 1 else 0

    # ----- normal forms and coordinates

    def nf(self, p: Polynomial) -> Polynomial:
        """Canonical representative: support on standard monomials only."""
        return self._nf(*self.field.wrow(p.map_field(self.field).terms))

    def _nf(self, terms, scale) -> Polynomial:
        """nf of terms / scale, a working dict of A's field (see
        polynomials): its row below D is reduced as it is, as any nonzero
        multiple of a row reduces alike (see linalg), then made raw once."""
        idx, f = self.table.index, self.field
        row = {idx[m]: c for m, c in terms.items() if m in idx}
        return poly_from_row(f.wraw(*self.ech._reduce(row, scale)), self.table, f, self.nvars)

    def coords(self, p: Polynomial):
        """Raw coordinate list of nf(p) over the standard-monomial basis,
        read off its element (see AlgebraElement.coords)."""
        return self.element(p).coords()

    def from_coords(self, coords) -> Polynomial:
        monos, std = self.table.monos, self.std
        return Polynomial(self.nvars, self.field,
                          {monos[std[pos]]: c for pos, c in enumerate(coords)})

    def element(self, p) -> "AlgebraElement":
        if isinstance(p, str):
            p = parse_poly(p, self.nvars, self.field)
        if isinstance(p, (int, Fraction, Scalar)):
            p = Polynomial.constant(p, self.nvars, self.field)
        return AlgebraElement(self, self.nf(p))

    def variable(self, i) -> "AlgebraElement":
        return self.element(Polynomial.variable(i, self.nvars, self.field))

    def evaluate(self, p: Polynomial, images) -> "AlgebraElement":
        """p at x_i -> images[i] (polynomials over A's field or a subfield)
        as an element of A, substituted below degree s+1: each term cut, and
        each product formed from one, lies in n^(s+1) <= I (hf(s+1) = 0,
        Nakayama), so nf of the cut value is nf of the full p(images).  The
        substitution reaches nf in working form, over its scale."""
        f = self.field
        _, terms, scale = p.map_field(f)._wsubstitute(
            [im.map_field(f) for im in images], self.socle_degree + 1)
        return AlgebraElement(self, self._nf(terms, scale))

    # ----- socle and type

    def socle(self):
        """(dimension, basis elements) of the annihilator of the maximal ideal.

        It is the common kernel K of multiplication by x_1..x_h on the
        standard basis: the system whose row (i, p) holds, at the column of
        each standard monomial m, coordinate p of x_i*m, the reduction of
        the row {k: 1}, k = shift[i][m] (x_i*m has degree <= s+1 < D).  A
        standard m of degree s has a zero column: x_i*m lies in
        n^(s+1) <= I.  Each shift is sorted before anything is reduced.  A
        standard k is its own reduction, the entry 1 at row (i, pos[k]).
        A pivot k whose working row has one entry is a monomial of I, so
        the shift adds no entry.  Only the other shifts go through reduce.

        A row (i, p) holds at most one standard entry, at the column of
        m = std[p]/x_i.  A row of one entry, such as a row that holds only
        its standard entry, forces that column to 0 on K.  So K is the
        kernel of the other rows, with the forced columns and their entries
        dropped, padded with zeros there; nullspace runs on those rows, in
        the order the full system lists them, over the kept columns in
        their order.  The basis is the full system's, value for value.

        Proof.  nullspace gives, for each non-pivot column c, the element
        of the kernel that is 1 at c and 0 at the other non-pivot columns
        (see linalg).  The non-pivot columns are the highest nonzero
        columns of the nonzero elements of the kernel: a pivot row is zero
        below its pivot p, so an element whose highest nonzero column is p
        would meet it in one nonzero product; and the vector of c is zero
        above c, since each pivot entry depends only on later columns.  An
        element that is 0 at every non-pivot column is 0, its highest
        nonzero column being one.  So the basis depends only on the kernel
        and the column order, and a forced column, 0 on K, is never the
        highest nonzero column of an element: zero-padding carries the
        reduced system's non-pivot columns and basis onto the full
        system's.  The basis is kept as polynomials, so the algebra holds
        no reference to itself."""
        if self._socle is None:
            f, pos, tab, work = self.field, self.std_pos, self.table, self.ech.working
            low = self.std[:sum(self.hf[:-1])]  # the standard monomials of degree < s
            rows, one = {}, f.rone
            for i, shift in enumerate(tab.shift):
                for col, m in enumerate(low):
                    k = shift[m]
                    if k in pos:
                        rows.setdefault((i, pos[k]), {})[col] = one
                    elif len(work[k]) > 1:
                        for r, c in self.ech.reduce({k: one}).items():
                            rows.setdefault((i, pos[r]), {})[col] = c
            zero = {col for row in rows.values() if len(row) == 1 for col in row}
            kept = [col for col in range(self.length) if col not in zero]
            new = {col: j for j, col in enumerate(kept)}
            system = [{new[col]: c for col, c in row.items() if col in new}
                      for row in rows.values() if len(row) > 1]
            monos = [tab.monos[self.std[col]] for col in kept]
            basis = [Polynomial(self.nvars, f, dict(zip(monos, v)))
                     for v in nullspace(system, len(kept), f)]
            basis.sort(key=lambda p: min((mono_key(m) for m in p.terms), default=(0, ())))
            self._socle = basis
        return len(self._socle), [AlgebraElement(self, p) for p in self._socle]

    @property
    def cm_type(self) -> int:
        return self.socle()[0]

    @property
    def gorenstein(self) -> bool:
        return self.cm_type == 1

    def is_stretched(self) -> bool:
        return len(self.hf) > 2 and self.hf[2] == 1

    def is_almost_stretched(self) -> bool:
        return len(self.hf) > 2 and self.hf[2] == 2

    # ----- powers of the maximal ideal

    def in_power(self, el, j) -> bool:
        """Is the element in m^j?

        The coordinate span of m^j is that of the standard monomials of
        degree >= j.  MonomialTable ranks go up with degree, and a pivot row's
        pivot is its lowest rank, so every other entry of a pivot row has
        degree >= that of its pivot.  Reducing a row supported in degree >= j
        therefore never creates terms of lower degree: the coordinates of any
        monomial of degree >= j, which span m^j, sit at standard monomials of
        degree >= j, and each such standard monomial is its own coordinate
        vector.  The standard basis is sorted by rank, so the positions of
        degree < j are the first sum(hf[:j]).
        """
        coords = el.coords() if isinstance(el, AlgebraElement) else self.coords(el)
        return all(self.field.riszero(c) for c in coords[:sum(self.hf[:max(j, 0)])])


class AlgebraElement:
    """An element of an ArtinAlgebra, stored as its canonical normal form."""

    __slots__ = ("algebra", "poly")

    def __init__(self, algebra: ArtinAlgebra, poly: Polynomial):
        self.algebra = algebra
        self.poly = poly

    def _mk(self, p):
        return AlgebraElement(self.algebra, p)

    def _other(self, other):
        if isinstance(other, AlgebraElement):
            if other.algebra is not self.algebra:
                raise ValueError("elements of different algebras")
            return other
        return self.algebra.element(other)

    def __add__(self, other):
        return self._mk(self.poly + self._other(other).poly)

    __radd__ = __add__

    def __sub__(self, other):
        return self._mk(self.poly - self._other(other).poly)

    def __rsub__(self, other):
        return self._mk(self._other(other).poly - self.poly)

    def __neg__(self):
        return self._mk(-self.poly)

    def __mul__(self, other):
        """The normal form of the product, formed below degree s+1.

        hf(s+1) = 0 puts every monomial of degree s+1 = D-1 in I, so each
        reduces to 0, and nf drops the terms of degree >= D; nf is linear,
        so the terms the cut product leaves out change nothing.  The product
        is formed in working form and reaches nf over its scale (see
        polynomials).  A scalar multiple of a normal form is a normal form,
        so it is not reduced; a scalar outside A's field raises
        FieldMismatch."""
        A = self.algebra
        f = A.field
        if isinstance(other, (int, Fraction, Scalar)):
            return self._mk(self.poly.scale(f.coerce(other)))
        (a, sa), (b, sb) = f.wrow(self.poly.terms), f.wrow(self._other(other).poly.terms)
        return self._mk(A._nf(_wmul(f, a, b, A.socle_degree + 1), sa * sb))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """By squaring (scalars._power): nf is canonical and A associative,
        so every order of the products gives the same normal form."""
        if n < 0:
            raise ValueError(f"negative exponent {n}")
        return _power(AlgebraElement.__mul__, self, n) if n else self.algebra.element(1)

    def residue(self) -> Scalar:
        return self.poly.constant_coeff()

    def is_unit(self) -> bool:
        return not self.residue().is_zero()

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def coords(self):
        """The normal form's values at the standard positions: it has no
        pivot in its support, so it is its own reduction."""
        A = self.algebra
        out = [A.field.rzero] * A.length
        for m, c in self.poly.terms.items():
            out[A.std_pos[A.table.index[m]]] = c
        return out

    def inverse(self) -> "AlgebraElement":
        """The unit's inverse, by _inverse_root with n = 1."""
        r = self.residue()
        if r.is_zero():
            raise ZeroDivisionError("element is not a unit")
        return _inverse_root(self, 1, r.inverse())

    def __eq__(self, other):
        try:
            other = self._other(other)
        except Exception:
            return NotImplemented
        return self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)

    def __repr__(self):
        return f"[{self.poly!r}]"


# ------------------------------------------------------------- construction


def build_quotient(pres: IdealPresentation, D=None) -> ArtinAlgebra:
    """Build the Artinian quotient; it ends at D = s+2.  Past D_MAX it
    raises NotArtinian: the ideal is not Artinian, or its socle degree is
    at least D_MAX - 1.  With r < h generators it raises NotArtinian at
    once: by Krull's height theorem I has height <= r < h, so it is not
    n-primary.

    The echelon at D spans (I + n^D)/n^D, and for j < D, (I + n^D)*_j =
    I*_j: an element of order >= D cannot change an initial form of degree
    j.  So the standard monomials of degree j < D count HF_{R/I}(j), and the
    first D with a zero below it gives the exact Hilbert function (a zero
    at j gives n^j <= I + n^(j+1), so n^j <= I by Nakayama).  The build
    starts at D, or without one at the max degree d + 2, and steps D up
    by one until hf has a zero below it; macaulay_echelon lowers its cap as
    degrees fill, down to s+2, the least that min_gens and certify need.
    So D only sets where the build starts: a caller that knows s passes
    s+2 or more and builds once.  When d = 1, I is generated by linear
    forms, so I = n (s = 0), where any start D >= 3 fills degree 1 at once
    and ends at D = 2, or I is not Artinian: no higher start changes that.
    """
    if len(pres.gens) < pres.nvars:
        raise NotArtinian(f"not Artinian: fewer generators ({len(pres.gens)}) than"
                          f" variables ({pres.nvars}) (Krull's height theorem)")
    Dcur = min(D if D is not None else pres.max_degree + 2, D_MAX)
    while True:
        table, ech, v, hf = macaulay_echelon(pres, Dcur)
        if 0 in hf:
            return ArtinAlgebra(pres, table, ech, v, hf[:hf.index(0)])
        if Dcur >= D_MAX:
            raise NotArtinian(
                f"not Artinian, or socle degree >= {D_MAX - 1}: the Hilbert"
                f" function did not vanish below truncation {D_MAX}")
        Dcur += 1


# -------------------------------------------------- minimal generator count


def min_gens(pres: IdealPresentation, algebra=None) -> int:
    """v(I) = dim I/nI, read off the quotient's echelon.

    It is the rank the generators add on top of the rows of nI; the build
    truncation D >= s+2 has n^D <= n * n^(s+1) <= nI, so nothing is lost.
    """
    A = algebra if algebra is not None else build_quotient(pres)
    return A.v


# ---------------------------------------------------------- leading forms


@dataclass
class LeadingFormData:
    """Degreewise counts for the associated-graded (leading form) ideal."""

    dims: dict            # degree -> dim of the degree-j graded piece of I*
    new_gens: dict        # degree -> number of minimal generators born there
    v_star: int


def leading_forms(pres: IdealPresentation, algebra=None) -> LeadingFormData:
    """The dimensions of the graded pieces of the ideal I* of lowest-degree
    forms of I, and its minimal generator count, read off the quotient's
    echelon.

    For j <= s a basis of I*_j is the degree-j parts of the echelon rows
    whose pivot has degree j: the pivot is a row's lowest monomial, so these
    are leading forms of elements of I, triangular in their pivots, and
    there are dim I*_j of them because j < D.  For j = s+1, s+2, I*_j is
    every form of degree j, as n^(s+1) <= I, so dim I*_j = C(h+j-1, j).
    Generators born in degree j are those of I*_j outside n * I*_(j-1);
    none are born in degree s+2, since n * I*_(s+1) is every form of
    degree s+2.

    The rows are read in the echelon's working form (ech.working), not as
    raw rows: the degree-j part of a working row is a nonzero multiple of
    that of the raw row, and so are its shifts, so the spans, the pivots
    and the rank of the shifted rows are those of the raw rows.
    Table ranks ascend with degree, so the degree-j part of a row is its
    entries of rank below C(h+j, h), the count of monomials of degree <= j.

    Lowest monomials multiply (the order is multiplicative), and rows with
    distinct lowest monomials are independent.  So when the x_i*b, b in the
    basis of I*_(j-1), have dim I*_j distinct lowest monomials, they span
    I*_j (n * I*_(j-1) <= I*_j) and no generator is born in degree j.

    Otherwise dim n * I*_(j-1) is counted on the smaller side, with
    hf(s+1) = 0: the shifted echelon (_new_gens_by_shifts) reduces the
    h * dim I*_(j-1) shifts x_i*b, and the dual count
    (_new_gens_by_duality) solves for h * hf(j-1) unknowns.  The dual
    count runs when h * hf(j-1) <= dim I*_(j-1), the shifted echelon
    otherwise; both sizes are known before either runs, and only these
    degrees cut the rows of I*_(j-1) to their degree-(j-1) parts.

    The dual count is Macaulay's inverse system (Emsalem, Bull. SMF 106,
    1978; Iarrobino and Kanev, LNM 1721, 1999) taken one degree at a time.
    Write S_d for the forms of degree d and, for a functional F on S_j,
    x_i o F for the functional u -> F(x_i*u) on S_(j-1).

    * The dual basis.  The pivots of I*_(j-1) and the standard monomials t
      of degree j-1 split the monomials of degree j-1, so S_(j-1) is the
      direct sum of I*_(j-1) and the span of the t.  The functionals that
      vanish on I*_(j-1) so have a basis phi_t, one per t: 0 on
      I*_(j-1), 1 at t and 0 at the other standard monomials.  As values
      on the monomials, phi_t is the kernel vector of the degree-(j-1)
      rows that is 1 at t and 0 at the other non-pivot columns
      (linalg._kernel_vector); the rows are triangular in their pivots.
    * The count.  F vanishes on n * I*_(j-1) exactly when every x_i o F
      vanishes on I*_(j-1), that is when x_i o F = G_i =
      sum_t a_(i,t)*phi_t for some a.  Every monomial w of degree j >= 1
      is x_i*(w/x_i) for each x_i dividing it, so F is fixed by its
      contractions, and for a given a such an F exists exactly when, for
      every w, the values G_i(w/x_i) agree over the x_i dividing w.  Let
      E have one row per pair (w, i) with x_i | w and i past the least
      such i0: the row that gives G_i(w/x_i) - G_i0(w/x_i0) from a.  The
      phi_t are independent, so F <-> a is one to one, and the
      functionals that vanish on n * I*_(j-1), of dimension
      dim S_j - dim n * I*_(j-1), number h * hf(j-1) - rank E.  With
      dim I*_j = dim S_j - hf(j), new_gens[j] = dim I*_j - dim n * I*_(j-1)
      = h * hf(j-1) - hf(j) - rank E.
    * Its rows.  The row of (w, i) is zero unless w/x_i or w/x_i0 lies in
      the support of some phi_t, so only the w = x_i*u, u in a support,
      are visited.  A nonzero multiple of phi_t scales columns of E and
      keeps its rank, so the working kernel vectors serve as they are.
    * The stop.  new_gens[j] >= 0, so rank E <= h * hf(j-1) - hf(j): once
      E's rank reaches that bound no row can raise it, and the rest are
      neither built nor added.
    """
    A = algebra if algebra is not None else build_quotient(pres)
    f, h, s, tab = A.field, A.nvars, A.socle_degree, A.table
    hf = A.hf + (0,)
    leads = [[] for _ in range(s + 1)]  # degree j -> the pivots of a basis of I*_j
    for lead in A.ech.leads:
        if tab.degs[lead] <= s:
            leads[tab.degs[lead]].append(lead)
    dims = {j: len(leads[j]) for j in range(1, s + 1)}
    for j in (s + 1, s + 2):
        dims[j] = comb(h + j - 1, j)
    new_gens = {}
    for j in range(1, s + 2):
        prev = leads[j - 1]
        if len({shift[lead] for lead in prev for shift in tab.shift}) == dims[j]:
            new_gens[j] = 0
            continue
        end = comb(h + j - 1, h)  # ranks of degree <= j-1 are below end
        rows = {lead: {r: c for r, c in A.ech.working[lead].items() if r < end}
                for lead in prev}
        if h * hf[j - 1] <= len(prev):
            std = A.std[sum(hf[:j - 1]):sum(hf[:j])]  # the standard ranks of degree j-1
            new_gens[j] = _new_gens_by_duality(f, tab, rows, std, hf[j])
        else:
            new_gens[j] = _new_gens_by_shifts(f, tab, rows, dims[j])
    new_gens[s + 2] = 0
    return LeadingFormData(dims, new_gens, sum(new_gens.values()))


def _new_gens_by_shifts(f, tab, rows, dim_j) -> int:
    """new_gens[j] = dim I*_j - dim n * I*_(j-1), the latter the rank of
    every x_i-shift of the working rows of I*_(j-1)."""
    shifted = SparseEchelon(f)
    for row in rows.values():
        for shift in tab.shift:
            shifted.add({shift[r]: c for r, c in row.items()}, 1)
    return dim_j - shifted.rank


def _new_gens_by_duality(f, tab, rows, std, hf_j) -> int:
    """new_gens[j] = h * hf(j-1) - hf(j) - rank E (see leading_forms), from
    the working rows of I*_(j-1) and its standard ranks std; E's rows go in
    until its rank reaches h * hf(j-1) - hf(j)."""
    order = sorted(rows, reverse=True)
    phis = [_kernel_vector(f, rows, order, t, f.rone)[0] for t in std]
    bound = len(tab.shift) * len(phis) - hf_j
    ech = SparseEchelon(f)
    for row in _consistency_rows(f, tab, phis):
        if ech.add(row, 1) and ech.rank == bound:
            break
    return bound - ech.rank


def _consistency_rows(f, tab, phis):
    """The nonzero rows of E (see leading_forms), in working form: for each
    w = x_i*u, u in the support of some phi, and each x_i dividing w past
    the least x_i0, the entries phi_k(w/x_i) at column i*len(phis) + k and
    -phi_k(w/x_i0) at column i0*len(phis) + k."""
    n, rneg = len(phis), f.rneg
    divisors = {}  # w -> {i: w/x_i} for the w/x_i in some support
    for phi in phis:
        for u in phi:
            for i, shift in enumerate(tab.shift):
                divisors.setdefault(shift[u], {})[i] = u
    for w, divs in divisors.items():
        i0, *rest = [i for i, e in enumerate(tab.monos[w]) if e]
        u0 = divs.get(i0)
        for i in rest:
            u = divs.get(i)
            row = {}
            for k, phi in enumerate(phis):
                if u in phi:
                    row[i * n + k] = phi[u]
                if u0 in phi:
                    row[i0 * n + k] = rneg(phi[u0])
            if row:
                yield row


# ------------------------------------------------------------ field change


def extend_scalars(A: ArtinAlgebra, field: Field) -> ArtinAlgebra:
    """The same quotient over a larger coefficient field (A itself when the
    field is A's): a rebuild would do the same arithmetic on lifted values,
    so A's echelon rows are lifted and D, hf, v and the standard basis carry
    over unchanged.

    The working pivot rows are lifted as they are (field.wembed, no
    arithmetic) and added in insertion order.  Each row was reduced against
    the rows before it when it was inserted, so it has no earlier pivot in
    its support: its re-add hits no pivot.  Its entry at its pivot is a
    positive rational integer and the row is primitive, so it is stored as
    it is, a nonzero multiple of the row the rebuild stores (see linalg)."""
    if field == A.field:
        return A
    ech = SparseEchelon(field)
    for row in A.ech.working.values():
        ech.add(field.wembed(row, A.field), 1)
    return ArtinAlgebra(A.pres.map_field(field), A.table, ech, A.v, A.hf)


# ------------------------------------------------------------ Hensel roots


def _inverse_root(a: AlgebraElement, n: int, r0: Scalar) -> AlgebraElement:
    """The r with a*r^n = 1 lifting r0, the inverse of an n-th root of a's
    residue, by the division-free Newton step r <- r + r*(1 - a*r^n)/n.

    ceil(log2(s+1)) steps suffice, s the socle degree, M the maximal ideal.
    e = 1 - a*r^n lies in M at the start.  If e lies in M^E, the next r is
    r*(1 + e/n), and 1 - (1 - e)*(1 + e/n)^n = 1 - (1 - e)*(1 + e + e^2*q)
    = e^2*(1 - q + e*q) for some q in A, which lies in M^(2E); M^(s+1) = 0.
    The r lifting r0 is unique (Hensel's lemma: n*a*r0^(n-1) is a unit in
    characteristic 0), so any exact method returns this r."""
    A = a.algebra
    r = A.element(r0)
    for _ in range(A.socle_degree.bit_length()):  # ceil(log2(s+1))
        e = 1 - a * r ** n
        if e.is_zero():
            break
        r = r + r * e * Fraction(1, n)
    return r


def nth_root(A: ArtinAlgebra, a, n: int) -> AlgebraElement:
    """The n-th root of a unit element lifting the residue's root c0; with
    none in A's field it raises ResidueNotPower (extend A first to adjoin
    one).  With r = _inverse_root(a, n, 1/c0), c = a*r^(n-1) has
    c^n = a^n*r^(n(n-1)) = a and residue c0, and the lift is unique (Hensel's
    lemma, n*c0^(n-1) a unit)."""
    if n < 1:
        raise ValueError(f"no n-th root for n = {n}; n must be at least 1")
    if isinstance(a, (int, Fraction, Scalar, str, Polynomial)):
        a = A.element(a)
    if a.algebra is not A:
        raise ValueError("element does not belong to the given algebra")
    if not a.is_unit():
        raise ValueError("n-th roots only of units")
    r = a.residue().nth_root(n)
    if r is None:
        raise ResidueNotPower(
            f"residue {a.residue()!r} has no {n}-th root in {A.field!r}"
        )
    return a * _inverse_root(a, n, r.inverse()) ** (n - 1)


# ----------------------------------------------------------- span equality


def row_space_equal(p1: IdealPresentation, p2: IdealPresentation, D: int) -> bool:
    """Do the two ideals agree modulo n^D?

    Builds a Macaulay echelon for each ideal and compares their row spaces.
    The library certifies witnesses with structure.certify instead; this is
    the independent reference check that the tests and demos use.

    Each echelon lowers its cap, and the answer is still that of the
    echelons at D.  The final cap is one more than the least full degree of
    I + n^D below D-1, or D if there is none (see macaulay_echelon), so it
    depends on I + n^D alone: ideals that agree mod n^D end at the same cap
    with the same span.  If both end at the same cap D' < D, n^(D'-1) lies
    in both ideals, so agreeing mod n^D' means they are equal.  Ideals
    whose caps differ have different pivot sets, as the lower cap's last
    degree is full and the higher cap's is not, so they compare unequal.
    """
    f = common_field(p1.field, p2.field)
    e1 = macaulay_echelon(p1.map_field(f), D)[1]
    e2 = macaulay_echelon(p2.map_field(f), D)[1]
    return same_row_space(e1, e2)


# ----------------------------------------------------------------- reports


def algebra_report(A: ArtinAlgebra) -> dict:
    """JSON-ready summary with a stable field order."""
    return {
        "schema": 1,
        "nvars": A.nvars,
        "field": repr(A.field),
        "generators": [repr(g) for g in A.pres.gens],
        "truncation": A.D,
        "hilbert_function": list(A.hf),
        "multiplicity": A.length,
        "embedding_dimension": A.embdim,
        "socle_degree": A.socle_degree,
        "cm_type": A.cm_type,
        "gorenstein": A.gorenstein,
        "stretched": A.is_stretched(),
        "almost_stretched": A.is_almost_stretched(),
        "min_gens": min_gens(A.pres, algebra=A),
    }
