"""Exact linear algebra: one sparse row echelon and the sparse solves on
top of it.

SparseEchelon is the only elimination, and nothing in this module calls
rinv.  Sparse rows are dicts {column -> raw coefficient}, the one format
from element to solution: the columns are monomial ranks in a
MonomialTable for Macaulay rows and standard positions for an element's
coordinates (AlgebraElement.coords).  The pivot of a row is its *lowest*
column, which is the right convention for local (power series)
computations: the pivot monomials of an ideal's row space are exactly the
monomials not surviving into the quotient basis.

The rows SparseEchelon works on are fraction-free (Bareiss, "Sylvester's
identity and multistep integer-preserving Gaussian elimination", 1968):
over QQ Python ints, over a quadratic tower values with denominator 1
(integer coordinates on the tower's basis, see scalars).  An incoming row
is cleared of its denominators: it is values / scale, scale their lcm.
Each pivot row is kept primitive (the gcd of all its integers is 1) with a
positive rational integer L at its pivot; over a tower the row is first
multiplied by the conjugates of its pivot entry, whose product with it is
its norm to QQ, a nonzero rational integer.  To clear an entry c at the
lowest pivot hit, with g the gcd of L and c's integers, the row becomes
(L/g)*row - (c/g)*pivot row and scale is multiplied by L/g; when L/g != 1
the gcd of scale and the row's integers is divided out of both, so the
factors the multiplication put in do not pile up.  Only the entries that
survive reduce become raw values again, over scale.  The field supplies
the working form (the w* methods of the fields in scalars), and one loop
serves every field: no row reduction calls rinv.

The answers do not depend on that working form.  A fully reduced row, one
with no pivot column in its support, is unique: two reductions of a row
differ by an element of the span with no pivot column in its support, and
a nonzero element of the span has a pivot column as its lowest column, so
the difference is 0.  After each step the working row is scale times the
row that eliminating with normalized rows has at that step.  A pivot row
is L times its normalized row P'; if the row is m*r' with entry c = m*c'
at the pivot, then (L/g)*row - (c/g)*(L*P') = (L/g)*m*(r' - c'*P'), the
next normalized row times the new scale.  So the same entries vanish in
the same order, and the dicts come out in the same order too.  Hence pivot
sets, pivot rows (the reduced row divided by its pivot entry), reduce, nf
and coords are the values that eliminating with rows normalized to 1
gives, value for value.  This holds for any nonzero multiple of a row, so
add, contains and _reduce also take a row already in working form, over
any scale: macaulay_echelon clears each generator row once and adds its
variable shifts as they are, extend_scalars re-adds a smaller field's
working rows as they are, ArtinAlgebra's nf, element products and
evaluate reduce the working products and substitutions of polynomials
over their scales, and _reduce copies such a row when it first hits a
pivot, before it reduces it in place.  A row in whose support the first
scan finds no pivot column is its own full reduction, so add stores it
at once: its zeros dropped, through wpivot, with no copy and no second
scan.  A unit row on a column that is no pivot is one too, so add_units
stores a batch of them with no scan at all, and truncate rebuilds only
the rows a cut shortens.  Over QQ the ring operations are the C
operators, so the row loops make no Python call per entry.  No value is
inexact: the working rows only add, subtract and multiply integers and
divide them exactly (by a gcd), they never reach rinv or rdiv (1 / a of
ints is a float), and every value handed out is a raw value built from
ints, over QQ a Fraction.

The echelon stores its pivot rows only in working form.  leads is a live
view of the pivot columns, for membership and counting, and working a live
read-only view of the working rows themselves.  Every reader reads
working, since any nonzero multiple of a row has the same span and
support: leading_forms (its shifted echelon, and its dual count, which
keeps the kernel vectors of the rows in working form), the
back-substitution of solve and nullspace below, extend_scalars,
same_row_space (each row goes to contains over scale 1) and the
split-quadric test in classify7, which reads a discriminant, the same up
to a nonzero square.  No raw pivot row is ever built.

solve and nullspace add their sparse rows to a SparseEchelon and
back-substitute on its working rows in decreasing pivot order, sorted
once per system and passed to _kernel_vector for each vector, a sparse
row made raw once.  They return what Gauss-Jordan elimination returns,
value for value: both pivot sets are the columns where the rank rises
from left to right (so columns kept in their order keep the pivots and
the basis that renumbering them would give), a kernel vector is fixed by
its entries at the non-pivot columns, which both set alike, and
arithmetic is exact.  A pivot row is zero left of its pivot, so each
pivot entry depends only on later columns.  The back-substitution keeps
the vector in working form over one scale, as _reduce keeps a row, so no
working value reaches rdiv.
"""

from __future__ import annotations

from types import MappingProxyType

from .polynomials import Polynomial, monomials_of_degree
from .scalars import Field


class MonomialTable:
    """All monomials of degree < D in nvars variables, sorted ascending;
    degs[r] is the degree of monos[r], support[r] the number of variables
    in it, and shift[i][r] the rank of x_i * monos[r], or None at degree
    D-1.  Ranks ascend with degree, so the table at a lower D is a prefix
    of this one, with the same ranks."""

    _cache = {}

    def __new__(cls, nvars: int, D: int):
        key = (nvars, D)
        if key not in cls._cache:
            self = super().__new__(cls)
            self._init(nvars, D)
            cls._cache[key] = self
        return cls._cache[key]

    def _init(self, nvars, D):
        self.nvars = nvars
        self.D = D
        self.monos = []
        for d in range(D):
            self.monos.extend(monomials_of_degree(nvars, d))
        self.degs = [sum(m) for m in self.monos]
        self.support = [len(m) - m.count(0) for m in self.monos]
        self.index = {m: i for i, m in enumerate(self.monos)}
        self.shift = [[self.index.get(m[:i] + (m[i] + 1,) + m[i + 1:]) for m in self.monos]
                      for i in range(nvars)]


def row_from_poly(p: Polynomial, table: MonomialTable):
    """Truncate p below table.D and return it as a sparse row."""
    row = {}
    idx = table.index
    for m, c in p.terms.items():
        r = idx.get(m)
        if r is not None:
            row[r] = c
    return row


def poly_from_row(row, table: MonomialTable, field: Field, nvars: int) -> Polynomial:
    return Polynomial(nvars, field, {table.monos[r]: c for r, c in row.items()})


class SparseEchelon:
    """Incremental row echelon form; pivot = lowest monomial rank in a row.

    The pivot rows are kept only in the field's working form; leads is a
    live view of the pivot ranks, and working a live read-only view
    {pivot rank: working row} (a primitive row of integral values, a
    positive rational integer at its pivot).  Rows go in through add, or
    through add_units as unit rows on columns that are no pivots."""

    def __init__(self, field: Field):
        self.field = field
        self._work = {}  # pivot rank -> pivot row in the field's working form
        self.leads = self._work.keys()
        self.working = MappingProxyType(self._work)

    @property
    def rank(self) -> int:
        return len(self._work)

    def _reduce(self, row, scale=None, insert=False):
        """(working row, scale) of the full reduction of a row: a raw row,
        or with a scale a working row, which is left as it is (and may be
        the row returned when it hits no pivot).  The result holds no zero
        value.  With insert, a nonzero result is stored as a pivot row.

        A working value is zero exactly when it equals wzero, so the zeros
        of the incoming row are dropped once, here.  The row is copied
        only when it hits a pivot, before it is reduced in place, so a row
        that hits none goes in as it is, made a pivot row by wpivot.  The
        multipliers (a, b) make a*c - b*(pivot entry) exactly zero, so the
        entry at the pivot drops out with the others that cancel, and
        every sum that cancels is removed, never stored; a scaled or
        divided row keeps its nonzero values nonzero."""
        f = self.field
        rows = self._work
        zero = f.wzero
        given = row
        if scale is None:
            row, scale = f.wrow(row)
        if zero in row.values():
            row = {r: c for r, c in row.items() if c != zero}
        while True:
            hit = None
            for r in row:
                if r in rows and (hit is None or r < hit):
                    hit = r
            if hit is None:
                break
            if row is given:
                row = dict(row)
            rsub, rmul, riszero = f.rsub, f.rmul, f.riszero
            prow = rows[hit]
            a, b = f.wcofactors(row[hit], prow[hit])
            if a != 1:  # integer cross-multiplication
                scale *= a
                row = f.wscale(row, a)
            for r2, c2 in prow.items():
                s = rsub(row.get(r2, zero), rmul(b, c2))
                if riszero(s):
                    row.pop(r2, None)
                else:
                    row[r2] = s
            if a != 1:
                row, scale = f.wdivide(row, scale)
        if insert and row:
            lead = min(row)
            prow = f.wpivot(row, lead)
            rows[lead] = dict(prow) if prow is given else prow  # keep no caller's dict
        return row, scale

    def reduce(self, row):
        """Fully reduce a raw row: eliminate every pivot rank from its support."""
        return self.field.wraw(*self._reduce(row))

    def add(self, row, scale=None) -> bool:
        """Insert a raw row, or a working row over the given scale (see
        _reduce); return True if it enlarged the span.  The row passed in
        is not changed."""
        return bool(self._reduce(row, scale, True)[0])

    def add_units(self, cols):
        """Store the unit row {k: wone} of each column k of the sequence
        cols, in its order; raise ValueError, storing none, if a column
        repeats or is already a pivot.

        A unit row on a column that is no pivot has no pivot column in its
        support, so it is its own full reduction, and add would store it
        as wpivot leaves it.  wone is 1 over QQ and (1, 0, ..., 0, 1) over
        a tower: positive and rational, with integers of gcd 1, so wpivot
        returns the unit row as it is.  So this stores what add of each
        unit row in turn stores, with no scan and no call per row."""
        wone = self.field.wone
        units = {k: {k: wone} for k in cols}
        if len(units) < len(cols) or not self._work.keys().isdisjoint(units):
            raise ValueError("add_units needs distinct columns that are not pivots")
        self._work.update(units)

    def truncate(self, end: int):
        """Cut the span below column end, in place: the pivot rows with a
        pivot below end, cut below end and made primitive again, in their
        order.  Every row's pivot is its lowest column, so the cut rows keep
        their pivots (and their entry there) and are an echelon basis of the
        cut span; the rows with a pivot at end or above cut to 0.  A row
        whose columns all lie below end is the same row cut, and a pivot row
        is primitive already, so it is kept as it is; only the rows that
        the cut shortens are rebuilt and divided."""
        wdivide = self.field.wdivide
        rows = [(lead, row if max(row) < end else
                 wdivide({r: c for r, c in row.items() if r < end}, 0)[0])
                for lead, row in self._work.items() if lead < end]
        self._work.clear()
        self._work.update(rows)

    def contains(self, row, scale=None) -> bool:
        """Does a raw row, or a working row over the given scale, lie in
        the span?"""
        return not self._reduce(row, scale)[0]


def same_row_space(e1: SparseEchelon, e2: SparseEchelon) -> bool:
    """Equal pivot sets give equal dimensions, and a subspace of the same
    dimension is the whole space, so one inclusion decides."""
    return set(e1.leads) == set(e2.leads) and all(
        e2.contains(r, 1) for r in e1.working.values())


# ------------------------------------------------------------ solves


def _kernel_vector(f: Field, rows, order, col, value):
    """(x, scale) with x / scale the kernel vector of the working pivot
    rows that is value at the non-pivot column col and 0 at the other
    non-pivot columns; x is a working row with no zero entry, and order
    lists the pivots in decreasing order, sorted once by the caller.

    At pivot p with working entry L the solved entry is -s / L, s the
    row's sum over the later columns; with (a, b) = wcofactors(s, L) that
    is -b / a, so x and scale are multiplied by a and x[p] = -b."""
    x, scale = f.wrow({col: value})
    radd, rmul = f.radd, f.rmul
    for piv in order:
        prow = rows[piv]
        s = f.wzero
        for k, c in prow.items():
            if k != piv and k in x:
                s = radd(s, rmul(c, x[k]))
        if f.riszero(s):
            continue
        a, b = f.wcofactors(s, prow[piv])
        if a != 1:
            scale *= a
            x = f.wscale(x, a)
        x[piv] = f.rneg(b)
        if a != 1:
            x, scale = f.wdivide(x, scale)
    return x, scale


def solve(rows, n: int, field: Field):
    """One solution x (a sparse raw row in column order) of the sparse rows
    with the unknowns at columns 0..n-1 and the right-hand side at n, or
    None: the kernel vector that is -1 at column n, so every non-pivot
    unknown is 0; there is none if column n is a pivot."""
    ech = SparseEchelon(field)
    for row in rows:
        ech.add(row)
    if n in ech.leads:
        return None
    order = sorted(ech.leads, reverse=True)
    x, scale = _kernel_vector(field, ech.working, order, n, field.rneg(field.rone))
    del x[n]
    return dict(sorted(field.wraw(x, scale).items()))


def nullspace(rows, cols, field: Field):
    """Basis of the right kernel of the sparse rows ({column in cols:
    nonzero raw value}, cols ascending): for each non-pivot column of cols,
    the sparse raw row in column order that is 1 there and 0 at the others."""
    ech = SparseEchelon(field)
    for row in rows:
        ech.add(row)
    order = sorted(ech.leads, reverse=True)
    raws = (field.wraw(*_kernel_vector(field, ech.working, order, c, field.rone))
            for c in cols if c not in ech.working)
    return [dict(sorted(x.items())) for x in raws]
