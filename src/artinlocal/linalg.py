"""Exact linear algebra: one sparse row echelon, dense solves on top of it,
and congruence diagonalization.

SparseEchelon is the only row reduction.  Sparse rows are dicts
{column -> raw coefficient}; for Macaulay rows the columns are monomial
ranks in a MonomialTable.  The pivot of a row is its *lowest* column, which
is the right convention for local (power series) computations: the pivot
monomials of an ideal's row space are exactly the monomials not surviving
into the quotient basis.

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
add also takes a row already in working form, over any scale:
macaulay_echelon clears each generator row once and adds its variable
shifts as they are, extend_scalars re-adds a smaller field's working rows
as they are, and add copies a row before it reduces it in place.  No value
is inexact: the working rows only add, subtract and multiply integers and
divide them exactly (by a gcd), they never reach rinv or rdiv (1 / a of
ints is a float), and every value handed out is a raw value built from
ints, over QQ a Fraction.

The echelon stores its pivot rows only in working form.  leads is a live
view of the pivot columns, for membership and counting, and working a live
read-only view of the working rows themselves.  A reader that needs only
the span or support of a pivot row reads working, since any nonzero
multiple of a row has the same ones: leading_forms, and the back-
substitution of solve_dense and nullspace below, and extend_scalars.
pivots builds the raw rows, each scaled to 1 at its pivot (Fraction(v, L)
over QQ), in insertion order, on every read; only the readers of row
values need it (the split-quadric test in classify7 and same_row_space),
and each reads it once.

solve_dense and nullspace add their rows to a SparseEchelon and
back-substitute on its working rows in decreasing pivot order.  They
return what Gauss-Jordan elimination returns, value for value: both pivot
sets are the columns where the rank rises from left to right, a kernel
vector is fixed by its entries at the non-pivot columns, which both set
alike, and arithmetic is exact.  A pivot row is zero left of its pivot, so
each pivot entry depends only on later columns.  The back-substitution
keeps the vector in working form over one scale, as _reduce keeps a row,
so no working value reaches rdiv.  diagonalize_symmetric does congruence, not
elimination.
"""

from __future__ import annotations

from types import MappingProxyType

from .polynomials import Polynomial, monomials_of_degree
from .scalars import Field


class MonomialTable:
    """All monomials of degree < D in nvars variables, sorted ascending;
    shift[i][r] is the rank of x_i * monos[r], or None at degree D-1."""

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
        self.index = {m: i for i, m in enumerate(self.monos)}
        self.shift = [[self.index.get(m[:i] + (m[i] + 1,) + m[i + 1:]) for m in self.monos]
                      for i in range(nvars)]

    def deg(self, rank: int) -> int:
        return sum(self.monos[rank])


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
    live view of the pivot ranks, working a live read-only view
    {pivot rank: working row} (a primitive row of integral values, a
    positive rational integer at its pivot), and pivots builds the raw rows
    on each read."""

    def __init__(self, field: Field):
        self.field = field
        self._work = {}  # pivot rank -> pivot row in the field's working form
        self.leads = self._work.keys()
        self.working = MappingProxyType(self._work)

    @property
    def rank(self) -> int:
        return len(self._work)

    @property
    def pivots(self):
        """{pivot rank: raw row scaled to 1 at its pivot}, in insertion order;
        a new dict on every read."""
        wraw, wint = self.field.wraw, self.field.wint
        return {lead: wraw(row, wint(row[lead])) for lead, row in self._work.items()}

    def _reduce(self, row, scale=None):
        """(working row, scale) of the full reduction of a row: a raw row,
        or with a scale a working row, which is left as it is.

        The multipliers (a, b) make a*c - b*(pivot entry) exactly zero, so
        the entry at the pivot drops out with the others that cancel."""
        f = self.field
        rows = self._work
        zero, rsub, rmul, riszero = f.wzero, f.rsub, f.rmul, f.riszero
        if scale is None:
            row, scale = f.wrow(row)
        else:
            row = dict(row)
        while True:
            hit = None
            for r in row:
                if r in rows and (hit is None or r < hit):
                    hit = r
            if hit is None:
                return row, scale
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

    def reduce(self, row):
        """Fully reduce a raw row: eliminate every pivot rank from its support."""
        return self.field.wraw(*self._reduce(row))

    def add(self, row, scale=None) -> bool:
        """Insert a raw row, or a working row over the given scale (see
        _reduce); return True if it enlarged the span.  The row passed in
        is not changed."""
        f = self.field
        row = {r: c for r, c in self._reduce(row, scale)[0].items() if not f.riszero(c)}
        if not row:
            return False
        lead = min(row)
        self._work[lead] = f.wpivot(row, lead)
        return True

    def contains(self, row) -> bool:
        return not self._reduce(row)[0]


def same_row_space(e1: SparseEchelon, e2: SparseEchelon) -> bool:
    """Equal pivot sets give equal dimensions, and a subspace of the same
    dimension is the whole space, so one inclusion decides."""
    return set(e1.leads) == set(e2.leads) and all(
        e2.contains(r) for r in e1.pivots.values())


# ------------------------------------------------------------ solves


def _kernel_vector(f: Field, rows, col, value, n: int):
    """The length-n kernel vector of the working pivot rows that is value
    at the non-pivot column col and 0 at the other non-pivot columns.

    The vector is kept as x / scale in working form.  At pivot p with
    working entry L the solved entry is -s / L, s the row's sum over the
    later columns; with (a, b) = wcofactors(s, L) that is -b / a, so x and
    scale are multiplied by a and x[p] = -b."""
    x, scale = f.wrow({col: value})
    radd, rmul = f.radd, f.rmul
    for piv in sorted(rows, reverse=True):
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
    x = f.wraw(x, scale)
    return [x.get(k, f.rzero) for k in range(n)]


def solve_dense(M, b, field: Field):
    """One solution x of M x = b (lists of raw values), or None.

    x is the kernel vector of [M | b] that is -1 in b's column, so every
    non-pivot unknown is 0; there is none if b's column is a pivot."""
    if not M:
        return []
    n = len(M[0])
    ech = SparseEchelon(field)
    for row, bi in zip(M, b):
        ech.add({k: c for k, c in enumerate(list(row) + [bi]) if not field.riszero(c)})
    if n in ech.leads:
        return None
    return _kernel_vector(field, ech.working, n, field.rneg(field.rone), n + 1)[:n]


def nullspace(rows, n: int, field: Field):
    """Basis of the right kernel of the sparse rows ({column: nonzero raw
    value}, columns 0..n-1): one length-n list per non-pivot column, 1
    there and 0 at the other non-pivot columns."""
    ech = SparseEchelon(field)
    for row in rows:
        ech.add(row)
    return [_kernel_vector(field, ech.working, fc, field.rone, n)
            for fc in range(n) if fc not in ech.working]


def diagonalize_symmetric(M, field: Field):
    """Congruence-diagonalize a symmetric matrix: returns (P, diag) with
    P^T M P = diag(diag).  Needs characteristic != 2.
    """
    n = len(M)
    A = [list(r) for r in M]
    P = [[field.rone if i == j else field.rzero for j in range(n)] for i in range(n)]

    def col_op(dst, src, c):
        # column dst += c * column src (applied symmetrically), and track in P
        for i in range(n):
            A[i][dst] = field.radd(A[i][dst], field.rmul(c, A[i][src]))
        for j in range(n):
            A[dst][j] = field.radd(A[dst][j], field.rmul(c, A[src][j]))
        for i in range(n):
            P[i][dst] = field.radd(P[i][dst], field.rmul(c, P[i][src]))

    def col_swap(i, j):
        for r in range(n):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        A[i], A[j] = A[j], A[i]
        for r in range(n):
            P[r][i], P[r][j] = P[r][j], P[r][i]

    for k in range(n):
        if field.riszero(A[k][k]):
            j = next(
                (j for j in range(k + 1, n) if not field.riszero(A[j][j])), None
            )
            if j is not None:
                col_swap(k, j)
            else:
                j = next(
                    (j for j in range(k + 1, n) if not field.riszero(A[k][j])), None
                )
                if j is None:
                    continue
                col_op(k, j, field.rone)
        inv = field.rinv(A[k][k])
        for j in range(k + 1, n):
            if not field.riszero(A[k][j]):
                col_op(j, k, field.rneg(field.rmul(A[k][j], inv)))
    return P, [A[i][i] for i in range(n)]
