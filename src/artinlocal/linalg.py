"""Exact linear algebra: one sparse row echelon, dense solves on top of it,
and congruence diagonalization.

SparseEchelon is the only row reduction.  Sparse rows are dicts
{column -> raw coefficient}; for Macaulay rows the columns are monomial
ranks in a MonomialTable.  The pivot of a row is its *lowest* column, which
is the right convention for local (power series) computations: the pivot
monomials of an ideal's row space are exactly the monomials not surviving
into the quotient basis.

Over QQ the rows SparseEchelon works on are Python ints (Bareiss,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination", 1968).  An incoming row of Fractions is cleared of its
denominators: it is ints / scale, scale their lcm.  Each pivot row is kept
primitive with a positive integer value L at its pivot.  To clear an entry
c at the lowest pivot hit, with g = gcd(c, L), the row becomes
(L/g)*row - (c/g)*pivot row and scale is multiplied by L/g; when L/g != 1
the gcd of scale and the row's entries is divided out of both, so the
factors the multiplication put in do not pile up.  Only the entries that
survive reduce become Fractions again, as Fraction(v, scale).  Over a
quadratic tower the rows are raw values and every pivot row is scaled to
1 at its pivot, so the multipliers are (1, c).  The field supplies the
working form (the w* methods of the fields in scalars), and one loop
serves both.

The answers do not depend on that working form.  A fully reduced row, one
with no pivot column in its support, is unique: two reductions of a row
differ by an element of the span with no pivot column in its support, and
a nonzero element of the span has a pivot column as its lowest column, so
the difference is 0.  After each step the working row is a nonzero
multiple of the row that eliminating with normalized rows has at that
step, so the same entries vanish in the same order and the dicts come out
in the same order too.  Hence pivot sets, pivot rows (the reduced row
divided by its pivot entry), reduce, nf and coords are the values that
eliminating with rows normalized to 1 gives, value for value.  No value is inexact: the working rows only add, subtract and
multiply ints and divide them exactly (by a gcd), they never reach
RationalField.rinv or rdiv (1 / a of ints is a float), and every value
handed out is a Fraction built from two ints.  pivots keeps each pivot
row as raw values scaled to 1 at its pivot, for the callers that read it.

solve_dense and nullspace_dense add dense rows to a SparseEchelon and
back-substitute in decreasing pivot order.  They return what Gauss-Jordan
elimination returns, value for value: both pivot sets are the columns where
the rank rises from left to right, a kernel vector is fixed by its entries
at the non-pivot columns, which both set alike, and arithmetic is exact.  A
pivot row is zero left of its pivot, so each pivot entry depends only on
later columns.  diagonalize_symmetric does congruence, not elimination.
"""

from __future__ import annotations

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

    pivots holds each pivot row as raw values scaled to 1 at its pivot;
    the rows reduce works with are kept in the field's working form."""

    def __init__(self, field: Field):
        self.field = field
        self.pivots = {}  # pivot rank -> row with that pivot normalized to 1
        self.rank = 0
        self._work = {}  # pivot rank -> the same row in the field's working form

    @classmethod
    def from_pivots(cls, field: Field, pivots) -> "SparseEchelon":
        """The echelon whose pivot rows are the given normalized raw rows."""
        ech = cls(field)
        for lead, row in pivots.items():
            ech._work[lead], ech.pivots[lead] = field.wpivot(field.wrow(row)[0], lead)
        ech.rank = len(pivots)
        return ech

    def _reduce(self, row):
        """(working row, scale) of the full reduction of a raw row.

        The multipliers (a, b) make a*c - b*(pivot entry) exactly zero, so
        the entry at the pivot drops out with the others that cancel."""
        f = self.field
        rows = self._work
        zero, rsub, rmul, riszero = f.wzero, f.rsub, f.rmul, f.riszero
        row, scale = f.wrow(row)
        while True:
            hit = None
            for r in row:
                if r in rows and (hit is None or r < hit):
                    hit = r
            if hit is None:
                return row, scale
            prow = rows[hit]
            a, b = f.wcofactors(row[hit], prow[hit])
            if a != 1:  # over QQ only: integer cross-multiplication
                scale *= a
                row = {r: a * c for r, c in row.items()}
            for r2, c2 in prow.items():
                s = rsub(row.get(r2, zero), rmul(b, c2))
                if riszero(s):
                    row.pop(r2, None)
                else:
                    row[r2] = s
            if a != 1:
                row, scale = f.wdivide(row, scale)

    def reduce(self, row):
        """Fully reduce a row: eliminate every pivot rank from its support."""
        return self.field.wraw(*self._reduce(row))

    def add(self, row) -> bool:
        """Insert a row; return True if it enlarged the span."""
        f = self.field
        row = {r: c for r, c in self._reduce(row)[0].items() if not f.riszero(c)}
        if not row:
            return False
        lead = min(row)
        self._work[lead], self.pivots[lead] = f.wpivot(row, lead)
        self.rank += 1
        return True

    def contains(self, row) -> bool:
        return not self._reduce(row)[0]


def same_row_space(e1: SparseEchelon, e2: SparseEchelon) -> bool:
    if set(e1.pivots) != set(e2.pivots):
        return False
    return all(e2.contains(r) for r in e1.pivots.values()) and all(
        e1.contains(r) for r in e2.pivots.values()
    )


# ------------------------------------------------------------ dense entry points


def _echelon(M, field: Field) -> SparseEchelon:
    """Echelon of the raw-value rows M, added as sparse rows."""
    ech = SparseEchelon(field)
    for row in M:
        ech.add({k: c for k, c in enumerate(row) if not field.riszero(c)})
    return ech


def _kernel_vector(ech: SparseEchelon, col, value, n: int):
    """The length-n kernel vector of ech's rows that is value at the
    non-pivot column col and 0 at the other non-pivot columns."""
    f = ech.field
    x = {col: value}
    for piv in sorted(ech.pivots, reverse=True):
        s = f.rzero
        for k, c in ech.pivots[piv].items():
            if k != piv and k in x:
                s = f.rsub(s, f.rmul(c, x[k]))
        x[piv] = s
    return [x.get(k, f.rzero) for k in range(n)]


def solve_dense(M, b, field: Field):
    """One solution x of M x = b (lists of raw values), or None.

    x is the kernel vector of [M | b] that is -1 in b's column, so every
    non-pivot unknown is 0; there is none if b's column is a pivot."""
    if not M:
        return []
    n = len(M[0])
    ech = _echelon([list(row) + [bi] for row, bi in zip(M, b)], field)
    if n in ech.pivots:
        return None
    return _kernel_vector(ech, n, field.rneg(field.rone), n + 1)[:n]


def nullspace_dense(M, field: Field):
    """Basis of the right kernel of M (rows = raw-value lists): one vector
    per non-pivot column, 1 there and 0 at the other non-pivot columns."""
    if not M:
        return []
    n = len(M[0])
    ech = _echelon(M, field)
    return [_kernel_vector(ech, fc, field.rone, n)
            for fc in range(n) if fc not in ech.pivots]


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
