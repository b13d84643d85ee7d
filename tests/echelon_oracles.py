"""Slow reference paths for the invariants read off the shared echelon.

These are the separate-echelon computations the library used before it
read v(I), the leading-form ideal and the m-adic filtration off the
quotient's own Macaulay echelon: one echelon of nI plus the generators for
the generator count, one full echelon per degree for the leading forms,
and one echelon of the coordinates of m^j for membership in m^j.  They
build their echelons on OracleEchelon, elimination with every row scaled
to 1 at its pivot and every operation a field operation on raw values,
where the library's SparseEchelon runs on integer rows over QQ.  So they
share no row reduction with the paths they check.  The Macaulay echelon that
tries every multiple m*g is the reference for the row-saving one the
library runs, and the loop that lists every multiplier's divisors is the
reference for the one that builds each degree's candidates from the rows
kept in the degree before.  Dense Gauss-Jordan elimination that sweeps
whole rows is the reference for the dense solves the library builds on
SparseEchelon, and the socle from the multiplication matrices of the
variables' normal forms, with its kernel from that Gauss-Jordan sweep, is
the reference for the one built from table shifts.  The multiplication
matrix whose columns are the coordinates of polynomial products is the
reference for the one that reduces table rows.  The product of elements
formed in full before its normal form, and powers taken one factor at a
time from 1, are the reference for the products cut below degree s+1 and
the powers by squaring.  Newton's loop that runs until the error
vanishes, with the socle degree plus 2 as its cap, is the reference for
nth_root's proven step count.
ideals_equal, the ideal equality the quotient tests use, is built on the
library's build_quotient and row_space_equal.
"""

from math import comb

from artinlocal.linalg import (
    MonomialTable,
    SparseEchelon,
    poly_from_row,
    row_from_poly,
)
from artinlocal.polynomials import Polynomial, mono_key, mono_mul, monomials_of_degree
from artinlocal.quotient import AlgebraElement, build_quotient, row_space_equal


class OracleEchelon:
    """Row echelon form with every row normalized to 1 at its pivot, the
    lowest rank in its support; raw field values throughout."""

    def __init__(self, field):
        self.field = field
        self.pivots = {}  # pivot rank -> row with that pivot normalized to 1
        self.rank = 0

    def reduce(self, row):
        """Fully reduce a row: eliminate every pivot rank from its support."""
        f = self.field
        row = dict(row)
        while True:
            hit = None
            for r in row:
                if r in self.pivots and (hit is None or r < hit):
                    hit = r
            if hit is None:
                return row
            c = row.pop(hit)
            for r2, c2 in self.pivots[hit].items():
                if r2 == hit:
                    continue
                s = f.rsub(row.get(r2, f.rzero), f.rmul(c, c2))
                if f.riszero(s):
                    row.pop(r2, None)
                else:
                    row[r2] = s

    def add(self, row) -> bool:
        """Insert a row; return True if it enlarged the span."""
        f = self.field
        row = self.reduce(row)
        row = {r: c for r, c in row.items() if not f.riszero(c)}
        if not row:
            return False
        lead = min(row)
        inv = f.rinv(row[lead])
        row = {r: f.rmul(c, inv) for r, c in row.items()}
        self.pivots[lead] = row
        self.rank += 1
        return True

    def contains(self, row) -> bool:
        return not self.reduce(row)


def shifted_row(g_terms, mult, table):
    """Row of the product (monomial mult) * g, truncated below table.D."""
    row = {}
    idx = table.index
    for m, c in g_terms:
        r = idx.get(mono_mul(m, mult))
        if r is not None:
            row[r] = c
    return row


def separate_echelon(pres, D):
    """Echelon of {m*g : deg(m) + ord(g) < D}, generator by generator."""
    table = MonomialTable(pres.nvars, D)
    ech = OracleEchelon(pres.field)
    for g in pres.gens:
        terms = list(g.truncate(D).terms.items())
        if not terms:
            continue
        o = min(sum(m) for m, _ in terms)
        for d in range(D - o):
            for mult in monomials_of_degree(pres.nvars, d):
                row = shifted_row(terms, mult, table)
                if row:
                    ech.add(row)
    return table, ech


def oracle_macaulay_echelon(pres, D):
    """(table, ech, v) as quotient.macaulay_echelon returns them, trying
    every multiple m*g with deg(m) >= 1 before the generators; v = dim I/nI
    for any D with n^D contained in nI."""
    table = MonomialTable(pres.nvars, D)
    ech = OracleEchelon(pres.field)
    gen_rows = []
    for g in pres.gens:
        terms = list(g.truncate(D).terms.items())
        if not terms:
            continue
        o = min(sum(m) for m, _ in terms)
        gen_rows.append(row_from_poly(g, table))
        for d in range(1, D - o):
            for mult in monomials_of_degree(pres.nvars, d):
                row = shifted_row(terms, mult, table)
                if row:
                    ech.add(row)
    v = sum(1 for row in gen_rows if ech.add(row))
    return table, ech, v


def divisor_list_macaulay_echelon(pres, D):
    """(table, ech, v) by the divisor-list loop on SparseEchelon: every
    multiplier m in table order, tried when the rows of all its divisors
    m/x_i were kept, as the x_i-shift of the raw row of (m/x_i)*g for the
    first such i."""
    table = MonomialTable(pres.nvars, D)
    ech = SparseEchelon(pres.field)
    gen_rows = []
    for g in pres.gens:
        row = row_from_poly(g, table)
        if not row:
            continue
        gen_rows.append(row)
        kept = {0: row}  # multiplier rank -> row of m*g, for the rows kept
        for r in range(1, comb(pres.nvars + D - 1 - table.deg(min(row)), pres.nvars)):
            m = table.monos[r]
            divs = [(table.shift[i], table.index[m[:i] + (e - 1,) + m[i + 1:]])
                    for i, e in enumerate(m) if e]
            if all(d in kept for _, d in divs):
                shift, d = divs[0]
                row = {shift[k]: c for k, c in kept[d].items() if shift[k] is not None}
                if ech.add(row):
                    kept[r] = row
    v = sum(1 for row in gen_rows if ech.add(row))
    return table, ech, v


def oracle_mult_matrix(A, el):
    """Column-major matrix of multiplication by el on A's standard basis,
    each column the coords of the product of el.poly with a standard
    monomial as polynomials."""
    f = A.field
    return [A.coords(el.poly * Polynomial(A.nvars, f, {A.table.monos[r]: f.rone}))
            for r in A.std]


def oracle_mul(a, b):
    """a*b, the untruncated polynomial product then nf; b is an element of
    a's algebra or a scalar."""
    A = a.algebra
    return AlgebraElement(A, A.nf(a.poly * (b.poly if isinstance(b, AlgebraElement) else b)))


def oracle_pow(a, n):
    """a^n for n >= 0, one factor at a time from 1."""
    out = a.algebra.element(1)
    for _ in range(n):
        out = oracle_mul(out, a)
    return out


def oracle_nth_root(A, a, n):
    """An n-th root of the unit a, Newton from the residue's root until the
    error vanishes, at most s+2 steps."""
    c = A.element(a.residue().nth_root(n))
    for _ in range(A.socle_degree + 2):
        err = c ** n - a
        if err.is_zero():
            return c
        c = c - err * (c ** (n - 1) * n).inverse()
    raise RuntimeError("Newton iteration for the n-th root did not converge")


def oracle_socle(A):
    """(dimension, basis polynomials) of A's socle: the common kernel of
    the multiplication matrices of the normal forms of x_1..x_h, each
    column the coords of a product with a standard monomial."""
    e = A.length
    rows = []
    for i in range(A.nvars):
        cols = oracle_mult_matrix(A, A.variable(i))
        for r in range(e):
            rows.append([cols[c][r] for c in range(e)])
    basis = [A.from_coords(v) for v in oracle_nullspace(rows, A.field)]
    basis.sort(key=lambda p: min((mono_key(m) for m in p.terms), default=(0, ())))
    return len(basis), basis


def oracle_rref(M, field):
    """(R, pivots) of whole-row Gauss-Jordan elimination: R in reduced row
    echelon form, pivots the columns of its leading ones."""
    R = [list(r) for r in M]
    pivots = []
    for col in range(len(R[0]) if R else 0):
        rank = len(pivots)
        if rank == len(R):
            break
        piv = next((i for i in range(rank, len(R)) if not field.riszero(R[i][col])), None)
        if piv is None:
            continue
        R[rank], R[piv] = R[piv], R[rank]
        inv = field.rinv(R[rank][col])
        R[rank] = [field.rmul(inv, v) for v in R[rank]]
        for i in range(len(R)):
            if i != rank and not field.riszero(R[i][col]):
                c = R[i][col]
                R[i] = [field.rsub(a, field.rmul(c, b)) for a, b in zip(R[i], R[rank])]
        pivots.append(col)
    return R, pivots


def oracle_solve(M, b, field):
    """One solution x of M x = b read off whole-row Gauss-Jordan, or None."""
    if not M:
        return []
    n = len(M[0])
    R, pivots = oracle_rref([list(row) + [bi] for row, bi in zip(M, b)], field)
    if pivots and pivots[-1] == n:
        return None
    x = [field.rzero] * n
    for row, col in zip(R, pivots):
        x[col] = row[n]
    return x


def oracle_nullspace(M, field):
    """Kernel basis of M read off whole-row Gauss-Jordan."""
    if not M:
        return []
    n = len(M[0])
    R, pivots = oracle_rref(M, field)
    basis = []
    for fc in sorted(set(range(n)) - set(pivots)):
        v = [field.rzero] * n
        v[fc] = field.rone
        for row, col in zip(R, pivots):
            v[col] = field.rneg(row[fc])
        basis.append(v)
    return basis


def oracle_leading_forms(pres, s):
    """(dims, new_gens, v_star) of I*, from a fresh echelon of
    (I + n^(j+1))/n^(j+1) for every degree j = 1..s+2."""
    f = pres.field
    dims, new_gens = {}, {}
    prev_basis = []
    v_star = 0
    for j in range(1, s + 3):
        table, ech = separate_echelon(pres, j + 1)
        basis = [poly_from_row(row, table, f, pres.nvars)
                 for lead, row in ech.pivots.items() if table.deg(lead) == j]
        basis.sort(key=lambda p: min(mono_key(m) for m in p.terms))
        shifted = OracleEchelon(f)
        grown = 0
        for b in prev_basis:
            for i in range(pres.nvars):
                q = Polynomial.variable(i, pres.nvars, f) * b
                row = row_from_poly(q, table)
                if row and shifted.add(row):
                    grown += 1
        dims[j] = len(basis)
        new_gens[j] = len(basis) - grown
        v_star += len(basis) - grown
        prev_basis = basis
    return dims, new_gens, v_star


def oracle_power_echelon(A, j):
    """Echelon of the coordinate span of m^j inside A: the coordinates of
    every monomial of degree j..s."""
    f = A.field
    ech = OracleEchelon(f)
    for d in range(max(j, 0), A.socle_degree + 1):
        for m in monomials_of_degree(A.nvars, d):
            coords = A.coords(Polynomial(A.nvars, f, {m: f.rone}))
            row = {i: c for i, c in enumerate(coords) if not f.riszero(c)}
            if row:
                ech.add(row)
    return ech


def oracle_in_power(power_ech, A, el):
    """Is el in m^j, given the oracle echelon of m^j?"""
    row = {i: c for i, c in enumerate(el.coords()) if not A.field.riszero(c)}
    return power_ech.contains(row)


def oracle_classes_independent(next_power_ech, A, elems):
    """Are the classes of elems independent modulo m^(j+1), given the oracle
    echelon of m^(j+1)?"""
    ech = OracleEchelon(A.field)
    ech.pivots = {k: dict(v) for k, v in next_power_ech.pivots.items()}
    ech.rank = next_power_ech.rank
    for el in elems:
        if not ech.add({i: c for i, c in enumerate(el.coords())
                        if not A.field.riszero(c)}):
            return False
    return True


def ideals_equal(p1, p2):
    """Equality of the generated ideals, checked at a safe truncation."""
    A = build_quotient(p1)
    D = max(A.D, max(g.degree() for g in p2.gens) + 2)
    return row_space_equal(p1, p2, D)
