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
tries every multiple m*g, those of the single-term generators first in
the rank order of their products, is the reference for the row-saving one
the library runs, which stores those as one batch of unit rows; the loop
that lists every multiplier's divisors is the reference for the one that
builds each degree's candidates from the rows kept in the degree before.
Dense Gauss-Jordan elimination that sweeps whole rows is the reference
for the dense solves the library builds on SparseEchelon, and the socle
from the multiplication matrices of the variables' normal forms, with its
kernel from that Gauss-Jordan sweep, is the reference for the one built
from table shifts.  One dense solve for
whole unknown elements over those multiplication matrices, whose columns
are the coordinates of polynomial products, is the reference for the
witness stages' scalar solves over the powers of x1.  The product of elements
formed in full before its normal form, and powers taken one factor at a
time from 1, are the reference for the products cut below degree s+1 and
the powers by squaring.  The finite geometric series is the reference
for the unit inverse by the division-free Newton step, and Newton's loop
that runs until the error vanishes, with the socle degree plus 2 as its
cap and its divisions by that series, is the reference for nth_root.
Factoring a leading quadric and lifting the factors through the
filtration, step by step up to a cap, is the reference for the
split-quadric test that reads its answer off the tangent cone.
The products and the substitution with one field operation on raw values
per pair of terms, each term of a substitution added to the result one at
a time, are the reference for the fraction-free ones on working values;
oracle_mul forms its product with them.  ideals_equal, the ideal equality
the quotient tests use, is built on the library's build_quotient and
row_space_equal.  The build at a fixed cap on the divisor-list loop, from
max(4, max degree + 2) one degree up at a time and never lowered, so
sharing no code with the lowering, is the reference for build_quotient,
which lowers its cap to s+2 as degrees fill.  The parser
whose values are Polynomials, with one Polynomial operation per sum,
product and power (a power one factor at a time), is the reference for
the one whose values are working dicts; its sums are oracle_add, the
term-by-term loop on raw values that is the reference for Polynomial's +
and -, which add in working form over the lcm of the scales.
"""

import re
from math import comb

from artinlocal.errors import NotArtinian, ParseError
from artinlocal.linalg import (
    MonomialTable,
    SparseEchelon,
    poly_from_row,
    row_from_poly,
    solve_dense,
)
from artinlocal.polynomials import Polynomial, mono_key, monomials_of_degree
from artinlocal.quotient import (
    D_MAX,
    AlgebraElement,
    ArtinAlgebra,
    build_quotient,
    extend_scalars,
    row_space_equal,
)
from artinlocal.scalars import Scalar, common_field
from artinlocal.structure import _sqrt_growing, solve_scalar_combo


def mono_mul(m1, m2):
    return tuple(a + b for a, b in zip(m1, m2))


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
    """(table, ech, v) at the cap D, never lowered: the first three of what
    quotient.macaulay_echelon returns when it ends at D, trying every
    multiple m*g with deg(m) >= 1 before the generators; v = dim I/nI for
    any D with n^D contained in nI.  The multiples of the single-term
    generators go first, all of them, in the rank order of their products
    (the library's batch of unit rows); then those of the other generators,
    generator by generator."""
    table = MonomialTable(pres.nvars, D)
    ech = OracleEchelon(pres.field)
    gen_rows, batch, others = [], [], []
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
                    (batch if len(g.terms) == 1 else others).append(row)
    for row in sorted(batch, key=min) + others:
        ech.add(row)
    v = sum(1 for row in gen_rows if ech.add(row))
    return table, ech, v


def oracle_build_quotient(pres):
    """The quotient built at a fixed cap on the divisor-list loop: from
    max(4, max degree + 2), one degree up at a time until hf has a zero
    below it, the cap never lowered, so it may end above s+2."""
    D = min(max(4, pres.max_degree + 2), D_MAX)
    while True:
        table, ech, v = divisor_list_macaulay_echelon(pres, D)
        hf = [0] * D
        for r in range(len(table.monos)):
            if r not in ech.leads:
                hf[table.degs[r]] += 1
        if 0 in hf:
            return ArtinAlgebra(pres, table, ech, v, hf[:hf.index(0)])
        if D >= D_MAX:
            raise NotArtinian(f"the Hilbert function did not vanish below {D_MAX}")
        D += 1


def divisor_list_macaulay_echelon(pres, D):
    """(table, ech, v) at the cap D, never lowered, by the divisor-list
    loop on SparseEchelon: every multiplier m in table order, tried when
    the rows of all its divisors m/x_i were kept, as the x_i-shift of the
    raw row of (m/x_i)*g for the first such i."""
    table = MonomialTable(pres.nvars, D)
    ech = SparseEchelon(pres.field)
    gen_rows = []
    for g in pres.gens:
        row = row_from_poly(g, table)
        if not row:
            continue
        gen_rows.append(row)
        kept = {0: row}  # multiplier rank -> row of m*g, for the rows kept
        for r in range(1, comb(pres.nvars + D - 1 - table.degs[min(row)], pres.nvars)):
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


def oracle_solve_element_combo(A, coeffs, rhs):
    """Elements z_i with sum_i coeffs[i] * z_i = rhs, or None: one
    solve_dense on the multiplication matrices of the coeffs side by side,
    each block of e = A.length unknowns the coordinates of one z_i."""
    e = A.length
    cols = [col for c in coeffs for col in oracle_mult_matrix(A, c)]
    sol = solve_dense([[col[r] for col in cols] for r in range(e)], rhs.coords(), A.field)
    if sol is None:
        return None
    return [A.element(A.from_coords(sol[i * e:(i + 1) * e])) for i in range(len(coeffs))]


def oracle_mul_trunc(a, b, D):
    """a*b with every term of degree >= D dropped (D None: none), one
    field operation on raw values per pair of terms."""
    a, b = a._sameify(b)
    f = a.field
    terms = {}
    for m1, c1 in a.terms.items():
        d1 = sum(m1)
        if D is not None and d1 >= D:
            continue
        for m2, c2 in b.terms.items():
            if D is not None and d1 + sum(m2) >= D:
                continue
            m = mono_mul(m1, m2)
            s = f.radd(terms.get(m, f.rzero), f.rmul(c1, c2))
            if f.riszero(s):
                terms.pop(m, None)
            else:
                terms[m] = s
    return Polynomial(a.nvars, f, terms)


def oracle_add(a, b, sub=False):
    """a + b, or a - b with sub: a's terms copied, then each term of b,
    negated with sub, added into them with one field operation on raw
    values, a sum that cancels removed."""
    a, b = a._sameify(b)
    f = a.field
    terms = dict(a.terms)
    for m, c in b.terms.items():
        s = f.radd(terms.get(m, f.rzero), f.rneg(c) if sub else c)
        if f.riszero(s):
            terms.pop(m, None)
        else:
            terms[m] = s
    return Polynomial(a.nvars, f, terms)


def oracle_substitute(p, images, D):
    """p at x_i -> images[i], over the common field of p's and the images'
    coefficients: each term from its constant, multiplied by one cached
    power of each image at a time with oracle_mul_trunc, every product
    cut below D, and the terms added one by one."""
    f = p.field
    for im in images:
        f = common_field(f, im.field)
    images = [im.map_field(f) for im in images]
    nvars = images[0].nvars
    powers = [[Polynomial.constant(1, nvars, f)] for _ in images]
    out = Polynomial(nvars, f)
    for m, c in p.terms.items():
        term = Polynomial.constant(Scalar(p.field, c), nvars, f)
        for i, e in enumerate(m):
            while len(powers[i]) <= e:
                powers[i].append(oracle_mul_trunc(powers[i][-1], images[i], D))
            term = oracle_mul_trunc(term, powers[i][e], D)
        out = oracle_add(out, term)
    return out


_ORACLE_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<var>x\d+)|(?P<sqrt>sqrt)|(?P<op>[-+*/^()]))"
)


class _OracleParser:
    """Recursive descent over the polynomial grammar with Polynomial values;
    parse_poly's messages for malformed text."""

    def __init__(self, text, nvars, field):
        self.toks, pos = [], 0
        while pos < len(text):
            m = _ORACLE_TOKEN.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise ParseError(f"bad character near {text[pos:pos + 10]!r}")
                break
            pos = m.end()
            kind = m.lastgroup
            if kind == "num":
                self.toks.append(("num", int(m.group("num"))))
            elif kind == "var":
                self.toks.append(("var", int(m.group("var")[1:])))
            else:
                self.toks.append((m.group("op") if kind == "op" else kind, None))
        self.i = 0
        self.nvars = nvars
        self.field = field

    def peek(self):
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def take(self):
        if self.i >= len(self.toks):
            raise ParseError("unexpected end of input")
        self.i += 1
        return self.toks[self.i - 1]

    def constant(self, p):
        if p.is_zero():
            return p.field.zero
        if list(p.terms) == [(0,) * p.nvars]:
            return p.constant_coeff()
        return None

    def expr(self):
        sign = -1 if self.peek() == "-" else 1
        if self.peek() in ("+", "-"):
            self.take()
        p = self.term()
        if sign < 0:
            p = -p
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            p = oracle_add(p, self.term(), op == "-")
        return p

    def term(self):
        p = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()[0]
            q = self.factor()
            if op == "*":
                p = oracle_mul_trunc(p, q, None)
            else:
                c = self.constant(q)
                if c is None or c.is_zero():
                    raise ParseError("division only by nonzero constants")
                p = p.scale(c.inverse())
        return p

    def factor(self):
        if self.peek() == "-":
            self.take()
            return -self.factor()
        p = self.atom()
        if self.peek() == "^":
            self.take()
            kind, n = self.take()
            if kind != "num":
                raise ParseError("exponent must be a natural number")
            out = Polynomial.constant(1, self.nvars, self.field)
            for _ in range(n):
                out = oracle_mul_trunc(out, p, None)
            p = out
        return p

    def atom(self):
        kind, val = self.take() if self.i < len(self.toks) else (None, None)
        if kind == "num":
            return Polynomial.constant(val, self.nvars, self.field)
        if kind == "var":
            if not 1 <= val <= self.nvars:
                raise ParseError(f"variable x{val} out of range (nvars={self.nvars})")
            return Polynomial.variable(val - 1, self.nvars, self.field)
        if kind == "sqrt":
            if self.peek() != "(":
                raise ParseError("sqrt must be followed by (...)")
            self.take()
            inner = self.expr()
            if self.peek() != ")":
                raise ParseError("unbalanced parentheses in sqrt")
            self.take()
            c = self.constant(inner)
            if c is None:
                raise ParseError("sqrt of a non-constant")
            r = c.sqrt()
            if r is None:
                raise ParseError(f"sqrt({c!r}) does not exist in {self.field!r}")
            return Polynomial.constant(r, self.nvars, self.field)
        if kind == "(":
            inner = self.expr()
            if self.peek() != ")":
                raise ParseError("unbalanced parentheses")
            self.take()
            return inner
        raise ParseError("unexpected end of input" if kind is None else f"unexpected {kind!r}")


def oracle_parse_poly(text, nvars, field):
    """parse_poly with Polynomial values throughout."""
    parser = _OracleParser(text, nvars, field)
    p = parser.expr()
    if parser.i != len(parser.toks):
        raise ParseError("trailing input")
    return p


def oracle_mul(a, b):
    """a*b, the untruncated product by oracle_mul_trunc then nf; b is an
    element of a's algebra or a scalar."""
    A = a.algebra
    b = b.poly if isinstance(b, AlgebraElement) else Polynomial.constant(b, A.nvars, A.field)
    return AlgebraElement(A, A.nf(oracle_mul_trunc(a.poly, b, None)))


def oracle_pow(a, n):
    """a^n for n >= 0, one factor at a time from 1."""
    out = a.algebra.element(1)
    for _ in range(n):
        out = oracle_mul(out, a)
    return out


def oracle_inverse(u):
    """The inverse of the unit u by the finite geometric series: with r the
    residue and w = u/r - 1 in the maximal ideal, so w^(s+1) = 0,
    1/u = (1 - w + w^2 - ... + (-w)^s)/r."""
    A = u.algebra
    rinv = u.residue().inverse()
    w = oracle_mul(u, rinv) - 1
    out = power = A.element(1)
    for _ in range(A.socle_degree):
        power = oracle_mul(power, -w)
        out = out + power
    return oracle_mul(out, rinv)


def oracle_nth_root(A, a, n):
    """An n-th root of the unit a, Newton from the residue's root until the
    error vanishes, at most s+2 steps, each dividing by the derivative
    through oracle_inverse."""
    c = A.element(a.residue().nth_root(n))
    for _ in range(A.socle_degree + 2):
        err = c ** n - a
        if err.is_zero():
            return c
        c = c - err * oracle_inverse(c ** (n - 1) * n)
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
                 for lead, row in ech.pivots.items() if table.degs[lead] == j]
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


SPLIT_LIFT_STEPS = 10  # factor-lifting steps in oracle_contains_split_quadric


def oracle_contains_split_quadric(pres):
    """Does the 2-variable ideal contain z1*z2 for a minimal generating pair
    z1, z2 of the maximal ideal?  The first of q1, q2, q1 + q2 (the degree-2
    parts of the normalized echelon rows with a degree-2 pivot, in pivot
    order) whose discriminant is nonzero is factored over k(sqrt disc) as
    l1*l2, and z1 = l1, z2 = l2 are corrected by terms of degree 2..s
    until z1*z2 vanishes in the algebra; False if no such quadric exists,
    a correction has no solution or SPLIT_LIFT_STEPS steps do not reach 0.
    A disc needing a root past the tower depth cap raises
    FieldExtensionRequired."""
    f = pres.field
    A = build_quotient(pres)
    table, ech = separate_echelon(pres, A.D)
    quadrics = [{table.monos[r]: c for r, c in row.items() if table.degs[r] == 2}
                for lead, row in sorted(ech.pivots.items()) if table.degs[lead] == 2]
    if len(quadrics) >= 2:
        q1, q2 = quadrics[:2]
        quadrics = [q1, q2, {m: f.radd(q1.get(m, f.rzero), q2.get(m, f.rzero))
                             for m in set(q1) | set(q2)}]
    for coef in quadrics:
        al, be, ga = (coef.get(m, f.rzero) for m in ((2, 0), (1, 1), (0, 2)))
        disc = f.rsub(f.rmul(be, be), f.rmul(f.rfrom(4), f.rmul(al, ga)))
        if not f.riszero(disc):
            break
    else:
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
