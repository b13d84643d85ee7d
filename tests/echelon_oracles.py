"""Slow reference paths for the invariants read off the shared echelon.

These are the separate-echelon computations the library used before it
read v(I) and the leading-form ideal off the quotient's own Macaulay
echelon: one echelon of nI plus the generators for the generator count,
and one full echelon per degree for the leading forms.  They build their
own echelons from the linalg primitives, so they share no code with the
paths they check beyond sparse row reduction itself.
"""

from artinlocal.linalg import (
    MonomialTable,
    SparseEchelon,
    poly_from_row,
    row_from_poly,
    same_row_space,
    shifted_row,
)
from artinlocal.polynomials import Polynomial, mono_key, monomials_of_degree


def separate_echelon(pres, D):
    """Echelon of {m*g : deg(m) + ord(g) < D}, generator by generator."""
    table = MonomialTable(pres.nvars, D)
    ech = SparseEchelon(pres.field)
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


def oracle_min_gens(pres, D):
    """dim I/nI as the rank jump of the generators over an echelon of nI,
    valid for any D with n^D contained in nI."""
    table = MonomialTable(pres.nvars, D)
    ech = SparseEchelon(pres.field)
    gen_rows = []
    for g in pres.gens:
        terms = list(g.truncate(D).terms.items())
        if not terms:
            continue
        o = min(sum(m) for m, _ in terms)
        gen_rows.append(shifted_row(terms, (0,) * pres.nvars, table))
        for d in range(1, D - o):
            for mult in monomials_of_degree(pres.nvars, d):
                row = shifted_row(terms, mult, table)
                if row:
                    ech.add(row)
    return sum(1 for row in gen_rows if ech.add(row))


def oracle_leading_forms(pres, s):
    """(dims, new_gens, bases, v_star) of I*, from a fresh echelon of
    (I + n^(j+1))/n^(j+1) for every degree j = 1..s+2."""
    f = pres.field
    dims, new_gens, bases = {}, {}, {}
    prev_basis = []
    v_star = 0
    for j in range(1, s + 3):
        table, ech = separate_echelon(pres, j + 1)
        basis = [poly_from_row(row, table, f, pres.nvars)
                 for lead, row in ech.pivots.items() if table.deg(lead) == j]
        basis.sort(key=lambda p: min(mono_key(m) for m in p.terms))
        shifted = SparseEchelon(f)
        grown = 0
        for b in prev_basis:
            for i in range(pres.nvars):
                q = Polynomial.variable(i, pres.nvars, f) * b
                row = row_from_poly(q, table)
                if row and shifted.add(row):
                    grown += 1
        dims[j] = len(basis)
        new_gens[j] = len(basis) - grown
        bases[j] = basis
        v_star += len(basis) - grown
        prev_basis = basis
    return dims, new_gens, bases, v_star


def same_span(polys1, polys2, field, nvars, D):
    """Do two lists of polynomials of degree < D span the same space?"""
    table = MonomialTable(nvars, D)
    echs = []
    for polys in (polys1, polys2):
        ech = SparseEchelon(field)
        for p in polys:
            ech.add(row_from_poly(p, table))
        echs.append(ech)
    return same_row_space(*echs)
