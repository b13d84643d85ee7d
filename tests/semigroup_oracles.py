"""Slow reference paths for the semigroup computations the Apery set
answers.

The dynamic program over 0..target is the reference for membership, and so
for redundant generators; the recursive enumeration that tests each
candidate with it, and lets semigroup_invariants reject the non-minimal
tuples, is the reference for the enumeration pruned by the Apery set of the
prefix; and the scan of 0..F for an x with x and F - x both in S or both
outside is the reference for the symmetry criterion on the Apery set.
They share no code with the paths they check but semigroup_invariants,
which the enumeration reference calls to package what it keeps.

artinian_reduction is the paper's reduction of a monomial curve to the
Artinian case, an ideal that no model built: A_S = k[[S]]/(t^n1) as a
quotient of k[[x2..xk]].  Its colength, embedding dimension, generator
count, type and Gorenstein property must be those of S (see
artinian_reduction), so the Artinian engine's hf, socle and min_gens are
checked on binomial ideals against the semigroup's own counts.
"""

import math

from artinlocal.errors import NonMinimalGenerators
from artinlocal.polynomials import Polynomial
from artinlocal.quotient import IdealPresentation
from artinlocal.scalars import QQ
from artinlocal.semigroups import semigroup_invariants


def reachable(limit, gens):
    """reach[v] for 0 <= v <= limit: is v a non-negative integer
    combination of gens?"""
    reach = [False] * (limit + 1)
    reach[0] = True
    for v in range(1, limit + 1):
        for n in gens:
            if n <= v and reach[v - n]:
                reach[v] = True
                break
    return reach


def representable(target, gens):
    return reachable(target, gens)[target]


def oracle_non_minimal(gens):
    """Does some generator lie in the semigroup of the others, by the
    dynamic program (gens distinct)?"""
    return len(gens) > 1 and any(
        representable(n, gens[:i] + gens[i + 1:]) for i, n in enumerate(gens))


def oracle_enumerate_semigroups(max_mult, max_embdim, max_gen):
    """The generator tuples of enumerate_semigroups, in its order: every
    prefix extended by each larger candidate the dynamic program finds
    outside it, and semigroup_invariants left to reject the rest."""
    out = []

    def rec(gens, last):
        if math.gcd(*gens) == 1:
            try:
                out.append(semigroup_invariants(gens).gens)
            except NonMinimalGenerators:
                pass
        if len(gens) == max_embdim:
            return
        for n in range(last + 1, max_gen + 1):
            if representable(n, gens):
                continue
            rec(gens + [n], n)

    for n1 in range(2, max_mult + 1):
        rec([n1], n1)
    return out


def oracle_is_symmetric(S):
    """x in S exactly when F - x is not, scanned over 0..F."""
    F = S.frobenius
    reach = reachable(max(F, 0), S.gens)
    return all(reach[x] != reach[F - x] for x in range(F + 1))


def artinian_reduction(S):
    """The ideal J_S of k[[x2..xk]] (k >= 2 generators) with quotient
    A_S = k[[S]]/(t^n1), x_i -> t^(n_i); its basis is t^w, w in Ap(S, n1).

    J_S is generated by the chained differences of the factorizations of
    each w in Ap (none uses n1, as w - n1 is not in S) and the monomials
    x^a*x_i with a a factorization of some w in Ap and w + n_i not in Ap.
    Each maps to 0: t^(w + n_i) lies in (t^n1) when w + n_i - n1 is in S.
    They generate the kernel: a monomial x^b with |b| not in Ap has, on a
    chain of divisors from 1 to x^b, a first step x^a -> x^a*x_i out of
    Ap (0 is in Ap), so it is a multiple of such a monomial; the
    monomials with |b| = w in Ap are joined by the differences; so modulo
    these generators every power series is a combination of one monomial
    per w in Ap, and those map to the independent t^w.

    So colength(J_S) = n1, and J_S lies in n^2, as a minimal generator has
    one factorization: embdim = k - 1.  x1 is regular on the domain k[[S]]
    and lies in n but not in n^2, so v(J_S) = v(I_S) = the minimal presentation
    size of S; A_S has the type of S, the count of apery_type (Froberg,
    Gottlieb and Haggkvist, Semigroup Forum 35, 1987), and is Gorenstein
    exactly when S is symmetric (Kunz, Proc. AMS 25, 1970)."""
    h = len(S.gens) - 1
    apery = set(S.apery)
    gens = set()
    for w in apery:
        facs = [a[1:] for a in S.factorizations(w)]
        gens |= {((a, 1), (b, -1)) for a, b in zip(facs, facs[1:])}
        for i, n in enumerate(S.gens[1:]):
            if w + n not in apery:
                gens |= {((a[:i] + (a[i] + 1,) + a[i + 1:], 1),) for a in facs}
    return IdealPresentation([Polynomial(h, QQ, {m: QQ.rfrom(c) for m, c in g})
                              for g in sorted(gens)], h, QQ)


def apery_type(S):
    """The type of S: the elements of Ap(S, n1) maximal under <=_S (w <= v
    when v - w lies in S), membership by the dynamic program."""
    apery = S.apery
    reach = reachable(max(apery), S.gens)
    return sum(1 for w in apery if not any(v > w and reach[v - w] for v in apery))
