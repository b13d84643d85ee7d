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
"""

import math

from artinlocal.errors import NonMinimalGenerators
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
