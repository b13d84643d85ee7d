"""Numerical semigroups and minimal presentations of monomial curves.

A numerical semigroup S = <n1, ..., nk> (gcd 1) is the value semigroup of
the monomial curve (t^n1, ..., t^nk); the minimal presentation size of S
equals the minimal number of generators of the defining ideal of the curve.
The Apery set of n1 (Rosales and Garcia-Sanchez, "Numerical Semigroups",
2009, ch. 1) answers every membership question: it gives F, finds redundant
generators, prunes enumerate_semigroups and decides symmetry.  The
presentation count still lists factorizations (factorization graphs) until
the benchmark stops keeping every pass's digests (ROADMAP item 1), which
unblocks Betti elements from Apery candidates (item 2).  The counts are
cross-checked by kernel_min_gens, a linear-algebra oracle on the binomial
kernel, and in the tests by the paper's reduction to the Artinian case:
k[[S]]/(t^n1) must have min_gens, length, type and Gorenstein property
S's presentation size, n1, type and symmetry.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from itertools import combinations

from .errors import GcdNotOne, NonMinimalGenerators
from .linalg import SparseEchelon
from .scalars import QQ


def _apery_set(gens):
    """Least element of <gens> in each residue class mod gens[0], or None
    for a class that <gens> does not reach (only when the gcd exceeds 1).

    Shortest-path search on the residue graph: from residue r one can step
    to (r + n_i) mod n1 at cost n_i.
    """
    n1 = gens[0]
    dist = [None] * n1
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if dist[r] is not None and d > dist[r]:
            continue
        for n in gens:
            r2 = (r + n) % n1
            d2 = d + n
            if dist[r2] is None or d2 < dist[r2]:
                dist[r2] = d2
                heapq.heappush(heap, (d2, r2))
    return tuple(dist)


@dataclass(frozen=True)
class NumericalSemigroup:
    """A numerical semigroup given by its minimal generators.

    Derived data: multiplicity e = n1, embedding dimension k, h = k - 1,
    the Apery set with respect to n1, and the Frobenius number.
    """

    gens: tuple
    apery: tuple
    frobenius: int

    @property
    def multiplicity(self):
        return self.gens[0]

    @property
    def embdim(self):
        return len(self.gens)

    @property
    def h(self):
        return len(self.gens) - 1

    def __contains__(self, x):
        if x < 0:
            return False
        return self.apery[x % self.gens[0]] <= x

    def is_symmetric(self):
        """Symmetric about F (x in S exactly when F - x is not; never both,
        as F is not in S), equivalently a Gorenstein semigroup ring: exactly
        when w_i + w_(n1-1-i) = M for w the sorted Apery set and M = F + n1
        its maximum (Rosales and Garcia-Sanchez, Prop. 4.10).  As w -> M - w
        reverses order, that says M - Ap = Ap.  If S is symmetric and w in
        Ap, M - w = F - (w - n1) lies in S and M - w - n1 = F - w does not.
        Conversely, for x not in S take w in Ap, w = x + q*n1 with q >= 1:
        F - x = (M - w) + (q - 1)*n1 lies in S.  <1> (Ap = (0,), F = -1) is
        symmetric."""
        w = sorted(self.apery)
        return all(a + b == w[-1] for a, b in zip(w, reversed(w)))

    def factorizations(self, m):
        """All exponent vectors u with sum(u_i * n_i) = m."""
        out = []
        k = len(self.gens)

        def rec(i, rest, prefix):
            if i == k - 1:
                q, r = divmod(rest, self.gens[i])
                if r == 0:
                    out.append(prefix + (q,))
                return
            n = self.gens[i]
            for c in range(rest // n + 1):
                rec(i + 1, rest - c * n, prefix + (c,))

        if m >= 0:
            rec(0, m, ())
        return out


def semigroup_invariants(gens) -> NumericalSemigroup:
    """Validate a generating list and package the basic invariants.

    Raises ValueError unless each generator is a positive integer (through
    operator.index, not a bool), GcdNotOne if they are not coprime overall
    and NonMinimalGenerators if some generator lies in the semigroup
    generated by the others (or is repeated): exactly when n - m lies in S
    for a smaller generator m, as a sum of the others equal to n uses only
    smaller ones, and one of n - m < n cannot use n.
    """
    gens = list(gens)
    ints = all(hasattr(n, "__index__") and not isinstance(n, bool) for n in gens)
    gens = tuple(sorted(map(operator.index, gens))) if ints else ()
    if not gens or gens[0] < 1:
        raise ValueError("generators must be positive integers")
    if math.gcd(*gens) != 1:
        raise GcdNotOne(f"gcd of {gens} is {math.gcd(*gens)}")
    if len(set(gens)) != len(gens):
        raise NonMinimalGenerators("repeated generator")
    apery = _apery_set(gens)
    assert all(d is not None for d in apery) and len(apery) == gens[0]
    S = NumericalSemigroup(gens, apery, max(apery) - gens[0])
    for i, n in enumerate(gens):
        if any(n - m in S for m in gens[:i]):
            raise NonMinimalGenerators(
                f"{n} is generated by the remaining elements"
            )
    return S


# ----------------------------------------------------- factorization graphs


@dataclass(frozen=True)
class FactorizationGraph:
    """Factorizations of one element, with edges between factorizations
    whose supports share a coordinate; the component count drives the
    minimal-presentation calculus."""

    element: int
    factorizations: tuple
    components: int


def factorization_graph(S: NumericalSemigroup, m) -> FactorizationGraph:
    facs = S.factorizations(m)
    n = len(facs)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in combinations(range(n), 2):
        if any(facs[i][t] and facs[j][t] for t in range(len(S.gens))):
            parent[find(i)] = find(j)
    comps = len({find(i) for i in range(n)}) if n else 0
    return FactorizationGraph(m, tuple(facs), comps)


def betti_search_bound(S: NumericalSemigroup) -> int:
    """Upper end of the element range scanned for disconnected
    factorization graphs: F(S) + 2 * max generator.

    Proof that no such m lies past it.  Factorizations that both use n1
    are adjacent, so if the graph of m has two components, one of them
    uses no n1.  Take u in it and i in its support.  If m - n_i - n1 were
    in S, with factorization w, then w + e_i + e_1 would share i with u
    and use n1; so m - n_i lies in the Apery set of n1, whose maximum is
    F + n1, and m <= F + n1 + n_k <= F + 2 * n_k."""
    return S.frobenius + 2 * S.gens[-1]


def min_presentation_size(S: NumericalSemigroup) -> int:
    """Minimal number of relations presenting S; equals the minimal number
    of generators v(I) of the defining ideal of the monomial curve.

    Each element m whose factorization graph has c(m) components
    contributes c(m) - 1 relations.  For <1> (F = -1) the scan is empty.
    """
    total = 0
    for m in range(2 * S.gens[0], betti_search_bound(S) + 1):
        if m not in S:
            continue
        g = factorization_graph(S, m)
        if g.components > 1:
            total += g.components - 1
    return total


def kernel_min_gens(S: NumericalSemigroup) -> int:
    """Brute-force oracle: minimal generators of the binomial kernel ideal,
    counted degreewise in the grading by semigroup value.

    In S-degree m the kernel is spanned by differences of factorizations of
    m; the part already generated in lower degrees is spanned by the images
    of the degree m - n_i differences under multiplication by the i-th
    variable.  The new-generator count in degree m is the difference of the
    two ranks.  Quadratic in the factorization counts; intended for small
    multiplicities only.  The scan [2*n1, F + n1 + nk] misses no generator.
    Below 2*n1 an element has one factorization at most.  For m past
    F + n1 + nk, each m - n_i is past F + n1, the largest element of the
    Apery set of n1, so m - n_i - n1 has a factorization w.  A factorization
    of m using i and w + e_i + e_1 differ by the x_i-image of a degree
    m - n_i difference, two using n1 by an x_1-image, so the images span
    every difference in degree m.  For <1> (F = -1) the scan is empty."""
    k = len(S.gens)
    total = 0
    for m in range(2 * S.gens[0], S.frobenius + S.gens[0] + S.gens[-1] + 1):
        if m not in S:
            continue
        facs = S.factorizations(m)
        t = len(facs)
        if t <= 1:
            continue
        index = {f: i for i, f in enumerate(facs)}
        ech = SparseEchelon(QQ)
        for i in range(k):
            below = S.factorizations(m - S.gens[i])
            if len(below) < 2:
                continue
            base = tuple(
                c + (1 if j == i else 0) for j, c in enumerate(below[0])
            )
            for u in below[1:]:
                shifted = tuple(
                    c + (1 if j == i else 0) for j, c in enumerate(u)
                )
                ech.add({index[base]: QQ.rfrom(-1), index[shifted]: QQ.rone})
        total += (t - 1) - ech.rank
    return total


# ----------------------------------------------------------- bound windows


def check_rgs(S: NumericalSemigroup) -> dict:
    """Evaluate the generator-count bound windows for the monomial curve.

    With e the multiplicity and h = embdim - 1, the windows are:
    (R1) h+2 <= e <= h+3:  C(h+2,2) - e <= v <= C(h+1,2);
    (R2) Gorenstein and h+2 <= e <= h+4:  v = C(h+1,2) - 1;
    (R3) e = h+4:  C(h+2,2) - e <= v <= C(h+1,2) + 1.
    When e = h+1 (minimal multiplicity) the classical equality
    v = C(h+1,2) is reported instead.
    """
    e = S.multiplicity
    h = S.h
    v = min_presentation_size(S)
    symmetric = S.is_symmetric()
    report = {
        "gens": list(S.gens),
        "e": e,
        "h": h,
        "frobenius": S.frobenius,
        "symmetric": symmetric,
        "v": v,
        "windows": {},
        "violations": [],
    }
    c1, c2 = math.comb(h + 1, 2), math.comb(h + 2, 2)
    # The Gorenstein equality concerns codimension >= 2; a plane curve is a
    # hypersurface with v = 1 regardless of e, so h = 1 is excluded from R2.
    # A window with lower == upper is an equality; R1 and R3 never are one,
    # as c2 - e = c1 needs e = h+1 and c2 - e = c1 + 1 needs e = h.
    windows = (
        ("minimal_multiplicity", h >= 1 and e == h + 1, c1, c1),
        ("R1", h + 2 <= e <= h + 3, c2 - e, c1),
        ("R2", symmetric and h >= 2 and h + 2 <= e <= h + 4, c1 - 1, c1 - 1),
        ("R3", e == h + 4, c2 - e, c1 + 1),
    )
    for name, applies, lo, hi in windows:
        if not applies:
            continue
        ok = lo <= v <= hi
        report["windows"][name] = (
            {"applies": True, "expected_v": lo, "holds": ok} if lo == hi
            else {"applies": True, "lower": lo, "upper": hi, "holds": ok})
        if not ok:
            report["violations"].append(name)
    return report


def semigroup_report(gens) -> dict:
    """JSON-friendly summary for one semigroup."""
    S = semigroup_invariants(gens)
    rgs = check_rgs(S)
    return {
        "schema": 1,
        "gens": list(S.gens),
        "e": S.multiplicity,
        "k": S.embdim,
        "h": S.h,
        "frobenius": S.frobenius,
        "symmetric": rgs["symmetric"],
        "v": rgs["v"],
        "rgs_report": {"windows": rgs["windows"],
                       "violations": rgs["violations"]},
    }


def enumerate_semigroups(max_mult, max_embdim, max_gen):
    """All minimally generated semigroups with multiplicity <= max_mult,
    embedding dimension <= max_embdim, and every generator <= max_gen.

    The generator cap makes the family finite; it is a parameter so callers
    can choose how deep to scan.  A prefix grows by each larger n that the
    Apery set of the prefix puts outside <prefix>, so every tuple built is
    minimal (see semigroup_invariants).
    """
    out = []

    def rec(gens):
        if math.gcd(*gens) == 1:
            out.append(semigroup_invariants(gens))
        if len(gens) == max_embdim:
            return
        apery, n1 = _apery_set(gens), gens[0]
        for n in range(gens[-1] + 1, max_gen + 1):
            w = apery[n % n1]
            if w is None or w > n:
                rec(gens + [n])

    for n1 in range(2, max_mult + 1):
        rec([n1])
    return out
