"""Binomial calculus for Hilbert functions and generator-count bounds.

Implements the i-binomial ("Macaulay") expansion, the shift operator
n -> n^<i>, admissibility of candidate Hilbert functions, lex-segment ideals
realizing an admissible Hilbert function, and the two generator-count bounds
for an Artinian quotient of multiplicity e and embedding dimension h:

    lower:  C(h+2, 2) - e  <=  v(I)
    upper:  v(I) <= C(h+t-1, t) - r + r^<t>

where t is the unique integer with C(h+t-1, t-1) <= e < C(h+t, t) and
r = e - C(h+t-1, t-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .polynomials import Polynomial, lex_monomials
from .quotient import IdealPresentation
from .scalars import QQ


def _top(x: int, j: int) -> int:
    """The largest n >= j with C(n, j) <= x, for x, j >= 1: n doubles from
    j until C(n, j) > x, then the last step is bisected, so no C(n, j) is
    formed past twice the answer."""
    lo, hi = j, 2 * j
    while comb(hi, j) <= x:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if comb(mid, j) <= x else (lo, mid)
    return lo


def binomial_expansion(n: int, i: int):
    """The i-binomial expansion of n >= 1: pairs (n_j, j) with
    n = sum C(n_j, j), n_i > n_{i-1} > ... >= j for each term.  Each n_j
    is the largest with C(n_j, j) <= the rest, which is all of it at j = 1."""
    if n < 1 or i < 1:
        raise ValueError("need n >= 1 and i >= 1")
    out, rest, j = [], n, i
    while rest:
        nj = _top(rest, j)
        out.append((nj, j))
        rest -= comb(nj, j)
        j -= 1
    return out


def macaulay_shift(n: int, i: int) -> int:
    """n^<i>: replace each C(n_j, j) in the i-binomial expansion by
    C(n_j + 1, j + 1).  By convention 0^<i> = 0."""
    if n == 0:
        return 0
    return sum(comb(nj + 1, j + 1) for nj, j in binomial_expansion(n, i))


def t_and_r(e: int, h: int):
    """The unique t >= 2 with C(h+t-1, t-1) <= e < C(h+t, t), and the
    remainder r = e - C(h+t-1, t-1).  Requires e >= h+1 (so I in n^2).
    For n = h+t-1 that is C(n, h) <= e < C(n+1, h): n is the largest with
    C(n, h) <= e, and n >= h+1 as C(h+1, h) = h+1 <= e."""
    if h < 1 or e < h + 1:
        raise ValueError("need h >= 1 and e >= h + 1")
    n = _top(e, h)
    return n - h + 1, e - comb(n, h)


def erv_upper(e: int, h: int) -> int:
    """Upper bound for the number of minimal generators of any ideal with
    multiplicity e and embedding dimension h."""
    t, r = t_and_r(e, h)
    return comb(h + t - 1, t) - r + macaulay_shift(r, t) if r else comb(h + t - 1, t)


def lower_bound(e: int, h: int) -> int:
    """Lower bound C(h+2, 2) - e for the number of minimal generators."""
    return comb(h + 2, 2) - e


def hf_admissible(hf) -> bool:
    """Macaulay's growth criterion for the Hilbert function of a standard
    graded (equivalently, the associated graded of a local) algebra."""
    hf = list(hf)
    if not hf or hf[0] != 1:
        return False
    if any(v < 0 for v in hf):
        return False
    for j in range(1, len(hf) - 1):
        if hf[j] == 0:
            if any(hf[j:]):
                return False
            break
        if hf[j + 1] > macaulay_shift(hf[j], j):
            return False
    return True


def lex_segment(hf, nvars=None):
    """The lex-segment ideal with the given Hilbert function.

    Returns an IdealPresentation over QQ whose generators are the minimal
    monomial generators.  Raises ValueError for inadmissible input.

    Its degree-j part L_j is the first C(nvars+j-1, j) - hf[j] monomials of
    degree j in descending lex order (hf[j] = 0 for j > s).  By Macaulay's
    theorem (Bruns and Herzog, Cohen-Macaulay Rings, section 4.2) the
    multiples n * L_(j-1) of a lex segment are again a lex segment, whose
    complement in degree j has hf[j-1]^<j-1> monomials (n * L_0 is empty).
    Admissibility says hf[j] <= hf[j-1]^<j-1>, so n * L_(j-1) is the start
    of L_j, and the generators born in degree j are the rest of L_j.
    """
    hf = list(hf)
    if not hf_admissible(hf):
        raise ValueError(f"inadmissible Hilbert function {hf}")
    h = hf[1] if len(hf) > 1 else 0
    if nvars is None:
        nvars = h
    if nvars < h or (len(hf) > 1 and h == 0):
        raise ValueError("embedding dimension exceeds variable count")
    if nvars == 0:
        raise ValueError("need at least one variable")
    s = len(hf) - 1
    gens = []
    for j in range(1, s + 2):
        total = comb(nvars + j - 1, j)
        grown = total - macaulay_shift(hf[j - 1], j - 1) if j > 1 else 0
        seg = total - (hf[j] if j <= s else 0)
        gens += [Polynomial(nvars, QQ, {m: QQ.rone})
                 for m in lex_monomials(nvars, j, grown, seg)]
    return IdealPresentation(gens, nvars, QQ)


@dataclass
class BoundReport:
    e: int
    h: int
    t: int
    r: int
    lower: int
    upper: int

    def as_dict(self):
        return {
            "schema": 1,
            "e": self.e,
            "h": self.h,
            "t": self.t,
            "r": self.r,
            "lower": self.lower,
            "upper": self.upper,
        }

    def markdown_row(self) -> str:
        return (
            f"| {self.e} | {self.h} | {self.t} | {self.r} "
            f"| {self.lower} | {self.upper} |"
        )


def bound_report(e: int, h: int) -> BoundReport:
    t, r = t_and_r(e, h)
    return BoundReport(e, h, t, r, lower_bound(e, h), erv_upper(e, h))
