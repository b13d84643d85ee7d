"""Exact coefficient arithmetic: rationals and quadratic extension towers.

A field is either ``QQ`` (arbitrary-precision rationals backed by
``fractions.Fraction``) or a ``QuadraticExtension`` of a smaller field by the
square root of a non-square element.  Towers are capped at depth
``MAX_TOWER_DEPTH``; asking for a deeper extension raises
``FieldExtensionRequired``.

Internally every field manipulates *raw* values.  For ``QQ`` a raw value is
a ``Fraction``.  For an extension of depth d it is a tuple of 2^d ints and
one positive denominator, (c_0, ..., c_(2^d - 1), den) with gcd 1, meaning
(sum of c_i * b_i) / den on the basis b of products of the adjoined roots:
1, alpha at depth 1 and 1, alpha, beta, alpha*beta at depth 2.  This is the
standard representation of a number field (Cohen, "A Course in
Computational Algebraic Number Theory", 1993, section 4.2).  The basis of
a subfield is a prefix of the basis of the tower, so a value lifts by
padding its coordinates with zeros.  The form is canonical, so equal
values are equal tuples.

Theta is canonical too.  Over QQ it is a squarefree integer.  Over
QQ(alpha) it is t0 + t1*alpha with integers t0, t1 whose gcd has no square
factor.  Any theta reaches that form through multiplication by the square
of a rational, which rescales the adjoined root and leaves the field as it
is; no two such forms differ by one.  So QQ[sqrt(8)] is QQ[sqrt(2)], and a
field's label depends only on the field and its base.  The square factors
are found by trial division below 2^16 (``_square_part``), which bounds
the work for any theta, so the form is canonical only up to square
factors whose primes all exceed 2^16 and that come with a non-square
cofactor of such primes: QQ[sqrt(q^2 * r)] and QQ[sqrt(r)] for two such
primes q, r are one field with two labels.  The structure
constants alpha^2 and beta^2 are integral either way, and so the product
of two values with denominator 1 has denominator 1.

The ``Scalar`` wrapper pairs a raw value with its field and supplies
operators; performance-sensitive code (row reduction) works on raw values
directly through the field methods.

Row reduction (linalg.SparseEchelon) keeps its rows in a *working form*
that the field chooses, through the ``w*`` methods: a row of integral
values over one positive integer scale, meaning values / scale.  Over
``QQ`` the values are Python ints.  Over an extension they are raw values
with denominator 1, which radd, rsub and rmul keep at denominator 1 with
no gcd; ``wzero`` and ``wone`` are the working 0 and 1.  ``wcofactors``
gives the multipliers (a, b), a a positive int, that clear an entry c
against a pivot entry L by cross-multiplication, a*c - b*L = 0.
``wscale`` multiplies a row by a, and ``wdivide`` divides
the gcd of its integers out of a row and its scale.  ``wpivot`` makes the
entry of a pivot row at its pivot a positive rational integer.  Over an
extension it multiplies the row by the conjugates of that entry x,
sigma_2(x) * sigma_1(x * sigma_2(x)) at depth 2 and sigma(x) at depth 1,
whose product with x is the norm of x to QQ.  Working ints never reach
``rinv`` or ``rdiv`` (``1 / a`` of two ints is a float), and neither does
any row reduction over an extension.  ``wraw`` turns a working row back
into raw values.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import chain
from math import gcd

from .errors import FieldExtensionRequired, FieldMismatch

MAX_TOWER_DEPTH = 2


def _int_nth_root(n: int, k: int):
    """Exact k-th root of a nonnegative integer, or None.

    Integer Newton iteration from 2^ceil(bits/k) >= n^(1/k) decreases
    strictly until it reaches floor(n^(1/k)); no floating point is involved.
    """
    if n < 0:
        return None
    if n < 2:
        return n
    if k == 2:
        r = math.isqrt(n)
    else:
        r = 1 << -(-n.bit_length() // k)
        while True:
            nxt = ((k - 1) * r + n // r ** (k - 1)) // k
            if nxt >= r:
                break
            r = nxt
    return r if r ** k == n else None


def _power(mul, x, n):
    """x^n for n >= 1 by squaring with the product mul, in at most
    2*(n.bit_length() - 1) products: the library's one exponentiation."""
    out = None
    while True:
        if n & 1:
            out = x if out is None else mul(out, x)
        n >>= 1
        if not n:
            return out
        x = mul(x, x)


def _square_part(n: int) -> int:
    """The largest k with k^2 dividing the nonzero integer n, found by
    trial division below 2^16, so it may miss a square factor made of
    larger primes.

    The divisors d, 2 and then the odd numbers below 2^16, are divided out
    in turn while d^3 <= n.  Every prime below d is out of n when d is
    reached, so a composite d never divides, and k is the one that trial
    division by the primes gives.  If the d^3 test stops the loop, the
    cofactor m < d^3 has prime factors all at least d, so at most two of
    them, and m holds a square factor exactly when it is a square, which
    isqrt tests.  Otherwise every prime factor of m is above 2^16, and the
    same test finds m's square part when m is a square and misses it when
    m = q^2 * r with q and r such primes; then k is too small by q.  It
    tries at most 32768 divisors, all of them only when the part of n with
    no factor below 2^16 is at least 65535^3, just under 2^48.
    """
    n, k = abs(n), 1
    for d in chain((2,), range(3, 1 << 16, 2)):
        if d * d * d > n:
            break
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        k *= d ** (e // 2)
    r = math.isqrt(n)
    return k * r if r * r == n else k


def _canon(z):
    """The raw value (c_0, ..., c_(n-1), den) of the list z of integer
    coordinates followed by a nonzero denominator: den made positive and
    the gcd divided out."""
    if z[-1] < 0:
        z = [-c for c in z]
    g = gcd(*z)
    return tuple(z) if g == 1 else tuple([c // g for c in z])


class Field:
    """Abstract base; concrete fields implement the raw-value protocol."""

    depth: int

    def scalar(self, x) -> "Scalar":
        return Scalar(self, self.rfrom(x))

    @property
    def zero(self) -> "Scalar":
        return Scalar(self, self.rzero)

    @property
    def one(self) -> "Scalar":
        return Scalar(self, self.rone)

    def sqrt(self, s: "Scalar"):
        return self.nth_root(s, 2)

    def nth_root(self, s: "Scalar", n: int):
        if n < 1:
            raise ValueError(f"no n-th root for n = {n}; n must be at least 1")
        s = self.coerce(s)
        raw = self.rnth_root(s.val, n)
        return None if raw is None else Scalar(self, raw)

    def coerce(self, x) -> "Scalar":
        """Return x as a Scalar in this field; lifts from subfields only."""
        if isinstance(x, Scalar):
            if x.field == self:
                return x
            raw = self.rlift(x)
            if raw is None:
                raise FieldMismatch(f"cannot interpret {x} in {self}")
            return Scalar(self, raw)
        return self.scalar(x)

    def rlift(self, s: "Scalar"):
        """Raw value of a Scalar from this field or an iterated base field."""
        raise NotImplementedError


class RationalField(Field):
    depth = 0
    rzero = Fraction(0)
    rone = Fraction(1)

    def rfrom(self, x):
        if isinstance(x, bool):
            raise TypeError("bool is not a scalar")
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        raise TypeError(f"cannot build a rational from {x!r}")

    # The ring operations are the C operators themselves, so the row loops
    # over QQ (_reduce, _wmul, _wsubstitute, ...) make no Python call per
    # entry.  Their values are exactly a + b, a - b, a * b, -a and not a, on
    # ints (working values) and Fractions (raw values) alike.
    radd = staticmethod(operator.add)
    rsub = staticmethod(operator.sub)
    rmul = staticmethod(operator.mul)
    rneg = staticmethod(operator.neg)
    riszero = staticmethod(operator.not_)

    def rinv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def rdiv(self, a, b):
        if not b:
            raise ZeroDivisionError("division by zero")
        return a / b

    def rnth_root(self, a, n):
        if n == 1:
            return a
        neg = a < 0
        if neg and n % 2 == 0:
            return None
        p = _int_nth_root(abs(a.numerator), n)
        q = _int_nth_root(a.denominator, n)
        if p is None or q is None:
            return None
        r = Fraction(p, q)
        return -r if neg else r

    def rstr(self, a):
        return str(a)

    def rcoords(self, a):
        """(integer coordinates, positive denominator) of a raw value; an
        int, a working value, has denominator 1."""
        return (a.numerator,), a.denominator

    def rmake(self, coords, den):
        """The raw value of integer coordinates over a nonzero denominator."""
        return Fraction(coords[0], den)

    # ----- working form of echelon rows: ints over one integer scale

    wzero, wone = 0, 1

    def wrow(self, row):
        """(ints, scale) with row = ints / scale: scale is the lcm of the
        denominators."""
        scale = 1
        for c in row.values():
            d = c.denominator
            if scale % d:
                scale = math.lcm(scale, d)
        if scale == 1:
            return {r: c.numerator for r, c in row.items()}, 1
        return {r: c.numerator * (scale // c.denominator) for r, c in row.items()}, scale

    def wcofactors(self, c, lead):
        """(a, b) with a*c = b*lead and a > 0 least, for lead > 0."""
        g = gcd(c, lead)
        return lead // g, c // g

    def wscale(self, row, a):
        return {r: a * c for r, c in row.items()}

    def wdivide(self, row, scale):
        """(row / g, scale / g) for g the gcd of scale and the entries; the
        gcd is taken pairwise, since an argument tuple of every length
        would fill the interpreter's tuple free lists."""
        g = scale
        for c in row.values():
            g = gcd(g, c)
            if g == 1:
                return row, scale
        return {r: c // g for r, c in row.items()}, scale // g

    def wpivot(self, row, lead):
        """Working form of a nonzero pivot row with no zero entry: the
        primitive integer row positive at lead (row itself if it is one)."""
        g = 0
        for c in row.values():
            g = gcd(g, c)
            if g == 1:
                break
        if row[lead] < 0:
            g = -g
        return row if g == 1 else {r: c // g for r, c in row.items()}

    def wraw(self, row, scale):
        if scale == 1:
            return {r: Fraction(v) for r, v in row.items()}
        return {r: Fraction(v, scale) for r, v in row.items()}

    def rlift(self, s):
        if isinstance(s.field, RationalField):
            return s.val
        return None

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


def _ring1(t):
    """add, sub and mul of raw values (a, b, d) = (a + b*alpha)/d, alpha^2 = t."""
    def add(x, y):
        a, b, d = x
        c, e, f = y
        if d != f:
            a, b, c, e, d = a * f, b * f, c * d, e * d, d * f
        a, b = a + c, b + e
        if d == 1:
            return a, b, 1
        g = gcd(a, b, d)
        return (a, b, d) if g == 1 else (a // g, b // g, d // g)

    def sub(x, y):
        c, e, f = y
        return add(x, (-c, -e, f))

    def mul(x, y):
        a, b, d = x
        c, e, f = y
        a, b, d = a * c + t * b * e, a * e + b * c, d * f
        if d == 1:
            return a, b, 1
        g = gcd(a, b, d)
        return (a, b, d) if g == 1 else (a // g, b // g, d // g)

    return add, sub, mul


def _ring2(t, u0, u1):
    """add, sub and mul of raw values (x0, x1, x2, x3, d) =
    (x0 + x1*alpha + (x2 + x3*alpha)*beta)/d, alpha^2 = t and
    beta^2 = u0 + u1*alpha."""
    def add(x, y):
        a, b, c, e, d = x
        a2, b2, c2, e2, f = y
        if d != f:
            a, b, c, e = a * f, b * f, c * f, e * f
            a2, b2, c2, e2, d = a2 * d, b2 * d, c2 * d, e2 * d, d * f
        a, b, c, e = a + a2, b + b2, c + c2, e + e2
        if d == 1:
            return a, b, c, e, 1
        g = gcd(a, b, c, e, d)
        return (a, b, c, e, d) if g == 1 else (a // g, b // g, c // g, e // g, d // g)

    def sub(x, y):
        a, b, c, e, f = y
        return add(x, (-a, -b, -c, -e, f))

    def mul(x, y):
        x0, x1, x2, x3, d = x
        y0, y1, y2, y3, f = y
        b0, b1 = x2 * y2 + t * x3 * y3, x2 * y3 + x3 * y2  # (x2 + x3*alpha)(y2 + y3*alpha)
        z0 = x0 * y0 + t * (x1 * y1 + b1 * u1) + b0 * u0
        z1 = x0 * y1 + x1 * y0 + b0 * u1 + b1 * u0
        z2 = x0 * y2 + x2 * y0 + t * (x1 * y3 + x3 * y1)
        z3 = x0 * y3 + x1 * y2 + x2 * y1 + x3 * y0
        d *= f
        if d == 1:
            return z0, z1, z2, z3, 1
        g = gcd(z0, z1, z2, z3, d)
        return ((z0, z1, z2, z3, d) if g == 1
                else (z0 // g, z1 // g, z2 // g, z3 // g, d // g))

    return add, sub, mul


class QuadraticExtension(Field):
    """base[sqrt(theta)] with theta a non-square of base, made canonical.

    Raw values are (c_0, ..., c_(n-1), den) with n = 2^depth (see the
    module docstring): the first n/2 coordinates are the part in base and
    the rest the coefficient of sqrt(theta).  theta is kept as the base's
    raw value of its canonical form; the root adjoined is its square root.
    """

    def __init__(self, base: Field, theta):
        theta = base.coerce(theta).val
        if base.riszero(theta):
            raise ValueError("theta must be nonzero")
        # den^2 * theta is integral; the largest square integer dividing all
        # its coordinates comes out, which leaves the canonical theta
        coords, den = base.rcoords(theta)
        coords = [c * den for c in coords]
        k2 = _square_part(gcd(*coords)) ** 2
        theta = base.rmake([c // k2 for c in coords], 1)
        if base.rnth_root(theta, 2) is not None:
            raise ValueError("theta is already a square in the base field")
        self.base = base
        self.theta = theta
        self.depth = base.depth + 1
        n = self.n = 1 << self.depth
        self.rzero = self.wzero = (0,) * n + (1,)
        self.rone = self.wone = (1,) + (0,) * (n - 1) + (1,)
        self.sqrt_theta = (0,) * (n // 2) + (1,) + (0,) * (n // 2 - 1) + (1,)
        if self.depth == 1:
            self.radd, self.rsub, self.rmul = _ring1(theta.numerator)
        else:
            self.radd, self.rsub, self.rmul = _ring2(base.theta.numerator, *theta[:2])

    def rfrom(self, x):
        if isinstance(x, tuple) and len(x) == self.n + 1:
            return x
        return self._embed(self.base.rfrom(x), self.base)

    def rcoords(self, x):
        return x[:-1], x[-1]

    def rmake(self, coords, den):
        return _canon(list(coords) + [den])

    def _embed(self, x, sub):
        """A raw or working value of the subfield sub as one of this field."""
        if sub is self:
            return x
        coords, den = sub.rcoords(x)
        return coords + (0,) * (self.n - len(coords)) + (den,)

    def _split(self, x):
        """(a, b), raw values of the base, with x = a + b*sqrt(theta)."""
        h, B = self.n // 2, self.base
        return B.rmake(x[:h], x[-1]), B.rmake(x[h:-1], x[-1])

    def _join(self, a, b):
        (ca, da), (cb, db) = self.base.rcoords(a), self.base.rcoords(b)
        return _canon([c * db for c in ca] + [c * da for c in cb] + [da * db])

    def rneg(self, x):
        return tuple([-c for c in x[:-1]]) + x[-1:]

    def riszero(self, x):
        return x == self.rzero

    def _conj(self, x):
        """(m, N) for a nonzero value x with denominator 1: m has
        denominator 1 and x*m = N, a nonzero int.  m is the product of the
        conjugates of x, sigma(x) at depth 1 and sigma_2(x) *
        sigma_1(x*sigma_2(x)) at depth 2, so N is the norm of x to QQ:
        x*sigma(x) lies in the base, where the base's m takes it to QQ."""
        h = self.n // 2
        s = x[:h] + tuple([-c for c in x[h:-1]]) + (1,)
        p = self.rmul(x, s)
        if self.depth == 1:
            return s, p[0]
        m, N = self.base._conj(p[:h] + (1,))
        return self.rmul(s, self._embed(m, self.base)), N

    def rinv(self, x):
        """1/x = den * m / N for (m, N) the conjugates and norm of den*x."""
        if x == self.rzero:
            raise ZeroDivisionError("inverse of zero")
        d = x[-1]
        m, N = self._conj(x[:-1] + (1,))
        return _canon([c * d for c in m[:-1]] + [N])

    def rdiv(self, x, y):
        return self.rmul(x, self.rinv(y))

    def _sqrt(self, x):
        """A square root of x in this field, or None: rnth_root(x, 2)."""
        B = self.base
        a, b = self._split(x)
        if B.riszero(b):
            r = B.rnth_root(a, 2)
            if r is not None:
                return self._join(r, B.rzero)
            # maybe a = t*theta with t a square: sqrt = sqrt(t)*sqrt(theta)
            r = B.rnth_root(B.rdiv(a, self.theta), 2)
            if r is not None:
                return self._join(B.rzero, r)
            return None
        # (p + q*sqrt(theta))^2 = x forces p^2 = (a +- sqrt(norm))/2
        n = B.rnth_root(B.rsub(B.rmul(a, a), B.rmul(self.theta, B.rmul(b, b))), 2)
        if n is None:
            return None
        two = B.rfrom(2)
        for sign in (n, B.rneg(n)):
            p = B.rnth_root(B.rdiv(B.radd(a, sign), two), 2)
            if p is not None and not B.riszero(p):
                cand = self._join(p, B.rdiv(b, B.rmul(two, p)))
                if self.rmul(cand, cand) == x:
                    return cand
        return None

    def rnth_root(self, x, n):
        if n == 1:
            return x
        if n == 2:
            return self._sqrt(x)
        if n == 4:
            r = self._sqrt(x)
            return None if r is None else self._sqrt(r)
        a, b = self._split(x)
        if self.base.riszero(b):
            r = self.base.rnth_root(a, n)
            if r is not None:
                return self._join(r, self.base.rzero)
        return None

    # ----- working form of echelon rows: values with denominator 1 over one
    # integer scale, pivot entries positive rational integers

    def wrow(self, row):
        """(values, scale) with row = values / scale: scale is the lcm of
        the denominators."""
        scale = 1
        for x in row.values():
            d = x[-1]
            if scale % d:
                scale = math.lcm(scale, d)
        if scale == 1:
            return dict(row), 1
        return {r: tuple([c * (scale // x[-1]) for c in x[:-1]]) + (1,)
                for r, x in row.items()}, scale

    def wcofactors(self, c, lead):
        """(a, b) with a*c = b*lead and a > 0 least, for lead a positive
        rational integer."""
        L = lead[0]
        g = gcd(L, *c[:-1])
        if g == 1:
            return L, c
        return L // g, tuple([v // g for v in c[:-1]]) + (1,)

    def wscale(self, row, a):
        return {r: tuple([a * v for v in x[:-1]]) + (1,) for r, x in row.items()}

    def wdivide(self, row, scale):
        """(row / g, scale / g) for g the gcd of scale and every coordinate."""
        g = scale
        for x in row.values():
            g = gcd(g, *x[:-1])
            if g == 1:
                return row, scale
        return {r: tuple([v // g for v in x[:-1]]) + (1,) for r, x in row.items()}, scale // g

    def wpivot(self, row, lead):
        """Working form of a nonzero pivot row with no zero entry: the row
        times the conjugates of its entry at lead, which leaves there the
        norm N, negated if N < 0, then made primitive.  A row positive and
        rational at lead already (a lifted one) is only made primitive."""
        x = row[lead]
        if x[0] <= 0 or any(x[1:-1]):
            m, N = self._conj(x)
            if N < 0:
                m = self.rneg(m)
            rmul = self.rmul
            row = {r: rmul(c, m) for r, c in row.items()}
        return self.wdivide(row, 0)[0]

    def wraw(self, row, scale):
        """The raw row of a working row over the positive int scale."""
        if scale == 1:
            return row
        return {r: _canon(list(x[:-1]) + [scale]) for r, x in row.items()}

    def wembed(self, row, sub):
        """A working row of the subfield sub as one of this field, with no
        arithmetic: each value keeps its coordinates, padded with zeros."""
        if self.rlift(sub.one) is None:
            raise FieldMismatch(f"{sub} is not a subfield of {self}")
        embed = self._embed
        return {r: embed(c, sub) for r, c in row.items()}

    def rstr(self, x):
        B = self.base
        a, b = self._split(x)
        th = B.rstr(self.theta)
        if "/" in th or "+" in th or "-" in th or "sqrt" in th:
            th = f"({th})"
        root = f"sqrt({th})"
        if B.riszero(b):
            return B.rstr(a)
        if B.riszero(a):
            if not B.riszero(B.rsub(b, B.rone)):
                return f"({B.rstr(b)}*{root})"
            return root
        return f"({B.rstr(a)}+{B.rstr(b)}*{root})"

    def rlift(self, s):
        f = self
        while s.field != f:
            if not f.depth:
                return None
            f = f.base
        return self._embed(s.val, f)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, QuadraticExtension)
            and self.theta == other.theta
            and self.base == other.base
        )

    def __hash__(self):
        return hash(("ext", self.base, self.theta))

    def __repr__(self):
        return f"{self.base!r}[sqrt({self.base.rstr(self.theta)})]"


def adjoin_sqrt(field: Field, theta) -> QuadraticExtension:
    """Extend field by sqrt(theta); refuses towers deeper than the cap.
    theta is made canonical (see the module docstring), so for the returned
    field F the root of the given theta is F.coerce(theta).sqrt()."""
    if field.depth >= MAX_TOWER_DEPTH:
        raise FieldExtensionRequired(
            f"extension tower depth cap ({MAX_TOWER_DEPTH}) reached"
        )
    return QuadraticExtension(field, theta)


def common_field(f1: Field, *rest: Field) -> Field:
    """The deepest of the fields, when each of the others is it or one of
    its iterated bases."""
    for f2 in rest:
        a, b = (f1, f2) if f1.depth >= f2.depth else (f2, f1)
        g = a
        while g.depth > b.depth:
            g = g.base
        if g != b:
            raise FieldMismatch(f"incompatible fields {f1} and {f2}")
        f1 = a
    return f1


class Scalar:
    """A field element: raw value plus its field."""

    __slots__ = ("field", "val")

    def __init__(self, field: Field, val):
        self.field = field
        self.val = val

    def _pair(self, other):
        if isinstance(other, Scalar):
            if other.field == self.field:
                return self, other
            f = common_field(self.field, other.field)
            return f.coerce(self), f.coerce(other)
        if isinstance(other, (int, Fraction)):
            return self, self.field.scalar(other)
        return NotImplemented, None

    def __add__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return Scalar(a.field, a.field.radd(a.val, b.val))

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return Scalar(a.field, a.field.rsub(a.val, b.val))

    def __rsub__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return Scalar(a.field, a.field.rsub(b.val, a.val))

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return Scalar(a.field, a.field.rmul(a.val, b.val))

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return Scalar(a.field, a.field.rdiv(a.val, b.val))

    def __rtruediv__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return Scalar(a.field, a.field.rdiv(b.val, a.val))

    def __neg__(self):
        return Scalar(self.field, self.field.rneg(self.val))

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        f = self.field
        return Scalar(f, _power(f.rmul, self.val, n) if n else f.rone)

    def inverse(self):
        return Scalar(self.field, self.field.rinv(self.val))

    def is_zero(self):
        return self.field.riszero(self.val)

    def sqrt(self):
        return self.field.sqrt(self)

    def nth_root(self, n: int):
        return self.field.nth_root(self, n)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        try:
            a, b = self._pair(other)
        except FieldMismatch:
            return False
        return a.field.riszero(a.field.rsub(a.val, b.val))

    def __hash__(self):
        # collapse lifted values to the least field holding them, so they
        # hash alike: a value of the base has a zero upper half; a rational
        # value hashes as its Fraction, so as the int or Fraction it equals
        v, f = self.val, self.field
        while f.depth and not any(v[f.n // 2:-1]):
            v, f = f.base.rmake(v[:f.n // 2], v[-1]), f.base
        return hash((f, v)) if f.depth else hash(v)

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return self.field.rstr(self.val)
