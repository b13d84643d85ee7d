"""Exact coefficient arithmetic: rationals and quadratic extension towers.

A field is either ``QQ`` (arbitrary-precision rationals backed by
``fractions.Fraction``) or a ``QuadraticExtension`` of a smaller field by the
square root of a non-square element.  Towers are capped at depth
``MAX_TOWER_DEPTH``; asking for a deeper extension raises
``FieldExtensionRequired``.

Internally every field manipulates *raw* values (a ``Fraction`` for ``QQ``, a
pair ``(a, b)`` of raw base values meaning ``a + b*sqrt(theta)`` for an
extension).  The ``Scalar`` wrapper pairs a raw value with its field and
supplies operators; performance-sensitive code (row reduction) works on raw
values directly through the field methods.

Row reduction (linalg.SparseEchelon) keeps its rows in a *working form*
that the field chooses, through the ``w*`` methods: over ``QQ`` a row of
Python ints with one integer scale (the row is ints / scale), over an
extension the raw row itself with scale 1.  ``wcofactors`` gives the
multipliers (a, b) that clear one entry by cross-multiplication,
a*row - b*pivot row; over an extension a is 1 because pivot rows are
scaled to 1 at their pivot.  Working ints never reach ``rinv`` or
``rdiv`` (``1 / a`` of two ints is a float); ``wraw`` turns them back
into ``Fraction``s.
"""

from __future__ import annotations

import math
from fractions import Fraction

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
        s = self.coerce(s)
        raw = self.rsqrt(s.val)
        return None if raw is None else Scalar(self, raw)

    def nth_root(self, s: "Scalar", n: int):
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

    def radd(self, a, b):
        return a + b

    def rsub(self, a, b):
        return a - b

    def rmul(self, a, b):
        return a * b

    def rneg(self, a):
        return -a

    def rinv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def rdiv(self, a, b):
        if not b:
            raise ZeroDivisionError("division by zero")
        return a / b

    def riszero(self, a):
        return not a

    def rsqrt(self, a):
        return self.rnth_root(a, 2)

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

    # ----- working form of echelon rows: ints over one integer scale

    wzero = 0

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
        g = math.gcd(c, lead)
        return lead // g, c // g

    def wdivide(self, row, scale):
        """(row / g, scale / g) for g the gcd of scale and the entries; the
        gcd is taken pairwise, since an argument tuple of every length
        would fill the interpreter's tuple free lists."""
        g = scale
        for c in row.values():
            g = math.gcd(g, c)
            if g == 1:
                return row, scale
        return {r: c // g for r, c in row.items()}, scale // g

    def wpivot(self, row, lead):
        """(working, raw) forms of a nonzero pivot row with no zero entry:
        the primitive integer row positive at lead, and the row scaled to 1
        there."""
        row = self.wdivide(row, 0)[0]
        if row[lead] < 0:
            row = {r: -v for r, v in row.items()}
        top = row[lead]
        return row, {r: Fraction(v, top) for r, v in row.items()}

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


class QuadraticExtension(Field):
    """base[sqrt(theta)] with theta a non-square raw value of base.

    Raw elements are pairs (a, b) of base raw values, meaning a + b*sqrt(theta).
    """

    def __init__(self, base: Field, theta):
        theta = base.coerce(theta).val
        if base.riszero(theta):
            raise ValueError("theta must be nonzero")
        if base.rsqrt(theta) is not None:
            raise ValueError("theta is already a square in the base field")
        self.base = base
        self.theta = theta
        self.depth = base.depth + 1
        self.rzero = (base.rzero, base.rzero)
        self.rone = (base.rone, base.rzero)
        self.sqrt_theta = (base.rzero, base.rone)
        self.wzero = self.rzero

    def rfrom(self, x):
        if isinstance(x, tuple) and len(x) == 2:
            return x
        return (self.base.rfrom(x), self.base.rzero)

    def radd(self, x, y):
        B = self.base
        return (B.radd(x[0], y[0]), B.radd(x[1], y[1]))

    def rsub(self, x, y):
        B = self.base
        return (B.rsub(x[0], y[0]), B.rsub(x[1], y[1]))

    def rneg(self, x):
        B = self.base
        return (B.rneg(x[0]), B.rneg(x[1]))

    def rmul(self, x, y):
        B = self.base
        a, b = x
        c, d = y
        return (
            B.radd(B.rmul(a, c), B.rmul(self.theta, B.rmul(b, d))),
            B.radd(B.rmul(a, d), B.rmul(b, c)),
        )

    def rnorm(self, x):
        B = self.base
        a, b = x
        return B.rsub(B.rmul(a, a), B.rmul(self.theta, B.rmul(b, b)))

    def rinv(self, x):
        B = self.base
        n = self.rnorm(x)
        if B.riszero(n):
            raise ZeroDivisionError("inverse of zero")
        ninv = B.rinv(n)
        return (B.rmul(x[0], ninv), B.rneg(B.rmul(x[1], ninv)))

    def rdiv(self, x, y):
        return self.rmul(x, self.rinv(y))

    def riszero(self, x):
        B = self.base
        return B.riszero(x[0]) and B.riszero(x[1])

    def rsqrt(self, x):
        B = self.base
        a, b = x
        if B.riszero(b):
            r = B.rsqrt(a)
            if r is not None:
                return (r, B.rzero)
            # maybe a = t*theta with t a square: sqrt = sqrt(t)*sqrt(theta)
            r = B.rsqrt(B.rdiv(a, self.theta))
            if r is not None:
                return (B.rzero, r)
            return None
        # (p + q*sqrt(theta))^2 = x forces p^2 = (a +- sqrt(norm))/2
        n = B.rsqrt(self.rnorm(x))
        if n is None:
            return None
        two = B.rfrom(2)
        for sign in (n, B.rneg(n)):
            p2 = B.rdiv(B.radd(a, sign), two)
            p = B.rsqrt(p2)
            if p is not None and not B.riszero(p):
                q = B.rdiv(b, B.rmul(two, p))
                cand = (p, q)
                if self.riszero(self.rsub(self.rmul(cand, cand), x)):
                    return cand
        return None

    def rnth_root(self, x, n):
        if n == 1:
            return x
        if n == 2:
            return self.rsqrt(x)
        if n == 4:
            r = self.rsqrt(x)
            return None if r is None else self.rsqrt(r)
        if self.base.riszero(x[1]):
            r = self.base.rnth_root(x[0], n)
            if r is not None:
                return (r, self.base.rzero)
        return None

    # ----- working form of echelon rows: raw rows, pivots scaled to 1

    def wrow(self, row):
        return dict(row), 1

    def wcofactors(self, c, lead):
        return 1, c

    def wpivot(self, row, lead):
        inv = self.rinv(row[lead])
        raw = {r: self.rmul(c, inv) for r, c in row.items()}
        return raw, raw

    def wraw(self, row, scale):
        return row

    def rstr(self, x):
        B = self.base
        a, b = x
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
        if s.field == self:
            return s.val
        raw = self.base.rlift(s)
        if raw is not None:
            return (raw, self.base.rzero)
        return None

    def __eq__(self, other):
        return (
            isinstance(other, QuadraticExtension)
            and self.base == other.base
            and self.theta == other.theta
        )

    def __hash__(self):
        return hash(("ext", self.base, repr(self.theta)))

    def __repr__(self):
        return f"{self.base!r}[sqrt({self.base.rstr(self.theta)})]"


def adjoin_sqrt(field: Field, theta) -> QuadraticExtension:
    """Extend field by sqrt(theta); refuses towers deeper than the cap."""
    if field.depth >= MAX_TOWER_DEPTH:
        raise FieldExtensionRequired(
            f"extension tower depth cap ({MAX_TOWER_DEPTH}) reached"
        )
    return QuadraticExtension(field, theta)


def common_field(f1: Field, f2: Field) -> Field:
    """The deeper of two fields when one sits inside the other."""
    if f1 == f2:
        return f1
    for a, b in ((f1, f2), (f2, f1)):
        g = a
        while isinstance(g, QuadraticExtension):
            g = g.base
            if g == b:
                return a
    raise FieldMismatch(f"incompatible fields {f1} and {f2}")


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
        out = self.field.one
        for _ in range(n):
            out = out * self
        return out

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
        # collapse embedded rationals so lifted values hash alike
        v = self.val
        f = self.field
        while isinstance(f, QuadraticExtension) and f.base.riszero(v[1]):
            v, f = v[0], f.base
        return hash((f, repr(v)))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return self.field.rstr(self.val)
