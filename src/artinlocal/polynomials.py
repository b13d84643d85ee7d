"""Sparse multivariate polynomials over an exact field, with truncation.

A monomial is an exponent tuple; a polynomial is a dict monomial -> raw
coefficient (see scalars.py for the raw-value convention), kept free of zero
entries.  The ambient variables are x1..xh.  All comparisons between
monomials use a graded order with ties broken reverse-lexicographically, so
"lowest monomial" means lowest degree first.

Text grammar (parse_poly / poly_to_str round-trip):

    poly   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor  |  atom ('^' nat)?
    atom   := rational | 'sqrt' '(' poly ')' | 'x' nat | '(' poly ')'

sqrt(...) must enclose a constant whose square root exists in the coefficient
field (possibly an extension element such as sqrt(5) over QQ[sqrt(5)]).
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import combinations_with_replacement

from .errors import FieldMismatch, ParseError
from .scalars import Field, QQ, Scalar, common_field

Monomial = tuple

# ---------------------------------------------------------------- monomials


def mono_key(m: Monomial):
    """Sort key: graded, ties reverse-lex (x1 highest within a degree)."""
    return (sum(m), tuple(-e for e in reversed(m)))


def mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(a + b for a, b in zip(m1, m2))


def mono_str(m: Monomial) -> str:
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts)


def lex_monomials(nvars: int, d: int):
    """Yield the exponent tuples of total degree d in descending lex order
    (x1 > x2 > ...), one per multiset of d variable indices.

    combinations_with_replacement gives the sorted index tuples p in
    ascending order.  If p < q first differ at position k, they agree
    below p_k in their counts of every index < p_k, and p holds index p_k
    once more than q does; so the exponent tuple of p is the larger."""
    for picks in combinations_with_replacement(range(nvars), d):
        e = [0] * nvars
        for i in picks:
            e[i] += 1
        yield tuple(e)


def monomials_of_degree(nvars: int, d: int):
    """All exponent tuples of total degree d, sorted by mono_key."""
    return sorted(lex_monomials(nvars, d), key=mono_key)


# -------------------------------------------------------------- polynomials


class Polynomial:
    __slots__ = ("nvars", "field", "terms")

    def __init__(self, nvars: int, field: Field, terms=None):
        self.nvars = nvars
        self.field = field
        self.terms = terms or {}

    # construction helpers

    @classmethod
    def constant(cls, c, nvars, field):
        c = field.coerce(c)
        if c.is_zero():
            return cls(nvars, field)
        return cls(nvars, field, {(0,) * nvars: c.val})

    @classmethod
    def variable(cls, i, nvars, field):
        """x_{i+1}; i is 0-based."""
        if not 0 <= i < nvars:
            raise IndexError(f"variable index {i} out of range")
        m = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, field, {m: field.rone})

    # queries

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Max total degree, or -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def order(self):
        """Min total degree of a term, or None for the zero polynomial."""
        return min((sum(m) for m in self.terms), default=None)

    def coeff(self, m: Monomial) -> Scalar:
        return Scalar(self.field, self.terms.get(tuple(m), self.field.rzero))

    def constant_coeff(self) -> Scalar:
        return self.coeff((0,) * self.nvars)

    def linear_coeffs(self):
        """Coefficients of x1..xh as a list of Scalars."""
        out = []
        for i in range(self.nvars):
            m = tuple(1 if j == i else 0 for j in range(self.nvars))
            out.append(self.coeff(m))
        return out

    # arithmetic

    def _sameify(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = Polynomial.constant(other, self.nvars, self.field) \
                if not isinstance(other, Scalar) or other.field == self.field \
                else Polynomial.constant(other, self.nvars, common_field(self.field, other.field))
        if not isinstance(other, Polynomial):
            return None, None
        if other.nvars != self.nvars:
            raise FieldMismatch("polynomials in different variable counts")
        if other.field == self.field:
            return self, other
        f = common_field(self.field, other.field)
        return self.map_field(f), other.map_field(f)

    def map_field(self, field: Field) -> "Polynomial":
        if field == self.field:
            return self
        terms = {}
        for m, c in self.terms.items():
            terms[m] = field.coerce(Scalar(self.field, c)).val
        return Polynomial(self.nvars, field, terms)

    def __add__(self, other):
        a, b = self._sameify(other)
        if a is None:
            return NotImplemented
        f = a.field
        terms = dict(a.terms)
        for m, c in b.terms.items():
            s = f.radd(terms.get(m, f.rzero), c)
            if f.riszero(s):
                terms.pop(m, None)
            else:
                terms[m] = s
        return Polynomial(a.nvars, f, terms)

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        return Polynomial(self.nvars, f, {m: f.rneg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, Polynomial) else -(self._sameify(other)[1]))

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "Polynomial":
        c = self.field.coerce(c) if not isinstance(c, Scalar) else c
        if c.field != self.field:
            f = common_field(self.field, c.field)
            return self.map_field(f).scale(f.coerce(c))
        f = self.field
        if c.is_zero():
            return Polynomial(self.nvars, f)
        return Polynomial(
            self.nvars, f, {m: f.rmul(c.val, v) for m, v in self.terms.items()}
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            c = other if isinstance(other, Scalar) else self.field.scalar(other)
            return self.scale(c)
        a, b = self._sameify(other)
        if a is None:
            return NotImplemented
        return a.mul_trunc(b, None)

    __rmul__ = __mul__

    def mul_trunc(self, other: "Polynomial", D) -> "Polynomial":
        """Product, discarding terms of total degree >= D (D=None: no cut)."""
        a, b = self._sameify(other)
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

    def truncate(self, D) -> "Polynomial":
        """Drop all terms of total degree >= D."""
        return Polynomial(
            self.nvars, self.field,
            {m: c for m, c in self.terms.items() if sum(m) < D},
        )

    def __pow__(self, n: int):
        """self^n for n >= 0; a single term c*m gives c^n * m^n directly."""
        if n < 0:
            raise ValueError(f"negative exponent {n}")
        if n and len(self.terms) == 1:
            (m, c), = self.terms.items()
            f = self.field
            cn = c
            for _ in range(n - 1):
                cn = f.rmul(cn, c)
            return Polynomial(self.nvars, f, {tuple(e * n for e in m): cn})
        out = Polynomial.constant(1, self.nvars, self.field)
        for _ in range(n):
            out = out * self
        return out

    def substitute(self, images, D) -> "Polynomial":
        """Evaluate at x_i -> images[i], truncating at degree D throughout,
        over the common field of self's and the images' coefficients."""
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        if not images:
            raise ValueError("no variables")
        f = self.field
        for im in images:
            f = common_field(f, im.field)
        images = [im.map_field(f) for im in images]
        nvars = images[0].nvars
        powers = [[Polynomial.constant(1, nvars, f)] for _ in images]
        out = Polynomial(nvars, f)
        for m, c in self.terms.items():
            term = Polynomial.constant(Scalar(self.field, c), nvars, f)
            for i, e in enumerate(m):
                while len(powers[i]) <= e:
                    powers[i].append(powers[i][-1].mul_trunc(images[i], D))
                term = term.mul_trunc(powers[i][e], D)
            out = out + term
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = Polynomial.constant(other, self.nvars, self.field)
        if not isinstance(other, Polynomial):
            return NotImplemented
        try:
            a, b = self._sameify(other)
        except FieldMismatch:
            return False
        return a.terms == b.terms

    def __hash__(self):
        return hash((self.nvars, frozenset((m, repr(c)) for m, c in self.terms.items())))

    def __repr__(self):
        return poly_to_str(self)


# ----------------------------------------------------------------- printing


def poly_to_str(p: Polynomial) -> str:
    if not p.terms:
        return "0"
    f = p.field
    items = sorted(p.terms.items(), key=lambda kv: mono_key(kv[0]), reverse=True)
    pieces = []
    for m, c in items:
        cs = f.rstr(c)
        neg = cs.startswith("-")
        if neg and not cs.startswith("-("):
            cs = cs[1:]
        ms = mono_str(m)
        if not ms:
            body = cs
        elif cs == "1":
            body = ms
        else:
            body = f"{cs}*{ms}"
        if not pieces:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append(("- " if neg else "+ ") + body)
    return " ".join(pieces)


# ------------------------------------------------------------------ parsing

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<var>x\d+)|(?P<sqrt>sqrt)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    pos, toks = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"bad character near {text[pos:pos + 10]!r}")
            break
        pos = m.end()
        if m.lastgroup == "num":
            toks.append(("num", int(m.group("num"))))
        elif m.lastgroup == "var":
            toks.append(("var", int(m.group("var")[1:])))
        elif m.lastgroup == "sqrt":
            toks.append(("sqrt", None))
        else:
            toks.append((m.group("op"), None))
    return toks


class _Parser:
    def __init__(self, toks, nvars, field):
        self.toks = toks
        self.i = 0
        self.nvars = nvars
        self.field = field

    def peek(self):
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def take(self):
        if self.i >= len(self.toks):
            raise ParseError("unexpected end of input")
        t = self.toks[self.i]
        self.i += 1
        return t

    def parse(self) -> Polynomial:
        p = self.expr()
        if self.i != len(self.toks):
            raise ParseError("trailing input")
        return p

    def expr(self):
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take()[0] == "-" else 1
        p = self.term()
        if sign < 0:
            p = -p
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            q = self.term()
            p = p - q if op == "-" else p + q
        return p

    def term(self):
        p = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()[0]
            q = self.factor()
            if op == "*":
                p = p * q
            else:
                c = _as_constant(q)
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
            kind, val = self.take()
            if kind != "num":
                raise ParseError("exponent must be a natural number")
            p = p ** val
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
            c = _as_constant(inner)
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


def _as_constant(p: Polynomial):
    if p.is_zero():
        return p.field.zero
    if list(p.terms) == [(0,) * p.nvars]:
        return p.constant_coeff()
    return None


def parse_poly(text: str, nvars: int, field: Field = QQ) -> Polynomial:
    """Parse polynomial text in variables x1..x<nvars> over the given field."""
    return _Parser(_tokenize(text), nvars, field).parse()


# ----------------------------------------------------------------- ring maps


class RingMap:
    """Substitution endomorphism of k[[x1..xh]] truncated at degree D.

    images[i] is the image of x_{i+1}; every image must have zero constant
    term so the map fixes the maximal ideal.
    """

    __slots__ = ("nvars", "field", "images", "D")

    def __init__(self, images, D: int):
        if not images:
            raise ValueError("empty map")
        nvars = images[0].nvars
        field = images[0].field
        for im in images:
            if im.nvars != nvars:
                raise ValueError("images live in different rings")
            field = common_field(field, im.field)
        images = [im.map_field(field).truncate(D) for im in images]
        for im in images:
            if not im.constant_coeff().is_zero():
                raise ValueError("map images must have zero constant term")
        self.nvars = nvars
        self.field = field
        self.images = images
        self.D = D

    def apply(self, p: Polynomial) -> Polynomial:
        """p(images), truncated at degree D."""
        if p.nvars != len(self.images):
            raise ValueError("arity mismatch")
        return p.substitute(self.images, self.D)

    def is_invertible(self) -> bool:
        """Do the linear parts of the images have rank nvars?"""
        from .linalg import SparseEchelon

        if len(self.images) != self.nvars:
            return False
        ech = SparseEchelon(self.field)
        for im in self.images:
            ech.add({k: c.val for k, c in enumerate(im.linear_coeffs()) if not c.is_zero()})
        return ech.rank == self.nvars

    def map_field(self, field) -> "RingMap":
        return RingMap([im.map_field(field) for im in self.images], self.D)

    def then(self, second: "RingMap") -> "RingMap":
        """Map equivalent to applying self first, then second."""
        return RingMap([second.apply(im) for im in self.images], min(self.D, second.D))

    def __repr__(self):
        ims = ", ".join(f"x{i + 1} -> {im!r}" for i, im in enumerate(self.images))
        return f"RingMap({ims}; D={self.D})"


# A degree-2 term is drawn with probability 0.35, decided from 53 random
# bits as random.Random.random() takes them (27 bits of one 32-bit draw,
# then 26 of the next): random() < 0.35 exactly when those bits, read as an
# integer, are below Fraction(0.35) * 2^53.  So the decision and the
# generator state after it are the ones random() gives, with no float.
SPRINKLE_BELOW = 3152519739159347


def _sprinkle(rng) -> bool:
    return ((rng.getrandbits(32) >> 5) << 26) + (rng.getrandbits(32) >> 6) < SPRINKLE_BELOW


def random_invertible_map(nvars, field, D, rng) -> RingMap:
    """Random map with invertible linear part and small integer coefficients,
    plus a random sprinkle of degree-2 terms."""
    if isinstance(rng, int):
        rng = random.Random(rng)
    while True:
        imgs = []
        for _ in range(nvars):
            img = Polynomial(nvars, field)
            for j in range(nvars):
                c = rng.randint(-3, 3)
                if c:
                    img = img + Polynomial.variable(j, nvars, field).scale(
                        field.scalar(c)
                    )
            imgs.append(img)
        try:
            m = RingMap(imgs, D)
        except ValueError:
            continue
        if not m.is_invertible():
            continue
        break
    imgs = []
    for img in m.images:
        for mono in monomials_of_degree(nvars, 2):
            if _sprinkle(rng):
                c = rng.randint(-2, 2)
                if c:
                    img = img + Polynomial(nvars, field, {mono: field.rfrom(c)})
        imgs.append(img)
    return RingMap(imgs, D)
