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

Products and substitution are fraction-free.  They work on dicts monomial
-> working value over one positive int scale, the form row reduction uses
(see scalars and linalg; over QQ the values are ints).  Working values
multiply to working values, so a / sa times b / sb is _wmul(a, b) / (sa *
sb) exactly, and a cut by degree commutes with scaling, so cutting the
working product cuts the product.  mul_trunc makes raw values once, at the
end.  substitute keeps one common scale: with x_i -> w_i / s_i and E_i the
largest exponent of x_i in p, the e-th power of the image is kept as
s_i^(E_i - e) * w_i^e over s_i^E_i, so each term of p maps to a working
dict over sp * prod_i s_i^E_i (sp the scale of p), and all of them add into
one dict.  Only products are cut, never p's own terms: an image with a
constant term takes a term of degree >= D to lower degrees.  ArtinAlgebra
hands such dicts, with their scales, to the echelon's reduction.

Parsing is exact, in working form: every parsed value is a working dict
over one scale.  A product is _wmul over the product of the scales, a sum
_wadd, which brings both to the lcm of their scales (Polynomial's + and -
are wrow, _wadd and wraw too), and a power _wpow (Polynomial.__pow__ too):
a single term's c*m to the n is c^n times m with its exponents multiplied
by n, so x2^99999999999 costs nothing, and powers square with
scalars._power.  Division by a constant c is the product with the working
form of the raw 1/c, and parse_poly makes one Polynomial at the end.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import combinations_with_replacement, islice
from math import lcm, prod
from operator import add

from .errors import FieldMismatch, ParseError
from .scalars import Field, QQ, Scalar, _power, common_field

Monomial = tuple

# ---------------------------------------------------------------- monomials


def mono_key(m: Monomial):
    """Sort key: graded, ties reverse-lex (x1 highest within a degree)."""
    return (sum(m), tuple(-e for e in reversed(m)))


def mono_str(m: Monomial) -> str:
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts)


def lex_monomials(nvars: int, d: int, start: int = 0, stop=None):
    """Yield the exponent tuples of total degree d in descending lex order
    (x1 > x2 > ...), one per multiset of d variable indices; with start
    and stop, only those of positions start..stop-1 in that order, the
    index tuples before start skipped unconverted.

    combinations_with_replacement gives the sorted index tuples p in
    ascending order.  If p < q first differ at position k, they agree
    below p_k in their counts of every index < p_k, and p holds index p_k
    once more than q does; so the exponent tuple of p is the larger."""
    for picks in islice(combinations_with_replacement(range(nvars), d), start, stop):
        e = [0] * nvars
        for i in picks:
            e[i] += 1
        yield tuple(e)


def monomials_of_degree(nvars: int, d: int):
    """All exponent tuples of total degree d, sorted by mono_key."""
    return sorted(lex_monomials(nvars, d), key=mono_key)


# -------------------------------------------------------------- polynomials


def _wmul(f, a, b, D):
    """The product of the working dicts a and b over the field f (see the
    module docstring), its terms of degree >= D left out (D=None: none);
    a zero value, from a sum that cancels or a zero in a or b, is not kept."""
    radd, rmul, riszero = f.radd, f.rmul, f.riszero
    out = {}
    for m1, c1 in a.items():
        room = None if D is None else D - sum(m1)
        for m2, c2 in b.items():
            if room is None or sum(m2) < room:
                m, v = tuple(map(add, m1, m2)), rmul(c1, c2)
                if m in out:
                    v = radd(out[m], v)
                if riszero(v):
                    out.pop(m, None)
                else:
                    out[m] = v
    return out


def _wadd(f, p, sp, q, sq, sub=False):
    """(sum, scale) of p / sp + q / sq, or p / sp - q / sq with sub, for
    working dicts p and q over the field f: both are brought to the lcm
    of the scales and added, p's terms first and q's new ones after them,
    and a sum that cancels is not kept.  p may be changed in place."""
    if sq != sp:
        scale = lcm(sp, sq)
        if scale != sp:
            p = f.wscale(p, scale // sp)
        if scale != sq:
            q = f.wscale(q, scale // sq)
        sp = scale
    combine, zero, riszero = f.rsub if sub else f.radd, f.wzero, f.riszero
    for m, c in q.items():
        c = combine(p.get(m, zero), c)
        if riszero(c):
            p.pop(m, None)
        else:
            p[m] = c
    return p, sp


def _wpow(f, p, sp, n, one):
    """(power, scale) of (p / sp)^n for n >= 0, p a working dict over the
    field f and one the constant monomial: a single term c*m gives c^n *
    m^n at once, and any other p is squared with _wmul."""
    if not n:
        return {one: f.wone}, 1
    if len(p) == 1:
        (m, c), = p.items()
        return {tuple([e * n for e in m]): _power(f.rmul, c, n)}, sp ** n
    return _power(lambda a, b: _wmul(f, a, b, None), p, n), sp ** n


class Polynomial:
    __slots__ = ("nvars", "field", "terms")

    def __init__(self, nvars: int, field: Field, terms=None):
        """terms maps monomials to raw values; zero values are dropped here,
        once, so no stored value is zero (the dict is copied only then)."""
        self.nvars = nvars
        self.field = field
        if terms and any(map(field.riszero, terms.values())):
            terms = {m: c for m, c in terms.items() if not field.riszero(c)}
        self.terms = terms or {}

    # construction helpers

    @classmethod
    def constant(cls, c, nvars, field):
        return cls(nvars, field, {(0,) * nvars: field.coerce(c).val})

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

    def linear_row(self):
        """{i: raw coefficient of x_(i+1)} over the i whose coefficient is
        nonzero, in ascending i."""
        one = (0,) * self.nvars
        row = {i: self.terms.get(one[:i] + (1,) + one[i + 1:]) for i in range(self.nvars)}
        return {i: c for i, c in row.items() if c is not None}

    # arithmetic

    def _sameify(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            f = common_field(self.field, other.field) if isinstance(other, Scalar) else self.field
            other = Polynomial.constant(other, self.nvars, f)
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

    def _add(self, other, sub):
        """self + other, or self - other with sub, through _wadd."""
        a, b = self._sameify(other)
        if a is None:
            return NotImplemented
        f = a.field
        p, q = f.wrow(a.terms), f.wrow(b.terms)
        return Polynomial(a.nvars, f, f.wraw(*_wadd(f, *p, *q, sub)))

    def __add__(self, other):
        return self._add(other, False)

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        return Polynomial(self.nvars, f, {m: f.rneg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self._add(other, True)

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
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.mul_trunc(other, None)

    __rmul__ = __mul__

    def mul_trunc(self, other: "Polynomial", D) -> "Polynomial":
        """Product, discarding terms of total degree >= D (D=None: no cut)."""
        a, b = self._sameify(other)
        f = a.field
        (wa, sa), (wb, sb) = f.wrow(a.terms), f.wrow(b.terms)
        return Polynomial(a.nvars, f, f.wraw(_wmul(f, wa, wb, D), sa * sb))

    def truncate(self, D) -> "Polynomial":
        """Drop all terms of total degree >= D."""
        return Polynomial(
            self.nvars, self.field,
            {m: c for m, c in self.terms.items() if sum(m) < D},
        )

    def __pow__(self, n: int):
        """self^n for n >= 0, in working form by _wpow."""
        if n < 0:
            raise ValueError(f"negative exponent {n}")
        f = self.field
        p = _wpow(f, *f.wrow(self.terms), n, (0,) * self.nvars)
        return Polynomial(self.nvars, f, f.wraw(*p))

    def substitute(self, images, D) -> "Polynomial":
        """Evaluate at x_i -> images[i], truncating at degree D throughout,
        over the common field of self's and the images' coefficients."""
        f, terms, scale = self._wsubstitute(images, D)
        return Polynomial(images[0].nvars, f, f.wraw(terms, scale))

    def _wsubstitute(self, images, D):
        """(field, working dict, scale) of substitute (see the module
        docstring): the ladder of x_i holds s_i^E_i for e = 0 and
        s_i^(E_i - e) * w_i^e for 1 <= e <= E_i.  Sums that cancel stay in
        the dict as zeros; it ends in Polynomial or SparseEchelon._reduce,
        and both drop them."""
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        if not images:
            raise ValueError("no variables")
        f = common_field(self.field, *(im.field for im in images))
        terms, scale = f.wrow(self.map_field(f).terms)
        ladders = []
        for i, im in enumerate(images):
            w, s = f.wrow(im.map_field(f).terms)
            E = max((m[i] for m in terms), default=0)
            powers = []
            while len(powers) < E:
                powers.append(_wmul(f, powers[-1], w, D) if powers else w)
            ladders.append([s ** E] + [f.wscale(p, s ** (E - e)) if s != 1 else p
                                       for e, p in enumerate(powers, 1)])
            scale *= s ** E
        if D is not None and D < 1:  # every term is cut, a constant one too
            terms = {}
        out, radd = {}, f.radd
        one = (0,) * images[0].nvars
        for m, c in terms.items():
            k = prod(ladder[0] for e, ladder in zip(m, ladders) if not e)
            term = {one: c} if k == 1 else f.wscale({one: c}, k)
            for e, ladder in zip(m, ladders):
                if e:
                    term = _wmul(f, term, ladder[e], D)
            for mo, v in term.items():
                out[mo] = radd(out[mo], v) if mo in out else v
        return f, out, scale

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
        # values hash as Scalars, a constant term alone: == holds across fields and with numbers
        f = self.field
        return sum(hash((m, Scalar(f, c))) if any(m) else hash(Scalar(f, c))
                   for m, c in self.terms.items())

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

# A non-space character that starts no token matches the last alternative,
# so the matches cover the text but trailing spaces, with no gap.
_TOKEN = re.compile(r"\s*(?:(\d+)|x(\d+)|(sqrt)|([-+*/^()])|\S)")


def _tokenize(text: str):
    toks = []
    for m in _TOKEN.finditer(text):
        num, var, sqrt, op = m.groups()
        if num is not None:
            toks.append(("num", int(num)))
        elif var is not None:
            toks.append(("var", int(var)))
        elif op is not None:
            toks.append((op, None))
        elif sqrt is not None:
            toks.append(("sqrt", None))
        else:
            pos = m.start()
            raise ParseError(f"bad character near {text[pos:pos + 10]!r}")
    return toks


class _Parser:
    """Recursive descent over the tokens; every value is a pair (working
    dict, scale) of the field, as products and substitution keep them (see
    the module docstring), and parse makes one Polynomial of it."""

    def __init__(self, toks, nvars, field):
        self.end = len(toks)
        self.toks = toks + [(None, None)]  # the kind None marks the end
        self.i = 0
        self.nvars = nvars
        self.field = field
        self.one = (0,) * nvars

    def peek(self):
        return self.toks[self.i][0]

    def take(self):
        if self.i == self.end:
            raise ParseError("unexpected end of input")
        self.i += 1
        return self.toks[self.i - 1]

    def parse(self) -> Polynomial:
        terms, scale = self.expr()
        if self.i != self.end:
            raise ParseError("trailing input")
        f = self.field
        return Polynomial(self.nvars, f, f.wraw(terms, scale))

    def expr(self):
        """The terms summed from 0 by _wadd, a leading sign included."""
        p, sp, op = {}, 1, "+"
        if self.peek() in ("+", "-"):
            op = self.take()[0]
        while True:
            p, sp = _wadd(self.field, p, sp, *self.term(), op == "-")
            if self.peek() not in ("+", "-"):
                return p, sp
            op = self.take()[0]

    def term(self):
        f = self.field
        p, sp = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()[0]
            q, sq = self.factor()
            if op == "/":
                c = self.constant(q, sq)
                if c is None or f.riszero(c):
                    raise ParseError("division only by nonzero constants")
                q, sq = f.wrow({self.one: f.rinv(c)})
            p, sp = _wmul(f, p, q, None), sp * sq
        return p, sp

    def factor(self):
        f = self.field
        if self.peek() == "-":
            self.take()
            p, sp = self.factor()
            return {m: f.rneg(c) for m, c in p.items()}, sp
        p, sp = self.atom()
        if self.peek() == "^":
            self.take()
            kind, n = self.take()
            if kind != "num":
                raise ParseError("exponent must be a natural number")
            return _wpow(f, p, sp, n, self.one)
        return p, sp

    def atom(self):
        f = self.field
        kind, val = self.toks[self.i]
        self.i += 1
        if kind == "num":
            return (f.wscale({self.one: f.wone}, val) if val else {}), 1
        if kind == "var":
            if not 1 <= val <= self.nvars:
                raise ParseError(f"variable x{val} out of range (nvars={self.nvars})")
            return {self.one[:val - 1] + (1,) + self.one[val:]: f.wone}, 1
        if kind == "sqrt":
            if self.peek() != "(":
                raise ParseError("sqrt must be followed by (...)")
            self.take()
            inner = self.expr()
            if self.peek() != ")":
                raise ParseError("unbalanced parentheses in sqrt")
            self.take()
            c = self.constant(*inner)
            if c is None:
                raise ParseError("sqrt of a non-constant")
            r = f.rnth_root(c, 2)
            if r is None:
                raise ParseError(f"sqrt({f.rstr(c)}) does not exist in {f!r}")
            return ({}, 1) if f.riszero(r) else f.wrow({self.one: r})
        if kind == "(":
            inner = self.expr()
            if self.peek() != ")":
                raise ParseError("unbalanced parentheses")
            self.take()
            return inner
        raise ParseError("unexpected end of input" if kind is None else f"unexpected {kind!r}")

    def constant(self, terms, scale):
        """The raw value of a constant working dict over scale, or None."""
        if not terms:
            return self.field.rzero
        if list(terms) == [self.one]:
            return self.field.wraw(terms, scale)[self.one]
        return None


def parse_poly(text: str, nvars: int, field: Field = QQ) -> Polynomial:
    """Parse polynomial text in variables x1..x<nvars> over the given field."""
    return _Parser(_tokenize(text), nvars, field).parse()


# ----------------------------------------------------------------- ring maps


def _full_rank(rows, field: Field) -> bool:
    """Do the rows, dicts {column: raw value}, have rank len(rows), that
    is, does each enlarge the span of those before it?"""
    from .linalg import SparseEchelon

    return all(map(SparseEchelon(field).add, rows))


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
        if any(im.nvars != nvars for im in images):
            raise ValueError("images live in different rings")
        field = common_field(*(im.field for im in images))
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
        return p.substitute(self.images, self.D)

    def is_invertible(self) -> bool:
        """Do the linear parts of the images have rank nvars?"""
        return len(self.images) == self.nvars and _full_rank(
            [im.linear_row() for im in self.images], self.field)

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
    plus a random sprinkle of degree-2 terms.  Each image's terms go into
    one dict, in the order of the draws: the linear terms, redrawn until
    their rank is nvars, then the sprinkle.  D < 2 cuts the linear terms."""
    if D < 2:
        raise ValueError(f"a map cut at D = {D} has no linear part; D must be at least 2")
    if isinstance(rng, int):
        rng = random.Random(rng)
    while True:
        rows = [{j: field.rfrom(c) for j in range(nvars) if (c := rng.randint(-3, 3))}
                for _ in range(nvars)]
        if _full_rank(rows, field):
            break
    one = (0,) * nvars
    quadrics = monomials_of_degree(nvars, 2)
    imgs = []
    for row in rows:
        terms = {one[:j] + (1,) + one[j + 1:]: c for j, c in row.items()}
        for mono in quadrics:
            if _sprinkle(rng):
                c = rng.randint(-2, 2)
                if c:
                    terms[mono] = field.rfrom(c)
        imgs.append(Polynomial(nvars, field, terms))
    return RingMap(imgs, D)
