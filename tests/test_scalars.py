"""Field tower arithmetic: rationals and iterated quadratic extensions.

The integer towers are checked against OracleTower, the pair-of-Fractions
field they replaced, on hypothesis values at depth 1 and 2; thetas must be
canonical, so equal fields compare equal and get one label."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from artinlocal.errors import FieldExtensionRequired, FieldMismatch
from artinlocal.scalars import (
    QQ,
    QuadraticExtension,
    RationalField,
    Scalar,
    _power,
    _square_part,
    adjoin_sqrt,
    common_field,
)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


def q(x) -> Scalar:
    return Scalar(QQ, QQ.rfrom(Fraction(x)))


@given(rationals, rationals, rationals)
def test_rational_ring_axioms(a, b, c):
    sa, sb, sc = q(a), q(b), q(c)
    assert ((sa + sb) * sc - (sa * sc + sb * sc)).is_zero()
    assert (sa * sb - sb * sa).is_zero()
    assert (sa + (sb + sc) - ((sa + sb) + sc)).is_zero()


@given(rationals)
def test_rational_inverse(a):
    sa = q(a)
    if sa.is_zero():
        with pytest.raises(ZeroDivisionError):
            sa.inverse()
    else:
        assert (sa * sa.inverse() - q(1)).is_zero()


def test_sqrt_of_square_stays_rational():
    assert (q(Fraction(9, 4)).sqrt() - q(Fraction(3, 2))).is_zero()


def test_adjoined_sqrt_squares_back():
    F = adjoin_sqrt(QQ, q(2))
    r2 = F.coerce(q(2)).sqrt()
    assert (r2 * r2 - F.coerce(q(2))).is_zero()


def test_tower_of_two_extensions():
    F = adjoin_sqrt(QQ, q(2))
    G = adjoin_sqrt(F, F.coerce(q(3)))
    r2 = G.coerce(q(2)).sqrt()
    r3 = G.coerce(q(3)).sqrt()
    assert (r2 * r3 * r2 * r3 - G.coerce(q(6))).is_zero()


def test_depth_cap_raises():
    F = adjoin_sqrt(QQ, q(2))
    G = adjoin_sqrt(F, F.coerce(q(3)))
    with pytest.raises(FieldExtensionRequired):
        adjoin_sqrt(G, G.coerce(q(5)))


def test_adjoining_a_square_is_rejected():
    with pytest.raises(ValueError):
        adjoin_sqrt(QQ, q(4))


def test_common_field_finds_ancestor():
    F = adjoin_sqrt(QQ, q(2))
    G = adjoin_sqrt(F, 3)
    assert common_field(QQ, F) is F
    assert common_field(F, F) is F
    assert common_field(QQ) is QQ
    assert common_field(F, QQ, G, F) is G
    with pytest.raises(FieldMismatch):
        common_field(F, G, adjoin_sqrt(QQ, q(3)))


def test_mixed_arithmetic_coerces():
    F = adjoin_sqrt(QQ, q(5))
    r5 = F.coerce(q(5)).sqrt()
    mixed = r5 + q(1)
    assert mixed.field is F
    assert ((mixed - q(1)) * (mixed - q(1)) - F.coerce(q(5))).is_zero()


def test_nth_root_fourth_power():
    a = q(16)
    r = a.nth_root(4)
    assert (r * r * r * r - a).is_zero()


@pytest.mark.parametrize("base,k", [
    (10 ** 20 + 1, 3),
    (3 ** 233, 3),
    (2 ** 300 - 1, 2),
    (12345678901234567890123, 5),
    (7 ** 50, 8),
])
def test_nth_root_of_large_powers_is_exact(base, k):
    assert QQ.scalar(base ** k).nth_root(k) == q(base)
    assert QQ.scalar(Fraction(base ** k, 5 ** k)).nth_root(k) == q(Fraction(base, 5))
    assert QQ.scalar(base ** k + 1).nth_root(k) is None
    assert QQ.scalar(base ** k - 1).nth_root(k) is None
    if k % 2:
        assert QQ.scalar(-base ** k).nth_root(k) == q(-base)


@pytest.mark.parametrize("field", [QQ, adjoin_sqrt(QQ, q(2))], ids=repr)
@pytest.mark.parametrize("n", [0, -1, -5])
def test_nth_root_needs_n_at_least_one(field, n):
    x = field.coerce(q(4))
    with pytest.raises(ValueError, match=f"n = {n}"):
        x.nth_root(n)
    with pytest.raises(ValueError, match=f"n = {n}"):
        field.nth_root(x, n)


# ---------------------------------------------------------- square parts


def brute_square_part(n):
    """The largest k with k^2 dividing n, by trying every k up to isqrt(|n|)."""
    n = abs(n)
    return max(k for k in range(1, math.isqrt(n) + 1) if n % (k * k) == 0)


def test_square_part_matches_brute_force_up_to_30000():
    """Against a table where each k writes itself on the multiples of k^2,
    larger k later, and brute_square_part on a sample; n and -n alike."""
    N = 30000
    table = [1] * (N + 1)
    for k in range(2, math.isqrt(N) + 1):
        for m in range(k * k, N + 1, k * k):
            table[m] = k
    for n in range(1, N + 1):
        assert _square_part(n) == _square_part(-n) == table[n], n
    for n in range(1, N + 1, 97):
        assert table[n] == brute_square_part(n)


@pytest.mark.parametrize("n", [65521**2 * 3, 65537**2, -(65537**2)])
def test_square_part_of_squares_of_the_largest_primes_near_2_16(n):
    """65521, the largest prime below 2^16, is found by trial division or
    isqrt; 65537, the least prime above it, by isqrt."""
    assert _square_part(n) == brute_square_part(n)


def test_square_part_misses_a_square_of_large_primes_beside_a_large_prime():
    """The documented miss: the square part of q^2 * r, for q and r primes
    above 2^16, is q, and trial division below 2^16 finds 1."""
    q_, r = 65537, 65539
    assert all(q_ % p and r % p for p in range(2, 257))  # both prime
    assert _square_part(q_ * q_ * r) == 1


# ------------------------------------------------- towers against the oracle


def rational_sqrt(a):
    """The square root of a Fraction, or None: the oracle's own, from the
    integer square roots of its numerator and denominator."""
    if a < 0:
        return None
    p, q = math.isqrt(a.numerator), math.isqrt(a.denominator)
    return Fraction(p, q) if p * p == a.numerator and q * q == a.denominator else None


class OracleTower:
    """base[sqrt(theta)] on raw pairs (a, b) of base raw values, meaning
    a + b*sqrt(theta): the pair-of-Fractions field that the integer towers
    replaced, with every operation a base-field operation."""

    def __init__(self, base, theta):
        self.base = base
        self.theta = theta
        self.rzero = (base.rzero, base.rzero)
        self.rone = (base.rone, base.rzero)

    def rfrom(self, x):
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
        return (B.radd(B.rmul(a, c), B.rmul(self.theta, B.rmul(b, d))),
                B.radd(B.rmul(a, d), B.rmul(b, c)))

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

    def base_sqrt(self, x):
        """A square root in the base, or None: over QQ the oracle's own."""
        return rational_sqrt(x) if self.base is QQ else self.base.rsqrt(x)

    def rsqrt(self, x):
        B = self.base
        a, b = x
        if B.riszero(b):
            r = self.base_sqrt(a)
            if r is not None:
                return (r, B.rzero)
            r = self.base_sqrt(B.rdiv(a, self.theta))
            if r is not None:
                return (B.rzero, r)
            return None
        n = self.base_sqrt(self.rnorm(x))
        if n is None:
            return None
        two = B.rfrom(2)
        for sign in (n, B.rneg(n)):
            p = self.base_sqrt(B.rdiv(B.radd(a, sign), two))
            if p is not None and not B.riszero(p):
                cand = (p, B.rdiv(b, B.rmul(two, p)))
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


def to_oracle(field, x):
    """The oracle's raw value of a raw value x of field: the pair of the
    halves of its coordinates, each over x's denominator."""
    if field is QQ:
        return x
    coords, den = field.rcoords(x)
    h = len(coords) // 2
    B = field.base
    return (to_oracle(B, B.rmake(coords[:h], den)), to_oracle(B, B.rmake(coords[h:], den)))


def oracle_of(field):
    if field is QQ:
        return QQ
    base = oracle_of(field.base)
    return OracleTower(base, to_oracle(field.base, field.theta))


Q13 = adjoin_sqrt(QQ, q(13))
TOWERS = [adjoin_sqrt(QQ, q(2)), adjoin_sqrt(QQ, q(-3)), Q13,
          adjoin_sqrt(adjoin_sqrt(QQ, q(2)), 3),
          adjoin_sqrt(Q13, Q13.sqrt(Q13.scalar(13)) * Fraction(-2, 13)),
          adjoin_sqrt(adjoin_sqrt(QQ, q(-3)), adjoin_sqrt(QQ, q(-3)).sqrt(q(-3)))]


def tower_values(field):
    n = 2 ** field.depth
    return st.builds(field.rmake, st.lists(st.integers(-12, 12), min_size=n, max_size=n),
                     st.integers(1, 9))


@pytest.mark.parametrize("field", TOWERS, ids=repr)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_tower_agrees_with_the_pair_of_fractions_oracle(field, data):
    """The field axioms hold, and +, -, *, rinv, rdiv, rnth_root and
    rstr give the oracle's values, mapped across, at depth 1 and 2."""
    O = oracle_of(field)
    x, y, z = (data.draw(tower_values(field)) for _ in range(3))
    f = field
    assert f.rmul(f.radd(x, y), z) == f.radd(f.rmul(x, z), f.rmul(y, z))
    assert f.rmul(x, y) == f.rmul(y, x)
    assert f.rmul(f.rmul(x, y), z) == f.rmul(x, f.rmul(y, z))
    assert f.radd(x, f.rzero) == x == f.rmul(x, f.rone)
    assert f.riszero(f.rsub(x, x)) and f.radd(x, f.rneg(x)) == f.rzero
    ox, oy = to_oracle(f, x), to_oracle(f, y)
    for op in ("radd", "rsub", "rmul"):
        assert to_oracle(f, getattr(f, op)(x, y)) == getattr(O, op)(ox, oy), op
    assert to_oracle(f, f.rneg(x)) == O.rneg(ox)
    assert f.rstr(x) == O.rstr(ox)
    if f.riszero(y):
        with pytest.raises(ZeroDivisionError):
            f.rinv(y)
    else:
        assert to_oracle(f, f.rinv(y)) == O.rinv(oy)
        assert to_oracle(f, f.rdiv(x, y)) == O.rdiv(ox, oy)
        assert f.rmul(y, f.rinv(y)) == f.rone
    for v in (x, f.rmul(x, x), f.rmul(f.rmul(x, x), f.rmul(x, x))):
        for n in (2, 3, 4):
            got = f.rnth_root(v, n)
            want = O.rnth_root(to_oracle(f, v), n)
            assert (None if got is None else to_oracle(f, got)) == want, (v, n)


# ------------------------------------------------------- canonical theta


def test_equal_fields_compare_equal():
    """A theta and its multiple by a rational square give one field, and a
    value keeps its meaning: sqrt(8) of QQ[sqrt(8)] is 2*sqrt(2)."""
    F2, F8 = QuadraticExtension(QQ, 2), QuadraticExtension(QQ, 8)
    assert F2 == F8 and hash(F2) == hash(F8) and repr(F8) == "QQ[sqrt(2)]"
    assert common_field(adjoin_sqrt(QQ, q(2)), adjoin_sqrt(QQ, q(8))) == F2
    r8 = F8.coerce(q(8)).sqrt()
    assert r8 * r8 == F8.coerce(q(8)) and repr(r8) == "(2*sqrt(2))"
    assert adjoin_sqrt(QQ, q(2)) != adjoin_sqrt(QQ, q(3))


@pytest.mark.parametrize("thetas,label", [
    ([-3, Fraction(-16, 3), Fraction(-3, 4), -12, Fraction(-1, 3), Fraction(-243, 4)], "QQ[sqrt(-3)]"),
    ([2, 8, Fraction(1, 2), Fraction(2048, 729), 72], "QQ[sqrt(2)]"),
    ([-21, Fraction(-7, 12), Fraction(-1701, 16), -21504], "QQ[sqrt(-21)]"),
])
def test_labels_are_squarefree_and_deterministic(thetas, label):
    assert {repr(adjoin_sqrt(QQ, q(t))) for t in thetas} == {label}
    t = adjoin_sqrt(QQ, q(thetas[0])).theta
    assert t.denominator == 1 and all(t.numerator % (p * p) for p in range(2, 50))


def test_depth_2_theta_is_integral_with_no_square_in_its_gcd():
    """-2/13*sqrt(13) and its multiples by 4, 1/9 and 13^2 give one label;
    sqrt(13) (a square of the base, not of QQ) stays in theta."""
    r13 = Q13.sqrt(Q13.scalar(13))
    labels = {repr(adjoin_sqrt(Q13, r13 * c)) for c in
              (Fraction(-2, 13), Fraction(-8, 13), Fraction(-2, 117), -26)}
    assert labels == {"QQ[sqrt(13)][sqrt((-26*sqrt(13)))]"}


@pytest.mark.xfail(strict=True, reason=(
    "a depth-2 theta is canonical only up to integer squares, and "
    "-26*sqrt(13) = -2*sqrt(13) * sqrt(13)^2 differ by a square of the base"))
def test_depth_2_thetas_differing_by_a_base_square_give_one_field():
    r13 = Q13.sqrt(Q13.scalar(13))
    assert adjoin_sqrt(Q13, r13 * -2) == adjoin_sqrt(Q13, r13 * -26)


# Mersenne primes of 39, 33 and 27 digits, all far above the trial divisors
P127, P107, P89 = 2**127 - 1, 2**107 - 1, 2**89 - 1


@pytest.mark.parametrize("theta, canon", [
    (P127, P127),
    (Fraction(P127 * P107, P89), P127 * P107 * P89),
    (-3 * 4 * P127**2, -3),  # a large square alone is found by isqrt
    (P107**2 * P89, P107**2 * P89),  # q^2 * r, both large, is kept whole
])
def test_theta_with_large_prime_factors_is_made_canonical_quickly(theta, canon):
    """Square factors are sought by trial division below 2^16 only, so any
    theta is handled in milliseconds; the root of the given theta is still
    the root adjoined, up to the rational factor."""
    start = time.perf_counter()
    F = adjoin_sqrt(QQ, q(theta))
    assert time.perf_counter() - start < 1.0
    assert F.theta == canon
    root = F.coerce(q(theta)).sqrt()
    assert root is not None and root * root == F.coerce(q(theta))


def test_depth_2_theta_with_large_coordinates_is_made_canonical_quickly():
    r13 = Q13.sqrt(Q13.scalar(13))
    theta = r13 * (P127 * P107) + P89 * 4 * P127**2
    start = time.perf_counter()
    F = adjoin_sqrt(Q13, theta)
    assert time.perf_counter() - start < 1.0
    root = F.coerce(theta).sqrt()
    assert root is not None and root * root == F.coerce(theta)


POWER_FIELDS = [QQ, TOWERS[3]]  # QQ and QQ(sqrt 2)(sqrt 3)


@pytest.mark.parametrize("field", POWER_FIELDS, ids=repr)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_scalar_power_equals_repeated_multiplication(field, data):
    """x^n by squaring against n factors of x from 1, and x^-n against n
    factors of 1/x, for n = 0..9; a negative power of 0 raises."""
    x = Scalar(field, data.draw(tower_values(field)))
    for n in range(10):
        want = field.one
        for _ in range(n):
            want = want * x
        assert (x ** n).field == field and (x ** n).val == want.val
        if x.is_zero():
            if n:
                with pytest.raises(ZeroDivisionError):
                    x ** -n
            continue
        want = field.one
        for _ in range(n):
            want = want * x.inverse()
        assert (x ** -n).val == want.val


def test_powers_take_at_most_two_products_per_bit(monkeypatch):
    """_power at n = 10^6 makes at most 2*bit_length(n) products, and so
    does a Scalar power, over QQ and over a depth-2 tower."""
    n = 10 ** 6
    calls = []

    def mul(a, b):
        calls.append(1)
        return a * b % 1000003

    assert _power(mul, 3, n) == pow(3, n, 1000003)
    assert len(calls) <= 2 * n.bit_length()
    for field, owner in ((QQ, RationalField), (TOWERS[3], TOWERS[3])):
        rmul = field.rmul
        # QQ's rmul is spied on its class, so the spy gets self first
        monkeypatch.setattr(owner, "rmul", lambda *args: calls.append(1) or rmul(*args[-2:]))
        for x, want in ((-field.one, field.one), (field.scalar(2), field.scalar(2 ** n))):
            calls.clear()
            assert x ** n == want
            assert len(calls) <= 2 * n.bit_length()
