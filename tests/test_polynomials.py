"""Multivariate polynomial arithmetic, parsing, and ring maps; the
fraction-free products and substitution against the Fraction oracles, and
the working-form parser against the Polynomial-valued one."""

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import artinlocal.polynomials as polynomials
from artinlocal.errors import ParseError
from artinlocal.polynomials import (
    Polynomial,
    RingMap,
    _sprinkle,
    lex_monomials,
    monomials_of_degree,
    parse_poly,
    poly_to_str,
    random_invertible_map,
)
from artinlocal.scalars import QQ, Scalar, adjoin_sqrt

from echelon_oracles import oracle_add, oracle_mul_trunc, oracle_parse_poly, oracle_substitute

SQRT2 = adjoin_sqrt(QQ, Scalar(QQ, QQ.rfrom(2)))
TOWER = adjoin_sqrt(SQRT2, SQRT2.radd(SQRT2.rfrom(3), SQRT2.sqrt_theta))


def poly_strategy(nvars=2, max_deg=3):
    monos = [m for d in range(max_deg + 1) for m in monomials_of_degree(nvars, d)]
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    return st.dictionaries(st.sampled_from(monos), coeff, max_size=5).map(
        lambda d: Polynomial(
            nvars, QQ, {m: QQ.rfrom(c) for m, c in d.items() if c != 0}
        )
    )


@given(poly_strategy(), poly_strategy(), poly_strategy())
@settings(max_examples=50)
def test_mul_distributes_over_add(p, r, w):
    left = p * (r + w)
    right = p * r + p * w
    assert (left - right).is_zero()


@given(poly_strategy(), poly_strategy())
@settings(max_examples=50)
def test_mul_commutes(p, r):
    assert (p * r - r * p).is_zero()


@given(poly_strategy(), poly_strategy())
@settings(max_examples=50)
def test_mul_trunc_agrees_with_truncated_mul(p, r):
    for D in (2, 4):
        assert (p.mul_trunc(r, D) - (p * r).truncate(D)).is_zero()


@given(poly_strategy())
@settings(max_examples=50)
def test_parser_round_trips_printer(p):
    text = poly_to_str(p)
    assert (parse_poly(text, 2, QQ) - p).is_zero()


def test_parse_basic_forms():
    p = parse_poly("x1^2 - 3/2*x2 + 1", 2, QQ)
    assert p.coeff((2, 0)) == QQ.rone
    assert p.coeff((0, 1)) == QQ.rfrom(Fraction(-3, 2))
    assert p.coeff((0, 0)) == QQ.rone


def test_parse_rejects_garbage():
    for bad in ("x1 +", "x3", "2 ** x1", "(x1", "x1^"):
        with pytest.raises(ParseError):
            parse_poly(bad, 2, QQ)


def test_order_and_degree():
    p = parse_poly("x1^2*x2 + x1^5", 2, QQ)
    assert p.order() == 3
    assert p.degree() == 5


def test_substitute_composes():
    p = parse_poly("x1*x2 + x2^3", 2, QQ)
    x1 = parse_poly("x1 + x2", 2, QQ)
    x2 = parse_poly("x2", 2, QQ)
    out = p.substitute([x1, x2], 10)
    want = parse_poly("x1*x2 + x2^2 + x2^3", 2, QQ)
    assert (out - want).is_zero()


def test_then_composes_maps_over_nested_fields():
    """A QQ map after a QQ(sqrt 2) map composes over QQ(sqrt 2) as it is,
    giving the composition of the lifted maps."""
    r2 = SQRT2.scalar(SQRT2.sqrt_theta)
    first = RingMap([parse_poly("x1 + x2^2", 2, SQRT2).scale(r2),
                     parse_poly("x2 - x1*x2", 2, SQRT2)], 6)
    second = random_invertible_map(2, QQ, 5, 3)
    got = first.then(second)
    want = first.then(RingMap([im.map_field(SQRT2) for im in second.images], second.D))
    assert got.field == SQRT2 and got.D == want.D == 5
    assert got.images == want.images


@given(st.integers(min_value=0, max_value=200))
def test_random_map_is_invertible(seed):
    phi = random_invertible_map(2, QQ, 5, seed)
    assert phi.is_invertible()


def test_is_invertible_reads_the_linear_parts_only():
    x1, x2 = (parse_poly(t, 2, QQ) for t in ("x1", "x2"))
    assert RingMap([x1 + x2 ** 2, x1 - x2], 4).is_invertible()
    assert not RingMap([x1 + x2, x1 * 2 + x2 * 2 + x1 ** 2], 4).is_invertible()
    assert not RingMap([x1 + x2], 4).is_invertible()  # one image for two variables
    with pytest.raises(ValueError):
        RingMap([x1], 4).apply(x1)  # a map of one variable on a polynomial in two


def test_random_map_draw_stream_is_pinned():
    """The reprs of 1,920 maps, over QQ and QQ(sqrt 2), h = 1..4, D in
    (2, 3, 5, 9) and seeds 0..59 in that order, hash to a pinned value:
    the draws, their order and the images stay fixed, as the seeded tests,
    demos and benchmark pools rely on them."""
    reprs = [repr(random_invertible_map(h, f, D, random.Random(seed)))
             for f in (QQ, SQRT2) for h in range(1, 5) for D in (2, 3, 5, 9)
             for seed in range(60)]
    assert hashlib.sha1("\n".join(reprs).encode()).hexdigest()[:12] == "6411a3fd3262"


def test_random_map_builds_one_ring_map(monkeypatch):
    built = []
    init = RingMap.__init__

    def spy(self, images, D):
        built.append(D)
        init(self, images, D)

    monkeypatch.setattr(polynomials.RingMap, "__init__", spy)
    for h, D, seed in ((1, 2, 0), (2, 5, 1), (3, 9, 2), (4, 3, 3)):
        built.clear()
        random_invertible_map(h, QQ, D, seed)
        assert built == [D]


def test_random_map_below_degree_two_raises_at_once():
    """D < 2 cuts every linear term, so no map cut there is invertible; the
    call must raise, not redraw forever.  A subprocess bounds the time."""
    code = ("from artinlocal.polynomials import random_invertible_map as r\n"
            "from artinlocal.scalars import QQ\n"
            "for D in (1, 0, -3):\n"
            "    try:\n"
            "        r(2, QQ, D, 0)\n"
            "    except ValueError as e:\n"
            "        assert f'D = {D}' in str(e), e\n"
            "    else:\n"
            "        raise SystemExit('no error')\n")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr + proc.stdout


def test_monomials_of_degree_counts():
    assert len(list(monomials_of_degree(3, 4))) == 15
    assert list(monomials_of_degree(2, 0)) == [(0, 0)]


def test_lex_monomials_are_the_sorted_monomials_descending():
    for n in range(6):
        for d in range(9):
            assert list(lex_monomials(n, d)) == sorted(monomials_of_degree(n, d), reverse=True)


def test_lex_monomials_start_and_stop_give_the_slice():
    for n in range(1, 5):
        for d in range(6):
            full = list(lex_monomials(n, d))
            for start, stop in ((0, None), (1, 3), (2, None), (len(full) // 2, len(full))):
                assert list(lex_monomials(n, d, start, stop)) == full[start:stop]


def single_terms(field):
    """A single term c*m in 1..3 variables, c a nonzero value of the field."""
    rational = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    if field is QQ:
        coeff = rational.filter(bool).map(QQ.rfrom)
    else:
        coeff = st.tuples(rational, rational).filter(any).map(
            lambda ab: field.radd(field.rfrom(ab[0]),
                                  field.rmul(field.rfrom(ab[1]), field.sqrt_theta)))
    return st.integers(1, 3).flatmap(lambda n: st.builds(
        lambda m, c: Polynomial(n, field, {m: c}),
        st.tuples(*[st.integers(0, 3)] * n), coeff))


@pytest.mark.parametrize("field", [QQ, SQRT2], ids=["QQ", "QQ(sqrt2)"])
@given(data=st.data())
@settings(max_examples=40)
def test_single_term_power_equals_repeated_multiplication(field, data):
    p = data.draw(single_terms(field))
    for n in range(8):
        want = Polynomial.constant(1, p.nvars, field)
        for _ in range(n):
            want = want.mul_trunc(p, None)
        assert (p ** n).terms == want.terms


def test_single_term_powers_take_the_exponent_at_once():
    """A single term's power multiplies its exponents and raises its
    coefficient by squaring, so huge exponents cost nothing; in text too."""
    x2 = Polynomial.variable(1, 2, QQ)
    for n in (3000000, 99999999999):
        assert (x2 ** n).terms == {(0, n): QQ.rone}
        assert parse_poly(f"x2^{n}", 2, QQ).terms == {(0, n): QQ.rone}
    assert parse_poly("-(3/2*x1)^5", 2, QQ).terms == {(5, 0): QQ.rfrom(Fraction(-243, 32))}
    r2 = SQRT2.sqrt_theta
    assert (Polynomial(1, SQRT2, {(1,): r2}) ** 41).terms == {(41,): SQRT2.rmake((0, 2 ** 20), 1)}


def test_negative_exponent_raises():
    for p in (parse_poly("x1", 2, QQ), parse_poly("x1 + x2", 2, QQ)):
        with pytest.raises(ValueError):
            p ** -1


def test_sprinkle_decides_as_random_does():
    """The integer test of random_invertible_map makes the decision that
    random() < 0.35 makes, and leaves the generator in the same state, on
    200 seeds of 500 draws each, interleaved with other draws."""
    decisions = 0
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(500):
            got = _sprinkle(ours)
            assert got == (theirs.random() < 0.35)
            decisions += got
            assert ours.randint(-2, 2) == theirs.randint(-2, 2)
        assert ours.getstate() == theirs.getstate()
    assert 0.3 < decisions / 100000 < 0.4


# ------------------------------------------- fraction-free products vs oracles


def field_values(field):
    """Raw values of the field: integer coordinates on its basis over one
    denominator, small ones or up to 2^70 over up to 10^15, zero allowed."""
    n = 1 << field.depth

    def values(bound, largest_den):
        coords = st.lists(st.integers(-bound, bound), min_size=n, max_size=n)
        return st.builds(field.rmake, coords, st.integers(1, largest_den))

    return st.one_of(values(9, 6), values(2 ** 70, 10 ** 15))


def field_polys(field, nvars, lowest=0, max_deg=3):
    """Polynomials of up to 4 terms of degree lowest..max_deg, the zero
    polynomial among them; a zero value drawn for a term is dropped by
    Polynomial itself."""
    monos = [m for d in range(lowest, max_deg + 1) for m in monomials_of_degree(nvars, d)]
    return st.dictionaries(st.sampled_from(monos), field_values(field), max_size=4).map(
        lambda d: Polynomial(nvars, field, d))


def subfields(field):
    """The field and every field below it in its tower."""
    return [field] + (subfields(field.base) if field.depth else [])


def assert_exact(got, want):
    """Same field, same raw values, and over QQ every value a Fraction."""
    assert got.field == want.field and got.terms == want.terms
    assert got.field is not QQ or all(type(c) is Fraction for c in got.terms.values())


FIELDS = [pytest.param(f, id=i) for f, i in ((QQ, "QQ"), (SQRT2, "QQ(sqrt2)"),
                                                (TOWER, "depth-2 tower"))]
# D: no cut, a cut of every term, the least cut that keeps constants, one
# inside the degrees drawn, and one past them
CUTS = (None, 0, 1, 4, 40)


@pytest.mark.parametrize("field", FIELDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_mul_trunc_matches_the_fraction_oracle(field, data):
    """The fraction-free product against the product with one field
    operation per pair of terms, with one factor over a subfield."""
    n = data.draw(st.integers(1, 3))
    p = data.draw(field_polys(field, n))
    r = data.draw(field_polys(data.draw(st.sampled_from(subfields(field))), n))
    for D in CUTS:
        assert_exact(p.mul_trunc(r, D), oracle_mul_trunc(p, r, D))
        assert_exact(r.mul_trunc(p, D), oracle_mul_trunc(r, p, D))


@pytest.mark.parametrize("field", FIELDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_substitute_matches_the_fraction_oracle(field, data):
    """Substitution on one common scale against the term-by-term oracle:
    p and the images over the field or a subfield, images into 1..3
    variables, with constant terms half the time (then p's terms of
    degree >= D still give terms below D), zero images among them."""
    sub = st.sampled_from(subfields(field))
    n, k = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    p = data.draw(field_polys(data.draw(sub), n, max_deg=5))
    lowest = data.draw(st.sampled_from((0, 1)))
    images = [data.draw(field_polys(data.draw(sub), k, lowest)) for _ in range(n)]
    for D in CUTS:
        assert_exact(p.substitute(images, D), oracle_substitute(p, images, D))


def assert_same_terms(got, want):
    """assert_exact, and the terms in the same order."""
    assert_exact(got, want)
    assert list(got.terms) == list(want.terms)


@pytest.mark.parametrize("field", FIELDS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_add_and_sub_match_the_term_loop(field, data):
    """+ and -, summed in working form over the lcm of the scales, against
    the loop that adds term by term on raw values: the same values in the
    same order.  One summand may lie over a subfield; values are zero or
    have mixed denominators up to 10^15; and a third summand repeats some
    of p's terms, as they are or negated, so that sums cancel."""
    n = data.draw(st.integers(1, 3))
    p = data.draw(field_polys(field, n))
    r = data.draw(field_polys(data.draw(st.sampled_from(subfields(field))), n))
    signs = data.draw(st.lists(st.sampled_from((0, 1, -1)), min_size=len(p.terms),
                               max_size=len(p.terms)))
    echo = {m: c if k > 0 else field.rneg(c)
            for (m, c), k in zip(p.terms.items(), signs) if k}
    q = Polynomial(n, field, {**echo, **data.draw(field_polys(field, n)).terms})
    for a, b in ((p, r), (r, p), (p, q), (q, p), (p, p)):
        assert_same_terms(a + b, oracle_add(a, b))
        assert_same_terms(a - b, oracle_add(a, b, sub=True))
    assert (p - p).is_zero()


@pytest.mark.parametrize("field", [QQ, TOWER], ids=["QQ", "depth-2 tower"])
def test_zero_values_are_dropped_on_construction(field):
    """A Polynomial built from a dict with a zero value is the zero
    polynomial: it compares equal to 0, its square is 0 and it prints as
    0; a zero value beside a nonzero one is dropped alone."""
    p = Polynomial(1, field, {(1,): field.rzero})
    assert p.is_zero() and p == 0 and p.terms == {}
    assert (p * p).is_zero() and (p * p).terms == {} and repr(p * p) == "0"
    assert repr(p) == poly_to_str(p) == "0"
    q = Polynomial(2, field, {(1, 0): field.rzero, (0, 1): field.rone})
    assert q == Polynomial.variable(1, 2, field) and list(q.terms) == [(0, 1)]
    assert repr(q * q) == "x2^2"
    assert Polynomial.constant(0, 2, field).is_zero()


@pytest.mark.parametrize("field", FIELDS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_power_equals_repeated_multiplication(field, data):
    """Powers by squaring of polynomials of up to 4 terms, n = 0..9, against
    the products one factor at a time from 1, value for value."""
    n = data.draw(st.integers(1, 3))
    p = data.draw(field_polys(field, n, max_deg=2))
    want = Polynomial.constant(1, n, field)
    for k in range(10):
        assert_exact(p ** k, want)
        want = oracle_mul_trunc(want, p, None)


@pytest.mark.parametrize("field", [QQ, SQRT2], ids=["QQ", "QQ(sqrt2)"])
def test_parser_powers_of_sums_match_the_oracle(field):
    """Powers 0..9 of sums in text, whose parse squares working dicts,
    against the oracle's products one factor at a time."""
    root = "sqrt(2)" if field is SQRT2 else "sqrt(9/4)"
    for base in ("x1 + x2", f"2/3*x1 - {root}*x2^2 + 5", "-x3/7 + (x1 - 1)^2"):
        for n in range(10):
            text = f"({base})^{n} - x2*({base})^{n}/3"
            assert_exact(parse_poly(text, 3, field), oracle_parse_poly(text, 3, field))


def test_substitute_keeps_terms_of_p_past_the_cut_when_images_have_constants():
    """x1^3 at x1 -> 1 + x1 cut below 2 is 1 + 3*x1, though x1^3 has degree 3."""
    p = parse_poly("x1^3", 1, QQ)
    image = parse_poly("1 + x1", 1, QQ)
    assert p.substitute([image], 2) == parse_poly("1 + 3*x1", 1, QQ)


# ------------------------------------------ working-form parser vs the oracle


def grammar_texts(field):
    """Random text of the polynomial grammar in x1..x3: sums, products,
    powers of sums, parentheses, unary minus, division by constants and
    sqrt(...), with spaces here and there; every divisor is a nonzero
    constant and every square root exists in the field, so every text
    parses."""
    roots = ["sqrt(4)", "sqrt(9/4)", "sqrt(0)", "sqrt((1 + 3)*4)"]
    if field is not QQ:
        roots += ["sqrt(2)", "sqrt(8)", "sqrt(3 + 2*sqrt(2))", "sqrt(9/2)"]
    leaves = st.one_of(st.integers(0, 12).map(str),
                       st.sampled_from(["x1", "x2", "x3", "x1^2", "x3^0"]),
                       st.sampled_from(roots))
    ops = st.sampled_from(["+", "-", "*", " + ", " - ", " * "])

    def grow(child):
        return st.one_of(
            st.tuples(child, ops, child).map("".join),
            child.map(lambda e: f"({e})"),
            child.map(lambda e: f"-{e}"),
            st.tuples(child, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
            st.tuples(child, st.sampled_from(["2", "7", "(2 - 5)", "sqrt(4)", "(1 + 1)"]))
            .map(lambda t: f"{t[0]}/{t[1]}"))

    return st.recursive(leaves, grow, max_leaves=6)


def parse_outcome(parse, text, field):
    """The parsed polynomial, or the text of the ParseError."""
    try:
        return parse(text, 3, field)
    except ParseError as exc:
        return f"ParseError: {exc}"


@pytest.mark.parametrize("field", [QQ, SQRT2], ids=["QQ", "QQ(sqrt2)"])
@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_parser_matches_the_polynomial_valued_oracle(field, data):
    """Each text, and the text with one character deleted, inserted or
    replaced, gives the oracle's polynomial, value for value, or its
    ParseError message."""
    text = data.draw(grammar_texts(field))
    got = parse_outcome(parse_poly, text, field)
    assert not isinstance(got, str), (text, got)
    assert_exact(got, oracle_parse_poly(text, 3, field))
    k = data.draw(st.integers(0, len(text)))
    c = data.draw(st.sampled_from(list("x1234()+-*/^ s") + ["sqrt", "x0", "x4", "&"]))
    for bad in (text[:k] + text[k + 1:], text[:k] + c + text[k:], text[:k] + c + text[k + 1:]):
        got, want = parse_outcome(parse_poly, bad, field), parse_outcome(oracle_parse_poly, bad, field)
        if isinstance(want, str):
            assert got == want, bad
        else:
            assert_exact(got, want)


@pytest.mark.parametrize("text", [
    "x1/x2", "x0", "(x1", "x1^-1", "x1^2^2", "x1 +", "x4", "2 ** x1", "x1^", "",
    "x1/0", "x1/(x2 - x2)", "sqrt(3)", "sqrt(x1)", "sqrt x1", "sqrt((x1)", "(x1))",
    "x1 & x2", "x1 x2", "1.5*x1", "x1^x2", "y1",
])
def test_malformed_text_raises_the_oracles_message(text):
    """The same ParseError text as the Polynomial-valued parser."""
    want = parse_outcome(oracle_parse_poly, text, QQ)
    assert want.startswith("ParseError: ")
    assert parse_outcome(parse_poly, text, QQ) == want
