"""Invariants read off the quotient's one echelon against the slow paths.

hf, v(I), the leading-form ideal I* and membership in the powers of the
maximal ideal all come from the Macaulay echelon that build_quotient keeps.
Each is checked here against a separate-echelon oracle
(tests/echelon_oracles.py) on a seeded grid and on hypothesis-generated
ideals, both also moved by random coordinate changes.  The echelon itself,
built from shifted rows with the redundant ones skipped, must equal row for
row the one that tries every multiple and try the rows the divisor-list loop
tries; the socle must equal the one from multiplication matrices of
polynomial products, and the dense routines must give what whole-row
Gauss-Jordan sweeps give.  extend_scalars must give the algebra
built over the larger field, pivot row for pivot row, and every monomial
past the socle degree must be a pivot.  SparseEchelon, on fraction-free
rows over QQ and over towers of depth 1 and 2, must give the normalized-row
OracleEchelon's pivot rows (its working rows scaled to 1 at their
pivots), reduce and contains on seeded rows, leave the rows it is given unchanged, and every
value it hands out over QQ must be a Fraction.  For monomial ideals hf, length, type, v and v* are also checked
against combinatorial counts, before and after a random coordinate change.
Element products cut below degree s+1, scalar multiples, powers by
squaring, unit inverses and coords read off the normal form must give
what the untruncated product, the one-factor-at-a-time power and the
geometric series give, over QQ, QQ(sqrt 2) and a depth-2 tower; products,
nf and evaluate, which reach the reduction in working form, also with
coefficients over large denominators.  nth_root,
with its proven step count, must give the root that Newton run until the
error vanishes gives; evaluate, cut below degree s+1, the normal form of
the substitution cut below D; and row reduction over a tower must run with
rinv raising.  Every build lowers its cap as degrees fill: from any start
it must end at D = s+2 and give the fixed-cap build's hf, v, standard
basis, socle, leading forms and normal forms; the echelon from a start
above s+2 must equal row for row the every-multiple echelon at the cap it
ends at, and row_space_equal must answer as two fixed-cap echelons do.
Zero values in an incoming row must be dropped.  A row that reaches no
pivot goes in at once, as the oracle's pivot row.  leading_forms must
take each of its three counts on the seeded grid, agree with the oracle
on the heaviest stretched and almost-stretched cells, sheared or not,
over towers and on generated ideals, and stop adding rows to its dual
count once their rank reaches its bound.  The batch of unit rows for the
multiples of single-term generators must give the fixed-cap build and
the every-multiple echelon on ideals that mix single terms (scaled, over
QQ and QQ(sqrt 2)) with other generators, hold no generator itself (v of
(x1 - x2^2, x1*x2, x2^3) is 2), and leave a monomial ideal's unit rows of
nM and generator rows as the only rows _reduce sees.
"""

import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import artinlocal.quotient as quotient
from artinlocal.bounds import lex_segment
from artinlocal.classify7 import classify_ideal, make_model
from artinlocal.linalg import (
    MonomialTable,
    SparseEchelon,
    nullspace,
    poly_from_row,
    row_from_poly,
    same_row_space,
    solve_dense,
)
from artinlocal.polynomials import (
    Polynomial,
    RingMap,
    monomials_of_degree,
    parse_poly,
    random_invertible_map,
)
from artinlocal.quotient import (
    IdealPresentation,
    algebra_report,
    build_quotient,
    extend_scalars,
    leading_forms,
    macaulay_echelon,
    min_gens,
    nth_root,
)
from artinlocal.scalars import QQ, QuadraticExtension, Scalar, adjoin_sqrt, common_field
from artinlocal.structure import (
    AlmostStretchedParams,
    StretchedParams,
    _graded_classes_independent,
    make_almost_stretched,
    make_stretched,
)

from echelon_oracles import (
    OracleEchelon,
    divisor_list_macaulay_echelon,
    oracle_classes_independent,
    oracle_in_power,
    oracle_build_quotient,
    oracle_inverse,
    oracle_leading_forms,
    oracle_macaulay_echelon,
    oracle_mul,
    oracle_nth_root,
    oracle_nullspace,
    oracle_pow,
    oracle_power_echelon,
    oracle_socle,
    oracle_solve,
    oracle_substitute,
    separate_echelon,
)


def q(x) -> Scalar:
    return Scalar(QQ, QQ.rfrom(Fraction(x)))


def sparse(M, field):
    """The rows of a dense matrix as {column: nonzero value} dicts."""
    return [{k: c for k, c in enumerate(row) if not field.riszero(c)} for row in M]


def random_ideal(rng, nvars, max_exp=3):
    """Pure powers plus one or two random quadric/cubic perturbations."""
    gens = [parse_poly(f"x{i + 1}^{rng.randint(2, max_exp)}", nvars, QQ)
            for i in range(nvars)]
    monos = [m for d in (2, 3) for m in monomials_of_degree(nvars, d)]
    for _ in range(rng.randint(1, 2)):
        terms = {m: QQ.rfrom(rng.randint(-3, 3))
                 for m in rng.sample(monos, rng.randint(1, 3))}
        p = Polynomial(nvars, QQ, {m: c for m, c in terms.items() if c})
        if not p.is_zero():
            gens.append(p)
    return IdealPresentation(gens, nvars)


def moved(pres, seed):
    """The ideal carried by a random coordinate change.

    Images are truncated at s+2 and the ones that vanish are dropped: what
    is cut off lies in n^(s+2), so by Nakayama the rest still contains
    n^(s+1) and generates the image ideal itself.
    """
    s = build_quotient(pres).socle_degree
    phi = random_invertible_map(pres.nvars, pres.field, s + 2, seed)
    images = [phi.apply(g) for g in pres.gens]
    return IdealPresentation([im for im in images if not im.is_zero()],
                             pres.nvars, pres.field)


def assert_working_form(ech):
    """Every working row is primitive, positive and rational at its pivot."""
    f = ech.field
    for lead, row in ech.working.items():
        ints = [c for x in row.values() for c in ((x,) if f is QQ else x[:-1])]
        assert math.gcd(*ints) == 1
        assert (row[lead] > 0) if f is QQ else (row[lead][0] > 0 and not any(row[lead][1:-1]))


def pivot_rows(ech):
    """{pivot rank: raw row scaled to 1 at its pivot} of a SparseEchelon, in
    insertion order: each working row as raw values over scale 1, divided
    by its entry at the pivot."""
    f = ech.field
    out = {}
    for lead, row in ech.working.items():
        row = f.wraw(row, 1)
        out[lead] = {r: f.rdiv(c, row[lead]) for r, c in row.items()}
    return out


def check_echelon_matches_oracle(pres, D):
    """The shifted-row echelon from D is the every-multiple echelon at the
    cap it ends at, row for row."""
    table, ech, v, _ = macaulay_echelon(pres, D)
    _, oracle, oracle_v = oracle_macaulay_echelon(pres, table.D)
    pivots = pivot_rows(ech)
    assert list(pivots) == list(oracle.pivots)
    for lead, row in oracle.pivots.items():
        assert list(pivots[lead].items()) == list(row.items()), lead
    assert (ech.rank, v) == (oracle.rank, oracle_v)


def check_against_oracles(pres):
    A = build_quotient(pres)
    check_echelon_matches_oracle(pres, A.D)
    check_echelon_matches_oracle(pres, A.D + 1)
    s = A.socle_degree
    table, ech = separate_echelon(pres, A.D)
    assert set(ech.pivots) == set(A.ech.leads)
    hf = [0] * A.D
    for r in range(len(table.monos)):
        if r not in ech.pivots:
            hf[table.degs[r]] += 1
    assert tuple(hf[:s + 1]) == A.hf and hf[s + 1] == 0
    # so n^(s+1) <= I, and ArtinAlgebra needs no degree filter on std
    assert all(r in A.ech.leads for r in range(len(A.table.monos)) if A.table.degs[r] > s)
    assert min_gens(pres, algebra=A) == A.v
    data = leading_forms(pres, algebra=A)
    dims, new_gens, v_star = oracle_leading_forms(pres, s)
    assert data.dims == dims
    assert data.new_gens == new_gens
    assert data.v_star == v_star
    dim, basis = A.socle()
    oracle_dim, oracle_basis = oracle_socle(A)
    assert dim == oracle_dim == len(basis)
    assert ([list(el.poly.terms.items()) for el in basis]
            == [list(p.terms.items()) for p in oracle_basis])
    check_powers_against_oracle(A)


def random_polys(A, rng, count=4):
    """Polynomials over A's field with a few random terms of degree
    lo..s+1, for random lo."""
    s = A.socle_degree
    out = []
    for _ in range(count):
        lo = rng.randint(0, s + 1)
        monos = [m for d in range(lo, s + 2) for m in monomials_of_degree(A.nvars, d)]
        terms = {m: QQ.rfrom(rng.choice((-3, -2, -1, 1, 2, 3)))
                 for m in rng.sample(monos, min(3, len(monos)))}
        out.append(Polynomial(A.nvars, QQ, terms).map_field(A.field))
    return out


def random_elements(A, rng, count=4):
    """The elements of random_polys."""
    return [A.element(p) for p in random_polys(A, rng, count)]


def check_powers_against_oracle(A):
    """in_power and the graded independence test against echelons of m^j."""
    s = A.socle_degree
    elems = random_elements(A, random.Random(repr(A.pres)))
    std = [A.element(Polynomial(A.nvars, A.field, {A.table.monos[r]: A.field.rone}))
           for r in A.std]
    pairs = [(a, b) for a in elems for b in elems if a is not b]
    pairs += [(a, a * 2) for a in elems]
    powers = [oracle_power_echelon(A, j) for j in range(s + 4)]
    for j in range(s + 3):
        for el in std + elems:
            assert A.in_power(el, j) == oracle_in_power(powers[j], A, el), (el, j)
        for pair in pairs:
            assert (_graded_classes_independent(A, pair, j)
                    == oracle_classes_independent(powers[j + 1], A, pair)), (pair, j)


def seeded_grid():
    rng = random.Random(20261)
    out = []
    for i in range(24):
        out.append((f"random #{i}", random_ideal(rng, rng.randint(2, 4))))
    for h, s, tau in ((2, 4, 1), (3, 3, 2), (3, 5, 3), (4, 3, 2)):
        units = tuple(q(rng.randint(1, 5)) for _ in range(h - tau if tau < h else 0))
        out.append((f"stretched h={h} s={s} tau={tau}",
                    make_stretched(StretchedParams(h, s, tau, units))))
    for h, t, s in ((2, 2, 4), (3, 2, 4), (3, 3, 5)):
        a = parse_poly(f"{rng.randint(-2, 2)} + x2", h, QQ)
        units = tuple(q(rng.randint(1, 5)) for _ in range(h - 2))
        out.append((f"almost h={h} t={t} s={s}", make_almost_stretched(
            AlmostStretchedParams(h, t, s, a, q(rng.randint(1, 5)), units))))
    out += [(f"moved {label}", moved(pres, 7 + k))
            for k, (label, pres) in enumerate(out[::3])
            if build_quotient(pres).length <= 30]
    return out


GRID = seeded_grid()


@pytest.mark.parametrize(
    "pres", [pytest.param(pres, id=label) for label, pres in GRID])
def test_shared_echelon_matches_oracles_on_seeded_grid(pres):
    check_against_oracles(pres)


def sqrt2_ideal():
    """An ideal of QQ(sqrt 2)[[x1, x2, x3]] with sqrt 2 in its generators,
    and sqrt 2 as a raw value."""
    F = adjoin_sqrt(QQ, q(2))
    r2 = F.scalar(F.sqrt_theta)
    x1, x2, x3 = (Polynomial.variable(i, 3, F) for i in range(3))
    pres = IdealPresentation([x1 ** 3 + (x2 * x3) ** 2 * r2, x2 ** 3 - x1 ** 4,
                              x3 ** 3, x1 * x2 - (x3 ** 2) * r2], 3)
    return pres, r2


def sqrt2_sqrt3_ideal():
    """The ideal of sqrt2_ideal over QQ(sqrt 2)(sqrt 3), with sqrt 3 and
    sqrt 6 put in its generators too."""
    pres, r2 = sqrt2_ideal()
    F = adjoin_sqrt(r2.field, 3)
    r3 = F.scalar(F.sqrt_theta)
    x1, x2, x3 = (Polynomial.variable(i, 3, F) for i in range(3))
    g1, g2, g3, g4 = pres.map_field(F).gens
    return IdealPresentation([g1 + (x1 * x3) ** 2 * r3, g2 - (x2 * x3) ** 2 * r2 * r3,
                              g3, g4 + x1 ** 2 * r3], 3)


@pytest.mark.parametrize("ideal", [lambda: sqrt2_ideal()[0], sqrt2_sqrt3_ideal],
                         ids=["QQ(sqrt2)", "QQ(sqrt2)(sqrt3)"])
def test_shared_echelon_matches_oracles_over_a_quadratic_extension(ideal):
    pres = ideal()
    check_against_oracles(pres)
    check_against_oracles(moved(pres, 5))


def test_macaulay_echelon_tries_fewer_rows_and_keeps_as_many(monkeypatch):
    """The layered loop tries and keeps what the divisor-list loop does,
    row for row, and tries fewer rows than every multiple for as many kept."""
    pres = moved(IdealPresentation.from_strings(["x1^3", "x2^3", "x3^3"], 3), 11)
    D = build_quotient(pres).D
    counts, echelons = [], []

    def counting(original):
        def add(self, row, *rest):
            kept = original(self, row, *rest)
            counts[-1][0] += 1
            counts[-1][1] += kept
            return kept
        return add

    for cls in (SparseEchelon, OracleEchelon):
        monkeypatch.setattr(cls, "add", counting(cls.add))
    for echelon in (macaulay_echelon, divisor_list_macaulay_echelon,
                    oracle_macaulay_echelon):
        counts.append([0, 0])
        echelons.append(echelon(pres, D))
    (tried, kept), (listed_tried, listed_kept), (oracle_tried, oracle_kept) = counts
    assert (tried, kept) == (listed_tried, listed_kept)
    assert tried < oracle_tried
    assert kept == oracle_kept
    (_, ech, v, _), (_, listed, listed_v) = echelons[:2]
    assert list(pivot_rows(ech).items()) == list(pivot_rows(listed).items())
    assert v == listed_v


def test_macaulay_echelon_gives_the_same_rows_twice():
    """Nothing a call leaves behind (the cached MonomialTable included)
    changes the next call on the same presentation."""
    for _, pres in GRID[::4]:
        D = build_quotient(pres).D
        (t1, e1, v1, hf1), (t2, e2, v2, hf2) = (macaulay_echelon(pres, D) for _ in range(2))
        assert t1 is t2 and (v1, hf1) == (v2, hf2)
        assert list(pivot_rows(e1).items()) == list(pivot_rows(e2).items())


def mixed_ideal(rng, nvars, field):
    """A pure power of each variable and up to two more monomials of
    degree 2..3, each a single term with a random nonzero coefficient
    (-3*x1^2, or sqrt 2 * x2^3 over QQ(sqrt 2)), plus one or two
    generators of two or three terms, all in a random order."""
    def coeff():
        c = field.rfrom(rng.choice((-3, -2, -1, 1, 2, 3)))
        return c if field is QQ or rng.randint(0, 1) else field.rmul(c, field.sqrt_theta)

    monos = [m for d in (2, 3) for m in monomials_of_degree(nvars, d)]
    singles = [tuple(rng.randint(2, 4) if k == i else 0 for k in range(nvars))
               for i in range(nvars)] + rng.sample(monos, rng.randint(0, 2))
    gens = [Polynomial(nvars, field, {m: coeff()}) for m in singles]
    for _ in range(rng.randint(1, 2)):
        gens.append(Polynomial(nvars, field, {m: coeff() for m in rng.sample(monos, rng.randint(2, 3))}))
    rng.shuffle(gens)
    return IdealPresentation(gens, nvars, field)


def check_single_term_batch(pres, rng):
    """The build with the batch of unit rows gives what the fixed-cap build
    on the divisor-list loop gives, and its echelon is the every-multiple
    echelon row for row, from the default start and from one above."""
    A = build_quotient(pres)
    check_least_truncation(pres, rng, A)
    for D in (A.D, A.D + 1):
        check_echelon_matches_oracle(pres, D)


@pytest.mark.parametrize("field", [QQ, adjoin_sqrt(QQ, q(2))], ids=["QQ", "QQ(sqrt2)"])
def test_single_term_batch_matches_the_oracles_on_seeded_mixed_ideals(field):
    rng = random.Random(20281)
    for _ in range(6):
        check_single_term_batch(mixed_ideal(rng, rng.randint(2, 3), field), rng)


@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(2, 3), st.booleans())
@settings(max_examples=25, deadline=None)
def test_single_term_batch_matches_the_oracles_on_generated_mixed_ideals(seed, nvars, sqrt2):
    rng = random.Random(seed)
    check_single_term_batch(mixed_ideal(rng, nvars, adjoin_sqrt(QQ, q(2)) if sqrt2 else QQ), rng)


def test_the_batch_holds_only_proper_multiples_of_the_single_terms():
    """In (x1 - x2^2, x1*x2, x2^3), x1*x2 - x2^3 = x2*(x1 - x2^2) lies in
    nI, so v = 2.  The batch is nM, not M: were x1*x2 and x2^3 put in with
    their multiples, only x1 - x2^2 would be left for the generator rows to
    add, and v would read 1."""
    pres = IdealPresentation.from_strings(["x1 - x2^2", "x1*x2", "x2^3"], 2)
    A = build_quotient(pres)
    assert (A.hf, A.v) == ((1, 1, 1), 2)
    assert oracle_build_quotient(pres).v == 2
    check_echelon_matches_oracle(pres, A.D + 1)


def test_a_monomial_ideal_tries_only_its_batch_and_generator_rows(monkeypatch):
    """Every row of nI of a monomial ideal goes in with the batch: _reduce
    sees the unit row of each monomial of nM below the cap, in rank order,
    then the generator rows, and no multiple's row, from start caps s+1 to
    s+4.  Degree s+1 is full once the generator rows are in (for the lex
    segment only then: its x3^5, of degree s+1 = 5, is a generator and not
    in nM), so from s+3 and s+4 the cap comes down once, at the end."""
    reduce, truncate, calls = SparseEchelon._reduce, SparseEchelon.truncate, []

    def spy(self, row, *rest):
        calls.append(dict(row))
        return reduce(self, row, *rest)

    monkeypatch.setattr(SparseEchelon, "_reduce", spy)
    monkeypatch.setattr(SparseEchelon, "truncate",
                        lambda self, end: calls.append("cut") or truncate(self, end))
    for pres in (IdealPresentation.from_strings(["x1^3", "x2^3", "x3^3"], 3),
                 lex_segment((1, 3, 4, 2, 1))):
        s = len(build_quotient(pres).hf) - 1
        monos = [next(iter(g.terms)) for g in pres.gens]
        for D in range(s + 1, s + 5):
            table = MonomialTable(pres.nvars, D)
            nM = [r for r, m in enumerate(table.monos)
                  if any(m != a and all(map(int.__ge__, m, a)) for a in monos)]
            gens = [row_from_poly(g, table) for g in pres.gens]
            calls.clear()
            v = macaulay_echelon(pres, D)[2]
            assert calls[:len(nM)] == [{r: 1} for r in nM]
            rest = [c if c == "cut" else set(c) for c in calls[len(nM):]]
            assert rest == [set(g) for g in gens] + ["cut"] * (D > s + 2)
            assert v == sum(1 for g in gens if g)


def spy_on_leading_form_counts(monkeypatch):
    """Counts of the calls of each of leading_forms' two counts, and one
    [rows built, rows added] pair per dual count: _consistency_rows is run
    to the end, and every row leading_forms asks for is one it adds."""
    calls = {"shifts": 0, "duality": 0}
    rows = []

    def counting(name):
        original = getattr(quotient, f"_new_gens_by_{name}")

        def count(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(quotient, f"_new_gens_by_{name}", count)

    consistency_rows = quotient._consistency_rows

    def built_and_added(f, tab, phis):
        built = list(consistency_rows(f, tab, phis))
        rows.append([len(built), 0])
        for row in built:
            rows[-1][1] += 1
            yield row

    counting("shifts")
    counting("duality")
    monkeypatch.setattr(quotient, "_consistency_rows", built_and_added)
    return calls, rows


def test_leading_forms_takes_all_three_branches_on_seeded_grid(monkeypatch):
    """Each degree j = 1..s+1 settles dim n*I*_(j-1) by counting lowest
    monomials, or runs the shifted echelon or the dual count; the grid must
    take all three."""
    algebras = [build_quotient(pres) for _, pres in GRID]
    calls, _ = spy_on_leading_form_counts(monkeypatch)
    for A in algebras:
        leading_forms(A.pres, algebra=A)
    degrees = sum(A.socle_degree + 1 for A in algebras)
    assert calls["shifts"] > 0 and calls["duality"] > 0
    assert calls["shifts"] + calls["duality"] < degrees


def sheared(pres, coeffs):
    """The ideal carried by the linear change x_i -> x_i + c_i*x_(i+1),
    i < h, c_i the scalars of coeffs.  A linear change keeps the degrees
    of the generators, so the separate-echelon oracle stays fast on models
    whose random moves (see moved) it takes seconds on."""
    h, f = pres.nvars, pres.field
    xs = [Polynomial.variable(i, h, f) for i in range(h)]
    images = [x + y * c for x, y, c in zip(xs, xs[1:], coeffs)] + xs[len(coeffs):]
    phi = RingMap(images, pres.max_degree + 1)
    return IdealPresentation([phi.apply(g) for g in pres.gens], h, f)


def heavy_leading_form_cells():
    """The invariants pool's heaviest leading-form cells: stretched and
    almost-stretched models with h = 4, 5 and s = 5..8, with seeded
    units, each also sheared but for s = 8 (2 s each for the oracle); and
    the QQ(sqrt 2) and QQ(sqrt 2)(sqrt 3) ideals, with an almost-stretched
    model over QQ(sqrt 2)(sqrt 3) sheared by sqrt 2 and sqrt 3."""
    rng = random.Random(20271)
    unit = lambda: q(rng.choice((-3, -2, -1, 1, 2, 3, 5)))
    out = []
    for h, s in ((4, 5), (4, 6), (4, 8), (5, 5)):
        tau = 1 + s % h
        units = tuple(unit() for _ in range(h - tau if tau < h else 0))
        out.append((f"stretched h={h} s={s} tau={tau}",
                    make_stretched(StretchedParams(h, s, tau, units))))
        t = 2 + (s + h) % (s - 2)
        a = parse_poly(f"{rng.randint(-2, 2)} + {rng.randint(-2, 2)}*x2", h, QQ)
        units = tuple(unit() for _ in range(h - 2))
        out.append((f"almost h={h} t={t} s={s}", make_almost_stretched(
            AlmostStretchedParams(h, t, s, a, unit(), units))))
    out += [(f"sheared {label}",
             sheared(pres, [rng.choice((-2, -1, 1, 2)) for _ in range(pres.nvars - 1)]))
            for label, pres in out if " s=8" not in label]
    almost = out[1][1]  # h = 4, s = 5
    tower = sqrt2_sqrt3_ideal()
    F = tower.field
    roots = (F.scalar(F.base.sqrt_theta), F.scalar(F.sqrt_theta), F.one)
    out += [("QQ(sqrt2)", sqrt2_ideal()[0]), ("QQ(sqrt2)(sqrt3)", tower),
            ("sheared almost h=4 s=5 over QQ(sqrt2)(sqrt3)",
             sheared(almost.map_field(F), roots))]
    return out


def check_leading_forms_against_oracle(pres):
    A = build_quotient(pres)
    data = leading_forms(pres, algebra=A)
    assert (data.dims, data.new_gens, data.v_star) == oracle_leading_forms(pres, A.socle_degree)


@pytest.mark.parametrize(
    "pres", [pytest.param(pres, id=label) for label, pres in heavy_leading_form_cells()])
def test_leading_forms_match_the_oracle_on_heavy_cells(pres):
    check_leading_forms_against_oracle(pres)


@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(2, 3), st.booleans())
@settings(max_examples=60, deadline=None)
def test_leading_forms_match_the_oracle_on_generated_ideals(seed, nvars, shear):
    """Exponents up to 6 in two variables and 4 in three, so that high
    degrees with a small hf take the dual count."""
    rng = random.Random(seed)
    pres = random_ideal(rng, nvars, max_exp=6 if nvars == 2 else 4)
    if shear:
        pres = sheared(pres, [rng.choice((-2, -1, 1, 2)) for _ in range(nvars - 1)])
    check_leading_forms_against_oracle(pres)


def test_dual_count_stops_once_the_rank_reaches_its_bound(monkeypatch):
    """On a stretched model with h = 5, s = 2 only the degree j = s+1 = 3
    takes the dual count.  hf(2) = 1 and hf(3) = 0, so E's rank is at most
    5 * 1 - 0 = 5; it reaches 5 (no generator is born in degree 3) before
    the rows run out, so leading_forms asks for fewer rows than E has."""
    pres = make_stretched(StretchedParams(5, 2, 2, (q(2), q(-3), q(5))))
    A = build_quotient(pres)
    assert A.hf == (1, 5, 1)
    calls, rows = spy_on_leading_form_counts(monkeypatch)
    data = leading_forms(pres, algebra=A)
    assert calls["duality"] == len(rows) == 1
    (built, added), = rows
    assert data.new_gens[3] == 0
    assert 5 <= added < built
    assert (data.dims, data.new_gens, data.v_star) == oracle_leading_forms(pres, 2)


def tower_basis(field):
    """The basis 1, alpha (, beta, alpha*beta) of a tower, as raw values."""
    if field is QQ:
        return [QQ.rone]
    lower = [field.rfrom(b) for b in tower_basis(field.base)]
    return lower + [field.rmul(b, field.sqrt_theta) for b in lower]


def tower_value(field, *coeffs):
    """The raw value of the field with the given rational coordinates."""
    out = field.rzero
    for c, b in zip(coeffs, tower_basis(field)):
        out = field.radd(out, field.rmul(field.rfrom(c), b))
    return out


def random_entry(rng, field):
    """A small entry of QQ or QQ(sqrt 2), zero about two times in three."""
    if rng.random() < 0.65:
        return field.rzero
    vals = [QQ.rfrom(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            for _ in range(1 if field is QQ else 2)]
    return vals[0] if field is QQ else tower_value(field, *vals)


def random_sparse_system(rng, field):
    """(M, b) with M square half the time; M is often singular and the
    system often has no solution."""
    rows = rng.randint(1, 6)
    cols = rows if rng.random() < 0.5 else rng.randint(1, 7)
    M = [[random_entry(rng, field) for _ in range(cols)] for _ in range(rows)]
    return M, [random_entry(rng, field) for _ in range(rows)]


@pytest.mark.parametrize("field", [QQ, adjoin_sqrt(QQ, q(2))], ids=["QQ", "QQ(sqrt2)"])
def test_dense_routines_match_whole_row_sweeps(field):
    rng = random.Random(20263)
    cases = [random_sparse_system(rng, field) for _ in range(150)]
    got = [[nullspace(sparse(M, field), len(M[0]), field), solve_dense(M, b, field)]
           for M, b in cases]
    assert got == [[oracle_nullspace(M, field), oracle_solve(M, b, field)]
                   for M, b in cases]
    assert any(r[1] is None for r in got)


def random_row_entry(rng, field):
    """A nonzero entry: over QQ half the time a numerator of up to 64 bits
    over a denominator up to 10^6, else a small fraction; over a tower small
    fractions as its coordinates on 1, alpha (, beta, alpha*beta)."""
    if field is QQ:
        if rng.random() < 0.5:
            return Fraction(rng.randint(1, 2 ** 64) * rng.choice((-1, 1)),
                            rng.randint(1, 10 ** 6))
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
    coords = [Fraction(rng.randint(1, 4) * rng.choice((-1, 1)), rng.randint(1, 3))]
    coords += [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2 ** field.depth - 1)]
    return tower_value(field, *coords)


def random_row(rng, field, rows, ncols=16):
    """A sparse row on ncols columns; a third of the time a combination of
    two of the given rows, so that it lies in their span."""
    if len(rows) >= 2 and rng.random() < 0.35:
        row = {}
        for src in rng.sample(rows, 2):
            c = random_row_entry(rng, field)
            for k, v in src.items():
                row[k] = field.radd(row.get(k, field.rzero), field.rmul(c, v))
        return {k: v for k, v in row.items() if not field.riszero(v)}
    return {k: random_row_entry(rng, field)
            for k in rng.sample(range(ncols), rng.randint(1, 5))}


@pytest.mark.parametrize("field", [QQ, adjoin_sqrt(QQ, q(2)), adjoin_sqrt(adjoin_sqrt(QQ, q(2)), 3)],
                         ids=["QQ", "QQ(sqrt2)", "QQ(sqrt2)(sqrt3)"])
def test_sparse_echelon_matches_the_normalized_row_oracle(field):
    """Fraction-free rows give the normalized-row elimination's pivot rows
    item for item, its rank, its reduce output and its contains, on 240
    seeded rows."""
    rng = random.Random(20265)
    kept = []
    for _ in range(8):
        ech, oracle = SparseEchelon(field), OracleEchelon(field)
        rows = []
        for _ in range(30):
            row = random_row(rng, field, rows)
            rows.append(row)
            kept.append(ech.add(row))
            assert kept[-1] == oracle.add(row)
            for probe in (row, random_row(rng, field, rows)):
                assert (list(ech.reduce(probe).items())
                        == list(oracle.reduce(probe).items()))
                assert ech.contains(probe) == oracle.contains(probe)
        pivots = pivot_rows(ech)
        assert list(pivots) == list(oracle.pivots) == list(ech.leads)
        for lead, row in oracle.pivots.items():
            assert list(pivots[lead].items()) == list(row.items()), lead
        assert ech.rank == oracle.rank
    assert any(kept) and not all(kept)


@pytest.mark.parametrize("field", [QQ, adjoin_sqrt(QQ, q(2))], ids=["QQ", "QQ(sqrt2)"])
def test_add_leaves_the_callers_row_unchanged(field):
    """add copies a raw row and a working row before reducing it in place,
    and both forms of the same rows give the same pivot rows."""
    rng = random.Random(20267)
    raw_ech, work_ech = SparseEchelon(field), SparseEchelon(field)
    rows = []
    for _ in range(60):
        row = random_row(rng, field, rows)
        rows.append(row)
        work, scale = field.wrow(row)
        before = list(row.items()), list(work.items())
        assert raw_ech.add(row) == work_ech.add(work, scale)
        assert (list(row.items()), list(work.items())) == before
    pivots = pivot_rows(raw_ech)
    assert 0 < len(pivots) < len(rows)
    assert list(pivots.items()) == list(pivot_rows(work_ech).items())


@pytest.mark.parametrize("field", [QQ, adjoin_sqrt(QQ, q(2))], ids=["QQ", "QQ(sqrt2)"])
def test_zero_values_of_an_incoming_row_are_dropped(field):
    """A row with zero values, at pivot columns and elsewhere, raw or in
    working form, reduces and goes in as the row without them; no zero
    value is stored or handed out."""
    rng = random.Random(20268)
    ech, clean = SparseEchelon(field), SparseEchelon(field)
    rows, at_pivot = [], 0
    for k in range(60):
        row = random_row(rng, field, rows)
        rows.append(row)
        padded = dict(row)
        for col in rng.sample(list(ech.leads) + list(range(16)), 3):
            padded.setdefault(col, field.rzero)
        at_pivot += any(col in ech.leads and field.riszero(c) for col, c in padded.items())
        reduced = ech.reduce(padded)
        assert list(reduced.items()) == list(clean.reduce(row).items())
        assert not any(field.riszero(c) for c in reduced.values())
        if k % 2:
            assert ech.add(*field.wrow(padded)) == clean.add(row)
        else:
            assert ech.add(padded) == clean.add(row)
    assert at_pivot > 10
    assert list(pivot_rows(ech).items()) == list(pivot_rows(clean).items())
    assert not any(field.riszero(c) for row in ech.working.values() for c in row.values())


@pytest.mark.parametrize("field", [QQ, adjoin_sqrt(adjoin_sqrt(QQ, q(2)), 3)],
                         ids=["QQ", "QQ(sqrt2)(sqrt3)"])
def test_rows_that_reach_no_pivot_go_in_as_the_oracle_stores_them(field):
    """A row with no pivot column in its support goes in at once, as the
    normalized-row oracle's pivot row: rows with zero values, at pivot
    columns too, non-primitive rows, rows with a negative leading entry,
    raw rows and working rows over a scale.  The caller's row is left
    unchanged and is not kept: clearing it after add changes nothing."""
    rng = random.Random(20269)
    ech, oracle = SparseEchelon(field), OracleEchelon(field)
    seen = {"zero at a pivot": 0, "kept as given": 0, "negative lead": 0}
    for _ in range(120):
        free = [c for c in range(600) if c not in ech.leads]
        row = {c: random_row_entry(rng, field) for c in rng.sample(free, rng.randint(1, 4))}
        lead = min(row)
        shape = rng.choice(("primitive", "multiple", "any"))
        if shape == "primitive":  # primitive and positive at its lead once cleared
            row = {c: field.rfrom(rng.randint(-3, 3) or 1) for c in row}
            row[lead] = field.rone
        elif shape == "multiple":
            row = {c: field.rmul(v, field.rfrom(6)) for c, v in row.items()}
        if rng.random() < 0.3 and field.rcoords(row[lead])[0][0] > 0:
            row[lead] = field.rneg(row[lead])
        seen["negative lead"] += field.rcoords(row[lead])[0][0] < 0
        if rng.random() < 0.4:
            for c in rng.sample(list(ech.leads) + free, 2):
                row.setdefault(c, field.rzero)
                seen["zero at a pivot"] += c in ech.leads
        assert not any(c in ech.leads for c, v in row.items() if not field.riszero(v))
        assert oracle.add(row)
        if rng.random() < 0.5:
            given, scale = field.wrow(row)
            if rng.random() < 0.3:
                given, scale = field.wscale(given, 5), scale * 5
            seen["kept as given"] += (min(given) == lead
                                      and field.wpivot(given, lead) is given)
            before = list(given.items())
            assert ech.add(given, scale)
        else:
            given = row
            before = list(given.items())
            assert ech.add(given)
        assert list(given.items()) == before
        given.clear()
    pivots = pivot_rows(ech)
    assert list(pivots) == list(oracle.pivots)
    for lead, row in oracle.pivots.items():
        assert list(pivots[lead].items()) == list(row.items()), lead
    assert ech.rank == oracle.rank == 120
    assert_working_form(ech)
    assert all(seen.values()), seen


SQRT2 = adjoin_sqrt(QQ, q(2))


@pytest.mark.parametrize("field", [SQRT2, adjoin_sqrt(SQRT2, SQRT2.scalar(3))],
                         ids=["QQ(sqrt2)", "QQ(sqrt2)(sqrt3)"])
def test_extend_scalars_equals_the_rebuild_over_the_larger_field(field):
    """Re-adding the lifted working rows in insertion order stores them as
    they are: the extended algebra is the one built over the larger field,
    pivot row for pivot row, and extending to A's own field gives A."""
    for _, pres in GRID:
        A = build_quotient(pres)
        assert extend_scalars(A, A.field) is A
        B = extend_scalars(A, field)
        C = build_quotient(pres.map_field(field), D=A.D)
        assert list(pivot_rows(B.ech).items()) == list(pivot_rows(C.ech).items()), pres
        assert (B.D, B.std, B.hf, B.v) == (C.D, C.std, C.hf, C.v) == (A.D, A.std, A.hf, A.v)


def test_extend_scalars_from_a_quadratic_field_equals_the_rebuild():
    """Working rows of QQ(sqrt 2) lift into QQ(sqrt 2)(sqrt 3) as they are,
    for the QQ(sqrt 2) ideal, unmoved and moved."""
    pres, _ = sqrt2_ideal()
    F = adjoin_sqrt(pres.field, 3)
    for ideal in (pres, moved(pres, 5)):
        A = build_quotient(ideal)
        B = extend_scalars(A, F)
        C = build_quotient(ideal.map_field(F), D=A.D)
        assert list(pivot_rows(B.ech).items()) == list(pivot_rows(C.ech).items())
        assert (B.std, B.hf, B.v) == (C.std, C.hf, C.v) == (A.std, A.hf, A.v)


def check_values_are_fractions(A):
    """Over QQ every value that the echelon, nf, coords and the dense solves
    hand out is a Fraction, never an int or a float."""
    def exact(values):
        return all(type(c) is Fraction for c in values)

    assert all(exact(row.values()) for row in pivot_rows(A.ech).values())
    elems = random_elements(A, random.Random(repr(A.pres)))
    for a in elems:
        for b in elems:
            p = a.poly * b.poly + a.poly
            assert exact(A.coords(p)) and exact(A.nf(p).terms.values())
    rows = [A.coords(el.poly) for el in elems]
    cols = [list(col) for col in zip(*rows)]
    for M in (rows, cols):
        assert all(exact(v) for v in nullspace(sparse(M, QQ), len(M[0]), QQ))
    x = solve_dense(cols, rows[0], QQ)
    assert x is not None and exact(x)
    y = solve_dense(cols, A.coords(elems[0].poly * elems[1].poly), QQ)
    assert y is None or exact(y)


@pytest.mark.parametrize(
    "pres", [pytest.param(pres, id=label) for label, pres in GRID])
def test_values_over_qq_are_fractions_on_seeded_grid(pres):
    check_values_are_fractions(build_quotient(pres))


@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(2, 3), st.booleans())
@settings(max_examples=25, deadline=None)
def test_shared_echelon_matches_oracles_on_generated_ideals(seed, nvars, move):
    pres = random_ideal(random.Random(seed), nvars, max_exp=4)
    check_against_oracles(moved(pres, seed) if move else pres)


def moved_past_the_cap(pres, seed):
    """The ideal carried by a random coordinate change cut at s+3, so its
    generators reach degree s+2 and a fixed-cap build starts at s+4.  The
    images that vanish are dropped: what is cut off lies in n^(s+3), so by
    Nakayama the rest still generates the image ideal (see moved)."""
    s = oracle_build_quotient(pres).socle_degree
    phi = random_invertible_map(pres.nvars, pres.field, s + 3, seed)
    images = [phi.apply(g) for g in pres.gens]
    return IdealPresentation([im for im in images if not im.is_zero()],
                             pres.nvars, pres.field)


def model(rng, kind, h):
    """A stretched or almost-stretched canonical model in h variables with
    seeded parameters, s at most 5 for h = 2 and 4 above."""
    s = rng.randint(3, 5 if h == 2 else 4)
    unit = lambda: q(rng.choice((-3, -2, -1, 1, 2, 3, 5)))
    if kind == "stretched":
        tau = rng.randint(1, h)
        units = tuple(unit() for _ in range(h - tau if tau < h else 0))
        return make_stretched(StretchedParams(h, s, tau, units))
    a = parse_poly(f"{rng.randint(-2, 2)} + {rng.randint(-2, 2)}*x2", h, QQ)
    units = tuple(unit() for _ in range(h - 2))
    return make_almost_stretched(
        AlmostStretchedParams(h, rng.randint(2, s - 1), s, a, unit(), units))


def check_least_truncation(pres, rng, A=None):
    """The default build A ends at D = s+2 and gives what the fixed-cap
    build gives: hf, v, the standard basis, the socle basis, the leading
    forms and the normal forms of polynomials with terms up to degree
    s+3.  Returns how far the fixed cap ended above s+2."""
    A, B = A or build_quotient(pres), oracle_build_quotient(pres)
    s = A.socle_degree
    assert A.D == s + 2 <= B.D
    assert_working_form(A.ech)
    assert (A.hf, A.v, A.std) == (B.hf, B.v, B.std)
    assert ([list(el.poly.terms.items()) for el in A.socle()[1]]
            == [list(el.poly.terms.items()) for el in B.socle()[1]])
    assert leading_forms(pres, algebra=A) == leading_forms(pres, algebra=B)
    monos = [m for d in range(s + 4) for m in monomials_of_degree(A.nvars, d)]
    for _ in range(6):
        terms = {m: QQ.rfrom(rng.randint(-3, 3)) for m in rng.sample(monos, 4)}
        p = Polynomial(A.nvars, QQ, {m: c for m, c in terms.items() if c}).map_field(A.field)
        assert list(A.nf(p).terms.items()) == list(B.nf(p).terms.items())
    return B.D - A.D


def test_all_linear_ideals_end_at_2_as_the_fixed_cap_does():
    """Generators that are all linear start the build at D = 3.  For I = n
    degree 1 fills at once, so the build ends at D = 2 with hf (1,) and
    v = h, and gives what the fixed cap from 4 gives.  (x1) in one
    variable builds too."""
    rng = random.Random(11)
    n3 = IdealPresentation.from_strings(["x1", "x2", "x3"], 3)
    for pres in (IdealPresentation.from_strings(["x1", "x2"], 2),
                 IdealPresentation.from_strings(["x1+x2", "x1-x2"], 2),
                 moved(n3, 5)):
        assert pres.max_degree == 1
        A = build_quotient(pres)
        assert (A.hf, A.D, A.v) == ((1,), 2, pres.nvars)
        assert check_least_truncation(pres, rng, A) == 2
    A = build_quotient(IdealPresentation.from_strings(["x1"], 1))
    assert (A.hf, A.D, A.v) == ((1,), 2, 1)


@given(st.integers(min_value=0, max_value=10 ** 6),
       st.sampled_from(["stretched", "almost", "random"]), st.integers(2, 4), st.booleans())
@settings(max_examples=30, deadline=None)
def test_default_build_ends_at_s_plus_2_and_matches_the_fixed_cap(seed, kind, h, move):
    """Models in 2..4 variables and random ideals in 2..3, their generators
    in a random order, moved or not."""
    rng = random.Random(seed)
    pres = random_ideal(rng, min(h, 3)) if kind == "random" else model(rng, kind, h)
    gens = list(pres.gens)
    rng.shuffle(gens)
    pres = IdealPresentation(gens, pres.nvars, pres.field)
    check_least_truncation(moved_past_the_cap(pres, seed) if move else pres, rng)


def test_default_build_lowers_its_cap_on_seeded_moved_models(monkeypatch):
    """On moved models, on moved random ideals and on an ideal over
    QQ(sqrt 2), moved or not, the default build gives what the fixed cap
    gives.  Where that cap ends above s+2, the cap mostly comes down while
    rows still go in: more rows than the generators' own are added after
    the first cut.  In the moved stretched models with x1*x2 last, the
    first generator's rows fill a degree while the rows of x1*x2 below it
    are still to come."""
    rng = random.Random(20269)
    inputs = [sqrt2_ideal()[0], moved_past_the_cap(sqrt2_ideal()[0], 3)]
    for h in (2, 3, 4):
        for kind in ("stretched", "almost") * (2 if h < 4 else 1):
            inputs.append(moved_past_the_cap(model(rng, kind, h), rng.randint(0, 10 ** 6)))
    inputs += [moved_past_the_cap(random_ideal(rng, h), h) for h in (2, 3, 3)]
    for s in (3, 4, 5):
        gens = make_stretched(StretchedParams(2, s, 1, (q(2),))).gens
        assert str(gens[0]) == "x1*x2"
        last = IdealPresentation(gens[::-1], 2, QQ)
        inputs += [moved_past_the_cap(last, seed) for seed in range(8)]
    events = []
    add, truncate = SparseEchelon.add, SparseEchelon.truncate
    monkeypatch.setattr(SparseEchelon, "add",
                        lambda self, *a: events.append("add") or add(self, *a))
    monkeypatch.setattr(SparseEchelon, "truncate",
                        lambda self, end: events.append("cut") or truncate(self, end))
    lowered = early = 0
    for pres in inputs:
        events.clear()
        A = build_quotient(pres)
        after_cut = events[events.index("cut"):] if "cut" in events else []
        if check_least_truncation(pres, rng, A):
            lowered += 1
            early += after_cut.count("add") > len(pres.gens)
    assert lowered >= 30 and early >= lowered // 2


def recount(ech, h, D):
    """The non-pivot monomials of each degree below D, counted over ech.leads."""
    hf = [math.comb(h + j - 1, j) for j in range(D)]
    degs = MonomialTable(h, D).degs
    for lead in ech.leads:
        hf[degs[lead]] -= 1
    return hf


def test_per_degree_counts_equal_a_recount_after_every_lowering(monkeypatch):
    """The counts macaulay_echelon keeps as rows go in decide each lowering
    as a recount over ech.leads does: at every cut, the least full degree j
    below the cap less one by the recount is the one cut to, end =
    C(h+j, h).  The counts returned equal the recount of the final
    echelon, which has no full degree left below D-1.  On the seeded
    grid, from the default start cap and one above it."""
    truncate, caps = SparseEchelon.truncate, []

    def spy(self, end):
        hf = recount(self, h, caps[-1])
        j = next(j for j in range(1, caps[-1] - 1) if not hf[j])
        assert end == math.comb(h + j, h)
        truncate(self, end)
        caps.append(j + 1)

    monkeypatch.setattr(SparseEchelon, "truncate", spy)
    lowerings = 0
    for _, pres in GRID:
        h, start = pres.nvars, max(4, pres.max_degree + 2)
        for D in (start, start + 1):
            caps[:] = [D]
            table, ech, _, hf = macaulay_echelon(pres, D)
            assert table.D == caps[-1] and hf == recount(ech, h, table.D)
            assert all(hf[1:table.D - 1])
            lowerings += len(caps) - 1
    assert lowerings >= 40


def test_every_start_cap_ends_at_s_plus_2(monkeypatch):
    """D only sets where the build starts: from each D in s+1..s+4, on the
    seeded grid and on the QQ(sqrt 2) ideal, the build ends at D = s+2 with
    the default build's hf, v, standard basis and pivot rows.  From s+1 it
    steps up once; from every higher start it lowers its cap."""
    truncate, cuts = SparseEchelon.truncate, []
    monkeypatch.setattr(SparseEchelon, "truncate",
                        lambda self, end: cuts.append(end) or truncate(self, end))
    lowered = 0
    for pres in [p for _, p in GRID] + [sqrt2_ideal()[0]]:
        A = build_quotient(pres)
        s = A.socle_degree
        for D in range(s + 1, s + 5):
            cuts.clear()
            B = build_quotient(pres, D=D)
            assert B.D == s + 2, (pres, D)
            assert (B.hf, B.v, B.std) == (A.hf, A.v, A.std)
            assert list(pivot_rows(B.ech).items()) == list(pivot_rows(A.ech).items())
            lowered += D > s + 2 and bool(cuts)
    assert lowered == 2 * (len(GRID) + 1)


def fixed_cap_row_space_equal(p1, p2, D):
    """row_space_equal on two echelons at the cap D, never lowered."""
    f = common_field(p1.field, p2.field)
    e1 = divisor_list_macaulay_echelon(p1.map_field(f), D)[1]
    e2 = divisor_list_macaulay_echelon(p2.map_field(f), D)[1]
    return same_row_space(e1, e2)


def test_row_space_equal_agrees_with_the_fixed_cap_reference():
    """At each D in s+2..s+4, on the seeded grid and on the QQ(sqrt 2)
    ideal, row_space_equal, whose echelons lower their caps, answers as
    two fixed-cap echelons do: for the same ideal on other generators, for
    a generator changed in degree D only, and for ideals that differ below
    D (x1^(s-1) or x1^s put in, a generator dropped), in both orders.
    Both answers occur, and some pairs end at different caps."""
    answers, caps_differ = [], 0
    for pres in [p for _, p in GRID[::2]] + [sqrt2_ideal()[0]]:
        s, h, f, g = build_quotient(pres).socle_degree, pres.nvars, pres.field, pres.gens
        x1 = Polynomial.variable(0, h, f)
        for D in range(s + 2, s + 5):
            others = [[g[0] + g[-1] * x1, *g[1:]], [g[0] + x1 ** D, *g[1:]],
                      [*g, x1 ** (s - 1)], [*g, x1 ** s], g[1:]]
            for other in (IdealPresentation(gens, h, f) for gens in others):
                for p1, p2 in ((pres, other), (other, pres)):
                    want = fixed_cap_row_space_equal(p1, p2, D)
                    assert quotient.row_space_equal(p1, p2, D) == want, (p1, p2, D)
                    answers.append(want)
                caps_differ += (macaulay_echelon(pres, D)[0].D
                                != macaulay_echelon(other, D)[0].D)
    assert True in answers and False in answers and caps_differ


def test_reading_invariants_off_an_algebra_builds_no_echelon(monkeypatch):
    calls = []
    original = quotient.macaulay_echelon

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(quotient, "macaulay_echelon", counting)
    pres = IdealPresentation.from_strings(["x1*x2", "x2^2 - x1^3"], 2)
    A = build_quotient(pres)
    assert calls == [A.D]
    calls.clear()
    assert min_gens(pres, algebra=A) == 2
    assert leading_forms(pres, algebra=A).v_star == 3
    assert algebra_report(A)["min_gens"] == 2
    assert calls == []


def random_monomial_ideal(rng, nvars):
    """Pure powers (up to x^5 in two variables, x^4 in three) plus a few
    random monomials of degree 2..3."""
    gens = [tuple(rng.randint(2, 7 - nvars) if k == i else 0 for k in range(nvars))
            for i in range(nvars)]
    monos = [m for d in (2, 3) for m in monomials_of_degree(nvars, d)]
    gens += rng.sample(monos, rng.randint(0, 3))
    return gens


def monomial_counts(gens, nvars):
    """hf, length and socle dimension of k[x]/(gens) from the standard
    monomials: those no generator divides, and, for the socle, the standard
    monomials m whose multiples x_i*m all lie in the ideal.  Last, the
    minimal generator count: the distinct gens no other generator divides
    (a pure power can repeat a sampled monomial)."""
    def divides(g, m):
        return all(a >= b for a, b in zip(m, g))

    def in_ideal(m):
        return any(divides(g, m) for g in gens)

    top = sum(max(g[i] for g in gens) for i in range(nvars))
    std = [m for d in range(top) for m in monomials_of_degree(nvars, d)
           if not in_ideal(m)]
    hf = [0] * (max(sum(m) for m in std) + 1)
    for m in std:
        hf[sum(m)] += 1
    corners = sum(1 for m in std if all(
        in_ideal(tuple(e + (k == i) for k, e in enumerate(m))) for i in range(nvars)))
    distinct = set(gens)
    minimal = [g for g in distinct if not any(h != g and divides(h, g) for h in distinct)]
    return tuple(hf), len(std), corners, len(minimal)


@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(2, 3))
@settings(max_examples=30, deadline=None)
def test_monomial_ideals_match_combinatorial_counts_and_survive_moves(seed, nvars):
    rng = random.Random(seed)
    gens = random_monomial_ideal(rng, nvars)
    pres = IdealPresentation([Polynomial(nvars, QQ, {m: QQ.rone}) for m in gens], nvars)
    hf, length, corners, mingens = monomial_counts(gens, nvars)
    for ideal in (pres, moved(pres, seed)):
        A = build_quotient(ideal)
        assert (A.hf, A.length, A.cm_type) == (hf, length, corners)
        assert A.v == leading_forms(ideal, algebra=A).v_star == mingens


def check_evaluate(A, scalars=()):
    """evaluate, which substitutes below degree s+1 in working form,
    against the normal form of the oracle's substitution below D, at seeded
    random images with and without constant terms, and at their multiples
    by the given scalars."""
    polys = random_polys(A, random.Random(repr(A.pres)), 2 * A.nvars + 2)
    images = [polys[k:k + A.nvars] for k in (0, A.nvars)]
    images.append([Polynomial(A.nvars, A.field, {m: c for m, c in im.terms.items() if any(m)})
                   for im in images[0]])
    images += [[im * c for im in images[1]] for c in scalars]
    for ims in images:
        for p in polys:
            assert A.evaluate(p, ims) == A.element(oracle_substitute(p, ims, A.D)), (p, ims)


def check_element_arithmetic(A, roots=()):
    """Products, scalar multiples, powers 0..s+2, unit inverses and coords
    of seeded random elements (terms up to degree s+1) against the oracles,
    and evaluate (check_evaluate); the roots, scalars of A's field, also
    make elements and images with them in their coefficients."""
    s, one = A.socle_degree, A.element(1)
    elems = random_elements(A, random.Random(repr(A.pres)))
    elems += [oracle_mul(el, r) + A.variable(0) for el in elems for r in roots]
    scalars = [2, Fraction(-1, 3), q(5)] + list(roots)
    for a in elems:
        for b in elems:
            prod = a * b
            assert prod == oracle_mul(a, b), (a, b)
            assert prod.coords() == A.coords(prod.poly)
        for c in scalars:
            assert a * c == oracle_mul(a, c), (a, c)
        for n in range(s + 3):
            power = a ** n
            assert power == oracle_pow(a, n), (a, n)
            assert power.coords() == A.coords(power.poly)
        u = a + 1 if a.residue().is_zero() else a
        inverse = u.inverse()
        assert inverse == oracle_inverse(u) and oracle_mul(u, inverse) == one, u
    check_evaluate(A, roots)


@pytest.mark.parametrize(
    "pres", [pytest.param(pres, id=label) for label, pres in GRID])
def test_element_arithmetic_matches_the_oracles_on_seeded_grid(pres):
    check_element_arithmetic(build_quotient(pres))


def test_element_arithmetic_matches_the_oracles_over_a_quadratic_extension():
    pres, r2 = sqrt2_ideal()
    for ideal in (pres, moved(pres, 5)):
        check_element_arithmetic(build_quotient(ideal), [r2])


@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(2, 3), st.booleans())
@settings(max_examples=15, deadline=None)
def test_element_arithmetic_matches_the_oracles_on_generated_ideals(seed, nvars, move):
    pres = random_ideal(random.Random(seed), nvars, max_exp=4)
    check_element_arithmetic(build_quotient(moved(pres, seed) if move else pres))


def test_element_arithmetic_matches_the_oracles_over_a_depth_2_tower():
    model = make_model("case2b2", p=3)
    F = classify_ideal(model, allow_extension=True).field
    assert F.depth == 2
    A = extend_scalars(build_quotient(model), F)
    roots = [F.coerce(F.base.scalar(F.base.sqrt_theta)), F.scalar(F.sqrt_theta)]
    check_element_arithmetic(A, roots)


@functools.cache
def fraction_algebras():
    """A moved stretched model over QQ, the moved QQ(sqrt 2) ideal and the
    case2b2 model over its depth-2 tower, each with an OracleEchelon of
    its echelon's rows."""
    model = make_model("case2b2", p=3)
    F = classify_ideal(model, allow_extension=True).field
    out = []
    for A in (build_quotient(dict(GRID)["moved stretched h=4 s=3 tau=2"]),
              build_quotient(moved(sqrt2_ideal()[0], 5)),
              extend_scalars(build_quotient(model), F)):
        oracle = OracleEchelon(A.field)
        for row in A.ech.working.values():
            oracle.add(A.field.wraw(row, 1))
        out.append((A, oracle))
    return out


def fraction_polys(A, field):
    """Polynomials over the field (A's or a subfield) with up to 4 terms
    of degree 0..s+1 and coefficients of up to 2^70 over denominators up
    to 10^15 on the field's basis."""
    monos = [m for d in range(A.socle_degree + 2) for m in monomials_of_degree(A.nvars, d)]
    big = st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70), st.integers(1, 10 ** 15))
    value = st.lists(big, min_size=2 ** field.depth, max_size=2 ** field.depth).map(
        lambda cs: tower_value(field, *cs))
    return st.dictionaries(st.sampled_from(monos), value, max_size=4).map(
        lambda d: Polynomial(A.nvars, field, {m: c for m, c in d.items()
                                              if not field.riszero(c)}))


@pytest.mark.parametrize("k", range(3), ids=["QQ", "QQ(sqrt2)", "depth-2 tower"])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_working_products_with_large_denominators_match_the_oracles(k, data):
    """Element products, nf and evaluate hand their working rows to the
    reduction over the product of the scales; with large denominators on
    both sides they must give the oracles' values, images over A's field
    or QQ, with constant terms or without."""
    A, oracle = fraction_algebras()[k]
    field = st.sampled_from([A.field, QQ])
    p, r = data.draw(fraction_polys(A, A.field)), data.draw(fraction_polys(A, A.field))
    want = oracle.reduce(row_from_poly(p, A.table))
    assert A.nf(p) == poly_from_row(want, A.table, A.field, A.nvars)
    a, b = A.element(p), A.element(r)
    assert a * b == oracle_mul(a, b)
    images = [data.draw(fraction_polys(A, data.draw(field))) for _ in range(A.nvars)]
    assert A.evaluate(p, images) == A.element(oracle_substitute(p, images, A.D))


def check_nth_roots(A, square_roots=()):
    """nth_root, with its proven step count, against Newton run until the
    error vanishes, on units with seeded random tails: for n = 2, 3 with
    residues r^n, r in 1 and -2/3, and for n = 2 with the squares of the
    given scalars (a tower finds square roots, not cube roots)."""
    rational = [A.field.scalar(1), A.field.scalar(Fraction(-2, 3))]
    for el in random_elements(A, random.Random(repr(A.pres))):
        tail = el - el.residue()
        for n, residues in ((2, rational + list(square_roots)), (3, rational)):
            for r in residues:
                u = tail + r ** n
                root = nth_root(A, u, n)
                assert root == oracle_nth_root(A, u, n), (u, n)
                assert root ** n == u


@pytest.mark.parametrize(
    "pres", [pytest.param(pres, id=label) for label, pres in GRID])
def test_nth_root_matches_the_newton_oracle_on_seeded_grid(pres):
    check_nth_roots(build_quotient(pres))


def test_nth_root_matches_the_newton_oracle_over_a_depth_2_tower():
    model = make_model("case2b2", p=3)
    F = classify_ideal(model, allow_extension=True).field
    A = extend_scalars(build_quotient(model), F)
    roots = [F.coerce(F.base.scalar(F.base.sqrt_theta)), F.scalar(F.sqrt_theta)]
    check_nth_roots(A, roots + [roots[0] + roots[1] * 2])


def test_tower_row_reduction_calls_no_rinv(monkeypatch):
    """Over QQ(sqrt 2)(sqrt 3) the Macaulay echelon, extend_scalars, the
    dense solves and SparseEchelon on seeded rows run with rinv raising:
    pivot rows are made rational by conjugates, not scaled by an inverse."""
    pres = sqrt2_sqrt3_ideal()
    F = pres.field
    A = build_quotient(GRID[0][1])

    def no_rinv(self, x):
        raise AssertionError("rinv called in a tower row reduction")

    monkeypatch.setattr(QuadraticExtension, "rinv", no_rinv)
    B = build_quotient(pres)
    assert B.length > 0 and extend_scalars(A, F).hf == A.hf
    B.socle()
    rng = random.Random(20269)
    ech, rows = SparseEchelon(F), []
    for _ in range(40):
        rows.append(random_row(rng, F, rows))
        ech.add(rows[-1])
    assert 0 < ech.rank < len(rows)
    M = [[row.get(k, F.rzero) for k in range(16)] for row in rows[:12]]
    solve_dense(M, [F.rone] * len(M), F)
