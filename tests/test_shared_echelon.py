"""Invariants read off the quotient's one echelon against the slow paths.

hf, v(I), the leading-form ideal I* and membership in the powers of the
maximal ideal all come from the Macaulay echelon that build_quotient keeps.
Each is checked here against a separate-echelon oracle
(tests/echelon_oracles.py) on a seeded grid and on hypothesis-generated
ideals, both also moved by random coordinate changes.  The echelon itself,
built from shifted rows with the redundant ones skipped, must equal row for
row the one that tries every multiple, and the dense routines must give what
whole-row Gauss-Jordan sweeps give.  SparseEchelon, on integer rows over
QQ, must give the normalized-row OracleEchelon's pivot rows, reduce and
contains on seeded rows, and every value it hands out over QQ must be a
Fraction.  For monomial ideals hf, length, type, v and v* are also checked
against combinatorial counts, before and after a random coordinate change.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import artinlocal.quotient as quotient
from artinlocal.linalg import (
    SparseEchelon,
    nullspace_dense,
    solve_dense,
)
from artinlocal.polynomials import (
    Polynomial,
    monomials_of_degree,
    parse_poly,
    random_invertible_map,
)
from artinlocal.quotient import (
    IdealPresentation,
    algebra_report,
    build_quotient,
    leading_forms,
    macaulay_echelon,
    min_gens,
)
from artinlocal.scalars import QQ, Scalar, adjoin_sqrt
from artinlocal.structure import (
    AlmostStretchedParams,
    StretchedParams,
    _graded_classes_independent,
    make_almost_stretched,
    make_stretched,
)

from echelon_oracles import (
    OracleEchelon,
    oracle_classes_independent,
    oracle_in_power,
    oracle_leading_forms,
    oracle_macaulay_echelon,
    oracle_nullspace,
    oracle_power_echelon,
    oracle_solve,
    separate_echelon,
)


def q(x) -> Scalar:
    return Scalar(QQ, QQ.rfrom(Fraction(x)))


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


def check_echelon_matches_oracle(pres, D):
    """The shifted-row echelon is the every-multiple echelon, row for row."""
    _, ech, v = macaulay_echelon(pres, D)
    _, oracle, oracle_v = oracle_macaulay_echelon(pres, D)
    assert list(ech.pivots) == list(oracle.pivots)
    for lead, row in oracle.pivots.items():
        assert list(ech.pivots[lead].items()) == list(row.items()), lead
    assert (ech.rank, v) == (oracle.rank, oracle_v)


def check_against_oracles(pres):
    A = build_quotient(pres)
    check_echelon_matches_oracle(pres, A.D)
    check_echelon_matches_oracle(pres, A.D + 1)
    s = A.socle_degree
    table, ech = separate_echelon(pres, A.D)
    assert set(ech.pivots) == set(A.ech.pivots)
    hf = [0] * A.D
    for r in range(len(table.monos)):
        if r not in ech.pivots:
            hf[table.deg(r)] += 1
    assert tuple(hf[:s + 1]) == A.hf and hf[s + 1] == 0
    assert min_gens(pres, algebra=A) == A.v
    data = leading_forms(pres, algebra=A)
    dims, new_gens, v_star = oracle_leading_forms(pres, s)
    assert data.dims == dims
    assert data.new_gens == new_gens
    assert data.v_star == v_star
    check_powers_against_oracle(A)


def random_elements(A, rng, count=4):
    """Elements with a few random terms of degree lo..s+1, for random lo."""
    s = A.socle_degree
    out = []
    for _ in range(count):
        lo = rng.randint(0, s + 1)
        monos = [m for d in range(lo, s + 2) for m in monomials_of_degree(A.nvars, d)]
        terms = {m: QQ.rfrom(rng.choice((-3, -2, -1, 1, 2, 3)))
                 for m in rng.sample(monos, min(3, len(monos)))}
        out.append(A.element(Polynomial(A.nvars, QQ, terms).map_field(A.field)))
    return out


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


def test_shared_echelon_matches_oracles_over_a_quadratic_extension():
    F = adjoin_sqrt(QQ, q(2))
    r2 = F.scalar(F.sqrt_theta)
    x1, x2, x3 = (Polynomial.variable(i, 3, F) for i in range(3))
    pres = IdealPresentation([x1 ** 3 + (x2 * x3) ** 2 * r2, x2 ** 3 - x1 ** 4,
                              x3 ** 3, x1 * x2 - (x3 ** 2) * r2], 3)
    check_against_oracles(pres)
    check_against_oracles(moved(pres, 5))


def test_macaulay_echelon_tries_fewer_rows_and_keeps_as_many(monkeypatch):
    pres = moved(IdealPresentation.from_strings(["x1^3", "x2^3", "x3^3"], 3), 11)
    D = build_quotient(pres).D
    counts = []

    def counting(original):
        def add(self, row):
            kept = original(self, row)
            counts[-1][0] += 1
            counts[-1][1] += kept
            return kept
        return add

    for cls in (SparseEchelon, OracleEchelon):
        monkeypatch.setattr(cls, "add", counting(cls.add))
    for echelon in (macaulay_echelon, oracle_macaulay_echelon):
        counts.append([0, 0])
        echelon(pres, D)
    (tried, kept), (oracle_tried, oracle_kept) = counts
    assert tried < oracle_tried
    assert kept == oracle_kept


def test_leading_forms_takes_both_branches_on_seeded_grid(monkeypatch):
    """Each degree j = 1..s+1 either settles dim n*I*_(j-1) by counting
    lowest monomials or runs one echelon; the grid must do both."""
    algebras = [build_quotient(pres) for _, pres in GRID]
    echelons = []

    class CountingEchelon(SparseEchelon):
        def __init__(self, field):
            echelons.append(field)
            super().__init__(field)

    monkeypatch.setattr(quotient, "SparseEchelon", CountingEchelon)
    for A in algebras:
        leading_forms(A.pres, algebra=A)
    assert 0 < len(echelons) < sum(A.socle_degree + 1 for A in algebras)


def random_entry(rng, field):
    """A small entry of QQ or QQ(sqrt 2), zero about two times in three."""
    if rng.random() < 0.65:
        return field.rzero
    vals = [QQ.rfrom(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            for _ in range(1 if field is QQ else 2)]
    return vals[0] if field is QQ else tuple(vals)


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
    got = [[nullspace_dense(M, field), solve_dense(M, b, field)] for M, b in cases]
    assert got == [[oracle_nullspace(M, field), oracle_solve(M, b, field)]
                   for M, b in cases]
    assert any(r[1] is None for r in got)


def random_row_entry(rng, field):
    """A nonzero entry: over QQ half the time a numerator of up to 64 bits
    over a denominator up to 10^6, else a small fraction; over QQ(sqrt 2) a
    pair of small fractions."""
    if field is QQ:
        if rng.random() < 0.5:
            return Fraction(rng.randint(1, 2 ** 64) * rng.choice((-1, 1)),
                            rng.randint(1, 10 ** 6))
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
    return (Fraction(rng.randint(1, 4) * rng.choice((-1, 1)), rng.randint(1, 3)),
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)))


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


@pytest.mark.parametrize("field", [QQ, adjoin_sqrt(QQ, q(2))], ids=["QQ", "QQ(sqrt2)"])
def test_sparse_echelon_matches_the_normalized_row_oracle(field):
    """Integer rows over QQ (normalized rows over the tower) give the
    normalized-row elimination's pivot rows item for item, its rank, its
    reduce output and its contains, on 240 seeded rows."""
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
        assert list(ech.pivots) == list(oracle.pivots)
        for lead, row in oracle.pivots.items():
            assert list(ech.pivots[lead].items()) == list(row.items()), lead
        assert ech.rank == oracle.rank
    assert any(kept) and not all(kept)


def check_values_are_fractions(A):
    """Over QQ every value that the echelon, nf, coords and the dense solves
    hand out is a Fraction, never an int or a float."""
    def exact(values):
        return all(type(c) is Fraction for c in values)

    assert all(exact(row.values()) for row in A.ech.pivots.values())
    elems = random_elements(A, random.Random(repr(A.pres)))
    for a in elems:
        for b in elems:
            p = a.poly * b.poly + a.poly
            assert exact(A.coords(p)) and exact(A.nf(p).terms.values())
    rows = [A.coords(el.poly) for el in elems]
    cols = [list(col) for col in zip(*rows)]
    for M in (rows, cols):
        assert all(exact(v) for v in nullspace_dense(M, QQ))
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
