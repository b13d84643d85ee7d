"""Invariants read off the quotient's one echelon against the slow paths.

hf, v(I) and the leading-form ideal I* all come from the Macaulay echelon
that build_quotient keeps.  Each is checked here against a separate-echelon
oracle (tests/echelon_oracles.py) on a seeded grid and on
hypothesis-generated ideals, both also moved by random coordinate changes.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import artinlocal.quotient as quotient
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
    min_gens,
)
from artinlocal.scalars import QQ, Scalar
from artinlocal.structure import (
    AlmostStretchedParams,
    StretchedParams,
    make_almost_stretched,
    make_stretched,
)

from echelon_oracles import (
    oracle_leading_forms,
    oracle_min_gens,
    same_span,
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


def check_against_oracles(pres):
    A = build_quotient(pres)
    s = A.socle_degree
    table, ech = separate_echelon(pres, A.D)
    assert set(ech.pivots) == set(A.ech.pivots)
    hf = [0] * A.D
    for r in range(len(table.monos)):
        if r not in ech.pivots:
            hf[table.deg(r)] += 1
    assert tuple(hf[:s + 1]) == A.hf and hf[s + 1] == 0
    assert min_gens(pres, algebra=A) == oracle_min_gens(pres, A.D) == A.v
    data = leading_forms(pres, algebra=A)
    dims, new_gens, bases, v_star = oracle_leading_forms(pres, s)
    assert data.dims == dims
    assert data.new_gens == new_gens
    assert data.v_star == v_star
    assert data.bases.keys() == bases.keys()
    for j in bases:
        assert same_span(data.bases[j], bases[j], A.field, A.nvars, j + 1), j


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


@pytest.mark.parametrize(
    "pres", [pytest.param(pres, id=label) for label, pres in seeded_grid()])
def test_shared_echelon_matches_oracles_on_seeded_grid(pres):
    check_against_oracles(pres)


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
