"""Binomial calculus, generator-count bounds, and lex-segment ideals."""

import math

import pytest
from hypothesis import given, strategies as st

from artinlocal.bounds import (
    binomial_expansion,
    bound_report,
    erv_upper,
    hf_admissible,
    lex_segment,
    lower_bound,
    macaulay_shift,
    t_and_r,
)
from artinlocal.polynomials import monomials_of_degree
from artinlocal.quotient import build_quotient, min_gens


@given(st.integers(min_value=1, max_value=400), st.integers(min_value=1, max_value=6))
def test_binomial_expansion_reconstructs(n, i):
    parts = binomial_expansion(n, i)
    ks = [k for k, j in parts]
    js = [j for k, j in parts]
    assert sum(math.comb(k, j) for k, j in parts) == n
    assert js == list(range(i, i - len(parts), -1))
    assert all(a > b for a, b in zip(ks, ks[1:]))
    assert all(k >= j for k, j in parts)


def linear_t_and_r(e, h):
    """t_and_r by stepping t up from 2 until C(h+t-1, t-1) <= e < C(h+t, t)."""
    t = 2
    while not (math.comb(h + t - 1, t - 1) <= e < math.comb(h + t, t)):
        t += 1
    return t, e - math.comb(h + t - 1, t - 1)


def linear_binomial_expansion(n, i):
    """binomial_expansion by stepping each n_j up from j while C(n_j + 1, j)
    still fits in the rest."""
    out, rest = [], n
    for j in range(i, 0, -1):
        if not rest:
            break
        nj = j
        while math.comb(nj + 1, j) <= rest:
            nj += 1
        out.append((nj, j))
        rest -= math.comb(nj, j)
    return out


def test_bisected_searches_match_the_linear_scans():
    """t_and_r and binomial_expansion, whose searches double and bisect,
    against the scans that step one at a time, for e <= 200 and h <= 5,
    and for n <= 2000 and i <= 6."""
    for h in range(1, 6):
        for e in range(h + 1, 201):
            assert t_and_r(e, h) == linear_t_and_r(e, h), (e, h)
    for i in range(1, 7):
        for n in range(1, 2001):
            assert binomial_expansion(n, i) == linear_binomial_expansion(n, i), (n, i)


def test_bound_searches_take_logarithmic_steps(monkeypatch):
    """At e = 10^12 and h = 1, t = e and r = 0 are found by at most
    2*bit_length(e) + 1 binomials, none past twice the answer; the linear
    scan would form 10^12 of them.  The same holds for the expansion in
    macaulay_shift(10^7, 1), whose one term is C(10^7, 1)."""
    from artinlocal import bounds

    calls = []

    def comb(n, k):
        calls.append(n)
        assert len(calls) <= 100, "the search forms binomials one step at a time"
        return math.comb(n, k)

    monkeypatch.setattr(bounds, "comb", comb)
    for e, search in ((10 ** 12, lambda e: t_and_r(e, 1)),
                      (10 ** 7, lambda e: binomial_expansion(e, 1))):
        calls.clear()
        search(e)
        assert len(calls) <= 2 * e.bit_length() + 1 and max(calls) <= 2 * e
    monkeypatch.undo()
    rep = bound_report(10 ** 12, 1)
    assert (rep.t, rep.r, rep.upper) == (10 ** 12, 0, 1)
    assert macaulay_shift(10 ** 7, 1) == math.comb(10 ** 7 + 1, 2)


def test_shift_worked_values():
    assert macaulay_shift(5, 2) == 7
    assert macaulay_shift(3, 2) == 4
    assert macaulay_shift(0, 3) == 0


@given(st.integers(min_value=0, max_value=200), st.integers(min_value=1, max_value=5))
def test_shift_is_monotone(n, i):
    assert macaulay_shift(n + 1, i) >= macaulay_shift(n, i)


def test_t_and_r_worked_values():
    assert t_and_r(7, 3) == (2, 3)
    assert t_and_r(5, 3) == (2, 1)


def test_upper_bound_worked_values():
    assert erv_upper(5, 3) == 6
    assert erv_upper(7, 3) == 7
    # e = h + 2 for h >= 3 gives exactly C(h+1, 2)
    for h in (3, 4, 5):
        assert erv_upper(h + 2, h) == math.comb(h + 1, 2)
        assert erv_upper(h + 4, h) == math.comb(h + 1, 2) + 1


def test_lower_bound_value():
    assert lower_bound(7, 3) == math.comb(5, 2) - 7


@pytest.mark.parametrize("e, h", [(3, 3), (1, 0), (0, 0), (2, 2), (5, -1), (0, 1)])
def test_lower_bound_rejects_what_t_and_r_rejects(e, h):
    """lower_bound(3, 3) was 7 and lower_bound(1, 0) was 0; every bound
    now needs h >= 1 and e >= h + 1."""
    for bound in (lower_bound, t_and_r, erv_upper):
        with pytest.raises(ValueError, match=r"need h >= 1 and e >= h \+ 1"):
            bound(e, h)


@given(st.integers(min_value=-3, max_value=60), st.integers(min_value=-2, max_value=6))
def test_lower_bound_takes_exactly_the_inputs_t_and_r_takes(e, h):
    try:
        t_and_r(e, h)
    except ValueError:
        with pytest.raises(ValueError):
            lower_bound(e, h)
    else:
        assert lower_bound(e, h) == math.comb(h + 2, 2) - e


def test_hf_admissible():
    assert hf_admissible((1, 3, 2, 1))
    assert hf_admissible((1, 2, 2, 2, 1, 1, 1))
    assert not hf_admissible((1, 2, 4))
    assert not hf_admissible((2, 1))


def test_lex_segment_worked_examples():
    p = lex_segment((1, 2, 1, 1))
    texts = sorted(repr(g) for g in p.gens)
    assert texts == ["x1*x2", "x1^2", "x2^4"]
    assert build_quotient(p).hf == (1, 2, 1, 1)
    assert min_gens(p) == 3

    p = lex_segment((1, 2, 2, 1))
    texts = sorted(repr(g) for g in p.gens)
    assert texts == ["x1*x2^2", "x1^2", "x2^4"]
    assert min_gens(p) == 3


def test_lex_segment_rejects_inadmissible():
    with pytest.raises(ValueError):
        lex_segment((1, 2, 4))


def test_lex_segment_preserves_hf():
    for hf in [(1, 3, 2, 1), (1, 2, 2, 2, 1, 1, 1), (1, 4, 2, 1, 1)]:
        assert build_quotient(lex_segment(hf)).hf == hf


def oracle_lex_segment_gens(hf, nvars):
    """Exponent tuples of the minimal generators of the lex-segment ideal,
    built degree by degree: the segment of degree j as a set, minus the
    multiples of the segment of degree j-1, which must lie in it."""
    s = len(hf) - 1
    prev, gens = set(), []
    for j in range(1, s + 2):
        monos = sorted(monomials_of_degree(nvars, j), reverse=True)
        seg = set(monos[:len(monos) - (hf[j] if j <= s else 0)])
        grown = {m[:i] + (m[i] + 1,) + m[i + 1:] for m in prev for i in range(nvars)}
        assert grown <= seg
        gens += sorted(seg - grown, reverse=True)
        prev = seg
    return gens


def admissible_hfs(h, s_max):
    """Every admissible Hilbert function (1, h, ...) with socle degree <= s_max."""
    out, todo = [], [[1, h]]
    while todo:
        hf = todo.pop()
        out.append(tuple(hf))
        if len(hf) <= s_max:
            j = len(hf) - 1
            todo += [hf + [v] for v in range(1, macaulay_shift(hf[j], j) + 1)]
    return out


def test_lex_segment_matches_the_set_difference_oracle():
    """The generators cut from the lex order by Macaulay's theorem are the
    ones the segment-minus-multiples construction gives, in the same order,
    for every admissible hf of h <= 4 up to a socle degree, in h and h + 1
    variables."""
    checked = 0
    for h, s_max in ((1, 8), (2, 7), (3, 4), (4, 3)):
        for hf in admissible_hfs(h, s_max):
            for nvars in (h, h + 1):
                gens = [next(iter(g.terms)) for g in lex_segment(hf, nvars=nvars).gens]
                assert gens == oracle_lex_segment_gens(hf, nvars), (hf, nvars)
                checked += 1
    assert checked > 1000


def test_bound_report_dict():
    rep = bound_report(7, 3).as_dict()
    assert rep == {"schema": 1, "e": 7, "h": 3, "t": 2, "r": 3,
                   "lower": 3, "upper": 7}
