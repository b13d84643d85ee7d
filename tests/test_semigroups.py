"""Numerical semigroups, factorization graphs, presentation counts, and
the Artinian reduction of a monomial curve through the quotient engine."""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from artinlocal.errors import GcdNotOne, NonMinimalGenerators
from artinlocal.quotient import build_quotient, min_gens
from artinlocal.semigroups import (
    betti_search_bound,
    check_rgs,
    enumerate_semigroups,
    factorization_graph,
    kernel_min_gens,
    min_presentation_size,
    semigroup_invariants,
    semigroup_report,
)

from semigroup_oracles import (
    apery_type,
    artinian_reduction,
    oracle_enumerate_semigroups,
    oracle_is_symmetric,
    oracle_non_minimal,
)


def test_two_three():
    S = semigroup_invariants([2, 3])
    assert S.frobenius == 1
    assert S.is_symmetric()
    assert min_presentation_size(S) == 1


def test_validation_errors():
    with pytest.raises(GcdNotOne):
        semigroup_invariants([4, 6])
    with pytest.raises(NonMinimalGenerators):
        semigroup_invariants([3, 4, 7])
    with pytest.raises(NonMinimalGenerators):
        semigroup_invariants([3, 3, 4])


def test_membership_and_apery():
    S = semigroup_invariants([3, 5])
    assert 8 in S and 7 not in S and 4 not in S
    assert S.frobenius == 7
    assert len(S.apery) == 3


@given(st.sets(st.integers(min_value=2, max_value=40), min_size=2, max_size=4))
@settings(max_examples=60, deadline=None)
def test_apery_size_equals_multiplicity(gens):
    gens = sorted(gens)
    if math.gcd(*gens) != 1:
        gens.append(gens[-1] + 1)
    try:
        S = semigroup_invariants(gens)
    except (NonMinimalGenerators, GcdNotOne):
        return
    assert len(S.apery) == S.multiplicity
    assert all(a % S.multiplicity == i for i, a in enumerate(S.apery))
    assert S.frobenius not in S and S.frobenius + 1 in S


@given(st.integers(min_value=2, max_value=15), st.integers(min_value=2, max_value=15))
@settings(max_examples=40, deadline=None)
def test_coprime_pairs_are_principal(a, b):
    if math.gcd(a, b) != 1 or a == b:
        return
    S = semigroup_invariants([a, b])
    assert min_presentation_size(S) == 1
    assert S.is_symmetric()


def test_minimal_multiplicity_value():
    S = semigroup_invariants([3, 4, 5])
    assert min_presentation_size(S) == 3 == math.comb(3, 2)
    rep = check_rgs(S)
    assert rep["windows"]["minimal_multiplicity"]["holds"]


def test_counterexample_symmetric_curve():
    S = semigroup_invariants([8, 10, 12, 15])
    assert S.is_symmetric()
    assert min_presentation_size(S) != 5


def test_counterexample_e_equals_h_plus_4():
    S = semigroup_invariants([7, 8, 10, 19])
    assert (S.multiplicity, S.h) == (7, 3)
    v = min_presentation_size(S)
    assert v > math.comb(4, 2)
    assert v <= math.comb(4, 2) + 1
    rep = check_rgs(S)
    assert rep["windows"]["R3"]["holds"]
    assert "R1" not in rep["windows"]


def test_factorization_graph_shapes():
    S = semigroup_invariants([3, 5, 7])
    g = factorization_graph(S, 10)
    assert len(g.factorizations) == 2
    assert g.components == 2
    assert factorization_graph(S, 4).components == 0


def test_oracle_agreement_sample():
    for gens in ([3, 5, 7], [4, 6, 9], [5, 7, 9], [4, 9], [6, 7, 8]):
        S = semigroup_invariants(gens)
        assert min_presentation_size(S) == kernel_min_gens(S)


def test_betti_elements_lie_within_the_search_bound():
    """Every element with a disconnected factorization graph is at most
    F + n1 + nk (see betti_search_bound), scanning past the bound, and the
    bound is attained."""
    attained = 0
    for S in enumerate_semigroups(8, 3, 24):
        n1, nk, F = S.gens[0], S.gens[-1], S.frobenius
        betti = [m for m in range(2 * n1, F + 2 * nk + n1 + 1)
                 if m in S and factorization_graph(S, m).components > 1]
        assert betti and max(betti) <= F + n1 + nk <= betti_search_bound(S), S
        attained += max(betti) == F + n1 + nk
    assert attained


def test_minimality_and_symmetry_agree_with_the_dynamic_program():
    """On every gcd-1 set of at most 4 integers from 1..22, the Apery test
    rejects a redundant generator exactly when the dynamic program finds
    one, and the Apery symmetry criterion agrees with the scan of 0..F."""
    sets = [c for k in range(1, 5) for c in combinations(range(1, 23), k)
            if math.gcd(*c) == 1]
    assert len(sets) == 8435
    for gens in sets:
        want = oracle_non_minimal(gens)
        try:
            S = semigroup_invariants(gens)
        except NonMinimalGenerators:
            assert want, gens
            continue
        assert not want, gens
        assert S.is_symmetric() == oracle_is_symmetric(S), gens


def test_enumeration_agrees_with_the_dynamic_program():
    """Pruning by the Apery set of the prefix gives the tuples, in order,
    of testing each candidate by the dynamic program and letting
    semigroup_invariants reject the non-minimal ones; symmetry agrees with
    the scan of 0..F on all of them."""
    fam = enumerate_semigroups(12, 4, 36)
    assert len(fam) == 10430
    assert [S.gens for S in fam] == oracle_enumerate_semigroups(12, 4, 36)
    assert all(S.is_symmetric() == oracle_is_symmetric(S) for S in fam)


def test_enumerate_respects_caps():
    fam = enumerate_semigroups(5, 3, 12)
    assert all(S.multiplicity <= 5 and S.embdim <= 3 for S in fam)
    assert all(g <= 12 for S in fam for g in S.gens)
    gens_sets = {S.gens for S in fam}
    assert (2, 3) in gens_sets and (3, 4, 5) in gens_sets


def test_report_shape():
    rep = semigroup_report([7, 8, 10, 19])
    assert rep["schema"] == 1
    assert rep["v"] == 7
    assert rep["symmetric"] is False


def test_the_artinian_reduction_has_the_semigroups_invariants():
    """Every semigroup of enumerate_semigroups(9, 3, 27) through the
    Artinian engine, on its reduction J_S (an ideal of binomials and
    monomials that no model built): length n1, embedding dimension k - 1,
    the Apery type count as cm_type, Gorenstein exactly when symmetric,
    and the minimal presentation size as min_gens."""
    family = enumerate_semigroups(9, 3, 27)
    assert len(family) == 767
    for S in family:
        A = build_quotient(artinian_reduction(S))
        assert (A.length, A.embdim) == (S.multiplicity, S.embdim - 1), S.gens
        assert A.cm_type == apery_type(S), S.gens
        assert A.gorenstein == S.is_symmetric(), S.gens
        assert min_gens(A.pres, algebra=A) == min_presentation_size(S), S.gens
