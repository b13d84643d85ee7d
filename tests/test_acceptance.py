"""End-to-end acceptance checks.

Eight criteria, each one test function ending in a single
"criterion N: PASS" / "criterion N: FAIL" line.  The canonical-model grid
is built once and shared by the first three criteria.
"""

import math
import random
from fractions import Fraction
from functools import lru_cache

from artinlocal.bounds import erv_upper, lex_segment, lower_bound, t_and_r
from artinlocal.classify7 import classify, classify_ideal, make_model
from artinlocal.polynomials import (
    Polynomial,
    monomials_of_degree,
    parse_poly,
    random_invertible_map,
)
from artinlocal.quotient import (
    IdealPresentation,
    build_quotient,
    leading_forms,
    min_gens,
    nth_root,
    row_space_equal,
)
from artinlocal.scalars import QQ, Scalar, adjoin_sqrt
from artinlocal.semigroups import (
    check_rgs,
    enumerate_semigroups,
    kernel_min_gens,
    min_presentation_size,
    semigroup_invariants,
)
from artinlocal.structure import (
    AlmostStretchedParams,
    StretchedParams,
    make_1321_models,
    make_almost_stretched,
    make_stretched,
    normalize,
)

SEED = 20240
RANDOMS_PER_CELL = 10


def q(x) -> Scalar:
    return Scalar(QQ, QQ.rfrom(Fraction(x)))


def _report(n, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {n}: {status}")
    assert not failures, failures[:10]


def _random_unit(rng) -> Scalar:
    return q(rng.choice([x for x in range(-5, 6) if x]))


def _random_a(rng, h, max_deg=2) -> Polynomial:
    terms = {}
    for d in range(max_deg + 1):
        for m in monomials_of_degree(2, d):
            if rng.random() < 0.4:
                c = rng.randint(-3, 3)
                if c:
                    terms[m + (0,) * (h - 2)] = QQ.rfrom(Fraction(c))
    return Polynomial(h, QQ, terms)


@lru_cache(maxsize=1)
def model_grid():
    """All canonical-model instances shared by criteria 1-3.

    Entries: (label, presentation, expected_hf, expected_v, e, h).
    """
    rng = random.Random(SEED)
    out = []
    for h in range(1, 6):
        for s in range(2, 9):
            for tau in range(1, h + 1):
                units = tuple(_random_unit(rng)
                              for _ in range(h - tau if tau < h else 0))
                pres = make_stretched(StretchedParams(h, s, tau, units))
                hf = (1, h) + (1,) * (s - 1)
                v = math.comb(h + 1, 2) - (0 if tau == h else 1)
                out.append((f"stretched h={h} s={s} tau={tau}",
                            pres, hf, v, sum(hf), h))
    for h in range(2, 6):
        for t in range(2, 8):
            for s in range(t + 1, 9):
                for j in range(RANDOMS_PER_CELL):
                    a = _random_a(rng, h)
                    w = _random_unit(rng)
                    units = tuple(_random_unit(rng) for _ in range(h - 2))
                    pres = make_almost_stretched(
                        AlmostStretchedParams(h, t, s, a, w, units))
                    hf = (1, h) + (2,) * (t - 1) + (1,) * (s - t)
                    out.append((f"almost h={h} t={t} s={s} #{j}",
                                pres, hf, math.comb(h + 1, 2) - 1,
                                sum(hf), h))
    return out


def test_criterion_1_hilbert_function_tables():
    failures = []
    for label, pres, hf, _v, _e, _h in model_grid():
        got = build_quotient(pres).hf
        if got != hf:
            failures.append(f"{label}: hf {got} != {hf}")
    _report(1, failures)


def test_criterion_2_generator_counts():
    failures = []
    for label, pres, _hf, v, _e, _h in model_grid():
        got = min_gens(pres)
        if got != v:
            failures.append(f"{label}: v {got} != {v}")
    _report(2, failures)


def _random_artinian(rng):
    nvars = rng.randint(2, 4)
    gens = [parse_poly(f"x{i + 1}^{rng.randint(2, 3)}", nvars, QQ)
            for i in range(nvars)]
    monos = [m for d in (2, 3) for m in monomials_of_degree(nvars, d)]
    for _ in range(rng.randint(1, 2)):
        terms = {}
        for m in rng.sample(monos, rng.randint(1, 3)):
            terms[m] = QQ.rfrom(Fraction(rng.randint(-3, 3)))
        p = Polynomial(nvars, QQ, {m: c for m, c in terms.items()
                                   if c != QQ.rzero})
        if not p.is_zero():
            gens.append(p)
    return IdealPresentation(gens, nvars)


def test_criterion_3_bound_chain():
    failures = []
    instances = [(label, pres, e, h)
                 for label, pres, _hf, _v, e, h in model_grid()]
    rng = random.Random(SEED + 3)
    for i in range(100):
        pres = _random_artinian(rng)
        A = build_quotient(pres)
        instances.append((f"random #{i}", pres, A.length, A.embdim))
    for label, pres, e, h in instances:
        A = build_quotient(pres)
        v = min_gens(pres, algebra=A)
        if not lower_bound(e, h) <= v <= erv_upper(e, h):
            failures.append(f"{label}: {v} outside numeric bounds")
            continue
        v_star = leading_forms(pres, algebra=A).v_star
        v_lex = len(lex_segment(A.hf, nvars=h).gens)
        if not v <= v_star <= v_lex:
            failures.append(
                f"{label}: chain {v} <= {v_star} <= {v_lex} broken")
    if t_and_r(5, 3) != (2, 1) or erv_upper(5, 3) != 6:
        failures.append("worked values (5,3)")
    if t_and_r(7, 3) != (2, 3) or erv_upper(7, 3) != 7:
        failures.append("worked values (7,3)")
    _report(3, failures)


def test_criterion_4_normalization_round_trips():
    failures = []
    rng = random.Random(SEED + 4)
    jobs = []
    for i in range(25):
        h = rng.randint(2, 3)
        s = rng.randint(3, 5)
        tau = rng.randint(1, h)
        units = tuple(_random_unit(rng) ** 2
                      for _ in range(h - tau if tau < h else 0))
        jobs.append(("stretched", StretchedParams(h, s, tau, units)))
    for i in range(25):
        h = rng.randint(2, 3)
        t = rng.randint(2, 3)
        s = rng.randint(t + 1, 5)
        params = AlmostStretchedParams(
            h, t, s, _random_a(rng, h, max_deg=1), _random_unit(rng),
            tuple(_random_unit(rng) for _ in range(h - 2)))
        jobs.append(("almost_stretched", params))
    for i, (kind, params) in enumerate(jobs):
        pres = (make_stretched(params) if kind == "stretched"
                else make_almost_stretched(params))
        phi = random_invertible_map(params.h, QQ, params.s + 3,
                                    rng.randint(0, 10 ** 6))
        moved = IdealPresentation([phi.apply(g) for g in pres.gens])
        try:
            got_kind, got, witness = normalize(moved, seed=i)
        except Exception as exc:  # noqa: BLE001 - tallied below
            failures.append(f"job {i} ({kind}): {exc!r}")
            continue
        if got_kind != kind:
            failures.append(f"job {i}: kind {got_kind} != {kind}")
            continue
        if kind == "stretched":
            ok = (got.h, got.s, got.tau) == (params.h, params.s, params.tau)
        else:
            ok = (got.h, got.t, got.s) == (params.h, params.t, params.s)
        if not ok:
            failures.append(f"job {i}: recovered shape parameters differ")
            continue
        model = (make_stretched(got) if kind == "stretched"
                 else make_almost_stretched(got))
        field = model.field
        back = IdealPresentation(
            [witness.apply(g) for g in model.gens], params.h, field)
        if not row_space_equal(back, moved, build_quotient(moved).D):
            failures.append(f"job {i}: witness not certified")
    _report(4, failures)


def test_criterion_5_classifier():
    failures = []
    for case in ("case1", "case2a", "case2b1", "case2b2"):
        p = Fraction(3) if case == "case2b2" else None
        A = build_quotient(make_model(case, p=p))
        if A.hf != (1, 2, 2, 2, 1, 1, 1) or A.cm_type != 1:
            failures.append(f"model {case}: wrong invariants")
    rng = random.Random(SEED + 5)
    for i in range(10):
        c = rng.randint(-5, 5)
        text = f"{rng.choice([x for x in range(-4, 5) if x])} + {c}*x1"
        r = classify(parse_poly(text, 2, QQ), allow_extension=True)
        if r.case != "case1":
            failures.append(f"unit a #{i} -> {r.case}")
    square_samples = ["0", "x1^2", "x1*x2", "x2^2", "x1^3", "2*x1^2 - x2^3",
                      "x1^2 + x1*x2", "x2^3", "-x1*x2", "3*x2^2"]
    for i, text in enumerate(square_samples):
        r = classify(parse_poly(text, 2, QQ), allow_extension=True)
        if r.case != "case2a":
            failures.append(f"square a #{i} -> {r.case}")
    Qi = adjoin_sqrt(QQ, q(-1))
    two_i = Qi.coerce(q(-1)).sqrt() + Qi.coerce(q(-1)).sqrt()
    r = classify(parse_poly("x1", 2, Qi).scale(two_i), field=Qi,
                 allow_extension=True)
    if r.case != "case2b1":
        failures.append(f"2i*x1 -> {r.case}")
    for p in (Fraction(2), Fraction(3), Fraction(5, 2), Fraction(-2)):
        model = make_model("case2b2", p=p)
        for j in range(5):
            phi = random_invertible_map(2, QQ, 9, rng.randint(0, 10 ** 6))
            moved = IdealPresentation([phi.apply(g) for g in model.gens])
            try:
                r = classify_ideal(moved, allow_extension=True, seed=j)
            except Exception as exc:  # noqa: BLE001 - tallied below
                failures.append(f"p={p} #{j}: {exc!r}")
                continue
            want = r.field.coerce(q(p * p))
            if r.case != "case2b2" or (r.p_squared - want).is_zero() is False:
                failures.append(f"p={p} #{j}: got {r.case}, {r.p_squared}")
    _report(5, failures)


def test_criterion_6_hensel_roots():
    failures = []
    rng = random.Random(SEED + 6)
    algebras = [
        build_quotient(IdealPresentation(
            [parse_poly(t, 2, QQ) for t in gens]))
        for gens in (("x1^4", "x2^3"), ("x1*x2", "x2^2 - x1^3"),
                     ("x1^5", "x2^2"))
    ]
    for i in range(50):
        A = algebras[i % len(algebras)]
        n = 2 if i % 2 == 0 else 3
        r0 = Fraction(rng.choice([1, 2, 3, 5]), rng.choice([1, 2, 3]))
        nil = {}
        for m in [m for d in (1, 2) for m in monomials_of_degree(2, d)]:
            if rng.random() < 0.5:
                nil[m] = QQ.rfrom(Fraction(rng.randint(-2, 2)))
        a = A.element(Polynomial(2, QQ, {(0, 0): QQ.rfrom(r0 ** n), **nil}))
        try:
            c = nth_root(A, a, n)
        except Exception as exc:  # noqa: BLE001 - tallied below
            failures.append(f"root #{i}: {exc!r}")
            continue
        if not (c ** n - a).is_zero():
            failures.append(f"root #{i}: c^{n} != a")
    _report(6, failures)


def test_criterion_7_semigroups():
    failures = []
    S = semigroup_invariants([7, 8, 10, 19])
    v = min_presentation_size(S)
    if not (6 < v <= 7):
        failures.append(f"<7,8,10,19>: v = {v}")
    S = semigroup_invariants([8, 10, 12, 15])
    if not S.is_symmetric() or min_presentation_size(S) == 5:
        failures.append("<8,10,12,15> counterexample broken")
    # generator cap 36 = 3 * max multiplicity keeps the family finite
    for S in enumerate_semigroups(12, 4, 36):
        rep = check_rgs(S)
        for name in ("R1", "R2"):
            win = rep["windows"].get(name)
            if win and not win["holds"]:
                failures.append(f"{S.gens}: {name} violated")
    for S in enumerate_semigroups(9, 3, 27):
        if min_presentation_size(S) != kernel_min_gens(S):
            failures.append(f"{S.gens}: oracle disagrees")
    _report(7, failures)


def test_criterion_8_1321_models():
    failures = []
    for i, pres in enumerate(make_1321_models()):
        A = build_quotient(pres)
        if A.hf != (1, 3, 2, 1):
            failures.append(f"model {i}: hf {A.hf}")
        if A.cm_type != 1:
            failures.append(f"model {i}: type {A.cm_type}")
        if min_gens(pres) != 5:
            failures.append(f"model {i}: v {min_gens(pres)}")
    _report(8, failures)
