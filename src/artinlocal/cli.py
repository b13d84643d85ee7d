"""Command-line front end.

Every subcommand prints one JSON document (with a top-level "schema"
field) to standard output and exits 0; failures print a structured error
record and exit nonzero.  Runs are deterministic given the options and the
seed.

Ideal files: first line "vars: <n>", then one generator per line in the
polynomial text grammar; blank lines and lines starting with '#' are
skipped.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import errors
from .bounds import bound_report
from .classify7 import classify_ideal, make_model
from .polynomials import parse_poly, poly_to_str, random_invertible_map
from .quotient import (
    IdealPresentation,
    algebra_report,
    build_quotient,
)
from .scalars import QQ
from .semigroups import (
    check_rgs,
    min_presentation_size,
    semigroup_invariants,
    semigroup_report,
)
from .structure import (
    AlmostStretchedParams,
    StretchedParams,
    make_almost_stretched,
    make_stretched,
    normalize,
)

ERROR_CODES = {
    errors.ParseError: "parse-error",
    errors.NotArtinian: "not-artinian",
    errors.NotStretched: "not-stretched",
    errors.NotAlmostStretched: "not-almost-stretched",
    errors.NotGorenstein: "not-gorenstein",
    errors.NotApplicable: "not-applicable",
    errors.WrongHilbertFunction: "wrong-hilbert-function",
    errors.FieldExtensionRequired: "field-extension-required",
    errors.ResidueNotPower: "residue-not-power",
    errors.FieldMismatch: "field-mismatch",
    errors.NonMinimalGenerators: "non-minimal-generators",
    errors.GcdNotOne: "gcd-not-one",
    errors.SearchExhausted: "search-exhausted",
    errors.CertificationFailed: "certification-failed",
    FileNotFoundError: "missing-file",
    ValueError: "bad-input",
}


def read_ideal_file(path: str) -> IdealPresentation:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].lower().startswith("vars:"):
        raise errors.ParseError('first line must be "vars: <n>"')
    try:
        nvars = int(lines[0].split(":", 1)[1])
    except ValueError:
        raise errors.ParseError("variable count is not an integer") from None
    gens = [parse_poly(ln, nvars, QQ) for ln in lines[1:]]
    if not gens:
        raise errors.ParseError("no generators given")
    return IdealPresentation(gens, nvars)


def _emit(doc) -> int:
    json.dump(doc, sys.stdout, indent=2, sort_keys=False)
    sys.stdout.write("\n")
    return 0


def _params_dict(kind, params):
    if kind == "stretched":
        return {"h": params.h, "s": params.s, "tau": params.tau,
                "units": [repr(u) for u in params.units]}
    return {"h": params.h, "t": params.t, "s": params.s,
            "a": poly_to_str(params.a), "w": repr(params.w),
            "units": [repr(u) for u in params.units]}


# ------------------------------------------------------------- subcommands


def cmd_hf(args) -> int:
    pres = read_ideal_file(args.ideal)
    return _emit({"schema": 1, "generators": [poly_to_str(g) for g in pres.gens],
                  "hilbert_function": list(build_quotient(pres).hf)})


def cmd_invariants(args) -> int:
    pres = read_ideal_file(args.ideal)
    return _emit(algebra_report(build_quotient(pres)))


def cmd_bounds(args) -> int:
    rep = bound_report(args.e, args.h)
    if args.markdown:
        sys.stdout.write(rep.markdown_row() + "\n")
        return 0
    return _emit(rep.as_dict())


def _scalars(text):
    if not text:
        return ()
    return tuple(QQ.scalar(t) for t in text.split(","))


def cmd_make(args) -> int:
    if args.kind == "stretched":
        if args.s is None:
            raise errors.NotApplicable("stretched model needs --s")
        tau = args.h if args.tau is None else args.tau
        units = _scalars(args.units)
        need = args.h - tau if tau < args.h else 0
        if not units and need:
            units = (QQ.one,) * need
        params = StretchedParams(args.h, args.s, tau, units)
        pres = make_stretched(params)
    else:
        if args.s is None or args.t is None:
            raise errors.NotApplicable("almost-stretched model needs --t and --s")
        a = parse_poly(args.a or "0", args.h, QQ)
        w = QQ.scalar(args.w)
        units = _scalars(args.units)
        if not units and args.h > 2:
            units = (QQ.one,) * (args.h - 2)
        params = AlmostStretchedParams(args.h, args.t, args.s, a, w, units)
        pres = make_almost_stretched(params)
    return _emit({"schema": 1, "vars": pres.nvars,
                  "generators": [poly_to_str(g) for g in pres.gens],
                  "hilbert_function": list(build_quotient(pres).hf)})


def cmd_normalize(args) -> int:
    pres = read_ideal_file(args.ideal)
    kind, params, witness = normalize(pres, seed=args.seed)
    return _emit({"schema": 1, "kind": kind,
                  "params": _params_dict(kind, params),
                  "field": repr(params.field),
                  "witness_images": [poly_to_str(im) for im in witness.images]})


def cmd_classify7(args) -> int:
    pres = read_ideal_file(args.ideal)
    result = classify_ideal(pres, allow_extension=args.allow_extensions,
                            seed=args.seed)
    return _emit(result.as_dict())


def cmd_semigroup(args) -> int:
    gens = [int(t) for t in args.gens.split(",")]
    return _emit(semigroup_report(gens))


def cmd_verify(args) -> int:
    suites = {"tables": _suite_tables, "rgs": _suite_rgs,
              "classify7": _suite_classify7}
    if args.suite not in suites:
        raise errors.NotApplicable(
            f"unknown suite {args.suite!r}; choose from {sorted(suites)}"
        )
    doc = suites[args.suite](args.seed)
    doc = {"schema": 1, "suite": args.suite, "seed": args.seed, **doc}
    _emit(doc)
    return 0 if doc["failed"] == 0 else 1


# ------------------------------------------------------- verification suites


def _suite_tables(seed) -> dict:
    """Hilbert functions of the canonical models over a small grid."""
    rng = random.Random(seed)
    cases = []
    for h in range(1, 4):
        for s in range(2, 7):
            for tau in range(1, h + 1):
                units = tuple(QQ.scalar(rng.randint(1, 9))
                              for _ in range(h - tau if tau < h else 0))
                pres = make_stretched(StretchedParams(h, s, tau, units))
                want = (1, h) + (1,) * (s - 1)
                got = build_quotient(pres).hf
                cases.append((f"stretched h={h} s={s} tau={tau}", got == want))
    for h in range(2, 4):
        for t in range(2, 6):
            for s in range(t + 1, 7):
                a = parse_poly("0", h, QQ)
                w = QQ.scalar(rng.randint(1, 9))
                units = tuple(QQ.scalar(rng.randint(1, 9)) for _ in range(h - 2))
                pres = make_almost_stretched(
                    AlmostStretchedParams(h, t, s, a, w, units)
                )
                want = (1, h) + (2,) * (t - 1) + (1,) * (s - t)
                got = build_quotient(pres).hf
                cases.append((f"almost h={h} t={t} s={s}", got == want))
    return _tally(cases)


def _suite_rgs(seed) -> dict:
    cases = []
    S = semigroup_invariants([8, 10, 12, 15])
    cases.append(("8,10,12,15 symmetric", S.is_symmetric()))
    cases.append(("8,10,12,15 v != 5", min_presentation_size(S) != 5))
    S = semigroup_invariants([7, 8, 10, 19])
    v = min_presentation_size(S)
    cases.append(("7,8,10,19 v > 6", v > 6))
    cases.append(("7,8,10,19 v <= 7", v <= 7))
    rep = check_rgs(semigroup_invariants([3, 4, 5]))
    cases.append(("3,4,5 minimal multiplicity",
                  rep["windows"].get("minimal_multiplicity", {}).get("holds",
                                                                     False)))
    return _tally(cases)


def _suite_classify7(seed) -> dict:
    cases = []
    for idx, (case, p) in enumerate([("case1", None), ("case2a", None),
                                     ("case2b1", None),
                                     ("case2b2", Fraction(3))]):
        model = make_model(case, p=p)
        phi = random_invertible_map(2, QQ, 9, seed * 7 + idx + 1)
        moved = IdealPresentation([phi.apply(g) for g in model.gens])
        result = classify_ideal(moved, allow_extension=True, seed=seed)
        ok = result.case == case
        if case == "case2b2" and ok:
            ok = result.p_squared is not None and (result.p_squared - 9).is_zero()
        cases.append((f"{case} round trip", ok))
    return _tally(cases)


def _tally(cases) -> dict:
    failed = [name for name, ok in sorted(cases) if not ok]
    return {"cases": len(cases), "passed": len(cases) - len(failed),
            "failed": len(failed), "failures": failed}


# ------------------------------------------------------------------ driver


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="artinlocal",
        description="Exact invariants of Artinian local algebras.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hf", help="Hilbert function of an ideal file")
    p.add_argument("ideal")
    p.set_defaults(func=cmd_hf)

    p = sub.add_parser("invariants", help="full invariant report")
    p.add_argument("ideal")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("bounds", help="generator-count bounds for (e, h)")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--markdown", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("make", help="emit a canonical model ideal")
    p.add_argument("kind", choices=["stretched", "almost-stretched"])
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--tau", type=int)
    p.add_argument("--a", default="0")
    p.add_argument("--w", default="1")
    p.add_argument("--units", default="")
    p.set_defaults(func=cmd_make)

    p = sub.add_parser("normalize", help="normalize onto a canonical model")
    p.add_argument("ideal")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("classify7",
                       help="classify a (1,2,2,2,1,1,1) complete intersection")
    p.add_argument("ideal")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--allow-extensions", action="store_true")
    p.set_defaults(func=cmd_classify7)

    p = sub.add_parser("semigroup", help="numerical-semigroup report")
    p.add_argument("gens", help="comma-separated generators, e.g. 7,8,10,19")
    p.set_defaults(func=cmd_semigroup)

    p = sub.add_parser("verify", help="run a bundled verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - mapped to structured records
        for cls, code in ERROR_CODES.items():
            if isinstance(exc, cls):
                break
        else:
            code = "internal-error"
        json.dump({"schema": 1, "error": {"code": code, "message": str(exc)}},
                  sys.stderr, indent=2)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
