"""Self-test of the benchmark: tracer coverage, trace transparency, oracles.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py

Each workload runs on a tiny pool (the first instance of every kind) once
untraced and once traced.  The traced outputs must equal the untraced
ones, the oracles must pass, and every function a per-layer metric names
for that workload must have fired.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import MODULES, PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# The wrapped functions whose per-layer metrics target each workload.
TARGETS = {
    "invariants": [
        "cli.read_ideal_file", "polynomials.monomials_of_degree",
        "linalg.SparseEchelon.add", "linalg.nullspace_dense",
        "quotient.build_quotient", "quotient.macaulay_echelon",
        "quotient.min_gens", "quotient.leading_forms",
        "quotient.ArtinAlgebra.socle", "bounds.lex_segment",
    ],
    "normal-forms": [
        "polynomials.Polynomial.substitute", "polynomials.RingMap.apply",
        "linalg.SparseEchelon.reduce", "linalg.solve_dense",
        "quotient.build_quotient", "quotient.row_space_equal",
        "quotient.nth_root", "quotient.extend_scalars",
        "quotient.ArtinAlgebra.nf", "quotient.ArtinAlgebra.coords",
        "structure.normalize", "structure.find_lean_basis",
        "structure.normalize_units", "structure.solve_element_combo",
        "classify7.classify_ideal", "classify7.classify", "scalars.adjoin_sqrt",
    ],
    "semigroups": [
        "semigroups.factorization_graph",
        "semigroups.NumericalSemigroup.factorizations",
        "semigroups.semigroup_invariants",
        "semigroups.NumericalSemigroup.is_symmetric",
    ],
}


@pytest.fixture(scope="module")
def library():
    package, modules = run.import_library()
    return package, modules, types.SimpleNamespace(**modules)


def tiny_pool(lib, workload, workdir):
    first = {}
    for inst in WORKLOADS[workload].make_pool(lib, 7, str(workdir)):
        first.setdefault(inst.kind, inst)
    return list(first.values())


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in PER_LAYER]


def test_every_binding_site_is_patched_and_restored(library):
    package, modules, _ = library
    original = modules["polynomials"].monomials_of_degree
    sites = [package] + [modules[m] for m in ("linalg", "quotient", "bounds",
                                              "structure", "classify7")]
    assert all(site.monomials_of_degree is original for site in sites)
    with Tracer(package, modules):
        wrapped = modules["polynomials"].monomials_of_degree
        assert wrapped is not original
        assert all(site.monomials_of_degree is wrapped for site in sites)
        assert modules["structure"].row_space_equal is modules["quotient"].row_space_equal
        assert modules["classify7"].nth_root is modules["quotient"].nth_root
    assert all(site.monomials_of_degree is original for site in sites)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_fires_targets_and_keeps_outputs(library, workload, tmp_path):
    package, modules, lib = library
    pool = tiny_pool(lib, workload, tmp_path)
    work, check = WORKLOADS[workload].run, WORKLOADS[workload].check
    _, plain, _, _ = run.run_pass(lib, work, pool)
    tracer = Tracer(package, modules)
    with tracer:
        _, traced, _, _ = run.run_pass(lib, work, pool)
    assert traced == plain
    for inst, out in zip(pool, plain):
        assert not isinstance(out, run.Raised), (inst.label, out.text)
        assert check(lib, inst, out) == [], inst.label
    silent = [name for name in TARGETS[workload] if not tracer.calls[name]]
    assert silent == []
    metrics = tracer.metrics(1, 1.0)
    assert [name for name, _, _ in PER_LAYER] == list(metrics)


def test_times_are_scaled_by_the_kernel_times_around_them():
    speed = run.HostSpeed()
    speed.samples = [run.REFERENCE_S, 2 * run.REFERENCE_S, 2 * run.REFERENCE_S,
                     2 * run.REFERENCE_S, 9 * run.REFERENCE_S, 2 * run.REFERENCE_S]
    # Measured after sample 2 at half speed: samples 1 to 4, median 2x.
    assert speed.corrected(0.8, 2) == pytest.approx(0.4)
    # The first sample has no predecessor: samples 0 to 2.
    assert speed.corrected(0.8, 0) == pytest.approx(0.4)
    mark = speed.mark()
    assert mark == len(speed.samples) - 1 and speed.samples[mark] > 0
    assert speed.mark() == mark


def test_oracles_count_wrong_outputs(library, tmp_path):
    _, _, lib = library
    for workload, key, wrong in (("invariants", "v", -1),
                                 ("normal-forms", "shape", (0, 0, 0)),
                                 ("semigroups", "v", 5)):
        pool = tiny_pool(lib, workload, tmp_path)
        inst = next(i for i in pool if i.kind != "classify-case2b2")
        out = dict(WORKLOADS[workload].run(lib, inst.payload), **{key: wrong})
        assert WORKLOADS[workload].check(lib, inst, out), workload


def test_every_library_module_is_traced():
    src = BENCH.parent / "src" / "artinlocal"
    found = {p.stem for p in src.glob("*.py")} - {"__init__", "errors"}
    assert found == set(MODULES)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "semigroups", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
