"""Per-layer tracing of the library from outside it.

``Tracer`` wraps the public functions of each library module, and the
public methods of the classes those modules define, for the duration of a
``with`` block.  A function imported by name into other modules (for
example ``monomials_of_degree`` into ``linalg``, ``quotient``, ``bounds``,
``structure`` and ``classify7``) is replaced at every binding site, the
package namespace included, so that a call through any of them is seen.

A wrapped call is either a timed span or, for the functions in
``COUNT_ONLY`` that run millions of times per pass, a bare call counter
whose time stays with the enclosing span.  A span's self time is its
duration minus the durations of the spans it directly encloses; a
module's self time is the sum over its functions.  Properties,
classmethods and the methods of the scalar field classes are not wrapped:
timing each field operation would cost more than the operation.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict

MODULES = ("scalars", "polynomials", "linalg", "quotient", "bounds",
           "structure", "classify7", "semigroups", "cli")

# Called 10^4 to 10^6 times per pass, mostly for microseconds each; a timed
# span here would dominate the traced run, so these only count.
COUNT_ONLY = frozenset({
    "linalg.SparseEchelon.add",
    "linalg.SparseEchelon.reduce",
    "linalg.SparseEchelon.contains",
    "linalg.shifted_row",
    "linalg.row_from_poly",
    "linalg.poly_from_row",
    "linalg.MonomialTable.deg",
    "polynomials.mono_key",
    "polynomials.mono_mul",
    "polynomials.Polynomial.map_field",
})

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("cli.read_ideal_file.self_s", "s", "lower"),
    ("polynomials.monomials_of_degree.calls", "count", "lower"),
    ("polynomials.monomials_of_degree.self_s", "s", "lower"),
    ("polynomials.Polynomial.substitute.self_s", "s", "lower"),
    ("polynomials.RingMap.apply.self_s", "s", "lower"),
    ("linalg.SparseEchelon.add.calls", "count", "lower"),
    ("linalg.SparseEchelon.add.kept", "count", "lower"),
    ("linalg.row_keep_ratio", "ratio", "higher"),
    ("linalg.SparseEchelon.reduce.calls", "count", "lower"),
    ("linalg.solve_dense.calls", "count", "lower"),
    ("linalg.solve_dense.self_s", "s", "lower"),
    ("linalg.nullspace_dense.self_s", "s", "lower"),
    ("quotient.build_quotient.calls", "count", "lower"),
    ("quotient.build_quotient.self_s", "s", "lower"),
    ("quotient.build_rounds", "calls/build", "lower"),
    ("quotient.truncation_overshoot", "degree", "lower"),
    ("quotient.macaulay_echelon.calls", "count", "lower"),
    ("quotient.macaulay_echelon.self_s", "s", "lower"),
    ("quotient.min_gens.self_s", "s", "lower"),
    ("quotient.leading_forms.self_s", "s", "lower"),
    ("quotient.ArtinAlgebra.socle.self_s", "s", "lower"),
    ("quotient.row_space_equal.calls", "count", "lower"),
    ("quotient.row_space_equal.self_s", "s", "lower"),
    ("quotient.nth_root.calls", "count", "lower"),
    ("quotient.nth_root.self_s", "s", "lower"),
    ("quotient.extend_scalars.calls", "count", "lower"),
    ("quotient.extend_scalars.self_s", "s", "lower"),
    ("quotient.ArtinAlgebra.nf.calls", "count", "lower"),
    ("quotient.ArtinAlgebra.coords.calls", "count", "lower"),
    ("bounds.lex_segment.self_s", "s", "lower"),
    ("structure.normalize.calls", "count", "lower"),
    ("structure.find_lean_basis.calls", "count", "lower"),
    ("structure.find_lean_basis.self_s", "s", "lower"),
    ("structure.normalize_units.self_s", "s", "lower"),
    ("structure.solve_element_combo.self_s", "s", "lower"),
    ("classify7.classify_ideal.self_s", "s", "lower"),
    ("classify7.classify.self_s", "s", "lower"),
    ("scalars.adjoin_sqrt.calls", "count", "lower"),
    ("scalars.max_tower_depth", "depth", "lower"),
    ("semigroups.factorization_graph.calls", "count", "lower"),
    ("semigroups.factorization_graph.self_s", "s", "lower"),
    ("semigroups.betti_hit_ratio", "ratio", "higher"),
    ("semigroups.NumericalSemigroup.factorizations.calls", "count", "lower"),
    ("semigroups.semigroup_invariants.self_s", "s", "lower"),
    ("semigroups.NumericalSemigroup.is_symmetric.self_s", "s", "lower"),
] + [(f"{m}.self_s", "s", "lower") for m in MODULES] + [
    ("trace.overhead_ratio", "ratio", "lower"),
]

ROOT = "<benchmark>"


def _public_functions(modules):
    """(qualified name, owner class or None, attribute name, function) for
    every public function defined in the modules and every public method
    of their classes, scalar field classes excepted."""
    found = []
    for short, mod in modules.items():
        for name, val in vars(mod).items():
            if name.startswith("_") or getattr(val, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(val):
                found.append((f"{short}.{name}", None, name, val))
            elif inspect.isclass(val) and short != "scalars":
                for mname, mval in vars(val).items():
                    if not mname.startswith("_") and inspect.isfunction(mval):
                        found.append((f"{short}.{name}.{mname}", val, mname, mval))
    return found


class Tracer:
    """Counts and self times of the library's public functions.

    ``modules`` maps each short module name of ``MODULES`` to the imported
    module; ``package`` is the imported package, whose re-exports are
    binding sites too.  Totals accumulate over every ``with`` block.
    """

    def __init__(self, package, modules):
        self.package = package
        self.modules = modules
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.edges = Counter()          # (enclosing span, span) -> calls
        self.kept = 0                   # SparseEchelon.add calls that grew the span
        self.overshoot = 0              # sum of A.D - (socle degree + 2) over builds
        self.tower_depth = 0            # deepest field adjoin_sqrt returned
        self.split_graphs = 0           # factorization graphs with > 1 component
        self._stack = [[ROOT, 0.0]]
        self._saved = []
        self._hooks = {
            "linalg.SparseEchelon.add": self._on_add,
            "quotient.build_quotient": self._on_build,
            "scalars.adjoin_sqrt": self._on_adjoin,
            "semigroups.factorization_graph": self._on_graph,
        }

    # ------------------------------------------------------------ hooks

    def _on_add(self, grew):
        self.kept += bool(grew)

    def _on_build(self, A):
        self.overshoot += A.D - (A.socle_degree + 2)

    def _on_adjoin(self, field):
        self.tower_depth = max(self.tower_depth, field.depth)

    def _on_graph(self, graph):
        self.split_graphs += graph.components > 1

    # --------------------------------------------------------- wrappers

    def _counter(self, qual, fn):
        calls = self.calls
        hook = self._hooks.get(qual)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[qual] += 1
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(result)
            return result
        return counted

    def _span(self, qual, fn):
        calls, self_s, edges, stack = self.calls, self.self_s, self.edges, self._stack
        hook = self._hooks.get(qual)
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            calls[qual] += 1
            edges[stack[-1][0], qual] += 1
            frame = [qual, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[qual] += dt - frame[1]
                stack[-1][1] += dt
            if hook is not None:
                hook(result)
            return result
        return spanned

    def __enter__(self):
        functions = {}
        for qual, owner, name, fn in _public_functions(self.modules):
            wrapped = (self._counter if qual in COUNT_ONLY else self._span)(qual, fn)
            if owner is None:
                functions[fn] = wrapped
            else:
                self._saved.append((owner, name, fn))
                setattr(owner, name, wrapped)
        for mod in [self.package, *self.modules.values()]:
            for name, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in functions:
                    self._saved.append((mod, name, val))
                    setattr(mod, name, functions[val])
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()
        return False

    # ---------------------------------------------------------- metrics

    def metrics(self, passes, overhead_ratio):
        """Every PER_LAYER metric as name -> (value, unit), per pass."""
        calls, self_s = self.calls, self.self_s
        builds = calls["quotient.build_quotient"]
        adds = calls["linalg.SparseEchelon.add"]
        graphs = calls["semigroups.factorization_graph"]
        derived = {
            "linalg.SparseEchelon.add.kept": self.kept / passes,
            "linalg.row_keep_ratio": self.kept / adds if adds else 0.0,
            "quotient.build_rounds":
                self.edges["quotient.build_quotient", "quotient.macaulay_echelon"]
                / builds if builds else 0.0,
            "quotient.truncation_overshoot": self.overshoot / builds if builds else 0.0,
            "scalars.max_tower_depth": self.tower_depth,
            "semigroups.betti_hit_ratio": self.split_graphs / graphs if graphs else 0.0,
            "trace.overhead_ratio": overhead_ratio,
        }
        for short in MODULES:
            derived[f"{short}.self_s"] = sum(
                t for qual, t in self_s.items() if qual.startswith(short + ".")) / passes
        out = {}
        for name, unit, _ in PER_LAYER:
            if name in derived:
                value = derived[name]
            elif name.endswith(".calls"):
                value = calls[name[:-len(".calls")]] / passes
            else:
                value = self_s[name[:-len(".self_s")]] / passes
            out[name] = (value, unit)
        return out
