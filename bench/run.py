"""Seeded benchmark of artinlocal: one workload per run, closed loop.

Run from the repository root:

    python3 bench/run.py --workload invariants --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload semigroups --seed 1 --seconds 36 --trace 1
    python3 bench/run.py --compare base.jsonl new.jsonl

A run imports the library from ``src/`` of the checkout and builds the
workload's instance pool from the seed (set-up, repeated and timed).  It
then sends one instance at a time, the next only when the previous has
returned, in whole passes over the pool, and stops before a pass that
would end after ``--seconds``.  Between instances it times a fixed
reference kernel, and every time it reports is corrected for the host's
speed at that moment (``HostSpeed``).  The oracles check every output after
the timed passes.  With ``--trace 1`` it alternates untraced and traced
passes and reports per-layer metrics per pass instead of the end-to-end
ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out FILE``
appends the full record, run metadata included, to a JSON-lines file;
``--compare`` reads two such files.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import MODULES, PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 11
REFERENCE_EVERY_S = 0.1     # at most this long between host speed samples
REFERENCE_N = 10            # reference kernel: a 10 x 13 system over QQ
REFERENCE_SEED = 7
REFERENCE_S = 3.5e-3        # the kernel's time at the speed times are reported at
MAX_REPORTED_FAILURES = 10

# (name, unit, better) of every end-to-end metric, in report order.
END_TO_END = [
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


class LibraryMissing(RuntimeError):
    pass


# ------------------------------------------------------------------- set-up


def import_library():
    """Import artinlocal afresh from the checkout's src/ directory."""
    src = ROOT / "src"
    if not (src / "artinlocal" / "__init__.py").is_file():
        raise LibraryMissing(f"no artinlocal package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "artinlocal" or n.startswith("artinlocal.")]:
        del sys.modules[name]
    package = importlib.import_module("artinlocal")
    if Path(package.__file__).resolve().parent != (src / "artinlocal").resolve():
        raise LibraryMissing(f"artinlocal imported from {package.__file__}, not {src}")
    modules = {m: importlib.import_module(f"artinlocal.{m}") for m in MODULES}
    return package, modules


def set_up(workload, seed, workdir, speed):
    """Import the library and build the pool SETUP_REPEATS times; return the
    last library and pool with the median set-up time, each set-up's time
    corrected for the host's speed by the samples taken around it."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        before = speed.sample()
        t0 = time.perf_counter()
        package, modules = import_library()
        lib = types.SimpleNamespace(**modules)
        os.makedirs(workdir)
        pool = WORKLOADS[workload].make_pool(lib, seed, workdir)
        times.append((time.perf_counter() - t0, before))
        speed.sample()
    setup_s = statistics.median(speed.corrected(t, mark) for t, mark in times)
    return package, modules, lib, pool, setup_s


# ------------------------------------------------------------------ running


class Raised:
    """Digest of an instance whose timed work raised."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Raised) and other.text == self.text


def _reference_matrix():
    rng = random.Random(REFERENCE_SEED)
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(REFERENCE_N + 3)]
            for _ in range(REFERENCE_N)]


def reference_kernel(rows):
    """Gauss-Jordan elimination over QQ, the arithmetic the library spends
    its time in; a fixed amount of work whose time tracks the host's speed."""
    m = [list(r) for r in rows]
    n = len(m)
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c])
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return m


class HostSpeed:
    """Samples of the reference kernel's time, in time order, taken between
    instances once REFERENCE_EVERY_S seconds have passed since the last.

    The shared host slows by up to twice in phases of seconds to minutes;
    the kernel slows with it (the ratio of a workload's time to the
    kernel's moved by 3% while each moved by 25%, see bench/README.md).
    A time is reported at the speed at which the kernel takes REFERENCE_S,
    about the fastest this host runs it: multiplied by REFERENCE_S over the
    kernel's time around it."""

    def __init__(self):
        self.samples = []
        self._rows = _reference_matrix()
        self._due = 0.0

    def sample(self):
        """Time the kernel now; return the index of the sample."""
        t0 = time.perf_counter()
        reference_kernel(self._rows)
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self._due = t1 + REFERENCE_EVERY_S
        return len(self.samples) - 1

    def mark(self):
        """Sample if one is due; return the index of the latest sample."""
        if time.perf_counter() >= self._due:
            return self.sample()
        return len(self.samples) - 1

    def corrected(self, seconds, mark):
        """`seconds` measured just after sample `mark`, at the reference
        speed: the local speed is the median of the two samples before and
        the two after."""
        local = statistics.median(self.samples[max(mark - 1, 0):mark + 3])
        return seconds * REFERENCE_S / local


class Raised:
    """Digest of an instance whose timed work raised."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Raised) and other.text == self.text


def run_pass(lib, work, pool, speed=None):
    """One closed-loop pass over the pool.  Returns the pass's wall seconds,
    the digests, and per instance its wall seconds and the index of the
    host speed sample taken before it (None without `speed`)."""
    clock = time.perf_counter
    digests, times, marks = [], [], []
    start = clock()
    for inst in pool:
        if speed is not None:
            marks.append(speed.mark())
        t0 = clock()
        try:
            out = work(lib, inst.payload)
        except Exception as exc:  # noqa: BLE001 - a raise is a counted failure
            out = Raised(exc)
        times.append(clock() - t0)
        digests.append(out)
    wall = clock() - start
    if speed is not None:
        speed.sample()
    return wall, digests, times, marks


def check_outputs(lib, workload, pool, passes):
    """Failures per pass: the oracle on the first pass, then equality of
    every later pass with the first.  Returns (failed attempts, reports)."""
    check = WORKLOADS[workload].check
    first = passes[0]
    bad = {}
    for i, (inst, out) in enumerate(zip(pool, first)):
        if isinstance(out, Raised):
            bad[i] = out.text
            continue
        try:
            errs = check(lib, inst, out)
        except Exception as exc:  # noqa: BLE001 - an oracle crash is a failure
            errs = [f"oracle raised {type(exc).__name__}: {exc}"]
        if errs:
            bad[i] = "; ".join(errs)
    failed = len(bad) * len(passes)
    for k, digests in enumerate(passes[1:], start=1):
        for i, out in enumerate(digests):
            if i not in bad and out != first[i]:
                failed += 1
                bad.setdefault(i, f"output of pass {k} differs from pass 0")
    reports = [f"{pool[i].label}: {text}" for i, text in sorted(bad.items())]
    return failed, reports


def measure(lib, workload, pool, seconds, speed):
    """Untraced whole passes until the next one would end after `seconds`.
    The first pass warms up; an instance's latency is the median over the
    other passes of its time corrected for the host's speed."""
    work = WORKLOADS[workload].run
    wall, warm, _, _ = run_pass(lib, work, pool, speed)
    passes, timed = [warm], []
    while True:
        dt, digests, times, marks = run_pass(lib, work, pool, speed)
        passes.append(digests)
        timed.append((times, marks))
        wall += dt
        if wall + dt > seconds:
            break
    latency = [statistics.median(speed.corrected(times[i], marks[i]) for times, marks in timed)
               for i in range(len(pool))]
    q = statistics.quantiles(latency, n=10)
    return passes, {
        "ops_per_s": len(pool) / sum(latency),
        "latency_p50_ms": statistics.median(latency) * 1e3,
        "latency_p90_ms": q[8] * 1e3,
    }


def measure_traced(package, modules, lib, workload, pool, seconds):
    """Pairs of one untraced and one traced pass while the next pair would
    end within `seconds`.  The traced pass of a pair must reproduce the
    untraced pass's outputs exactly."""
    work = WORKLOADS[workload].run
    tracer = Tracer(package, modules)
    passes, mismatches = [], 0
    plain = traced = 0.0
    while True:
        dt_plain, digests, _, _ = run_pass(lib, work, pool)
        with tracer:
            dt_traced, traced_digests, _, _ = run_pass(lib, work, pool)
        passes.append(digests)
        mismatches += sum(a != b for a, b in zip(digests, traced_digests))
        plain += dt_plain
        traced += dt_traced
        if plain + traced + dt_plain + dt_traced > seconds:
            break
    return passes, mismatches, tracer.metrics(len(passes), traced / plain)


# ------------------------------------------------------------------ reports


def git_sha():
    """The commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_metadata(args, pool, passes, speed):
    kinds = {}
    for inst in pool:
        kinds[inst.kind] = kinds.get(inst.kind, 0) + 1
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pool_size": len(pool),
        "pool_kinds": kinds,
        "passes": len(passes),
        "reference_ms": {"min": min(speed.samples) * 1e3,
                         "median": statistics.median(speed.samples) * 1e3,
                         "samples": len(speed.samples)},
    }


def run(args):
    workdir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        speed = HostSpeed()
        package, modules, lib, pool, setup_s = set_up(args.workload, args.seed, workdir, speed)
        if args.trace:
            passes, mismatches, layer = measure_traced(
                package, modules, lib, args.workload, pool, args.seconds)
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in layer.items()}
            attempted = 2 * len(pool) * len(passes)
        else:
            passes, e2e = measure(lib, args.workload, pool, args.seconds, speed)
            e2e["setup_s"] = setup_s
            e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {name: {"value": e2e[name], "unit": unit}
                       for name, unit, _ in END_TO_END}
            attempted, mismatches = len(pool) * len(passes), 0
        failed, reports = check_outputs(lib, args.workload, pool, passes)
        if args.trace:
            failed *= 2
            if mismatches:
                failed += mismatches
                reports.append(f"{mismatches} traced outputs differ from untraced")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (BENCH / ".work").rmdir()
        except OSError:
            pass

    meta = run_metadata(args, pool, passes, speed)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"instances {attempted}  failed {failed}  fail_frac {failed / attempted:.4g}")
    for text in reports[:MAX_REPORTED_FAILURES]:
        print(f"FAIL {text}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print("meta " + json.dumps(meta))
    if args.out:
        record = dict(result, meta=meta, fail_frac=failed / attempted, failures=reports)
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


# ------------------------------------------------------------------ compare


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    """Quartile distance over the median."""
    q1, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, new, better, bound):
    """Judge new against base under the benchmark's bound for the metric."""
    if bound is None:
        return "no bound"
    b, n = statistics.median(base), statistics.median(new)
    sign = 1 if better == "lower" else -1
    worse_by = sign * (n - b) / abs(b) if b else 0.0
    wins = all(sign * (x - y) < 0 for x in new for y in base)
    if wins:
        return "better"
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    if worse_by > bound:
        return "regression"
    if -worse_by > spread(base):
        return "better"
    return "same"


def load_runs(path):
    groups = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                key = (rec["meta"]["workload"], rec["meta"]["trace"])
                groups.setdefault(key, []).append(rec)
    return groups


def compare(base_path, new_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load_runs(base_path), load_runs(new_path)
    fmt = "{:<14} {:<52} {:>12} {:>25} {:>12} {:>25} {:>14} {}"
    print(fmt.format("workload", "metric", "base median", "base [q1, q3]",
                     "new median", "new [q1, q3]", "new/base", "verdict"))
    for key in sorted(set(base) & set(new)):
        names = list(base[key][0]["metrics"])
        for name in names:
            bv = [r["metrics"][name]["value"] for r in base[key]]
            nv = [r["metrics"][name]["value"] for r in new[key]]
            unit = base[key][0]["metrics"][name]["unit"]
            bm, nm = statistics.median(bv), statistics.median(nv)
            ratio = f"{nm / bm:.3f}" if bm else "n/a"
            print(fmt.format(
                key[0] + (" (trace)" if key[1] else ""), f"{name} ({unit})",
                f"{bm:.4g}", "[{:.4g}, {:.4g}]".format(*quartiles(bv)),
                f"{nm:.4g}", "[{:.4g}, {:.4g}]".format(*quartiles(nv)),
                f"{ratio} of {bm:.4g}",
                verdict(bv, nv, better.get(name, "lower"), bounds.get(name))))
        print(f"{'':<14} runs: base {len(base[key])}, new {len(new[key])}")
    return 0


# --------------------------------------------------------------------- main


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full result record to this JSON-lines file")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                    help="compare two JSON-lines result files")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required")
    try:
        return run(args)
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
