"""The four workloads, each one object with everything the benchmark needs.

A workload supplies:

* ``make_jobs(seed, size)``: its inputs, a pure function of (seed, size),
  in plain Python so that the reference generator can rebuild the exact
  inputs of a run without importing the package under test;
* ``prepare(trigdunkl, jobs)``: library objects for the jobs (timed as
  part of the set-up);
* ``run(trigdunkl, prepared, scratch)``: one timed pass;
* ``encode(raw, scratch)``: the JSON-ready outputs of a pass;
* ``reference_tasks(jobs)``: the unique mpmath references it is checked on;
* ``check(jobs, out, refs, tally)``: judge one pass's outputs into ``tally``
  and return whether the workload's pass condition held;
* ``count_test_functions(prepared, wrap)``: the prepared inputs with their
  test functions wrapped for the traced run's evaluation count.

All calls go through package attributes looked up at call time, so the
tracer's wrappers see them.  Point jobs are tuples:

    ("G", k1, k2, lam, x)     opdam_G(k, lam, x)
    ("V", k1, k2, lam, x)     apply_V(k, plane_wave(lam), x), reference G
    ("K", k1, k2, x, y)       kernel_K(k, x, y)
    ("KM", k1, k2, x, y)      kernel_K_mourou(k, x, y)
"""

import importlib
import json
import os
import random

import check

# "full" is what the benchmark measures; "mini" keeps every code path but is
# small enough for the benchmark's own tests.
SIZES = ("full", "mini")

X_MIN, X_MAX = 0.3, 3.0
REAL_K = (0.1, 3.0)
COMPLEX_K_RE = (0.2, 1.5)
COMPLEX_K_IM = (-0.5, 0.5)


def _rng(name, seed):
    # str seeds hash through sha512, so they do not depend on PYTHONHASHSEED
    return random.Random(f"{name}:{seed}")


def _complex_k(rng):
    return complex(rng.uniform(*COMPLEX_K_RE), rng.uniform(*COMPLEX_K_IM))


def _signed_x(rng):
    return rng.choice((-1.0, 1.0)) * rng.uniform(X_MIN, X_MAX)


class Workload:
    name = None

    def reference_tasks(self, jobs):
        return []

    def count_test_functions(self, prepared, wrap):
        return prepared


class VerifyAll(Workload):
    """``trigdunkl verify`` in-process on the fixed acceptance grids.

    The seed does not apply.  It passes if the command exits 0 and every row
    passes; each row is a job, and so is the command's exit code.
    """

    name = "verify_all"
    SUITE = {"full": "all", "mini": "limits"}
    # gap is 0 by construction for a positive cell: no digits
    POSITIVITY_CHECKS = ("kernel_positive", "scan_min_positive")

    def make_jobs(self, seed, size="full"):
        return [("VERIFY", self.SUITE[size])]

    def prepare(self, trigdunkl, jobs):
        importlib.import_module("trigdunkl.cli")    # the command's import is set-up
        return jobs[0][1]

    def run(self, trigdunkl, suite, scratch):
        if os.path.exists(scratch):
            os.unlink(scratch)
        return trigdunkl.cli.main(["verify", "--suite", suite, "--format", "json",
                                   "--out", scratch])

    def encode(self, raw, scratch):
        try:
            with open(scratch, encoding="utf-8") as fh:
                rows = json.load(fh)
        except FileNotFoundError:
            rows = []
        return {"exit": raw, "rows": [[r["check"], r["gap"], r["pass"]] for r in rows]}

    def check(self, jobs, out, refs, tally):
        tally.add(out["exit"] == 0)
        for check_name, gap, passed in out["rows"]:
            tally.add(passed, None if check_name in self.POSITIVITY_CHECKS
                      else check.digits_of(gap))
        return out["exit"] == 0 and bool(out["rows"]) and all(r[2] for r in out["rows"])


class ScanDense(Workload):
    """One ``positivity_scan`` per pass over a seeded grid.

    At full size 144 real (k1, k2) pairs need 288 Gauss-Jacobi rules, more
    than the 256-entry rule cache.  Every cell must be positive and a sample
    of cells, stratified by y-fraction so that cells next to the diagonal
    y = -x are always among them, must match the kernel reference.
    """

    name = "scan_dense"
    SIZES = {"full": (144, 11, 2), "mini": (3, 1, 1)}   # pairs, random fracs, samples per frac
    FIXED_FRACS = (-0.9999, 0.9999, -0.99, 0.99)
    X_BANDS = ((0.3, 1.2), (1.2, 2.1), (2.1, 3.0))

    def make_jobs(self, seed, size="full"):
        n_pairs, n_fracs, per_frac = self.SIZES[size]
        rng = _rng(self.name, seed)
        pairs = [(rng.uniform(*REAL_K), rng.uniform(*REAL_K)) for _ in range(n_pairs)]
        xs = [sign * rng.uniform(lo, hi) for sign in (1.0, -1.0) for lo, hi in self.X_BANDS]
        fracs = list(self.FIXED_FRACS) + [rng.uniform(-0.95, 0.95) for _ in range(n_fracs)]
        samples = []
        for j in range(len(fracs)):
            for _ in range(per_frac):
                i, m = rng.randrange(len(pairs)), rng.randrange(len(xs))
                samples.append((i * len(xs) + m) * len(fracs) + j)
        return [("SCAN", pairs, xs, fracs, samples)]

    def prepare(self, trigdunkl, jobs):
        _, pairs, xs, fracs, _ = jobs[0]
        return pairs, xs, fracs

    def run(self, trigdunkl, prepared, scratch):
        return trigdunkl.positivity_scan(*prepared)

    def encode(self, raw, scratch):
        return {"all_positive": raw.all_positive, "values": [c[4] for c in raw.cells]}

    @staticmethod
    def cell(pairs, xs, fracs, cell):
        """(k1, k2, x, y) of flat cell index ``cell`` in positivity_scan's order."""
        nf, nx = len(fracs), len(xs)
        j = cell % nf
        m = (cell // nf) % nx
        i = cell // (nf * nx)
        k1, k2 = pairs[i]
        return k1, k2, xs[m], fracs[j] * abs(xs[m])

    def _sampled(self, job):
        _, pairs, xs, fracs, samples = job
        return {cell: ("K",) + self.cell(pairs, xs, fracs, cell) for cell in samples}

    def reference_tasks(self, jobs):
        return list(dict.fromkeys(self._sampled(jobs[0]).values()))

    def check(self, jobs, out, refs, tally):
        _, pairs, xs, fracs, _ = jobs[0]
        values = out["values"]
        if len(values) != len(pairs) * len(xs) * len(fracs):
            raise RuntimeError(f"scan_dense: {len(values)} cells for a "
                               f"{len(pairs)}x{len(xs)}x{len(fracs)} grid")
        judged = {cell: check.judge((values[cell], 0.0), refs[task], "K")
                  for cell, task in self._sampled(jobs[0]).items()}
        passed = out["all_positive"]
        tally.add(out["all_positive"])
        for cell, v in enumerate(values):
            ok, digits = judged.get(cell, (True, None))
            ok = ok and v > 0.0
            tally.add(ok, digits)
            passed = passed and ok
        return passed


class PointJobs(Workload):
    """A list of independent point evaluations, each judged on its own."""

    FAILURES = ("NonConvergenceError", "EvaluationError")

    def must_pass(self, job):
        return True

    def prepare(self, trigdunkl, jobs):
        out = []
        for kind, k1, k2, a, b in jobs:
            k = trigdunkl.Multiplicity(k1, k2)
            out.append((kind, k, trigdunkl.plane_wave(a) if kind == "V" else a, b))
        return out

    def count_test_functions(self, prepared, wrap):
        return [(kind, k, wrap(a) if kind == "V" else a, b) for kind, k, a, b in prepared]

    def run(self, trigdunkl, prepared, scratch):
        failures = tuple(getattr(trigdunkl, name) for name in self.FAILURES)
        fns = {
            "G": trigdunkl.opdam_G,
            "V": lambda k, f, x: trigdunkl.apply_V(k, f, x).value,
            "K": lambda k, x, y: trigdunkl.kernel_K(k, x, y).value,
            "KM": lambda k, x, y: trigdunkl.kernel_K_mourou(k, x, y).value,
        }
        out = []
        for kind, k, a, b in prepared:
            try:
                out.append(fns[kind](k, a, b))
            except failures as exc:
                out.append(exc)
        return out

    def encode(self, raw, scratch):
        """complex as [re, im], a raised error as its text"""
        out = []
        for v in raw:
            if isinstance(v, Exception):
                out.append(f"{type(v).__name__}: {v}")
            else:
                v = complex(v)
                out.append([v.real, v.imag])
        return out

    @staticmethod
    def _task(job):
        kind, *args = job
        return ("G" if kind in ("G", "V") else "K", *args)

    def reference_tasks(self, jobs):
        return list(dict.fromkeys(self._task(job) for job in jobs))

    def check(self, jobs, out, refs, tally):
        if len(out) != len(jobs):
            raise RuntimeError(f"{self.name}: {len(out)} outputs for {len(jobs)} jobs")
        passed = True
        for job, value in zip(jobs, out):
            ok, digits = check.judge(value, refs[self._task(job)], job[0])
            tally.add(ok, digits)
            passed = passed and (ok or not self.must_pass(job))
        return passed


class ComplexK(PointJobs):
    """Seeded complex multiplicities: apply_V, kernel_K and kernel_K_mourou.

    Few large batched tanh-sinh kernel evaluations inside V; no Gauss-Jacobi
    rules.  Every job must pass.
    """

    name = "complex_k"
    SIZES = {"full": (4, 2, 25, 13), "mini": (2, 1, 2, 1)}  # k pairs, V, K, KM per pair
    LAM_MAX = 2.5

    def make_jobs(self, seed, size="full"):
        n_k, n_v, n_points, n_mourou = self.SIZES[size]
        rng = _rng(self.name, seed)
        jobs = []
        for _ in range(n_k):
            k1, k2 = _complex_k(rng), _complex_k(rng)
            for _ in range(n_v):
                jobs.append(("V", k1, k2, rng.uniform(0.0, self.LAM_MAX), _signed_x(rng)))
            for i in range(n_points):
                x = _signed_x(rng)
                y = rng.uniform(-0.95, 0.95) * abs(x)
                jobs.append(("K", k1, k2, x, y))
                if i < n_mourou:
                    jobs.append(("KM", k1, k2, x, y))
        return jobs


class Spectral(PointJobs):
    """opdam_G over lam in [0, 20], x in [-3, 3], k real and complex.

    Stratified over (lam, x) cells so that the share of large-lam, large-|x|
    points, where hyp2f1 loses accuracy, is the same in every seed; k
    alternates between real and complex.  Failures at lam >= KNOWN_DEFECT_LAM
    are the known hyp2f1 defect: they are counted in fail_frac, and any
    failure below it makes the run incorrect.
    """

    name = "spectral"
    SIZES = {"full": (10, 12, 25), "mini": (2, 2, 2)}   # lam bands, x bands, per cell
    LAM_MAX = 20.0
    KNOWN_DEFECT_LAM = 12.0

    def must_pass(self, job):
        return job[3] < self.KNOWN_DEFECT_LAM

    def make_jobs(self, seed, size="full"):
        nl, nx, per_cell = self.SIZES[size]
        rng = _rng(self.name, seed)
        jobs = []
        for a in range(nl):
            for b in range(nx):
                for c in range(per_cell):
                    lam = self.LAM_MAX * (a + rng.random()) / nl
                    x = -X_MAX + 2.0 * X_MAX * (b + rng.random()) / nx
                    if c % 2:
                        k1, k2 = _complex_k(rng), _complex_k(rng)
                    else:
                        k1, k2 = rng.uniform(*REAL_K), rng.uniform(*REAL_K)
                    jobs.append(("G", k1, k2, lam, x))
        return jobs


WORKLOADS = {w.name: w for w in (VerifyAll(), ScanDense(), ComplexK(), Spectral())}
