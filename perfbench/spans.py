"""Spans around calls into the package's layers, recorded from outside.

``Tracer.install`` replaces the traced functions in every ``trigdunkl``
module namespace that binds them, so each caller (for example
``trigdunkl.verify.apply_V`` and ``trigdunkl.operators.apply_V``) goes
through a wrapper; ``uninstall`` restores the originals.  Spans stay in
memory as (name, start, end, parent, attrs) and are reduced to per-layer
figures by ``summarize``.  A span's self time is its duration minus the
time its child spans cover.
"""

import sys
import time
from dataclasses import dataclass, replace

import numpy as np

# (module, attribute) -> span name.  _kernel_values is the batched kernel
# entry and the only path by which operators reaches kernel.
TRACED = {
    ("specfun", "opdam_G"): "specfun.opdam_G",
    ("specfun", "hyp2f1"): "specfun.hyp2f1",
    ("quadrature", "_gauss_jacobi_arrays"): "quadrature.gj",
    ("quadrature", "_tanh_sinh_full"): "quadrature.ts",
    ("kernel", "kernel_K"): "kernel.kernel_K",
    ("kernel", "kernel_K_mourou"): "kernel.kernel_K_mourou",
    ("kernel", "_kernel_values"): "kernel.batch",
    ("operators", "apply_V"): "operators.apply_V",
    ("operators", "duality_gap"): "operators.duality_gap",
    ("operators", "intertwine_gap"): "operators.intertwine_gap",
    ("operators", "positivity_scan"): "operators.positivity_scan",
    ("cli", "main"): "cli.main",
}
SUITES = ("eigen", "duality", "intertwine", "kernel-consistency", "positivity", "limits")
_RULE_SPANS = ("quadrature.gj", "quadrature.ts")


@dataclass
class CountingFunction:
    """Callable that counts the points a TestFunction is evaluated at."""

    fn: object
    points: int = 0

    def __call__(self, y):
        self.points += getattr(y, "size", 1)
        return self.fn(y)


class Tracer:
    """Spans of the calls the workload makes into an imported trigdunkl."""

    def __init__(self, trigdunkl):
        self.pkg = trigdunkl
        self.modules = [m for n, m in sorted(sys.modules.items())
                        if n == "trigdunkl" or n.startswith("trigdunkl.")]
        self.spans = []
        self.stack = []
        self.originals = []     # (owner, attribute, original)
        self.counters = []      # CountingFunctions of the wrapped test functions
        self.gj_cached = trigdunkl.quadrature._gauss_jacobi_arrays
        self.ts_cached = trigdunkl.quadrature._tanh_sinh_full
        self._ts_sizes = {}

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        """Wrapper recording a span; ``before(args, kwargs)`` runs ahead of
        the call and ``after`` maps its result to the span's attributes."""
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            token = before(args, kwargs) if before else None
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, after(token) if after else token)

        traced.__wrapped__ = fn
        return traced

    def _ts_size(self, level):
        # rule size from the uncached generator, so the count leaves the
        # cache statistics alone
        if level not in self._ts_sizes:
            self._ts_sizes[level] = len(self.ts_cached.__wrapped__(level)[0])
        return self._ts_sizes[level]

    def _batch_attrs(self, args, kwargs):
        """(points, node evaluations) of a _kernel_values call."""
        k, x, y = args[:3]
        gap = kwargs.get("gap")
        points = (np.broadcast(x, y) if gap is None else np.broadcast(x, y, gap)).size
        numerics = self.pkg.config.NUMERICS
        if k.real_positive:
            size = kwargs.get("nodes") or numerics.jacobi_nodes
        else:
            size = self._ts_size(kwargs.get("level") or numerics.tanh_sinh_level)
        return points, points * size

    def install(self):
        targets = {}
        for (mod, attr), name in TRACED.items():
            module = getattr(self.pkg, mod, None)
            if module is None:      # not imported by this workload
                continue
            fn = getattr(module, attr)
            if name == "kernel.batch":
                wrapper = self._wrap(name, fn, self._batch_attrs)
            elif name in _RULE_SPANS:
                # attrs: whether this call missed the cache
                wrapper = self._wrap(name, fn, lambda a, k, c=fn: c.cache_info().misses,
                                     lambda m, c=fn: c.cache_info().misses > m)
            else:
                wrapper = self._wrap(name, fn)
            targets[id(fn)] = (fn, wrapper)
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if id(value) in targets and targets[id(value)][0] is value:
                    self.originals.append((module, attr, value))
                    setattr(module, attr, targets[id(value)][1])
        verify = getattr(self.pkg, "verify", None)
        if verify is not None:
            for key in SUITES:
                self.originals.append((verify.SUITES, key, verify.SUITES[key]))
                verify.SUITES[key] = self._wrap(f"verify.{key}", verify.SUITES[key])

    def uninstall(self):
        for owner, attr, value in self.originals:
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self.originals.clear()

    def count_function(self, f):
        """A copy of TestFunction f whose evaluations are counted."""
        counter = CountingFunction(f.eval)
        self.counters.append(counter)
        return replace(f, eval=counter)

    # -- one pass -----------------------------------------------------------

    def start_pass(self):
        self.spans.clear()
        for c in self.counters:
            c.points = 0
        self.cache_before = (self.gj_cached.cache_info(), self.ts_cached.cache_info())

    def summarize(self):
        """Per-layer figures of the spans recorded since ``start_pass``."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        total, self_s, calls = {}, {}, {}
        batch_points = batch_evals = max_points = 0
        rule_gen = 0.0
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            dur = end - start
            total[name] = total.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + dur - child[i]
            calls[name] = calls.get(name, 0) + 1
            if name == "kernel.batch":
                batch_points += attrs[0]
                batch_evals += attrs[1]
                max_points = max(max_points, attrs[0])
            elif name in _RULE_SPANS and attrs:
                rule_gen += dur
        gj0, ts0 = self.cache_before
        gj1, ts1 = self.gj_cached.cache_info(), self.ts_cached.cache_info()
        gj_hits, gj_misses = gj1.hits - gj0.hits, gj1.misses - gj0.misses
        out = {
            "quadrature.gj.misses": gj_misses,
            # a pass without rule lookups has missed nothing
            "quadrature.gj.hit_ratio": gj_hits / (gj_hits + gj_misses) if gj_hits + gj_misses else 1.0,
            "quadrature.ts.misses": ts1.misses - ts0.misses,
            "quadrature.rule_gen_s": rule_gen,
            "kernel.batch.points": batch_points,
            "kernel.batch.node_evals": batch_evals,
            "kernel.batch.max_points": max_points,
            "kernel.node_evals_per_s": batch_evals / total["kernel.batch"] if batch_evals else 0.0,
            "operators.f_evals": sum(c.points for c in self.counters),
            "cli.self_s": self_s.get("cli.main", 0.0),
        }
        for name in ("kernel.kernel_K", "kernel.kernel_K_mourou", "kernel.batch",
                     "operators.apply_V", "specfun.opdam_G", "specfun.hyp2f1"):
            out[f"{name}.calls"] = calls.get(name, 0)
        for name in ("kernel.batch", "operators.apply_V", "operators.duality_gap",
                     "operators.intertwine_gap", "operators.positivity_scan",
                     "specfun.opdam_G", "specfun.hyp2f1"):
            out[f"{name}.s"] = total.get(name, 0.0)
        for name in ("kernel.kernel_K", "kernel.kernel_K_mourou", "operators.apply_V",
                     "operators.duality_gap", "operators.intertwine_gap",
                     "operators.positivity_scan"):
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for key in SUITES:
            out[f"verify.{key}.s"] = total.get(f"verify.{key}", 0.0)
        return out
