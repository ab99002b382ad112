"""Outside-in layer tracing: wrap the program's public functions, then restore.

A wrapped name is replaced at every binding inside the ``wildcat`` package
(``engine.spin_algebra`` as well as ``algebra.spin_algebra``, the package
namespace, and a method's aliases such as ``Scalar.__rmul__``), so calls are
seen whichever binding the caller uses; names a module imports at call time
are read from the patched module.  Self time is a span's duration minus the
time of the spans it encloses.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

# (module, function): the layers of the stability engine and the sampler
SPANS = [
    ("instances", "parse_instance"),
    ("engine", "normalize_point"),
    ("engine", "galois_generators"),
    ("engine", "is_polystable"),
    ("engine", "stabilizer_lie_dim"),
    ("engine", "levi_reduction"),
    ("algebra", "spin_algebra"),
    ("algebra", "radical_trace"),
    ("algebra", "invariant_subspace"),
    ("algebra", "commutant"),
    ("algebra", "invariant_complement"),
    ("algebra", "decompose_irreducibles"),
    ("algebra", "factor_over_field"),
    ("linalg", "kernel"),
    ("linalg", "linear_solve"),
    ("stokes", "build_scaffold"),
    ("stokes", "grouped_directions"),
    ("stokes", "random_candidate"),
    ("stokes", "verify_candidate"),
    ("stokes", "to_framed_point"),
]

# (module, class, method, metric): counted in a separate pass, since a
# Python-level wrapper on methods this hot would swamp every span around them
COUNTED_METHODS = [
    ("linalg", "Matrix", "__matmul__", "linalg.Matrix.matmul.calls"),
    ("scalars", "Scalar", "__mul__", "scalars.Scalar.mul.calls"),
]


def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "wildcat" or name.startswith("wildcat."))]


def _lookup(module_name, attr):
    """The named object, or None (noted on stderr) once the program drops it."""
    found = getattr(sys.modules.get(module_name), attr, None)
    if found is None:
        print(f"layer {module_name}.{attr} not found: reported as 0", file=sys.stderr)
    return found


class _Patches:
    """Replace every binding of an object inside the package; undo on exit."""

    def __init__(self):
        self.undo = []

    def replace(self, owners, original, replacement):
        for owner in owners:
            for name, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, name, replacement)
                    self.undo.append((owner, name, original))

    def restore(self):
        for owner, name, original in reversed(self.undo):
            setattr(owner, name, original)
        self.undo.clear()


class Tracer:
    """Span calls and self time, plus the work counters the spans observe."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.work = defaultdict(int)
        self._stack = []

    def _observe(self, name, result):
        if name == "algebra.spin_algebra":
            self.work["spin_dims"] += result.dim
            self.work["spin_full"] += result.dim == result.ambient_n ** 2
        elif name == "algebra.radical_trace":
            self.work["radical_dims"] += result.dim
        elif name == "stokes.random_candidate":
            self.work["sample_ok"] += 1

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                self._stack.pop()
                self.calls[name] += 1
                self.self_s[name] += took - children[0]
                if self._stack:
                    self._stack[-1][0] += took
            self._observe(name, result)
            return result
        return span

    def install(self, patches: _Patches):
        modules = _package_modules()
        for mod_name, attr in SPANS:
            original = _lookup(f"wildcat.{mod_name}", attr)
            if original is not None:
                patches.replace(modules, original, self.wrap(f"{mod_name}.{attr}", original))

    def metrics(self):
        out = {}
        for mod_name, attr in SPANS:
            name = f"{mod_name}.{attr}"
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        spins = self.calls["algebra.spin_algebra"]
        samples = self.calls["stokes.random_candidate"]
        out["algebra.spin_algebra.dim_sum"] = (self.work["spin_dims"], "count")
        out["algebra.spin_algebra.full_frac"] = (
            self.work["spin_full"] / spins if spins else 0.0, "ratio")
        out["algebra.radical_trace.radical_dim_sum"] = (self.work["radical_dims"], "count")
        out["stokes.random_candidate.success_frac"] = (
            self.work["sample_ok"] / samples if samples else 0.0, "ratio")
        return out


class CallCounter:
    """Counts calls of hot methods (all class bindings, aliases included)."""

    def __init__(self):
        self.counts = defaultdict(int)

    def install(self, patches: _Patches):
        for mod_name, cls_name, method, metric in COUNTED_METHODS:
            cls = _lookup(f"wildcat.{mod_name}", cls_name)
            original = None if cls is None else vars(cls).get(method)
            if original is not None:
                patches.replace([cls], original, self._counting(metric, original))

    def _counting(self, metric, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)
        return counted


@contextlib.contextmanager
def installed(recorder):
    """Run the block with the recorder's wrappers in place (Tracer or CallCounter)."""
    patches = _Patches()
    try:
        recorder.install(patches)
        yield recorder
    finally:
        patches.restore()
