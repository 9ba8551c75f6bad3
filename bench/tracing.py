"""Per-layer tracing of tangentcat, installed from outside the package.

``Tracer.install`` rebinds each traced function in the module that defines
it and in every loaded module that imported it with ``from ... import``, so
calls between layers (``_buchberger_core`` -> ``groebner.division``,
``kahler._module_gb`` -> ``module_buchberger``) are caught as well as calls
from the benchmark.  Nothing under ``src/`` changes.

For each traced function the tracer records calls and self time (its
duration minus the time spent in traced callees); stage spans also record
total time, counted once per outermost call so recursion is not doubled.
Work counts are read from arguments and return values at the same
boundaries; they are deterministic, so later changes can cite them beside a
time.  The wrappers cost real time (about +50% where polynomial arithmetic
dominates), which is why end-to-end metrics come from untraced runs only.

Which end-to-end metric each layer should move, and on which workload:

- groebner module_buchberger, module_normal_form, syzygy_basis:
  cases_per_s and case_ms_tail on fd-cotangent (they do not run on
  calg-classify).
- groebner ideal_basis, groebner_basis, division, normal_form,
  buchberger_extended, ring_map_kernel, morphism_graph: the same metrics
  on calg-classify.  The gb and graph cache hit ratios move cases_per_s on
  fd-cotangent and calg-classify, with peak_rss_mb as their cost.
- modlin solve_linear, retraction_solve_matrices, kernel_basis,
  matrix_rank: case_ms_tail on affine-classify; smith_form,
  integer_right_inverse, rational_rank: verify-cdc.
- kahler stage spans: per-stage attribution on fd-cotangent and
  affine-classify.
- presentations and classify: calg-classify and affine-classify.
- cdc, oracle, cli.main and polycore arithmetic: cases_per_s on verify-cdc.
"""

from __future__ import annotations

import importlib
import sys
from functools import wraps
from time import perf_counter

# (metric prefix, defining module, attribute, stage span?)
TRACED = (
    ("groebner.module_buchberger", "tangentcat.groebner", "module_buchberger", False),
    ("groebner.module_normal_form", "tangentcat.groebner", "module_normal_form", False),
    ("groebner.syzygy_basis", "tangentcat.groebner", "syzygy_basis", False),
    ("groebner.ideal_basis", "tangentcat.groebner", "ideal_basis", False),
    ("groebner.groebner_basis", "tangentcat.groebner", "groebner_basis", False),
    ("groebner.division", "tangentcat.groebner", "division", False),
    ("groebner.normal_form", "tangentcat.groebner", "normal_form", False),
    ("groebner.buchberger_extended", "tangentcat.groebner", "buchberger_extended", False),
    ("groebner.ring_map_kernel", "tangentcat.groebner", "ring_map_kernel", False),
    ("groebner.morphism_graph", "tangentcat.groebner", "morphism_graph", False),
    ("modlin.solve_linear", "tangentcat.modlin", "solve_linear", False),
    ("modlin.retraction_solve_matrices", "tangentcat.modlin", "retraction_solve_matrices", False),
    ("modlin.kernel_basis", "tangentcat.modlin", "kernel_basis", False),
    ("modlin.matrix_rank", "tangentcat.modlin", "matrix_rank", False),
    ("modlin.smith_form", "tangentcat.modlin", "smith_form", False),
    ("modlin.integer_right_inverse", "tangentcat.modlin", "integer_right_inverse", False),
    ("modlin.rational_rank", "tangentcat.modlin", "rational_rank", False),
    ("kahler.cotangent_map", "tangentcat.kahler", "cotangent_map", True),
    ("kahler.relative_kahler", "tangentcat.kahler", "relative_kahler", True),
    ("kahler.zero_module_evidence", "tangentcat.kahler", "zero_module_evidence", True),
    ("kahler.classify_cotangent", "tangentcat.kahler", "classify_cotangent", True),
    ("kahler.retraction_solve", "tangentcat.kahler", "retraction_solve", True),
    ("kahler.jacobian_split_verdict", "tangentcat.kahler", "jacobian_split_verdict", True),
    ("kahler.module_map_kernel", "tangentcat.kahler", "module_map_kernel", True),
    ("kahler.base_change_check", "tangentcat.kahler", "base_change_check", True),
    ("presentations.pushout", "tangentcat.presentations", "pushout", False),
    ("presentations.codiagonal", "tangentcat.presentations", "codiagonal", False),
    ("presentations.is_surjective", "tangentcat.presentations", "is_surjective", False),
    ("presentations.linear_section_exists", "tangentcat.presentations", "linear_section_exists", False),
    ("classify.classify_calg", "tangentcat.classify", "classify_calg", False),
    ("classify.classify_affine", "tangentcat.classify", "classify_affine", False),
    ("classify.coherence_check", "tangentcat.classify", "coherence_check", False),
    ("cdc.verify_cdc_axioms", "tangentcat.cdc", "verify_cdc_axioms", False),
    ("cdc.verify_tangent_identities", "tangentcat.cdc", "verify_tangent_identities", False),
    ("cdc.theta_composition_sides", "tangentcat.cdc", "theta_composition_sides", False),
    ("cdc.theta_flip_sides", "tangentcat.cdc", "theta_flip_sides", False),
    ("cdc.classify_linear", "tangentcat.cdc", "classify_linear", False),
    ("oracle.replay_evidence", "tangentcat.oracle", "replay_evidence", False),
    ("oracle.maps_probably_equal", "tangentcat.oracle", "maps_probably_equal", False),
    ("cli.main", "tangentcat.cli", "main", True),
    ("polycore.mul", "tangentcat.polycore", "Polynomial.__mul__", False),
    ("polycore.substitute", "tangentcat.polycore", "Polynomial.substitute", False),
    ("polycore.rename", "tangentcat.polycore", "Polynomial.rename", False),
    ("polycore.partial", "tangentcat.polycore", "Polynomial.partial", False),
)

# (metric prefix, module, lru_cache-wrapped function)
CACHES = (
    ("groebner.gb_cache", "tangentcat.groebner", "_cached_gb"),
    ("groebner.graph_cache", "tangentcat.groebner", "_cached_graph"),
    ("kahler.module_gb_cache", "tangentcat.kahler", "_module_gb"),
)


def _count_basis(counts, prefix, size, polys):
    counts[prefix + ".basis_len"] += size
    degree = max((p.degree() for p in polys if not p.is_zero()), default=0)
    counts[prefix + ".max_deg"] = max(counts[prefix + ".max_deg"], degree)


def _count_module_gb(counts, args, result):
    gens = result.generators
    _count_basis(counts, "groebner.module_buchberger", len(gens), [c for v in gens for c in v])


def _count_ideal_gb(counts, args, result):
    gens = result.generators
    _count_basis(counts, "groebner.ideal_basis", len(gens), gens)


def _count_solve(counts, args, result):
    rows = args[0]
    nrows, ncols = len(rows), (len(rows[0]) if rows else 0)
    counts["modlin.solve_linear.cells"] += nrows * ncols
    counts["modlin.solve_linear.max_rows"] = max(counts["modlin.solve_linear.max_rows"], nrows)
    counts["modlin.solve_linear.max_cols"] = max(counts["modlin.solve_linear.max_cols"], ncols)


COUNTERS = {
    "groebner.module_buchberger": (
        _count_module_gb,
        ("groebner.module_buchberger.basis_len", "groebner.module_buchberger.max_deg"),
    ),
    "groebner.ideal_basis": (
        _count_ideal_gb,
        ("groebner.ideal_basis.basis_len", "groebner.ideal_basis.max_deg"),
    ),
    "modlin.solve_linear": (
        _count_solve,
        ("modlin.solve_linear.cells", "modlin.solve_linear.max_rows",
         "modlin.solve_linear.max_cols"),
    ),
}


def metric_names():
    """Every per-layer metric a traced run reports, with its unit."""
    out = {}
    for prefix, _module, _attr, stage in TRACED:
        out[prefix + ".calls"] = "count"
        out[prefix + ".self_s"] = "s"
        if stage:
            out[prefix + ".total_s"] = "s"
    for _fn, names in COUNTERS.values():
        for name in names:
            out[name] = "count"
    for prefix, _module, _attr in CACHES:
        out[prefix + ".hit_ratio"] = "ratio"
    out["trace.overhead_ratio"] = "ratio"
    return out


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Calls, self time and total time per traced function, in memory."""

    def __init__(self):
        self.calls = {prefix: 0 for prefix, *_ in TRACED}
        self.self_s = dict.fromkeys(self.calls, 0.0)
        self.total_s = dict.fromkeys(self.calls, 0.0)
        self._depth = dict.fromkeys(self.calls, 0)
        self._child_s = []  # time spent in traced callees, per open call
        self.counts = {name: 0 for _fn, names in COUNTERS.values() for name in names}
        self._cache_start = {}

    def _wrap(self, prefix, fn):
        count = COUNTERS.get(prefix, (None,))[0]
        calls, self_s, total_s, depth, child_s = (
            self.calls, self.self_s, self.total_s, self._depth, self._child_s
        )

        @wraps(fn)
        def traced(*args, **kwargs):
            calls[prefix] += 1
            depth[prefix] += 1
            child_s.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s[prefix] += dt - child_s.pop()
                if child_s:
                    child_s[-1] += dt
                depth[prefix] -= 1
                if not depth[prefix]:
                    total_s[prefix] += dt
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def install(self):
        """Rebind every traced name and snapshot the cache statistics."""
        for prefix, module_name, attr in CACHES:
            owner, name = _resolve(module_name, attr)
            self._cache_start[prefix] = getattr(owner, name).cache_info()
        for prefix, module_name, attr, _stage in TRACED:
            owner, name = _resolve(module_name, attr)
            original = vars(owner)[name]
            wrapper = self._wrap(prefix, original)
            if isinstance(owner, type):
                setattr(owner, name, wrapper)
                continue
            for module in list(sys.modules.values()):
                if getattr(module, "__dict__", {}).get(name) is original:
                    setattr(module, name, wrapper)

    def metrics(self):
        """Per-layer values keyed by metric name, except the overhead ratio."""
        out = {}
        for prefix, _module, _attr, stage in TRACED:
            out[prefix + ".calls"] = self.calls[prefix]
            out[prefix + ".self_s"] = self.self_s[prefix]
            if stage:
                out[prefix + ".total_s"] = self.total_s[prefix]
        out.update(self.counts)
        for prefix, module_name, attr in CACHES:
            owner, name = _resolve(module_name, attr)
            now, start = getattr(owner, name).cache_info(), self._cache_start[prefix]
            hits, misses = now.hits - start.hits, now.misses - start.misses
            out[prefix + ".hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        return out
