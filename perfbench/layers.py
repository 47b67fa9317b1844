"""Per-layer tracing of cfreeconv from outside the package.

The layers are the package's modules.  ``Tracer.install`` replaces each listed
public function, wherever a ``cfreeconv`` module binds it, with a wrapper that
records a span (name, start, end, parent) while the tracer is active.  Spans
live in flat arrays and are written out once, at the end of a traced run.
A function's self time is its spans' durations minus the time covered by
their child spans; the package is single-threaded, so spans nest and never
overlap, and no layer has queue or wait time.

Partition-sum routes form the ``oracles`` layer and are found by function
name in whichever module defines them, so the names survive moving them.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array

# layer -> traced functions.  "Class.method" names a method; "short:target"
# traces ``target`` and reports it as ``short``.
LAYERS = {
    "series": ["mul:TruncatedSeries.__mul__", "compose:TruncatedSeries.compose", "reciprocal:TruncatedSeries.reciprocal",
               "invert_composition:TruncatedSeries.invert_composition"],
    "cumulants": ["free_cumulants_from_moments", "cfree_cumulants_from_moments", "moments_from_free_cumulants",
                  "phi_moments_from_cfree_cumulants"],
    "transforms": ["t_transform", "ct_transform", "sigma_series", "moments_from_t", "phi_moments_from_ct", "eta",
                   "b_series", "TransformBundle.multiply"],
    "measures": ["cfree_multiplicative_convolve", "free_multiplicative_convolve", "boolean_convolve", "idiv_free_measure",
                 "semigroup_pair", "limit_experiment", "CircleMeasure.moment_series", "toeplitz_psd_check"],
    "partitions": ["enumerate_nc", "enumerate_nc_0", "enumerate_ncl", "kreweras"],
    "oracles": ["boxed_convolution", "moments_from_free_cumulants_nc_sum", "phi_moments_nc_sum",
                "psi_moments_via_linked_blocks", "phi_moments_via_linked_blocks", "product_psi_cumulants",
                "product_phi_cumulants"],
}
# Which end-to-end metrics a change to each layer should move, on which
# workload: the prediction a later change is held to.
LAYER_EFFECTS = {
    "series": "ops_per_s and op_tail_ms on exact_convolve; op_tail_ms on approx_highorder; almost nothing on oracle_crosscheck or cli_small",
    "cumulants": "ops_per_s on exact_convolve and approx_highorder",
    "transforms": "ops_per_s and op_tail_ms on exact_convolve and approx_highorder; sigma_series.failed moves ok_ratio on approx_highorder",
    "measures": "limit_experiment moves op_p50_ms on approx_highorder; the rest ops_per_s on exact_convolve and approx_highorder",
    "partitions": "ops_per_s, setup_s and peak_rss_mb on oracle_crosscheck; none on exact_convolve or approx_highorder, which never enumerate",
    "oracles": "ops_per_s and op_tail_ms on oracle_crosscheck only",
    "cli": "op_p50_ms, ops_per_s and ok_ratio on cli_small",
}

FAILURE_COUNTED = ("transforms.sigma_series", "measures.cfree_multiplicative_convolve",
                   "measures.free_multiplicative_convolve", "measures.boolean_convolve")
PARTITION_ENUMERATORS = ("enumerate_nc", "enumerate_nc_0", "enumerate_ncl", "kreweras")


def span_names():
    """Every traced span name, as ``<layer>.<function>``."""
    out = []
    for layer, entries in LAYERS.items():
        for entry in entries:
            out.append(f"{layer}.{entry.split(':')[0]}")
    return out


def _modules():
    return [m for name, m in sorted(sys.modules.items()) if m is not None and (name == "cfreeconv" or name.startswith("cfreeconv."))]


def find_function(name):
    """The package object called ``name`` ("f" or "Class.attr"), from any module."""
    head, _, attr = name.partition(".")
    for module in _modules():
        obj = module.__dict__.get(head)
        if obj is None:
            continue
        if not attr:
            return obj
        if attr in vars(obj):
            return vars(obj)[attr]
    raise LookupError(f"cfreeconv has no {name}")


class Tracer:
    """Spans and counters for the traced functions of one process."""

    def __init__(self, cf):
        self.cf = cf
        self.names = span_names()
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.active = False
        self.failed = {name: 0 for name in self.names}
        self.scalar_new = 0
        self.visited = 0
        self.missing = []
        self._restore = []

    # -- patching --------------------------------------------------------------

    def install(self):
        index = 0
        for layer, entries in LAYERS.items():
            for entry in entries:
                short, _, target = entry.partition(":")
                target = target or short
                try:
                    original = find_function(target)
                except LookupError:
                    self.missing.append(f"{layer}.{short}")
                    index += 1
                    continue
                self._patch(target, original, self._wrap(index, original, count_visits=short in PARTITION_ENUMERATORS))
                index += 1
        scalar = self.cf.ComplexRational
        init = scalar.__init__
        tracer = self

        def counted_init(obj, *args, **kwargs):
            if tracer.active:
                tracer.scalar_new += 1
            init(obj, *args, **kwargs)

        self._set(scalar, "__init__", init, counted_init)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def _set(self, owner, attr, original, replacement):
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _patch(self, target, original, wrapper):
        head, _, attr = target.partition(".")
        if attr:
            for module in _modules():
                cls = module.__dict__.get(head)
                if cls is not None and vars(cls).get(attr) is original:
                    self._set(cls, attr, original, wrapper)
                    return
        for module in _modules():
            namespace = module.__dict__
            for key, value in list(namespace.items()):
                if value is original:
                    self._restore.append((namespace, key, original))
                    namespace[key] = wrapper

    def _wrap(self, index, fn, count_visits):
        tracer = self
        name = self.names[index]
        counts_failures = name in FAILURE_COUNTED
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            sid = len(tracer.span_start)
            tracer.span_name.append(index)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_end.append(0.0)
            stack.append(sid)
            tracer.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if counts_failures:
                    tracer.failed[name] += 1
                raise
            finally:
                tracer.span_end[sid] = clock()
                stack.pop()
            if count_visits:
                tracer.visited += len(result) if isinstance(result, list) else 1
            return result

        return wrapper

    # -- results ---------------------------------------------------------------

    def layer_metrics(self):
        """``<layer>.<fn>.calls`` and ``.self_s`` for every traced function."""
        n = len(self.span_start)
        child = [0.0] * n
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for sid in range(n - 1, -1, -1):
            duration = self.span_end[sid] - self.span_start[sid]
            parent = self.span_parent[sid]
            if parent >= 0:
                child[parent] += duration
            idx = self.span_name[sid]
            calls[idx] += 1
            self_s[idx] += duration - child[sid]
        out = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = (calls[idx], "count")
            out[f"{name}.self_s"] = (self_s[idx], "s")
        for name in FAILURE_COUNTED:
            out[f"{name}.failed"] = (self.failed[name], "count")
        out["series.scalar_new.calls"] = (self.scalar_new, "count")
        out["partitions.visited"] = (self.visited, "count")
        return out

    def write_spans(self, path):
        """Write the spans as tab-separated name, start, end, parent rows."""
        with open(path, "w") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for sid in range(len(self.span_start)):
                fh.write(
                    f"{self.names[self.span_name[sid]]}\t{self.span_start[sid]!r}\t{self.span_end[sid]!r}\t{self.span_parent[sid]}\n"
                )
        return len(self.span_start)


def partition_caches():
    """(hits, misses) summed over the partition module's lru_caches."""
    hits = misses = 0
    module = sys.modules.get("cfreeconv.partitions")
    for value in vars(module).values() if module else ():
        info = getattr(value, "cache_info", None)
        if callable(info):
            ci = info()
            hits += ci.hits
            misses += ci.misses
    return hits, misses
