"""Spans around the public functions of each layer, recorded from outside.

The traced run rebinds every wrapped function in each module namespace
that holds it, so aliases follow: ``mc`` binds the kernel names by
``from .kernel import ...``, ``cli`` holds its own copies, and
``build_dag`` imports ``enumerate_populated`` at call time, which then
finds the wrapper on ``indices``.  Nothing under ``src/`` changes, and the
plain run never imports this module's wrappers.

A span has an id, a parent id, a name, a start and an end.  Self time is
the span's duration minus the time its child spans cover.  Spans are kept
in memory (up to SPAN_CAP of them) and written out when the run ends;
the per-name aggregates always cover every span.
"""

import dataclasses
import json
import sys
import time
from collections import defaultdict

SPAN_CAP = 200_000

# (module, function, metric prefix): the public entry points of each layer
TARGETS = [
    ("indices", "enumerate_populated", "indices.enumerate_populated"),
    ("hierarchy", "build_dag", "hierarchy.build_dag"),
    ("hierarchy", "expand", "hierarchy.expand"),
    ("hierarchy", "dependencies", "hierarchy.dependencies"),
    ("group", "gamma_apply", "group.gamma_apply"),
    ("group", "dn_apply", "group.dn_apply"),
    ("group", "gamma_entry", "group.gamma_entry"),
    ("constants", "counterterm_table", "constants.counterterm_table"),
    ("constants", "C_constants_with_errors", "constants.C_constants_with_errors"),
    ("kernel", "kernel_checks", "kernel.kernel_checks"),
    ("kernel", "moment_bound_spreads", "kernel.moment_bound_spreads"),
    ("kernel", "semigroup_defect", "kernel.semigroup_defect"),
    ("kernel", "inversion_residual", "kernel.inversion_residual"),
    ("kernel", "solve_L_div", "kernel.solve_L_div"),
    ("kernel", "convolve", "kernel.convolve"),
    ("mc", "sample_noise", "mc.sample_noise"),
    ("mc", "pi_f0", "mc.pi_f0"),
    ("mc", "covariance_check", "mc.covariance_check"),
    ("mc", "pi_f0_second_moment_check", "mc.pi_f0_second_moment_check"),
    ("mc", "bphz_triviality_check", "mc.bphz_triviality_check"),
    ("verify", "verify_hierarchy", "verify.verify_hierarchy"),
    ("verify", "verify_d0_rows", "verify.verify_d0_rows"),
    ("verify", "verify_candidates", "verify.verify_candidates"),
    ("verify", "verify_enumeration", "verify.verify_enumeration"),
    ("verify", "verify_constants", "verify.verify_constants"),
]


def _by_family(name, args, kwargs):
    moll = args[1] if len(args) > 1 else kwargs["moll"]
    return f"{name}.{moll.kind}"


# spans whose name depends on the call's arguments
SPAN_NAMERS = {"constants.counterterm_table": _by_family}

# spans whose per-call durations are kept for a percentile
KEEP_DURATIONS = {"mc.sample_noise"}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = {}
        self.durations = defaultdict(list)
        self.spans = []
        self.span_total = 0
        self._stack = []  # frames: [span id, name, start, child seconds]
        self._active = defaultdict(int)
        self._evaluator_cells = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name):
        self.span_total += 1
        self._active[name] += 1
        frame = [self.span_total, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        sid, name, start, child = frame
        duration = end - start
        self._active[name] -= 1
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        if name in KEEP_DURATIONS:
            self.durations[name].append(duration)
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, parent[0] if parent else None, name, start, end))
        return duration

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span; returns (result, seconds)."""
        frame = self._enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = self._exit(frame)
        return result, duration

    def active(self, name):
        return self._active[name] > 0

    def wrap(self, name, fn, after=None):
        namer = SPAN_NAMERS.get(name)

        def traced(*args, **kwargs):
            frame = self._enter(namer(name, args, kwargs) if namer else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters ------------------------------------------------------------

    def record_max(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def instrument_spec(self, cov):
        """Copy of a CovarianceSpec whose evaluator counts calls and points.

        Every integrand of the constants and the sampler density call
        ``cov.evaluator`` once, at the same points as the mollifier symbol,
        so counting the evaluator counts the integrand work.
        """
        import numpy as np

        inner = cov.evaluator
        cell = [0, 0]  # calls, points; summed into the counts by snapshot()
        self._evaluator_cells.append(cell)

        def evaluator(k0, k1):
            cell[0] += 1
            cell[1] += 1 if type(k0) is float else np.broadcast(k0, k1).size
            return inner(k0, k1)

        return dataclasses.replace(cov, evaluator=evaluator)

    # -- installation --------------------------------------------------------

    def install(self, extra_namespaces=()):
        """Wrap every target, and the counting hooks, in the tfrenorm modules
        this process has loaded; modules it never loaded are never called."""
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "tfrenorm" or n.startswith("tfrenorm.")]
        namespaces += list(extra_namespaces)
        hooks = self._result_hooks()
        for module_name, func_name, metric in TARGETS:
            module = sys.modules.get(f"tfrenorm.{module_name}")
            if module is None:
                continue
            original = getattr(module, func_name)
            wrapper = self.wrap(metric, original, hooks.get(metric))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
        self._install_counters()

    def _result_hooks(self):
        def nodes_out(result):
            self.counts["indices.nodes_out"] += len(result)

        def dag_built(dag):
            self.counts["hierarchy.terms"] += sum(len(t) for t in dag.expansions.values())
            self.counts["hierarchy.dag_expanded_nodes"] += len(dag.expansions)

        def output_terms(series):
            self.counts["group.output_terms"] += len(series)

        def expand_count(_terms):
            if self.active("hierarchy.build_dag"):
                self.counts["hierarchy.expand_in_build_dag"] += 1

        def table_error(table):
            values = (table.c1, table.c2, table.c3)
            errors = (table.err1, table.err2, table.err3)
            self.record_max("constants.max_rel_err",
                            max(e / abs(v) for v, e in zip(values, errors)))

        def worst_z(report):
            self.record_max("mc.worst_z", report.worst_z())

        def units(result):
            self.counts["verify.units"] += result[0]

        return {
            "indices.enumerate_populated": nodes_out,
            "hierarchy.build_dag": dag_built,
            "hierarchy.expand": expand_count,
            "constants.counterterm_table": table_error,
            "group.gamma_apply": output_terms,
            "mc.covariance_check": worst_z,
            "mc.pi_f0_second_moment_check": worst_z,
            "mc.bphz_triviality_check": worst_z,
            **{f"verify.{v}": units for v in (
                "verify_hierarchy", "verify_d0_rows", "verify_candidates",
                "verify_enumeration", "verify_constants")},
        }

    def _install_counters(self):
        from tfrenorm.indices import Multiindex

        post_init = Multiindex.__post_init__

        def counted_post_init(m):
            self.counts["indices.multiindex.validated"] += 1
            post_init(m)

        Multiindex.__post_init__ = counted_post_init

        kernel = sys.modules.get("tfrenorm.kernel")
        if kernel is None:
            return
        for method, space in (("to_fourier", "fourier"), ("to_physical", "physical")):
            original = getattr(kernel.SpectralField, method)

            def counted(field, _original=original, _space=space):
                if field.space != _space:
                    self.counts["kernel.transforms"] += 1
                    self.counts["kernel.transform_points"] += field.values.size
                return _original(field)

            setattr(kernel.SpectralField, method, counted)

    # -- output --------------------------------------------------------------

    def snapshot(self):
        for cell in self._evaluator_cells:
            self.counts["constants.integrand_calls"] += cell[0]
            self.counts["constants.integrand_points"] += cell[1]
            cell[0] = cell[1] = 0
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "durations": {k: list(v) for k, v in self.durations.items()},
            "spans": self.span_total,
        }

    def write_spans(self, path, process):
        with open(path, "a") as out:
            for sid, parent, name, start, end in self.spans:
                out.write(json.dumps({"process": process, "id": sid, "parent": parent,
                                      "name": name, "start": start, "end": end}) + "\n")


def merge(a, b):
    """Combine two snapshots (from the gate process and the job process)."""
    out = {}
    for key in ("calls", "self_s", "total_s", "counts"):
        merged = defaultdict(float if key.endswith("_s") else int)
        for part in (a[key], b[key]):
            for name, value in part.items():
                merged[name] += value
        out[key] = dict(merged)
    maxima = dict(a["maxima"])
    for name, value in b["maxima"].items():
        maxima[name] = max(maxima.get(name, value), value)
    out["maxima"] = maxima
    durations = defaultdict(list)
    for part in (a["durations"], b["durations"]):
        for name, values in part.items():
            durations[name].extend(values)
    out["durations"] = dict(durations)
    out["spans"] = a["spans"] + b["spans"]
    return out
