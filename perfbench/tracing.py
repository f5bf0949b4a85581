"""Spans around kortsolve's layer entry points, installed from outside the package.

Each target is wrapped under every name a caller looks it up by: a function
imported into several modules (`kortsolve.fields.solve_mode`,
`kortsolve.rbound.solve_mode`, ...) is rebound in each of them, and methods
and `kortsolve.oracle.spla.spsolve` are replaced on their owners.  Nothing
under `src/` is edited; `uninstall` puts every original back.

A span is (name, start, end, parent, op).  Spans are kept in memory while
the benchmark runs and written once at exit.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np


def _count_fft_points(tracer, spec, params, d2, f2, *args, **kwargs):
    # forward fftn of d and the N force components, inverse fftn of rho and
    # the N velocity components, each over the doubled grid
    tracer.add("fields.whole_space_solve.fft_points", 2 * (len(f2) + 1) * np.size(d2))


def _count_mode(tracer, params, mode, trace, *args, **kwargs):
    tracer.distinct("modes.distinct", (tuple(np.ravel(mode.xi)), complex(mode.lam)))


def _count_unknowns(tracer, params, mode, trace, config, *args, **kwargs):
    tracer.add("oracle.unknowns", (2 * mode.dim + 2) * config.n)


# (owner path, attribute, span name, counter).  The owner path is
# "module:attr.attr"; a module-level function is also rebound in every
# kortsolve module that imported it.
TARGETS = (
    ("kortsolve.fields", "solve_resolvent", "fields.solve_resolvent", None),
    ("kortsolve.fields", "whole_space_solve", "fields.whole_space_solve", _count_fft_points),
    ("kortsolve.fields", "vertical_spectral_derivative",
     "fields.vertical_spectral_derivative", None),
    ("kortsolve.fields", "boundary_correction", "fields.boundary_correction", None),
    ("kortsolve.modes", "solve_mode", "modes.solve_mode", _count_mode),
    ("kortsolve.modes", "pde_residual", "modes.pde_residual", None),
    ("kortsolve.spectral", "compute_roots", "spectral.compute_roots", None),
    ("kortsolve.profiles:VerticalProfile", "evaluate", "profiles.VerticalProfile.evaluate", None),
    ("kortsolve.profiles:VerticalProfile", "differentiate",
     "profiles.VerticalProfile.differentiate", None),
    ("kortsolve.rbound", "estimate_rbound", "rbound.estimate_rbound", None),
    ("kortsolve.rbound:ReducedSolveFamily", "apply", "rbound.apply", None),
    ("kortsolve.rbound:LogDerivativeFamily", "apply", "rbound.apply", None),
    ("kortsolve.rbound:ReducedSolveFamily", "input_lift", "rbound.input_lift", None),
    ("kortsolve.rbound:LogDerivativeFamily", "input_lift", "rbound.input_lift", None),
    ("kortsolve.rbound:LiftedTuple", "inner", "rbound.inner", None),
    ("kortsolve.oracle", "compare_with_closed_form", "oracle.compare_with_closed_form", None),
    ("kortsolve.oracle", "solve_mode_bvp", "oracle.solve_mode_bvp", _count_unknowns),
    ("kortsolve.oracle:spla", "spsolve", "oracle.spsolve", None),
    ("kortsolve.symbols", "verify_symbol_class", "symbols.verify_symbol_class", None),
    ("kortsolve.lopatinski", "lower_bound_scan", "lopatinski.lower_bound_scan", None),
    ("kortsolve.cli", "dispatch", "cli.dispatch", None),
)

# Spans whose call counts and self times a traced run reports, and the
# counters it reports as they are.  Every value is a mean per traced op.
CALLS = ("fields.whole_space_solve", "modes.solve_mode", "modes.pde_residual",
         "spectral.compute_roots", "profiles.VerticalProfile.evaluate",
         "profiles.VerticalProfile.differentiate", "rbound.inner", "oracle.solve_mode_bvp")
SELF = ("fields.solve_resolvent", "fields.whole_space_solve",
        "fields.vertical_spectral_derivative", "fields.boundary_correction",
        "modes.solve_mode", "modes.pde_residual", "spectral.compute_roots",
        "profiles.VerticalProfile.evaluate", "profiles.VerticalProfile.differentiate",
        "rbound.estimate_rbound", "rbound.apply", "rbound.input_lift", "rbound.inner",
        "oracle.compare_with_closed_form", "oracle.solve_mode_bvp", "oracle.spsolve",
        "symbols.verify_symbol_class", "lopatinski.lower_bound_scan", "cli.dispatch")
COUNTS = ("fields.whole_space_solve.fft_points", "oracle.unknowns", "rbound.redraws")


def per_layer_units() -> dict:
    units = {f"{n}.calls": "count" for n in CALLS}
    units.update({f"{n}.self_s": "s" for n in SELF})
    units.update({n: "count" for n in COUNTS})
    units["modes.solves_per_mode"] = "1"
    units["op.other_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def _resolve(path):
    module_name, _, attrs = path.partition(":")
    owner = importlib.import_module(module_name)
    for attr in filter(None, attrs.split(".")):
        owner = getattr(owner, attr)
    return owner, not attrs


class Tracer:
    """Records spans and counters for the op currently marked by `begin_op`."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op]
        self.op_counts = defaultdict(Counter)
        self.op_distinct = defaultdict(lambda: defaultdict(set))
        self.missing = []        # targets absent from this version of the package
        self._stack = []
        self._op = None
        self._saved = []         # (owner, attribute, original)

    # -- recording -------------------------------------------------------

    def begin_op(self, op: int):
        self._op = op

    def end_op(self):
        self._op = None

    def add(self, name, value):
        if self._op is not None:
            self.op_counts[self._op][name] += value

    def distinct(self, name, key):
        if self._op is not None:
            self.op_distinct[self._op][name].add(key)

    def _wrap(self, name, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            if counter is not None:
                counter(self, *args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self._op]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    # -- installation ----------------------------------------------------

    def install(self):
        self.missing = []
        for path, attr, name, counter in TARGETS:
            try:
                owner, is_module = _resolve(path)
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{path}.{attr}")
                continue
            wrapper = self._wrap(name, original, counter)
            owners = [owner]
            if is_module:
                owners = [m for key, m in sorted(sys.modules.items())
                          if (key == "kortsolve" or key.startswith("kortsolve."))
                          and m is not None]
            for mod in owners:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._saved.append((mod, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    # -- reduction -------------------------------------------------------

    def totals(self, ops) -> Counter:
        """Span calls, self times and counters summed over the ops in `ops`."""
        ops = set(ops)
        child = np.zeros(len(self.spans))
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = Counter()
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if op in ops:
                totals[f"{name}.calls"] += 1
                totals[f"{name}.self_s"] += (end - start) - child[i]
                if parent < 0:
                    totals["root_s"] += end - start
        for op in ops:
            totals.update(self.op_counts.get(op, {}))
            for name, keys in self.op_distinct.get(op, {}).items():
                totals[name] += len(keys)
        return totals

    def write(self, path):
        """Spans as gzip-compressed JSON: a name table plus one row per span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], s, e, p, op] for n, s, e, p, op in self.spans]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "op"],
                       "names": names, "spans": rows}, fh)


def layer_metrics(totals: Counter, n_ops: int, op_times, overhead_s: float) -> dict:
    """Every per-layer metric as a mean per op, from `Tracer.totals` over n_ops ops."""
    n = max(n_ops, 1)
    out = {metric: totals.get(metric, 0) / n for metric in per_layer_units()}
    distinct = totals.get("modes.distinct", 0)
    out["modes.solves_per_mode"] = totals.get("modes.solve_mode.calls", 0) / distinct \
        if distinct else 0.0
    out["op.other_s"] = (sum(op_times) - totals.get("root_s", 0.0)) / n
    out["trace.overhead_s"] = overhead_s
    return out


def self_shares(totals: Counter) -> dict:
    """Share of traced self time per span name, largest first."""
    selfs = Counter({k[:-len(".self_s")]: v for k, v in totals.items() if k.endswith(".self_s")})
    whole = sum(selfs.values()) or 1.0
    return {k: round(v / whole, 4) for k, v in selfs.most_common()}
