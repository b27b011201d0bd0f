"""In-memory spans around the public functions of each ``pro`` layer.

``Tracer.install`` replaces each target function at every module
binding inside ``pro`` that refers to it (``from .graph import
build_transition`` makes a second binding in ``solver_coupled``, for
example), and the class attributes of ``CompiledBellman`` and
``Strategy``.  ``uninstall`` puts the originals back.  Nothing under
``pro`` knows about the tracer.

A span holds a name, start, end, parent span and op id, plus a few
counts read off the call's arguments or result (sweeps of a solve, pivot
tableau size, links touched per sweep).  Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import sys
import time

# span name -> (module, attribute inside it; dotted for class attributes)
TARGETS = {
    "graph.load_instance": ("pro.graph", "load_instance"),
    "graph.build_transition": ("pro.graph", "build_transition"),
    "graph.strategy_json": ("pro.graph", "Strategy.to_json_dict"),
    "polytopes.separate": ("pro.polytopes", "separate"),
    "polytopes.linear_maximize": ("pro.polytopes", "linear_maximize"),
    "solver_local.value_iterate": ("pro.solver_local", "value_iterate"),
    "solver_local.compile": ("pro.solver_local", "CompiledBellman.__init__"),
    "solver_local.sweep": ("pro.solver_local", "CompiledBellman.apply"),
    "solver_local.extract": ("pro.solver_local", "CompiledBellman.extract"),
    "chain.stationary": ("pro.chain", "stationary"),
    "chain.utility_from_chain": ("pro.chain", "utility_from_chain"),
    "chain.mean_reward": ("pro.chain", "mean_reward_before_teleport"),
    "analysis.optimality_check": ("pro.analysis", "continuous_optimality_check"),
    "analysis.master_ordering": ("pro.analysis", "master_ordering"),
    "solver_coupled.solve_coupled": ("pro.solver_coupled", "solve_coupled"),
    "solver_coupled.dual_value": ("pro.solver_coupled", "dual_value"),
    "solver_coupled.lp_formulate": ("pro.solver_coupled", "lp_formulate"),
    "solver_coupled.lp_solve": ("pro.solver_coupled", "lp_solve"),
    "simplex.solve_dense_lp": ("pro.simplex", "solve_dense_lp"),
}


def _budget(call):
    # iteration_budget(damping, tol), restated so counting it adds no span
    config = (call.arguments.get("config")
              or importlib.import_module("pro.solver_local").SolverConfig())
    damping = call.arguments["instance"].damping
    return math.ceil(math.log(config.tol) / math.log(damping))


def _tableau_cells(call):
    # solve_dense_lp allocates m rows by (vars + slacks + artificials + 1)
    args = call.arguments
    nvars = len(args["objective"])
    m_eq = 0 if args.get("a_eq") is None else len(args["a_eq"])
    m_ub = 0 if args.get("a_ub") is None else len(args["a_ub"])
    m = m_eq + m_ub
    return m * (nvars + m_ub + m + 1)


def _entries(doc):
    return sum(len(p.get("activated", p.get("row_entries", ())))
               for p in doc["pages"])


# span name -> counts read off (bound arguments, result, exception)
_COUNTS = {
    "solver_local.value_iterate": lambda call, out, exc: {
        "sweeps": (out or exc.result)[0].iterations, "budget": _budget(call)},
    "solver_local.sweep": lambda call, out, exc: {
        "links": int(call.arguments["self"].o_idx.size
                     + call.arguments["self"].f_idx.size)},
    "graph.strategy_json": lambda call, out, exc: {"entries": _entries(out)},
    "chain.stationary": lambda call, out, exc: {
        "iterations": (out or exc.result).iterations},
    "chain.mean_reward": lambda call, out, exc: {
        "iterations": (out or exc.result).iterations},
    "solver_coupled.solve_coupled": lambda call, out, exc: {
        "outer": out.iterations, "iterates": len(out.iterates),
        "feasible": sum(1 for it in out.iterates if it.feasible)},
    "solver_coupled.lp_formulate": lambda call, out, exc: {
        "vars": int(out.objective.size),
        "rows": int(out.a_eq.shape[0] + out.a_ub.shape[0])},
    "simplex.solve_dense_lp": lambda call, out, exc: {
        "cells": _tableau_cells(call)},
}


class Span:
    """One call of a traced function; times are ``perf_counter`` seconds."""

    __slots__ = ("name", "op", "parent", "start", "end", "counts", "error")

    def __init__(self, name, op, parent):
        self.name = name
        self.op = op
        self.parent = parent
        self.start = self.end = 0.0
        self.counts = None
        self.error = None


class Tracer:
    """Collects spans while installed; ``op`` tags the spans of one op."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._undo = []

    def install(self):
        for modname, _ in TARGETS.values():
            importlib.import_module(modname)
        pro_modules = [m for name, m in list(sys.modules.items())
                       if name == "pro" or name.startswith("pro.")]
        for name, (modname, path) in TARGETS.items():
            owner_name, _, attr = path.rpartition(".")
            module = sys.modules[modname]
            if owner_name:
                owner = getattr(module, owner_name)
                self._replace(owner, attr, self._wrap(name, owner.__dict__[attr]))
                continue
            original = getattr(module, attr)
            traced = self._wrap(name, original)
            for mod in pro_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, traced)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr, traced):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, traced)

    def _wrap(self, name, fn):
        counts = _COUNTS.get(name)
        signature = inspect.signature(fn)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.op, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            out = exc = None
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as err:
                exc = err
                span.error = type(err).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
                if counts is not None and (
                        out is not None
                        or getattr(exc, "result", None) is not None):
                    call = signature.bind(*args, **kwargs)
                    call.apply_defaults()
                    span.counts = counts(call, out, exc)

        return traced


def self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def _under(spans, ancestor):
    """Per span: True when some enclosing span is named ``ancestor``."""
    flags = []
    for s in spans:
        p = s.parent
        flags.append(p >= 0 and (spans[p].name == ancestor or flags[p]))
    return flags


# per-layer metric -> (unit, better); values come from ``layer_metrics``
PER_LAYER = {
    "graph.load_instance.s": ("s", "lower"),
    "graph.build_transition.s": ("s", "lower"),
    "graph.build_transition.calls": ("count", "lower"),
    "polytopes.separate.s": ("s", "lower"),
    "polytopes.separate.calls": ("count", "lower"),
    "graph.strategy_json.s": ("s", "lower"),
    "graph.strategy_json.entries": ("count", "lower"),
    "solver_local.value_iterate.s": ("s", "lower"),
    "solver_local.value_iterate.calls": ("count", "lower"),
    "solver_local.compile.s": ("s", "lower"),
    "solver_local.extract.s": ("s", "lower"),
    "solver_local.sweep.s": ("s", "lower"),
    "solver_local.sweep.calls": ("count", "lower"),
    "solver_local.sweep.ms_per_call": ("ms", "lower"),
    "solver_local.sweep.links_per_s": ("1/s", "higher"),
    "solver_local.sweeps_per_solve": ("count", "lower"),
    "solver_local.budget_ratio": ("ratio", "lower"),
    "polytopes.linear_maximize.s": ("s", "lower"),
    "polytopes.linear_maximize.calls": ("count", "lower"),
    "chain.stationary.s": ("s", "lower"),
    "chain.stationary.calls": ("count", "lower"),
    "chain.stationary.iterations": ("count", "lower"),
    "chain.utility_from_chain.s": ("s", "lower"),
    "chain.mean_reward.s": ("s", "lower"),
    "chain.mean_reward.iterations": ("count", "lower"),
    "analysis.optimality_check.s": ("s", "lower"),
    "analysis.master_ordering.s": ("s", "lower"),
    "solver_coupled.solve_coupled.s": ("s", "lower"),
    "solver_coupled.solve_coupled.self_s": ("s", "lower"),
    "solver_coupled.dual_value.s": ("s", "lower"),
    "solver_coupled.dual_value.calls": ("count", "lower"),
    "solver_coupled.outer_iterations": ("count", "lower"),
    "solver_coupled.feasible_ratio": ("ratio", "higher"),
    "solver_coupled.sweeps_per_outer": ("count", "lower"),
    "solver_coupled.lp_formulate.s": ("s", "lower"),
    "solver_coupled.lp_solve.s": ("s", "lower"),
    "solver_coupled.lp_vars": ("count", "lower"),
    "solver_coupled.lp_rows": ("count", "lower"),
    "simplex.solve_dense_lp.s": ("s", "lower"),
    "simplex.tableau_cells": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.spans_per_op": ("count", "lower"),
}

# metric -> (span name, count key or "s"/"calls"/"self_s"), each summed per
# op and reported as the median over traced ops
_PER_OP = {
    "solver_coupled.solve_coupled.self_s": ("solver_coupled.solve_coupled", "self_s"),
    "chain.stationary.iterations": ("chain.stationary", "iterations"),
    "chain.mean_reward.iterations": ("chain.mean_reward", "iterations"),
    "graph.strategy_json.entries": ("graph.strategy_json", "entries"),
    "solver_coupled.outer_iterations": ("solver_coupled.solve_coupled", "outer"),
    "solver_coupled.lp_vars": ("solver_coupled.lp_formulate", "vars"),
    "solver_coupled.lp_rows": ("solver_coupled.lp_formulate", "rows"),
    "simplex.tableau_cells": ("simplex.solve_dense_lp", "cells"),
}


def layer_metrics(spans, ops):
    """Per-layer metrics over the traced ops ``ops``.

    Times, calls and counts are summed per op and reported as the median
    over ops; ratios divide totals over all traced ops.  A layer the
    workload never reaches reads 0.
    """
    own = self_times(spans)
    per_op = {op: {} for op in ops}
    totals = {}

    def add(op, key, value):
        per_op[op][key] = per_op[op].get(key, 0.0) + value
        totals[key] = totals.get(key, 0.0) + value

    in_coupled = _under(spans, "solver_coupled.solve_coupled")
    for k, s in enumerate(spans):
        if s.op not in per_op:
            continue
        add(s.op, (s.name, "s"), s.end - s.start)
        add(s.op, (s.name, "calls"), 1)
        add(s.op, (s.name, "self_s"), own[k])
        for key, value in (s.counts or {}).items():
            add(s.op, (s.name, key), value)
        if s.name == "solver_local.sweep" and in_coupled[k]:
            add(s.op, ("coupled", "sweeps"), 1)

    def median(key):
        return statistics.median(v.get(key, 0.0) for v in per_op.values())

    def ratio(num, den, scale=1.0):
        d = totals.get(den, 0.0)
        return scale * totals.get(num, 0.0) / d if d else 0.0

    out = {}
    for name in PER_LAYER:
        stem, _, stat = name.rpartition(".")
        if name in _PER_OP:
            out[name] = median(_PER_OP[name])
        elif stat in ("s", "calls") and stem in TARGETS:
            out[name] = median((stem, stat))
    sweep, solve = "solver_local.sweep", "solver_local.value_iterate"
    out.update({
        "solver_local.sweep.ms_per_call": ratio((sweep, "s"), (sweep, "calls"), 1e3),
        "solver_local.sweep.links_per_s": ratio((sweep, "links"), (sweep, "s")),
        "solver_local.sweeps_per_solve": ratio((sweep, "calls"), (solve, "calls")),
        "solver_local.budget_ratio": ratio((solve, "sweeps"), (solve, "budget")),
        "solver_coupled.feasible_ratio": ratio(
            ("solver_coupled.solve_coupled", "feasible"),
            ("solver_coupled.solve_coupled", "iterates")),
        "solver_coupled.sweeps_per_outer": ratio(
            ("coupled", "sweeps"), ("solver_coupled.solve_coupled", "outer")),
        "trace.spans_per_op": sum(1 for s in spans if s.op in per_op)
        / max(len(ops), 1),
    })
    return out


def span_records(spans, origin):
    """JSON-ready spans, times in seconds since ``origin``."""
    own = self_times(spans)
    return [{"name": s.name, "op": s.op, "parent": s.parent,
             "start": s.start - origin, "end": s.end - origin,
             "self": own[k], "counts": s.counts, "error": s.error}
            for k, s in enumerate(spans)]
