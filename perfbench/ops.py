"""One benchmark op: a JSON document taken to a checked answer.

The calls follow the command line: ``pro optimize`` (or
``optimize-coupled``) with ``--out``, then ``pro pagerank --strategy``
on the result, ``analyze --strategy`` as an audit, and on the small
workload the occupation-measure linear program as a cross-check.  Every
call goes through a module attribute of ``pro`` so the tracer sees it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from pro import analysis, chain, graph, solver_coupled, solver_local

LOCAL_TOL = 1e-8
STATIONARY_TOL = 1e-12  # the ``pro pagerank`` default
ANALYZE_TOL = 1e-9  # the ``pro analyze`` default
FEASIBILITY_TOL = 1e-9
RECHECK_RTOL = 1e-9  # solver income against the same chain re-evaluated
DUAL_BELOW_LP = 1e-6  # criterion 7: dual >= LP - 1e-6 * scale
DUAL_GAP_LP = 1e-4  # criterion 7: dual <= LP + 1e-4 * scale

COUPLED_CONFIG = {
    "web-coupled": {"tol": 1e-6, "max_outer": 200},  # optimize-coupled defaults
    "small-crosscheck": {"tol": 1e-6, "max_outer": 300},  # criterion 7
}
STAGES = ("setup_s", "solve_s", "evaluate_s", "emit_s", "crosscheck_s")


@dataclass
class OpResult:
    """Stage times, named check outcomes and the audit of one op."""

    times: dict = field(default_factory=lambda: dict.fromkeys(STAGES, 0.0))
    checks: dict = field(default_factory=dict)
    error: str | None = None
    audit: dict | None = None

    @property
    def ok(self):
        return self.error is None and all(self.checks.values())

    @property
    def total_s(self):
        return sum(self.times.values())


def run_op(workload, text, audit=True):
    """Parse, solve, evaluate, emit and cross-check one document.

    Exceptions are caught here and recorded by type: one failing op
    must not stop the run.  ``audit`` adds ``pro analyze --strategy``,
    timed apart from the rest.
    """
    res = OpResult()
    clock = time.perf_counter
    try:
        t = clock()
        inst = graph.load_instance(json.loads(text))
        res.times["setup_s"] = clock() - t
        if inst.coupling:
            strategy = _coupled(workload, inst, res)
        else:
            strategy = _local(inst, res)
        t = clock()
        out = json.dumps(strategy.to_json_dict(), indent=2, sort_keys=True)
        res.times["emit_s"] = clock() - t
        res.checks["strategy_emitted"] = len(out) > 0
    except Exception as exc:  # boundary: record and keep running
        res.error = f"{type(exc).__name__}: {exc}"
        return res
    if audit and inst.rewards.is_per_page:
        res.audit = _audit(inst, strategy, expect_optimal=not inst.coupling)
    return res


def _evaluate(inst, strategy, res, rows=()):
    """``pro pagerank --strategy``: income and row spending of the chain."""
    t = time.perf_counter()
    trans = graph.build_transition(inst, strategy)
    pi = chain.stationary(trans, tol=STATIONARY_TOL).pi
    income = chain.utility_from_chain(trans, pi, inst.rewards)
    spending = [chain.utility_from_chain(trans, pi, row.weights) for row in rows]
    res.times["evaluate_s"] = time.perf_counter() - t
    return income, spending


def _local(inst, res):
    t = time.perf_counter()
    state, strategy = solver_local.value_iterate(
        inst, solver_local.SolverConfig(tol=LOCAL_TOL))
    res.times["solve_s"] = time.perf_counter() - t
    income, _ = _evaluate(inst, strategy, res)
    # psi is within (1 - damping) * tol of the optimum and the greedy
    # strategy's income within (1 + damping) * tol of psi
    slack = (1.0 + inst.damping) * LOCAL_TOL + 1e-12 * max(1.0, abs(income))
    res.checks["income_matches_psi"] = abs(income - state.psi) <= slack
    return strategy


def _coupled(workload, inst, res):
    t = time.perf_counter()
    out = solver_coupled.solve_coupled(
        inst, solver_coupled.CoupledConfig(**COUPLED_CONFIG[workload]))
    res.times["solve_s"] = time.perf_counter() - t
    res.checks["stop_reason_gap"] = out.stop_reason == "gap"
    best = out.best_feasible
    res.checks["has_best_feasible"] = best is not None
    if best is None:
        return graph.Strategy({})
    income, spending = _evaluate(inst, best.strategy, res, inst.coupling)
    scale = max(1.0, abs(income))
    res.checks["within_bounds"] = all(
        s <= row.bound + FEASIBILITY_TOL for s, row in zip(spending, inst.coupling))
    res.checks["income_matches_best"] = \
        abs(income - best.value) <= RECHECK_RTOL * scale
    res.checks["dual_bound_above"] = \
        out.dual_bound >= income - RECHECK_RTOL * scale
    if workload == "small-crosscheck":
        t = time.perf_counter()
        _, lp_value = solver_coupled.lp_solve(solver_coupled.lp_formulate(inst))
        res.times["crosscheck_s"] = time.perf_counter() - t
        lp_scale = max(1.0, abs(lp_value))
        res.checks["dual_not_below_lp"] = \
            out.dual_bound >= lp_value - DUAL_BELOW_LP * lp_scale
        res.checks["dual_near_lp"] = \
            out.dual_bound - lp_value <= DUAL_GAP_LP * lp_scale
    return best.strategy


def _audit(inst, strategy, expect_optimal):
    """``pro analyze --strategy``; failing audits are recorded, not raised.

    A locally optimal strategy must also pass the audit's verdict; a
    budget-constrained one need not.
    """
    t = time.perf_counter()
    try:
        trans = graph.build_transition(inst, strategy)
        ok, _ = analysis.continuous_optimality_check(inst, trans)
        clean = ok
        if not inst.skeletons:
            report = analysis.master_ordering(inst, strategy, tol=ANALYZE_TOL)
            clean = clean and not report.violations
    except Exception as exc:  # boundary: the audit's failure is the datum
        return {"ok": False, "s": time.perf_counter() - t,
                "error": f"{type(exc).__name__}: {exc}"}
    elapsed = time.perf_counter() - t
    if expect_optimal and not clean:
        return {"ok": False, "s": elapsed, "error": "verdict: not optimal"}
    return {"ok": True, "s": elapsed, "error": None}
