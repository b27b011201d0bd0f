"""Checks of the benchmark's own tracer and generators.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_tracer.py
"""

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import generate  # noqa: E402
import tracer as tracing  # noqa: E402
from pro import graph, solver_coupled, solver_local  # noqa: E402


def _instance(text):
    return graph.load_instance(json.loads(text))


def _traced(fn):
    t = tracing.Tracer()
    t.op = 0
    t.install()
    try:
        out = fn()
    finally:
        t.uninstall()
    return out, t.spans


def test_sweep_calls_equal_local_iterations():
    rng = np.random.default_rng(5)
    inst = _instance(generate.web_subset(rng, pages=400, controlled=8,
                                         fac_each=40))
    (state, _), spans = _traced(lambda: solver_local.value_iterate(
        inst, solver_local.SolverConfig(tol=1e-8)))
    metrics = tracing.layer_metrics(spans, [0])
    assert metrics["solver_local.sweep.calls"] == state.iterations
    assert metrics["solver_local.value_iterate.calls"] == 1


def test_trace_counts_equal_coupled_iterations():
    rng = np.random.default_rng(7)
    inst = _instance(generate.small_crosscheck(rng, pages=8))
    res, spans = _traced(lambda: solver_coupled.solve_coupled(inst))
    metrics = tracing.layer_metrics(spans, [0])
    assert metrics["solver_coupled.dual_value.calls"] == res.iterations
    assert metrics["solver_coupled.outer_iterations"] == res.iterations
    # sweeps inside the dual evaluations are exactly the inner solves'
    in_dual = tracing._under(spans, "solver_coupled.dual_value")
    sweeps = sum(1 for s, inside in zip(spans, in_dual)
                 if inside and s.name == "solver_local.sweep")
    assert sweeps == sum(it.dp_state.iterations for it in res.iterates)


def test_uninstall_restores_every_binding():
    before = (solver_coupled.value_iterate, solver_coupled.build_transition,
              solver_local.CompiledBellman.__dict__["apply"],
              graph.Strategy.__dict__["to_json_dict"])
    t = tracing.Tracer()
    t.install()
    assert solver_coupled.value_iterate is not before[0]
    t.uninstall()
    after = (solver_coupled.value_iterate, solver_coupled.build_transition,
             solver_local.CompiledBellman.__dict__["apply"],
             graph.Strategy.__dict__["to_json_dict"])
    assert after == before


def test_documents_depend_only_on_seed():
    first = generate.small_crosscheck(generate.rng_for("small-crosscheck", 3, 0),
                                      pages=10)
    again = generate.small_crosscheck(generate.rng_for("small-crosscheck", 3, 0),
                                      pages=10)
    other = generate.small_crosscheck(generate.rng_for("small-crosscheck", 4, 0),
                                      pages=10)
    assert first == again
    assert first != other
