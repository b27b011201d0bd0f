"""Dual route and occupation-measure LP for budget-coupled instances.

The dual's certified bound is held against the exact LP on small
instances; every structural invariant of the dual function (weak
duality, the supporting-hyperplane inequality, bound monotonicity) is
checked on random coupled problems.
"""

import importlib.util
import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    add_active_coupling,
    add_coupling_rows,
    chain_utility,
    exact_stationary,
    link_web_doc,
    local_only,
    minus_weighted,
    mixed_doc,
    power_law_instance,
    random_continuous_doc,
    random_discrete_doc,
    two_page_coupled_instance,
    two_page_instance,
    weight_box,
)
from pro.chain import DENSE_EVAL_CAP, STATIONARY_TOL, occupation, stationary, utility_from_chain
from pro.errors import Infeasible, ProError, TooLarge, ValidationError
from pro.graph import CouplingRow, Rewards, WeightRows, build_transition, load_instance
from pro.oracle import brute_force_optimum
from pro import simplex, solver_coupled
from pro.polytopes import facets_box, facets_discrete, separate
from pro.solver_coupled import (
    CoupledConfig,
    check_occupation,
    dual_value,
    lp_formulate,
    lp_solve,
    solve_coupled,
)
from pro.simplex import solve_dense_lp
from pro.solver_local import CompiledBellman, SolverConfig, value_iterate


def _coupled_discrete(rng, **kw):
    doc = random_discrete_doc(rng, **kw)
    return load_instance(add_active_coupling(doc, rng))


def test_two_page_frozen_dual_points():
    inst = two_page_coupled_instance()
    at_zero = dual_value(inst, np.zeros(1))
    assert at_zero.theta == pytest.approx(0.925, abs=1e-8)
    assert at_zero.subgradient[0] == pytest.approx(0.85, abs=1e-8)
    np.testing.assert_allclose(at_zero.pi, [0.075, 0.925], atol=1e-9)
    assert not at_zero.feasible

    priced_out = dual_value(inst, np.array([10.0]))
    assert priced_out.theta == pytest.approx(8.575, abs=1e-8)
    assert priced_out.subgradient[0] == pytest.approx(-0.85, abs=1e-8)
    assert priced_out.feasible
    # occupation measure rows recombine to the stationary measure
    rho = occupation(build_transition(inst, priced_out.strategy), priced_out.pi).rho
    np.testing.assert_allclose(rho.sum(axis=1), priced_out.pi, atol=1e-12)


def test_dual_value_validation():
    with pytest.raises(ValidationError):
        dual_value(two_page_instance(), np.zeros(1))  # no budget rows
    inst = two_page_coupled_instance()
    with pytest.raises(ValidationError):
        dual_value(inst, np.zeros(2))
    with pytest.raises(ValidationError):
        dual_value(inst, np.array([-0.1]))
    with pytest.raises(ValidationError):
        solve_coupled(two_page_instance())


def test_dual_value_refuses_non_finite_multipliers():
    inst = two_page_coupled_instance()
    for lam in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="multipliers must be finite"):
            dual_value(inst, np.array([lam]))


def test_coupled_config_refuses_bad_knobs():
    for kw in ({"max_outer": 0}, {"max_outer": -3}, {"tol": -1.0}, {"tol": np.nan},
               {"tol": np.inf}):
        with pytest.raises(ValidationError):
            CoupledConfig(**kw)
    assert CoupledConfig(tol=0.0, max_outer=1).tol == 0.0


def test_weak_duality_against_enumeration():
    """theta at any nonnegative multiplier bounds every feasible income."""
    rng = np.random.default_rng(90)
    for _ in range(10):
        inst = _coupled_discrete(rng, n_max=5, fac_budget=8)
        try:
            ref = brute_force_optimum(inst)
        except Infeasible:
            continue
        for _ in range(5):
            lam = rng.exponential(1.0, size=len(inst.coupling))
            assert dual_value(inst, lam).theta >= ref.value - 1e-7


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False))
def test_weak_duality_at_random_multipliers(seed, lam):
    # theta at any lam >= 0 bounds the best income that meets the row
    rng = np.random.default_rng(seed)
    inst = _coupled_discrete(rng, n_max=5, fac_budget=8)
    try:
        best = brute_force_optimum(inst).value
    except Infeasible:
        return
    theta = dual_value(inst, np.array([lam])).theta
    assert theta >= best - 1e-9 * max(1.0, abs(best), abs(theta))


def test_loose_inner_solve_keeps_theta_an_upper_bound():
    # theta adds the inner solve's certified error, so it stays above
    # the exact Lagrangian optimum even at a loose inner tolerance
    rng = np.random.default_rng(92)
    loose = SolverConfig(tol=1e-3)
    for _ in range(20):
        inst = _coupled_discrete(rng, n_max=5, fac_budget=8)
        lam = rng.exponential(1.0, size=len(inst.coupling))
        weights = [c.weights for c in inst.coupling]
        bounds = np.array([c.bound for c in inst.coupling])
        modified = minus_weighted(inst.rewards, weights, lam)
        exact = brute_force_optimum(local_only(inst, modified)).value
        theta = dual_value(inst, lam, loose).theta
        assert theta >= exact + float(np.dot(lam, bounds))


def test_dual_supporting_hyperplane():
    # theta is convex with slope (bound - spending) at each evaluation
    rng = np.random.default_rng(91)
    for _ in range(8):
        inst = _coupled_discrete(rng, n_max=5, fac_budget=6)
        k = len(inst.coupling)
        lam = rng.exponential(0.5, size=k)
        at = dual_value(inst, lam)
        for _ in range(4):
            other = rng.exponential(0.5, size=k)
            linear = at.theta + float(np.dot(-at.subgradient, other - lam))
            assert dual_value(inst, other).theta >= linear - 1e-9


def test_two_page_coupled_frozen_solve():
    inst = two_page_coupled_instance()
    res = solve_coupled(inst)
    assert res.dual_bound == pytest.approx(0.5, abs=1e-3)
    assert res.stop_reason == "gap"
    assert res.iterations <= 20
    np.testing.assert_allclose(res.candidate.pi, [0.5, 0.5], atol=1e-3)
    assert res.candidate.feasible
    assert res.candidate.utility == pytest.approx(0.5, abs=1e-3)
    assert res.best_feasible is not None
    # the incumbent is a genuine strategy: re-derive its chain exactly
    trans = build_transition(inst, res.best_feasible.strategy)
    pi = exact_stationary(trans.dense_p())
    np.testing.assert_allclose(pi, res.best_feasible.pi, atol=1e-9)
    spend = chain_utility(trans.dense_p(), pi, inst.coupling[0].weights)
    assert spend <= inst.coupling[0].bound + 1e-8
    assert res.best_feasible.value == pytest.approx(
        chain_utility(trans.dense_p(), pi, inst.rewards), abs=1e-9)


def _exact(inst, strategy):
    """Dense stationary measure, income and spending of a strategy."""
    p = build_transition(inst, strategy).dense_p()
    pi = exact_stationary(p)
    spend = [chain_utility(p, pi, row.weights) for row in inst.coupling]
    return pi, chain_utility(p, pi, inst.rewards), np.array(spend)


def test_solve_run_invariants():
    """Bound is the running minimum; reported primals re-derive exactly."""
    rng = np.random.default_rng(92)
    for _ in range(6):
        inst = _coupled_discrete(rng, n_max=5, fac_budget=6)
        bounds = np.array([c.bound for c in inst.coupling])
        res = solve_coupled(inst, CoupledConfig(max_outer=40))
        thetas = [it.theta for it in res.iterates]
        assert res.dual_bound == pytest.approx(min(thetas), abs=1e-12)
        assert res.iterations == len(res.iterates)
        for it in res.iterates:
            assert float(it.multipliers.min()) >= 0.0
            assert it.dp_state.w is None
            if it.feasible:
                assert it.theta >= it.primal_value - 1e-7
        best = res.best_feasible
        pi, income, spend = _exact(inst, best.strategy)
        np.testing.assert_allclose(pi, best.pi, atol=1e-9)
        assert income == pytest.approx(best.value, abs=1e-9)
        assert np.all(spend <= bounds + 1e-9)
        # the randomized candidate is one strategy whose own chain gives
        # the reported income, spending and stationary measure
        cand = res.candidate
        pi, income, spend = _exact(inst, cand.strategy)
        np.testing.assert_allclose(pi, cand.pi, atol=1e-9)
        assert income == pytest.approx(cand.utility, abs=1e-9)
        np.testing.assert_allclose(spend, cand.coupling_values, atol=1e-9)
        assert cand.feasible and np.all(spend <= bounds + 1e-9)
        assert res.dual_bound >= cand.utility - 1e-9


def test_one_compile_per_coupled_run(monkeypatch):
    # every local solve of a run, phase 1's included, reprices one
    # operator, and each column is evaluated on that operator's own chain
    compiles, solves = [], []
    init, solve = CompiledBellman.__init__, solver_coupled.value_iterate
    monkeypatch.setattr(CompiledBellman, "__init__",
                        lambda self, *args: (compiles.append(1), init(self, *args))[1])
    monkeypatch.setattr(solver_coupled, "value_iterate",
                        lambda *args, **kw: (solves.append(1), solve(*args, **kw))[1])
    rng = np.random.default_rng(95)
    docs = [add_active_coupling(link_web_doc(rng, 120, 5, 15), rng)]
    docs += [add_coupling_rows(random_continuous_doc(rng, n_max=30), rng, 3, 0.4, 0.9)
             for _ in range(4)]
    phase1 = 0
    for doc in docs:
        inst = load_instance(doc)
        compiles.clear()
        solves.clear()
        try:
            res = solve_coupled(inst, CoupledConfig(tol=1e-6, max_outer=300))
        except Infeasible:
            assert len(compiles) == 1 and len(solves) > 1
            phase1 += 1
            continue
        assert len(compiles) == 1 and res.iterations >= 2
        phase1 += len(solves) > res.iterations
        pi, income, _ = _exact(inst, res.best_feasible.strategy)
        np.testing.assert_allclose(pi, res.best_feasible.pi, atol=1e-10)
        assert income == pytest.approx(res.best_feasible.value, abs=1e-10)
    assert phase1 >= 2


def test_eliminated_columns_match_exact_chains():
    # with 0 < |F| <= DENSE_EVAL_CAP fixed pages, the operator solves each
    # policy on the controlled pages, and each column's measure starts
    # there; measure, income and spending must agree with a dense solve of
    # the full chain within the certified L1 bound on pi, and the
    # eliminated evaluation keeps the dual bound an upper bound on the LP
    # optimum
    rng = np.random.default_rng(96)
    for n in (20, 40, 60, 80, 100):
        inst = load_instance(add_active_coupling(link_web_doc(rng, n, 5, 20), rng))
        res = solve_coupled(inst)
        _, lp_value = lp_solve(lp_formulate(inst))
        assert res.dual_bound >= lp_value - 1e-9 * max(1.0, abs(lp_value)), n
        run = solver_coupled._Run(inst)
        assert run.comp.eliminates and 0 < run.comp.fixed.size <= DENSE_EVAL_CAP
        _assert_columns_exact(inst, res, run)


def _assert_columns_exact(inst, res, run):
    """Each iterate's column, priced again on ``run``, against a dense
    solve of its full chain: ``pi`` within ``STATIONARY_TOL`` in L1, and
    income and spending within that times the reward scale."""
    scale = max(inst.rewards.max_abs(), *(c.weights.max_abs() for c in inst.coupling))
    for it in res.iterates:
        col = dual_value(inst, it.multipliers, run=run)
        pi, income, spend = _exact(inst, col.strategy)
        assert float(np.abs(col.pi - pi).sum()) <= STATIONARY_TOL, inst.num_pages
        assert abs(col.primal_value - income) <= STATIONARY_TOL * scale, inst.num_pages
        np.testing.assert_allclose(col.coupling_values, spend, rtol=0,
                                   atol=STATIONARY_TOL * scale)


def test_columns_off_the_reduced_path_match_exact_chains():
    # without a fixed page (all weight pages), or with fixed pages above
    # the cap, the operator does not eliminate: each column's measure is
    # ``stationary`` on the operator's policy from its dense solve or the
    # last column's measure, and its incomes read P off the same blocks
    # (``p_at``): the same check as on the eliminated path
    rng = np.random.default_rng(98)
    docs = [random_continuous_doc(rng, n_max=20) for _ in range(3)]
    docs.append(link_web_doc(rng, 120, 5, 15))
    for doc in docs:
        inst = load_instance(add_active_coupling(doc, rng))
        res = solve_coupled(inst, CoupledConfig(max_outer=300))
        run = solver_coupled._Run(inst)
        assert not run.comp.eliminates and res.iterations >= 2
        _assert_columns_exact(inst, res, run)


def _count_column_work(monkeypatch):
    """Count compiles and the ``stationary`` calls made outside ``_mixture``."""
    calls = {"compile": 0, "stationary": 0}
    inside = []
    init, mixture = CompiledBellman.__init__, solver_coupled._mixture
    stat = solver_coupled.stationary

    def counted(name, fn):
        def wrapper(*args, **kw):
            calls[name] += not (name == "stationary" and inside)
            return fn(*args, **kw)
        return wrapper

    def in_mixture(*args, **kw):
        inside.append(1)
        try:
            return mixture(*args, **kw)
        finally:
            inside.pop()

    monkeypatch.setattr(CompiledBellman, "__init__", counted("compile", init))
    monkeypatch.setattr(solver_coupled, "stationary", counted("stationary", stat))
    monkeypatch.setattr(solver_coupled, "_mixture", in_mixture)
    return calls


def test_which_runs_eliminate_the_fixed_pages(monkeypatch):
    calls = _count_column_work(monkeypatch)
    rng = np.random.default_rng(97)
    cases = [
        # 95 fixed pages and 5 controlled ones
        (link_web_doc(rng, 100, 5, 20), True),
        # no fixed page: every page is a weight page
        (random_continuous_doc(rng, n_max=20), False),
        # 115 fixed pages, above the cap
        (link_web_doc(rng, 120, 5, 15), False),
        # 30 fixed pages but 120 controlled ones, above the cap
        (link_web_doc(rng, 150, 120, 2), False),
    ]
    for doc, eliminates in cases:
        inst = load_instance(add_active_coupling(doc, rng))
        assert solver_coupled._Run(inst).comp.eliminates == eliminates
        calls.update(dict.fromkeys(calls, 0))
        res = solve_coupled(inst, CoupledConfig(max_outer=300))
        assert calls["compile"] == 1
        # one stationary solve per new column, on either path
        assert 1 <= calls["stationary"] <= res.iterations + 1
        pi, income, _ = _exact(inst, res.best_feasible.strategy)
        np.testing.assert_allclose(pi, res.best_feasible.pi, atol=1e-10)
        assert income == pytest.approx(res.best_feasible.value, abs=1e-10)


def test_slack_budget_recovers_local_solution():
    """A bound nobody can reach leaves the local optimum untouched."""
    rng = np.random.default_rng(93)
    for _ in range(5):
        doc = random_discrete_doc(rng, n_max=6, fac_budget=8)
        inst = load_instance(add_active_coupling(doc, rng, slack=1.5))
        state, _ = value_iterate(load_instance(doc))
        res = solve_coupled(inst)
        assert res.stop_reason == "gap"
        assert res.best_feasible.value == pytest.approx(state.psi, abs=1e-6)
        assert res.dual_bound >= res.best_feasible.value - 1e-9
        assert res.iterates[0].multipliers[0] == 0.0


def test_dual_matches_lp_on_continuous_instances():
    rng = np.random.default_rng(94)
    for _ in range(6):
        doc = add_active_coupling(random_continuous_doc(rng, n_max=8), rng)
        inst = load_instance(doc)
        res = solve_coupled(inst, CoupledConfig(tol=1e-6, max_outer=300))
        _, lp_value = lp_solve(lp_formulate(inst))
        scale = max(1.0, abs(lp_value))
        assert res.dual_bound >= lp_value - 1e-6 * scale
        assert (res.dual_bound - lp_value) / scale <= 1e-4
        assert res.candidate.feasible
        assert res.candidate.utility <= lp_value + 1e-6 * scale
        assert res.candidate.utility >= lp_value - 1e-6 * scale


def test_three_budget_rows_match_lp_or_certify_infeasibility():
    # three rows with slack 0.4-0.9 each: about half the draws admit no
    # strategy at all; the rest must close the gap to the LP, and the
    # randomized candidate must reach the LP value too
    rng = np.random.default_rng(4242)
    outcomes = []
    for k in range(30):
        doc = random_continuous_doc(rng, n_max=30)
        inst = load_instance(add_coupling_rows(doc, rng, 3, 0.4, 0.9))
        bounds = np.array([c.bound for c in inst.coupling])
        try:
            _, lp_value = lp_solve(lp_formulate(inst))
        except Infeasible:
            with pytest.raises(Infeasible) as exc:
                solve_coupled(inst, CoupledConfig(tol=1e-6, max_outer=300))
            lam = exc.value.multipliers
            assert lam is not None and float(lam.min()) >= 0.0
            # independent check: min over strategies of lam . (C - b) > 0
            cost = minus_weighted(inst.rewards.scaled(0.0),
                                  [c.weights for c in inst.coupling], lam)
            state, _ = value_iterate(local_only(inst, cost))
            margin = (-state.psi - (1.0 - inst.damping) * state.residual
                      - float(lam @ bounds))
            assert margin > 0.0, k
            outcomes.append("infeasible")
            continue
        res = solve_coupled(inst, CoupledConfig(tol=1e-6, max_outer=300))
        scale = max(1.0, abs(lp_value))
        assert res.stop_reason == "gap", k
        assert abs(res.dual_bound - lp_value) <= 1e-6 * scale, k
        assert res.candidate.feasible, k
        assert abs(res.candidate.utility - lp_value) <= 1e-6 * scale, k
        outcomes.append("feasible")
    assert outcomes.count("feasible") >= 10
    assert outcomes.count("infeasible") >= 10


def test_lp_single_page_and_frozen_two_page():
    doc = {
        "num_pages": 1,
        "damping": 0.85,
        "teleport": [1.0],
        "obligatory": [],
        "facultative": [],
        "rewards": {"type": "per_page", "values": [3.5]},
    }
    rho, value = lp_solve(lp_formulate(load_instance(doc)))
    np.testing.assert_allclose(rho, [[1.0]], atol=1e-10)
    assert value == pytest.approx(3.5, abs=1e-10)

    rho, value = lp_solve(lp_formulate(two_page_coupled_instance()))
    assert value == pytest.approx(0.5, abs=1e-7)
    np.testing.assert_allclose(rho.sum(), 1.0, atol=1e-9)
    np.testing.assert_allclose(rho.sum(axis=0), rho.sum(axis=1), atol=1e-9)
    assert float(rho.min()) >= -1e-9


def test_lp_matches_local_solver_without_coupling():
    rng = np.random.default_rng(95)
    for _ in range(6):
        inst = load_instance(random_discrete_doc(rng, n_max=5, fac_budget=6))
        state, _ = value_iterate(inst)
        _, value = lp_solve(lp_formulate(inst))
        assert value == pytest.approx(state.psi, abs=1e-7)


def _weight_doc(skeleton):
    """Four weight pages with fixed q rows; ``skeleton`` gives (mu, banned)."""
    q = [[0.25, 0.25, 0.25, 0.25], [0.5, 0.0, 0.5, 0.0],
         [0.1, 0.2, 0.3, 0.4], [0.0, 0.6, 0.0, 0.4]]
    return {
        "num_pages": 4,
        "damping": 0.8,
        "teleport": [0.1, 0.2, 0.3, 0.4],
        "obligatory": [],
        "facultative": [],
        "rewards": {"type": "per_page", "values": [1.0, -0.5, 0.25, 2.0]},
        "skeleton": [{"page": i, "q": q[i], "mu": mu, "banned": banned}
                     for i, (mu, banned) in enumerate(skeleton)],
    }


def test_lp_matches_local_solver_on_weight_pages():
    # weight pages enter the LP on their chain-space floor, with no row of
    # their own; fixed rows (mu = 0, also with every coordinate banned),
    # free rows (mu = 1) and banned coordinates must keep the LP exact
    rng = np.random.default_rng(97)
    docs = [random_continuous_doc(rng, n_max=8) for _ in range(6)]
    docs.append(_weight_doc([(0.0, []), (1.0, [3]), (0.5, [0, 3]),
                             (0.0, [0, 1, 2, 3])]))
    docs.append(_weight_doc([(1.0, []), (1.0, [0, 1]), (0.0, [2]), (0.3, [3])]))
    for doc in docs:
        inst = load_instance(doc)
        state, _ = value_iterate(inst, SolverConfig(tol=1e-10))
        _, value = lp_solve(lp_formulate(inst))
        assert value == pytest.approx(state.psi, abs=1e-7)


def _bench_generator():
    """The benchmark's seeded document generator, ``perfbench/generate.py``."""
    spec = importlib.util.spec_from_file_location(
        "generate", Path(__file__).resolve().parent.parent / "perfbench" / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    return generate


def _page_by_page_lp(instance):
    """``lp_formulate``'s arrays and blocks, built one page at a time with
    each weight page's floor and bans read by ``box`` and ``banned_of``:
    the reference for its batched reads."""
    n = instance.num_pages
    alpha = instance.damping
    store = instance.skeletons
    blocks, rows = [], []
    for page in range(n):
        if page in store.pages:
            floor = alpha * weight_box(store, page)[0] + (1.0 - alpha) * instance.teleport
            free = np.ones(n, dtype=bool)
            free[store.banned_of(page)] = False
            slack = max(1.0 - float(floor.sum()), 0.0)
            block = floor[:, None] + slack * np.eye(n)[:, free] if free.any() else floor[:, None]
            blocks.append(block)
            rows.append(np.zeros((0, block.shape[1])))
            continue
        obligatory, facultative = instance.obligatory_of(page), instance.facultative_of(page)
        f = facultative.size
        outlinks = np.zeros((n, 1 + f))
        if obligatory.size:
            outlinks[obligatory, 0] = 1.0 / obligatory.size
        else:
            outlinks[:, 0] = instance.dangling_teleport
        outlinks[facultative, 1 + np.arange(f)] = 1.0
        row = np.zeros((f if obligatory.size else 0, 1 + f))
        row[:, 0] = -1.0
        row[:, 1:] = obligatory.size * np.eye(row.shape[0], f)
        blocks.append((1.0 - alpha) * instance.teleport[:, None] + alpha * outlinks)
        rows.append(row)
    widths = [b.shape[1] for b in blocks]
    nx = sum(widths)
    local = np.zeros((sum(r.shape[0] for r in rows), nx))
    r0 = c0 = 0
    for row, w in zip(rows, widths):
        local[r0:r0 + row.shape[0], c0:c0 + w] = row
        r0, c0 = r0 + row.shape[0], c0 + w
    weights = np.stack([instance.rewards.dense()]
                       + [c.weights.dense() for c in instance.coupling])
    pulled = np.concatenate([weights[:, i] @ b for i, b in enumerate(blocks)], axis=1)
    flow = np.concatenate(blocks, axis=1)
    flow[np.repeat(np.arange(n), widths), np.arange(nx)] -= 1.0
    a_eq = np.vstack([np.ones(nx), flow])
    b_eq = np.zeros(a_eq.shape[0])
    b_eq[0] = 1.0
    a_ub = np.vstack([local, pulled[1:]])
    b_ub = np.zeros(a_ub.shape[0])
    b_ub[a_ub.shape[0] - len(instance.coupling):] = [c.bound for c in instance.coupling]
    return (pulled[0], a_eq, b_eq, a_ub, b_ub), blocks


def test_lp_formulate_matches_page_by_page_bounds():
    # every weight page's floor and bans, read once for all pages, give
    # the arrays that reading them page by page gives, bit for bit
    generate = _bench_generator()
    docs = [json.loads(text) for seed in (61, 62, 63)
            for text in generate.documents("small-crosscheck", seed)]
    assert len(docs) == 36
    # mu = 0 with every target banned; mu = 0 with a one-hot q on a target
    # that is not banned (floor = cap there); every target banned but one
    one_hot = _weight_doc([(0.0, [0, 1, 2, 3]), (0.0, [0]), (0.5, [0, 1, 3]), (1.0, [])])
    one_hot["skeleton"][1]["q"] = [0.0, 0.0, 1.0, 0.0]
    docs.append(one_hot)
    docs.append(_weight_doc([(0.5, [1, 2, 3]), (0.0, [1, 3]), (0.0, [0, 1, 2, 3]), (0.3, [3])]))
    rng = np.random.default_rng(29)
    docs += [add_active_coupling(mixed_doc(rng), rng) for _ in range(3)]
    docs += [add_active_coupling(random_continuous_doc(rng, n_max=10), rng) for _ in range(3)]
    docs.append(add_coupling_rows(link_web_doc(rng, 30, 3, 5), rng, 2, 0.7, 1.0))
    for doc in docs:
        inst = load_instance(doc)
        problem = lp_formulate(inst)
        arrays, blocks = _page_by_page_lp(inst)
        ours = (problem.objective, problem.a_eq, problem.b_eq, problem.a_ub, problem.b_ub)
        for a, b in zip(ours, arrays):
            assert a.shape == b.shape and np.array_equal(a, b)
        assert len(problem.blocks) == len(blocks)
        assert all(np.array_equal(a, b) for a, b in zip(problem.blocks, blocks))


def test_lp_on_mixed_pages_maps_back_to_an_occupation_measure():
    # the measure lp_solve maps back from the reduced variables balances
    # its flows, has unit mass, and the outlink part of each of its rows,
    # (rho_i - (1 - alpha) m_i z) / (alpha m_i), lies in its page's set;
    # its value meets the dual bound as in criterion 7
    rng = np.random.default_rng(96)
    for _ in range(4):
        inst = load_instance(add_active_coupling(mixed_doc(rng), rng))
        rho, lp_value = lp_solve(lp_formulate(inst))
        assert rho.shape == (7, 7)
        assert rho.sum() == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(rho.sum(axis=0), rho.sum(axis=1), atol=1e-9)
        alpha = inst.damping
        for i in range(7):
            mass = rho[i].sum()
            assert mass > 0.0
            sigma = (rho[i] / mass - (1.0 - alpha) * inst.teleport) / alpha
            if i in inst.skeletons.pages:
                system = facets_box(*weight_box(inst.skeletons, i))
            else:
                system = facets_discrete(inst.obligatory_of(i), inst.facultative_of(i),
                                         inst.dangling_teleport, 7)
            verdict = separate(system, sigma, tol=1e-9 / alpha)
            assert not verdict.violated, (i, verdict.description)
        res = solve_coupled(inst, CoupledConfig(tol=1e-6, max_outer=300))
        scale = max(1.0, abs(lp_value))
        assert res.dual_bound >= lp_value - 1e-6 * scale
        assert (res.dual_bound - lp_value) / scale <= 1e-4


# the draws of default_rng(1), among 300, whose degenerate LPs a simplex
# breaking ratio ties by basic index (with a Bland fallback) got wrong: 9
# false Infeasible and 3 wrong optima that check_occupation rejected
_DEGENERATE_DRAWS = (25, 47, 71, 105, 109, 128, 153, 264, 267, 273, 289, 290)


def test_lp_on_degenerate_draws_matches_dual_bound():
    # small discrete instances with per-link rewards and one active budget row
    rng = np.random.default_rng(1)
    docs = [add_active_coupling(random_discrete_doc(rng), rng) for _ in range(300)]
    for k in _DEGENERATE_DRAWS:
        inst = load_instance(docs[k])
        _, lp_value = lp_solve(lp_formulate(inst))
        bound = solve_coupled(inst).dual_bound
        assert abs(lp_value - bound) <= 1e-6 * max(1.0, abs(lp_value)), k


def test_lp_on_link_webs_matches_dual_bound():
    # 60-100 pages with 5 controlled: one column per page plus one per
    # facultative link, and one row per link on a page with obligatory
    # links, where the chain-space form had n * n columns
    rng = np.random.default_rng(98)
    for n in (60, 80, 100):
        inst = load_instance(add_active_coupling(link_web_doc(rng, n, 5, 20), rng))
        problem = lp_formulate(inst)
        assert problem.objective.size == n + inst.fac_indices.size
        _, lp_value = lp_solve(problem)
        res = solve_coupled(inst)
        state, _ = value_iterate(local_only(inst))
        assert lp_value < state.psi - 1e-6  # the budget row bites
        assert abs(lp_value - res.dual_bound) <= 1e-6 * max(1.0, abs(lp_value)), n


@st.composite
def _tiny_discrete_docs(draw):
    """2-5 pages, at most 8 facultative links, per-page or per-link rewards."""
    n = draw(st.integers(2, 5))
    kinds = draw(st.lists(st.sampled_from("-of"), min_size=n * n, max_size=n * n))
    pairs = [[i, j] for i in range(n) for j in range(n)]
    teleport = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    values = st.floats(-1.0, 1.0)
    doc = {
        "num_pages": n,
        "damping": draw(st.floats(0.3, 0.95)),
        "teleport": [x / sum(teleport) for x in teleport],
        "obligatory": [p for p, k in zip(pairs, kinds) if k == "o"],
        "facultative": [p for p, k in zip(pairs, kinds) if k == "f"][:8],
    }
    if draw(st.booleans()):
        doc["rewards"] = {"type": "per_link", "default": 0.0,
                          "entries": [p + [draw(values)] for p in pairs]}
    else:
        doc["rewards"] = {"type": "per_page",
                          "values": draw(st.lists(values, min_size=n, max_size=n))}
    if draw(st.booleans()):
        hang = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=n, max_size=n))
        hang = hang if sum(hang) > 0.0 else [1.0] + [0.0] * (n - 1)
        doc["dangling_teleport"] = [x / sum(hang) for x in hang]
    return doc


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_tiny_discrete_docs())
def test_lp_local_solver_and_enumeration_agree(doc):
    inst = load_instance(doc)
    _, lp_value = lp_solve(lp_formulate(inst))
    state, _ = value_iterate(inst, SolverConfig(tol=1e-10))
    best = brute_force_optimum(inst).value
    assert lp_value == pytest.approx(best, abs=1e-7)
    assert state.psi == pytest.approx(best, abs=1e-7)


def test_occupation_check_catches_one_page_off_its_facets():
    # move mass in one page's row onto a coordinate its set pins to the
    # floor, and back in a second row, so mass, flow balance and the
    # per-page budget row still hold and only the facet rows can object
    rng = np.random.default_rng(97)
    eps = 1e-4
    for _ in range(3):
        inst = load_instance(add_active_coupling(mixed_doc(rng), rng))
        rho, _ = lp_solve(lp_formulate(inst))
        check_occupation(inst, rho)
        for i in range(inst.num_pages):
            if i in inst.skeletons.pages:
                k = int(inst.skeletons.banned_of(i)[0])
            else:
                links = set(inst.obligatory_of(i)) | set(inst.facultative_of(i))
                k = next(j for j in range(inst.num_pages) if j not in links)
            j = int(np.argmax(np.where(np.arange(inst.num_pages) == k, -1.0, rho[i])))
            others = [p for p in range(inst.num_pages) if p != i]
            i2 = max(others, key=lambda p: rho[p, k])
            assert rho[i, j] > eps and rho[i2, k] > eps
            bad = rho.copy()
            bad[i, j] -= eps
            bad[i, k] += eps
            bad[i2, j] += eps
            bad[i2, k] -= eps
            with pytest.raises(ProError, match=r"row (\d+) of the occupation "
                                               r"measure violates .* by") as exc:
                check_occupation(inst, bad)
            named = int(str(exc.value).split()[1])
            assert named in (i, i2)


def test_unreachable_budget_is_infeasible():
    doc = {
        "num_pages": 2,
        "damping": 0.85,
        "teleport": [0.5, 0.5],
        "obligatory": [],
        "facultative": [[0, 1], [1, 0]],
        "rewards": {"type": "per_page", "values": [0.0, 1.0]},
        "coupling": [{"per_page": [1.0, 1.0], "bound": 0.5}],
    }
    inst = load_instance(doc)
    with pytest.raises(Infeasible):
        lp_solve(lp_formulate(inst))
    # certify independently: even minimal spending exceeds the bound
    cost = minus_weighted(inst.rewards.scaled(0.0), [inst.coupling[0].weights], np.ones(1))
    state, _ = value_iterate(local_only(inst, cost))
    assert -state.psi > inst.coupling[0].bound
    # the dual route raises too, with the multipliers that certify it
    with pytest.raises(Infeasible) as exc:
        solve_coupled(inst, CoupledConfig(max_outer=30))
    np.testing.assert_allclose(exc.value.multipliers, [1.0])


def _all_weight_doc(n):
    """``n`` weight pages on uniform ``q``, no bans, one budget row."""
    return {
        "num_pages": n,
        "damping": 0.85,
        "teleport": "uniform",
        "rewards": {"type": "per_page", "values": [0.0] * n},
        "skeleton": [{"page": i, "q": [1.0 / n] * n, "mu": 0.5, "banned": []}
                     for i in range(n)],
        "coupling": [{"per_page": [1.0] * n, "bound": 2.0}],
    }


def test_lp_size_cap(monkeypatch):
    # the tableau of n weight pages has n + 2 rows over n * n columns, 1
    # slack and n + 2 artificials: 141 pages fit in LP_CELL_CAP, 142 do not
    problem = lp_formulate(load_instance(_all_weight_doc(141)))
    assert problem.objective.size == 141 * 141
    for n in (142, 201):
        cells = (n + 2) * (n * n + 1 + (n + 2) + 1)
        with pytest.raises(TooLarge, match=f"needs {cells} cells, above the cap "):
            lp_formulate(load_instance(_all_weight_doc(n)))
    # the cap is checked before any page's bounds are read

    def no_bounds(*args):
        raise AssertionError("the weight pages' bounds were read")

    inst = load_instance(_all_weight_doc(142))
    monkeypatch.setattr(WeightRows, "bounds", no_bounds)
    with pytest.raises(TooLarge):
        lp_formulate(inst)


def _master_after(income, spending, bounds):
    """A master fed the columns one at a time, solved after each."""
    master = solver_coupled._Master(bounds)
    for u, c in zip(income, spending):
        master.add(u, c)
        master.solve()
    return master


@pytest.mark.parametrize("k", [1, 3, 5, 8])
def test_master_solves_forty_policies_on_k_rows(k):
    # 40 policies and 3 rows already have C(43, 4) = 123,410 bases; the
    # simplex pivots through a few of them
    master = _master_after(np.zeros(40), np.zeros((40, k)), np.ones(k))
    assert not master.phase1
    assert master.value == 0.0 and master.mu.sum() == pytest.approx(1.0)
    np.testing.assert_array_equal(master.lam, np.zeros(k))
    # a random program against the independent dense simplex, with
    # repeated columns and degenerate ones: spending on a bound in some
    # rows, and one policy on every bound, which makes the program feasible
    rng = np.random.default_rng(40 + k)
    income, spending, bounds = rng.uniform(0, 1, 40), rng.uniform(0, 1, (40, k)), np.full(k, 0.45)
    income[30:35], spending[30:35] = income[5:10], spending[5:10]
    spending[10:20] = np.where(rng.uniform(size=(10, k)) < 0.5, bounds, spending[10:20])
    spending[25] = bounds
    master = _master_after(income, spending, bounds)
    _, value = solve_dense_lp(income, np.ones((1, 40)), np.ones(1), spending.T, bounds,
                              maximize=True)
    assert master.pivots >= k and not master.phase1
    assert master.value == pytest.approx(value, abs=1e-12)
    mu = master.mu
    assert mu.min() >= 0.0 and mu.sum() == pytest.approx(1.0)
    assert np.all(mu @ spending <= bounds + 1e-12)
    assert mu @ income == pytest.approx(value, abs=1e-12)
    # the duals are optimal: the cut model is as low as the master value
    assert master.lam.min() >= 0.0
    assert float(np.max(income + (bounds - spending) @ master.lam)) == pytest.approx(value, abs=1e-12)


def test_several_budget_rows_solve_or_certify_infeasibility():
    # 100-page webs with five and eight budget rows (15 to 39 dual calls):
    # each solve meets the LP, or raises Infeasible exactly where the LP
    # is infeasible
    outcomes = []
    for k, docs in ((5, 4), (8, 5)):
        rng = np.random.default_rng(100 + k)
        for i in range(docs):
            inst = load_instance(add_coupling_rows(link_web_doc(rng, 100, 5, 20), rng, k, 0.7, 1.0))
            try:
                _, lp_value = lp_solve(lp_formulate(inst))
            except Infeasible:
                with pytest.raises(Infeasible):
                    solve_coupled(inst)
                outcomes.append("infeasible")
                continue
            res = solve_coupled(inst)
            assert res.stop_reason == "gap", (k, i)
            assert abs(res.dual_bound - lp_value) <= 1e-6 * max(1.0, abs(lp_value)), (k, i)
            assert len(res.master_pivots) == res.iterations
            outcomes.append("feasible")
    assert outcomes.count("feasible") == 6 and outcomes.count("infeasible") == 3


def test_corrupted_master_inverse_is_refused(monkeypatch):
    inst = _coupled_discrete(np.random.default_rng(92), n_max=5, fac_budget=6)
    priced = []
    price = solver_coupled._Run.price

    def spy(self, s, lam, *args):
        priced.append(lam.copy())
        return price(self, s, lam, *args)

    monkeypatch.setattr(solver_coupled._Run, "price", spy)
    solve_coupled(inst)
    assert len(priced) > 1

    # a wrong factor fails the certificate: the run raises, and no
    # multiplier of the broken master reaches a local solve
    master = solver_coupled._Master
    factor = master._factor

    def bad_factor(self):
        factor(self)
        self.binv[0] += 0.5

    monkeypatch.setattr(master, "_factor", bad_factor)
    priced.clear()
    with pytest.raises(ProError, match="certificate"):
        solve_coupled(inst)
    assert len(priced) == 1 and not priced[0].any()


def test_large_instance_skips_dense_measure():
    n = 201
    doc = {
        "num_pages": n,
        "damping": 0.85,
        "teleport": [1.0 / n] * n,
        "obligatory": [],
        "facultative": [],
        "rewards": {"type": "per_page", "values": [0.0] * n},
        "coupling": [{"per_page": [1.0] * n, "bound": 2.0}],
    }
    it = dual_value(load_instance(doc), np.zeros(1))
    assert it.feasible  # total visit mass is 1, under the bound of 2


def test_memory_does_not_grow_with_max_outer():
    # a 50k-page web with one active row, run at tol 0 so each solve goes
    # on until a dual call brings no new column or max_outer ends it;
    # per iteration the solver keeps O(K) numbers, not vectors
    inst = power_law_instance(50_000, 200, 50, seed=21)
    weights = Rewards.per_page(np.random.default_rng(21).uniform(0.0, 1.0, 50_000))

    def spending(rewards):
        _, strat = value_iterate(local_only(inst, rewards))
        trans = build_transition(inst, strat)
        return utility_from_chain(trans, stationary(trans).pi, weights)

    low, high = spending(weights.scaled(-1.0)), spending(inst.rewards)
    inst = replace(inst, coupling=(CouplingRow(weights, 0.5 * (low + high)),))
    peaks = []
    for max_outer in (20, 200):
        tracemalloc.start()
        res = solve_coupled(inst, CoupledConfig(tol=0.0, max_outer=max_outer))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert res.candidate.feasible
    assert peaks[1] <= 1.1 * peaks[0]


def _count_simplex_runs(monkeypatch):
    """Patch ``simplex._run`` to log its calls: two for a solve that runs
    phase 1, one for a solve that starts at a feasible basis."""
    runs, run = [], simplex._run
    monkeypatch.setattr(simplex, "_run", lambda *args: runs.append(1) or run(*args))
    return runs


def test_lp_start_keeps_the_cold_optimum(monkeypatch):
    # the 36 small-crosscheck LPs of seeds 61-63, the 50 of criterion 7 and
    # the 12 degenerate discrete draws: lp_solve's start changes the path,
    # not the value, and its rho passes check_occupation (lp_solve raises
    # otherwise); some starts overspend the budget row and run phase 1
    generate = _bench_generator()
    insts = [load_instance(json.loads(text)) for seed in (61, 62, 63)
             for text in generate.documents("small-crosscheck", seed)]
    rng = np.random.default_rng(3007)
    insts += [load_instance(add_active_coupling(random_continuous_doc(rng, n_max=30), rng))
              for _ in range(50)]
    rng = np.random.default_rng(1)
    docs = [add_active_coupling(random_discrete_doc(rng), rng) for _ in range(300)]
    insts += [load_instance(docs[k]) for k in _DEGENERATE_DRAWS]
    runs = _count_simplex_runs(monkeypatch)
    started = 0
    for k, inst in enumerate(insts):
        lp = lp_formulate(inst)
        _, cold = solve_dense_lp(lp.objective, lp.a_eq, lp.b_eq, lp.a_ub, lp.b_ub,
                                 maximize=True)
        runs.clear()
        _, value = lp_solve(lp)
        started += len(runs) == 1
        assert value == pytest.approx(cold, rel=1e-9, abs=1e-12), k
    assert 30 <= started < len(insts)


@pytest.mark.parametrize("start", [
    [0, 2],  # x0 = 1 overspends the row x0 <= 0.5: its slack is -0.5
    [0, 0],  # singular
    [3, 2],  # the artificial of the equality row, at 1 rather than 0
])
def test_lp_start_falls_back_to_phase_one(monkeypatch, start):
    problem = (np.array([1.0, 0.0]), np.array([[1.0, 1.0]]), np.array([1.0]),
               np.array([[1.0, 0.0]]), np.array([0.5]))
    cold = solve_dense_lp(*problem, maximize=True)
    runs = _count_simplex_runs(monkeypatch)
    x, value = solve_dense_lp(*problem, maximize=True, start=np.array(start))
    assert len(runs) == 2
    assert np.array_equal(x, cold[0]) and value == cold[1] == 0.5
