"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single summary line with the measured numbers on
success, so a verbose run reads as a checklist.  Tolerances are stated
inline and are not derived from the unit suite.
"""

import math
import time

import numpy as np

from helpers import (
    add_active_coupling,
    chain_utility,
    exact_stationary,
    exact_utility,
    facet_vertices,
    power_law_instance,
    random_continuous_doc,
    random_discrete_doc,
    random_strategy,
    same_point_set,
    two_page_coupled_instance,
    two_page_instance,
)
from pro.analysis import master_ordering
from pro.chain import utility_gradient
from pro.graph import DiscreteChoice, Strategy, build_transition, load_instance
from pro.oracle import brute_force_optimum
from pro.polytopes import facets_discrete
from pro.solver_coupled import (CoupledConfig, lp_formulate, lp_solve,
                                solve_coupled)
from pro.solver_local import (CompiledBellman, SolverConfig, iteration_budget,
                              value_iterate)


def test_criterion_1_two_page_value_vector():
    # value vector (39.7, 35.8) within 0.05 per coordinate, cross link
    # strategy, solve under 10 ms
    inst = two_page_instance()
    value_iterate(inst)  # warm the numpy kernels before timing
    elapsed = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        state, strat = value_iterate(inst)
        elapsed = min(elapsed, time.perf_counter() - t0)
    assert abs(state.w[0] - 39.7) <= 0.05
    assert abs(state.w[1] - 35.8) <= 0.05
    assert strat.choices[0].activated == (1,)
    assert strat.choices[1].activated == (0,)
    assert elapsed < 0.010
    print("criterion 1: PASS  w=(%.4f, %.4f)  %.2f ms"
          % (state.w[0], state.w[1], elapsed * 1e3))


def test_criterion_2_two_page_coupled_bound():
    # dual bound and balanced primal candidate both at 0.5 within 1e-3,
    # under one second
    t0 = time.perf_counter()
    res = solve_coupled(two_page_coupled_instance(),
                        CoupledConfig(tol=1e-6, max_outer=200))
    elapsed = time.perf_counter() - t0
    assert abs(res.dual_bound - 0.5) <= 1e-3
    assert res.candidate is not None and res.candidate.feasible
    assert abs(res.candidate.pi[0] - 0.5) <= 1e-3
    assert abs(res.candidate.pi[1] - 0.5) <= 1e-3
    assert elapsed < 1.0
    print("criterion 2: PASS  dual=%.9f  pi=(%.4f, %.4f)  %.0f ms"
          % (res.dual_bound, res.candidate.pi[0], res.candidate.pi[1],
             elapsed * 1e3))


def test_criterion_3_solver_matches_enumeration():
    # 200 random discrete instances: solver income equals exhaustive
    # enumeration and the extracted strategy re-evaluates to the same
    # income, both within 1e-8, under 60 s total
    rng = np.random.default_rng(3001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        inst = load_instance(random_discrete_doc(rng))
        state, strat = value_iterate(inst)
        ref = brute_force_optimum(inst)
        dev = max(abs(state.psi - ref.value),
                  abs(exact_utility(inst, strat) - state.psi))
        worst = max(worst, dev)
        assert dev <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print("criterion 3: PASS  worst deviation %.2e  %.1f s" % (worst, elapsed))


def _hull_vertices(obligatory, facultative, hang, n):
    """Expected vertex list of one discrete page's action hull.

    Three shapes: with an obligatory anchor every activation pattern is
    a vertex; otherwise the hull is a simplex over the facultative unit
    rows, with the no-link row joining as an apex when it puts mass
    outside the facultative set.
    """
    if obligatory:
        out = []
        for bits in range(1 << len(facultative)):
            support = list(obligatory) + [
                j for k, j in enumerate(facultative) if bits >> k & 1]
            row = np.zeros(n)
            row[support] = 1.0 / len(support)
            out.append(row)
        return out
    apex = any(hang[j] > 0.0 for j in range(n) if j not in facultative)
    verts = [np.eye(n)[j] for j in facultative]
    if apex:
        verts.append(np.asarray(hang, dtype=float))
    return verts


def test_criterion_4_facets_match_action_hull():
    # 200 random page configurations with up to 10 facultative links:
    # brute-force vertex enumeration of the facet system equals the
    # case-analysis vertex list exactly (matching tolerance 1e-8)
    rng = np.random.default_rng(3002)
    t0 = time.perf_counter()
    cases = [0, 0, 0]
    for _ in range(200):
        n = int(rng.integers(2, 13))
        perm = rng.permutation(n)
        n_o = int(rng.integers(0, 3))
        n_f = int(rng.integers(0, min(10, n - n_o) + 1))
        obl = tuple(sorted(int(j) for j in perm[:n_o]))
        fac = tuple(sorted(int(j) for j in perm[n_o:n_o + n_f]))
        if rng.random() < 0.5 and fac:
            # fallback supported inside the facultative set
            hang = np.zeros(n)
            hang[list(fac)] = 1.0 / len(fac)
        else:
            hang = rng.random(n) + 1e-3
            hang /= hang.sum()
        system = facets_discrete(obl, fac, hang, n)
        got = facet_vertices(system)
        want = _hull_vertices(obl, fac, hang, n)
        assert same_point_set(got, want, tol=1e-8), (n, obl, fac)
        kind = 0 if obl else (
            1 if any(hang[j] > 0.0 for j in range(n) if j not in fac) else 2)
        cases[kind] += 1
    print("criterion 4: PASS  anchor/apex/simplex cases %d/%d/%d  %.1f s"
          % (cases[0], cases[1], cases[2], time.perf_counter() - t0))


def test_criterion_5_contraction_and_budget():
    # sweep operator contracts at the damping factor on 100 random
    # pairs; iteration counts match within 2 across a 10x size jump;
    # the sweep budget is ceil(log tol / log damping)
    small = power_law_instance(1000, 5, 8, seed=90, reward_frac=1.0)
    big = power_law_instance(10_000, 50, 8, seed=90, reward_frac=1.0)
    rng = np.random.default_rng(3005)
    alpha = small.damping
    worst = 0.0
    op = CompiledBellman(small, small.rewards)
    for _ in range(100):
        w = rng.standard_normal(small.num_pages) * 10.0
        w2 = rng.standard_normal(small.num_pages) * 10.0
        lhs = float(np.abs(op.apply(w) - op.apply(w2)).max())
        rhs = alpha * float(np.abs(w - w2).max())
        assert lhs <= rhs * (1.0 + 1e-12) + 1e-12
        worst = max(worst, lhs / rhs if rhs else 0.0)
    st_small, _ = value_iterate(small, SolverConfig(tol=1e-8))
    st_big, _ = value_iterate(big, SolverConfig(tol=1e-8))
    assert abs(st_small.iterations - st_big.iterations) <= 2
    assert iteration_budget(0.85, 1e-8) == math.ceil(
        math.log(1e-8) / math.log(0.85)) == 114
    print("criterion 5: PASS  worst ratio %.6f  iterations %d vs %d"
          % (worst, st_small.iterations, st_big.iterations))


def test_criterion_6_gradient_inner_products():
    # analytic income gradient against central differences on 100
    # admissible chain pairs, relative tolerance 1e-5
    rng = np.random.default_rng(3006)
    checked, worst = 0, 0.0
    while checked < 100:
        if checked % 3 == 2:
            inst = load_instance(random_continuous_doc(rng, n_max=10))
        else:
            inst = load_instance(random_discrete_doc(rng, n_max=6,
                                                     fac_budget=8))
        a = build_transition(inst, random_strategy(rng, inst))
        b = build_transition(inst, random_strategy(rng, inst))
        direction = b.dense_p() - a.dense_p()
        if float(np.abs(direction).max()) < 1e-9:
            continue
        grad = utility_gradient(a, inst.rewards)
        predicted = float(np.sum(grad * direction))
        h = 1e-6

        def income_at(t):
            p = a.dense_p() + t * direction
            return chain_utility(p, exact_stationary(p), inst.rewards)

        measured = (income_at(h) - income_at(-h)) / (2.0 * h)
        dev = abs(predicted - measured) / max(1.0, abs(measured))
        worst = max(worst, dev)
        assert dev <= 1e-5
        checked += 1
    print("criterion 6: PASS  worst relative deviation %.2e" % worst)


def test_criterion_7_dual_vs_linear_program():
    # 50 random continuous instances with one active budget row: the
    # dual bound is within 1e-4 of the exact occupation-measure linear
    # program, and stays above it at every sampled multiplier
    rng = np.random.default_rng(3007)
    t0 = time.perf_counter()
    worst_gap = 0.0
    for k in range(50):
        doc = random_continuous_doc(rng, n_max=30)
        inst = load_instance(add_active_coupling(doc, rng))
        res = solve_coupled(inst, CoupledConfig(tol=1e-6, max_outer=300))
        _, lp_value = lp_solve(lp_formulate(inst))
        scale = max(1.0, abs(lp_value))
        gap = (res.dual_bound - lp_value) / scale
        worst_gap = max(worst_gap, gap)
        assert res.dual_bound >= lp_value - 1e-6 * scale, k
        for it in res.iterates:
            assert it.theta >= lp_value - 1e-6 * scale, k
        assert gap <= 1e-4, (k, gap)
    print("criterion 7: PASS  worst relative gap %.2e  %.1f s"
          % (worst_gap, time.perf_counter() - t0))


def test_criterion_8_web_scale_discrete_solve():
    # 400k-page power-law web, ~2.7M obligatory plus ~2M facultative
    # links: discrete solve at tol 1e-8 finishes within 120 s and within
    # five sweeps of the contraction budget
    inst = power_law_instance(400_000, 2000, 1000, seed=88)
    assert 2.3e6 <= inst.obl_indices.size <= 3.1e6
    assert 1.7e6 <= inst.fac_indices.size <= 2.3e6
    t0 = time.perf_counter()
    state, strat = value_iterate(inst, SolverConfig(tol=1e-8))
    elapsed = time.perf_counter() - t0
    cap = iteration_budget(0.85, 1e-8) + 5
    assert elapsed <= 120.0
    assert state.iterations <= cap
    assert len(strat.choices) == 2000
    assert np.isfinite(state.psi) and state.psi > 0.0
    print("criterion 8: PASS  %.1f s  %d sweeps (cap %d)  income %.3e"
          % (elapsed, state.iterations, cap, state.psi))


def _required_link_drops(rng, count, reward_kind):
    """Audit the solver's strategy on ``count`` random discrete documents:
    no violation, and deleting the first clearly-required link of each
    strictly lowers the exact income.  Returns the number of deletions."""
    drops = 0
    for _ in range(count):
        inst = load_instance(random_discrete_doc(rng, reward_kind=reward_kind))
        _, strat = value_iterate(inst)
        report = master_ordering(inst, strat)
        assert report.violations == ()
        required = np.flatnonzero((report.kinds == "required") & (report.margins > 1e-6))
        if required.size:
            i, target = int(report.pages[required[0]]), int(report.targets[required[0]])
            pruned = dict(strat.choices)
            pruned[i] = DiscreteChoice(tuple(j for j in pruned[i].activated if j != target))
            assert exact_utility(inst, Strategy(pruned)) < exact_utility(inst, strat) - 1e-12
            drops += 1
    return drops


def test_criterion_9_master_page_audit():
    # per-page-reward twins of the criterion 3 family
    drops = _required_link_drops(np.random.default_rng(3009), 200, "per_page")
    assert drops >= 50
    print("criterion 9: PASS  %d required-link deletions all lost income"
          % drops)


def test_criterion_9_per_link_audit():
    # the same audit on per-link rewards, where each link's score is
    # r[i, j] + v[j] against its page's average score
    drops = _required_link_drops(np.random.default_rng(4009), 100, "per_link")
    assert drops >= 25
    print("criterion 9 (per link): PASS  %d required-link deletions all lost income"
          % drops)
