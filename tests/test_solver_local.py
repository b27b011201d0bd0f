"""Fixed-point solver for the best local strategy.

The solver's income figure is held against full strategy enumeration on
small instances; the one-sweep operator is checked for its contraction
modulus and its shift equivariance, on which the span stop rests; the
returned value vector must lie within ``tol`` of the exact one.
"""

import numpy as np
import pytest

from helpers import (
    exact_utility,
    power_law_instance,
    random_continuous_doc,
    random_discrete_doc,
    random_discrete_instance,
    random_strategy,
    two_page_coupled_instance,
    two_page_instance,
)
from pro.chain import mean_reward_before_teleport
from pro.errors import CouplingPresent, MaxIterExceeded, ValidationError
from pro.graph import DiscreteChoice, build_transition, load_instance
from pro.oracle import brute_force_optimum
from pro.solver_local import (
    SolverConfig,
    bellman_apply,
    iteration_budget,
    value_iterate,
)


def test_two_page_frozen_solution():
    state, strat = value_iterate(two_page_instance())
    np.testing.assert_allclose(state.w, [39.72972973, 35.77027027], atol=1e-6)
    assert state.psi == pytest.approx(5.6625, abs=1e-8)
    assert strat.choices[0] == DiscreteChoice((1,))
    assert strat.choices[1] == DiscreteChoice((0,))


def test_income_matches_enumeration():
    rng = np.random.default_rng(40)
    for _ in range(20):
        inst = random_discrete_instance(rng)
        state, strat = value_iterate(inst)
        ref = brute_force_optimum(inst)
        assert abs(state.psi - ref.value) <= 1e-8
        assert abs(exact_utility(inst, strat) - state.psi) <= 1e-8


def test_sweep_moves_with_constants_at_damping_rate():
    # T(w + c) = T(w) + damping * c: every admissible row sums to one
    rng = np.random.default_rng(41)
    docs = [random_discrete_doc(rng) for _ in range(20)]
    docs += [random_continuous_doc(rng, n_max=12) for _ in range(10)]
    for doc in docs:
        inst = load_instance(doc)
        w = rng.normal(size=inst.num_pages) * 10.0
        c = float(rng.normal()) * 10.0
        moved = bellman_apply(inst, w + c) - bellman_apply(inst, w)
        assert float(np.abs(moved - inst.damping * c).max()) <= 1e-12


def test_value_error_within_tol():
    # the midpoint of the span bracket is within tol of the exact value
    # vector, read off a dense solve of an optimal strategy's chain
    rng = np.random.default_rng(46)
    for k in range(40):
        damping = 0.95 if k % 4 == 0 else None
        inst = load_instance(random_discrete_doc(rng, damping=damping))
        trans = build_transition(inst, brute_force_optimum(inst).strategy)
        rbar = mean_reward_before_teleport(trans, inst.rewards).rbar
        w_exact = np.linalg.solve(
            np.eye(inst.num_pages) - inst.damping * trans.dense_s(), rbar)
        for tol in (1e-3, 1e-6, 1e-9):
            state, _ = value_iterate(inst, SolverConfig(tol=tol))
            err = float(np.abs(state.w - w_exact).max())
            assert state.residual <= tol
            assert err <= state.residual + 1e-12


def test_span_stop_ends_well_before_the_budget():
    inst = power_law_instance(5000, 50, 200, seed=88)
    state, _ = value_iterate(inst, SolverConfig(tol=1e-8))
    assert state.iterations <= 40


def test_one_sweep_is_a_contraction():
    rng = np.random.default_rng(42)
    for _ in range(15):
        inst = random_discrete_instance(rng)
        w = rng.normal(size=inst.num_pages) * 10.0
        u = rng.normal(size=inst.num_pages) * 10.0
        lhs = float(np.abs(bellman_apply(inst, w) - bellman_apply(inst, u)).max())
        rhs = inst.damping * float(np.abs(w - u).max())
        assert lhs <= rhs + 1e-12


def test_iteration_budget_closed_form():
    assert iteration_budget(0.85, 1e-8) == 114
    assert iteration_budget(0.5, 0.25) == 2
    with pytest.raises(ValidationError):
        iteration_budget(1.0, 1e-8)
    with pytest.raises(ValidationError):
        iteration_budget(0.85, 0.0)


def test_iterations_within_budget():
    rng = np.random.default_rng(43)
    for _ in range(10):
        inst = random_discrete_instance(rng, damping=0.85)
        state, _ = value_iterate(inst, SolverConfig(tol=1e-8))
        # rescaled rewards keep the start within a 2/(1-a) ball, so the
        # closed-form budget plus the threshold conversion margin holds
        slack = iteration_budget(0.85, (1.0 - 0.85) / 0.85) + 1
        assert state.iterations <= iteration_budget(0.85, 1e-8) + slack + 5


def test_warm_start_converges_fast():
    inst = two_page_instance()
    state, _ = value_iterate(inst)
    again, strat = value_iterate(inst, w0=state.w)
    assert again.iterations <= 2
    assert abs(again.psi - state.psi) <= 1e-9
    assert strat.choices[0] == DiscreteChoice((1,))


def test_budget_exhaustion_carries_best_pair():
    with pytest.raises(MaxIterExceeded) as exc:
        value_iterate(two_page_instance(), SolverConfig(max_iter=1))
    state, strat = exc.value.result
    assert state.iterations == 1
    assert set(strat.choices) == {0, 1}


def test_coupled_instance_is_refused():
    with pytest.raises(CouplingPresent):
        value_iterate(two_page_coupled_instance())


def test_per_page_reward_instances():
    rng = np.random.default_rng(44)
    for _ in range(8):
        inst = random_discrete_instance(rng, reward_kind="per_page")
        state, strat = value_iterate(inst)
        ref = brute_force_optimum(inst)
        assert abs(state.psi - ref.value) <= 1e-8
        assert abs(exact_utility(inst, strat) - state.psi) <= 1e-8


def test_weight_skeleton_instances():
    """Continuous pages: reported income is achieved and locally maximal."""
    rng = np.random.default_rng(45)
    for _ in range(6):
        inst = load_instance(random_continuous_doc(rng, n_max=8))
        state, strat = value_iterate(inst)
        assert abs(exact_utility(inst, strat) - state.psi) <= 1e-7
        for _ in range(10):
            other = random_strategy(rng, inst)
            assert exact_utility(inst, other) <= state.psi + 1e-7
