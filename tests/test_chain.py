"""Chain-level quantities: stationary measure, occupation, incomes.

Every numeric claim is checked against a second route: dense linear
algebra through the oracle module, or a hand-derived closed form.
"""

import itertools

import numpy as np
import pytest

from helpers import (
    link_web_doc,
    chain_utility,
    exact_stationary,
    local_only,
    power_law_instance,
    random_continuous_doc,
    random_discrete_doc,
    random_discrete_instance,
    random_strategy,
    recover,
    reward_transform,
    truncation_error_bound,
    two_page_doc,
    two_page_instance,
)
from pro.chain import (
    DENSE_EVAL_CAP,
    mean_reward_before_teleport,
    occupation,
    stationary,
    utility,
    utility_from_chain,
    utility_gradient,
)
from pro.errors import MaxIterExceeded, TooLarge, ValidationError
from pro.graph import DiscreteChoice, Strategy, build_transition, load_instance
from pro.solver_local import value_iterate

CROSS_STRATEGY = Strategy({0: DiscreteChoice((1,)), 1: DiscreteChoice((0,))})


def _random_pair(rng, **kw):
    inst = random_discrete_instance(rng, **kw)
    return inst, random_strategy(rng, inst)


def test_two_page_frozen_quantities():
    """Known two-page chain: every derived quantity in closed form."""
    inst = two_page_instance()
    trans = build_transition(inst, CROSS_STRATEGY)

    np.testing.assert_allclose(
        trans.dense_p(), [[0.075, 0.925], [0.925, 0.075]], atol=1e-15)

    dist = stationary(trans)
    np.testing.assert_allclose(dist.pi, [0.5, 0.5], atol=1e-12)
    assert dist.residual <= 1e-12

    meas = occupation(trans, dist.pi)
    np.testing.assert_allclose(
        meas.rho, [[0.0375, 0.4625], [0.4625, 0.0375]], atol=1e-12)
    np.testing.assert_allclose(meas.pi, dist.pi, atol=1e-15)

    mr = mean_reward_before_teleport(trans, inst.rewards)
    np.testing.assert_allclose(mr.rbar, [9.325, 2.0], atol=1e-12)
    np.testing.assert_allclose(mr.v, [39.72972973, 35.77027027], atol=1e-7)

    income = utility(meas, inst.rewards)
    assert abs(income - 5.6625) <= 1e-10
    # income equals the teleport-weighted value vector scaled by the jump rate
    assert abs(income - 0.15 * float(np.dot([0.5, 0.5], mr.v))) <= 1e-8


def test_stationary_matches_direct_solve():
    rng = np.random.default_rng(20)
    for _ in range(30):
        inst, strat = _random_pair(rng)
        trans = build_transition(inst, strat)
        dist = stationary(trans)
        pi_exact = exact_stationary(trans.dense_p())
        np.testing.assert_allclose(dist.pi, pi_exact, atol=1e-10)
        assert abs(dist.pi.sum() - 1.0) <= 1e-12


def test_stationary_residual_is_recomputed():
    # residual is the certified L1 error bound of the returned iterate,
    # damping / (1 - damping) times its last change, not that change
    trans = build_transition(power_law_instance(DENSE_EVAL_CAP + 1, 12, 30, seed=5))
    dist = stationary(trans, tol=1e-6)
    err = float(np.abs(dist.pi - exact_stationary(trans.dense_p())).sum())
    assert err <= dist.residual <= 1e-6
    assert dist.residual > 1e-8


def test_stationary_residual_bounds_l1_error():
    # random chains below and above the dense cap, solved cold and, above
    # it, also from a random vector and from another chain's measure: the
    # L1 distance to the exact measure stays within the residual, up to
    # rounding
    rng = np.random.default_rng(24)
    chains = [build_transition(inst, random_strategy(rng, inst))
              for inst in [random_discrete_instance(rng) for _ in range(6)]
              + [power_law_instance(n, 10, 20, seed=n, damping=d)
                 for n, d in ((DENSE_EVAL_CAP, 0.85), (DENSE_EVAL_CAP + 1, 0.85),
                              (180, 0.95), (240, 0.7))]]
    # a cycle mixes only by teleporting, so there the bound is tight
    z = rng.random(150) + 0.1
    chains.append(build_transition(load_instance({
        "num_pages": 150, "damping": 0.95, "teleport": (z / z.sum()).tolist(),
        "obligatory": [[i, (i + 1) % 150] for i in range(150)],
        "rewards": {"type": "per_page", "values": [0.0] * 150}})))
    for trans in chains:
        n = trans.num_pages
        exact = exact_stationary(trans.dense_p())
        starts = [None]
        if n > DENSE_EVAL_CAP:
            other = build_transition(power_law_instance(n, 10, 20, seed=1))
            starts += [rng.dirichlet(np.ones(n)), exact_stationary(other.dense_p())]
        for pi0 in starts:
            for tol in (1e-4, 1e-8, 1e-12):
                dist = stationary(trans, tol=tol, pi0=pi0)
                assert dist.residual <= tol
                assert float(np.abs(dist.pi - exact).sum()) <= dist.residual + 1e-14


def test_stationary_budget_exhaustion_keeps_iterate():
    # above the dense cap, so the power loop starts at the teleport vector
    trans = build_transition(power_law_instance(DENSE_EVAL_CAP + 201, 12, 30, seed=4))
    with pytest.raises(MaxIterExceeded) as exc:
        stationary(trans, tol=1e-15, max_iter=2)
    partial = exc.value.result
    assert partial.iterations == 2
    assert abs(partial.pi.sum() - 1.0) <= 1e-12


def test_occupation_recover_round_trip():
    rng = np.random.default_rng(22)
    for _ in range(20):
        inst, strat = _random_pair(rng)
        trans = build_transition(inst, strat)
        pi = exact_stationary(trans.dense_p())
        p_back, pi_back = recover(occupation(trans, pi))
        np.testing.assert_allclose(p_back, trans.dense_p(), atol=1e-12)
        np.testing.assert_allclose(pi_back, pi, atol=1e-14)


def test_recover_rejects_empty_row():
    with pytest.raises(ValueError, match="empty row at page 1"):
        recover(np.array([[0.5, 0.5], [0.0, 0.0]]))


def test_dense_caps_refuse_large_instances():
    n = 2001
    doc = {
        "num_pages": n,
        "damping": 0.85,
        "teleport": [1.0 / n] * n,
        "obligatory": [],
        "facultative": [],
        "rewards": {"type": "per_page", "values": [0.0] * n},
    }
    inst = load_instance(doc)
    trans = build_transition(inst, Strategy())
    with pytest.raises(TooLarge):
        occupation(trans, inst.teleport.copy())
    with pytest.raises(TooLarge):
        utility_gradient(trans, inst.rewards)


def test_utility_routes_agree():
    """Occupation pairing, rbar pairing, and the oracle all match."""
    rng = np.random.default_rng(23)
    for _ in range(25):
        inst, strat = _random_pair(rng)
        trans = build_transition(inst, strat)
        pi = exact_stationary(trans.dense_p())
        by_measure = utility(occupation(trans, pi), inst.rewards)
        by_rbar = utility_from_chain(trans, pi, inst.rewards)
        by_oracle = chain_utility(trans.dense_p(), pi, inst.rewards)
        assert abs(by_measure - by_rbar) <= 1e-10
        assert abs(by_measure - by_oracle) <= 1e-10


def test_mean_reward_tol_is_true_error():
    rng = np.random.default_rng(24)
    for _ in range(15):
        inst, strat = _random_pair(rng)
        trans = build_transition(inst, strat)
        loose = mean_reward_before_teleport(trans, inst.rewards, tol=1e-3)
        mr = mean_reward_before_teleport(trans, inst.rewards, tol=1e-9)
        s = trans.dense_s()
        rbar_dense = (trans.dense_p() * inst.rewards.dense()).sum(axis=1)
        np.testing.assert_allclose(mr.rbar, rbar_dense, atol=1e-12)
        v_exact = np.linalg.solve(
            np.eye(inst.num_pages) - inst.damping * s, mr.rbar)
        assert float(np.abs(mr.v - v_exact).max()) <= 1e-9
        assert loose.residual <= 1e-3
        assert float(np.abs(loose.v - v_exact).max()) <= loose.residual + 1e-12
        # fixed-point identity of the converged iterate
        defect = mr.rbar + inst.damping * trans.apply_s(mr.v) - mr.v
        assert float(np.abs(defect).max()) <= 1e-8


@pytest.mark.parametrize("tol", [np.inf, np.nan, -1.0, 0.0])
def test_mean_reward_refuses_bad_tolerance(tol):
    # above the dense cap, where tol = inf would stop the span loop after
    # one step with v far from its fixed point
    inst = load_instance(link_web_doc(np.random.default_rng(1), 300, 10, 5))
    trans = build_transition(inst)
    with pytest.raises(ValidationError, match=f"tol must be finite and positive, got {tol}"):
        mean_reward_before_teleport(trans, inst.rewards, tol=tol)


def test_mean_reward_budget_exhaustion_keeps_iterate():
    # above the dense cap, so the span loop starts at zero
    inst = power_law_instance(DENSE_EVAL_CAP + 201, 12, 30, seed=4)
    trans = build_transition(inst)
    with pytest.raises(MaxIterExceeded) as exc:
        mean_reward_before_teleport(trans, inst.rewards, max_iter=1)
    assert exc.value.result.iterations == 1


def test_single_page_geometric_series():
    doc = {
        "num_pages": 1,
        "damping": 0.85,
        "teleport": [1.0],
        "obligatory": [],
        "facultative": [],
        "rewards": {"type": "per_page", "values": [1.0]},
    }
    inst = load_instance(doc)
    trans = build_transition(inst, Strategy())
    assert stationary(trans).pi[0] == pytest.approx(1.0, abs=1e-12)
    mr = mean_reward_before_teleport(trans, inst.rewards)
    assert mr.v[0] == pytest.approx(1.0 / 0.15, abs=1e-7)
    pi = np.array([1.0])
    assert utility_from_chain(trans, pi, inst.rewards) == pytest.approx(1.0)


def test_reward_transform_trivial_and_frozen():
    inst = two_page_instance()
    zero = reward_transform(
        inst.rewards.scaled(0.0), inst.teleport, inst.damping)
    np.testing.assert_allclose(zero.dense(), np.zeros((2, 2)), atol=0.0)

    const_doc = two_page_doc()
    const_doc["rewards"] = {"type": "per_page", "values": [3.0, 3.0]}
    const = load_instance(const_doc)
    shifted = reward_transform(const.rewards, const.teleport, const.damping)
    np.testing.assert_allclose(shifted.dense(), 0.85 * 3.0 * np.ones((2, 2)),
                               atol=1e-12)

    moved = reward_transform(inst.rewards, inst.teleport, inst.damping)
    np.testing.assert_allclose(
        moved.dense(), [[0.175, 9.175], [1.7, 1.7]], atol=1e-12)


def test_reward_transform_prices_teleport_at_zero():
    """Shifted scheme on all transitions == original scheme on outlinks only."""
    rng = np.random.default_rng(25)
    for _ in range(20):
        inst, strat = _random_pair(rng)
        trans = build_transition(inst, strat)
        pi = exact_stationary(trans.dense_p())
        moved = reward_transform(inst.rewards, inst.teleport, inst.damping)
        total = utility_from_chain(trans, pi, moved)
        follow_only = inst.damping * float(
            np.dot(pi, (trans.dense_s() * inst.rewards.dense()).sum(axis=1)))
        assert abs(total - follow_only) <= 1e-10


def _follow_only_brute_force(inst):
    """Maximize outlink-only income by full strategy enumeration."""
    pages = np.union1d(np.flatnonzero(np.diff(inst.fac_indptr)), inst.skeletons.pages).tolist()
    menus = []
    for i in pages:
        fac = [int(j) for j in inst.facultative_of(i)]
        menus.append([tuple(c) for k in range(len(fac) + 1)
                      for c in itertools.combinations(fac, k)])
    best = (-np.inf, None)
    for combo in itertools.product(*menus):
        strat = Strategy({i: DiscreteChoice(act) for i, act in zip(pages, combo)})
        trans = build_transition(inst, strat)
        pi = exact_stationary(trans.dense_p())
        val = inst.damping * float(
            np.dot(pi, (trans.dense_s() * inst.rewards.dense()).sum(axis=1)))
        if val > best[0] + 1e-12:
            best = (val, strat)
    return best


def test_reward_transform_optimizers_agree():
    """Optimizing the shifted scheme solves the outlink-only problem."""
    rng = np.random.default_rng(26)
    for _ in range(8):
        inst = random_discrete_instance(rng, n_max=4, fac_budget=6)
        moved = reward_transform(inst.rewards, inst.teleport, inst.damping)
        state, strat = value_iterate(local_only(inst, moved))
        ref_val, ref_strat = _follow_only_brute_force(inst)
        assert abs(state.psi - ref_val) <= 1e-7
        trans = build_transition(inst, strat)
        pi = exact_stationary(trans.dense_p())
        achieved = inst.damping * float(
            np.dot(pi, (trans.dense_s() * inst.rewards.dense()).sum(axis=1)))
        assert abs(achieved - ref_val) <= 1e-7


def test_truncation_bound_formula_and_validity():
    assert truncation_error_bound(0.85, 10, 2.0) == pytest.approx(
        0.85 ** 11 * 2.0 / 0.15 * 2.0)
    assert truncation_error_bound(0.5, 3, 0.0) == 0.0
    vals = [truncation_error_bound(0.85, h, 1.0) for h in range(12)]
    assert all(a > b for a, b in zip(vals, vals[1:]))

    # on a link-complete chain the truncated sums respect the bound
    rng = np.random.default_rng(27)
    doc = random_discrete_doc(rng, n_max=6)
    doc["obligatory"] = [[i, (i + 1) % doc["num_pages"]] for i in range(doc["num_pages"])]
    doc["facultative"] = []
    inst = load_instance(doc)
    trans = build_transition(inst, Strategy())
    mr = mean_reward_before_teleport(trans, inst.rewards)
    s = trans.dense_s()
    sup = float(np.abs(mr.rbar).max())
    partial = np.zeros(inst.num_pages)
    term = mr.rbar.copy()
    for horizon in range(12):
        partial = partial + term
        bound = truncation_error_bound(inst.damping, horizon, sup)
        assert float(np.abs(mr.v - partial).max()) <= bound + 1e-9
        term = inst.damping * (s @ term)


def test_utility_gradient_matches_central_difference():
    rng = np.random.default_rng(28)
    checked = 0
    while checked < 10:
        inst = random_discrete_instance(rng, n_max=6, fac_budget=8)
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
            pi = exact_stationary(p)
            return chain_utility(p, pi, inst.rewards)

        measured = (income_at(h) - income_at(-h)) / (2.0 * h)
        scale = max(1.0, abs(measured))
        assert abs(predicted - measured) <= 1e-5 * scale
        checked += 1


def test_gradient_and_stationary_on_continuous_instances():
    # weight-skeleton pages go through the same chain machinery
    rng = np.random.default_rng(29)
    for _ in range(5):
        inst = load_instance(random_continuous_doc(rng, n_max=10))
        strat = random_strategy(rng, inst)
        trans = build_transition(inst, strat)
        dist = stationary(trans)
        np.testing.assert_allclose(
            dist.pi, exact_stationary(trans.dense_p()), atol=1e-10)
        grad = utility_gradient(trans, inst.rewards)
        assert grad.shape == (inst.num_pages, inst.num_pages)
        assert np.all(np.isfinite(grad))
