"""Value-ordering audit and optimality-defect checks."""

import numpy as np
import pytest

from helpers import (
    exact_utility,
    mixed_doc,
    random_continuous_doc,
    random_discrete_doc,
    random_strategy,
    two_page_instance,
)
from pro.analysis import AUDIT_V_TOL, continuous_optimality_check, master_ordering
from pro.chain import mean_reward_before_teleport
from pro.errors import ValidationError
from pro.graph import ContinuousChoice, DiscreteChoice, Strategy, build_transition, load_instance
from pro.solver_local import value_iterate
from pro.sparse import row_ids


def _per_page_instance(rng, **kw):
    return load_instance(random_discrete_doc(rng, reward_kind="per_page", **kw))


def test_ordering_follows_value_vector():
    rng = np.random.default_rng(100)
    for _ in range(10):
        inst = _per_page_instance(rng)
        _, strat = value_iterate(inst)
        report = master_ordering(inst, strat)
        expected = np.argsort(-report.values, kind="stable")
        assert report.ordering == tuple(int(i) for i in expected)
        assert report.master == report.ordering[0]
        assert report.values.shape == (inst.num_pages,)


def test_optimal_strategy_passes_audit():
    rng = np.random.default_rng(101)
    for _ in range(15):
        inst = _per_page_instance(rng)
        _, strat = value_iterate(inst)
        report = master_ordering(inst, strat)
        assert report.violations == ()
        for i, j, kind in zip(report.pages, report.targets, report.kinds):
            active = strat.choices.get(i)
            on = active is not None and j in active.activated
            if kind == "required":
                assert on
            elif kind == "forbidden":
                assert not on
        # with one reward per page the score rule reduces to comparing
        # v[j] against (v[i] - r[i]) / damping
        v, r, alpha = report.values, inst.rewards.base, inst.damping
        i, j = report.pages, report.targets
        bar = (v[i] - (1.0 - alpha) * r[i]) / alpha
        np.testing.assert_array_less(
            np.abs(report.margins - (v[j] - (v[i] - r[i]) / alpha)),
            1e-12 * np.maximum(1.0, np.abs(bar)))


def test_dropping_required_link_costs_income():
    rng = np.random.default_rng(102)
    hits = 0
    for _ in range(20):
        inst = _per_page_instance(rng)
        _, strat = value_iterate(inst)
        base_util = exact_utility(inst, strat)
        report = master_ordering(inst, strat)
        required = np.flatnonzero((report.kinds == "required") & (report.margins > 1e-6))
        for k in required[:2]:
            i, target = int(report.pages[k]), int(report.targets[k])
            pruned = dict(strat.choices)
            keep = tuple(j for j in pruned[i].activated if j != target)
            pruned[i] = DiscreteChoice(keep)
            assert exact_utility(inst, Strategy(pruned)) < base_util - 1e-12
            hits += 1
    assert hits >= 10


def test_adding_forbidden_link_costs_income():
    rng = np.random.default_rng(103)
    hits = 0
    for _ in range(20):
        inst = _per_page_instance(rng)
        _, strat = value_iterate(inst)
        base_util = exact_utility(inst, strat)
        report = master_ordering(inst, strat)
        forbidden = np.flatnonzero((report.kinds == "forbidden") & (report.margins < -1e-6))
        for k in forbidden[:2]:
            i, target = int(report.pages[k]), int(report.targets[k])
            padded = dict(strat.choices)
            prev = padded.get(i, DiscreteChoice(()))
            padded[i] = DiscreteChoice(tuple(prev.activated) + (target,))
            assert exact_utility(inst, Strategy(padded)) < base_util - 1e-12
            hits += 1
    assert hits >= 10


def test_default_audit_lists_only_missing_links():
    rng = np.random.default_rng(104)
    inst = _per_page_instance(rng, n_max=6)
    report = master_ordering(inst, None)
    for w in report.violations:
        assert w.problem == "missing"
        assert w.kind == "required"


def test_equal_rewards_make_every_link_a_tie():
    # constant per-page income gives a constant value vector, so every
    # facultative target sits exactly on its page's bar
    doc = {
        "num_pages": 2,
        "damping": 0.85,
        "teleport": [0.5, 0.5],
        "obligatory": [],
        "facultative": [[0, 0], [0, 1], [1, 0], [1, 1]],
        "rewards": {"type": "per_page", "values": [1.0, 1.0]},
    }
    inst = load_instance(doc)
    report = master_ordering(inst, Strategy({0: DiscreteChoice((1,))}))
    assert set(report.kinds) == {"tie"}
    assert report.violations == ()
    np.testing.assert_allclose(report.values, [1.0 / 0.15] * 2, atol=1e-9)


def test_audit_takes_weight_pages():
    # a weight page has no link to classify: at the optimum of an all-weight
    # or a mixed instance the audit finds nothing wrong, its links are the
    # facultative CSR in order, and its defects are the defect check's
    rng = np.random.default_rng(105)
    docs = [random_continuous_doc(rng, n_max=8) for _ in range(6)]
    docs += [mixed_doc(rng) for _ in range(6)]
    for doc in docs:
        inst = load_instance(doc)
        _, strat = value_iterate(inst)
        report = master_ordering(inst, strat)
        assert report.violations == ()
        assert report.optimal
        assert np.array_equal(report.pages, row_ids(inst.fac_indptr))
        assert np.array_equal(report.targets, inst.fac_indices)
        _, defects = continuous_optimality_check(inst, build_transition(inst, strat))
        assert np.array_equal(report.defects, defects)


def _reward_gather_audit(inst, strategy):
    """Values and margins worked out from ``Rewards`` apart from the
    compiled operator: ``v`` by its own solve, each link's score from the
    per-link gather and each bar from the teleport row means."""
    trans = build_transition(inst, strategy)
    rewards, alpha = inst.rewards, inst.damping
    f_indptr, f_idx = inst.fac_indptr, inst.fac_indices
    f_page = row_ids(f_indptr)
    v = mean_reward_before_teleport(trans, rewards, tol=AUDIT_V_TOL).v
    bar = ((v - (1.0 - alpha) * rewards.row_means(trans.teleport)) / alpha)[f_page]
    margins = rewards.base[f_page] + rewards.delta.gather_at(f_indptr, f_idx) + v[f_idx] - bar
    return v, margins


@pytest.mark.parametrize("seed, count, reward_kind", [
    (3001, 200, "per_link"), (3009, 200, "per_page"), (4009, 100, "per_link")])
def test_audit_matches_the_reward_gather_bit_for_bit(seed, count, reward_kind):
    # the criterion 3 and 9 families, audited at the optimum, at the
    # default and at a random strategy
    rng, pick = np.random.default_rng(seed), np.random.default_rng(seed + 1)
    for _ in range(count):
        inst = load_instance(random_discrete_doc(rng, reward_kind=reward_kind))
        _, strat = value_iterate(inst)
        for strategy in (strat, None, random_strategy(pick, inst)):
            report = master_ordering(inst, strategy)
            v, margins = _reward_gather_audit(inst, strategy)
            assert np.array_equal(report.values, v)
            assert np.array_equal(report.margins, margins)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_audit_rejects_a_bad_tolerance(tol):
    # a NaN, infinite or negative tolerance would turn every link into a
    # tie and hide every violation
    inst = _per_page_instance(np.random.default_rng(107))
    assert master_ordering(inst, None, tol=0.0).violations
    with pytest.raises(ValidationError, match="tol must be finite"):
        master_ordering(inst, None, tol=tol)


def test_audit_rejects_a_row_on_a_subset_page():
    # build_transition admits the row e_0 on pages 1 and 2, but the audit
    # judges link subsets only, and page 2 has no facultative link to judge
    doc = {
        "num_pages": 3,
        "damping": 0.85,
        "teleport": "uniform",
        "obligatory": [[2, 0]],
        "facultative": [[0, 1], [0, 2], [1, 0], [1, 2]],
        "rewards": {"type": "per_page", "values": [1.0, 2.0, 0.5]},
    }
    inst = load_instance(doc)
    row = ContinuousChoice((0,), (1.0,))
    with pytest.raises(ValidationError, match="page 1 carries a non-subset choice"):
        master_ordering(inst, Strategy({0: DiscreteChoice((2,)), 1: row, 2: row}))
    report = master_ordering(inst, Strategy({0: DiscreteChoice((1, 2)), 2: row}))
    assert list(zip(report.pages.tolist(), report.targets.tolist())) == [
        (0, 1), (0, 2), (1, 0), (1, 2)]


def test_continuous_defect_check():
    rng = np.random.default_rng(106)
    for _ in range(6):
        inst = load_instance(random_continuous_doc(rng, n_max=8))
        state, strat = value_iterate(inst)
        ok, defects = continuous_optimality_check(
            inst, build_transition(inst, strat))
        assert ok
        assert float(defects.max()) <= 1e-7

        other = random_strategy(rng, inst)
        if exact_utility(inst, other) < state.psi - 1e-6:
            ok_other, defects_other = continuous_optimality_check(
                inst, build_transition(inst, other))
            assert not ok_other
            assert float(defects_other.max()) > 1e-7


def test_defect_check_audits_per_link_rewards():
    # v = rbar + damping * S v holds for per-link rewards too, so T(v) - v
    # is still each page's improvement: the optimum passes and a strictly
    # worse strategy is flagged
    rng = np.random.default_rng(2024)
    flagged = 0
    for _ in range(150):
        inst = load_instance(random_discrete_doc(rng))
        assert not inst.rewards.is_per_page
        state, strat = value_iterate(inst)
        ok, _ = continuous_optimality_check(inst, build_transition(inst, strat))
        assert ok
        other = random_strategy(rng, inst)
        if exact_utility(inst, other) < state.psi - 1e-6:
            ok_other, _ = continuous_optimality_check(inst, build_transition(inst, other))
            assert not ok_other
            flagged += 1
    assert flagged >= 100, flagged
    inst = two_page_instance()
