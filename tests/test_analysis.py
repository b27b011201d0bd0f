"""Value-ordering audit and optimality-defect checks."""

import numpy as np
import pytest

from helpers import (
    exact_utility,
    random_continuous_doc,
    random_discrete_doc,
    random_strategy,
    two_page_instance,
)
from pro.analysis import continuous_optimality_check, master_ordering
from pro.errors import PerLinkRewards, ValidationError
from pro.graph import ContinuousChoice, DiscreteChoice, Strategy, build_transition, load_instance
from pro.solver_local import value_iterate


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
        for c in report.classifications:
            active = strat.choices.get(c.page)
            on = active is not None and c.target in active.activated
            if c.kind == "required":
                assert on
            elif c.kind == "forbidden":
                assert not on


def test_dropping_required_link_costs_income():
    rng = np.random.default_rng(102)
    hits = 0
    for _ in range(20):
        inst = _per_page_instance(rng)
        _, strat = value_iterate(inst)
        base_util = exact_utility(inst, strat)
        report = master_ordering(inst, strat)
        required = [c for c in report.classifications
                    if c.kind == "required" and c.margin > 1e-6]
        for c in required[:2]:
            pruned = dict(strat.choices)
            keep = tuple(j for j in pruned[c.page].activated if j != c.target)
            pruned[c.page] = DiscreteChoice(keep)
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
        forbidden = [c for c in report.classifications
                     if c.kind == "forbidden" and c.margin < -1e-6]
        for c in forbidden[:2]:
            padded = dict(strat.choices)
            prev = padded.get(c.page, DiscreteChoice(()))
            padded[c.page] = DiscreteChoice(tuple(prev.activated) + (c.target,))
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
    assert {c.kind for c in report.classifications} == {"tie"}
    assert report.violations == ()
    np.testing.assert_allclose(report.values, [1.0 / 0.15] * 2, atol=1e-9)


def test_audit_rejections():
    with pytest.raises(PerLinkRewards):
        master_ordering(two_page_instance())  # per-link incomes
    rng = np.random.default_rng(105)
    cont = load_instance(random_continuous_doc(rng, n_max=4))
    with pytest.raises(ValidationError):
        master_ordering(cont)


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
    assert [(c.page, c.target) for c in report.classifications] == [
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
