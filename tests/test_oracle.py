"""Reference-route computations: direct solves and full enumeration."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    add_active_coupling,
    chain_utility,
    exact_stationary,
    exact_utility,
    finite_diff_directional,
    random_continuous_doc,
    random_discrete_doc,
    random_discrete_instance,
    random_strategy,
    two_page_doc,
    two_page_instance,
)
import pro
from pro.errors import (
    BudgetExceeded,
    Infeasible,
    SingularSystem,
    TooLarge,
    ValidationError,
)
from pro.chain import utility_gradient
from pro.graph import DiscreteChoice, build_transition, load_instance
from pro.oracle import (
    EnumerationBudget,
    brute_force_optimum,
    enumerate_discrete_actions,
)


def test_exact_stationary_known_chains():
    pi = exact_stationary([[0.075, 0.925], [0.925, 0.075]])
    np.testing.assert_allclose(pi, [0.5, 0.5], atol=1e-14)
    cycle = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    np.testing.assert_allclose(exact_stationary(cycle), np.ones(3) / 3.0,
                               atol=1e-14)


def test_exact_stationary_rejections():
    with pytest.raises(SingularSystem):
        exact_stationary(np.eye(2))  # every measure is stationary
    with pytest.raises(SingularSystem):
        # unique solution exists but has a negative coordinate
        exact_stationary([[0.0, 1.0], [-0.5, 1.5]])
    with pytest.raises(TooLarge):
        exact_stationary(np.eye(501))


def test_enumerate_actions_order_and_rows():
    acts = enumerate_discrete_actions((2,), (0, 3), np.zeros(4))
    assert [bits for bits, _ in acts] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    np.testing.assert_allclose(acts[0][1], [0.0, 0.0, 1.0, 0.0])
    np.testing.assert_allclose(acts[3][1], [1 / 3, 0.0, 1 / 3, 1 / 3])

    hang = np.array([0.25, 0.25, 0.25, 0.25])
    acts = enumerate_discrete_actions((), (1,), hang)
    np.testing.assert_allclose(acts[0][1], hang)  # no link: fallback row
    np.testing.assert_allclose(acts[1][1], [0.0, 1.0, 0.0, 0.0])

    with pytest.raises(BudgetExceeded):
        enumerate_discrete_actions((), tuple(range(5)), np.zeros(8),
                                   EnumerationBudget(max_facultative=4))
    with pytest.raises(ValidationError):
        EnumerationBudget(max_facultative=25)


def test_brute_force_two_page_frozen():
    res = brute_force_optimum(two_page_instance(), keep_table=True)
    assert res.value == pytest.approx(5.6625, abs=1e-10)
    assert res.strategy.choices[0] == DiscreteChoice((1,))
    assert res.strategy.choices[1] == DiscreteChoice((0,))
    assert len(res.table) == 16
    bit_rows = [e.bits for e in res.table]
    assert bit_rows == sorted(bit_rows)  # concatenated bits ascend
    assert all(e.feasible for e in res.table)  # no coupling rows
    best = max(e.value for e in res.table)
    assert best == pytest.approx(res.value, abs=1e-12)


def test_brute_force_tie_keeps_first_pattern():
    doc = two_page_doc()
    doc["rewards"] = {"type": "per_link", "default": 0.0, "entries": []}
    res = brute_force_optimum(load_instance(doc))
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert res.strategy.choices[0] == DiscreteChoice(())
    assert res.strategy.choices[1] == DiscreteChoice(())
    assert res.table is None


def test_brute_force_refusals():
    rng = np.random.default_rng(60)
    inst = random_discrete_instance(rng, fac_budget=6)
    with pytest.raises(BudgetExceeded):
        brute_force_optimum(inst, EnumerationBudget(max_facultative=0))
    with pytest.raises(ValidationError):
        brute_force_optimum(load_instance(random_continuous_doc(rng, n_max=4)))
    doc = two_page_doc()
    doc["coupling"] = [{"per_page": [1.0, 1.0], "bound": -0.5}]
    with pytest.raises(Infeasible):
        brute_force_optimum(load_instance(doc))


def test_brute_force_respects_coupling():
    """With a binding budget row the best pattern changes and stays feasible."""
    rng = np.random.default_rng(61)
    hits = 0
    for _ in range(10):
        doc = random_discrete_doc(rng, n_max=5, fac_budget=8)
        free = brute_force_optimum(load_instance(doc))
        inst = load_instance(add_active_coupling(doc, rng, slack=0.3))
        res = brute_force_optimum(inst)
        assert res.value <= free.value + 1e-9
        trans = build_transition(inst, res.strategy)
        pi = exact_stationary(trans.dense_p())
        for row in inst.coupling:
            spend = chain_utility(trans.dense_p(), pi, row.weights)
            assert spend <= row.bound + 1e-8
        if res.value < free.value - 1e-9:
            hits += 1
    assert hits >= 3  # the budget must actually bite somewhere


def test_enumeration_matches_independent_evaluation():
    rng = np.random.default_rng(62)
    for _ in range(10):
        inst = random_discrete_instance(rng, n_max=5, fac_budget=6)
        res = brute_force_optimum(inst)
        assert abs(exact_utility(inst, res.strategy) - res.value) <= 1e-10


def test_finite_diff_validation_and_agreement():
    rng = np.random.default_rng(63)
    inst = random_discrete_instance(rng, n_max=6, fac_budget=8)
    a = build_transition(inst, random_strategy(rng, inst))
    b = build_transition(inst, random_strategy(rng, inst))
    q = b.dense_p() - a.dense_p()
    if float(np.abs(q).max()) > 1e-9:
        grad = utility_gradient(a, inst.rewards)
        measured = finite_diff_directional(a.dense_p(), inst.rewards, q, 1e-6)
        predicted = float(np.sum(grad * q))
        assert abs(predicted - measured) <= 1e-5 * max(1.0, abs(measured))

    with pytest.raises(ValueError, match="direction rows must sum to zero"):
        finite_diff_directional(a.dense_p(), inst.rewards,
                                np.ones_like(q), 1e-6)
    with pytest.raises(ValueError, match="perturbed chain has a negative entry"):
        finite_diff_directional(a.dense_p(), inst.rewards, q, 1e3)


def test_evidence_modules_load_apart_from_the_fast_path():
    # the enumeration and the simplex are independent evidence only while
    # importing them pulls in neither solver nor the audit
    fast = ("pro.solver_local", "pro.solver_coupled", "pro.analysis")
    code = ("import sys, pro.oracle, pro.simplex; "
            f"print([m for m in {fast!r} if m in sys.modules])")
    src = str(Path(pro.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
