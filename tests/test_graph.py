"""Instance parsing, validation, and chain assembly."""

import numpy as np
import pytest

from pro.errors import InvalidStrategy, ParseError, ValidationError
from pro.graph import (ContinuousChoice, DiscreteChoice, Rewards, Strategy,
                       build_transition, default_skeleton_row, load_instance,
                       load_strategy)

from helpers import (random_continuous_doc, random_discrete_doc, random_strategy,
                     two_page_doc, two_page_instance)


def test_two_page_structure():
    inst = two_page_instance()
    assert inst.num_pages == 2
    assert inst.damping == 0.85
    assert np.allclose(inst.teleport, [0.5, 0.5])
    assert inst.obligatory_of(0).size == 0
    assert inst.facultative_of(0).tolist() == [0, 1]
    assert inst.facultative_of(1).tolist() == [0, 1]
    assert inst.controlled_pages == (0, 1)


def test_two_page_chain_for_known_strategy():
    # one cross link each way gives the strongly mixing chain
    inst = two_page_instance()
    strat = Strategy({0: DiscreteChoice((1,)), 1: DiscreteChoice((0,))})
    trans = build_transition(inst, strat)
    assert np.allclose(trans.dense_p(), [[0.075, 0.925], [0.925, 0.075]],
                       atol=1e-15)
    assert np.allclose(trans.dense_s(), [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)


def test_default_strategy_keeps_only_obligatory_links():
    doc = two_page_doc()
    doc["obligatory"] = [[0, 1]]
    doc["facultative"] = [[1, 0], [1, 1]]
    inst = load_instance(doc)
    trans = build_transition(inst)
    s = trans.dense_s()
    assert np.allclose(s[0], [0.0, 1.0])
    # page 1 activates nothing, falls back to the dangling row
    assert trans.dangling.tolist() == [False, True]
    assert np.allclose(s[1], inst.dangling_teleport)


def test_rewards_accessors():
    inst = two_page_instance()
    r = inst.rewards
    assert not r.is_per_page
    assert r.entry(0, 1) == 10.0
    assert r.entry(1, 1) == 2.0
    assert np.allclose(r.dense(), [[1.0, 10.0], [2.0, 2.0]])
    assert np.allclose(r.row_means(np.array([0.5, 0.5])), [5.5, 2.0])
    per_page = Rewards.per_page(np.array([3.0, -1.0]))
    assert per_page.is_per_page
    assert per_page.entry(0, 1) == 3.0


def test_pi_step_matches_dense_product():
    rng = np.random.default_rng(2)
    doc = two_page_doc()
    doc["obligatory"] = [[0, 1]]
    doc["facultative"] = [[1, 0]]
    inst = load_instance(doc)
    strat = Strategy({1: DiscreteChoice((0,))})
    trans = build_transition(inst, strat)
    for _ in range(5):
        x = rng.random(2)
        assert np.allclose(trans.pi_step(x), x @ trans.dense_p(), atol=1e-14)


def test_load_rejects_malformed_documents():
    with pytest.raises(ParseError):
        load_instance({"num_pages": 2})
    doc = two_page_doc()
    doc["damping"] = 1.0
    with pytest.raises(ValidationError):
        load_instance(doc)
    doc = two_page_doc()
    doc["teleport"] = [0.9, 0.2]
    with pytest.raises(ValidationError):
        load_instance(doc)
    doc = two_page_doc()
    doc["teleport"] = [1.0, 0.0]
    with pytest.raises(ValidationError):
        load_instance(doc)


def test_load_rejects_overlapping_link_sets():
    doc = two_page_doc()
    doc["obligatory"] = [[0, 1]]
    with pytest.raises(ValidationError):
        load_instance(doc)


def test_load_rejects_duplicate_links():
    doc = two_page_doc()
    doc["facultative"] = [[0, 1], [0, 1]]
    with pytest.raises(ValidationError):
        load_instance(doc)


def test_skeleton_page_cannot_carry_links():
    doc = two_page_doc()
    doc["skeleton"] = [{"page": 0, "q": [0.5, 0.5], "mu": 0.5}]
    with pytest.raises(ValidationError):
        load_instance(doc)


def test_uniform_shorthand_and_dangling_default():
    doc = two_page_doc()
    doc["teleport"] = "uniform"
    inst = load_instance(doc)
    assert np.allclose(inst.teleport, [0.5, 0.5])
    assert np.allclose(inst.dangling_teleport, inst.teleport)
    doc["dangling_teleport"] = [1.0, 0.0]
    inst = load_instance(doc)
    assert np.allclose(inst.dangling_teleport, [1.0, 0.0])


def test_strategy_round_trip():
    strat = Strategy({0: DiscreteChoice((1,)),
                      2: ContinuousChoice(np.array([0.25, 0.5, 0.25]))})
    again = load_strategy(strat.to_json_dict(), 3)
    assert again.choices[0].activated == (1,)
    assert np.allclose(again.choices[2].row, [0.25, 0.5, 0.25])


def test_build_transition_rejects_foreign_links():
    inst = two_page_instance()
    with pytest.raises(InvalidStrategy):
        build_transition(inst, Strategy({0: DiscreteChoice((5,))}))
    doc = two_page_doc()
    doc["facultative"] = [[0, 0], [1, 0], [1, 1]]
    inst = load_instance(doc)
    with pytest.raises(InvalidStrategy):
        build_transition(inst, Strategy({0: DiscreteChoice((1,))}))


def test_build_transition_rejects_discrete_choice_on_skeleton_page():
    doc = two_page_doc()
    doc["facultative"] = [[1, 0], [1, 1]]
    doc["skeleton"] = [{"page": 0, "q": [0.5, 0.5], "mu": 0.4}]
    inst = load_instance(doc)
    with pytest.raises(InvalidStrategy):
        build_transition(inst, Strategy({0: DiscreteChoice((1,))}))


def test_continuous_choice_checked_against_facets():
    doc = two_page_doc()
    doc["facultative"] = [[1, 0], [1, 1]]
    doc["skeleton"] = [{"page": 0, "q": [0.5, 0.5], "mu": 0.4}]
    inst = load_instance(doc)
    lo = 0.6 * 0.5  # retained share per coordinate, damped floor below
    floor = 0.85 * lo + 0.15 * 0.5
    good = Strategy({0: ContinuousChoice(np.array([floor, 1.0 - floor]))})
    trans = build_transition(inst, good)
    assert np.allclose(trans.dense_p()[0], [floor, 1.0 - floor], atol=1e-12)
    bad = Strategy({0: ContinuousChoice(np.array([floor / 2, 1.0 - floor / 2]))})
    with pytest.raises(InvalidStrategy):
        build_transition(inst, bad)
    not_stochastic = Strategy({0: ContinuousChoice(np.array([0.5, 0.4]))})
    with pytest.raises(InvalidStrategy):
        build_transition(inst, not_stochastic)


def _reference_outlink_rows(inst, strategy):
    # S and the dangling flags written out page by page from the strategy
    n, alpha, z = inst.num_pages, inst.damping, inst.teleport
    s = np.zeros((n, n))
    dangling = np.zeros(n, dtype=bool)
    for i in range(n):
        ch = strategy.choices.get(i)
        sk = inst.skeleton_by_page.get(i)
        if isinstance(ch, ContinuousChoice):
            row = np.maximum((ch.row - (1.0 - alpha) * z) / alpha, 0.0)
            s[i] = row / float(row.sum())
        elif sk is not None:
            prow = default_skeleton_row(sk, alpha, z)
            s[i] = np.maximum((prow - (1.0 - alpha) * z) / alpha, 0.0)
        else:
            support = inst.obligatory_of(i).tolist() + list(ch.activated if ch else ())
            if support:
                s[i, support] = 1.0 / len(support)
            else:
                dangling[i] = True
    return s, dangling


def test_build_transition_matches_page_by_page_reference():
    rng = np.random.default_rng(3003)
    docs = [random_discrete_doc(rng) for _ in range(60)]
    docs += [random_continuous_doc(rng, n_max=12) for _ in range(30)]
    for doc in docs:
        inst = load_instance(doc)
        for strategy in (Strategy({}), random_strategy(rng, inst)):
            trans = build_transition(inst, strategy)
            s, dangling = _reference_outlink_rows(inst, strategy)
            srows = trans.srows
            assert np.array_equal(srows.to_dense(), s)
            assert srows.nnz == np.count_nonzero(s)
            for i in range(inst.num_pages):
                assert np.all(np.diff(srows.row_slice(i)[0]) > 0)
            assert np.array_equal(trans.dangling, dangling)


def test_continuous_choice_replaces_a_link_row():
    # page 0 keeps 0->1 and may add 0->2; a continuous row halfway between
    # its two uniform rows is admissible and must replace the link row
    doc = {"num_pages": 3, "damping": 0.8, "teleport": "uniform",
           "obligatory": [[0, 1], [1, 2]], "facultative": [[0, 2]],
           "rewards": {"type": "per_page", "values": [0.0, 1.0, 0.5]}}
    inst = load_instance(doc)
    outlinks = np.array([0.0, 0.75, 0.25])
    row = 0.8 * outlinks + 0.2 * inst.teleport
    trans = build_transition(inst, Strategy({0: ContinuousChoice(row)}))
    s = trans.dense_s()
    assert np.allclose(s[0], outlinks, atol=1e-12)
    assert s[1].tolist() == [0.0, 0.0, 1.0]
    assert trans.dangling.tolist() == [False, False, True]


def test_skeleton_default_row_respects_bounds():
    doc = two_page_doc()
    doc["num_pages"] = 3
    doc["teleport"] = [0.2, 0.3, 0.5]
    doc["facultative"] = [[1, 0], [1, 2]]
    doc["rewards"] = {"type": "per_page", "values": [0.0, 1.0, 0.0]}
    doc["skeleton"] = [{"page": 0, "q": [0.1, 0.6, 0.3], "mu": 0.5,
                        "banned": [2]}]
    inst = load_instance(doc)
    trans = build_transition(inst)
    row = trans.dense_p()[0]
    sk = inst.skeletons[0]
    damped_lo = 0.85 * sk.lower() + 0.15 * inst.teleport
    damped_up = 0.85 * sk.upper() + 0.15 * inst.teleport
    assert np.all(row >= damped_lo - 1e-12)
    assert np.all(row <= damped_up + 1e-12)
    assert abs(row.sum() - 1.0) < 1e-12
