"""Instance parsing, validation, and chain assembly."""

import contextlib
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from pro.errors import InvalidStrategy, ParseError, ValidationError
from pro.graph import (ContinuousChoice, DiscreteChoice, Rewards, Strategy,
                       build_transition, load_instance, load_strategy)
from pro.chain import utility_from_chain
from pro.solver_coupled import solve_coupled
from pro.solver_local import SolverConfig, value_iterate

from helpers import (add_active_coupling, csr_transition, fuzz_bases, instance_arrays,
                     link_web_doc, local_only, mixed_doc, random_continuous_doc,
                     random_discrete_doc, random_strategy, reference_reader, two_page_doc,
                     two_page_instance, weight_box, weight_web_doc)

DATA = Path(__file__).parent / "data"


def test_two_page_structure():
    inst = two_page_instance()
    assert inst.num_pages == 2
    assert inst.damping == 0.85
    assert np.allclose(inst.teleport, [0.5, 0.5])
    assert inst.obligatory_of(0).size == 0
    assert inst.facultative_of(0).tolist() == [0, 1]
    assert inst.facultative_of(1).tolist() == [0, 1]


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
    assert r.dense()[[0, 1], [1, 1]].tolist() == [10.0, 2.0]
    assert np.allclose(r.dense(), [[1.0, 10.0], [2.0, 2.0]])
    assert np.allclose(r.row_means(np.array([0.5, 0.5])), [5.5, 2.0])
    per_page = Rewards.per_page(np.array([3.0, -1.0]))
    assert per_page.is_per_page
    assert per_page.dense()[0, 1] == 3.0


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


def test_distributions_must_be_uniform_or_a_list():
    # a numpy array is not a JSON list: refused with a ParseError, not
    # compared elementwise against "uniform"
    for key in ("teleport", "dangling_teleport"):
        for bad in (np.array([0.5, 0.5]), "even", 0.5):
            doc = two_page_doc()
            doc[key] = bad
            with pytest.raises(ParseError):
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


def test_skeleton_records_are_validated():
    def load(*records):
        return load_instance({"num_pages": 3, "damping": 0.85, "teleport": "uniform",
                              "obligatory": [[1, 2]],
                              "rewards": {"type": "per_page", "values": [0.0, 1.0, 0.0]},
                              "skeleton": list(records)})

    half = {"page": 0, "q": [0.5, 0.5, 0.0], "mu": 0.5}
    with pytest.raises(ValidationError, match="page 0 has two skeleton records"):
        load(half, dict(half, mu=0.25))
    with pytest.raises(ValidationError, match="page 1 carries both links"):
        load(half, dict(half, page=1))
    # banning every target leaves the floor, which must then be a row
    with pytest.raises(ValidationError, match="skeleton on page 2 leaves no feasible row"):
        load(half, dict(half, page=2, banned=[2, 1, 0]))
    store = load(half, dict(half, page=2, mu=0.0, banned=[2, 1, 0])).skeletons
    assert store.pages.tolist() == [0, 2]
    assert store.banned_of(2).tolist() == [0, 1, 2]
    assert store.default_choice(2) == ContinuousChoice((), ())


def test_weight_pages_are_stored_sparse():
    # two weight pages of a 200k-page web, each with three nonzeros in q:
    # the store keeps arrays of the nonzeros, pages and bans, plus one
    # slack per page, and no array of n entries per weight page
    n = 200_000
    q = [0.0] * n
    q[5], q[70_000], q[n - 1] = 0.25, 0.5, 0.25
    inst = load_instance({"num_pages": n, "damping": 0.85, "teleport": "uniform",
                          "rewards": {"type": "per_page", "values": [0.0] * n},
                          "skeleton": [{"page": 3, "q": q, "mu": 0.5, "banned": [5]},
                                       {"page": 1, "q": q, "mu": 0.25}]})
    store = inst.skeletons
    arrays = []
    for f in fields(store):
        value = getattr(store, f.name)
        arrays += [value.indptr, value.indices, value.data] if f.name == "floor" else [value]
    assert sorted(a.size for a in arrays) == [1, 2, 3, 6, 6, 6, n]
    assert len(store) == 2 and store.pages.tolist() == [1, 3]
    assert store.floor.indices.tolist() == [5, 70_000, n - 1] * 2
    assert store.floor.data.tolist() == [0.1875, 0.375, 0.1875, 0.125, 0.25, 0.125]
    assert store.slack[[1, 3]].tolist() == [0.25, 0.5]
    assert store.default_choice(3) == ContinuousChoice((70_000, n - 1), (0.5 / 0.75, 0.25 / 0.75))
    lower, upper = weight_box(store, 3)
    assert np.flatnonzero(lower).tolist() == [5, 70_000, n - 1]
    assert np.flatnonzero(upper < 1.0).tolist() == [5] and upper[5] == lower[5]
    lower, upper = weight_box(store, 2)
    assert 2 not in store.pages and not lower.any() and upper.all()


def test_local_only_shares_the_weight_store():
    inst = load_instance(random_continuous_doc(np.random.default_rng(31)))
    copy = local_only(inst, inst.rewards.scaled(2.0))
    assert len(inst.skeletons) > 0
    assert copy.skeletons is inst.skeletons


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
    inst = load_instance({"num_pages": 3, "damping": 0.85, "teleport": "uniform",
                          "rewards": {"type": "per_page", "values": [0.0, 0.0, 0.0]}})
    strat = Strategy({0: DiscreteChoice((1,)),
                      2: ContinuousChoice((0, 1, 2), (0.25, 0.5, 0.25))})
    again = load_strategy(strat.to_json_dict(), inst)
    assert again.choices[0].activated == (1,)
    assert np.allclose(again.choices[2].probs, [0.25, 0.5, 0.25])
    assert again == strat


def test_strategy_rows_come_sorted_and_name_each_column_once():
    inst = load_instance({"num_pages": 3, "damping": 0.85, "teleport": "uniform",
                          "rewards": {"type": "per_page", "values": [0.0, 0.0, 0.0]}})
    row = {"page": 2, "kind": "free", "row_entries": [[2, 0.25], [0, 0.75]]}
    choice = load_strategy({"pages": [row]}, inst).choices[2]
    assert choice == ContinuousChoice((0, 2), (0.75, 0.25))
    row = {"page": 2, "kind": "free", "row_entries": [[1, 0.5], [0, 0.0], [1, 0.5]]}
    with pytest.raises(ParseError, match="row_entries lists a column twice"):
        load_strategy({"pages": [row]}, inst)


def test_build_transition_rejects_foreign_links():
    inst = two_page_instance()
    with pytest.raises(InvalidStrategy):
        build_transition(inst, Strategy({0: DiscreteChoice((5,))}))
    doc = two_page_doc()
    doc["facultative"] = [[0, 0], [1, 0], [1, 1]]
    inst = load_instance(doc)
    with pytest.raises(InvalidStrategy):
        build_transition(inst, Strategy({0: DiscreteChoice((1,))}))


def test_build_transition_rejects_repeated_columns():
    doc = {"num_pages": 3, "damping": 0.8, "teleport": "uniform",
           "obligatory": [[0, 1], [1, 2]], "facultative": [[0, 2]],
           "rewards": {"type": "per_page", "values": [0.0, 1.0, 0.5]}}
    inst = load_instance(doc)
    # a link activated twice is the strategy's fault, named with its page
    with pytest.raises(InvalidStrategy, match=r"link \(0, 2\) is activated twice"):
        build_transition(inst, Strategy({0: DiscreteChoice((2, 2))}))
    # the row read with the column once is admissible
    build_transition(inst, Strategy({0: ContinuousChoice((1,), (1.0,))}))
    with pytest.raises(InvalidStrategy):
        build_transition(inst, Strategy({0: ContinuousChoice((1, 1), (0.0, 1.0))}))


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
    # free mass as fractions of the slack 0.4: all on page 1 is the good row,
    # and the bad one puts the chain row's x[0] at half the damped floor
    bad_probs = ((floor / 2 - 0.15 * 0.5) / 0.85 - lo) / 0.4
    trans = build_transition(inst, Strategy({0: ContinuousChoice((1,), (1.0,))}))
    assert np.allclose(trans.dense_p()[0], [floor, 1.0 - floor], atol=1e-12)
    for bad in (ContinuousChoice((0, 1), (bad_probs, 1.0 - bad_probs)),
                ContinuousChoice((0, 1), (0.5, 0.4))):  # not stochastic
        with pytest.raises(InvalidStrategy):
            build_transition(inst, Strategy({0: bad}))


def _reference_outlink_rows(inst, strategy):
    # S and the dangling flags written out page by page from the strategy
    n = inst.num_pages
    s = np.zeros((n, n))
    dangling = np.zeros(n, dtype=bool)
    for i in range(n):
        ch = strategy.choices.get(i)
        weight = i in inst.skeletons.pages
        if weight or isinstance(ch, ContinuousChoice):
            # the floor plus the slack spread as the free mass says, its
            # weights clipped at 0 and divided by their sum
            ch = ch or inst.skeletons.default_choice(i)
            floor = weight_box(inst.skeletons, i)[0] if weight else np.zeros(n)
            slack = max(1.0 - float(floor.sum()), 0.0) if weight else 1.0
            used = np.maximum(np.array(ch.probs, dtype=float), 0.0)
            floor[list(ch.cols)] += slack * (used / sum(used))
            s[i] = np.maximum(floor, 0.0)
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
            expect = np.where(dangling[:, None], inst.dangling_teleport, s)
            assert np.array_equal(trans.dense_s(), expect)
            assert np.array_equal(trans.dangling, dangling)


def _extract_cases(rng):
    docs = [random_discrete_doc(rng) for _ in range(6)]
    docs += [random_continuous_doc(rng, n_max=20) for _ in range(4)]
    docs += [mixed_doc(rng, n=int(rng.integers(4, 40))) for _ in range(4)]
    docs += [link_web_doc(rng, 150, 20, 10), weight_web_doc(rng, 120, 6)]
    return [(inst, value_iterate(inst)[1]) for inst in map(load_instance, docs)]


def _mixture_cases(rng):
    cases = []
    for doc in (link_web_doc(rng, 100, 10, 5), link_web_doc(rng, 60, 8, 6),
                random_continuous_doc(rng, n_max=12), mixed_doc(rng, n=9)):
        inst = load_instance(add_active_coupling(doc, rng))
        res = solve_coupled(inst)
        cases += [(inst, r.strategy) for r in (res.candidate, res.best_feasible) if r]
    # some candidate mixes link subsets into a free row
    assert any(isinstance(ch, ContinuousChoice) and page not in inst.skeletons.pages
               for inst, strat in cases for page, ch in strat.choices.items())
    return cases


def _default_cases(rng):
    # a weight page whose every target is banned keeps its floor alone
    banned = mixed_doc(rng, n=9)
    banned["skeleton"][0].update(mu=0.0, banned=list(range(9)))
    docs = [random_continuous_doc(rng, n_max=20), mixed_doc(rng, n=12),
            weight_web_doc(rng, 120, 6), banned]
    return [(load_instance(doc), None) for doc in docs]


def _random_cases(rng):
    docs = [random_discrete_doc(rng) for _ in range(6)]
    docs += [random_continuous_doc(rng, n_max=12) for _ in range(4)]
    docs += [mixed_doc(rng, n=int(rng.integers(4, 20))) for _ in range(4)]
    return [(inst, random_strategy(rng, inst)) for inst in map(load_instance, docs)]


def _fuzz_cases(rng):
    cases = []
    for inst in map(load_instance, fuzz_bases()):
        solved = (solve_coupled(inst).candidate.strategy if inst.coupling
                  else value_iterate(inst)[1])
        cases += [(inst, solved), (inst, None)]
    return cases


def _floor_cases(rng):
    # page 0's floor is (0.3, 0.3 - 6e-13, 6e-13, 0) and its slack 0.4;
    # page 1 keeps 1->2 and may add 1->3
    doc = {"num_pages": 4, "damping": 0.8, "teleport": "uniform",
           "obligatory": [[1, 2], [2, 0]], "facultative": [[1, 3]],
           "rewards": {"type": "per_page", "values": [0.0, 1.0, 0.5, 0.2]},
           "skeleton": [{"page": 0, "q": [0.5, 0.5 - 1e-12, 1e-12, 0.0], "mu": 0.4}]}
    inst = load_instance(doc)
    return [(inst, Strategy(choices)) for choices in (
        # lifts on floor entries' coordinates
        {0: ContinuousChoice((0, 1), (0.25, 0.75))},
        # a lift below minus its floor entry, and one below 0 off the
        # floor: both sums are clipped at 0
        {0: ContinuousChoice((0, 2, 3), (1.0 + 3e-12 + 1e-10, -3e-12, -1e-10))},
        # a free row on a link page, clipped at 0
        {0: ContinuousChoice((1,), (1.0,)), 1: ContinuousChoice((2, 3), (1.0 + 1e-10, -1e-10))},
    )]


_CHAIN_SOURCES = {"extract": _extract_cases, "mixture": _mixture_cases,
                  "default": _default_cases, "random": _random_cases,
                  "fuzz": _fuzz_cases, "floor": _floor_cases}


@pytest.mark.parametrize("source", sorted(_CHAIN_SOURCES))
def test_blocks_match_the_merged_csr_reference(source):
    # the chain's blocks against one merged, sorted CSR built from the same
    # strategy: S and the no-link rows bit for bit, and so each dense solve
    # and each income; the products within rounding
    rng = np.random.default_rng(3031)
    for inst, strat in _CHAIN_SOURCES[source](rng):
        trans, ref = build_transition(inst, strat), csr_transition(inst, strat)
        n = inst.num_pages
        assert np.array_equal(trans.dangling, ref.dangling)
        s = trans.dense_s()
        assert np.array_equal(s, ref.dense_s())
        assert s.min() >= 0.0
        x = rng.random(n)
        x /= x.sum()
        step = ref.pi_step(x)
        assert np.abs(trans.pi_step(x) - step).max() <= 8 * np.spacing(np.abs(step).max())
        v = rng.normal(size=n) * 10.0
        assert np.abs(trans.apply_s(v) - ref.apply_s(v)).max() <= 8 * np.spacing(np.abs(v).max())
        for transpose in (False, True):
            rhs = rng.normal(size=n)
            got, want = trans.solve(rhs, transpose), ref.solve(rhs, transpose)
            assert (got is None and want is None) or np.array_equal(got, want)
        for rewards in (inst.rewards, *(c.weights for c in inst.coupling)):
            assert utility_from_chain(trans, x, rewards) == utility_from_chain(ref, x, rewards)


def test_continuous_choice_replaces_a_link_row():
    # page 0 keeps 0->1 and may add 0->2; a continuous row halfway between
    # its two uniform rows is admissible and must replace the link row
    doc = {"num_pages": 3, "damping": 0.8, "teleport": "uniform",
           "obligatory": [[0, 1], [1, 2]], "facultative": [[0, 2]],
           "rewards": {"type": "per_page", "values": [0.0, 1.0, 0.5]}}
    inst = load_instance(doc)
    trans = build_transition(inst, Strategy({0: ContinuousChoice((1, 2), (0.75, 0.25))}))
    s = trans.dense_s()
    assert np.allclose(s[0], [0.0, 0.75, 0.25], atol=1e-12)
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
    lower, upper = weight_box(inst.skeletons, 0)
    damped_lo = 0.85 * lower + 0.15 * inst.teleport
    damped_up = 0.85 * upper + 0.15 * inst.teleport
    assert np.all(row >= damped_lo - 1e-12)
    assert np.all(row <= damped_up + 1e-12)
    assert abs(row.sum() - 1.0) < 1e-12


def test_free_rows_are_checked_in_closed_form():
    doc = two_page_doc()
    doc["num_pages"] = 3
    doc["teleport"] = "uniform"
    doc["facultative"] = []
    doc["obligatory"] = [[1, 0], [1, 2]]
    doc["rewards"] = {"type": "per_page", "values": [0.0, 1.0, 0.0]}
    doc["skeleton"] = [{"page": 0, "q": [0.5, 0.5, 0.0], "mu": 0.4, "banned": [2]},
                       {"page": 2, "q": [1.0, 0.0, 0.0], "mu": 0.0}]
    inst = load_instance(doc)
    build_transition(inst, Strategy({0: ContinuousChoice((0, 1), (0.25, 0.75))}))
    for cols, probs in (((2,), (1.0,)),  # mass on a banned page
                        ((0, 1), (1.5, -0.5)),  # below the floor
                        ((1, 1), (0.5, 0.5)),  # a column twice
                        ((0, 3), (0.5, 0.5))):  # not a page
        with pytest.raises(InvalidStrategy):
            build_transition(inst, Strategy({0: ContinuousChoice(cols, probs)}))
    # with mu = 0 the floor is the only row: there is no free mass to move
    trans = build_transition(inst, Strategy({2: ContinuousChoice((1,), (1.0,))}))
    assert trans.dense_s()[2].tolist() == [1.0, 0.0, 0.0]


def test_free_rows_on_link_pages_keep_the_chain_space_tolerance():
    # page 0 keeps 0->1 and may add 0->2, so x[2] <= x[1]; a row breaking
    # that by 0.9e-9 on the chain row passes and by 1.1e-9 does not, as
    # when rows were checked against the chain-space facets
    doc = {"num_pages": 3, "damping": 0.8, "teleport": "uniform",
           "obligatory": [[0, 1], [1, 2]], "facultative": [[0, 2]],
           "rewards": {"type": "per_page", "values": [0.0, 1.0, 0.5]}}
    inst = load_instance(doc)
    for chain_gap, ok in ((0.9e-9, True), (1.1e-9, False)):
        e = chain_gap / (2 * 0.8)
        strat = Strategy({0: ContinuousChoice((1, 2), (0.5 - e, 0.5 + e))})
        if ok:
            build_transition(inst, strat)
        else:
            with pytest.raises(InvalidStrategy):
                build_transition(inst, strat)


def test_free_rows_on_link_pages_are_checked_together():
    # page 0 keeps 0->1 and may add 0->2; page 1 keeps 1->2 only, so its
    # one row is e_2.  All free rows are separated at once, and the error
    # names the page of the worst violation, not the first violating page
    doc = {"num_pages": 3, "damping": 0.8, "teleport": "uniform",
           "obligatory": [[0, 1], [1, 2]], "facultative": [[0, 2]],
           "rewards": {"type": "per_page", "values": [0.0, 1.0, 0.5]}}
    inst = load_instance(doc)
    inside = ContinuousChoice((1, 2), (0.5, 0.5))
    build_transition(inst, Strategy({0: inside, 1: ContinuousChoice((2,), (1.0,))}))
    off = ContinuousChoice((0, 2), (0.3, 0.7))  # x[0] = 0.3 on page 1
    for first in (inside, ContinuousChoice((1, 2), (0.45, 0.55))):  # x[2] > x[1] by 0.1
        with pytest.raises(InvalidStrategy,
                           match=r"row for page 1 violates x\[0\] = 0 by 3\.000e-01"):
            build_transition(inst, Strategy({0: first, 1: off}))


def _assert_same_blocks(first, second):
    """Two chains hold the same fixed part and chosen entries, bit for bit."""
    assert first.fixed.blocks is None and second.fixed.blocks is None
    for field in ("obl_rows", "obl_cols", "floor_rows", "floor_cols", "floor_vals"):
        assert getattr(first.fixed, field).tobytes() == getattr(second.fixed, field).tobytes()
    for field in ("rows", "cols", "vals", "size", "dangling", "activated"):
        assert getattr(first, field).tobytes() == getattr(second, field).tobytes()


def test_weight_strategy_has_one_entry_per_page_and_round_trips():
    # the shape of the web-weights benchmark: 3,000 pages, 30 dense skeletons
    inst = load_instance(weight_web_doc(np.random.default_rng(3020), 3000, 30))
    _, strat = value_iterate(inst, SolverConfig(tol=1e-8))
    doc = json.loads(json.dumps(strat.to_json_dict()))
    assert [p["page"] for p in doc["pages"]] == inst.skeletons.pages.tolist()
    assert all(p["kind"] == "free" and len(p["row_entries"]) <= 1 for p in doc["pages"])
    _assert_same_blocks(build_transition(inst, strat),
                        build_transition(inst, load_strategy(doc, inst)))


def test_coupled_candidate_round_trips_to_the_same_chain():
    # the candidate mixes two link subsets on a page, a free row on a link
    # page; written and read back it builds the bit-identical chain
    rng = np.random.default_rng(5)
    inst = load_instance(add_active_coupling(link_web_doc(rng, 100, 10, 5), rng))
    res = solve_coupled(inst)
    for strat in (res.candidate.strategy, res.best_feasible.strategy):
        doc = json.loads(json.dumps(strat.to_json_dict()))
        again = load_strategy(doc, inst)
        assert again == strat
        _assert_same_blocks(build_transition(inst, strat), build_transition(inst, again))
    mixed = [page for page, ch in res.candidate.strategy.choices.items()
             if isinstance(ch, ContinuousChoice)]
    assert mixed and not np.isin(mixed, inst.skeletons.pages).any()


def test_recorded_strategy_files_load():
    # strategies of an earlier release, converted to free rows, with the
    # outlink rows that the release writing them built: weight pages at a
    # local optimum (banned targets, mu = 0 and mu = 1) and a coupled
    # mixture on link pages
    with open(DATA / "legacy_strategies.json", encoding="utf-8") as fh:
        cases = json.load(fh)
    assert len(cases) == 2
    loaded = []
    for case in cases:
        inst = load_instance(case["instance"])
        assert {p["kind"] for p in case["strategy"]["pages"]} >= {"free"}
        loaded.append(load_strategy(case["strategy"], inst))
        trans = build_transition(inst, loaded[-1])
        np.testing.assert_allclose(np.where(trans.dangling[:, None], 0.0, trans.dense_s()),
                                   case["outlink_rows"], rtol=0.0, atol=1e-12)
        assert trans.dangling.tolist() == case["dangling"]
    # each weight page of the optimum holds its master alone (none where
    # mu = 0): the conversion's rounding left no entries behind
    sizes = {page: len(ch.cols) for page, ch in loaded[0].choices.items()
             if isinstance(ch, ContinuousChoice)}
    assert sizes == {0: 1, 1: 1, 2: 1, 5: 0}


def _fault_doc():
    # every list the reader takes, each valid: links of both kinds,
    # per-link rewards, a coupling row and two skeleton records
    return {"num_pages": 4, "damping": 0.85, "teleport": "uniform",
            "obligatory": [[0, 1]], "facultative": [[0, 2], [1, 0]],
            "rewards": {"type": "per_link", "default": 0.0,
                        "entries": [[0, 1, 1.0], [1, 0, 0.5]]},
            "coupling": [{"entries": [[0, 2, 1.0]], "bound": 0.5}],
            "skeleton": [{"page": 3, "q": [0.25, 0.25, 0.25, 0.25], "mu": 0.25},
                         {"page": 2, "q": [0.5, 0.0, 0.25, 0.25], "mu": 0.5, "banned": [1]}]}


def _set(*path_value):
    *path, key, value = path_value

    def fault(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value
    return fault


_REWARD, _COUPLING, _SKELETON = ("rewards",), ("coupling", 0), ("skeleton", 1)

# one fault per document, and the exception class the per-record reader
# raised for it (with the message where another test pins one)
FAULTS = [
    ("links-not-a-list", _set("obligatory", {"0": 1}), ParseError, None),
    ("ragged-links", _set("facultative", [[0, 2], [1]]), ParseError, None),
    ("wide-link", _set("obligatory", [[0, 1, 2]]), ValidationError, None),
    ("deeper-link", _set("obligatory", [[[0], [1]]]), ValidationError, None),
    ("deeper-ragged-link", _set("obligatory", [[[0], 1]]), ParseError, None),
    ("empty-link", _set("obligatory", [[]]), ValidationError, None),
    ("scalar-links", _set("obligatory", [0, 1]), ValidationError, None),
    ("list-and-scalar-links", _set("obligatory", [[0, 1], 3]), ParseError, None),
    ("string-links", _set("obligatory", ["01"]), ParseError, None),
    ("object-link", _set("obligatory", [{"i": 0, "j": 1}]), ParseError, None),
    ("null-link", _set("obligatory", [None]), ParseError, None),
    ("string-index", _set("obligatory", [["0", 1]]), ParseError, None),
    ("float-index", _set("facultative", [[0, 2.0], [1, 0]]), ParseError, None),
    ("bool-link", _set("obligatory", [[True, False]]), ParseError, None),
    ("huge-index", _set("obligatory", [[0, 2 ** 70]]), ParseError, None),
    ("negative-index", _set("obligatory", [[-1, 1]]), ValidationError, None),
    ("out-of-range-link", _set("obligatory", [[0, 4]]), ValidationError, None),
    ("duplicate-link", _set("facultative", [[0, 2], [1, 0], [0, 2]]), ValidationError, None),
    ("link-both-kinds", _set("facultative", [[0, 1]]), ValidationError, None),
    ("reward-entry-short", _set(*_REWARD, "entries", [[0, 1]]), ParseError, None),
    ("reward-entry-string", _set(*_REWARD, "entries", ["011"]), ParseError, None),
    ("reward-float-index", _set(*_REWARD, "entries", [[0.0, 1, 1.0]]), ParseError, None),
    ("reward-string-value", _set(*_REWARD, "entries", [[0, 1, "x"]]), ParseError, None),
    ("reward-nested-value", _set(*_REWARD, "entries", [[0, 1, [1.0]]]), ParseError, None),
    ("reward-nan-value", _set(*_REWARD, "entries", [[0, 1, float("nan")]]),
     ValidationError, None),
    ("reward-negative-index", _set(*_REWARD, "entries", [[-1, 1, 1.0]]), ValidationError,
     None),
    ("reward-out-of-range", _set(*_REWARD, "entries", [[0, 4, 1.0]]), ValidationError, None),
    ("reward-duplicate", _set(*_REWARD, "entries", [[0, 1, 1.0], [0, 1, 2.0]]),
     ValidationError, None),
    ("coupling-entry-wide", _set(*_COUPLING, "entries", [[0, 2, 1.0, 3]]), ParseError, None),
    ("coupling-string-index", _set(*_COUPLING, "entries", [["0", 2, 1.0]]), ParseError,
     None),
    ("coupling-infinite-value", _set(*_COUPLING, "entries", [[0, 2, float("inf")]]),
     ValidationError, None),
    ("coupling-out-of-range", _set(*_COUPLING, "entries", [[4, 2, 1.0]]), ValidationError,
     None),
    ("coupling-duplicate", _set(*_COUPLING, "entries", [[0, 2, 1.0], [0, 2, 1.0]]),
     ValidationError, None),
    ("skeleton-not-a-list", _set("skeleton", {"page": 2}), ParseError, None),
    ("skeleton-record-not-an-object", _set("skeleton", [[2]]), ParseError, None),
    ("skeleton-without-q", _set("skeleton", [{"page": 2, "mu": 0.5}]), ParseError, None),
    ("duplicate-skeleton-page", _set("skeleton", 0, "page", 2), ValidationError,
     "page 2 has two skeleton records"),
    ("skeleton-page-with-links", _set(*_SKELETON, "page", 1), ValidationError,
     "page 1 carries both links"),
    ("skeleton-page-out-of-range", _set(*_SKELETON, "page", 4), ParseError, None),
    ("skeleton-page-bool", _set(*_SKELETON, "page", True), ParseError, None),
    ("skeleton-page-float", _set(*_SKELETON, "page", 2.0), ParseError, None),
    ("q-short", _set(*_SKELETON, "q", [0.5, 0.25, 0.25]), ParseError, None),
    ("q-ragged", _set(*_SKELETON, "q", [[0.5], 0.0, 0.25, 0.25]), ParseError, None),
    ("q-nested", _set(*_SKELETON, "q", [[0.5], [0.0], [0.25], [0.25]]), ParseError, None),
    ("q-not-a-list", _set(*_SKELETON, "q", "uniform"), ParseError, None),
    ("q-float-string", _set(*_SKELETON, "q", ["0.5", 0.0, 0.25, 0.25]), ParseError, None),
    ("q-booleans", _set(*_SKELETON, "q", [False, True, False, False]), ParseError, None),
    ("q-two-trues", _set(*_SKELETON, "q", [True, True, False, False]), ParseError, None),
    ("q-huge-integer", _set(*_SKELETON, "q", [10 ** 30, 0, 0, 0]), ParseError, None),
    ("q-negative", _set(*_SKELETON, "q", [-0.25, 0.75, 0.25, 0.25]), ValidationError, None),
    ("q-nan", _set(*_SKELETON, "q", [float("nan"), 0.5, 0.25, 0.25]), ValidationError, None),
    ("q-sum", _set(*_SKELETON, "q", [0.5, 0.5, 0.25, 0.25]), ValidationError, None),
    ("mu-bool", _set(*_SKELETON, "mu", True), ParseError, None),
    ("mu-string", _set(*_SKELETON, "mu", "0.5"), ParseError, None),
    ("mu-null", _set(*_SKELETON, "mu", None), ParseError, None),
    ("mu-above-one", _set(*_SKELETON, "mu", 1.5), ValidationError, None),
    ("mu-negative", _set(*_SKELETON, "mu", -0.125), ValidationError, None),
    ("mu-nan", _set(*_SKELETON, "mu", float("nan")), ValidationError, None),
    ("mu-beyond-float-range", _set(*_SKELETON, "mu", 10 ** 400), ValidationError, None),
    ("bans-not-a-list", _set(*_SKELETON, "banned", 1), ParseError, None),
    ("ban-float", _set(*_SKELETON, "banned", [1.0]), ParseError, None),
    ("ban-bool", _set(*_SKELETON, "banned", [True]), ParseError, None),
    ("ban-out-of-range", _set(*_SKELETON, "banned", [4]), ParseError, None),
    ("ban-negative", _set(*_SKELETON, "banned", [-1]), ParseError, None),
    ("every-target-banned", _set(*_SKELETON, "banned", [3, 0, 2, 1, 0]), ValidationError,
     "skeleton on page 2 leaves no feasible row"),
    # a boolean among numbers, which numpy would read as 0 or 1
    ("per-page-reward-bool", _set("rewards", {"type": "per_page",
                                              "values": [True, 0.5, 0.0, 0.0]}), ParseError, None),
    ("teleport-bool", _set("teleport", [True, 0.25, 0.25, 0.25]), ParseError, None),
    ("dangling-teleport-bool", _set("dangling_teleport", [0, True, 0, 0]), ParseError, None),
    ("link-bool-index", _set("facultative", [[0, 2], [True, 0]]), ParseError, None),
    ("reward-bool-index", _set(*_REWARD, "entries", [[0, True, 1.0], [1, 0, 0.5]]),
     ParseError, None),
    ("reward-bool-value", _set(*_REWARD, "entries", [[0, 1, True], [1, 0, 0.5]]), ParseError,
     None),
    ("coupling-bool-index", _set(*_COUPLING, "entries", [[0, 2, 1.0], [True, 0, 0.5]]),
     ParseError, None),
    ("coupling-bool-value", _set(*_COUPLING, "entries", [[0, 2, True], [1, 0, 0.5]]),
     ParseError, None),
    ("coupling-per-page-bool", _set("coupling", [{"per_page": [True, 0.5, 0.0, 0.0],
                                                  "bound": 0.5}]), ParseError, None),
    ("q-bool-among-numbers", _set(*_SKELETON, "q", [0.0, True, 0.0, 0.0]), ParseError, None),
]


def test_fault_document_loads_whole():
    inst = load_instance(_fault_doc())
    assert inst.skeletons.pages.tolist() == [2, 3]
    assert inst.skeletons.banned.tolist() == [2 * 4 + 1]


@pytest.mark.parametrize("fault, kind, message", [f[1:] for f in FAULTS],
                         ids=[f[0] for f in FAULTS])
def test_one_fault_documents_end_in_the_error_of_the_per_record_reader(fault, kind, message):
    doc = _fault_doc()
    fault(doc)
    for reader in (contextlib.nullcontext, reference_reader):
        with reader(), pytest.raises((ParseError, ValidationError), match=message) as err:
            load_instance(doc)
        assert type(err.value) is kind


def _shuffled_doc(rng, n):
    """Links, per-link rewards, a coupling row and skeleton records, all
    listed out of order, with bans repeated and unsorted, ``mu`` of 0 and
    1, zeros in ``q`` and a page banning every target with no slack."""
    pages, m = rng.permutation(n), min(n // 2, 40)
    weight, linked = pages[:m], pages[m:]
    keys = rng.permutation(np.repeat(linked, 3) * n + rng.integers(0, n, 3 * linked.size))
    keys = keys[np.sort(np.unique(keys, return_index=True)[1])]
    obl, fac = keys[: keys.size // 2], keys[keys.size // 2:]
    paid = rng.permutation(keys)[: keys.size // 2]
    records = []
    for k, page in enumerate(weight.tolist()):
        q = rng.random(n) * (rng.random(n) < 0.5)
        q[rng.integers(0, n)] += 0.5
        mu = [0.0, 1.0, float(rng.random())][k % 3]
        banned = rng.integers(0, n, rng.integers(0, 5)).tolist()
        records.append({"page": page, "q": (q / q.sum()).tolist(), "mu": mu,
                        "banned": banned + banned[:1]})
    records[0].update(mu=0.0, banned=rng.permutation(n).tolist())
    rng.shuffle(records)
    return {"num_pages": n, "damping": 0.85, "teleport": "uniform",
            "obligatory": [[int(k // n), int(k % n)] for k in obl],
            "facultative": [[int(k // n), int(k % n)] for k in fac],
            "rewards": {"type": "per_link", "default": 0.25,
                        "entries": [[int(k // n), int(k % n), float(v)]
                                    for k, v in zip(paid, rng.normal(size=paid.size))]},
            "coupling": [{"entries": [[int(k // n), int(k % n), 1.0] for k in fac[::2]],
                          "bound": 0.5}],
            "skeleton": records}


@pytest.mark.parametrize("make", [
    *(lambda seed=seed, n=n: _shuffled_doc(np.random.default_rng(seed), n)
      for seed, n in ((0, 6), (1, 17), (2, 40), (3, 300), (4, 5000))),
    lambda: weight_web_doc(np.random.default_rng(3020), 3000, 30),
], ids=["6-pages", "17-pages", "40-pages", "300-pages", "5000-pages", "web-weights-shape"])
def test_whole_list_reader_matches_the_per_record_reader_bit_for_bit(make):
    doc = make()
    fast = instance_arrays(load_instance(doc))
    with reference_reader():
        slow = instance_arrays(load_instance(doc))
    assert [name for name, _ in fast] == [name for name, _ in slow]
    for (name, a), (_, b) in zip(fast, slow):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
