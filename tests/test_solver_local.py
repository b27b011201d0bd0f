"""Fixed-point solver for the best local strategy.

The solver's income figure is held against full strategy enumeration on
small instances and against plain value iteration; the one-sweep
operator is checked for its contraction modulus and its shift
equivariance, on which the span stop rests; the returned value vector
must lie within ``tol`` of the exact one.  The vectorized sweep is held
page by page against the sequential maximizers of ``polytopes``, also
where the scores of neighbouring pages differ by fourteen orders of
magnitude, and its warm-started threshold must not change any result.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    exact_utility,
    free_row,
    link_web_doc,
    local_only,
    mixed_doc,
    policy_chain,
    policy_entries,
    power_law_instance,
    random_continuous_doc,
    random_discrete_doc,
    random_discrete_instance,
    random_strategy,
    two_page_coupled_instance,
    two_page_instance,
    weight_box,
    weight_web_doc,
)
import pro
from pro import chain, solver_local
from pro.chain import mean_reward_before_teleport, policy_value, span_iterate
from pro.errors import CouplingPresent, MaxIterExceeded, ValidationError
from pro.graph import DiscreteChoice, build_transition, load_instance
from pro.oracle import brute_force_optimum
from pro.polytopes import BoxSimplex, DiscreteUniform, linear_maximize
from pro.solver_local import (
    DENSE_EVAL_CAP,
    ROUNDING,
    CompiledBellman,
    SolverConfig,
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
        op = CompiledBellman(inst, inst.rewards)
        moved = op.apply(w + c) - op.apply(w)
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


def _exact_value(s, damping, rbar):
    """Solution of ``(I - damping * s) v = rbar`` in rational arithmetic,
    taking every float input as the exact number it stores."""
    n = len(rbar)
    a = [[Fraction(int(i == j)) - Fraction(damping) * Fraction(s[i][j]) for j in range(n)]
         + [Fraction(rbar[i])] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                a[r] = [x - a[r][c] * y for x, y in zip(a[r], a[c])]
    return [row[n] for row in a]


def test_default_tol_stops_at_high_damping_and_large_rewards():
    # at damping 0.99 and rewards near 100 the rescaled tol, 1e-9 / 110,
    # lies below the rounding allowance of a sweep: the loop must stop on
    # the bracket itself, carry the allowance in the error bound, and say
    # "rounding", since that bound is above tol
    rng = np.random.default_rng(3014)
    insts = []
    for _ in range(20):
        doc = random_discrete_doc(rng, damping=0.99)
        doc["rewards"]["entries"] = [[i, j, 100.0 + 10.0 * v]
                                     for i, j, v in doc["rewards"]["entries"]]
        insts.append(load_instance(doc))
    for inst in insts:
        state, _ = value_iterate(inst)
        assert state.stop_reason == "rounding" and state.residual > 1e-9
        assert state.iterations <= 5
        trans = build_transition(inst, brute_force_optimum(inst).strategy)
        rbar = (trans.dense_p() * inst.rewards.dense()).sum(axis=1)
        w_exact = np.linalg.solve(
            np.eye(inst.num_pages) - inst.damping * trans.dense_s(), rbar)
        assert float(np.abs(state.w - w_exact).max()) <= state.residual
        # the fixed chain's own value solve meets the same tol, and its
        # residual bounds the error against the exact rational solution
        mr = mean_reward_before_teleport(trans, inst.rewards)
        v_exact = _exact_value(trans.dense_s(), inst.damping, mr.rbar)
        assert max(abs(Fraction(x) - e) for x, e in zip(mr.v.tolist(), v_exact)) <= mr.residual
    # above the dense cap the policies are evaluated iteratively
    big = power_law_instance(300, 12, 30, seed=4, damping=0.99, reward_frac=0.5)
    big = local_only(big, big.rewards.scaled(100.0 / big.rewards.max_abs()))
    state, _ = value_iterate(big)
    assert state.stop_reason == "rounding" and state.residual > 1e-9
    allowance = ROUNDING / 0.01 * (100.0 + float(np.abs(state.w).max()))
    assert state.residual <= 1e-9 + allowance


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
        op = CompiledBellman(inst, inst.rewards)
        lhs = float(np.abs(op.apply(w) - op.apply(u)).max())
        rhs = inst.damping * float(np.abs(w - u).max())
        assert lhs <= rhs + 1e-12


def test_iteration_budget_closed_form():
    assert iteration_budget(0.85, 1e-8) == 114
    assert iteration_budget(0.5, 0.25) == 2
    with pytest.raises(ValidationError):
        iteration_budget(1.0, 1e-8)
    with pytest.raises(ValidationError):
        iteration_budget(0.85, 0.0)


def test_exports_resolve_and_shared_pieces_live_in_chain():
    for name in pro.__all__:
        if name != "__version__":
            assert pro.__getattr__(name) is getattr(pro, name)
    assert solver_local.iteration_budget is chain.iteration_budget
    assert solver_local.ROUNDING is chain.ROUNDING
    assert solver_local.DENSE_EVAL_CAP == chain.DENSE_EVAL_CAP == 99


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


def test_solver_config_refuses_bad_knobs():
    for kw in ({"tol": 0.0}, {"tol": -1.0}, {"tol": np.nan}, {"tol": np.inf},
               {"max_iter": 0}, {"max_iter": -3}):
        with pytest.raises(ValidationError):
            SolverConfig(**kw)
    assert SolverConfig(tol=1e-3, max_iter=1).max_iter == 1


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


def _exact_arithmetic_doc(rng):
    # criterion-3 family with integer rewards and a dyadic fallback row, so
    # every score, sum and average below is exact; half of the link-free
    # pages carry a skeleton
    doc = random_discrete_doc(rng)
    n = doc["num_pages"]
    doc["rewards"] = {"type": "per_link", "default": 0.0,
                      "entries": [[i, j, float(rng.integers(-2, 3))]
                                  for i in range(n) for j in range(n)]}
    hang = np.zeros(n)
    hang[rng.choice(n, size=min(n, 2), replace=False)] = [0.75, 0.25][:min(n, 2)]
    doc["dangling_teleport"] = hang.tolist()
    linked = {i for i, _ in doc["obligatory"] + doc["facultative"]}
    doc["skeleton"] = [{"page": i, "q": np.full(n, 1.0 / n).tolist(),
                        "mu": 0.5, "banned": [int(rng.integers(n))]}
                       for i in range(n) if i not in linked and rng.random() < 0.5]
    return doc


def test_sweep_matches_sequential_reference():
    rng = np.random.default_rng(3010)
    seen = {"smallest_support": 0, "link_wins_tie": 0, "no_link_wins": 0,
            "skeleton": 0}
    for _ in range(300):
        inst = load_instance(_exact_arithmetic_doc(rng))
        n, alpha = inst.num_pages, inst.damping
        comp = CompiledBellman(inst, inst.rewards)
        r = inst.rewards.dense()
        w = rng.integers(-3, 4, size=n).astype(float)
        got_t, got = comp.apply(w), comp.extract(w)
        for i in range(n):
            score = r[i] + w
            if i in inst.skeletons.pages:
                res = linear_maximize(BoxSimplex(*weight_box(inst.skeletons, i)), score)
                assert np.array_equal(free_row(inst, i, got.choices[i]), res.row)
                seen["skeleton"] += 1
            else:
                obl, fac = inst.obligatory_of(i), inst.facultative_of(i)
                res = linear_maximize(
                    DiscreteUniform(tuple(obl.tolist()), tuple(fac.tolist()),
                                    inst.dangling_teleport, n), score)
                if fac.size:
                    want = () if res.support is None else \
                        tuple(j for j in res.support if j not in obl)
                    assert got.choices[i] == DiscreteChoice(want), i
                    if res.support is not None:
                        left_out = [j for j in fac if j not in res.support]
                        seen["smallest_support"] += any(score[j] == res.value for j in left_out)
                    if not obl.size:
                        no_link = float(inst.dangling_teleport @ score)
                        seen["link_wins_tie"] += res.support is not None and no_link == res.value
                        seen["no_link_wins"] += res.support is None
            assert got_t[i] == alpha * res.value + comp.const[i], i
    assert all(count > 0 for count in seen.values()), seen


def _weight_case(q, mu, banned, base, links, w):
    # page 0 carries the skeleton; per-link entries r[0, j] = base + d
    q = np.asarray(q, dtype=float)
    doc = {"num_pages": q.size, "damping": 0.85, "teleport": "uniform",
           "rewards": {"type": "per_link", "default": base,
                       "entries": [[0, j, base + d] for j, d in sorted(links.items())]},
           "skeleton": [{"page": 0, "q": (q / q.sum()).tolist(), "mu": mu,
                         "banned": sorted(banned)}]}
    return doc, np.asarray(w, dtype=float)


# a few values, so that ties are common, plus neighbours of 1 that a
# large base rounds into one score
_UP, _DOWN = float(np.nextafter(1.0, 2.0)), float(np.nextafter(1.0, 0.0))
_SCORES = st.sampled_from([-3.0, 0.0, 1.0, _UP, _DOWN, 2.5]) | st.floats(-4.0, 4.0)


@st.composite
def _weight_cases(draw):
    n = draw(st.integers(1, 7))
    q = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 1.0),
                      min_size=n, max_size=n))
    if sum(q) <= 0.0:
        q[draw(st.integers(0, n - 1))] = 1.0
    banned = draw(st.sets(st.integers(0, n - 1), max_size=n))
    # banning every target leaves a row only when the floor is the row
    mu = 0.0 if len(banned) == n else draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    base = draw(st.sampled_from([0.0, 0.75, -2.0, 1e3, 2.0 ** 53]))
    links = draw(st.dictionaries(st.integers(0, n - 1), _SCORES, max_size=n))
    return _weight_case(q, mu, banned, base, links,
                        draw(st.lists(_SCORES, min_size=n, max_size=n)))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_weight_cases())
@example(_weight_case([1, 1, 1, 1], 0.5, [], 0.0, {}, [0, 0, 0, 0]))  # ties
@example(_weight_case([1, 0, 1, 0], 0.5, [0, 1], 0.0, {}, [3, 3, 1, 1]))  # banned
@example(_weight_case([2, 1, 1], 0.0, [], 0.5, {}, [0, 2, 1]))  # mu = 0
@example(_weight_case([2, 1, 1], 1.0, [2], 0.5, {}, [0, 2, 5]))  # mu = 1
@example(_weight_case([0, 0, 1], 0.4, [], 0.0, {1: 2.0}, [1, 0, 1]))  # q zeros, a link
@example(_weight_case([1, 1, 1], 0.4, [], 0.0, {2: 1.0}, [2, 0, 1]))  # a link ties
@example(_weight_case([1, 1, 1], 0.4, [0], 1e3, {}, [2, _DOWN, 1]))  # rounded tie
@example(_weight_case([1, 1], 0.0, [0, 1], 0.0, {}, [1, 2]))  # all banned
# more excluded targets at the top of w than the master search skips
@example(_weight_case([1] * 12, 0.5, [0, 1, 2, 3, 4], 0.0,
                      {5: -1.0, 6: -1.0, 7: 0.5, 8: -2.0, 9: 0.0},
                      [9, 9, 9, 9, 9, 8, 8, 8, 8, 8, 1, 2]))
@example(_weight_case([1] * 12, 0.5, [0, 1, 2, 3, 4], 0.0,
                      {j: -20.0 for j in range(5, 10)},
                      [9, 9, 9, 9, 9, 8, 8, 8, 8, 8, 2, 2]))
def test_weight_page_step_matches_box_maximizer(case):
    doc, w = case
    inst = load_instance(doc)
    comp = CompiledBellman(inst, inst.rewards)
    got = comp.apply(w)[0]
    choice = comp.extract(w).choices[0]
    # the sweep scores by the dense rows at this size; the walk that
    # larger instances take must give the same (top, j*), bit for bit
    dense, walk = comp._masters_dense(w), comp._masters_walk(w)
    assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(dense, walk))
    score = inst.rewards.dense()[0] + w
    lower, upper = weight_box(inst.skeletons, 0)
    res = linear_maximize(BoxSimplex(lower, upper), score)
    assert np.array_equal(free_row(inst, 0, choice), res.row)
    if 1.0 - float(lower.sum()) > 0.0:
        # the reference fills the first target with room in its order
        order = np.lexsort((np.arange(w.size), -score))
        room = [int(j) for j in order if upper[j] > lower[j]]
        assert choice.cols == tuple(room[:1])
    assert got == 0.85 * res.value + comp.const[0]


def _small_next_to_huge_doc(rng):
    # page 0's scores are ~1e8 and page 1's, next in CSR order, ~1e-6;
    # page 2 has no obligatory link, so it competes with the no-link row
    n = 12
    entries = []
    for i, size in ((0, 1e8), (1, 1e-6), (2, 1e-6)):
        entries += [[i, j, float(size * rng.uniform(0.5, 1.5))] for j in range(n)]
    return {
        "num_pages": n,
        "damping": 0.85,
        "teleport": [1.0 / n] * n,
        "obligatory": [[0, 1], [1, 0], [1, 3]],
        "facultative": [[0, j] for j in range(2, n)]
                       + [[1, j] for j in range(4, n)]
                       + [[2, j] for j in range(3, n)],
        "rewards": {"type": "per_link", "default": 0.0, "entries": entries},
    }


def test_sweep_keeps_small_scores_next_to_huge_ones():
    rng = np.random.default_rng(3011)
    for _ in range(30):
        inst = load_instance(_small_next_to_huge_doc(rng))
        n, alpha = inst.num_pages, inst.damping
        comp = CompiledBellman(inst, inst.rewards)
        r = inst.rewards.dense()
        w = rng.uniform(-1e-7, 1e-7, size=n)
        got_t, got = comp.apply(w), comp.extract(w)
        for i in (0, 1, 2):
            obl, fac = inst.obligatory_of(i), inst.facultative_of(i)
            res = linear_maximize(
                DiscreteUniform(tuple(obl.tolist()), tuple(fac.tolist()),
                                inst.dangling_teleport, n), r[i] + w)
            want = alpha * res.value + comp.const[i]
            assert abs(got_t[i] - want) <= 8 * np.spacing(abs(want)), i
            picked = () if res.support is None else \
                tuple(j for j in res.support if j not in obl)
            assert got.choices[i] == DiscreteChoice(picked), i


def _plain_value_iteration(inst, tol):
    # the improvement operator iterated to its fixed point on its own
    op = CompiledBellman(inst, inst.rewards)
    w, _, _, converged = span_iterate(op.apply, np.zeros(inst.num_pages), inst.damping,
                                      tol, 100_000)
    assert converged
    return w, op.extract(w)


def _page_income(inst, i, choice, w):
    # one page's objective row . (r_i + w) under a choice, in outlink space
    if isinstance(choice, DiscreteChoice):
        row = np.zeros(inst.num_pages)
        support = list(inst.obligatory_of(i)) + list(choice.activated)
        if support:
            row[support] = 1.0 / len(support)
        else:
            row = inst.dangling_teleport
    else:
        row = free_row(inst, i, choice)
    return float(row @ (inst.rewards.dense()[i] + w))


def test_policy_iteration_matches_value_iteration():
    rng = np.random.default_rng(3012)
    docs = [random_discrete_doc(rng) for _ in range(60)]
    docs += [random_discrete_doc(rng, reward_kind="per_page") for _ in range(60)]
    docs += [random_continuous_doc(rng, n_max=12) for _ in range(30)]
    insts = [load_instance(doc) for doc in docs]
    # above the dense cap, so the policies are evaluated iteratively
    insts += [power_law_instance(300, 12, 30, seed=s, reward_frac=0.2)
              for s in (1, 2)]
    tol, ties, unsettled = 1e-9, 0, 0
    for inst in insts:
        w_vi, strat_vi = _plain_value_iteration(inst, tol / 10)
        state, strat = value_iterate(inst, SolverConfig(tol=tol))
        # the bracket can close while the greedy policy still moves
        # between policies whose incomes tie
        assert state.stop_reason in ("policy_stable", "bracket")
        unsettled += state.stop_reason == "bracket"
        assert float(np.abs(state.w - w_vi).max()) <= tol
        assert set(strat.choices) == set(strat_vi.choices)
        for i, choice in strat.choices.items():
            other = strat_vi.choices[i]
            same = (choice == other if isinstance(choice, DiscreteChoice)
                    else np.allclose(free_row(inst, i, choice), free_row(inst, i, other),
                                     rtol=0.0, atol=1e-12))
            if not same:
                gap = _page_income(inst, i, choice, w_vi) \
                    - _page_income(inst, i, other, w_vi)
                assert abs(gap) <= 1e-8, (i, choice, other)
                ties += 1
    assert ties <= 5 and unsettled <= 5


def test_two_page_cycle_takes_few_policy_steps():
    state, strat = value_iterate(two_page_instance())
    assert state.iterations <= 3
    assert state.stop_reason == "policy_stable"
    assert strat.choices[0] == DiscreteChoice((1,))
    assert strat.choices[1] == DiscreteChoice((0,))


def test_threshold_hint_is_not_state():
    rng = np.random.default_rng(3013)
    insts = [power_law_instance(2000, 30, 60, seed=s, reward_frac=0.1)
             for s in (5, 6)]
    insts += [load_instance(random_discrete_doc(rng, n_max=12, fac_budget=30))
              for _ in range(40)]
    started_above = 0
    for inst in insts:
        n = inst.num_pages
        w1 = rng.normal(size=n) * 3.0
        comp = CompiledBellman(inst, inst.rewards)
        for w2 in (w1 - np.abs(rng.normal(size=n)) * 5.0,  # moves t* down
                   w1 + rng.normal(size=n) * 0.01,
                   rng.normal(size=n) * 3.0):
            comp.apply(w1)
            hint = comp.hint.copy()
            got_t, got = comp.apply(w2), comp.extract(w2)
            fresh = CompiledBellman(inst, inst.rewards)
            assert np.array_equal(got_t, fresh.apply(w2))
            assert got == fresh.extract(w2)
            started_above += int(np.any(hint[fresh.newton] > fresh.hint[fresh.newton]))
    assert started_above >= 40


def _evaluation_docs(rng):
    """Every page type at and below the dense cap, two webs above it, and
    one above it whose fixed pages the operator eliminates."""
    docs = [random_discrete_doc(rng, n_max=12, fac_budget=30) for _ in range(12)]
    docs += [random_discrete_doc(rng, reward_kind="per_page") for _ in range(8)]
    docs += [random_continuous_doc(rng, n_max=40) for _ in range(6)]
    docs += [mixed_doc(rng, n=int(rng.integers(4, 99))) for _ in range(6)]
    # a weight page whose every target is banned keeps its floor (j* = -1)
    doc = mixed_doc(rng, n=9)
    doc["skeleton"][0].update(mu=0.0, banned=list(range(9)))
    docs.append(doc)
    docs += [link_web_doc(rng, 400, 20, 10), weight_web_doc(rng, 300, 6)]
    # 90 fixed pages and 60 controlled ones
    docs.append(link_web_doc(rng, 150, 60, 5))
    return docs


def _entry_form(comp):
    """The last sweep's policy as ``(rbar, trans)``, read off its entry
    lists: its reward vector and ``policy_chain``'s ``CsrChain``."""
    trans, _ = policy_chain(comp)
    rows, _, weights, rewards = policy_entries(comp)
    rbar = np.bincount(rows, weights * rewards, minlength=comp.n)
    rbar[comp.use_nl] = comp.no_link_base[comp.use_nl]
    return comp.alpha * rbar + comp.const, trans


def test_policy_blocks_match_entry_lists():
    # the operator's policy chain gives the policy's system (the
    # operator's rbar, apply_s, dense_s), its steps for stationary
    # (pi_step) and its P at the pattern keys (p_at) as the entry lists do
    rng = np.random.default_rng(3014)
    seen = {"no_link": 0, "no_master": 0, "above_cap": 0}
    for doc in _evaluation_docs(rng):
        inst = load_instance(doc)
        comp = CompiledBellman(inst, inst.rewards)
        n = comp.n
        for _ in range(3):
            comp.apply(rng.normal(size=n) * 3.0)
            view = comp.policy()
            ref_rbar, ref_chain = _entry_form(comp)
            ref_p = policy_chain(comp)[1]
            assert (view.damping, view.num_pages) == (ref_chain.damping, ref_chain.num_pages)
            assert view.teleport is comp.z
            v = rng.normal(size=n) * 10.0
            r_scale = comp.alpha * inst.rewards.max_abs() + float(np.abs(comp.const).max())
            assert np.abs(comp.rbar() - ref_rbar).max() <= 8 * np.spacing(max(r_scale, 1e-300))
            assert np.abs(view.apply_s(v) - ref_chain.apply_s(v)).max() \
                <= 8 * np.spacing(np.abs(v).max())
            assert np.array_equal(view.dense_s(), ref_chain.dense_s())
            x = rng.random(n)
            x /= x.sum()
            ref_step = ref_chain.pi_step(x)
            assert np.abs(view.pi_step(x) - ref_step).max() \
                <= 8 * np.spacing(np.abs(ref_step).max())
            assert np.array_equal(view.p_at(comp.keys), ref_p)
            seen["no_link"] += int(comp.use_nl.any())
            seen["no_master"] += int(np.any(comp.jstar < 0))
            seen["above_cap"] += n > DENSE_EVAL_CAP
    assert all(count > 0 for count in seen.values()), seen


def test_policy_solve_matches_a_dense_solve_of_its_chain():
    # both orientations of the policy chain's solve against a dense solve
    # of the entry lists' CsrChain: the same dense solve bit for bit when
    # the operator does not eliminate, within rounding when it does, and
    # None, like CsrChain.solve, above the cap otherwise
    rng = np.random.default_rng(3016)
    seen = dict.fromkeys(["dense", "eliminated", "eliminated_above_cap", "none"], 0)
    for doc in _evaluation_docs(rng):
        inst = load_instance(doc)
        comp = CompiledBellman(inst, inst.rewards)
        n = comp.n
        for _ in range(2):
            comp.apply(rng.normal(size=n) * 3.0)
            view = comp.policy()
            trans = policy_chain(comp)[0]
            s = trans.dense_s()
            for transpose in (False, True):
                rhs = rng.normal(size=n)
                got, ref = view.solve(rhs, transpose), trans.solve(rhs, transpose)
                assert (ref is None) == (n > DENSE_EVAL_CAP)
                if not comp.eliminates:
                    assert (got is None and ref is None) or np.array_equal(got, ref)
                    seen["dense" if n <= DENSE_EVAL_CAP else "none"] += 1
                    continue
                exact = np.linalg.solve(np.eye(n) - comp.alpha * (s.T if transpose else s), rhs)
                assert np.abs(got - exact).max() <= 1e-13 * np.abs(exact).max()
                seen["eliminated" if n <= DENSE_EVAL_CAP else "eliminated_above_cap"] += 1
    assert all(count > 0 for count in seen.values()), seen


def test_policy_borrows_the_operators_fixed_part():
    # a policy's chain holds the operator's obligatory links and floors by
    # reference, so building it allocates its chosen entries alone
    inst = load_instance(link_web_doc(np.random.default_rng(3131), 20000, 100, 10))
    comp = CompiledBellman(inst, inst.rewards)
    comp.apply(np.zeros(comp.n))
    tracemalloc.start()
    try:
        view = comp.policy()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert view.fixed is comp.part
    chosen = int(comp.active.sum() + (comp.jstar >= 0).sum())
    assert chosen > 0
    assert view.rows.size == view.cols.size == view.vals.size == chosen
    assert peak < comp.o_idx.nbytes


def test_value_iterate_same_with_entry_list_evaluation():
    # the operator's evaluation swapped for one on the entry lists: the
    # dense solve of the full chain wherever the operator solves exactly
    # (densely or on the controlled pages), policy_value otherwise
    rng = np.random.default_rng(3015)
    for doc in _evaluation_docs(rng):
        inst = load_instance(doc)
        state, strat = value_iterate(inst, SolverConfig(tol=1e-10))
        scale = max(1.0, inst.rewards.max_abs())
        comp = CompiledBellman(inst, inst.rewards.scaled(1.0 / scale), scale)
        exact = comp.eliminates or comp.n <= DENSE_EVAL_CAP

        def evaluate(x0, tol, max_iter, comp=comp, exact=exact):
            if exact and comp.repeated:
                return x0
            rbar, trans = _entry_form(comp)
            if exact:
                return np.linalg.solve(np.eye(comp.n) - comp.alpha * trans.dense_s(), rbar)
            return policy_value(trans, rbar, x0, tol, max_iter)[0]

        comp.evaluate = evaluate
        ref, ref_strat = value_iterate(inst, SolverConfig(tol=1e-10), bellman=comp)
        assert state.iterations == ref.iterations
        assert strat == ref_strat
        assert abs(state.psi - ref.psi) <= 1e-12 * max(1.0, abs(ref.psi))
