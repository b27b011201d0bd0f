"""Dense LP solver, checked against enumeration of basic solutions."""

import importlib.util
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from pro import simplex
from pro.errors import Infeasible, ProError, Unbounded
from pro.graph import load_instance
from pro.simplex import _PIVOT_TOL, _pivot, solve_dense_lp
from pro.solver_coupled import lp_formulate


def _vertex_maximum(c, a_ub, b_ub):
    """Best vertex of ``{x >= 0, a_ub x <= b_ub}`` by full enumeration."""
    n = c.size
    rows = np.vstack([a_ub, -np.eye(n)])
    rhs = np.concatenate([b_ub, np.zeros(n)])
    best = -np.inf
    for active in itertools.combinations(range(rows.shape[0]), n):
        sub = rows[list(active)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, rhs[list(active)])
        if np.all(rows @ x <= rhs + 1e-9):
            best = max(best, float(np.dot(c, x)))
    return best


def test_known_small_programs():
    x, val = solve_dense_lp(np.array([2.0, 3.0]),
                            a_ub=np.array([[1.0, 0.0], [0.0, 1.0]]),
                            b_ub=np.array([1.0, 1.0]), maximize=True)
    assert val == pytest.approx(5.0, abs=1e-10)
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-10)

    x, val = solve_dense_lp(np.array([1.0, 0.0]),
                            a_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0]))
    assert val == pytest.approx(0.0, abs=1e-10)
    np.testing.assert_allclose(x, [0.0, 1.0], atol=1e-10)


def test_redundant_and_degenerate_rows():
    # three copies of the same face meeting at the optimum
    a = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
    b = np.array([1.0, 1.0, 1.0, 1.0])
    _, val = solve_dense_lp(np.array([1.0, 2.0]), a_ub=a, b_ub=b, maximize=True)
    assert val == pytest.approx(2.0, abs=1e-10)


def test_infeasible_and_unbounded():
    with pytest.raises(Infeasible):
        solve_dense_lp(np.array([1.0]), a_ub=np.array([[1.0]]),
                       b_ub=np.array([-1.0]), maximize=True)
    with pytest.raises(Infeasible):
        solve_dense_lp(np.array([1.0, 1.0]),
                       a_eq=np.array([[1.0, 0.0], [1.0, 0.0]]),
                       b_eq=np.array([2.0, 3.0]))
    with pytest.raises(Unbounded):
        solve_dense_lp(np.array([1.0, 1.0]),
                       a_ub=np.array([[-1.0, 1.0]]), b_ub=np.array([1.0]),
                       maximize=True)


def test_pivot_limit_is_enforced():
    with pytest.raises(ProError):
        solve_dense_lp(np.array([1.0, 1.0]),
                       a_ub=np.array([[1.0, 2.0]]), b_ub=np.array([1.0]),
                       maximize=True, max_pivots=0)


def test_random_programs_match_vertex_enumeration():
    rng = np.random.default_rng(70)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 5))
        c = rng.normal(size=n)
        a = rng.normal(size=(m, n))
        b = rng.uniform(0.2, 2.0, size=m)
        a_box = np.vstack([a, np.eye(n)])  # box rows keep it bounded
        b_box = np.concatenate([b, np.full(n, 2.0)])
        x, val = solve_dense_lp(c, a_ub=a_box, b_ub=b_box, maximize=True)
        assert val == pytest.approx(_vertex_maximum(c, a_box, b_box), abs=1e-8)
        assert np.all(x >= -1e-9)
        assert np.all(a_box @ x <= b_box + 1e-8)
        # a vertex solution: at most one nonzero per constraint row
        assert int(np.count_nonzero(x > 1e-9)) <= a_box.shape[0]


def test_assignment_programs_hit_permutations():
    """Doubly stochastic feasible sets have permutation-matrix optima."""
    rng = np.random.default_rng(71)
    a_eq = np.array([
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [1.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 1.0],
    ])
    b_eq = np.ones(4)
    for _ in range(20):
        c = rng.normal(size=4)
        x, val = solve_dense_lp(c, a_eq=a_eq, b_eq=b_eq)
        assert val == pytest.approx(min(c[0] + c[3], c[1] + c[2]), abs=1e-10)
        np.testing.assert_allclose(np.sort(x), [0.0, 0.0, 1.0, 1.0], atol=1e-9)


def test_sense_flip_consistency():
    rng = np.random.default_rng(72)
    c = rng.normal(size=3)
    a = np.vstack([rng.normal(size=(2, 3)), np.eye(3)])
    b = np.concatenate([rng.uniform(0.5, 1.5, size=2), np.ones(3)])
    _, hi = solve_dense_lp(c, a_ub=a, b_ub=b, maximize=True)
    _, lo = solve_dense_lp(-c, a_ub=a, b_ub=b, maximize=False)
    assert hi == pytest.approx(-lo, abs=1e-10)


def test_beale_cycling_example_terminates():
    # Beale (1955): Dantzig pricing that breaks ratio ties by the smallest
    # basic index cycles through six degenerate bases here; the
    # lexicographic ratio test leaves the degenerate vertex at once
    c = np.array([-0.75, 20.0, -0.5, 6.0])
    a = np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]])
    x, val = solve_dense_lp(c, a_ub=a, b_ub=np.array([0.0, 0.0, 1.0]), max_pivots=20)
    assert val == pytest.approx(-1.25, abs=1e-12)
    np.testing.assert_allclose(x, [1.0, 0.0, 1.0, 0.0], atol=1e-12)


def _row_skipping_pivot(tableau, obj, basis, row, col):
    """The update that touches only the rows with a nonzero factor, as a
    reference: those rows are all a pivot changes."""
    tableau[row] /= tableau[row, col]
    rows = np.flatnonzero(tableau[:, col])
    rows = rows[rows != row]
    tableau[rows] -= tableau[rows, col, None] * tableau[row]
    obj -= obj[col] * tableau[row]
    basis[row] = col


def test_pivot_matches_row_skipping_update():
    # the full rank-one update must leave every entry as updating only the
    # rows with a nonzero factor leaves it (array_equal: the sign of a zero
    # may differ, and no comparison of the simplex reads it)
    rng = np.random.default_rng(73)
    skipped = 0
    for _ in range(200):
        m, k = int(rng.integers(2, 12)), int(rng.integers(2, 16))
        tableau = rng.normal(size=(m, k)) * (rng.random((m, k)) < 0.6)
        row, col = int(rng.integers(0, m)), int(rng.integers(0, k))
        tableau[row, col] = rng.uniform(0.5, 2.0)
        skipped += int(np.count_nonzero(tableau[:, col] == 0.0))
        obj = rng.normal(size=k)
        basis = np.arange(m)
        ours = (tableau.copy(), obj.copy(), basis.copy())
        ref = (tableau.copy(), obj.copy(), basis.copy())
        _pivot(*ours, row, col)
        _row_skipping_pivot(*ref, row, col)
        for a, b in zip(ours, ref):
            assert np.array_equal(a, b)
    assert skipped > 100


def _run_with_list_tie_break(tableau, obj, basis, allowed, max_pivots):
    """``simplex._run`` with its lexicographic tie-break done on rows of
    keys compared as Python lists: the reference for ``np.lexsort``."""
    lex = np.append(tableau.shape[1] - 1, basis)
    for _ in range(max_pivots):
        masked = np.where(allowed, obj[:-1], 0.0)
        col = int(np.argmin(masked))
        if masked[col] >= -_PIVOT_TOL:
            return "optimal"
        colvals = tableau[:, col]
        pos = colvals > _PIVOT_TOL
        if not np.any(pos):
            return "unbounded"
        ratios = np.where(pos, tableau[:, -1] / np.where(pos, colvals, 1.0), np.inf)
        ties = np.flatnonzero(ratios <= ratios.min() + 1e-12)
        keys = np.round(tableau[ties[:, None], lex] / (colvals[ties, None] * _PIVOT_TOL))
        keys = keys.tolist()
        simplex._pivot(tableau, obj, basis, int(ties[keys.index(min(keys))]), col)
    raise ProError("simplex pivot limit reached")


def _solve_recording(monkeypatch, run, problem):
    pivots = []

    def record(tableau, obj, basis, row, col):
        pivots.append((row, col))
        _pivot(tableau, obj, basis, row, col)

    monkeypatch.setattr(simplex, "_run", run)
    monkeypatch.setattr(simplex, "_pivot", record)
    x, val = solve_dense_lp(*problem[:5], maximize=problem[5])
    return pivots, x, val


def test_lexsort_tie_break_matches_list_tie_break(monkeypatch):
    # the 36 occupation LPs of the benchmark's small-crosscheck documents
    # (seeds 61-63) and Beale's example pivot alike under both tie-breaks
    spec = importlib.util.spec_from_file_location(
        "generate", Path(__file__).resolve().parent.parent / "perfbench" / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    problems = [(lp.objective, lp.a_eq, lp.b_eq, lp.a_ub, lp.b_ub, True)
                for lp in (lp_formulate(load_instance(json.loads(text)))
                           for seed in (61, 62, 63)
                           for text in generate.documents("small-crosscheck", seed))]
    beale = np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]])
    problems.append((np.array([-0.75, 20.0, -0.5, 6.0]), None, None, beale,
                     np.array([0.0, 0.0, 1.0]), False))
    assert len(problems) == 37
    lexsorted, pivots = simplex._run, 0
    for problem in problems:
        ours = _solve_recording(monkeypatch, lexsorted, problem)
        ref = _solve_recording(monkeypatch, _run_with_list_tie_break, problem)
        assert ours[0] == ref[0]
        assert np.array_equal(ours[1], ref[1]) and ours[2] == ref[2]
        pivots += len(ours[0])
    assert pivots > 1000
