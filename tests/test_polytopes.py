"""Facet systems, separation, and exact linear maximization."""

import numpy as np
import pytest

from pro.errors import Infeasible
from pro.oracle import enumerate_discrete_actions
from pro.polytopes import (BoxSimplex, DiscreteUniform, facets_box, facets_discrete,
                           greedy_uniform_support, linear_maximize, separate)
from pro.simplex import solve_dense_lp

from helpers import constraint_count, facet_vertices, random_box_row, same_point_set


def random_split(rng, n, fac_max=6):
    """Random disjoint (obligatory, facultative) target sets."""
    perm = rng.permutation(n)
    n_o = int(rng.integers(0, 3))
    n_f = int(rng.integers(0, min(fac_max, n - n_o) + 1))
    return (tuple(sorted(int(j) for j in perm[:n_o])),
            tuple(sorted(int(j) for j in perm[n_o:n_o + n_f])))


def random_hang(rng, n):
    z = rng.random(n) * (rng.random(n) < 0.7)
    if z.sum() <= 0.0:
        z[int(rng.integers(0, n))] = 1.0
    return z / z.sum()


def expected_vertices(obligatory, facultative, hang, n):
    """Per-case vertex list: product of segments, simplex with apex, simplex."""
    if obligatory:
        verts = []
        for bits in range(1 << len(facultative)):
            support = list(obligatory) + [j for k, j in enumerate(facultative)
                                          if bits >> k & 1]
            row = np.zeros(n)
            row[support] = 1.0 / len(support)
            verts.append(row)
        return verts
    forbidden_massed = any(hang[j] > 0.0 for j in range(n)
                           if j not in facultative)
    verts = [np.eye(n)[j] for j in facultative]
    if forbidden_massed:
        verts.append(np.asarray(hang, dtype=float))
    return verts


def test_record_count_is_pages_plus_one():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        obl, fac = random_split(rng, n)
        hang = random_hang(rng, n)
        system = facets_discrete(obl, fac, hang, n)
        assert constraint_count(system) == n + 1


def test_every_action_is_inside_its_facet_system():
    rng = np.random.default_rng(8)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        obl, fac = random_split(rng, n)
        hang = random_hang(rng, n)
        system = facets_discrete(obl, fac, hang, n)
        for _, row in enumerate_discrete_actions(obl, fac, hang):
            assert not separate(system, row, tol=1e-12).violated


def test_vertices_match_case_analysis():
    rng = np.random.default_rng(9)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        obl, fac = random_split(rng, n, fac_max=4)
        hang = random_hang(rng, n)
        system = facets_discrete(obl, fac, hang, n)
        got = facet_vertices(system)
        want = expected_vertices(obl, fac, hang, n)
        assert same_point_set(got, want, tol=1e-8)


def test_vertices_edge_cases():
    # no facultative choice at all: a single point
    hang = np.array([0.2, 0.3, 0.5])
    system = facets_discrete((1, 2), (), hang, 3)
    got = facet_vertices(system)
    assert same_point_set(got, [np.array([0.0, 0.5, 0.5])])
    # nothing controlled and no obligatory: the fallback row alone
    system = facets_discrete((), (), hang, 3)
    assert same_point_set(facet_vertices(system), [hang])
    # fallback supported inside the facultative set: plain simplex
    hang2 = np.array([0.5, 0.5, 0.0])
    system = facets_discrete((), (0, 1), hang2, 3)
    assert same_point_set(facet_vertices(system),
                          [np.eye(3)[0], np.eye(3)[1]])


def test_separation_reports_worst_violation():
    system = facets_discrete((0,), (1,), np.array([1.0, 0.0, 0.0]), 3)
    res = separate(system, np.array([0.2, 0.9, 0.0]))
    assert res.violated
    assert res.magnitude == pytest.approx(0.7, abs=1e-12)
    inside = separate(system, np.array([0.5, 0.5, 0.0]))
    assert not inside.violated


def test_greedy_matches_enumeration_over_averages():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n_o = int(rng.integers(0, 3))
        n_f = int(rng.integers(0 if n_o else 1, 7))
        base = rng.normal(size=n_o)
        scores = sorted(rng.normal(size=n_f).tolist(), reverse=True)
        best = -np.inf
        lo = 0 if n_o else 1
        for k in range(lo, n_f + 1):
            avg = (base.sum() + sum(scores[:k])) / (n_o + k)
            best = max(best, avg)
        k_star, avg = greedy_uniform_support(float(base.sum()), n_o,
                                             list(range(n_f)), scores)
        assert avg == pytest.approx(best, abs=1e-12)
        # minimality: the greedy stops at the smallest support attaining the best
        attaining = [k for k in range(lo, n_f + 1)
                     if (base.sum() + sum(scores[:k])) / (n_o + k) >= best - 1e-12]
        assert k_star == attaining[0]


def test_linear_maximize_discrete_matches_enumeration():
    rng = np.random.default_rng(12)
    for _ in range(120):
        n = int(rng.integers(2, 7))
        obl, fac = random_split(rng, n)
        hang = random_hang(rng, n)
        w = rng.normal(size=n)
        action_set = DiscreteUniform(obl, fac, hang, n)
        res = linear_maximize(action_set, w)
        values = [float(row @ w) for _, row in
                  enumerate_discrete_actions(obl, fac, hang)]
        assert res.value == pytest.approx(max(values), abs=1e-12)
        assert res.row @ w == pytest.approx(res.value, abs=1e-12)


def test_linear_maximize_no_link_needs_strict_win():
    hang = np.array([1.0, 0.0])
    action_set = DiscreteUniform((), (1,), hang, 2)
    # tie: the fallback and the single link both pay 4, links win ties
    res = linear_maximize(action_set, np.array([4.0, 4.0]))
    assert res.support == (1,)
    assert res.value == pytest.approx(4.0)
    # strict improvement: the fallback pays more than any link
    res = linear_maximize(action_set, np.array([5.0, 4.0]))
    assert res.support is None
    assert res.value == pytest.approx(5.0)


def test_box_maximize_matches_lp():
    rng = np.random.default_rng(14)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        q = rng.random(n)
        q /= q.sum()
        mu = float(rng.uniform(0.2, 0.9))
        lower = (1.0 - mu) * q
        if rng.random() < 0.5:
            upper = np.ones(n)
        else:
            upper = np.minimum(lower + rng.uniform(0.05, 1.0, size=n), 1.0)
            if upper.sum() < 1.0 + 1e-9:
                continue
        w = rng.normal(size=n)
        res = linear_maximize(BoxSimplex(lower, upper), w)
        x, value = solve_dense_lp(
            w, np.ones((1, n)), np.ones(1),
            np.vstack([np.eye(n), -np.eye(n)]),
            np.concatenate([upper, -lower]), maximize=True)
        assert res.value == pytest.approx(value, abs=1e-9)
        assert abs(res.row.sum() - 1.0) < 1e-12
        assert np.all(res.row >= lower - 1e-12)
        assert np.all(res.row <= upper + 1e-12)


def test_box_infeasible_bounds_raise():
    with pytest.raises(Infeasible):
        linear_maximize(BoxSimplex(np.array([0.7, 0.7]), np.ones(2)),
                        np.array([1.0, 0.0]))
    with pytest.raises(Infeasible):
        linear_maximize(BoxSimplex(np.zeros(2), np.array([0.3, 0.3])),
                        np.array([1.0, 0.0]))


def test_facets_box_membership():
    lower = np.array([0.1, 0.2, 0.0])
    upper = np.array([1.0, 0.5, 0.4])
    system = facets_box(lower, upper)
    assert not separate(system, np.array([0.4, 0.3, 0.3])).violated
    assert separate(system, np.array([0.05, 0.55, 0.4])).violated
    assert separate(system, np.array([0.3, 0.3, 0.3])).violated  # mass 0.9


def test_box_membership_matches_elementwise_check():
    # separate() on the box agrees with lo <= row <= up, sum(row) = 1,
    # for rows inside, on the boundary and outside, with capped (banned)
    # coordinates
    rng = np.random.default_rng(15)
    tol = 1e-9
    seen = {True: 0, False: 0}
    for _ in range(80):
        n = int(rng.integers(2, 9))
        q = rng.random(n) * (rng.random(n) < 0.7)
        q[int(rng.integers(n))] += 0.1
        q /= q.sum()
        lower = (1.0 - float(rng.uniform(0.2, 0.9))) * q
        upper = np.ones(n)
        banned = rng.choice(n, size=int(rng.integers(0, n)), replace=False)
        upper[banned] = lower[banned]
        system = facets_box(lower, upper)

        inside = random_box_row(rng, lower, upper)
        vertex = linear_maximize(BoxSimplex(lower, upper), rng.normal(size=n)).row
        rows = [inside, vertex, lower, np.eye(n)[int(rng.integers(n))]]
        e = rng.random(n)
        rows.append(e / e.sum())
        free = np.flatnonzero(upper > lower)
        for j in banned[:1]:  # push a capped coordinate over its cap
            rows.append(inside + 1e-6 * (np.eye(n)[j] - np.eye(n)[free[0]]))
        at_floor = np.flatnonzero(np.isclose(vertex, lower, rtol=0.0, atol=1e-15))
        if at_floor.size:  # push a coordinate below its floor
            j = at_floor[0]
            rows.append(vertex + 1e-6 * (np.eye(n)[free[0]] - np.eye(n)[j]))
        rows.append(inside * (1.0 + 1e-6))
        for row in rows:
            want = bool(np.all(row >= lower - tol) and np.all(row <= upper + tol)
                        and abs(row.sum() - 1.0) <= tol)
            assert (not separate(system, row, tol=tol).violated) == want
            seen[want] += 1
    assert min(seen.values()) > 50, seen
