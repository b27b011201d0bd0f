"""Facet tables against the sparse-row facet systems they replaced.

The reference below is the earlier construction, kept verbatim in
substance: every record as general sparse rows (``_ref_system``), built
one page at a time, and separated row by row.  The tables must give the
same verdict and the bit-identical worst magnitude on every page.
"""

import numpy as np

from helpers import random_box_row, weight_box
from pro.graph import instance_facets, load_instance
from pro.oracle import enumerate_discrete_actions
from pro.polytopes import FacetSystem, separate
from pro.sparse import RowSparse

EQ, LE, GE = 0, 1, -1


def _ref_system(n, col, rel, rhs, anchor=0, pair=None, pair_coef=-1.0):
    """Rows ``x[col[k]] + pair_coef * x[anchor]  rel[k]  rhs[k]``, plus
    the simplex equation, as ``(coef, rel, rhs)``."""
    m = col.size
    if pair is None:
        pair = np.zeros(m, dtype=bool)
    indptr = np.zeros(m + 2, dtype=np.int64)
    np.cumsum(1 + pair, out=indptr[1:m + 1])
    indptr[m + 1] = indptr[m] + n
    indices = np.empty(indptr[-1], dtype=np.int64)
    data = np.ones(indptr[-1])
    first = indptr[:m]
    lead = pair & (anchor < col)  # columns ascend within a row
    indices[first] = np.where(lead, anchor, col)
    data[first] = np.where(lead, pair_coef, 1.0)
    second = first[pair] + 1
    indices[second] = np.where(lead, col, anchor)[pair]
    data[second] = np.where(lead, 1.0, pair_coef)[pair]
    indices[indptr[m]:] = np.arange(n)
    return (RowSparse(m + 1, n, indptr, indices, data),
            np.append(rel, EQ), np.append(rhs, 1.0))


def _ref_discrete(obligatory, facultative, z, n):
    obligatory = np.sort(np.asarray(obligatory, dtype=np.int64))
    facultative = np.sort(np.asarray(facultative, dtype=np.int64))
    member = np.zeros(n, dtype=bool)
    member[obligatory] = True
    member[facultative] = True
    forbidden = np.flatnonzero(~member)
    f = facultative.size
    if obligatory.size:
        anchor = obligatory[0]
        k = forbidden.size + obligatory.size - 1
        col = np.concatenate([forbidden, obligatory[1:], np.repeat(facultative, 2), [anchor]])
        pair = np.zeros(col.size, dtype=bool)
        pair[forbidden.size:k] = True
        pair[k + 1:k + 2 * f:2] = True
        rel = np.concatenate([np.full(k, EQ), np.tile([GE, LE], f), [GE]])
        return _ref_system(n, col, rel, np.zeros(col.size), anchor, pair)
    massed = forbidden[z[forbidden] > 0.0]
    if massed.size:
        anchor = massed[0]
        others = forbidden[forbidden != anchor]
        col = np.concatenate([others, facultative, [anchor]])
        pair = np.arange(col.size) < col.size - 1
        rel = np.concatenate([np.full(others.size, EQ), np.full(f, GE), [GE]])
        ratio = 1.0 / float(z[anchor])
        return _ref_system(n, col, rel, np.zeros(col.size), anchor, pair, -z[col] * ratio)
    col = np.concatenate([forbidden, facultative])
    rel = np.concatenate([np.full(forbidden.size, EQ), np.full(f, GE)])
    return _ref_system(n, col, rel, np.zeros(col.size))


def _ref_box(lower, upper):
    n = lower.size
    capped = upper < 1.0
    col = np.repeat(np.arange(n), 1 + capped)
    second = np.flatnonzero(capped) + np.cumsum(capped)[capped]
    rel = np.full(col.size, GE)
    rel[second] = LE
    rhs = lower[col]
    rhs[second] = upper[capped]
    return _ref_system(n, col, rel, rhs)


def _ref_magnitude(system, x, mass):
    coef, rel, rhs = system
    gap = coef.rightmul(x) - rhs * mass
    viol = np.where(rel == EQ, np.abs(gap), np.maximum(rel * gap, 0.0))
    return float(viol.max())


def _mixed_doc(rng):
    """Discrete pages of all three shapes next to weight pages with bans.

    The dangling teleport sits on one or two pages, so a page without
    obligatory links is an apex page unless its facultative links cover
    that support; now and then a weight page bans every target at
    ``mu = 0``.
    """
    n = int(rng.integers(2, 10))
    hang = np.zeros(n)
    support = rng.choice(n, size=min(n, int(rng.integers(1, 3))), replace=False)
    hang[support] = rng.random(support.size) + 0.1
    hang /= hang.sum()
    obligatory, facultative, skeleton = [], [], []
    for i in range(n):
        if rng.random() < 0.3:
            q = rng.random(n) * (rng.random(n) < 0.6)
            q[int(rng.integers(n))] += 0.1
            if rng.random() < 0.15:
                mu, banned = 0.0, list(range(n))
            else:
                mu = float(rng.uniform(0.0, 0.9))
                banned = rng.choice(n, size=int(rng.integers(0, n)), replace=False).tolist()
            skeleton.append({"page": i, "q": (q / q.sum()).tolist(), "mu": mu,
                             "banned": banned})
            continue
        perm = rng.permutation(n).tolist()
        n_o = int(rng.integers(0, 3))
        if n_o == 0 and rng.random() < 0.4:  # cover the fallback: a plain simplex
            perm = support.tolist() + [j for j in perm if j not in support]
            n_f = int(rng.integers(support.size, n + 1))
        else:
            n_f = int(rng.integers(0, min(5, n - n_o) + 1))
        obligatory += [[i, j] for j in perm[:n_o]]
        facultative += [[i, j] for j in perm[n_o:n_o + n_f]]
    return {"num_pages": n, "damping": float(rng.uniform(0.3, 0.95)),
            "teleport": "uniform", "dangling_teleport": hang.tolist(),
            "obligatory": obligatory, "facultative": facultative,
            "rewards": {"type": "per_page", "values": [0.0] * n}, "skeleton": skeleton}


def _points(rng, inst, page):
    """Hull points of a page (its actions, a mixture of them, or box
    rows), then the same pushed off by small and large moves, and random
    rows, normalized and not."""
    n = inst.num_pages
    if page in inst.skeletons.pages:
        lower, upper = weight_box(inst.skeletons, page)
        hull = [random_box_row(rng, lower, upper) for _ in range(3)] + [lower]
    else:
        hull = [row for _, row in enumerate_discrete_actions(
            inst.obligatory_of(page), inst.facultative_of(page), inst.dangling_teleport)]
        w = rng.random(len(hull))
        hull.append(w / w.sum() @ np.array(hull))
    out = list(hull)
    for x in hull[:4]:
        for scale in (1e-12, 1e-6, 0.3):
            e = rng.normal(size=n) * scale
            out += [x + e, x + e - e.mean()]
    e = rng.random(n)
    out += [e, e / e.sum(), rng.normal(size=n)]
    return out


def test_tables_match_the_sparse_rows():
    rng = np.random.default_rng(1515)
    shapes = dict.fromkeys(("anchored", "apex", "plain", "box", "all banned"), 0)
    verdicts = {True: 0, False: 0}
    for _ in range(200):
        inst = load_instance(_mixed_doc(rng))
        n = inst.num_pages
        z = inst.dangling_teleport
        full = instance_facets(inst, np.arange(n))
        for page in range(n):
            if page in inst.skeletons.pages:
                lower, upper = weight_box(inst.skeletons, page)
                ref = _ref_box(lower, upper)
                shapes["all banned" if np.all(upper < 1.0) else "box"] += 1
            else:
                obl, fac = inst.obligatory_of(page), inst.facultative_of(page)
                ref = _ref_discrete(obl, fac, z, n)
                off = np.setdiff1d(np.arange(n), np.union1d(obl, fac))
                shapes["anchored" if obl.size else
                       "apex" if np.any(z[off] > 0.0) else "plain"] += 1
            one = FacetSystem(*(np.asarray(getattr(full, f))[page:page + 1] for f in
                                ("anchor", "lo_a", "lo", "hi_a", "hi")))
            for x in _points(rng, inst, page):
                mass = float(rng.uniform(0.01, 2.0)) if rng.random() < 0.5 else 1.0
                want = _ref_magnitude(ref, x, mass)
                got = separate(one, x, tol=1e-9, mass=mass)
                assert got.magnitude == want, (page, x, mass)
                assert got.violated == (want > 1e-9)
                verdicts[got.violated] += 1
        pages = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        some = instance_facets(inst, pages)
        for f in ("anchor", "lo_a", "lo", "hi_a", "hi"):
            assert np.array_equal(getattr(some, f), getattr(full, f)[pages])
    assert min(shapes.values()) >= 20, shapes
    assert min(verdicts.values()) >= 1000, verdicts
