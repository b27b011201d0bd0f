"""Per-page action sets, their facet systems, and linear maximization.

A discrete page's admissible outlink rows are the uniform distributions on
obligatory-plus-activated link sets (plus the no-link fallback row when
nothing is obligatory).  Their convex hull has a closed-form facet system
with one record per coordinate plus the simplex equation, regardless of
how many subsets the hull covers.  Skeleton pages use a box-with-simplex
set instead.  Both sets admit an exact linear maximizer: a sort-and-grow
greedy for the uniform family, water filling for the box.  Both are the
sequential references for the vectorized sweep of
``solver_local.CompiledBellman``.

A facet system is a set of arrays: a ``RowSparse`` of coefficients with
one row per linear relation, and per row its relation, right-hand side
and facet record.  It lives in outlink space, on rows of S; a caller
holding a chain row ``P[i] = damping * S[i] + (1 - damping) * teleport``
checks its outlink part.  ``separate`` checks a row against every
relation at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import Infeasible
from .sparse import RowSparse, segment_sums

SEPARATION_TOL = 1e-12

# relation codes: row k reads ``rel[k] * (coef[k] . x - rhs[k]) <= 0`` for
# the inequalities and ``coef[k] . x == rhs[k]`` for EQ
EQ, LE, GE = 0, 1, -1
_REL_TEXT = {EQ: "=", LE: "<=", GE: ">="}


@dataclass(frozen=True)
class FacetSystem:
    """Facet records of one page's action set, plus the simplex equation.

    Row k is the relation ``coef[k] . x  rel[k]  rhs[k]``, with ``rel``
    one of ``EQ``, ``LE``, ``GE``; ``record[k]`` numbers its facet
    record, so the two sides of a bound share one record.  The last row
    is the simplex equation, a record of its own; every other row touches
    at most two coordinates.
    """

    coef: RowSparse
    rel: np.ndarray
    rhs: np.ndarray
    record: np.ndarray

    @property
    def num_pages(self):
        return self.coef.num_cols

    @property
    def constraint_count(self):
        return int(self.record[-1]) + 1

    def describe(self, k):
        """Row ``k`` as text, coordinates ascending, e.g. ``-x[0] + x[2] <= 0``."""
        terms = []
        for i, c in zip(*self.coef.row_slice(k)):
            if c == 1.0:
                terms.append(f"x[{i}]")
            elif c == -1.0:
                terms.append(f"-x[{i}]")
            else:
                terms.append(f"{c:g}*x[{i}]")
        lhs = " + ".join(terms).replace("+ -", "- ") if terms else "0"
        return f"{lhs} {_REL_TEXT[int(self.rel[k])]} {self.rhs[k]:g}"


@dataclass(frozen=True)
class SeparationResult:
    """``row`` is the index of the worst row, ``-1`` when none is violated."""

    violated: bool
    magnitude: float
    description: str = "inside"
    row: int = -1


@dataclass(frozen=True)
class DiscreteUniform:
    """Uniform rows on obligatory-plus-activated supports.

    When ``obligatory`` is empty the no-link row (the dangling teleport
    vector) is an admissible action as well.
    """

    obligatory: tuple
    facultative: tuple
    no_link_row: np.ndarray
    num_pages: int


@dataclass(frozen=True)
class BoxSimplex:
    """Rows with per-coordinate bounds and unit total mass."""

    lower: np.ndarray
    upper: np.ndarray


@dataclass(frozen=True)
class MaximizeResult:
    """Maximizer of a linear objective over one action set.

    ``support`` is the obligatory-plus-activated set for a uniform row
    and ``None`` for the no-link row or a box row.
    """

    value: float
    row: np.ndarray
    support: Optional[tuple]


def _system(n, col, rel, rhs, record, anchor=0, pair=None, pair_coef=-1.0):
    """Rows ``x[col[k]] + pair_coef * x[anchor]  rel[k]  rhs[k]``.

    The anchor term is present only where ``pair`` is set; ``pair_coef``
    is one number or one per row.  The simplex equation is appended as
    the last row and record.
    """
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
    return FacetSystem(RowSparse(m + 1, n, indptr, indices, data),
                       np.append(rel, EQ), np.append(rhs, 1.0),
                       np.append(record, record[-1] + 1))


def facets_discrete(obligatory, facultative, dangling_teleport, num_pages):
    """Facet system of the convex hull of a discrete page's actions.

    Parameters
    ----------
    obligatory, facultative : sequences of int
        The page's link partition; everything else is forbidden.
    dangling_teleport : ndarray
        Fallback row used when no link is kept.
    num_pages : int

    Returns
    -------
    FacetSystem
        Outlink-space system with exactly ``num_pages + 1`` records.

    Notes
    -----
    Three shapes arise.  With an obligatory anchor the hull is a product
    of segments ``0 <= x[j] <= x[anchor]`` over facultative coordinates.
    Without obligatory links the no-link row joins the hull: if the
    fallback puts mass on some forbidden coordinate the hull is a simplex
    with the fallback row as apex, otherwise it is the plain probability
    simplex on the facultative coordinates.
    """
    n = num_pages
    obligatory = np.sort(np.asarray(obligatory, dtype=np.int64))
    facultative = np.sort(np.asarray(facultative, dtype=np.int64))
    member = np.zeros(n, dtype=bool)
    member[obligatory] = True
    member[facultative] = True
    forbidden = np.flatnonzero(~member)
    f = facultative.size

    if obligatory.size:
        # x[j] = 0 off the links, x[j] = x[anchor] on the obligatory ones,
        # 0 <= x[j] <= x[anchor] on the facultative ones, x[anchor] >= 0
        anchor = obligatory[0]
        k = forbidden.size + obligatory.size - 1
        col = np.concatenate([forbidden, obligatory[1:],
                              np.repeat(facultative, 2), [anchor]])
        pair = np.zeros(col.size, dtype=bool)
        pair[forbidden.size:k] = True
        pair[k + 1:k + 2 * f:2] = True
        rel = np.concatenate([np.full(k, EQ), np.tile([GE, LE], f), [GE]])
        record = np.concatenate([np.arange(k), k + np.repeat(np.arange(f), 2),
                                 [k + f]])
        return _system(n, col, rel, np.zeros(col.size), record, anchor, pair)

    z = dangling_teleport
    massed = forbidden[z[forbidden] > 0.0]
    if massed.size:
        # the fallback row is the apex: x[j] = z[j]/z[anchor] * x[anchor]
        # off the links, >= on the facultative ones, x[anchor] >= 0
        anchor = massed[0]
        others = forbidden[forbidden != anchor]
        col = np.concatenate([others, facultative, [anchor]])
        pair = np.arange(col.size) < col.size - 1
        rel = np.concatenate([np.full(others.size, EQ), np.full(f, GE), [GE]])
        ratio = 1.0 / float(z[anchor])
        return _system(n, col, rel, np.zeros(col.size), np.arange(col.size),
                       anchor, pair, -z[col] * ratio)

    col = np.concatenate([forbidden, facultative])
    rel = np.concatenate([np.full(forbidden.size, EQ), np.full(f, GE)])
    return _system(n, col, rel, np.zeros(col.size), np.arange(col.size))


def facets_box(lower, upper):
    """Facet system of a box-with-simplex set, in outlink space.

    Coordinate j is record j: ``x[j] >= lower[j]``, followed by
    ``x[j] <= upper[j]`` where that cap is below 1.
    """
    n = lower.size
    capped = upper < 1.0
    col = np.repeat(np.arange(n), 1 + capped)
    second = np.flatnonzero(capped) + np.cumsum(capped)[capped]
    rel = np.full(col.size, GE)
    rel[second] = LE
    rhs = lower[col]
    rhs[second] = upper[capped]
    return _system(n, col, rel, rhs, col)


def stack_systems(systems):
    """One facet system holding the rows of ``systems`` in order.

    All systems must share the column count; each keeps its own record
    numbers.
    """
    nnz = np.cumsum([0] + [s.coef.nnz for s in systems[:-1]])
    coef = RowSparse(sum(s.coef.num_rows for s in systems), systems[0].num_pages,
                     np.concatenate([[0]] + [s.coef.indptr[1:] + k
                                             for s, k in zip(systems, nnz)]),
                     np.concatenate([s.coef.indices for s in systems]),
                     np.concatenate([s.coef.data for s in systems]))
    return FacetSystem(coef, *(np.concatenate([getattr(s, f) for s in systems])
                               for f in ("rel", "rhs", "record")))


def separate(system, x, tol=SEPARATION_TOL):
    """Check membership of ``x``; report the most violated constraint.

    Returns
    -------
    SeparationResult
        ``violated`` is False when every row holds within ``tol``;
        otherwise ``magnitude`` is the largest violation and
        ``description`` the first row attaining it.
    """
    gap = system.coef.rightmul(x) - system.rhs
    viol = np.where(system.rel == EQ, np.abs(gap), np.maximum(system.rel * gap, 0.0))
    k = int(np.argmax(viol))
    worst = float(viol[k])
    if worst <= tol:
        return SeparationResult(False, worst)
    return SeparationResult(True, worst, system.describe(k), k)


def greedy_uniform_support(base_sum, base_count, candidates, scores):
    """Grow a uniform-average support while the next score beats the mean.

    ``candidates`` must be sorted by descending score.  The strict
    comparison leaves equal-valued candidates out, so the returned
    support is the smallest one attaining the best average.
    Returns ``(picked_count, average)``.
    """
    total, m, k = base_sum, base_count, 0
    if m == 0:
        if not candidates:
            raise ValueError("no obligatory links and no candidates")
        total, m, k = scores[0], 1, 1
    while k < len(candidates) and total / m < scores[k]:
        total += scores[k]
        m += 1
        k += 1
    return k, total / m


def linear_maximize(action_set, objective):
    """Maximize ``row . objective`` over one page's action set.

    Parameters
    ----------
    action_set : DiscreteUniform or BoxSimplex
    objective : ndarray
        Dense score per target page.

    Returns
    -------
    MaximizeResult

    Raises
    ------
    Infeasible
        For a box whose bounds admit no probability row.
    """
    if isinstance(action_set, BoxSimplex):
        return _maximize_box(action_set, objective)
    obligatory = action_set.obligatory
    facultative = action_set.facultative
    n = action_set.num_pages
    cand = sorted(facultative, key=lambda j: (-objective[j], j))
    scores = [float(objective[j]) for j in cand]
    base_sum = float(sum(objective[j] for j in obligatory))

    if not obligatory and not facultative:
        z = action_set.no_link_row
        return MaximizeResult(float(np.dot(z, objective)), np.asarray(z, dtype=float), None)

    if obligatory:
        k, avg = greedy_uniform_support(base_sum, len(obligatory), cand, scores)
    else:
        k, avg = greedy_uniform_support(0.0, 0, cand, scores)
        z = action_set.no_link_row
        no_link = float(np.dot(z, objective))
        if no_link > avg:
            return MaximizeResult(no_link, np.asarray(z, dtype=float), None)

    support = tuple(sorted(set(obligatory) | set(cand[:k])))
    row = np.zeros(n)
    row[list(support)] = 1.0 / len(support)
    return MaximizeResult(avg, row, support)


def _maximize_box(box, objective):
    lower, upper = box.lower, box.upper
    slack = 1.0 - float(lower.sum())
    if slack < -1e-12:
        raise Infeasible("box lower bounds exceed unit mass")
    if float(upper.sum()) < 1.0 - 1e-12:
        raise Infeasible("box upper bounds cannot reach unit mass")
    x = lower.astype(np.float64).copy()
    # the value sums the floor's nonzero terms in index order, then adds
    # each lift, as the sweep of ``solver_local.CompiledBellman`` does
    nz = np.flatnonzero(x)
    value = float(segment_sums(x[nz] * objective[nz], np.array([0, nz.size]))[0])
    if slack > 0.0:
        order = np.lexsort((np.arange(objective.size), -objective))
        for j in order:
            room = float(upper[j] - lower[j])
            if room <= 0.0:
                continue
            take = min(room, slack)
            x[j] += take
            value += take * float(objective[j])
            slack -= take
            if slack <= 1e-15:
                break
    return MaximizeResult(value, x, None)
