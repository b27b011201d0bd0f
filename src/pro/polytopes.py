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

Every facet record bounds one coordinate, by a constant or relative to
one anchor coordinate, so a facet system is a set of per-coordinate bound
tables with one row per page (``FacetSystem``): one array build serves
any set of pages and ``separate`` checks them all at once.  The tables
live in outlink space, on rows of S; a caller holding a chain row ``P[i]
= damping * S[i] + (1 - damping) * teleport`` checks its outlink part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import Infeasible
from .sparse import segment_sums

SEPARATION_TOL = 1e-12


@dataclass(frozen=True)
class FacetSystem:
    """Facet records of the action sets of k pages, plus the simplex equation.

    ``anchor`` has one entry per page, the tables ``lo_a``, ``lo``,
    ``hi_a`` and ``hi`` are (k, num_pages).  Coordinate j of page p is
    one record, ``lo_a x[a] + lo <= x[j] <= hi_a x[a] + hi`` with ``a =
    anchor[p]``; it is an equation where ``lo_a == hi_a`` and ``lo ==
    hi``, and has no upper side where ``hi`` is infinite.  The simplex
    equation is the last record, so a page has ``num_pages + 1``.
    """

    anchor: np.ndarray
    lo_a: np.ndarray
    lo: np.ndarray
    hi_a: np.ndarray
    hi: np.ndarray

    @property
    def num_pages(self):
        return self.lo.shape[1]

    def describe(self, page, r, mass=1.0):
        """Side ``r`` of a record of row ``page`` as text, coordinates
        ascending, e.g. ``-x[0] + x[2] <= 0``: ``r < n`` is the lower side
        of coordinate r, ``n <= r < 2n`` the upper side of coordinate
        ``r - n`` (an equation reads the same from both), ``r == 2n`` the
        simplex equation.  The right-hand side is lifted by ``mass``."""
        n = self.num_pages
        if r == 2 * n:
            return " + ".join(f"x[{i}]" for i in range(n)) + f" = {mass:g}"
        j = r % n
        eq = self.lo_a[page, j] == self.hi_a[page, j] and self.lo[page, j] == self.hi[page, j]
        coef, rhs = (self.hi_a, self.hi) if r >= n and not eq else (self.lo_a, self.lo)
        terms, a = {j: 1.0}, int(self.anchor[page])
        if coef[page, j] and a != j:
            terms[a] = -coef[page, j]
        lhs = " + ".join(f"x[{i}]" if c == 1.0 else f"-x[{i}]" if c == -1.0 else f"{c:g}*x[{i}]"
                         for i, c in sorted(terms.items()))
        rel = "=" if eq else "<=" if r >= n else ">="
        return f"{lhs.replace('+ -', '- ')} {rel} {rhs[page, j] * mass:g}"


@dataclass(frozen=True)
class SeparationResult:
    """``page`` is the row of the worst violation, ``-1`` when none is violated."""

    violated: bool
    magnitude: float
    description: str = "inside"
    page: int = -1


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


def facet_tables(obligatory, facultative, dangling_teleport, box, lower, upper):
    """Facet system of k pages' action sets, built for all of them at once.

    Parameters
    ----------
    obligatory, facultative : ndarray of bool, shape (k, num_pages)
        Each discrete page's link partition; everything else is forbidden.
    dangling_teleport : ndarray
        Fallback row used when no link is kept.
    box : ndarray of bool, shape (k,)
        The box-with-simplex pages, whose rows ``lower`` and ``upper``
        (k, num_pages) bound each coordinate; a cap of 1 is no cap.

    Returns
    -------
    FacetSystem

    Notes
    -----
    Three discrete shapes arise.  With an obligatory anchor the hull is a
    product of segments ``0 <= x[j] <= x[anchor]`` over facultative
    coordinates, with ``x[j] = x[anchor]`` on the other obligatory ones.
    Without obligatory links the no-link row joins the hull: if the
    fallback puts mass on some forbidden coordinate the hull is a simplex
    with the fallback row as apex, ``x[j] = z[j]/z[anchor] x[anchor]``
    off the links and ``>=`` on them, otherwise it is the plain
    probability simplex on the facultative coordinates.  Forbidden
    coordinates are 0 in all but the apex shape, and the anchor is only
    held at 0 from below.
    """
    k, n = obligatory.shape
    z = dangling_teleport
    b = box[:, None]
    # a box page is a plain simplex on every target, then floored and capped
    linked = obligatory | facultative | b
    massed = ~linked & (z > 0.0)
    anchored = obligatory.any(axis=1)
    apex = ~anchored & massed.any(axis=1)
    anchor = np.where(anchored, obligatory.argmax(axis=1), massed.argmax(axis=1))
    # an apex page's ratios z[j] / z[anchor], rounded as z[j] * (1 / z[anchor]);
    # 0 on the other pages
    ratio = np.divide(1.0, z[anchor], out=np.zeros(k), where=apex)[:, None] * z
    on = anchored[:, None]
    lo_a = np.where(on, obligatory, ratio)
    hi_a = np.where(on, linked, np.where(linked, 0.0, ratio))
    hi = np.where(on | ~linked, 0.0, np.inf)
    held = np.flatnonzero(anchored | apex)
    lo_a[held, anchor[held]] = hi_a[held, anchor[held]] = 0.0
    hi[held, anchor[held]] = np.inf
    return FacetSystem(anchor, lo_a, np.where(b, lower, 0.0), hi_a,
                       np.where(b & (upper < 1.0), upper, hi))


def facets_discrete(obligatory, facultative, dangling_teleport, num_pages):
    """Facet system of the convex hull of one discrete page's actions.

    ``obligatory`` and ``facultative`` are the page's link partition,
    ``dangling_teleport`` the fallback row used when no link is kept; the
    one-page call of ``facet_tables``, with exactly ``num_pages + 1``
    records.
    """
    links = np.zeros((2, 1, num_pages), dtype=bool)
    links[0, 0, np.asarray(obligatory, dtype=np.int64)] = True
    links[1, 0, np.asarray(facultative, dtype=np.int64)] = True
    return facet_tables(links[0], links[1], dangling_teleport, np.zeros(1, dtype=bool),
                        np.zeros((1, num_pages)), np.ones((1, num_pages)))


def facets_box(lower, upper):
    """Facet system of a box-with-simplex set, in outlink space:
    ``x[j] >= lower[j]``, and ``x[j] <= upper[j]`` where that cap is
    below 1; the one-page call of ``facet_tables``."""
    none = np.zeros((1, lower.size), dtype=bool)
    return facet_tables(none, none, np.zeros(lower.size), np.ones(1, dtype=bool),
                        lower[None, :], upper[None, :])


def separate(system, x, tol=SEPARATION_TOL, mass=1.0):
    """Check each row of ``x`` (a 1-d ``x`` is one row) against its page's
    records in ``system``, their constants lifted by the row's ``mass``.

    Returns
    -------
    SeparationResult
        ``violated`` is False when every record holds within ``tol``;
        otherwise ``magnitude`` is the largest violation, ``page`` its
        row and ``description`` the first record side attaining it: rows
        in order, in each the lower sides, the upper sides, the simplex
        equation.
    """
    x = np.atleast_2d(x)
    k, n = x.shape
    m = np.broadcast_to(np.asarray(mass, dtype=float), (k,))[:, None]
    xa = x[np.arange(k), system.anchor][:, None]
    capped = np.isfinite(system.hi)
    viol = np.zeros((k, 2 * n + 1))
    viol[:, :n] = system.lo_a * xa + system.lo * m - x
    np.subtract(x - system.hi_a * xa, np.where(capped, system.hi, 0.0) * m,
                out=viol[:, n:2 * n], where=capped)
    # each row summed in index order, as a sparse row product sums
    viol[:, 2 * n] = np.abs(np.add.reduceat(x.ravel(), np.arange(0, k * n, n)) - m[:, 0])
    np.maximum(viol, 0.0, out=viol)
    page, r = divmod(int(np.argmax(viol)), 2 * n + 1)
    worst = float(viol[page, r])
    if worst <= tol:
        return SeparationResult(False, worst)
    return SeparationResult(True, worst, system.describe(page, r, m[page, 0]), page)


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
