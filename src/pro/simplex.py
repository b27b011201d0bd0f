"""Dense two-phase tableau simplex.

Small and deterministic: Dantzig pricing with the lexicographic ratio
test (Dantzig, Orden and Wolfe, 1955), and a basic (vertex) solution is
always returned.  The ratio test breaks ties at the minimum ratio by the
rows of ``B^-1`` relative to the basis each phase starts from, so no
basis repeats in exact arithmetic; in floating point, entries that
differ by less than ``_PIVOT_TOL`` count as equal.  A caller that knows
a feasible basis passes it, and phase 1 is skipped.  The programs here
have tens of rows (about 150 for a 100-page web), so a dense tableau,
updated whole at each pivot, handles them comfortably.
"""

from __future__ import annotations

import numpy as np

from .errors import Infeasible, ProError, Unbounded

_PIVOT_TOL = 1e-9


def _pivot(tableau, obj, basis, row, col):
    # one rank-one update of the whole tableau: a row whose factor is zero
    # gets x - 0*y, the same values (a zero may change sign), and at tens
    # of rows that is cheaper than picking out the rows a pivot changes
    tableau[row] /= tableau[row, col]
    factor = tableau[:, col].copy()
    factor[row] = 0.0
    tableau -= factor[:, None] * tableau[row]
    obj -= obj[col] * tableau[row]
    basis[row] = col


def _run(tableau, obj, basis, allowed, max_pivots):
    """Pivot until optimal; returns 'optimal' or 'unbounded'.

    The right-hand side and the columns of the basis the run starts from
    hold ``(rhs, B^-1)`` relative to that basis; every row starts
    lexicographically positive, as ``(rhs_i, e_i)`` with ``rhs_i >= 0``.
    """
    lex = np.append(tableau.shape[1] - 1, basis)
    ratios = np.empty(tableau.shape[0])
    for _ in range(max_pivots):
        masked = np.where(allowed, obj[:-1], 0.0)
        col = int(masked.argmin())
        if masked[col] >= -_PIVOT_TOL:
            return "optimal"
        colvals = tableau[:, col]
        pos = colvals > _PIVOT_TOL
        if not pos.any():
            return "unbounded"
        ratios.fill(np.inf)
        np.divide(tableau[:, -1], colvals, out=ratios, where=pos)
        ties = (ratios <= ratios.min() + 1e-12).nonzero()[0]
        row = int(ties[0])
        if ties.size > 1:
            # the lexicographically least (rhs, B^-1 row) / pivot, on a
            # _PIVOT_TOL grid; lexsort is stable and led by its last key
            keys = np.round(tableau[ties[:, None], lex] / (colvals[ties, None] * _PIVOT_TOL))
            row = int(ties[np.lexsort(keys[:, ::-1].T)[0]])
        _pivot(tableau, obj, basis, row, col)
    raise ProError("simplex pivot limit reached")


def solve_dense_lp(objective, a_eq=None, b_eq=None, a_ub=None, b_ub=None,
                   maximize=False, max_pivots=None, start=None):
    """Solve a dense linear program; returns ``(x, value)``.

    Parameters
    ----------
    objective : ndarray
    a_eq, b_eq : equality rows ``a_eq @ x == b_eq``
    a_ub, b_ub : inequality rows ``a_ub @ x <= b_ub``
    maximize : bool
        Sense of the objective; the returned value follows it.
    start : ndarray of int, optional
        A basis, one column per row: ``j`` for ``x_j``, ``nx + i`` for the
        slack of inequality row i, ``nx + m_ub + r`` for the artificial of
        equality row r.  Phase 2 starts there when every basic value is
        at least -1e-12 (then clipped to 0) and every artificial at most
        1e-12; a singular or infeasible start runs phase 1 as without one.

    Raises
    ------
    Infeasible, Unbounded
    """
    c_in = np.asarray(objective, dtype=float)
    nvars = c_in.size
    a_eq = np.zeros((0, nvars)) if a_eq is None else np.asarray(a_eq, dtype=float)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    a_ub = np.zeros((0, nvars)) if a_ub is None else np.asarray(a_ub, dtype=float)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float)
    m_eq, m_ub = a_eq.shape[0], a_ub.shape[0]
    m = m_eq + m_ub
    nslack = m_ub
    nart = m  # worst case; unused artificial columns stay out of the basis
    ntot = nvars + nslack + nart

    tableau = np.zeros((m, ntot + 1))
    tableau[:m_eq, :nvars] = a_eq
    tableau[:m_eq, -1] = b_eq
    tableau[m_eq:, :nvars] = a_ub
    tableau[m_eq:, -1] = b_ub
    tableau[m_eq + np.arange(m_ub), nvars + np.arange(m_ub)] = 1.0
    neg = tableau[:, -1] < 0.0
    tableau[neg] *= -1.0

    # a row starts on its slack unless negated, on its artificial otherwise
    rows = np.arange(m)
    basis = nvars + nslack + rows
    on_slack = (rows >= m_eq) & ~neg
    basis[on_slack] = nvars + rows[on_slack] - m_eq
    tableau[rows[~on_slack], basis[~on_slack]] = 1.0

    if max_pivots is None:
        max_pivots = 5000 + 20 * (m + ntot)

    art_start = nvars + nslack
    try:  # the tableau relative to the start
        warm = None if start is None else np.linalg.solve(tableau[:, start], tableau)
    except np.linalg.LinAlgError:
        warm = None
    if (warm is not None and warm[:, -1].min() >= -1e-12
            and warm[start >= art_start, -1].max(initial=0.0) <= 1e-12):
        tableau, basis = warm, start.copy()
        tableau[:, basis] = np.eye(m)  # exactly, as pivots leave them
        np.maximum(tableau[:, -1], 0.0, out=tableau[:, -1])
    else:
        # phase 1: price the artificial columns only
        c1 = np.zeros(ntot + 1)
        c1[art_start:ntot] = 1.0
        obj = c1.copy()
        for i in range(m):
            if c1[basis[i]] != 0.0:
                obj -= c1[basis[i]] * tableau[i]
        status = _run(tableau, obj, basis, np.ones(ntot, dtype=bool), max_pivots)
        if status != "optimal" or -obj[-1] > 1e-7:
            raise Infeasible("no feasible point satisfies the constraints")

        # drive basic artificials out where a structural pivot exists
        for i in range(m):
            if basis[i] >= art_start:
                cols = np.flatnonzero(np.abs(tableau[i, :art_start]) > _PIVOT_TOL)
                if cols.size:
                    _pivot(tableau, obj, basis, i, int(cols[0]))

    # phase 2 with the real objective; artificial columns stay shut out
    c2 = np.zeros(ntot + 1)
    c2[:nvars] = -c_in if maximize else c_in
    obj = c2.copy()
    for i in range(m):
        if c2[basis[i]] != 0.0:
            obj -= c2[basis[i]] * tableau[i]
    allowed = np.ones(ntot, dtype=bool)
    allowed[art_start:] = False
    status = _run(tableau, obj, basis, allowed, max_pivots)
    if status == "unbounded":
        raise Unbounded("objective is unbounded over the feasible set")

    x = np.zeros(ntot)
    x[basis] = np.maximum(tableau[:, -1], 0.0)
    value = float(np.dot(c_in, x[:nvars]))
    return x[:nvars].copy(), value
