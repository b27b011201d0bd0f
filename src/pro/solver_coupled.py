"""Income maximization under graph-wide budget rows, by two routes.

The dual route is column generation.  Each local solve with the budget
rows priced into the rewards (``dual_value``) gives a policy with exact
income ``U`` and spending ``C``: a cut ``theta(lam) >= U + lam . (b -
C)`` of the dual and a column of the master ``max sum mu_t U_t``, ``sum
mu_t C_t <= b``, ``sum mu_t = 1``, ``mu >= 0`` (Dantzig and Wolfe,
1960), whose duals minimize the cut model and price the next solve
(Kelley, 1960).  Mixtures of occupation measures are occupation
measures, so the answer is one randomized strategy mixing at most ``K +
1`` deterministic ones (Altman, 1999), re-evaluated on its own chain.

The linear-programming route optimizes over occupation measures
directly (``rho[i, j] = pi[i] P[i, j]``).  Each page gets a block of
columns, one per admissible outlink row of its own (one per link
choice of a discrete page, one per free target of a weight page),
damped and lifted by the page's mass, so a 100-page web with a few
controlled pages stays near 200 columns.  It is exact but dense, so it
is capped by tableau size, and doubles as a cross-check of the dual
route.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .chain import stationary, utility_from_chain
from .errors import Infeasible, ProError, TooLarge, ValidationError
from .polytopes import separate
from .graph import ContinuousChoice, Rewards, Strategy, build_transition, instance_facets
from .simplex import solve_dense_lp
from .solver_local import CompiledBellman, SolverConfig, value_iterate
from .sparse import _sort_coords, add_sparse, find_sorted, ranges, row_ids

FEASIBILITY_TOL = 1e-9
# every local solve of the dual route
INNER = SolverConfig(tol=1e-9)
# cells of the occupation LP's dense tableau: those of 141 weight pages with
# no bans and one budget row, 143 rows by 141 * 141 columns, 1 slack, 143
# artificials and the right-hand side
LP_CELL_CAP = 143 * (141 * 141 + 1 + 143 + 1)
# the master's bases are certified to this share of its largest entry
MASTER_TOL = 1e-12
# pivots of one master solve, a guard against cycling in floating point
MASTER_MAX_PIVOTS = 10_000


@dataclass(frozen=True)
class DualIterate:
    """Everything observed at one multiplier setting.

    ``theta`` never falls below the exact dual objective (see
    ``dual_value``); ``subgradient`` is ``spending - bound``.  The other
    fields describe the chain of the priced-out optimal ``strategy``:
    ``pi`` is its stationary measure, certified to ``STATIONARY_TOL`` in
    L1 by ``stationary`` on the sweep's own blocks (see ``_Run``), and
    the incomes are ``pi . rbar`` per reward scheme.
    """

    multipliers: np.ndarray
    theta: float
    subgradient: np.ndarray
    coupling_values: np.ndarray
    feasible: bool
    primal_value: float
    strategy: Strategy
    pi: np.ndarray
    dp_state: object


@dataclass(frozen=True)
class CoupledConfig:
    """Outer-loop knobs.

    ``tol`` (finite, nonnegative) is the relative gap between the dual
    bound and the master value at which the loop stops; ``max_outer``
    (at least 1) caps the ``dual_value`` calls.  Every local solve runs
    with ``INNER``.
    """

    tol: float = 1e-6
    max_outer: int = 200

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise ValidationError(f"tol must be finite and nonnegative, got {self.tol}")
        if self.max_outer < 1:
            raise ValidationError(f"max_outer must be at least 1, got {self.max_outer}")


@dataclass(frozen=True)
class PrimalCandidate:
    """The master's mixture as one randomized strategy (see ``_mixture``).

    ``pi``, ``utility`` and ``coupling_values`` come from
    ``build_transition`` and ``stationary`` on ``strategy`` itself.
    """

    strategy: Strategy
    pi: np.ndarray
    utility: float
    coupling_values: np.ndarray
    feasible: bool


@dataclass(frozen=True)
class FeasibleIncumbent:
    """Best budget-respecting deterministic policy seen, with its income."""

    strategy: Strategy
    value: float
    pi: np.ndarray


@dataclass(frozen=True)
class CoupledResult:
    """Outcome of the dual route.

    ``dual_bound`` (the smallest ``theta``) upper-bounds every feasible
    income.  ``candidate`` is the master's mixture, or ``None`` when the
    loop ended before any mixture met the budget rows; ``best_feasible``
    is the best deterministic column that meets them alone, or ``None``.
    ``gap`` is relative, against the better of the two.  ``iterates``
    holds one ``DualIterate`` per ``dual_value`` call, kept as O(K)
    numbers: ``strategy`` and ``pi`` are ``None``, and so is the inner
    ``DpState``'s value vector ``w``.  ``stop_reason`` is "gap" (the
    bound met the master value to ``tol``), "stalled" (a local solve
    brought no new column) or "max_outer".  ``master_pivots`` holds, per
    ``dual_value`` call, the master's pivots until the next one.
    """

    dual_bound: float
    best_feasible: Optional[FeasibleIncumbent]
    candidate: Optional[PrimalCandidate]
    iterates: tuple
    gap: float
    iterations: int
    stop_reason: str
    master_pivots: tuple


class _Run:
    """One ``CompiledBellman`` for every dual call of a ``solve_coupled``
    run, on the union of the per-link patterns of ``r`` and the rows
    ``w``, and each distinct policy's column computed once.

    A column's measure is ``stationary`` on the operator's policy, from
    that policy's own solve or else the last column's measure; its
    incomes are ``utility_from_chain`` on the same chain.
    """

    def __init__(self, instance):
        self.schemes = [instance.rewards] + [c.weights for c in instance.coupling]
        union = functools.reduce(add_sparse, [r.delta.scaled(0.0) for r in self.schemes])
        self.columns = [Rewards(r.base, replace(union, data=r.delta.gather_at(
            union.indptr, union.indices))) for r in self.schemes]
        self.comp = CompiledBellman(instance, self.columns[0])
        self.instance, self.pi, self.seen = instance, None, {}
        self.bounds = np.array([c.bound for c in instance.coupling])

    def price(self, s, lam, inner, w0):
        """Best local policy for ``s r - lam . w``, evaluated exactly.

        ``theta`` adds the inner solve's certified income error and prices
        the bounds back in, so it upper-bounds ``max_pi [s R(pi) + lam .
        (b - C(pi))]``.
        """
        base, data = s * self.columns[0].base, s * self.columns[0].delta.data
        for c, r in zip(lam, self.columns[1:]):  # one axpy per scheme
            base += -c * r.base
            data += -c * r.delta.data
        priced = Rewards(base, replace(self.columns[0].delta, data=data))
        scale = max(1.0, priced.max_abs())
        self.comp.reprice(priced.scaled(1.0 / scale), scale)
        state, strat = value_iterate(self.instance, inner, w0=w0, bellman=self.comp)
        theta = (state.psi + (1.0 - self.instance.damping) * state.residual
                 + float(np.dot(lam, self.bounds)))
        key = tuple(strat.choices.items())
        if key not in self.seen:
            chain = self.comp.policy()
            pi = self.pi = stationary(chain, pi0=self.pi).pi
            self.seen[key] = pi, np.array([utility_from_chain(chain, pi, r) for r in self.schemes])
        pi, values = self.seen[key]
        cvals = values[1:]
        feasible = bool(np.all(cvals <= self.bounds + FEASIBILITY_TOL))
        return DualIterate(lam.copy(), theta, cvals - self.bounds, cvals, feasible,
                           float(values[0]), strat, pi, state)


def dual_value(instance, multipliers, inner=None, w0=None, run=None):
    """Evaluate the dual objective at one multiplier setting.

    Solves the local problem with rewards ``r - sum_k lam_k d_k`` and
    prices the bounds back in; Danskin's rule then makes
    ``bound - spending`` of the induced chain a subgradient.  ``theta``
    adds the inner solve's certified income error
    ``(1 - damping) * residual``, so it upper-bounds the Lagrangian
    optimum however loose ``inner.tol`` is.

    Parameters
    ----------
    instance : WebGraphInstance
        Must carry at least one coupling row.
    multipliers : ndarray
        Finite and nonnegative, one entry per coupling row.
    inner : SolverConfig, optional
        ``INNER`` when omitted.
    w0 : ndarray, optional
        Warm start for the inner value vector.
    run : optional
        The state ``solve_coupled`` shares between calls; fresh if omitted.
    """
    lam = np.asarray(multipliers, dtype=float)
    k = len(instance.coupling)
    if k == 0:
        raise ValidationError("instance has no coupling rows")
    if lam.shape != (k,):
        raise ValidationError(f"expected {k} multipliers, got shape {lam.shape}")
    if not np.all(np.isfinite(lam)):
        raise ValidationError("multipliers must be finite")
    if lam.size and float(lam.min()) < 0.0:
        raise ValidationError("multipliers must be nonnegative")
    return (run or _Run(instance)).price(1.0, lam, inner or INNER, w0)


class _Master:
    """The mixture program of one run, kept optimal by a revised simplex.

    Its K + 1 rows are ``sum mu_t C_t + s - f 1 = b`` and ``sum mu_t =
    1``; its columns are the K slacks ``s``, the shortfall ``f`` and one
    ``mu_t`` per policy, in that order, all nonnegative.  Phase 1
    maximizes ``-f``: its duals (``sum lam <= 1``) price the least
    worst-row overshoot of any mixture.  Once ``f`` reaches zero it
    leaves the basis for good, and phase 2 maximizes ``sum mu_t U_t``
    from the same basis.  Columns are only added, so each ``solve`` goes
    on from the last optimal basis (Dantzig and Wolfe, 1960).

    The entering column has the largest reduced cost, or the first
    positive one after a degenerate pivot (Bland's rule, which cannot
    cycle).  The basis has K + 1 columns, so ``B^-1`` is inverted afresh
    after every pivot; the certificate ending each ``solve`` checks it.
    """

    def __init__(self, bounds):
        self.k = k = bounds.size
        self.rhs = np.append(bounds, 1.0)
        self.a = np.vstack([np.hstack([np.eye(k), -np.ones((k, 1))]), np.zeros(k + 1)])
        self.income = np.zeros(k + 1)
        self.shortfall = np.zeros(k + 1)  # the phase-1 costs
        self.shortfall[k] = -1.0
        self.tol = MASTER_TOL * max(1.0, float(np.abs(self.rhs).max()))
        self.phase1, self.basis, self.pivots = True, None, 0

    def add(self, income, spending):
        """Append one policy's column; the first one also sets the basis:
        ``mu = 1`` with the shortfall, if any, in the most overspent row."""
        col = [*spending.tolist(), 1.0]
        self.a = np.column_stack([self.a, col])
        self.income = np.append(self.income, income)
        self.shortfall = np.append(self.shortfall, 0.0)
        self.tol = max(self.tol, MASTER_TOL * max(abs(income), *map(abs, col)))
        if self.basis is None:
            over = spending - self.rhs[:-1]
            self.basis = np.append(np.arange(self.k), self.k + 1)
            if over.max() > 0.0:
                self.basis[over.argmax()] = self.k
            self._factor()

    def _factor(self):
        self.binv = np.linalg.inv(self.a[:, self.basis])

    def _pivot(self, r, q):
        """Column ``q`` replaces basic row ``r``."""
        self.basis[r] = q
        self.pivots += 1
        self._factor()

    def _prices(self):
        """``c_B``, ``x_B``, the duals ``y`` and every reduced cost."""
        cost = self.shortfall if self.phase1 else self.income
        c_b = cost[self.basis]
        y = c_b @ self.binv
        d = cost - y @ self.a
        if not self.phase1:
            d[self.k] = 0.0  # the shortfall never re-enters
        return c_b, self.binv @ self.rhs, y, d

    def _optimize(self):
        """Pivot to an optimal basis of the phase; returns the last
        ``_prices``.  Only a wrong ``B^-1`` can leave no leaving row or
        run out of pivots, and then the certificate fails."""
        bland = False
        for _ in range(MASTER_MAX_PIVOTS):
            prices = self._prices()
            d = prices[3].copy()
            d[self.basis] = 0.0
            q = int((d > self.tol).argmax() if bland else d.argmax())
            if d[q] <= self.tol:
                break
            u = self.binv @ self.a[:, q]
            # least ratio, then the largest pivot (Bland: the lowest column)
            ratios = [(max(xi, 0.0) / ui, bi if bland else -ui, i) for i, (xi, ui, bi)
                      in enumerate(zip(prices[1].tolist(), u.tolist(), self.basis.tolist()))
                      if ui > self.tol]
            if not ratios:
                break
            ratio, _, r = min(ratios)
            bland = bland or ratio == 0.0
            self._pivot(r, q)
        return prices

    def _end_phase1(self):
        """A basic shortfall, at zero, swaps with the column of largest
        magnitude in its row."""
        self.phase1 = False
        at = np.flatnonzero(self.basis == self.k)
        if at.size:
            row = self.binv[at[0]] @ self.a
            row[self.basis] = 0.0
            self._pivot(at[0], int(np.abs(row).argmax()))

    def _certified(self, c_b, x, y, d):
        """Checks ``x_B >= 0``, ``B x_B = b``, every reduced cost ``c_j - y
        . a_j <= 0`` (the basic ones too, which checks ``y B = c_B``) and
        ``c_B . x_B = y . b``, each to ``MASTER_TOL`` times the program's
        largest entry and the largest ``|x_B|`` or ``|y|``."""
        xs, ys = x.tolist(), y.tolist()
        tol = self.tol * max(1.0, max(map(abs, xs)), max(map(abs, ys)))
        return bool(min(xs) >= -tol and d.max() <= tol
                    and np.abs(self.a[:, self.basis] @ x - self.rhs).max() <= tol
                    and abs(c_b @ x - y @ self.rhs) <= tol)

    def solve(self):
        """Re-optimize after new columns; returns the pivots made.

        Sets ``lam`` (the budget rows' duals, clipped at zero) and, once
        phase 2 is reached, the mixture ``mu`` over the policies and its
        ``value``.

        Raises
        ------
        ProError
            When the basis fails its certificate, so that no unchecked
            ``lam`` reaches the dual.
        """
        start = self.pivots
        prices = self._optimize()
        if self.phase1 and prices[0] @ prices[1] >= -self.tol:  # -f is zero
            self._end_phase1()
            prices = self._optimize()
        if not self._certified(*prices):
            raise ProError("the master's basis fails its certificate")
        # lam comes from a solve with the certified basis, its columns
        # sorted as policies, slacks, shortfall: it depends on the set of
        # basic columns alone, not on the order the pivots left them in
        k, n = self.k, self.income.size
        cols = sorted(self.basis.tolist(), key=lambda j: (j - k - 1) % n)
        cost = self.shortfall if self.phase1 else self.income
        self.lam = np.maximum(np.linalg.solve(self.a[:, cols].T, cost[cols])[:k], 0.0)
        if not self.phase1:
            policy = self.basis > k
            self.mu = np.zeros(n - k - 1)
            self.mu[self.basis[policy] - k - 1] = np.maximum(prices[1][policy], 0.0)
            self.mu /= self.mu.sum()
            self.value = float(self.mu @ self.income[k + 1:])
        return self.pivots - start


def _free_parts(instance, pages, picked, share):
    """``(rows, cols, share[rows] * probs)`` of the free mass that the
    choice ``picked[k]`` of page ``pages[k]`` sends, for every k at once.
    A link subset's free part is its outlink row (a discrete page has no
    floor): uniform on its links, obligatory and activated (no link is
    both), or the dangling teleport row."""
    pages = np.asarray(pages, dtype=np.int64)
    free = np.array([isinstance(c, ContinuousChoice) for c in picked], dtype=bool)
    listed = [c.cols if f else c.activated for c, f in zip(picked, free.tolist())]
    link = np.flatnonzero(~free)
    at, pos = ranges(instance.obl_indptr[pages[link]], instance.obl_indptr[pages[link] + 1])
    owner = np.concatenate([np.repeat(np.arange(pages.size), list(map(len, listed))), link[at]])
    cols = np.concatenate([np.fromiter(itertools.chain.from_iterable(listed), np.int64),
                           instance.obl_indices[pos]])
    deg = np.bincount(owner, minlength=pages.size)
    probs = 1.0 / deg[owner]
    probs[free[owner]] = [p for c in picked if isinstance(c, ContinuousChoice) for p in c.probs]
    hang, empty = np.flatnonzero(instance.dangling_teleport), link[deg[link] == 0]
    owner = np.concatenate([owner, np.repeat(empty, hang.size)])
    cols = np.concatenate([cols, np.tile(hang, empty.size)])
    probs = np.concatenate([probs, np.tile(instance.dangling_teleport[hang], empty.size)])
    return pages[owner], cols, share[pages[owner]] * probs


def _mixture(instance, master, policies):
    """The master's mixture as one strategy, re-evaluated on its own chain.

    ``policies[t] = (strategy, pi)`` belongs to the master's column t.
    Where the support's policies differ, page i's chain row is ``sum_t
    mu_t pi_t(i) P_t,i / sum_t mu_t pi_t(i)``: a point of its convex
    constraint set (which ``build_transition`` checks) that yields the
    mixed occupation measure.  A chain row is affine in the free part
    with the page's own floor and slack, so the page gets the free parts
    mixed with those weights: those of every such page merged at once,
    each target's summands in support order.
    """
    mu = master.mu
    support = np.flatnonzero(mu > 0.0)
    if support.size == 1:
        strat, pi = policies[support[0]]
        t = master.k + 1 + support[0]
        util, cvals = float(master.income[t]), master.a[:-1, t]
    else:
        n = instance.num_pages
        strats = [policies[t][0] for t in support]
        weight = mu[support, None] * np.stack([policies[t][1] for t in support])
        choices = dict(strats[0].choices)
        mixed = [page for page, ch in choices.items()
                 if any(s.choices[page] != ch for s in strats[1:])]
        share = np.zeros(weight.shape)
        share[:, mixed] = weight[:, mixed] / weight[:, mixed].sum(axis=0)
        rows, cols, vals = map(np.concatenate, zip(*(
            _free_parts(instance, mixed, [s.choices[page] for page in mixed], w)
            for s, w in zip(strats, share))))
        # a stable sort keeps each target's summands in support order
        order, first, indptr = _sort_coords(n, n, rows, cols)
        probs = np.bincount(np.cumsum(first) - 1, vals[order]).tolist()
        cols, indptr = cols[order[first]].tolist(), indptr.tolist()
        for page in mixed:
            lo, hi = indptr[page], indptr[page + 1]
            choices[page] = ContinuousChoice(tuple(cols[lo:hi]), tuple(probs[lo:hi]))
        strat = Strategy(choices)
        trans = build_transition(instance, strat)
        # the mixed chain's exact measure, up to the columns' own error
        pi = stationary(trans, pi0=weight.sum(axis=0)).pi
        util = utility_from_chain(trans, pi, instance.rewards)
        cvals = np.array([utility_from_chain(trans, pi, c.weights) for c in instance.coupling])
    feasible = bool(np.all(cvals <= master.rhs[:-1] + FEASIBILITY_TOL))
    return PrimalCandidate(strat, pi, util, cvals, feasible)


def _gap(dual_bound, primal):
    if primal == -math.inf:
        return math.inf
    return max(0.0, (dual_bound - primal) / max(abs(dual_bound), 1e-12))


def solve_coupled(instance, config=None):
    """Column generation on the mixture program of the budget problem.

    The first column is the local optimum (``lam = 0``).  While no
    mixture of the columns meets the budget rows, the phase-1 master's
    duals price spending alone, and a cost-only local solve adds a
    column (kept out of ``iterates``) or certifies that every strategy
    overspends.  Then each step calls ``dual_value`` at the master's duals.
    One ``_Master`` serves the whole run.

    Returns
    -------
    CoupledResult

    Raises
    ------
    Infeasible
        When the cost-only solve at ``lam`` gives ``min_pi lam . (C(pi) -
        b) > FEASIBILITY_TOL * sum(lam)`` beyond its certified error, so
        no strategy meets the rows even to ``FEASIBILITY_TOL``; ``lam`` is
        attached as ``multipliers``.
    ProError
        When the master's basis fails its certificate.
    """
    if not instance.coupling:
        raise ValidationError("instance has no coupling rows")
    config = config or CoupledConfig()
    run = _Run(instance)
    master = _Master(run.bounds)
    policies, records, pivots = {}, [], []  # (income, *spending) -> (strategy, pi)
    lam, w_dual, w_cost = np.zeros(run.bounds.size), None, None
    dual_bound, best, stop = math.inf, None, "max_outer"
    while len(records) < config.max_outer:
        if policies and master.phase1:
            lam = master.lam
            col = run.price(0.0, lam, INNER, w_cost)
            if col.theta < -FEASIBILITY_TOL * float(lam.sum()):
                raise Infeasible(f"every strategy overspends: multipliers {lam.tolist()} "
                                 f"price the excess at {-col.theta:.3e} or more", lam)
            w_cost = col.dp_state.w
        else:
            col = dual_value(instance, lam, w0=w_dual, run=run)
            w_dual = col.dp_state.w
            records.append(replace(col, strategy=None, pi=None,
                                   dp_state=replace(col.dp_state, w=None)))
            pivots.append(0)
            dual_bound = min(dual_bound, col.theta)
        key = (col.primal_value, *col.coupling_values.tolist())
        fresh = key not in policies
        if fresh:
            policies[key] = col.strategy, col.pi
            master.add(col.primal_value, col.coupling_values)
            pivots[-1] += master.solve()
        if col.feasible and (best is None or col.primal_value > best.value):
            best = FeasibleIncumbent(col.strategy, col.primal_value, col.pi)
        if not master.phase1 and _gap(dual_bound, master.value) <= config.tol:
            stop = "gap"
            break
        if not fresh:
            stop = "stalled"
            break
        if not master.phase1:
            lam = master.lam
    candidate = None if master.phase1 else _mixture(instance, master, list(policies.values()))
    primal = best.value if best else -math.inf
    if candidate is not None and candidate.feasible:
        primal = max(primal, candidate.utility)
    return CoupledResult(dual_bound, best, candidate, tuple(records),
                         _gap(dual_bound, primal), len(records), stop, tuple(pivots))


@dataclass(frozen=True)
class LpProblem:
    """Dense linear program over reduced occupation variables ``x``.

    ``blocks[i]`` maps page i's slice of ``x`` (they are laid out in page
    order) to its row of the occupation measure, ``rho[i] = blocks[i] @
    x_i``; ``instance`` is kept so that ``lp_solve`` can re-check the
    mapped ``rho`` against the unreduced constraints.
    """

    objective: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    blocks: tuple
    instance: object


def lp_formulate(instance):
    """Exact linear program over occupation measures, reduced page by page.

    The measure is ``rho[i, j] = pi[i] P[i, j]``, constrained by unit
    mass, flow balance, each page's constraint set and the budget rows.
    Page i contributes a column block ``B_i`` with ``rho_i = B_i @ x_i``
    and its own ``<= 0`` rows on ``x_i``; the objective and the mass,
    flow-balance and budget rows are the unreduced ones times the
    block-diagonal ``B``.

    Every column of ``B_i`` sums to one (to within the tolerance ``z``
    and ``q`` are validated to), so ``sum(rho_i) = sum(x_i)``, the page
    mass ``m_i``.  A discrete page is ``B_i = (1 - alpha) z 1' + alpha
    V``, so ``rho_i = (1 - alpha) m_i z + alpha V @ x_i``.  Each column of
    ``V`` is an admissible outlink row: column 0 is uniform on the
    obligatory links O (the dangling teleport row when there are none),
    and each facultative target j adds ``e_j``.  Their cone is the page's
    outlink hull lifted by mass, once each facultative entry is held to
    at most an obligatory one, ``|O| x_j - x_0 <= 0``.  A weight page sits
    on its chain-space floor ``l' = alpha (1 - mu) q + (1 - alpha) z``:
    with ``c = 1 - sum(l')``, column ``j`` is ``l' + c e_j`` for each
    non-banned ``j``, so ``rho_i = l' sum(x_i) + c x_i`` and the page
    needs no row.  A non-banned cap ``alpha + (1 - alpha) z_j`` is never
    below the ``l'_j + c`` a row reaches, and a banned cap equals its
    floor.  No division is involved, so ``mu = 0`` is safe.

    A discrete page has one column plus one per facultative link, and a
    weight page one per non-banned target, so an 18-page weight-mode
    instance with one budget row has 20 rows instead of 366, and a
    100-page web with 5 controlled pages about 200 columns instead of
    10,000.

    Raises
    ------
    TooLarge
        When the dense tableau would pass ``LP_CELL_CAP`` cells; checked
        before any block is built.
    """
    n = instance.num_pages
    alpha = instance.damping
    store = instance.skeletons
    obl, fac = np.diff(instance.obl_indptr), np.diff(instance.fac_indptr)
    on_weight = find_sorted(store.pages, np.arange(n))[1]
    # the tableau solve_dense_lp allocates, from link and ban counts alone:
    # m rows by the columns, slacks, artificials and right-hand side
    nfree = n - np.bincount(store.banned // n, minlength=n)[store.pages]
    widths = 1 + fac
    # banning every target validates only with mu = 0: the floor is the row
    widths[store.pages] = np.maximum(nfree, 1)
    nx = int(widths.sum())
    m_ub = int(fac[obl > 0].sum()) + len(instance.coupling)
    m = n + 1 + m_ub
    cells = m * (nx + m_ub + m + 1)
    if cells > LP_CELL_CAP:
        raise TooLarge(f"occupation LP tableau needs {cells} cells, above the cap of "
                       f"{LP_CELL_CAP} (141 weight pages with one budget row)")
    start = np.cumsum(widths) - widths

    # B, all pages' blocks side by side: the teleport part, then a discrete
    # page's damped outlink rows ...
    flow = np.repeat((1.0 - alpha) * instance.teleport[:, None], nx, axis=1)
    src = row_ids(instance.obl_indptr)
    flow[instance.obl_indices, start[src]] += alpha * (1.0 / obl[src])
    dangling = np.flatnonzero((obl == 0) & ~on_weight)
    flow[:, start[dangling]] += alpha * instance.dangling_teleport[:, None]
    src = row_ids(instance.fac_indptr)
    fcols = start[src] + 1 + np.arange(src.size) - instance.fac_indptr[src]
    flow[instance.fac_indices, fcols] += alpha
    # ... and a weight page's floor l', plus its slack c on each free target
    floor = alpha * store.bounds(store.pages)[0] + (1.0 - alpha) * instance.teleport
    slack = np.maximum(1.0 - floor.sum(axis=1), 0.0)
    owner, cols = ranges(start[store.pages], start[store.pages] + widths[store.pages])
    flow[:, cols] = floor[owner].T
    free = np.ones(floor.shape, dtype=bool)
    free[np.searchsorted(store.pages, store.banned // n), store.banned % n] = False
    owner, cols = ranges(start[store.pages], start[store.pages] + nfree)
    flow[np.nonzero(free)[1], cols] += slack[owner]
    # BLAS rounds the products in ``pulled`` by each block's memory layout;
    # weight blocks column-major and discrete ones row-major give the
    # arrays of the page-by-page reference in the tests, bit for bit
    blocks = tuple(np.asfortranarray(b) if w else np.ascontiguousarray(b)
                   for b, w in zip(np.split(flow, start[1:], axis=1), on_weight))

    # the rows |O| x_j - x_0 <= 0 of the discrete pages with obligatory links
    ruled = np.flatnonzero(obl[src] > 0)
    local = np.zeros((ruled.size, nx))
    local[np.arange(ruled.size), start[src[ruled]]] = -1.0
    local[np.arange(ruled.size), fcols[ruled]] = obl[src[ruled]]

    # the objective and the budget rows, each an (n, n) coefficient array
    # on rho, pulled back through B page by page
    weights = np.stack([instance.rewards.dense()]
                       + [c.weights.dense() for c in instance.coupling])
    pulled = np.concatenate([weights[:, i] @ b for i, b in enumerate(blocks)], axis=1)

    a_eq = np.vstack([np.ones(nx), flow])  # inflow into each page ...
    a_eq[1 + np.repeat(np.arange(n), widths), np.arange(nx)] -= 1.0  # ... minus outflow
    b_eq = np.zeros(a_eq.shape[0])
    b_eq[0] = 1.0
    a_ub = np.vstack([local, pulled[1:]])
    b_ub = np.zeros(a_ub.shape[0])
    b_ub[a_ub.shape[0] - len(instance.coupling):] = [c.bound for c in instance.coupling]
    return LpProblem(pulled[0], a_eq, b_eq, a_ub, b_ub, blocks, instance)


def lp_solve(problem, tol=1e-7):
    """Solve an occupation-measure program; returns ``(rho, value)``.

    The basic solution is mapped back to the ``n x n`` measure ``rho``,
    which ``check_occupation`` re-checks to within ``tol`` against the
    unreduced constraints; a failed check raises, since it would mean the
    pivoting or the reduction went numerically wrong.

    The simplex starts from the program's own blocks and rows: a discrete
    page on its column 0, its default row, whose ``<= 0`` rows are slack;
    a weight page on its free target of least budget spending; each
    ``<=`` row on its slack; the last flow row, redundant, on its artificial.
    """
    widths = [b.shape[1] for b in problem.blocks]
    ends, n, m_ub = np.cumsum(widths), len(widths), problem.b_ub.size
    spend = problem.a_ub[m_ub - len(problem.instance.coupling):].sum(axis=0)
    cols, weight = ends - widths, problem.instance.skeletons.pages
    cols[weight] = np.lexsort((spend, np.repeat(np.arange(n), widths)))[cols[weight]]
    start = np.concatenate([cols, [ends[-1] + m_ub + n], ends[-1] + np.arange(m_ub)])
    x, value = solve_dense_lp(problem.objective, problem.a_eq, problem.b_eq,
                              problem.a_ub, problem.b_ub, maximize=True, start=start)
    rho = np.stack([b @ xi for b, xi in zip(problem.blocks, np.split(x, ends[:-1]))])
    check_occupation(problem.instance, rho, tol)
    return rho, value


def check_occupation(instance, rho, tol=1e-7):
    """Raise ``ProError`` unless ``rho`` is an admissible occupation measure.

    Checks to within ``tol``: unit mass, flow balance, ``rho >= 0`` and
    the budget rows.  Each page's outlink part ``sigma_i = (rho_i - (1 -
    alpha) m_i z) / alpha``, with ``m_i = sum(rho_i)``, must then meet
    the page's outlink facets with their constants lifted by its mass,
    ``lo_a sigma_ia + lo m_i <= sigma_ij <= hi_a sigma_ia + hi m_i`` and
    ``sum(sigma_i) = m_i``, to within ``tol / alpha``.  All pages' facet
    tables are checked at once (``graph.instance_facets``); the error
    names the page and the worst record.
    """
    n = instance.num_pages
    alpha = instance.damping
    mass = rho.sum(axis=1)
    worst = max(abs(float(mass.sum()) - 1.0),
                float(np.abs(rho.sum(axis=0) - mass).max()),
                -float(rho.min()))
    for c in instance.coupling:
        worst = max(worst, float(np.sum(c.weights.dense() * rho)) - c.bound)
    if worst > tol:
        raise ProError(f"occupation measure violates constraints by {worst:.3e}")
    sigma = (rho - (1.0 - alpha) * mass[:, None] * instance.teleport) / alpha
    verdict = separate(instance_facets(instance, np.arange(n)), sigma, tol / alpha, mass)
    if verdict.violated:
        raise ProError(f"row {verdict.page} of the occupation measure violates "
                       f"{verdict.description} by {verdict.magnitude:.3e}")
