"""Income maximization under graph-wide budget rows.

Budget rows couple the pages, so the per-page maximization inside value
iteration no longer applies directly.  Two routes are provided.  The
dual route prices each budget row into the rewards with a multiplier,
solves the resulting local problem exactly, and runs projected
subgradient descent on the convex dual; it scales like the local solver
and yields a certified upper bound plus feasible strategies found along
the way.  The linear-programming route optimizes over occupation
measures directly (``rho[i, j] = pi[i] P[i, j]``), with weight pages
written on their chain-space floor and discrete pages' constraint sets
lifted through the row-mass factor; it is exact but dense, so it is
capped to small instances and doubles as a cross-check of the dual
route.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .chain import occupation, stationary, utility_from_chain
from .errors import ProError, TooLarge, ValidationError
from .polytopes import EQ, separate
from .graph import Strategy, build_transition, chain_facets, instance_facets
from .simplex import solve_dense_lp
from .solver_local import SolverConfig, value_iterate
from .sparse import row_ids

FEASIBILITY_TOL = 1e-9
LP_PAGE_CAP = 200
LP_VAR_CAP = 20000
RHO_STORE_CAP = 200


@dataclass(frozen=True)
class Multipliers:
    """Nonnegative price vector, one entry per budget row."""

    values: np.ndarray


@dataclass(frozen=True)
class DualIterate:
    """Everything observed at one multiplier setting.

    ``theta`` is the dual objective, never below its exact value (see
    ``dual_value``).  ``subgradient`` holds the update
    direction ``spending - bound`` per budget row: the projected step
    ``max(0, lam + s * g)`` then raises the price of violated rows and
    relaxes slack ones, which descends ``theta`` (whose true subgradient
    is the negated vector).  ``primal_value`` and ``coupling_values``
    describe the chain induced by the priced-out optimal strategy under
    the original rewards; ``rho`` is its occupation measure, dense, and
    ``None`` above ``RHO_STORE_CAP`` pages (every outer iterate is
    retained, so dense measures are only affordable at oracle scale).
    """

    multipliers: np.ndarray
    theta: float
    subgradient: np.ndarray
    coupling_values: np.ndarray
    feasible: bool
    primal_value: float
    strategy: Strategy
    pi: np.ndarray
    rho: Optional[np.ndarray]
    dp_state: object


@dataclass(frozen=True)
class CoupledConfig:
    """Outer-loop knobs.

    ``tol`` is the relative duality gap at which the loop stops;
    ``step_rule`` is "polyak" (needs a feasible income to aim at, falls
    back to harmonic until one appears) or "harmonic".
    """

    tol: float = 1e-6
    max_outer: int = 200
    step_rule: str = "polyak"
    step0: float = 1.0
    inner: SolverConfig = field(default_factory=lambda: SolverConfig(tol=1e-9))


@dataclass(frozen=True)
class PrimalCandidate:
    """Mixture of dual iterates, pulled back to the budget region.

    Mixtures of occupation measures are again occupation measures, so
    income and budget spending evaluate linearly; ``rho`` is the mixed
    measure itself, materialized only at dense-friendly sizes.  The
    solver keeps the best mixture it ever builds, whether it came from
    the tail-window average or from pairing one over-budget iterate
    with the best feasible one.
    """

    pi: np.ndarray
    utility: float
    coupling_values: np.ndarray
    feasible: bool
    rho: Optional[np.ndarray]


@dataclass(frozen=True)
class FeasibleIncumbent:
    """Best budget-respecting strategy seen so far, with its exact income.

    ``iteration`` is the outer iteration that produced it; ``-1`` marks
    the minimal-spending strategy tried before the first multiplier.
    """

    strategy: Strategy
    value: float
    pi: np.ndarray
    iteration: int


@dataclass(frozen=True)
class CoupledResult:
    """Outcome of the dual route.

    ``dual_bound`` always upper-bounds every feasible income.
    ``best_feasible`` is the best budget-respecting strategy seen, or
    ``None`` when no iterate was feasible; the averaged ``candidate``
    may improve on it (as a mixture, not a single strategy).  ``gap``
    is relative, against whichever primal value is best.
    """

    dual_bound: float
    best_feasible: Optional[FeasibleIncumbent]
    candidate: Optional[PrimalCandidate]
    iterates: tuple
    gap: float
    iterations: int
    stop_reason: str


def dual_value(instance, multipliers, inner=None, w0=None):
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
    multipliers : ndarray or Multipliers
        Nonnegative, one entry per coupling row.
    inner : SolverConfig, optional
    w0 : ndarray, optional
        Warm start for the inner value vector.
    """
    lam = multipliers.values if isinstance(multipliers, Multipliers) else multipliers
    lam = np.asarray(lam, dtype=float)
    k = len(instance.coupling)
    if k == 0:
        raise ValidationError("instance has no coupling rows")
    if lam.shape != (k,):
        raise ValidationError(f"expected {k} multipliers, got shape {lam.shape}")
    if lam.size and float(lam.min()) < 0.0:
        raise ValidationError("multipliers must be nonnegative")
    inner = inner or SolverConfig(tol=1e-9)
    weights = [c.weights for c in instance.coupling]
    bounds = np.array([c.bound for c in instance.coupling])
    modified = instance.rewards.minus_weighted(weights, lam)
    state, strat = value_iterate(instance.local_only(modified), inner, w0=w0)
    theta = (state.psi + (1.0 - instance.damping) * state.residual
             + float(np.dot(lam, bounds)))
    trans = build_transition(instance, strat)
    pi = stationary(trans, tol=1e-12).pi
    cvals = np.array([utility_from_chain(trans, pi, wt) for wt in weights])
    primal = utility_from_chain(trans, pi, instance.rewards)
    feasible = bool(np.all(cvals <= bounds + FEASIBILITY_TOL))
    rho = occupation(trans, pi).rho if instance.num_pages <= RHO_STORE_CAP else None
    return DualIterate(lam.copy(), theta, cvals - bounds, cvals, feasible,
                       primal, strat, pi, rho, state)


def _gap(dual_bound, primal):
    if primal == -math.inf:
        return math.inf
    return max(0.0, (dual_bound - primal) / max(abs(dual_bound), 1e-12))


def _feasibility_bootstrap(instance, inner):
    """Chase minimal budget spending to find one feasible strategy.

    Runs the local solver with the summed budget weights as a cost; the
    resulting chain need not respect the bounds (with several rows it
    may trade one off against another), but whenever it does, it hands
    the outer loop a feasible anchor before any multiplier is tried,
    which is what the step rule and the candidate projection need on
    instances where no priced-out vertex strategy is ever feasible.
    """
    weights = [c.weights for c in instance.coupling]
    cost = instance.rewards.scaled(0.0).minus_weighted(
        weights, np.ones(len(weights)))
    state, strat = value_iterate(instance.local_only(cost), inner)
    trans = build_transition(instance, strat)
    pi = stationary(trans, tol=1e-12).pi
    cvals = np.array([utility_from_chain(trans, pi, wt) for wt in weights])
    bounds = np.array([c.bound for c in instance.coupling])
    feasible = bool(np.all(cvals <= bounds + FEASIBILITY_TOL))
    primal = utility_from_chain(trans, pi, instance.rewards)
    rho = occupation(trans, pi).rho if instance.num_pages <= RHO_STORE_CAP else None
    return DualIterate(np.zeros(len(weights)), math.inf, cvals - bounds,
                       cvals, feasible, primal, strat, pi, rho, state)


class _TailWindow:
    """Running averages over the last ``cap`` iterates, O(n) per push."""

    def __init__(self, cap, keep_rho):
        self.cap = max(1, cap)
        self.items = collections.deque()
        self.keep_rho = keep_rho
        self.pi_sum = None
        self.c_sum = None
        self.u_sum = 0.0
        self.rho_sum = None

    def push(self, it):
        self.items.append(it)
        if self.pi_sum is None:
            self.pi_sum = it.pi.copy()
            self.c_sum = it.coupling_values.copy()
            self.u_sum = it.primal_value
            if self.keep_rho:
                self.rho_sum = it.rho.copy()
        else:
            self.pi_sum += it.pi
            self.c_sum += it.coupling_values
            self.u_sum += it.primal_value
            if self.keep_rho:
                self.rho_sum += it.rho
        if len(self.items) > self.cap:
            old = self.items.popleft()
            self.pi_sum -= old.pi
            self.c_sum -= old.coupling_values
            self.u_sum -= old.primal_value
            if self.keep_rho:
                self.rho_sum -= old.rho

    def means(self):
        m = len(self.items)
        rho = self.rho_sum / m if self.keep_rho else None
        return self.pi_sum / m, self.u_sum / m, self.c_sum / m, rho


def _project_candidate(pi, util, cvals, rho, anchor, bounds):
    """Pull the averaged iterate back inside the budget region.

    Mixtures of occupation measures are occupation measures, so income
    and spending interpolate linearly along the segment toward the
    anchor; the smallest step covering every violated row lands exactly
    on the worst bound when the anchor itself is feasible.
    """
    feasible = bool(np.all(cvals <= bounds + FEASIBILITY_TOL))
    if not feasible and anchor is not None and \
            float(np.max(anchor.coupling_values - bounds)) <= FEASIBILITY_TOL:
        t = 0.0
        for j in range(bounds.size):
            over = cvals[j] - bounds[j]
            if over > FEASIBILITY_TOL:
                den = cvals[j] - anchor.coupling_values[j]
                t = max(t, over / den) if den > 0.0 else 1.0
        t = min(1.0, t)
        pi = (1.0 - t) * pi + t * anchor.pi
        util = (1.0 - t) * util + t * anchor.primal_value
        cvals = (1.0 - t) * cvals + t * anchor.coupling_values
        if rho is not None and anchor.rho is not None:
            rho = (1.0 - t) * rho + t * anchor.rho
        elif rho is not None:
            rho = None
        feasible = bool(np.all(cvals <= bounds + FEASIBILITY_TOL))
    return PrimalCandidate(pi, util, cvals, feasible, rho)


def _better_candidate(old, new):
    # feasibility first, then income; ties keep the incumbent
    if new is None:
        return old
    if old is None:
        return new
    if (new.feasible, new.utility) > (old.feasible, old.utility):
        return new
    return old


def solve_coupled(instance, config=None):
    """Projected subgradient descent on the dual of the budget problem.

    Returns
    -------
    CoupledResult
        Never raises on slow progress; ``stop_reason`` says whether the
        loop closed the gap ("gap"), ran out of outer iterations
        ("max_outer"), found a stationary multiplier ("stationary"), or
        stopped moving ("stalled").
    """
    if not instance.coupling:
        raise ValidationError("instance has no coupling rows")
    config = config or CoupledConfig()
    if config.step_rule not in ("polyak", "harmonic"):
        raise ValidationError(f"unknown step rule: {config.step_rule!r}")
    bounds = np.array([c.bound for c in instance.coupling])
    lam = np.zeros(bounds.size)
    iterates = []
    window = _TailWindow(math.ceil(config.max_outer / 2),
                         keep_rho=instance.num_pages <= RHO_STORE_CAP)
    dual_bound = math.inf
    best = None
    best_primal = -math.inf
    candidate = None
    stop_reason = "max_outer"
    w0 = None
    boot = _feasibility_bootstrap(instance, config.inner)
    anchor, anchor_key = boot, (
        max(float(np.max(boot.coupling_values - bounds)), 0.0),
        -boot.primal_value)
    feas_it = boot if boot.feasible else None
    if boot.feasible:
        best = FeasibleIncumbent(boot.strategy, boot.primal_value, boot.pi, -1)
        best_primal = boot.primal_value
    for t in range(config.max_outer):
        it = dual_value(instance, lam, config.inner, w0=w0)
        w0 = it.dp_state.w
        iterates.append(it)
        window.push(it)
        dual_bound = min(dual_bound, it.theta)
        key = (max(float(np.max(it.coupling_values - bounds)), 0.0),
               -it.primal_value)
        if anchor_key is None or key < anchor_key:
            anchor, anchor_key = it, key
        if it.feasible and (best is None or it.primal_value > best.value):
            best = FeasibleIncumbent(it.strategy, it.primal_value, it.pi, t)
        if it.feasible and (feas_it is None
                            or it.primal_value > feas_it.primal_value):
            feas_it = it
        candidate = _better_candidate(
            candidate, _project_candidate(*window.means(), anchor, bounds))
        if not it.feasible and feas_it is not None:
            candidate = _better_candidate(candidate, _project_candidate(
                it.pi, it.primal_value, it.coupling_values, it.rho,
                feas_it, bounds))
        if best is not None:
            best_primal = max(best_primal, best.value)
        if candidate.feasible:
            best_primal = max(best_primal, candidate.utility)
        if _gap(dual_bound, best_primal) <= config.tol:
            stop_reason = "gap"
            break
        g = it.subgradient
        gnorm = float(np.dot(g, g))
        if gnorm == 0.0:
            stop_reason = "stationary"
            break
        if config.step_rule == "polyak" and best_primal > -math.inf:
            step = (it.theta - best_primal) / gnorm
            if step <= 0.0:
                step = config.step0 / (1.0 + t)
        else:
            step = config.step0 / (1.0 + t)
        new_lam = np.maximum(0.0, lam + step * g)
        if float(np.abs(new_lam - lam).max()) <= 1e-12:
            stop_reason = "stalled"
            break
        lam = new_lam
    return CoupledResult(dual_bound, best, candidate, tuple(iterates),
                         _gap(dual_bound, best_primal), len(iterates), stop_reason)


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


def _page_block(instance, page):
    """Column block ``B`` (``rho_i = B @ x_i``), rows on ``x_i``, relations.

    Every column of ``B`` sums to one (to within the tolerance ``q`` is
    validated to), so ``sum(rho_i) = sum(x_i)``.  A discrete page keeps
    ``x_i = rho_i`` and its chain-space facets lifted through the row
    mass, ``a . rho_i rel rhs * sum_k rho_ik``; every feasible measure
    gives each page positive mass (the teleport floor forces it), so the
    lifting is exact, and the simplex equation lifts to ``0 == 0``.  A
    weight page sits on its chain-space floor ``l' = alpha (1 - mu) q +
    (1 - alpha) z``: with ``c = 1 - sum(l')``, column ``j`` is ``l' + c
    e_j`` for each non-banned ``j``, so ``rho_i = l' sum(x_i) + c x_i``
    and the page needs no row.  A non-banned cap ``alpha + (1 - alpha)
    z_j`` is never below the ``l'_j + c`` a row reaches, and a banned cap
    equals its floor.  No division is involved, so ``mu = 0`` is safe.
    """
    n = instance.num_pages
    sk = instance.skeleton_by_page.get(page)
    if sk is None:
        system = chain_facets(instance, page)
        lifted = system.coef.to_dense()[:-1] - system.rhs[:-1, None]
        return np.eye(n), lifted, system.rel[:-1]
    alpha = instance.damping
    floor = alpha * sk.lower() + (1.0 - alpha) * instance.teleport
    free = np.ones(n, dtype=bool)
    free[list(sk.banned)] = False
    slack = max(1.0 - float(floor.sum()), 0.0)
    # banning every coordinate validates only with mu = 0: the floor is the row
    block = floor[:, None] + slack * np.eye(n)[:, free] if free.any() else floor[:, None]
    return block, np.zeros((0, block.shape[1])), np.zeros(0, dtype=int)


def lp_formulate(instance):
    """Exact linear program over occupation measures, reduced page by page.

    The measure is ``rho[i, j] = pi[i] P[i, j]``, constrained by unit
    mass, flow balance, each page's constraint set and the budget rows.
    Page i contributes a column block ``B_i`` with ``rho_i = B_i @ x_i``
    and its own rows on ``x_i`` (see ``_page_block``); the objective and
    the mass, flow-balance and budget rows are the unreduced ones times
    the block-diagonal ``B``.  An 18-page weight-mode instance with one
    budget row has 20 rows instead of 366.

    Raises
    ------
    TooLarge
        Above 200 pages (the tableau would be unreasonable).
    """
    n = instance.num_pages
    if n > LP_PAGE_CAP or n * n > LP_VAR_CAP:
        raise TooLarge(f"occupation LP is capped at {LP_PAGE_CAP} pages")
    blocks, rows, rels = zip(*(_page_block(instance, i) for i in range(n)))
    widths = [b.shape[1] for b in blocks]
    nx = sum(widths)
    rel = np.concatenate(rels)
    eq = rel == EQ
    # page rows placed on their own column slices, ">=" rows flipped to "<="
    local = np.zeros((rel.size, nx))
    r0 = c0 = 0
    for row, w in zip(rows, widths):
        local[r0:r0 + row.shape[0], c0:c0 + w] = row
        r0, c0 = r0 + row.shape[0], c0 + w
    local[~eq] *= rel[~eq, None]

    # the objective and the budget rows, each an (n, n) coefficient array
    # on rho, pulled back through B page by page
    weights = np.stack([instance.rewards.dense()]
                       + [c.weights.dense() for c in instance.coupling])
    pulled = np.concatenate([weights[:, i] @ b for i, b in enumerate(blocks)], axis=1)
    flow = np.concatenate(blocks, axis=1)  # inflow into each page ...
    flow[np.repeat(np.arange(n), widths), np.arange(nx)] -= 1.0  # ... minus outflow

    a_eq = np.vstack([np.ones(nx), flow, local[eq]])
    b_eq = np.zeros(a_eq.shape[0])
    b_eq[0] = 1.0
    a_ub = np.vstack([local[~eq], pulled[1:]])
    b_ub = np.zeros(a_ub.shape[0])
    b_ub[a_ub.shape[0] - len(instance.coupling):] = [c.bound for c in instance.coupling]
    return LpProblem(pulled[0], a_eq, b_eq, a_ub, b_ub, blocks, instance)


def lp_solve(problem, tol=1e-7):
    """Solve an occupation-measure program; returns ``(rho, value)``.

    The basic solution is mapped back to the ``n x n`` measure ``rho``,
    which is re-checked to within ``tol`` against unit mass, flow
    balance, the budget rows, ``rho >= 0`` and every page's lifted
    chain-space facets; a failed check raises, since it would mean the
    pivoting or the reduction went numerically wrong.
    """
    x, value = solve_dense_lp(problem.objective, problem.a_eq, problem.b_eq,
                              problem.a_ub, problem.b_ub, maximize=True)
    ends = np.cumsum([b.shape[1] for b in problem.blocks])
    rho = np.stack([b @ xi for b, xi in zip(problem.blocks, np.split(x, ends[:-1]))])
    check_occupation(problem.instance, rho, tol)
    return rho, value


def check_occupation(instance, rho, tol=1e-7):
    """Raise ``ProError`` unless ``rho`` is an admissible occupation measure.

    Checks to within ``tol``: unit mass, flow balance, ``rho >= 0``, the
    budget rows, and every page's chain-space facets lifted by its row
    mass, ``a . rho_i rel rhs * sum(rho_i)``.  The facet rows of all
    pages are checked at once (``graph.instance_facets``); the error
    names the page and the worst row.
    """
    n = instance.num_pages
    mass = rho.sum(axis=1)
    worst = max(abs(float(mass.sum()) - 1.0),
                float(np.abs(rho.sum(axis=0) - mass).max()),
                -float(rho.min()))
    for c in instance.coupling:
        worst = max(worst, float(np.sum(c.weights.dense() * rho)) - c.bound)
    if worst > tol:
        raise ProError(f"occupation measure violates constraints by {worst:.3e}")
    system, page = instance_facets(instance)
    system = replace(system, rhs=system.rhs * mass[page])
    # row k reads rho[page[k]]: one flat gather through the page-local columns
    flat = replace(system.coef, num_cols=n * n,
                   indices=page[row_ids(system.coef.indptr)] * n + system.coef.indices)
    verdict = separate(replace(system, coef=flat), rho.ravel(), tol)
    if verdict.violated:
        k = verdict.row
        raise ProError(f"row {page[k]} of the occupation measure violates "
                       f"{system.describe(k)} by {verdict.magnitude:.3e}")
