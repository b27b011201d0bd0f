"""Chain quantities: stationary measures, occupation measures, income.

The total income of a chain ``P`` with stationary measure ``pi`` is the
expectation of the per-traversal reward under the occupation measure
``rho[i, j] = pi[i] P[i, j]``.  Income can equally be written through the
mean reward accumulated before the next teleportation, the vector ``v``
solving ``v = rbar + damping * S v``; that vector is what the local
optimizer's fixed point reproduces, so it is the bridge between chain
evaluation and optimization.  A fixed policy's chain solves its own
systems for ``v`` and ``pi`` where it can (``solve``), and that answer
starts the loop that certifies ``v`` (``policy_value``) or ``pi``
(``stationary``, which otherwise starts from a given measure).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MaxIterExceeded, TooLarge, ValidationError
from .graph import DENSE_EVAL_CAP  # noqa: F401 - re-exported
from .sparse import row_ids, segment_sums

DENSE_CAP = 2000

# L1 error of a stationary measure that ``stationary`` accepts by default
STATIONARY_TOL = 1e-12

# Rounding allowance of one sweep, relative to the reward scale plus
# ``max |v|``: pairwise sums err by less than 32 ulps up to 2**20 terms.
# It is added to the reported error bound, and a tol below it stops once
# the bracket closes or stops shrinking within it (span_iterate's floor).
ROUNDING = 32 * float(np.finfo(float).eps)


def check_tol(tol):
    """Refuse a stop tolerance that is not finite and positive."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValidationError(f"tol must be finite and positive, got {tol}")


def iteration_budget(damping, tol):
    """Worst-case sweeps that shrink a unit sup-norm error below ``tol``.

    The contraction modulus of one sweep is the damping factor, so the
    budget is ``ceil(log(tol) / log(damping))``.  Policy iteration takes
    no more steps than value iteration from the same start (Puterman,
    Theorem 6.4.6), and the span stop usually ends far earlier.
    """
    if not 0.0 < damping < 1.0:
        raise ValidationError("damping must lie strictly between 0 and 1")
    if not 0.0 < tol < 1.0:
        raise ValidationError("tolerance must lie strictly between 0 and 1")
    return int(math.ceil(math.log(tol) / math.log(damping)))


@dataclass(frozen=True)
class StationaryDistribution:
    """Stationary row vector of a surfer chain.

    ``residual`` bounds the L1 error of ``pi`` in exact arithmetic (see
    ``stationary``): it is certified, not just the last iteration change.
    """

    pi: np.ndarray
    residual: float
    iterations: int


@dataclass(frozen=True)
class OccupationMeasure:
    """Joint measure ``rho[i, j] = pi[i] P[i, j]`` of a chain, dense."""

    rho: np.ndarray

    @property
    def pi(self):
        return self.rho.sum(axis=1)


@dataclass(frozen=True)
class MeanRewardVector:
    """Income ``v`` accumulated from each page until the next teleport;
    ``residual`` is the certified sup-norm error bound of ``v``."""

    v: np.ndarray
    rbar: np.ndarray
    iterations: int
    residual: float


def stationary(transition, tol=STATIONARY_TOL, max_iter=None, pi0=None):
    """Power iteration for the stationary measure, started at the chain's
    own solve of ``(I - damping S^T) pi = (1 - damping) teleport`` where
    it gives one (``transition.solve``), and at ``pi0`` or the teleport
    vector otherwise.

    ``e P = damping e S`` for every zero-sum ``e``, so ``damping / (1 -
    damping)`` times the L1 change of a step bounds the L1 error of its
    result; that bound is the stop test and the returned ``residual``.

    Parameters
    ----------
    transition : TransitionMatrix
        Read for ``damping``, ``teleport``, ``pi_step`` and ``solve``.
    tol : float
        Finite and positive: stop once the L1 error bound is at most ``tol``.
    max_iter : int, optional
        Default: the steps that take an L1 error of 2 below ``tol``.
    pi0 : ndarray, optional
        A probability vector, such as a nearby chain's measure.

    Returns
    -------
    StationaryDistribution

    Raises
    ------
    ValidationError
        When ``tol`` is not finite and positive.
    MaxIterExceeded
        With the best iterate attached as ``result``.
    """
    check_tol(tol)
    alpha, z = transition.damping, transition.teleport
    k = alpha / (1.0 - alpha)
    if max_iter is None:
        max_iter = iteration_budget(alpha, min(tol / (4.0 * k), 0.5)) + 50
    it, bound = 0, math.inf
    pi = transition.solve((1.0 - alpha) * z, transpose=True)
    if pi is None:
        pi = z.copy() if pi0 is None else pi0
    for it in range(1, max_iter + 1):
        nxt = transition.pi_step(pi)
        bound = k * float(np.abs(nxt - pi).sum())
        pi = nxt
        if bound <= tol:
            break
    result = StationaryDistribution(pi, bound, it)
    if bound > tol:
        raise MaxIterExceeded(
            f"stationary measure not converged after {max_iter} sweeps", result=result)
    return result


def occupation(transition, pi):
    """Dense occupation measure of a chain under a stationary ``pi``."""
    n = transition.num_pages
    if n > DENSE_CAP:
        raise TooLarge(f"occupation measure is dense; cap is {DENSE_CAP} pages")
    rho = pi[:, None] * transition.dense_p()
    return OccupationMeasure(rho)


def utility(measure, rewards):
    """Total income ``sum_ij rho[i, j] r[i, j]`` of an occupation measure."""
    rho = measure.rho if isinstance(measure, OccupationMeasure) else np.asarray(measure)
    pi = rho.sum(axis=1)
    total = float(np.dot(pi, rewards.base))
    delta = rewards.delta
    if delta.nnz:
        total += float(np.dot(rho[row_ids(delta.indptr), delta.indices], delta.data))
    return total


def utility_from_chain(transition, pi, rewards):
    """Total income without materializing the occupation measure."""
    rbar = _mean_row_rewards(transition, rewards)
    return float(np.dot(pi, rbar))


def _mean_row_rewards(transition, rewards):
    """Per-page expected income of one step, ``rbar_i = sum_j P_ij r_ij``."""
    rbar = rewards.base.copy()
    delta = rewards.delta
    if delta.nnz:
        pvals = transition.p_at(row_ids(delta.indptr) * transition.num_pages + delta.indices)
        rbar += segment_sums(pvals * delta.data, delta.indptr)
    return rbar


def span_iterate(step, x, damping, tol, max_iter, between=None, floor=0.0):
    """Fixed-point loop stopped on the MacQueen–Porteus bounds.

    ``step`` must be monotone with ``step(x + c) = step(x) + damping * c``
    for constants ``c``, as is every map ``x -> b + damping * (best
    row-stochastic row) . x``.  With ``y = step(x)``, ``d = y - x`` and
    ``k = damping / (1 - damping)``, the fixed point and the value of any
    policy greedy at ``y`` lie in ``[y + k min d, y + k max d]``.  The
    half-width shrinks at the chain's own mixing rate, not at the damping
    factor; the loop stops once it is at most ``tol``.  ``between(x,
    bound)``, if given, replaces the midpoint before every step but the
    first; the bracket of the next step certifies whatever it returns.
    It also stops once the half-width no longer shrinks within the
    rounding allowance ``floor * (1 + max |x|)``, where tol is out of reach.

    Returns ``(x, iterations, bound, converged)``: the midpoint of the
    last bracket and its half-width, a sup-norm error bound on ``x``.
    """
    k = damping / (1.0 - damping)
    bound = math.inf
    for it in range(1, max_iter + 1):
        if between is not None and it > 1:
            x = between(x, bound)
        y = step(x)
        d = y - x
        lo, hi = float(d.min()), float(d.max())
        last, bound = bound, k * (hi - lo) / 2.0
        x = y + k * (lo + hi) / 2.0
        if bound <= tol or last <= bound <= floor * (1.0 + float(np.abs(x).max())):
            return x, it, bound, True
    return x, max_iter, bound, False


def policy_value(transition, rbar, x0, tol, max_iter):
    """Value ``v = rbar + damping * S v`` of a fixed policy's chain.

    ``transition.solve(rbar)``, where it gives an answer, replaces the
    start ``x0``.  ``span_iterate`` on ``transition.apply_s`` then runs to
    half-width ``tol``, at most ``max_iter`` products with ``S``.  Returns
    ``(v, iterations, residual, converged)``; ``residual`` adds to the
    last half-width the rounding allowance ``ROUNDING * (max |rbar| + max
    |v|) / (1 - damping)``.
    """
    damping, exact = transition.damping, transition.solve(rbar)
    v, it, bound, converged = span_iterate(
        lambda x: rbar + damping * transition.apply_s(x), x0 if exact is None else exact,
        damping, tol, max_iter)
    scale = float(np.abs(rbar).max()) + float(np.abs(v).max())
    return v, it, bound + ROUNDING / (1.0 - damping) * scale, converged


def mean_reward_before_teleport(transition, rewards, tol=1e-9, max_iter=None):
    """Income ``v = rbar + damping * S v`` accumulated from each page until
    the next teleport, by ``policy_value`` from zero.  ``max_iter``
    defaults to a worst case.

    Raises
    ------
    ValidationError
        When ``tol`` is not finite and positive.
    MaxIterExceeded
        With the best iterate attached as ``result``.
    """
    check_tol(tol)
    alpha = transition.damping
    rbar = _mean_row_rewards(transition, rewards)
    if max_iter is None:
        reach = max(1.0, float(np.abs(rbar).max()) / (1.0 - alpha))
        max_iter = iteration_budget(alpha, min(tol * (1.0 - alpha) / alpha / reach, 0.5)) + 50
    v, it, bound, converged = policy_value(transition, rbar, np.zeros(rbar.size), tol, max_iter)
    result = MeanRewardVector(v, rbar, it, bound)
    if not converged:
        raise MaxIterExceeded(
            f"mean reward vector not converged after {max_iter} sweeps",
            result=result)
    return result


def utility_gradient(transition, rewards, tol=1e-12):
    """Dense derivative of total income with respect to the chain rows.

    ``G[i, j] = pi[i] * (v[j] + r[i, j])``: pairing G with any direction
    of admissible row changes gives the directional derivative.
    """
    n = transition.num_pages
    if n > DENSE_CAP:
        raise TooLarge(f"gradient matrix is dense; cap is {DENSE_CAP} pages")
    pi = stationary(transition, tol=tol).pi
    v = mean_reward_before_teleport(transition, rewards, tol=tol).v
    return pi[:, None] * (v[None, :] + rewards.dense())
