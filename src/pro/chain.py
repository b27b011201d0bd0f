"""Chain quantities: stationary measures, occupation measures, income.

The total income of a chain ``P`` with stationary measure ``pi`` is the
expectation of the per-traversal reward under the occupation measure
``rho[i, j] = pi[i] P[i, j]``.  Income can equally be written through the
mean reward accumulated before the next teleportation, the vector ``v``
solving ``v = rbar + damping * S v``; that vector is what the local
optimizer's fixed point reproduces, so it is the bridge between chain
evaluation and optimization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import MaxIterExceeded, TooLarge, ZeroRow
from .graph import Rewards, TransitionMatrix
from .sparse import row_ids, segment_sums

DENSE_CAP = 2000


@dataclass(frozen=True)
class StationaryDistribution:
    """Stationary row vector of a surfer chain.

    ``residual`` is the exactly evaluated ``max_j |pi - pi P|_j`` of the
    returned iterate, so it is a true invariance bound, not the last
    iteration change.
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
    """Expected income accumulated from a page until the next teleport.

    ``residual`` is the certified sup-norm error bound of ``v``.
    """

    v: np.ndarray
    rbar: np.ndarray
    iterations: int
    residual: float


def stationary(transition, tol=1e-12, max_iter=None):
    """Power iteration for the stationary measure, started at teleport.

    Parameters
    ----------
    transition : TransitionMatrix
    tol : float
        Stop once the L1 change of an iteration drops to ``tol``.
    max_iter : int, optional
        Default sizes the sweep budget from the damping factor.

    Returns
    -------
    StationaryDistribution

    Raises
    ------
    MaxIterExceeded
        With the best iterate attached as ``result``.
    """
    alpha = transition.damping
    if max_iter is None:
        max_iter = max(1, math.ceil(math.log(min(tol, 0.5)) / math.log(alpha))) + 50
    pi = transition.teleport.copy()
    for it in range(1, max_iter + 1):
        nxt = transition.pi_step(pi)
        change = float(np.abs(nxt - pi).sum())
        pi = nxt
        if change <= tol:
            residual = float(np.abs(pi - transition.pi_step(pi)).max())
            return StationaryDistribution(pi, residual, it)
    residual = float(np.abs(pi - transition.pi_step(pi)).max())
    raise MaxIterExceeded(
        f"stationary measure not converged after {max_iter} sweeps",
        result=StationaryDistribution(pi, residual, max_iter),
    )


def occupation(transition, pi):
    """Dense occupation measure of a chain under a stationary ``pi``."""
    n = transition.num_pages
    if n > DENSE_CAP:
        raise TooLarge(f"occupation measure is dense; cap is {DENSE_CAP} pages")
    rho = pi[:, None] * transition.dense_p()
    return OccupationMeasure(rho)


def recover(measure):
    """Invert the occupation map: rows renormalize to the chain.

    Returns
    -------
    (P, pi) : (ndarray, ndarray)

    Raises
    ------
    ZeroRow
        If some page carries no mass, so its row cannot be recovered.
    """
    rho = measure.rho if isinstance(measure, OccupationMeasure) else np.asarray(measure)
    pi = rho.sum(axis=1)
    if np.any(pi <= 0.0):
        bad = int(np.argmin(pi))
        raise ZeroRow(f"occupation measure has an empty row at page {bad}")
    return rho / pi[:, None], pi


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
        alpha = transition.damping
        # dangling rows store no entries and jump by dangling_teleport
        svals = np.where(transition.dangling[row_ids(delta.indptr)],
                         transition.dangling_teleport[delta.indices],
                         transition.srows.gather_at(delta.indptr, delta.indices))
        pvals = alpha * svals + (1.0 - alpha) * transition.teleport[delta.indices]
        rbar += segment_sums(pvals * delta.data, delta.indptr)
    return rbar


def span_iterate(step, x, damping, tol, max_iter, between=None):
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
        bound = k * (hi - lo) / 2.0
        x = y + k * (lo + hi) / 2.0
        if bound <= tol:
            return x, it, bound, True
    return x, max_iter, bound, False


def mean_reward_before_teleport(transition, rewards, tol=1e-9, max_iter=None):
    """Fixed-point iteration for ``v = rbar + damping * S v``.

    Every row of ``S`` sums to one, so the loop stops on the bracket of
    ``span_iterate``: ``residual`` bounds the sup-norm error of ``v`` and
    is at most ``tol``.  ``max_iter`` defaults to a worst case.

    Raises
    ------
    MaxIterExceeded
        With the best iterate attached as ``result``.
    """
    alpha = transition.damping
    rbar = _mean_row_rewards(transition, rewards)
    if max_iter is None:
        threshold = tol * (1.0 - alpha) / alpha
        scale = max(1.0, float(np.abs(rbar).max()) / (1.0 - alpha))
        max_iter = max(1, math.ceil(math.log(min(threshold / scale, 0.5))
                                    / math.log(alpha))) + 50
    v, it, bound, converged = span_iterate(
        lambda x: rbar + alpha * transition.apply_s(x),
        np.zeros(transition.num_pages), alpha, tol, max_iter)
    result = MeanRewardVector(v, rbar, it, bound)
    if not converged:
        raise MaxIterExceeded(
            f"mean reward vector not converged after {max_iter} sweeps",
            result=result)
    return result


def reward_transform(rewards, teleport, damping):
    """Shift follow-only rewards so teleport steps can be priced at zero.

    A reward scheme paid on every transition of ``P`` is equivalent to
    one paid only when an actual outlink is followed; this returns the
    equivalent scheme ``r[i, j] - (1 - damping) * sum_l r[i, l] teleport[l]``.
    """
    row_price = rewards.row_means(teleport)
    return Rewards(rewards.base - (1.0 - damping) * row_price, rewards.delta)


def truncation_error_bound(damping, horizon, rbar_sup):
    """Sup-norm error of ``v`` when sums stop after ``horizon`` hops.

    Valid for chains where every page has an outlink.
    """
    return damping ** (horizon + 1) * 2.0 / (1.0 - damping) * rbar_sup


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
