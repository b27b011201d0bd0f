"""Ergodic value iteration for instances with local constraints only.

The improvement operator evaluated here is, per page,

    T_i(w) = damping * max over admissible outlink rows of row . (r_i + w)
             + (1 - damping) * sum_l teleport[l] * r[i, l]

a sup-norm contraction with modulus ``damping``.  Its fixed point is the
mean reward accumulated before the next teleport under the best
strategy, and ``(1 - damping) * teleport . w`` is the optimal income.
The inner maximization is closed-form for every admissible row family:
a greedy support grow for uniform rows, water-filling for bounded rows.
Every admissible row sums to one, so ``T(w + c) = T(w) + damping * c``
and the loop stops on the MacQueen–Porteus bracket of
``chain.span_iterate``, which shrinks at the optimal chain's mixing rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chain import span_iterate
from .errors import CouplingPresent, MaxIterExceeded, ValidationError
from .graph import ContinuousChoice, DiscreteChoice, Strategy
from .polytopes import BoxSimplex, linear_maximize
from .sparse import row_ids, segment_sums


def iteration_budget(damping, tol):
    """Worst-case sweeps that shrink a unit sup-norm error below ``tol``.

    The contraction modulus of one sweep is the damping factor, so the
    budget is ``ceil(log(tol) / log(damping))``.  The span stop of
    ``value_iterate`` usually ends far earlier; only an optimal chain
    that never mixes, such as a periodic one, needs about this many.
    """
    if not 0.0 < damping < 1.0:
        raise ValidationError("damping must lie strictly between 0 and 1")
    if not 0.0 < tol < 1.0:
        raise ValidationError("tolerance must lie strictly between 0 and 1")
    return int(math.ceil(math.log(tol) / math.log(damping)))


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the fixed-point loop.

    ``tol`` bounds the true sup-norm error of the returned vector: the
    loop stops once the MacQueen–Porteus bracket of one simultaneous
    sweep has half-width at most ``tol``.  ``max_iter`` defaults to the
    sweeps the plain contraction bound would need, a worst case.
    """

    tol: float = 1e-9
    max_iter: Optional[int] = None


@dataclass(frozen=True)
class DpState:
    """Converged iterate: value vector, income, and loop diagnostics.

    ``residual`` is the certified sup-norm error bound of ``w``, in
    reward units; ``psi`` is then within ``(1 - damping) * residual`` of
    both the optimal income and the income of the extracted strategy.
    """

    w: np.ndarray
    psi: float
    iterations: int
    residual: float


def _segment_min(values, indptr, fill):
    out = np.full(indptr.size - 1, fill, dtype=values.dtype)
    nonempty = indptr[:-1] < indptr[1:]
    if np.any(nonempty):
        out[nonempty] = np.minimum.reduceat(values, indptr[:-1][nonempty])
    return out


class CompiledBellman:
    """One instance's improvement operator, precompiled for bulk sweeps.

    Rewards are taken as passed (the caller owns any rescaling).  The
    uniform-row maximization over all discrete pages runs as one
    vectorized pass: candidates are sorted per page by score, prefix
    averages compared against the next score, and the first stop
    position recovered with a segmented minimum.  That reproduces the
    sequential greedy exactly, including tie handling.
    """

    def __init__(self, instance, rewards):
        self.instance = instance
        self.rewards = rewards
        n = instance.num_pages
        self.n = n
        self.alpha = float(instance.damping)
        self.z = instance.teleport
        self.hang = instance.dangling_teleport
        self.o_indptr = instance.obl_indptr
        self.o_idx = instance.obl_indices
        self.f_indptr = instance.fac_indptr
        self.f_idx = instance.fac_indices
        o_cnt = np.diff(self.o_indptr)
        f_cnt = np.diff(self.f_indptr)
        self.o_cnt_d = o_cnt.astype(float)
        self.o_safe = np.maximum(self.o_cnt_d, 1.0)
        self.haso = o_cnt > 0
        self.hasf = f_cnt > 0
        self.f_page = row_ids(self.f_indptr)
        delta = rewards.delta
        self.r_o = rewards.base[row_ids(self.o_indptr)] + delta.gather_at(self.o_indptr, self.o_idx)
        self.r_f = rewards.base[self.f_page] + delta.gather_at(self.f_indptr, self.f_idx)
        self.const = (1.0 - self.alpha) * rewards.row_means(self.z)
        self.no_link_base = rewards.row_means(self.hang)
        self.starts = self.f_indptr[:-1]
        self.seg_last = self.f_indptr[1:][f_cnt > 0] - 1
        seg_start_flat = self.starts[self.f_page]
        k_flat = np.arange(self.f_idx.size) - seg_start_flat + 1
        self.seg_start_flat = seg_start_flat
        self.denom_flat = self.o_cnt_d[self.f_page] + k_flat
        self.skel = {}
        for sk in instance.skeletons:
            box = BoxSimplex(sk.lower(), sk.upper())
            row = np.full(n, rewards.base[sk.page])
            idx, val = delta.row_slice(sk.page)
            row[idx] += val
            self.skel[sk.page] = (box, row)

    def apply(self, w):
        """One simultaneous sweep: returns ``T(w)``."""
        return self._sweep(np.asarray(w, dtype=float))[0]

    def _sweep(self, w, detail=False):
        alpha = self.alpha
        so = segment_sums(w[self.o_idx] + self.r_o, self.o_indptr)
        nl = self.no_link_base + float(np.dot(self.hang, w))
        val0 = np.where(self.haso, so / self.o_safe, nl)
        F = self.f_idx.size
        info = None
        if F == 0:
            val = val0
            use_nl = ~self.haso
            if detail:
                info = {"k_star": np.zeros(self.n, dtype=np.int64),
                        "use_nl": use_nl,
                        "sorted_targets": self.f_idx,
                        "skel_rows": {}}
        else:
            c = w[self.f_idx] + self.r_f
            order = np.lexsort((self.f_idx, -c, self.f_page))
            cs = c[order]
            ps = np.concatenate(([0.0], np.cumsum(cs)))
            prefix = ps[1:] - ps[self.seg_start_flat]
            avg = (so[self.f_page] + prefix) / self.denom_flat
            nxt = np.empty(F)
            nxt[:-1] = cs[1:]
            nxt[self.seg_last] = -np.inf
            pos = np.where(avg >= nxt, np.arange(F), F)
            first = _segment_min(pos, self.f_indptr, fill=F)
            k_star = np.zeros(self.n, dtype=np.int64)
            k_star[self.hasf] = first[self.hasf] - self.starts[self.hasf] + 1
            first_cand = np.full(self.n, -np.inf)
            first_cand[self.hasf] = cs[self.starts[self.hasf]]
            k_star[self.haso & (val0 >= first_cand)] = 0
            pick = ps[self.starts + k_star] - ps[self.starts]
            denom = np.maximum(self.o_cnt_d + k_star, 1.0)
            val = np.where(k_star > 0, (so + pick) / denom, val0)
            use_nl = ~self.haso & (~self.hasf | (val < nl))
            val = np.where(use_nl, nl, val)
            if detail:
                info = {"k_star": k_star, "use_nl": use_nl,
                        "sorted_targets": self.f_idx[order], "skel_rows": {}}
        t = alpha * val + self.const
        for page, (box, rrow) in self.skel.items():
            res = linear_maximize(box, rrow + w)
            t[page] = alpha * res.value + self.const[page]
            if detail:
                info["skel_rows"][page] = res.row
        return t, info

    def extract(self, w):
        """Strategy attaining ``T(w)``, page by page."""
        _, info = self._sweep(np.asarray(w, dtype=float), detail=True)
        choices = {}
        for i in np.flatnonzero(self.hasf):
            i = int(i)
            if info["use_nl"][i] or info["k_star"][i] == 0:
                choices[i] = DiscreteChoice(())
            else:
                s = self.starts[i]
                picked = info["sorted_targets"][s:s + info["k_star"][i]]
                choices[i] = DiscreteChoice(tuple(int(j) for j in np.sort(picked)))
        for page in sorted(self.skel):
            x = info["skel_rows"][page]
            row = self.alpha * x + (1.0 - self.alpha) * self.z
            choices[page] = ContinuousChoice(row)
        return Strategy(choices)


def bellman_apply(instance, w):
    """One raw sweep of the improvement operator at the instance rewards."""
    return CompiledBellman(instance, instance.rewards).apply(w)


def value_iterate(instance, config=None, w0=None):
    """Fixed-point loop for the best local strategy.

    Parameters
    ----------
    instance : WebGraphInstance
        Must carry no coupling rows.
    config : SolverConfig, optional
    w0 : ndarray, optional
        Warm start for the value vector, in reward units.

    Returns
    -------
    (DpState, Strategy)
        The strategy is read off once, at the final iterate.

    Raises
    ------
    CouplingPresent
        If the instance has coupling rows.
    MaxIterExceeded
        With the best ``(DpState, Strategy)`` pair attached as ``result``.

    Notes
    -----
    Rewards are rescaled by ``1 / max(1, sup |r|)`` internally, which
    the default worst-case budget assumes; all reported quantities are
    in original units.
    """
    if instance.coupling:
        raise CouplingPresent("instance has coupling rows; use the coupled solver")
    config = config or SolverConfig()
    alpha = instance.damping
    scale = max(1.0, instance.rewards.max_abs())
    comp = CompiledBellman(instance, instance.rewards.scaled(1.0 / scale))
    tol = config.tol / scale
    if config.max_iter is None:
        theta = tol * (1.0 - alpha) / alpha
        worst = 2.0 / (1.0 - alpha)
        max_iter = max(1, math.ceil(math.log(min(theta / worst, 0.5))
                                    / math.log(alpha))) + 10
    else:
        max_iter = config.max_iter
    w = np.zeros(instance.num_pages) if w0 is None else np.asarray(w0, dtype=float) / scale
    w, done, bound, converged = span_iterate(comp.apply, w, alpha, tol, max_iter)
    w_out = w * scale
    psi = (1.0 - alpha) * float(np.dot(instance.teleport, w_out))
    state = DpState(w_out, psi, done, bound * scale)
    if not converged:
        raise MaxIterExceeded(
            f"no convergence after {max_iter} sweeps (error bound {state.residual:.3e})",
            result=(state, comp.extract(w)))
    return state, comp.extract(w)
