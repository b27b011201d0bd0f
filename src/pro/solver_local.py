"""Howard policy iteration for instances with local constraints only.

The improvement operator evaluated here is, per page,

    T_i(w) = damping * max over admissible outlink rows of row . (r_i + w)
             + (1 - damping) * sum_l teleport[l] * r[i, l]

a sup-norm contraction with modulus ``damping``.  Its fixed point is the
mean reward accumulated before the next teleport under the best
strategy, and ``(1 - damping) * teleport . w`` is the optimal income.
The inner maximization is closed-form for every admissible row family:
a threshold rule for uniform rows, and for a weight page its floor
``(1 - mu) q`` plus all the slack on its best non-banned target.

``value_iterate`` alternates one sweep of ``T`` with an evaluation of
that sweep's greedy policy, ``v = rbar + damping * S v`` (Howard's
policy iteration, Newton's method on the Bellman equation: Puterman,
*Markov Decision Processes*, 1994, sections 6.4-6.6).  Every
admissible row sums to one, so ``T(w + c) = T(w) + damping * c`` and
each sweep yields the MacQueen–Porteus bracket of ``chain.span_iterate``;
the loop is that function's, with the evaluation run between sweeps, and
stops once the bracket's half-width is at most ``tol``.  The evaluation
is the policy's own solve where its chain has one, and
``chain.policy_value`` otherwise; this module re-exports ``chain``'s
constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chain import (DENSE_EVAL_CAP, ROUNDING, check_tol, iteration_budget, policy_value,
                    span_iterate)
from .errors import CouplingPresent, MaxIterExceeded, ValidationError
from .graph import ContinuousChoice, DiscreteChoice, FixedPart, Strategy, TransitionMatrix
from .sparse import find_sorted, row_ids

# An iterative evaluation stops once its own bracket is below this share
# of the improvement sweep's (or at tol): only the sweep certifies, and
# an early policy need not be evaluated to tol.  On the web-subset and
# web-coupled benchmarks 1e-3 saves 40-55% of the products with S for
# 20-40% more sweeps; 1e-2 made web-weights, where sweeps cost most,
# slower.
EVAL_SHARE = 1e-3

# Above DENSE_EVAL_CAP pages, a weight page's search for its master skips
# at most this many excluded targets (banned, or scored apart by a per-link
# reward) at the top of ``w``; a page with more there scores its dense row,
# O(n) and vectorized, rather than one Python-level step per skipped target.
MASTER_WALK = 8


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the policy-iteration loop.

    The loop stops once the MacQueen–Porteus bracket of one improvement
    sweep has half-width at most ``tol`` (finite, positive), which then
    bounds the sup-norm error of the returned vector up to rounding.
    ``max_iter`` (at least 1) caps the policy steps (one sweep each); it
    defaults to the sweeps the plain contraction bound would need, a
    worst case.
    """

    tol: float = 1e-9
    max_iter: Optional[int] = None

    def __post_init__(self):
        check_tol(self.tol)
        if self.max_iter is not None and self.max_iter < 1:
            raise ValidationError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass(frozen=True)
class DpState:
    """Converged iterate: value vector, income, and loop diagnostics.

    ``residual`` is the certified sup-norm error bound of ``w``, in
    reward units: the last bracket's half-width plus the rounding
    allowance ``ROUNDING * (1 + max |w|) / (1 - damping)`` (on rescaled
    rewards); ``psi`` is then within ``(1 - damping) * residual`` of
    both the optimal income and the income of the extracted strategy.
    ``iterations`` counts improvement sweeps.  ``stop_reason`` is
    "policy_stable" when ``residual`` is at most ``tol`` on a sweep whose
    greedy policy repeated the one before, "bracket" when it is so while
    the policy still changed (where incomes tie within ``tol``, or on
    the first sweep of a warm start), "rounding" when the loop stopped
    with ``residual``, the allowance included, above ``tol``, and
    "max_iter" otherwise.
    """

    w: np.ndarray
    psi: float
    iterations: int
    residual: float
    stop_reason: str


class CompiledBellman:
    """One instance's improvement operator, precompiled for bulk sweeps.

    Rewards are taken as passed (the caller owns any rescaling, kept as
    ``scale``); ``reprice`` swaps in others on the same per-link pattern.  On a
    page with obligatory links the best uniform row keeps exactly the
    facultative links scoring above the page's best average ``t*``, the
    root of the decreasing convex ``sum_obl (c - t) + sum_fac max(c - t,
    0)``.  A Newton step from any ``t`` is the average of the obligatory
    links and the candidates above ``t``, so after one step the iterate
    sits at or below the root, and from there its candidate set only
    shrinks until it repeats.  All pages step at once over the
    facultative CSR, with per-page sums, so no page's rounding depends
    on another's.  The iteration starts from the previous sweep's roots:
    a hint that changes the number of steps, not the result.  Scores
    equal to ``t*`` stay out, which is the smallest-support tie rule of
    ``polytopes.greedy_uniform_support``.  A page without obligatory
    links takes its best single candidate (the lowest index on ties),
    or the no-link row when that is strictly better.

    A weight page's best row keeps its floor ``(1 - mu) q`` and puts the
    whole slack on one target ``j*``, the best non-banned ``r_ij + w_j``
    (every non-banned cap is 1, and the slack is below it).  The floors
    are one CSR block, scored together by a sparse product; ``j*``, the
    argmax of the rows ``r_i + w`` (``_masters_dense``, ``_masters_walk``),
    matches ``polytopes.linear_maximize``'s pick, the lowest index on ties.

    Each sweep also keeps its greedy policy (active candidates, no-link
    pages, weight pages' ``j*``), and sets ``repeated`` when that policy
    equals the previous sweep's.  ``policy`` gives it as a
    ``TransitionMatrix``: its chosen entries on the operator's one
    ``FixedPart`` (``part``: the obligatory links and floors, which the
    sweep, ``reprice`` and ``rbar`` sum by ``part.sums``).  ``evaluate``
    and ``chain.stationary`` solve it with ``rbar``, its one-step rewards,
    and ``extract`` turns it into a ``Strategy``.  The fixed pages F (no
    facultative link, no weight row) have one row in every policy; with
    0 < |F| and |F|, |C| at most ``DENSE_EVAL_CAP``, ``eliminates`` is set,
    ``part.blocks`` holds ``fixed_blocks`` and each policy is solved on the
    controlled pages C.  One instance serves one caller at a time.
    """

    def __init__(self, instance, rewards, scale=1.0):
        n = instance.num_pages
        self.n = n
        self.alpha = float(instance.damping)
        self.z = instance.teleport
        self.hang = instance.dangling_teleport
        o_indptr, f_indptr = instance.obl_indptr, instance.fac_indptr
        self.o_idx = instance.obl_indices
        self.f_idx = instance.fac_indices
        o_cnt, f_cnt = np.diff(o_indptr), np.diff(f_indptr)
        self.o_cnt = o_cnt.astype(float)
        self.o_page = row_ids(o_indptr)
        self.f_page = row_ids(f_indptr)
        # keys i * n + j of the per-link reward pattern, fixed for life
        self.keys = row_ids(rewards.delta.indptr) * n + rewards.delta.indices
        self.o_pos = self.slots(self.o_page, self.o_idx)
        self.f_pos = self.slots(self.f_page, self.f_idx)
        # facultative blocks, one reduceat segment per page that has one
        self.f_rows = np.flatnonzero(f_cnt > 0)
        self.f_starts = f_indptr[self.f_rows]
        self.f_seg = np.repeat(np.arange(self.f_rows.size), f_cnt[self.f_rows])
        self.seg_cnt = self.o_cnt[self.f_rows]
        self.newton = self.seg_cnt > 0
        # blocks of pages with no obligatory link, compacted
        self.fo_rows = self.f_rows[~self.newton]
        self.fo_pos = np.flatnonzero(~self.newton[self.f_seg])
        self.fo_seg = np.repeat(np.arange(self.fo_rows.size), f_cnt[self.fo_rows])
        self.fo_starts = np.cumsum(f_cnt[self.fo_rows]) - f_cnt[self.fo_rows]
        self.hint = None
        self._compile_weights(instance)
        # pages that always take the no-link row: no links, no skeleton
        self.plain_nl = (o_cnt == 0) & (f_cnt == 0)
        self.plain_nl[self.sk_page] = False
        # the fixed pages F and the controlled pages C
        fixed = np.ones(n, dtype=bool)
        fixed[self.f_rows] = fixed[self.sk_page] = False
        self.fixed, self.ctrl = np.flatnonzero(fixed), np.flatnonzero(~fixed)
        self.eliminates = 0 < self.fixed.size <= DENSE_EVAL_CAP and self.ctrl.size <= DENSE_EVAL_CAP
        self.part = FixedPart(n, self.o_page, self.o_idx, self.q_rows, self.q_idx, self.q_val,
                              self.fixed_blocks() if self.eliminates else None)
        self.reprice(rewards, scale)

    def slots(self, rows, cols):
        """Each coordinate's position in the reward pattern, or its size."""
        if not (rows.size and self.keys.size):
            return np.broadcast_to(self.keys.size, rows.shape) if rows.size else rows
        pos, hit = find_sorted(self.keys, rows * self.n + cols)
        return np.where(hit, pos, self.keys.size)

    def _compile_weights(self, instance):
        """Weight pages as arrays, in page order (``k`` numbers them)."""
        n = self.n
        store = instance.skeletons
        self.sk_page = store.pages
        self.slack = store.slack[self.sk_page]
        # the floors (1 - mu) q
        floor = store.floor
        self.q_rows = self.sk_page[row_ids(floor.indptr)]
        self.q_idx, self.q_val = floor.indices, floor.data
        self.q_pos = self.slots(self.q_rows, self.q_idx)
        # a page's per-link reward entries score apart from its base; they
        # and its banned targets are its excluded keys page * n + j
        on = find_sorted(self.sk_page, self.keys // n)[1]
        d_keys = self.keys[on]
        self.ban_keys = store.banned
        self.ban_at = (np.searchsorted(self.sk_page, store.banned // n), store.banned % n)
        e_keys = np.concatenate([d_keys, store.banned])
        # the stable argsort of sparse._sort_coords: a sort routine already
        # in use, not one more (each first use maps 0.1-0.4 MiB of code)
        self.e_keys = e_keys[np.argsort(e_keys, kind="stable")]
        self.e_max = int(np.bincount(self.e_keys // n, minlength=1).max())
        keep = ~find_sorted(store.banned, d_keys)[1]
        self.d_k = np.searchsorted(self.sk_page, d_keys[keep] // n)
        self.d_col = d_keys[keep] % n
        self.d_pos = np.flatnonzero(on)[keep]
        new = np.ones(self.d_k.size, dtype=bool)
        new[1:] = self.d_k[1:] != self.d_k[:-1]
        self.d_starts = np.flatnonzero(new)
        self.d_pages = self.d_k[self.d_starts]
        self.d_seg = np.cumsum(new) - 1

    def reprice(self, rewards, scale=1.0):
        """Swap in rewards, in units of ``1 / scale``, on the compiled
        per-link pattern.  The Newton roots stay as the next sweep's hint;
        the last policy is dropped, so no repeat spans two pricings."""
        base, self.rewards, self.scale = rewards.base, rewards, scale
        self.dext = delta = np.append(rewards.delta.data, 0.0)
        self.r_o = base[self.o_page] + delta[self.o_pos]
        self.r_f = base[self.f_page] + delta[self.f_pos]
        self.const = (1.0 - self.alpha) * rewards.row_means(self.z)
        self.no_link_base = rewards.row_means(self.hang)
        self.sk_base = base[self.sk_page]
        self.r_q = base[self.q_rows] + delta[self.q_pos]
        self.d_r = self.sk_base[self.d_k] + delta[self.d_pos]
        if self.n <= DENSE_EVAL_CAP:  # the weight pages' rows r_i, -inf where banned
            self.sk_r = np.repeat(self.sk_base[:, None], self.n, axis=1)
            self.sk_r[self.d_k, self.d_col] = self.d_r
            self.sk_r[self.ban_at] = -np.inf
        # each row's reward sum over its fixed block, for ``rbar``
        self.r_fixed = self.part.sums(self.r_o, self.q_val * self.r_q)
        # the greedy policy of the last sweep, and whether it repeated the
        # one before
        self.active = self.size = self.use_nl = self.jstar = self.chain = None
        self.repeated = False

    def apply(self, w):
        """One simultaneous sweep: returns ``T(w)`` and keeps its policy."""
        return self._sweep(np.asarray(w, dtype=float))

    def _sweep(self, w):
        alpha = self.alpha
        so = self.part.sums(w[self.o_idx] + self.r_o, self.q_val * (self.r_q + w[self.q_idx]))
        nl = self.no_link_base + float(np.dot(self.hang, w))
        # a row's divisor: its uniform support, 1 on the other rows
        size = np.maximum(self.o_cnt, 1.0)
        val = so / size
        use_nl = self.plain_nl.copy()
        if self.f_rows.size:
            c = w[self.f_idx] + self.r_f
            t, active, k = self._threshold(c, so[self.f_rows])
            pages = self.f_rows[self.newton]
            val[pages] = t[self.newton]
            size[pages] += k[self.newton]
            if self.fo_rows.size:
                cf = c[self.fo_pos]
                top = np.maximum.reduceat(cf, self.fo_starts)
                hit = np.where(cf == top[self.fo_seg], np.arange(cf.size), cf.size)
                first = np.minimum.reduceat(hit, self.fo_starts)
                take = top >= nl[self.fo_rows]  # the link wins ties
                val[self.fo_rows] = np.where(take, top, nl[self.fo_rows])
                size[self.fo_rows] = 1.0
                use_nl[self.fo_rows] = ~take
                active[self.fo_pos[first[take]]] = True
        else:
            active = np.zeros(0, dtype=bool)
        np.copyto(val, nl, where=self.plain_nl)
        out = alpha * val + self.const
        jstar = np.zeros(0, dtype=np.int64)
        if self.sk_page.size:
            top, jstar = (self._masters_dense(w) if self.n <= DENSE_EVAL_CAP
                          else self._masters_walk(w))
            lift = self.slack * np.where(jstar >= 0, top, 0.0)
            out[self.sk_page] = alpha * (so[self.sk_page] + lift) + self.const[self.sk_page]
        self.repeated = (self.jstar is not None
                         and np.array_equal(active, self.active)
                         and np.array_equal(use_nl, self.use_nl)
                         and np.array_equal(jstar, self.jstar))
        self.active, self.size, self.use_nl, self.jstar = active, size, use_nl, jstar
        self.chain = None
        return out

    def _masters_dense(self, w):
        """``_masters_walk``'s answer by ``argmax`` over the dense rows ``r_i
        + w``, for the sweep up to ``DENSE_EVAL_CAP`` pages, where it costs less."""
        s = self.sk_r + w
        top = s.max(axis=1)
        return top, np.where(np.isfinite(top), s.argmax(axis=1), -1)

    def _masters_walk(self, w):
        """Per weight page, the best non-banned score ``r_ij + w_j`` and
        its lowest-index argmax ``j*`` (-1 when every target is banned),
        for the sweep above ``DENSE_EVAL_CAP`` pages.

        Scores round as in ``_masters_dense``'s rows.  Off its per-link
        reward entries a page scores ``b + w_j``, whose best is ``b + M``
        for ``M`` the largest ``w_j`` not excluded, found among the top
        ``c`` entries of ``w`` (``c`` is one more than the most excluded
        targets of a page, at most ``MASTER_WALK + 1``).  A ``w_j`` that
        rounds to the same score lies less than one ulp of that score
        below ``M``, so the lowest index at or above that band (from the
        running maximum of ``w``) is ``j*`` when it is neither excluded
        nor rounded lower.  Otherwise, or when all ``c`` candidates are
        excluded and more targets remain, the page scores its dense row.
        The per-link entries are scored one by one under the same tie
        rule.
        """
        n, num = self.n, self.sk_page.size
        top, jstar = np.full(num, -np.inf), np.full(num, n)
        c = min(self.e_max, MASTER_WALK) + 1
        c = min(c, n)
        cand = np.argpartition(w, n - c)[n - c:] if c < n else np.arange(n)
        cand = cand[np.argsort(-w[cand], kind="stable")]
        # skip each page's excluded candidates, at most c of them
        pos = np.zeros(num, dtype=np.int64)
        live = np.arange(num)
        while live.size:
            live = live[find_sorted(self.e_keys, self.sk_page[live] * n + cand[pos[live]])[1]]
            pos[live] += 1
            live = live[pos[live] < c]
        ks = np.flatnonzero(pos < c)
        # with c < n, a page whose c candidates are all excluded has more
        # targets below them; with c == n it has none but its per-link ones
        walked_out = np.flatnonzero(pos == c) if c < n else ks[:0]
        m = w[cand[pos[ks]]]
        top[ks] = self.sk_base[ks] + m
        band = m - 2.0 * np.spacing(np.abs(top[ks]))
        first = np.searchsorted(np.maximum.accumulate(w), band)
        ok = ((self.sk_base[ks] + w[first] == top[ks])
              & ~find_sorted(self.e_keys, self.sk_page[ks] * n + first)[1])
        jstar[ks[ok]] = first[ok]
        if self.d_r.size:
            s = self.d_r + w[self.d_col]
            best = np.maximum.reduceat(s, self.d_starts)
            at = np.minimum.reduceat(np.where(s == best[self.d_seg], self.d_col, n),
                                     self.d_starts)
            kd = self.d_pages
            tie = np.where(best == top[kd], np.minimum(jstar[kd], at), jstar[kd])
            jstar[kd] = np.where(best > top[kd], at, tie)
            top[kd] = np.maximum(top[kd], best)
        for k in np.concatenate([ks[~ok], walked_out]):
            page = self.sk_page[k]
            row = np.full(n, self.sk_base[k])
            idx, val = self.rewards.delta.row_slice(page)
            row[idx] += val
            score = row + w
            lo, hi = np.searchsorted(self.ban_keys, [page * n, page * n + n])
            score[self.ban_keys[lo:hi] - page * n] = -np.inf
            jstar[k] = int(np.argmax(score))
            top[k] = score[jstar[k]]
        jstar[~np.isfinite(top)] = -1
        return top, jstar

    def _threshold(self, c, base):
        """Per-block root ``t*``, active mask and active count (Newton).

        Blocks of pages without obligatory links keep ``t = inf`` and no
        active candidate; ``_sweep`` handles them.
        """
        seg, starts, cnt, newton = self.f_seg, self.f_starts, self.seg_cnt, self.newton
        t = np.full(starts.size, np.inf)
        if self.hint is None:
            t[newton] = base[newton] / cnt[newton]
        else:
            t[newton] = self.hint[newton]
        active = c > t[seg]
        k = np.add.reduceat(active, starts, dtype=np.int64)
        first = True
        while True:
            s = np.add.reduceat(np.where(active, c, 0.0), starts)
            np.divide(base + s, cnt + k, out=t, where=newton)
            new = c > t[seg]
            if not first:
                new &= active
            k_new = np.add.reduceat(new, starts, dtype=np.int64)
            # after the first step the sets are nested, so equal counts
            # mean equal sets
            if not first and np.array_equal(k_new, k):
                break
            active, k, first = new, k_new, False
        self.hint = t
        return t, active, k

    def policy(self):
        """The last sweep's policy as a ``TransitionMatrix``, built once until
        the next sweep or ``reprice``: the operator's fixed part, then the
        active candidates and each weight page's slack on its master."""
        if self.chain is None:
            act = self.active
            rows, cols = self.f_page[act], self.f_idx[act]
            vals = np.ones(rows.size)
            if self.sk_page.size:
                has = self.jstar >= 0
                rows = np.concatenate([rows, self.sk_page[has]])
                cols = np.concatenate([cols, self.jstar[has]])
                vals = np.concatenate([vals, self.slack[has]])
            self.chain = TransitionMatrix(self.n, self.alpha, self.z, self.hang, self.part,
                                          rows, cols, vals, self.size, self.use_nl, act)
        return self.chain

    def fixed_blocks(self):
        """``(F, C, M^-1, B)`` for ``M = I - damping S_FF`` and ``B = damping
        M^-1 S_FC``: F's rows, uniform on the obligatory links or the no-link
        row, are the same in every policy."""
        f, s = self.fixed, np.zeros((self.n, self.n))
        s[self.o_page, self.o_idx] = 1.0 / self.o_cnt[self.o_page]
        s[self.plain_nl] = self.hang
        s_f = s[f]
        m_inv = np.linalg.inv(np.eye(f.size) - self.alpha * s_f[:, f])
        return f, self.ctrl, m_inv, self.alpha * (m_inv @ s_f[:, self.ctrl])

    def rbar(self):
        """``rbar_i = sum_j P_ij r_ij`` of the last sweep's policy and the
        operator's rewards, summed on the policy's blocks."""
        chain, has = self.policy(), self.jstar >= 0
        r_m = self.sk_base[has] + self.dext[self.slots(self.sk_page[has], self.jstar[has])]
        chosen = np.concatenate([self.r_f[self.active], r_m])
        return self.alpha * chain.row_sums(self.r_fixed, chosen, self.no_link_base) + self.const

    def evaluate(self, x0, tol, max_iter):
        """Value ``v = rbar + damping * S v`` of the last sweep's policy:
        its chain's own solve where there is one, as it is (only the sweep
        certifies), and ``chain.policy_value`` from ``x0`` otherwise.  A
        repeated policy's solve would only return ``x0``, which is kept:
        the loop goes on as value iteration, past the solve's rounding."""
        if self.repeated and (self.eliminates or self.n <= DENSE_EVAL_CAP):
            return x0
        chain, rbar = self.policy(), self.rbar()
        v = chain.solve(rbar)
        return policy_value(chain, rbar, x0, tol, max_iter)[0] if v is None else v

    def extract(self, w):
        """Strategy attaining ``T(w)``, page by page."""
        self._sweep(np.asarray(w, dtype=float))
        picked = self.f_idx[self.active].tolist()
        ends = np.cumsum(np.bincount(self.f_seg[self.active], minlength=self.f_rows.size)).tolist()
        choices = {i: DiscreteChoice(tuple(picked[a:b]))
                   for i, a, b in zip(self.f_rows.tolist(), [0] + ends, ends)}
        for page, j in zip(self.sk_page.tolist(), self.jstar.tolist()):
            choices[page] = (ContinuousChoice((j,), (1.0,)) if j >= 0
                             else ContinuousChoice((), ()))
        return Strategy(choices)


def value_iterate(instance, config=None, w0=None, bellman=None):
    """Policy iteration for the best local strategy.

    Each step sweeps the improvement operator once at ``w``; the sweep's
    bracket certifies its midpoint, and the loop stops once the bracket's
    half-width is at most ``tol``.  Otherwise ``w`` becomes the value of
    the sweep's greedy policy (``CompiledBellman.evaluate``), to
    ``max(tol, EVAL_SHARE * bracket)``.  After an exact evaluation the
    bracket closes when the greedy policy repeats, or changes only where
    incomes tie within ``tol``; the stop does not wait for a repeat,
    since rounding can make the greedy policy alternate between such ties.
    A ``tol`` below the values' rounding allowance cannot be met; the
    loop then stops once the bracket no longer shrinks within it.

    Parameters
    ----------
    instance : WebGraphInstance
        Must carry no coupling rows, unless ``bellman`` prices them in.
    config : SolverConfig, optional
    w0 : ndarray, optional
        Warm start for the value vector, in reward units; the first step
        then starts from the policy greedy at ``w0``.
    bellman : CompiledBellman, optional
        An operator of ``instance`` whose rewards the caller has set
        (``CompiledBellman.reprice``); they replace ``instance.rewards``.

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
    Rewards are rescaled by ``1 / max(1, sup |r|)`` (``bellman.scale``),
    which the default worst-case budget assumes; all reported quantities
    are in original units.
    """
    if instance.coupling and bellman is None:
        raise CouplingPresent("instance has coupling rows; use the coupled solver")
    config = config or SolverConfig()
    alpha = instance.damping
    if bellman is None:
        scale = max(1.0, instance.rewards.max_abs())
        bellman = CompiledBellman(instance, instance.rewards.scaled(1.0 / scale), scale)
    comp, scale = bellman, bellman.scale
    tol = config.tol / scale
    theta = tol * (1.0 - alpha) / alpha
    budget = iteration_budget(alpha, min(theta / (2.0 / (1.0 - alpha)), 0.5)) + 10
    max_iter = budget if config.max_iter is None else config.max_iter
    w = np.zeros(instance.num_pages) if w0 is None else np.asarray(w0, dtype=float) / scale
    w, done, bound, converged = span_iterate(
        comp.apply, w, alpha, tol, max_iter,
        between=lambda x, b: comp.evaluate(x, max(tol, EVAL_SHARE * b), budget),
        floor=ROUNDING / (1.0 - alpha))
    bound += ROUNDING / (1.0 - alpha) * (1.0 + float(np.abs(w).max()))
    stop = ("max_iter" if not converged else "rounding" if bound > tol
            else "policy_stable" if comp.repeated else "bracket")
    w_out = w * scale
    psi = (1.0 - alpha) * float(np.dot(instance.teleport, w_out))
    state = DpState(w_out, psi, done, bound * scale, stop)
    if stop == "max_iter":
        raise MaxIterExceeded(
            f"no convergence after {max_iter} policy steps "
            f"(error bound {state.residual:.3e})",
            result=(state, comp.extract(w)))
    return state, comp.extract(w)
