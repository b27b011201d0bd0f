"""Structure audits: value ordering, link classification, optimality defects.

The chain's pre-teleport value vector ``v`` orders the pages, and each
page's keep-or-drop decisions reduce to one threshold: a link's score
``r[i, j] + v[j]`` against the page's bar, its chain row's average score.
By ``v = rbar + damping * S v`` the bar is ``(v[i] - (1 - damping) *
sum_l z[l] r[i, l]) / damping``, for per-page and per-link rewards alike.
Links strictly above the bar sit in every optimal link subset, links
strictly below in none, so a strategy with no violations is optimal.

The defect audit takes weight pages too: its defects are ``T(v) - v`` of
the local solver's improvement operator ``T`` at the chain's own ``v``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import mean_reward_before_teleport
from .errors import ValidationError
from .graph import DiscreteChoice, build_transition
from .solver_local import CompiledBellman
from .sparse import locate, row_ids

AUDIT_V_TOL = 1e-12
KINDS = np.array(["tie", "required", "forbidden"])  # indexed by the margin's sign


@dataclass(frozen=True)
class Violation:
    """A strategy decision contradicting a link's classification.

    ``problem`` is "missing" for a required link left off and "extra"
    for a forbidden link switched on.
    """

    page: int
    target: int
    kind: str
    problem: str


@dataclass(frozen=True)
class MasterReport:
    """Value ordering plus per-link audit of one strategy.

    ``pages``, ``targets``, ``kinds`` and ``margins`` run over the
    facultative links in CSR order.  A margin is the link's score minus
    its page's bar; the kind is "required", "forbidden", or "tie" within
    the audit tolerance.
    """

    master: int
    ordering: tuple
    values: np.ndarray
    pages: np.ndarray
    targets: np.ndarray
    kinds: np.ndarray
    margins: np.ndarray
    violations: tuple

    def to_report_dict(self):
        return {
            "master": self.master,
            "ordering": [int(i) for i in self.ordering],
            "values": [float(x) for x in self.values],
            "classifications": [
                {"page": i, "target": j, "kind": kind, "margin": m}
                for i, j, kind, m in zip(self.pages.tolist(), self.targets.tolist(),
                                         self.kinds.tolist(), self.margins.tolist())
            ],
            "violations": [
                {"page": w.page, "target": w.target, "kind": w.kind,
                 "problem": w.problem}
                for w in self.violations
            ],
        }


def master_ordering(instance, strategy=None, tol=1e-9):
    """Audit a strategy of a discrete instance.

    Parameters
    ----------
    instance : WebGraphInstance
    strategy : Strategy or None
        ``None`` audits the default (nothing activated).
    tol : float
        Margin below which a link counts as a tie; scaled by the bar.

    Returns
    -------
    MasterReport

    Raises
    ------
    ValidationError
        For weight-constrained pages, non-subset choices, or a ``tol``
        that is not finite and nonnegative.
    """
    if not 0.0 <= tol < np.inf:
        raise ValidationError(f"tol must be finite and nonnegative, got {tol}")
    if instance.skeletons:
        raise ValidationError("the ordering audit handles discrete pages only")
    trans = build_transition(instance, strategy)
    choices = strategy.choices if strategy is not None else {}
    f_indptr, f_idx, alpha = instance.fac_indptr, instance.fac_indices, instance.damping
    for i, ch in sorted(choices.items()):
        if f_indptr[i + 1] > f_indptr[i] and not isinstance(ch, DiscreteChoice):
            raise ValidationError(f"page {i} carries a non-subset choice")
    rewards = instance.rewards
    v = mean_reward_before_teleport(trans, rewards, tol=AUDIT_V_TOL).v
    # a facultative link is on exactly when the chain holds it
    f_page = row_ids(f_indptr)
    s = trans.srows
    active = locate(s.indptr, s.indices, s.num_cols, f_page, f_idx)[1]
    bar = ((v - (1.0 - alpha) * rewards.row_means(trans.teleport)) / alpha)[f_page]
    margin = rewards.base[f_page] + rewards.delta.gather_at(f_indptr, f_idx) + v[f_idx] - bar
    scale = tol * np.maximum(1.0, np.abs(bar))
    sign = (margin > scale).astype(np.int8) - (margin < -scale)  # +1 required, -1 forbidden
    kinds = KINDS[sign]
    wrong = np.flatnonzero(np.where(active, sign == -1, sign == 1))
    violations = tuple(Violation(int(f_page[k]), int(f_idx[k]), str(kinds[k]),
                                 "extra" if active[k] else "missing") for k in wrong)
    order = np.argsort(-v, kind="stable")
    return MasterReport(int(order[0]), tuple(order.tolist()), v,
                        f_page, f_idx, kinds, margin, violations)


def continuous_optimality_check(instance, transition, tol=1e-7):
    """Per-page improvement defects of an admissible chain.

    For each page the defect is the gain available from swapping the
    page's outlink row for the best one at the chain's own value vector;
    a chain with all defects at most ``tol`` is optimal.  Works for both
    link subsets and weight-constrained pages.

    The chain's value is ``v = rbar + damping * S v``, with ``rbar`` each
    row's mean reward under the chain, per page or per link alike, so one
    sweep of the improvement operator gives exactly that gain:
    ``T(v)_i - v_i`` is the best row's ``rbar + damping * row . v`` minus
    the chain's own.  The defects are ``max(T(v) - v, 0)``.

    Returns
    -------
    (ok, defects) : (bool, ndarray)
    """
    v = mean_reward_before_teleport(transition, instance.rewards,
                                    tol=AUDIT_V_TOL).v
    defects = np.maximum(CompiledBellman(instance, instance.rewards).apply(v) - v, 0.0)
    return bool(defects.max() <= tol), defects
