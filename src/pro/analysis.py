"""Structure audits: value ordering, link classification, optimality defects.

With one reward per page, the chain's pre-teleport value vector ``v``
orders the pages by attractiveness, and each page's keep-or-drop
decisions reduce to comparing target values against a single per-page
bar ``(v[i] - r[i]) / damping``: targets strictly above the bar sit in
every optimal link subset, targets strictly below in none.  A strategy
with no classification violations is therefore optimal, since its value
vector then solves the improvement operator's fixed-point equation.

The defect audit needs no bar, so it takes per-link rewards too: its
defects are ``T(v) - v`` of the local solver's improvement operator ``T``,
applied once at the chain's own ``v``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import mean_reward_before_teleport
from .errors import PerLinkRewards, ValidationError
from .graph import DiscreteChoice, build_transition
from .solver_local import CompiledBellman
from .sparse import locate, row_ids

AUDIT_V_TOL = 1e-12


@dataclass(frozen=True)
class LinkClassification:
    """One facultative link judged against its page's bar.

    ``margin`` is the target's value minus the bar; the kind is
    "required", "forbidden", or "tie" within the audit tolerance.
    """

    page: int
    target: int
    kind: str
    margin: float


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
    """Value ordering plus per-link audit of one strategy."""

    master: int
    ordering: tuple
    values: np.ndarray
    classifications: tuple
    violations: tuple

    def to_report_dict(self):
        return {
            "master": self.master,
            "ordering": [int(i) for i in self.ordering],
            "values": [float(x) for x in self.values],
            "classifications": [
                {"page": c.page, "target": c.target, "kind": c.kind,
                 "margin": c.margin}
                for c in self.classifications
            ],
            "violations": [
                {"page": w.page, "target": w.target, "kind": w.kind,
                 "problem": w.problem}
                for w in self.violations
            ],
        }


def master_ordering(instance, strategy=None, tol=1e-9):
    """Audit a strategy of a discrete, per-page-reward instance.

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
    PerLinkRewards
        If rewards vary per link, where no single bar exists.
    ValidationError
        For weight-constrained pages or non-subset choices.
    """
    if not instance.rewards.is_per_page:
        raise PerLinkRewards("the ordering audit needs one reward per page")
    if instance.skeletons:
        raise ValidationError("the ordering audit handles discrete pages only")
    trans = build_transition(instance, strategy)
    v = mean_reward_before_teleport(trans, instance.rewards, tol=AUDIT_V_TOL).v
    n, f_indptr, f_idx = instance.num_pages, instance.fac_indptr, instance.fac_indices
    choices = strategy.choices if strategy is not None else {}
    picked = [(i, ch) for i, ch in sorted(choices.items()) if f_indptr[i + 1] > f_indptr[i]]
    for i, ch in picked:
        if not isinstance(ch, DiscreteChoice):
            raise ValidationError(f"page {i} carries a non-subset choice")
    # build_transition has checked that every activated link is facultative
    chosen = np.array([(i, j) for i, ch in picked for j in ch.activated], np.int64).reshape(-1, 2)
    active = np.zeros(f_idx.size, dtype=bool)
    active[locate(f_indptr, f_idx, n, chosen[:, 0], chosen[:, 1])[0]] = True
    f_page = row_ids(f_indptr)
    bar = ((v - instance.rewards.base) / instance.damping)[f_page]
    margin = v[f_idx] - bar
    scale = tol * np.maximum(1.0, np.abs(bar))
    sign = (margin > scale).astype(np.int8) - (margin < -scale)  # +1 required, -1 forbidden
    kinds = ("tie", "required", "forbidden")
    pages = list(range(n))  # the link records of a page share one int object
    classifications = tuple(map(LinkClassification, map(pages.__getitem__, f_page),
                                map(int, f_idx), map(kinds.__getitem__, sign),
                                map(float, margin)))
    wrong = np.flatnonzero(np.where(active, sign == -1, sign == 1))
    violations = tuple(Violation(int(f_page[k]), int(f_idx[k]), kinds[sign[k]],
                                 "extra" if active[k] else "missing") for k in wrong)
    order = np.argsort(-v, kind="stable")
    return MasterReport(int(order[0]), tuple(int(i) for i in order), v,
                        classifications, violations)


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
