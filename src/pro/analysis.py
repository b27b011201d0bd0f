"""Structure audits: value ordering, link classification, optimality defects.

With one reward per page, the chain's pre-teleport value vector ``v``
orders the pages by attractiveness, and each page's keep-or-drop
decisions reduce to comparing target values against a single per-page
bar ``(v[i] - r[i]) / damping``: targets strictly above the bar sit in
every optimal link subset, targets strictly below in none.  A strategy
with no classification violations is therefore optimal, since its value
vector then solves the improvement operator's fixed-point equation.

The defect audit needs no bar: its defects are ``T(v) - v`` of the local
solver's improvement operator ``T``, applied once at the chain's own ``v``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import mean_reward_before_teleport
from .errors import PerLinkRewards, ValidationError
from .graph import DiscreteChoice, build_transition
from .solver_local import CompiledBellman

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
    alpha = instance.damping
    base = instance.rewards.base
    choices = strategy.choices if strategy is not None else {}

    classifications, violations = [], []
    for i in instance.controlled_pages:  # no skeletons, so: pages with facultative links
        fac = instance.facultative_of(i)
        ch = choices.get(i)
        if ch is None:
            active = frozenset()
        elif isinstance(ch, DiscreteChoice):
            active = frozenset(int(j) for j in ch.activated)
        else:
            raise ValidationError(f"page {i} carries a non-subset choice")
        bar = (v[i] - base[i]) / alpha
        scale = tol * max(1.0, abs(bar))
        for j in fac:
            j = int(j)
            margin = float(v[j] - bar)
            if margin > scale:
                kind = "required"
            elif margin < -scale:
                kind = "forbidden"
            else:
                kind = "tie"
            classifications.append(LinkClassification(i, j, kind, margin))
            if kind == "required" and j not in active:
                violations.append(Violation(i, j, kind, "missing"))
            elif kind == "forbidden" and j in active:
                violations.append(Violation(i, j, kind, "extra"))

    order = np.argsort(-v, kind="stable")
    return MasterReport(int(order[0]), tuple(int(i) for i in order), v,
                        tuple(classifications), tuple(violations))


def continuous_optimality_check(instance, transition, tol=1e-7):
    """Per-page improvement defects of an admissible chain.

    For each page the defect is the gain available from swapping the
    page's outlink row for the best one at the chain's own value vector;
    a chain with all defects at most ``tol`` is optimal.  Works for both
    link subsets and weight-constrained pages.

    With one reward per page, ``v = r + damping * S v``, so one sweep of
    the improvement operator gives exactly that gain:
    ``T(v)_i - v_i = damping * (best row . v - (S v)_i)``.  The defects
    are ``max(T(v) - v, 0)``.

    Returns
    -------
    (ok, defects) : (bool, ndarray)
    """
    if not instance.rewards.is_per_page:
        raise PerLinkRewards("the defect audit needs one reward per page")
    v = mean_reward_before_teleport(transition, instance.rewards,
                                    tol=AUDIT_V_TOL).v
    defects = np.maximum(CompiledBellman(instance, instance.rewards).apply(v) - v, 0.0)
    return bool(defects.max() <= tol), defects
