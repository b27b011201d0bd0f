"""Structure audits: value ordering, link classification, optimality defects.

One pass serves every audit: the chain's pre-teleport value vector ``v``
and one sweep of the local solver's improvement operator ``T`` at it.
The defects are ``max(T(v) - v, 0)``, every page type alike, and ``v``
orders the pages.  Each page's keep-or-drop decisions reduce to one
threshold: a link's score ``r[i, j] + v[j]`` against the page's bar, its
chain row's average score.  By ``v = rbar + damping * S v`` the bar is
``(v[i] - (1 - damping) * sum_l z[l] r[i, l]) / damping``, for per-page
and per-link rewards alike.  Links strictly above the bar sit in every
optimal link subset, links strictly below in none, so a strategy with no
violations is optimal.  Weight pages have no link to classify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import mean_reward_before_teleport
from .errors import ValidationError
from .graph import DiscreteChoice, build_transition
from .solver_local import CompiledBellman

AUDIT_V_TOL = 1e-12
DEFECT_TOL = 1e-7  # the largest defect an optimal chain may show
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
    """Value ordering, per-link audit and defects of one strategy.

    ``pages``, ``targets``, ``kinds`` and ``margins`` run over the
    facultative links in CSR order.  A margin is the link's score minus
    its page's bar; the kind is "required", "forbidden", or "tie" within
    the audit tolerance.  ``defects`` are ``max(T(v) - v, 0)`` per page.
    """

    master: int
    ordering: tuple
    values: np.ndarray
    pages: np.ndarray
    targets: np.ndarray
    kinds: np.ndarray
    margins: np.ndarray
    violations: tuple
    defects: np.ndarray

    @property
    def optimal(self):
        return bool(self.defects.max() <= DEFECT_TOL)

    def to_report_dict(self, cap=None, value_cap=None):
        """The report as JSON types.  ``values`` longer than ``value_cap``,
        or another list longer than ``cap``, is given only as its length,
        ``{"count": n, "omitted": true}``, and is never built."""
        return {
            "max_defect": float(self.defects.max()),
            "optimal": self.optimal,
            "master": self.master,
            "ordering": _listed(len(self.ordering), cap,
                                lambda: [int(i) for i in self.ordering]),
            "values": _listed(self.values.size, value_cap,
                              lambda: [float(x) for x in self.values]),
            "classifications": _listed(self.pages.size, cap, lambda: [
                {"page": i, "target": j, "kind": kind, "margin": m}
                for i, j, kind, m in zip(self.pages.tolist(), self.targets.tolist(),
                                         self.kinds.tolist(), self.margins.tolist())
            ]),
            "violations": _listed(len(self.violations), cap, lambda: [
                {"page": w.page, "target": w.target, "kind": w.kind,
                 "problem": w.problem}
                for w in self.violations
            ]),
        }


def _listed(size, cap, build):
    """``build()``, a report list of ``size`` items, or only its length
    when a ``cap`` is given and ``size`` is above it."""
    if cap is not None and size > cap:
        return {"count": size, "omitted": True}
    return build()


def _audit_pass(instance, transition):
    """The chain's value ``v``, the compiled operator and ``max(T(v) - v, 0)``."""
    v = mean_reward_before_teleport(transition, instance.rewards, tol=AUDIT_V_TOL).v
    comp = CompiledBellman(instance, instance.rewards)
    return v, comp, np.maximum(comp.apply(v) - v, 0.0)


def master_ordering(instance, strategy=None, tol=1e-9):
    """Audit a strategy: ordering, link classification and defects.

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
    InvalidStrategy
        From ``build_transition``, before any other strategy check: a
        page out of range or an inadmissible choice.
    ValidationError
        For a non-subset choice on a page with facultative links, or a
        ``tol`` that is not finite and nonnegative.
    """
    if not 0.0 <= tol < np.inf:
        raise ValidationError(f"tol must be finite and nonnegative, got {tol}")
    # first, so that a page out of range is refused before f_indptr is read
    trans = build_transition(instance, strategy)
    f_indptr = instance.fac_indptr
    choices = strategy.choices if strategy is not None else {}
    for i, ch in sorted(choices.items()):
        if f_indptr[i + 1] > f_indptr[i] and not isinstance(ch, DiscreteChoice):
            raise ValidationError(f"page {i} carries a non-subset choice")
    v, comp, defects = _audit_pass(instance, trans)
    f_page, f_idx = comp.f_page, comp.f_idx
    bar = ((v - comp.const) / comp.alpha)[f_page]
    margin = comp.r_f + v[f_idx] - bar
    scale = tol * np.maximum(1.0, np.abs(bar))
    sign = (margin > scale).astype(np.int8) - (margin < -scale)  # +1 required, -1 forbidden
    kinds = KINDS[sign]
    wrong = np.flatnonzero(np.where(trans.activated, sign == -1, sign == 1))
    violations = tuple(Violation(int(f_page[k]), int(f_idx[k]), str(kinds[k]),
                                 "extra" if trans.activated[k] else "missing") for k in wrong)
    order = np.argsort(-v, kind="stable")
    return MasterReport(int(order[0]), tuple(order.tolist()), v,
                        f_page, f_idx, kinds, margin, violations, defects)


def continuous_optimality_check(instance, transition, tol=DEFECT_TOL):
    """Per-page improvement defects ``max(T(v) - v, 0)`` of an admissible
    chain, every page type alike.  ``T(v)_i - v_i`` is the gain of swapping
    page ``i``'s outlink row for the best one at the chain's own ``v``: the
    best row's ``rbar + damping * row . v`` minus the chain's own.  A chain
    with all defects at most ``tol`` is optimal.  Returns ``(ok, defects)``.
    """
    defects = _audit_pass(instance, transition)[2]
    return bool(defects.max() <= tol), defects
