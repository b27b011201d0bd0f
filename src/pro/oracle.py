"""Slow reference computations used to check the optimizers.

Everything here takes the dumb route on purpose: stationary measures
come from a dense linear solve, optima from full enumeration of the
activation patterns.  None of
it shares code with the value-iteration path, so agreement between the
two is evidence, not tautology.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetExceeded, Infeasible, SingularSystem, TooLarge, ValidationError
from .graph import DiscreteChoice, Strategy

DEFAULT_MAX_FACULTATIVE = 20
HARD_CAP = 24
STATIONARY_CAP = 500


@dataclass(frozen=True)
class EnumerationBudget:
    """Cap on total facultative links a brute-force run will accept."""

    max_facultative: int = DEFAULT_MAX_FACULTATIVE

    def __post_init__(self):
        if not 0 <= self.max_facultative <= HARD_CAP:
            raise ValidationError(
                f"enumeration budget must lie in [0, {HARD_CAP}]")


@dataclass(frozen=True)
class BruteForceEntry:
    """One enumerated activation pattern: concatenated bits, income, feasibility."""

    bits: tuple
    value: float
    feasible: bool


@dataclass(frozen=True)
class BruteForceResult:
    """Best feasible activation pattern found by full enumeration.

    ``table`` is filled only on request; patterns are enumerated in
    lexicographic order of the concatenated per-page bit vectors, and
    ties keep the earliest pattern.
    """

    value: float
    strategy: Strategy
    table: Optional[tuple]


def enumerate_discrete_actions(obligatory, facultative, no_link_row, budget=None):
    """All outlink rows of one discrete page, in bit-vector order.

    Bits align with the ascending facultative targets; the all-zero
    pattern comes first.  For a page without obligatory links that
    pattern is the no-link row.

    Returns
    -------
    list of (bits, row)
    """
    budget = budget or EnumerationBudget()
    obligatory = tuple(int(j) for j in obligatory)
    facultative = tuple(int(j) for j in facultative)
    if len(facultative) > budget.max_facultative:
        raise BudgetExceeded(
            f"{len(facultative)} facultative links exceed the budget "
            f"{budget.max_facultative}")
    n = np.asarray(no_link_row).size
    out = []
    for bits in itertools.product((0, 1), repeat=len(facultative)):
        support = list(obligatory) + [j for j, b in zip(facultative, bits) if b]
        if support:
            row = np.zeros(n)
            row[support] = 1.0 / len(support)
        else:
            row = np.asarray(no_link_row, dtype=float).copy()
        out.append((bits, row))
    return out


def _dense_rows(weights, n):
    # base broadcast plus scattered per-link part, one dense row per page
    rows = np.repeat(weights.base[:, None], n, axis=1)
    delta = weights.delta
    if delta.nnz:
        ii = np.repeat(np.arange(n), delta.row_counts())
        rows[ii, delta.indices] += delta.data
    return rows


def brute_force_optimum(instance, budget=None, keep_table=False):
    """Enumerate every activation pattern; return the best feasible one.

    Parameters
    ----------
    instance : WebGraphInstance
        Discrete pages only.
    budget : EnumerationBudget, optional
    keep_table : bool
        Also return the full pattern table (costly for large budgets).

    Raises
    ------
    ValidationError
        If the instance has weight-constrained pages.
    BudgetExceeded
        If the total facultative count exceeds the budget.
    Infeasible
        If no pattern satisfies the coupling rows.
    """
    budget = budget or EnumerationBudget()
    if instance.skeletons:
        raise ValidationError("enumeration handles discrete pages only")
    n = instance.num_pages
    if n > STATIONARY_CAP:
        raise TooLarge(f"brute force is capped at {STATIONARY_CAP} pages")
    if instance.fac_indices.size > budget.max_facultative:
        raise BudgetExceeded(
            f"{instance.fac_indices.size} facultative links exceed the budget "
            f"{budget.max_facultative}")
    alpha = instance.damping
    z = instance.teleport
    hang = instance.dangling_teleport

    page_rows, page_bits, fac_lists = [], [], []
    for i in range(n):
        acts = enumerate_discrete_actions(instance.obligatory_of(i),
                                          instance.facultative_of(i), hang, budget)
        page_rows.append(np.stack([row for _, row in acts]))
        page_bits.append([bits for bits, _ in acts])
        fac_lists.append([int(j) for j in instance.facultative_of(i)])
    counts = np.array([len(b) for b in page_bits], dtype=np.int64)
    strides = np.ones(n, dtype=np.int64)
    for i in range(n - 2, -1, -1):
        strides[i] = strides[i + 1] * counts[i + 1]
    total = int(strides[0] * counts[0])

    rdense = _dense_rows(instance.rewards, n)
    c_rows = [_dense_rows(c.weights, n) for c in instance.coupling]
    c_bounds = np.array([c.bound for c in instance.coupling])
    # per page, income of each action row against a weight row:
    #   sum_j (alpha * S_aj + (1 - alpha) * z_j) * weight_j
    def per_action(coef):
        return [alpha * page_rows[i] @ coef[i]
                + (1.0 - alpha) * float(np.dot(z, coef[i]))
                for i in range(n)]
    r_act = per_action(rdense)
    c_act = [per_action(cr) for cr in c_rows]

    eye = np.eye(n)
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    best_value, best_index = -math.inf, -1
    any_feasible = False
    table = [] if keep_table else None
    chunk = 1024
    for start in range(0, total, chunk):
        ids = np.arange(start, min(start + chunk, total), dtype=np.int64)
        sel = (ids[:, None] // strides[None, :]) % counts[None, :]
        m = ids.size
        s = np.empty((m, n, n))
        for i in range(n):
            s[:, i, :] = page_rows[i][sel[:, i]]
        p = alpha * s + (1.0 - alpha) * z[None, None, :]
        a = np.swapaxes(eye[None, :, :] - p, 1, 2).copy()
        a[:, -1, :] = 1.0
        pis = np.linalg.solve(a, np.tile(rhs, (m, 1))[:, :, None])[:, :, 0]
        resid = np.abs(pis - np.einsum("bi,bij->bj", pis, p)).max()
        if float(resid) > 1e-10:
            raise SingularSystem("stationary residual check failed in a batch")
        rb = np.empty((m, n))
        for i in range(n):
            rb[:, i] = r_act[i][sel[:, i]]
        values = (pis * rb).sum(axis=1)
        feas = np.ones(m, dtype=bool)
        for k in range(len(instance.coupling)):
            ck = np.empty((m, n))
            for i in range(n):
                ck[:, i] = c_act[k][i][sel[:, i]]
            feas &= (pis * ck).sum(axis=1) <= c_bounds[k] + 1e-9
        if table is not None:
            for row in range(m):
                bits = tuple(b for i in range(n) for b in page_bits[i][sel[row, i]])
                table.append(BruteForceEntry(bits, float(values[row]), bool(feas[row])))
        if np.any(feas):
            any_feasible = True
            masked = np.where(feas, values, -math.inf)
            arg = int(np.argmax(masked))
            if masked[arg] > best_value:
                best_value = float(masked[arg])
                best_index = start + arg
    if not any_feasible:
        raise Infeasible("no activation pattern satisfies the coupling rows")

    sel = [(best_index // int(strides[i])) % int(counts[i]) for i in range(n)]
    choices = {}
    for i in range(n):
        if fac_lists[i]:
            bits = page_bits[i][sel[i]]
            choices[i] = DiscreteChoice(tuple(j for j, b in zip(fac_lists[i], bits) if b))
    return BruteForceResult(best_value, Strategy(choices),
                            tuple(table) if table is not None else None)
