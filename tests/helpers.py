"""Shared builders for the test suite.

Hand-written tiny instances with known optima, seeded random instance
generators at several scales, a dense vertex enumerator for small facet
systems, and an exact utility evaluator that goes through the direct
linear-algebra route rather than the solver under test.  Names that
only tests use live here, not in the package: the dense stationary
solve, finite differences, the occupation map's inverse, the conversion
of a dense outlink row to free mass (``free_choice``) and a few more.
"""

import contextlib
import dataclasses
import itertools
from unittest import mock

import numpy as np

from pro import graph, oracle
from pro.errors import InvalidStrategy, ParseError, SingularSystem, TooLarge, ValidationError
from pro.graph import (DENSE_EVAL_CAP, ContinuousChoice, Rewards, WebGraphInstance, WeightRows,
                       load_instance)
from pro.sparse import RowSparse, _in_range, _sort_coords, add_sparse, locate, row_ids


def minus_weighted(rewards, matrices, lams):
    """``rewards`` minus ``sum_k lams[k] * matrices[k]``, on the union of
    their per-link patterns."""
    base, delta = rewards.base.copy(), rewards.delta
    for lam, mat in zip(lams, matrices):
        base = base - lam * mat.base
        delta = add_sparse(delta, mat.delta.scaled(-lam))
    return Rewards(base, delta)


def two_page_doc():
    """Two controlled pages, four optional links, per-link income."""
    return {
        "num_pages": 2,
        "damping": 0.85,
        "teleport": [0.5, 0.5],
        "obligatory": [],
        "facultative": [[0, 0], [0, 1], [1, 0], [1, 1]],
        "rewards": {"type": "per_link", "default": 0.0,
                    "entries": [[0, 0, 1.0], [0, 1, 10.0],
                                [1, 0, 2.0], [1, 1, 2.0]]},
    }


def two_page_coupled_doc():
    """Same graph, income only on visits to page 1, visit-share budget.

    The budget row charges -1 per visit to page 0 and +1 per visit to
    page 1 with bound 0, so feasibility means page 1 is visited no more
    often than page 0.
    """
    doc = two_page_doc()
    doc["rewards"] = {"type": "per_page", "values": [0.0, 1.0]}
    doc["coupling"] = [{"per_page": [-1.0, 1.0], "bound": 0.0}]
    return doc


def uniform_doc():
    """Uniform teleport, per-link rewards and single-entry lists."""
    return {"num_pages": 3, "damping": 0.85, "teleport": "uniform",
            "obligatory": [[1, 2]], "facultative": [[2, 0]],
            "rewards": {"type": "per_link", "default": 0.5, "entries": [[2, 0, 1.0]]},
            "coupling": [{"entries": [[2, 0, 1.0]], "bound": 0.3}]}


def fuzz_bases():
    """The small documents whose fields the command-line fuzz tests vary."""
    weights = {"num_pages": 3, "damping": 0.85, "teleport": [0.2, 0.3, 0.5],
               "dangling_teleport": [0.0, 0.5, 0.5], "obligatory": [[1, 2]],
               "rewards": {"type": "per_page", "values": [0.0, 1.0, 2.0]},
               "skeleton": [{"page": 0, "q": [0.25, 0.5, 0.25], "mu": 0.5, "banned": [1]}]}
    return [two_page_doc(), two_page_coupled_doc(), uniform_doc(), weights]


def two_page_instance():
    return load_instance(two_page_doc())


def two_page_coupled_instance():
    return load_instance(two_page_coupled_doc())


def random_discrete_doc(rng, n_max=8, fac_budget=14, reward_kind="per_link",
                        damping=None):
    """Random discrete instance within the small-oracle regime.

    Total facultative link count stays below ``fac_budget`` so full
    enumeration stays cheap; rewards are uniform in [-1, 1].
    """
    n = int(rng.integers(2, n_max + 1))
    if damping is None:
        damping = float(rng.uniform(0.3, 0.95))
    teleport = rng.random(n) + 0.05
    teleport /= teleport.sum()

    links = set()
    obligatory = []
    for i in range(n):
        if rng.random() < 0.45:
            for j in rng.choice(n, size=int(rng.integers(1, 3)), replace=False):
                if (i, int(j)) not in links:
                    links.add((i, int(j)))
                    obligatory.append([i, int(j)])
    facultative = []
    budget = int(rng.integers(0, fac_budget + 1))
    for _ in range(4 * budget):
        if len(facultative) == budget:
            break
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        if (i, j) not in links:
            links.add((i, j))
            facultative.append([i, j])

    if reward_kind == "per_link":
        entries = [[i, j, float(rng.uniform(-1.0, 1.0))]
                   for i in range(n) for j in range(n)]
        rewards = {"type": "per_link", "default": 0.0, "entries": entries}
    else:
        rewards = {"type": "per_page",
                   "values": [float(x) for x in rng.uniform(-1.0, 1.0, size=n)]}

    doc = {
        "num_pages": n,
        "damping": damping,
        "teleport": [float(x) for x in teleport],
        "obligatory": obligatory,
        "facultative": facultative,
        "rewards": rewards,
    }
    if rng.random() < 0.3:
        hang = rng.random(n)
        hang[rng.integers(0, n)] = 0.0
        hang /= hang.sum()
        doc["dangling_teleport"] = [float(x) for x in hang]
    return doc


def random_discrete_instance(rng, **kw):
    return load_instance(random_discrete_doc(rng, **kw))


def random_continuous_doc(rng, n_max=30):
    """Random instance whose every page carries a weight skeleton."""
    n = int(rng.integers(3, n_max + 1))
    damping = float(rng.uniform(0.5, 0.9))
    teleport = rng.random(n) + 0.05
    teleport /= teleport.sum()
    skeleton = []
    for i in range(n):
        q = rng.random(n) * (rng.random(n) < 0.6)
        if q.sum() <= 0.0:
            q[int(rng.integers(0, n))] = 1.0
        q /= q.sum()
        banned = []
        if rng.random() < 0.3:
            banned = [int(j) for j in rng.choice(n, size=2, replace=False)]
        skeleton.append({"page": i, "q": [float(x) for x in q],
                         "mu": float(rng.uniform(0.3, 0.9)),
                         "banned": banned})
    return {
        "num_pages": n,
        "damping": damping,
        "teleport": [float(x) for x in teleport],
        "obligatory": [],
        "facultative": [],
        "rewards": {"type": "per_page",
                    "values": [float(x) for x in rng.uniform(-1.0, 1.0, size=n)]},
        "skeleton": skeleton,
    }


def mixed_doc(rng, n=7):
    """Weight pages next to discrete pages with and without obligatory links.

    Pages 0, 3, 6, ... carry a skeleton with one banned coordinate; the
    others have two facultative links, and pages 1, 4, ... one obligatory
    link as well.
    """
    teleport = rng.random(n) + 0.05
    teleport /= teleport.sum()
    obligatory, facultative, skeleton = [], [], []
    for i in range(n):
        targets = [int(j) for j in rng.choice(n, size=3, replace=False)]
        if i % 3 == 0:
            q = rng.random(n)
            skeleton.append({"page": i, "q": [float(x) for x in q / q.sum()],
                             "mu": float(rng.uniform(0.2, 0.9)),
                             "banned": targets[:1]})
            continue
        if i % 3 == 1:
            obligatory.append([i, targets[0]])
        facultative += [[i, j] for j in targets[1:]]
    return {
        "num_pages": n,
        "damping": float(rng.uniform(0.5, 0.9)),
        "teleport": [float(x) for x in teleport],
        "obligatory": obligatory,
        "facultative": facultative,
        "rewards": {"type": "per_page",
                    "values": [float(x) for x in rng.uniform(-1.0, 1.0, size=n)]},
        "skeleton": skeleton,
    }


def add_active_coupling(doc, rng, slack=None):
    """Attach one coupling row whose bound bites but stays attainable.

    The bound is placed between the minimum attainable spending and the
    spending of the unconstrained optimum, so the constraint is active
    for small ``slack`` yet a feasible strategy always exists.
    """
    from pro.chain import stationary, utility_from_chain
    from pro.graph import build_transition
    from pro.solver_local import SolverConfig, value_iterate

    inst = load_instance(doc)
    n = inst.num_pages
    weights = Rewards.per_page(rng.uniform(-1.0, 1.0, size=n))

    _, strat_max = value_iterate(inst, SolverConfig(tol=1e-10))
    trans = build_transition(inst, strat_max)
    spend_at_opt = utility_from_chain(trans, stationary(trans, tol=1e-12).pi,
                                      weights)

    flipped = local_only(inst, weights.scaled(-1.0))
    _, strat_min = value_iterate(flipped, SolverConfig(tol=1e-10))
    trans_min = build_transition(inst, strat_min)
    spend_min = utility_from_chain(trans_min,
                                   stationary(trans_min, tol=1e-12).pi, weights)

    if slack is None:
        slack = float(rng.uniform(0.25, 0.75))
    bound = spend_min + slack * max(spend_at_opt - spend_min, 0.0)
    out = dict(doc)
    out["coupling"] = [{"per_page": [float(x) for x in weights.base],
                       "bound": float(bound)}]
    return out


def add_coupling_rows(doc, rng, count, low, high):
    """Attach ``count`` rows built like ``add_active_coupling``'s.

    Each row's slack is drawn from ``[low, high]`` and each bound alone
    is attainable, but together the rows may admit no strategy.
    """
    rows = [add_active_coupling(doc, rng, slack=float(rng.uniform(low, high)))
            ["coupling"][0] for _ in range(count)]
    return dict(doc, coupling=rows)


def exact_stationary(p):
    """Stationary measure of a dense chain by direct linear solve.

    Replaces the last balance equation with the normalization and
    verifies the result to within ``1e-12``.

    Raises
    ------
    TooLarge
        Beyond the dense cap of 500 pages.
    SingularSystem
        When the solve fails or the residual check does not pass, which
        signals a chain without a unique stationary measure.
    """
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    if n > oracle.STATIONARY_CAP:
        raise TooLarge(f"dense stationary solve is capped at {oracle.STATIONARY_CAP} pages")
    a = (np.eye(n) - p).T
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    if float(np.abs(pi - pi @ p).max()) > 1e-12 or float(pi.min()) < -1e-12:
        raise SingularSystem("stationary residual check failed")
    return pi


def chain_utility(p, pi, rewards):
    """Income ``sum_ij pi[i] P[i, j] r[i, j]`` of a dense chain."""
    p = np.asarray(p, dtype=float)
    rbar = rewards.base.copy()
    delta = rewards.delta
    if delta.nnz:
        rows = np.repeat(np.arange(p.shape[0]), delta.row_counts())
        rbar += np.bincount(rows, weights=p[rows, delta.indices] * delta.data,
                            minlength=p.shape[0])
    return float(np.dot(pi, rbar))


def local_only(instance, rewards=None):
    """Copy of ``instance`` without coupling rows, optionally with other rewards."""
    return dataclasses.replace(instance, coupling=(), rewards=rewards or instance.rewards)


def recover(measure):
    """Invert the occupation map: ``(P, pi)`` with rows renormalized to the
    chain.  A page without mass has no row to recover (``ValueError``)."""
    rho = getattr(measure, "rho", measure)
    pi = rho.sum(axis=1)
    if np.any(pi <= 0.0):
        raise ValueError(f"occupation measure has an empty row at page {int(np.argmin(pi))}")
    return rho / pi[:, None], pi


def reward_transform(rewards, teleport, damping):
    """Shift follow-only rewards so teleport steps can be priced at zero.

    A reward scheme paid on every transition of ``P`` is equivalent to
    one paid only when an actual outlink is followed; this returns the
    equivalent scheme ``r[i, j] - (1 - damping) * sum_l r[i, l] teleport[l]``.
    """
    row_price = rewards.row_means(teleport)
    return Rewards(rewards.base - (1.0 - damping) * row_price, rewards.delta)


def truncation_error_bound(damping, horizon, rbar_sup):
    """Sup-norm error of ``v`` when sums stop after ``horizon`` hops, on
    chains where every page has an outlink."""
    return damping ** (horizon + 1) * 2.0 / (1.0 - damping) * rbar_sup


def finite_diff_directional(p, rewards, direction, step):
    """Symmetric difference quotient of income along a row-change direction.

    ``direction`` must have zero row sums, and both perturbed matrices
    must stay nonnegative; ``ValueError`` otherwise.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(direction, dtype=float)
    if float(np.abs(q.sum(axis=1)).max()) > 1e-9:
        raise ValueError("direction rows must sum to zero")
    lo, hi = p - step * q, p + step * q
    if float(lo.min()) < 0.0 or float(hi.min()) < 0.0:
        raise ValueError("perturbed chain has a negative entry")
    u_hi = chain_utility(hi, exact_stationary(hi), rewards)
    u_lo = chain_utility(lo, exact_stationary(lo), rewards)
    return (u_hi - u_lo) / (2.0 * step)


def constraint_count(system):
    """Facet records of one page of a ``FacetSystem``: one per coordinate
    of its bound tables, which share one width, plus the simplex equation."""
    widths = {table.shape[1] for table in (system.lo_a, system.lo, system.hi_a, system.hi)}
    assert len(widths) == 1
    return widths.pop() + 1


def exact_utility(instance, strategy):
    """Income of a strategy's chain via direct linear algebra."""
    from pro.graph import build_transition

    trans = build_transition(instance, strategy)
    pi = exact_stationary(trans.dense_p())
    return chain_utility(trans.dense_p(), pi, instance.rewards)


def random_box_row(rng, lower, upper):
    """Random feasible point of a box-with-simplex set."""
    x = lower.astype(float).copy()
    slack = 1.0 - float(x.sum())
    order = rng.permutation(lower.size)
    for j in order:
        room = float(upper[j] - x[j])
        if room <= 0.0 or slack <= 0.0:
            continue
        take = min(room, slack) * float(rng.random())
        x[j] += take
        slack -= take
    for j in order:  # close any remainder deterministically
        room = float(upper[j] - x[j])
        take = min(room, slack)
        x[j] += take
        slack -= take
        if slack <= 1e-15:
            break
    return x


def random_strategy(rng, instance):
    """Random admissible strategy: link subsets and feasible skeleton rows."""
    from pro.graph import DiscreteChoice, Strategy

    choices = {}
    controlled = np.union1d(np.flatnonzero(np.diff(instance.fac_indptr)),
                            instance.skeletons.pages)
    for page in controlled.tolist():
        if page not in instance.skeletons.pages:
            fac = instance.facultative_of(page)
            keep = tuple(int(j) for j in fac if rng.random() < 0.5)
            choices[page] = DiscreteChoice(keep)
        else:
            srow = random_box_row(rng, *weight_box(instance.skeletons, page))
            choices[page] = free_choice(instance, page, srow)
    return Strategy(choices)


def weight_box(store, page):
    """``WeightRows.bounds`` of one page, as two vectors."""
    lower, upper = store.bounds([page])
    return lower[0], upper[0]


# Outlink mass at most this small is rounding noise when ``free_choice``
# converts a dense row: 8 ulps of 1, far below ``STRATEGY_TOL``.
FREE_NOISE = 8 * float(np.finfo(float).eps)


def free_choice(instance, page, srow):
    """The ``ContinuousChoice`` whose outlink row is the dense ``srow``.

    On a skeleton page the free part is ``(srow - floor) / slack``.  With
    no slack the floor is the only row; ``srow`` must then match it to
    the strategy tolerance, or ``InvalidStrategy`` is raised.  Entries
    whose outlink mass is at most ``FREE_NOISE`` are dropped: the
    rounding of a conversion, which would keep an optimal row, one
    entry, dense.
    """
    store = instance.skeletons
    if page not in store.pages:
        probs = np.asarray(srow, dtype=float)
        lift = probs
    elif store.slack[page] > 0.0:
        probs = (srow - weight_box(store, page)[0]) / store.slack[page]
        lift = store.slack[page] * probs
    else:
        gap = float(np.abs(srow - weight_box(store, page)[0]).max())
        if gap > graph.STRATEGY_TOL / instance.damping:
            raise InvalidStrategy(
                f"row for page {page} leaves its floor, its only row, by {gap:.3e}")
        return graph.ContinuousChoice((), ())
    cols = np.flatnonzero(np.abs(lift) > FREE_NOISE)
    return graph.ContinuousChoice(tuple(cols.tolist()), tuple(probs[cols].tolist()))


def free_row(instance, page, choice):
    """Dense outlink row ``floor + slack * probs`` of a ``ContinuousChoice``."""
    weight = page in instance.skeletons.pages
    row = weight_box(instance.skeletons, page)[0] if weight else np.zeros(instance.num_pages)
    slack = max(1.0 - float(row.sum()), 0.0) if weight else 1.0
    row[list(choice.cols)] += slack * np.array(choice.probs)
    return row


def _key_csr(n, keys):
    """Index-only CSR ``(indptr, indices)`` of the ascending flat keys ``i * n + j``."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return indptr, keys % n


def power_law_instance(n, n_controlled, fac_each, seed, damping=0.85,
                       reward_frac=0.01):
    """Synthetic web instance assembled directly from CSR arrays.

    Out-degrees follow a clipped zipf law and link targets are drawn
    with polynomially decaying popularity, so both degree tails are
    heavy.  ``n_controlled`` random pages each receive ``fac_each``
    facultative candidates on top of the obligatory layer, and a
    ``reward_frac`` share of pages pays a positive per-page reward.
    Duplicate draws collapse, so realized link counts sit slightly
    below the nominal products.
    """
    rng = np.random.default_rng(seed)
    deg = 5 + np.minimum(rng.zipf(2.5, n), 495)
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    pop = (np.arange(n) + 1.0) ** -0.6
    cum = np.cumsum(pop / pop.sum())
    dst = np.searchsorted(cum, rng.random(src.size)).astype(np.int64)
    np.minimum(dst, n - 1, out=dst)
    okey = np.unique(src * n + dst)
    controlled = rng.choice(n, n_controlled, replace=False).astype(np.int64)
    fsrc = np.repeat(controlled, fac_each)
    fdst = rng.integers(0, n, fsrc.size, dtype=np.int64)
    fkey = np.unique(fsrc * n + fdst)
    fkey = fkey[~np.isin(fkey, okey)]
    o_indptr, o_idx = _key_csr(n, okey)
    f_indptr, f_idx = _key_csr(n, fkey)
    values = np.zeros(n)
    paid = rng.choice(n, max(1, int(reward_frac * n)), replace=False)
    values[paid] = rng.uniform(0.5, 1.5, paid.size)
    z = np.full(n, 1.0 / n)
    return WebGraphInstance(
        num_pages=n, damping=damping, teleport=z, dangling_teleport=z,
        obl_indptr=o_indptr, obl_indices=o_idx,
        fac_indptr=f_indptr, fac_indices=f_idx,
        rewards=Rewards.per_page(values), skeletons=WeightRows.empty(n))


def _power_law_keys(rng, n):
    """Keys ``i * n + j`` of a power-law obligatory layer.

    Out-degrees are zipf, capped at a twentieth of the pages, and
    targets are polynomially popular.
    """
    deg = 5 + np.minimum(rng.zipf(2.5, n), min(495, n // 20))
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    pop = (np.arange(n) + 1.0) ** -0.6
    dst = np.minimum(np.searchsorted(np.cumsum(pop / pop.sum()), rng.random(src.size)), n - 1)
    return np.unique(src * n + dst)


def link_web_doc(rng, n, controlled, fac_each):
    """Power-law web in subset mode with per-link rewards.

    ``controlled`` pages each draw ``fac_each`` facultative targets.
    Half of them and a twentieth of the other pages lose their
    obligatory links, so pages that choose the no-link row and dangling
    pages both occur.  Every link into a twentieth of the pages pays
    between 0.5 and 1.5.
    """
    okey = _power_law_keys(rng, n)
    ctrl = rng.choice(n, controlled, replace=False)
    hollow = np.concatenate([ctrl[:controlled // 2], rng.choice(n, n // 20, replace=False)])
    okey = okey[~np.isin(okey // n, hollow)]
    fkey = np.unique(np.repeat(ctrl, fac_each) * n + rng.integers(0, n, controlled * fac_each))
    fkey = fkey[~np.isin(fkey, okey)]
    links = np.concatenate([okey, fkey])
    paid = links[np.isin(links % n, rng.choice(n, n // 20, replace=False))]
    gains = rng.uniform(0.5, 1.5, paid.size)
    return {"num_pages": n, "damping": 0.85, "teleport": "uniform",
            "obligatory": np.stack([okey // n, okey % n], axis=1).tolist(),
            "facultative": np.stack([fkey // n, fkey % n], axis=1).tolist(),
            "rewards": {"type": "per_link", "default": 0.0,
                        "entries": [[int(k // n), int(k % n), float(g)]
                                    for k, g in zip(paid, gains)]}}


def weight_web_doc(rng, n, skeletons):
    """Power-law web whose ``skeletons`` pages carry dense weight skeletons.

    The obligatory layer has zipf out-degrees and polynomially popular
    targets; each skeleton page loses its links and gets a ``q`` with
    about 60% nonzeros, two banned targets and ``mu`` in [0.3, 0.9].  A
    hundredth of the pages pays a per-page reward.
    """
    okey = _power_law_keys(rng, n)
    pages = np.sort(rng.choice(n, skeletons, replace=False))
    okey = okey[~np.isin(okey // n, pages)]
    records = []
    for page in pages.tolist():
        q = rng.random(n) * (rng.random(n) < 0.6)
        records.append({"page": page, "q": (q / q.sum()).tolist(),
                        "mu": float(rng.uniform(0.3, 0.9)),
                        "banned": rng.choice(n, 2, replace=False).tolist()})
    values = np.zeros(n)
    paid = rng.choice(n, max(1, n // 100), replace=False)
    values[paid] = rng.uniform(0.5, 1.5, paid.size)
    return {"num_pages": n, "damping": 0.85, "teleport": "uniform",
            "obligatory": np.stack([okey // n, okey % n], axis=1).tolist(),
            "rewards": {"type": "per_page", "values": values.tolist()},
            "skeleton": records}


def facet_vertices(system, tol=1e-8):
    """Vertices of a facet system by exhaustive basis enumeration.

    Reads the first page of the tables by their documented meaning
    alone: coordinate j is the row ``x[j] - lo_a x[a]`` with ``a`` the
    anchor, an equation ``= lo`` where ``lo_a == hi_a`` and ``lo == hi``,
    otherwise ``>= lo``, plus ``x[j] - hi_a x[a] <= hi`` where ``hi`` is
    finite; then the simplex equation.  Collects the equality rows, then
    tries every subset of inequality rows large enough to pin the
    remaining degrees of freedom.  Bases are solved in batches;
    solutions must satisfy every constraint.
    """
    n = system.num_pages
    lo_a, lo, hi_a, hi = (t[0] for t in (system.lo_a, system.lo, system.hi_a, system.hi))

    def rows(coef):
        out = np.eye(n)
        out[:, int(system.anchor[0])] -= coef
        return out

    is_eq = (lo_a == hi_a) & (lo == hi)
    eq = np.vstack([rows(lo_a)[is_eq], np.ones(n)])
    erhs = np.append(lo[is_eq], 1.0)
    # >= rows negated into <= form, then the finite <= rows
    capped = ~is_eq & np.isfinite(hi)
    ub = np.vstack([-rows(lo_a)[~is_eq], rows(hi_a)[capped]])
    urhs = np.concatenate([-lo[~is_eq], hi[capped]])
    rank_eq = int(np.linalg.matrix_rank(eq)) if eq.size else 0
    free = n - rank_eq
    if eq.shape[0] != rank_eq:
        return _facet_vertices_lstsq(eq, erhs, ub, urhs, free, tol)
    combos = list(itertools.combinations(range(ub.shape[0]), free))
    blocks = []
    for lo in range(0, len(combos), 16384):
        chunk = combos[lo:lo + 16384]
        part = np.asarray(chunk, dtype=np.intp).reshape(len(chunk), free)
        mats = np.empty((part.shape[0], n, n))
        mats[:, :rank_eq, :] = eq
        mats[:, rank_eq:, :] = ub[part]
        rhs = np.empty((part.shape[0], n))
        rhs[:, :rank_eq] = erhs
        rhs[:, rank_eq:] = urhs[part]
        sign, _ = np.linalg.slogdet(mats)
        keep = sign != 0
        if not keep.any():
            continue
        xs = np.linalg.solve(mats[keep], rhs[keep][:, :, None])[:, :, 0]
        good = np.ones(xs.shape[0], dtype=bool)
        if eq.size:
            good &= np.abs(xs @ eq.T - erhs).max(axis=1) <= tol
        if ub.size:
            good &= (xs @ ub.T - urhs).max(axis=1) <= tol
        blocks.append(xs[good])
    found = np.concatenate(blocks) if blocks else np.zeros((0, n))
    return _dedupe_rows(found, 10 * tol)


def _facet_vertices_lstsq(eq, erhs, ub, urhs, free, tol):
    """Slow path for redundant equality rows: least squares per basis."""
    n = eq.shape[1]
    found = []
    for combo in itertools.combinations(range(ub.shape[0]), free):
        mat = np.vstack([eq, ub[list(combo)]])
        rhs = np.concatenate([erhs, urhs[list(combo)]])
        if np.linalg.matrix_rank(mat) < n:
            continue
        x = np.linalg.lstsq(mat, rhs, rcond=None)[0]
        if np.abs(mat @ x - rhs).max() > tol:
            continue
        if eq.size and np.abs(eq @ x - erhs).max() > tol:
            continue
        if ub.size and (ub @ x - urhs).max() > tol:
            continue
        found.append(x)
    stack = np.array(found).reshape(len(found), n)
    return _dedupe_rows(stack, 10 * tol)


def _dedupe_rows(points, spacing):
    """Collapse near-duplicate rows; keeps first representatives."""
    if points.shape[0] == 0:
        return []
    # grid collapse first; a straddled cell boundary leaves at most a
    # few extra survivors for the pairwise pass below to merge
    _, first = np.unique(np.round(points / spacing), axis=0,
                         return_index=True)
    kept = []
    for k in sorted(first):
        x = points[k]
        if kept and np.abs(np.array(kept) - x).max(axis=1).min() <= spacing:
            continue
        kept.append(x)
    return kept


def same_point_set(first, second, tol=1e-8):
    """Set equality of two point lists under sup-norm matching."""
    if len(first) != len(second):
        return False
    if len(first) == 0:
        return True
    a = np.asarray(first, dtype=float).reshape(len(first), -1)
    b = np.asarray(second, dtype=float).reshape(len(second), -1)
    close = np.zeros((a.shape[0], b.shape[0]), dtype=bool)
    for lo in range(0, a.shape[0], 256):
        block = a[lo:lo + 256]
        close[lo:lo + 256] = (np.abs(block[:, None, :] - b[None, :, :])
                              .max(axis=2) <= tol)
    if not (close.any(axis=1).all() and close.any(axis=0).all()):
        return False
    if (close.sum(axis=1) == 1).all() and (close.sum(axis=0) == 1).all():
        return True
    used = np.zeros(b.shape[0], dtype=bool)
    for i in range(a.shape[0]):  # ambiguous overlaps: greedy matching
        hits = np.flatnonzero(close[i] & ~used)
        if hits.size == 0:
            return False
        used[hits[0]] = True
    return True


# A chain whose S is one merged, sorted CSR, built from entry lists: the
# reference that the blocks of ``graph.TransitionMatrix``, from
# ``build_transition`` or ``CompiledBellman.policy``, must match.

@dataclasses.dataclass(frozen=True)
class CsrChain:
    """``TransitionMatrix``'s protocol on ``S`` as one CSR ``srows``, the
    no-link rows ``dangling`` holding no entry."""

    num_pages: int
    damping: float
    teleport: np.ndarray
    dangling_teleport: np.ndarray
    srows: RowSparse
    dangling: np.ndarray

    def pi_step(self, pi):
        s = self.srows
        out = np.bincount(s.indices, pi.repeat(s.row_counts()) * s.data, minlength=self.num_pages)
        out = out + float(pi[self.dangling].sum()) * self.dangling_teleport
        return self.damping * out + (1.0 - self.damping) * float(pi.sum()) * self.teleport

    def apply_s(self, v):
        out = self.srows.rightmul(v)
        out[self.dangling] = float(np.dot(self.dangling_teleport, v))
        return out

    def dense_s(self):
        out = self.srows.to_dense()
        out[self.dangling] = self.dangling_teleport
        return out

    def dense_p(self):
        return self.damping * self.dense_s() + (1.0 - self.damping) * self.teleport[None, :]

    def solve(self, rhs, transpose=False):
        n = self.num_pages
        if n > DENSE_EVAL_CAP:
            return None
        s = self.dense_s()
        return np.linalg.solve(np.eye(n) - self.damping * (s.T if transpose else s), rhs)

    def p_at(self, keys):
        n, alpha = self.num_pages, self.damping
        rows, cols = keys // n, keys % n
        pos, hit = locate(self.srows.indptr, self.srows.indices, n, rows, cols)
        s = np.zeros(keys.size)
        s[hit] = self.srows.data[pos[hit]]
        s = np.where(self.dangling[rows], self.dangling_teleport[cols], s)
        return alpha * s + (1.0 - alpha) * self.teleport[cols]


def csr_transition(instance, strategy=None):
    """``strategy``'s chain, unchecked, as ``build_transition`` built it
    before its blocks: the obligatory and activated links of the link
    rows, then every weight floor and every lift ``slack * probs /
    sum(probs)`` (weights clipped at 0), merged by one sort, a floor
    entry before a lift on its coordinate."""
    n, store = instance.num_pages, instance.skeletons
    choices = {p: store.default_choice(p) for p in store.pages.tolist()}
    choices.update(strategy.choices if strategy is not None else {})
    free = {p: ch for p, ch in sorted(choices.items()) if isinstance(ch, ContinuousChoice)}
    links = [(i, j) for i in range(n) if i not in free
             for j in [*instance.obligatory_of(i).tolist(),
                       *getattr(choices.get(i), "activated", ())]]
    lifts = [(i, j, (store.slack[i] if i in store.pages else 1.0)
              * (max(p, 0.0) / sum(max(x, 0.0) for x in ch.probs)))
             for i, ch in free.items() for j, p in zip(ch.cols, ch.probs)]
    links = np.array(links, dtype=np.int64).reshape(-1, 2)
    lifts = np.array(lifts, dtype=float).reshape(-1, 3)
    floor = store.floor
    rows = np.concatenate([links[:, 0], store.pages[row_ids(floor.indptr)],
                           lifts[:, 0].astype(np.int64)])
    cols = np.concatenate([links[:, 1], floor.indices, lifts[:, 1].astype(np.int64)])
    vals = np.concatenate([np.zeros(len(links)), floor.data, lifts[:, 2]])
    order, first, _ = _sort_coords(n, n, rows, cols)
    vals = np.bincount(np.cumsum(first) - 1, vals[order])
    sel = order[first]
    # a continuous row is clipped at 0 and loses its zeros; a link is
    # worth 1 / degree
    keep = (sel < len(links)) | (vals > 0.0)
    rows, cols, vals, link = rows[sel][keep], cols[sel][keep], vals[keep], sel[keep] < len(links)
    deg = np.bincount(rows, minlength=n)
    vals[link] = 1.0 / deg[rows[link]]
    indptr = np.concatenate([[0], np.cumsum(deg)])
    return CsrChain(n, instance.damping, instance.teleport, instance.dangling_teleport,
                    RowSparse(n, n, indptr, cols, vals), deg == 0)


def policy_entries(comp):
    """Rows, columns, weights and rewards of the policy's entries of S.

    Uniform rows first, then each weight page's floor and its slack on
    the master page; a floor entry and a master entry can share a
    coordinate, and both count.
    """
    act = np.flatnonzero(comp.active)
    rows = np.concatenate([comp.o_page, comp.f_page[act]])
    has = comp.jstar >= 0
    pages, masters = comp.sk_page[has], comp.jstar[has]
    return (np.concatenate([rows, comp.q_rows, pages]),
            np.concatenate([comp.o_idx, comp.f_idx[act], comp.q_idx, masters]),
            np.concatenate([1.0 / comp.size[rows], comp.q_val, comp.slack[has]]),
            np.concatenate([comp.r_o, comp.r_f[act], comp.r_q,
                            comp.sk_base[has] + comp.dext[comp.slots(pages, masters)]]))


def policy_chain(comp):
    """The policy's ``CsrChain``, sorted from its entry lists, and its
    ``P`` at each pattern key."""
    n = comp.n
    rows, cols, weights, _ = policy_entries(comp)
    order, first, indptr = _sort_coords(n, n, rows, cols)
    # a shared coordinate sums the floor entry, then the master entry
    vals = np.bincount(np.cumsum(first) - 1, weights[order])
    trans = CsrChain(n, comp.alpha, comp.z, comp.hang,
                     RowSparse(n, n, indptr, cols[order[first]], vals), comp.use_nl.copy())
    at, col = comp.keys // n, comp.keys % n
    s = np.bincount(comp.slots(rows, cols), weights, minlength=comp.keys.size + 1)[:-1]
    s = np.where(comp.use_nl[at], comp.hang[col], s)
    return trans, comp.alpha * s + (1.0 - comp.alpha) * comp.z[col]


# The per-record instance reader, kept as the reference that the
# whole-list reader in ``pro.graph`` and ``pro.sparse`` must match: the
# same arrays, bit for bit, and the same exception class on bad input.

def _holds_bool(raw):
    return type(raw) is bool or isinstance(raw, list) and any(map(_holds_bool, raw))


def reference_index_csr(num_rows, num_cols, pairs):
    """``index_csr`` reading the pairs as one nested array, with a boolean
    anywhere in them refused before numpy reads it as 0 or 1."""
    if len(pairs) == 0:
        return np.zeros(num_rows + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)
    try:
        arr = np.asarray(pairs)
    except ValueError as exc:  # ragged nesting
        raise ParseError(f"malformed index list: {exc}") from exc
    if arr.size and arr.dtype.kind not in "iu" or _holds_bool(pairs):
        raise ParseError("indices must be integers")
    arr = arr.astype(np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValidationError("link list must contain [page, target] pairs")
    rows = _in_range(arr[:, 0], num_rows, "link source index out of range")
    cols = _in_range(arr[:, 1], num_cols, "link target index out of range")
    order, first, indptr = _sort_coords(num_rows, num_cols, rows, cols)
    if not first.all():
        raise ValidationError("duplicate link")
    return indptr, cols[order]


def reference_entries(raw, width, name):
    """``graph._entries`` transposing the list by ``zip``."""
    form = "[i, j, v] triples" if width == 3 else "[j, w] pairs"
    graph._require(isinstance(raw, list), f"{name} must be a list of {form}")
    graph._require(set(map(type, raw)) <= {list} and set(map(len, raw)) <= {width},
                   f"{name} must be {form}")
    columns = [list(col) for col in zip(*raw)] or [[]] * width
    index = [graph._columns(col, f"{name} indices") for col in columns[:-1]]
    return index, graph._numbers(columns[-1], f"{name} values")


def reference_skeletons(raw, n, degree):
    """``graph._parse_skeletons`` reading, checking and reducing one
    record at a time; ``degree[i]`` counts page i's links."""
    require = graph._require
    require(isinstance(raw, list), "skeleton must be a list of records")
    rows = {}
    for rec in raw:
        require(isinstance(rec, dict), "skeleton records must be objects")
        for key in ("page", "q", "mu"):
            require(key in rec, f"skeleton record missing {key!r}")
        page = rec["page"]
        require(type(page) is int and 0 <= page < n, "skeleton page out of range")
        require(page not in rows, f"page {page} has two skeleton records", ValidationError)
        require(not degree[page], f"page {page} carries both links and a skeleton record",
                ValidationError)
        q = graph._numbers(rec["q"], "skeleton q", n)
        require(np.all(q >= 0.0), "skeleton q must be nonnegative", ValidationError)
        require(abs(float(q.sum()) - 1.0) <= graph.STOCHASTIC_TOL, "skeleton q must sum to 1",
                ValidationError)
        mu = graph._number(rec["mu"], "skeleton mu")
        require(0.0 <= mu <= 1.0, "skeleton mu must lie in [0, 1]", ValidationError)
        banned = rec.get("banned", [])
        require(isinstance(banned, list), "banned must be a list of pages")
        for j in banned:
            require(type(j) is int and 0 <= j < n, "banned page out of range")
        banned = sorted(set(banned))
        lower = (1.0 - mu) * q
        slack = max(1.0 - float(lower.sum()), 0.0)
        require(len(banned) < n or slack <= 1e-12,
                f"skeleton on page {page} leaves no feasible row", ValidationError)
        cols = np.flatnonzero(q)
        rows[page] = (cols, lower[cols], q[cols], slack,
                      page * n + np.array(banned, dtype=np.int64))
    pages = np.array(sorted(rows), dtype=np.int64)
    parts = [rows[p] for p in pages.tolist()]

    def joined(k, dtype):
        return np.concatenate([np.zeros(0, dtype=dtype)] + [part[k] for part in parts])

    indptr = np.concatenate([[0], np.cumsum([part[0].size for part in parts], dtype=np.int64)])
    slack = np.zeros(n)
    slack[pages] = [part[3] for part in parts]
    return WeightRows(pages, RowSparse(pages.size, n, indptr, joined(0, np.int64),
                                       joined(1, np.float64)),
                      joined(2, np.float64), slack, joined(4, np.int64))


@contextlib.contextmanager
def reference_reader():
    """``load_instance`` and ``load_strategy`` read through the per-record
    reference functions above, inside the block."""
    def skeletons(raw, n, obl_indptr, fac_indptr):
        return reference_skeletons(raw, n, np.diff(obl_indptr) + np.diff(fac_indptr))

    with mock.patch.object(graph, "index_csr", reference_index_csr), \
            mock.patch.object(graph, "_entries", reference_entries), \
            mock.patch.object(graph, "_parse_skeletons", skeletons):
        yield


def instance_arrays(obj, name="instance"):
    """``(path, array)`` for every array inside an instance, recursively."""
    if isinstance(obj, np.ndarray):
        return [(name, obj)]
    if dataclasses.is_dataclass(obj):
        return [item for f in dataclasses.fields(obj)
                for item in instance_arrays(getattr(obj, f.name), f"{name}.{f.name}")]
    if isinstance(obj, tuple):
        return [item for k, x in enumerate(obj) for item in instance_arrays(x, f"{name}[{k}]")]
    return []
