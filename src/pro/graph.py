"""Problem instances: web graphs with controllable links, rewards, constraints.

An instance describes a set of pages, the hyperlinks a webmaster must keep
(obligatory), may add or remove (facultative), and the income attached to
each traversal of the surfer chain.  Pages can instead carry a weight
skeleton that constrains a fully continuous outlink row.  Optional coupling
rows bound linear functionals of the occupation measure across pages.

The surfer chain behind an instance is ``P = damping * S + (1 - damping) *
ones @ teleport`` where ``S`` follows the chosen outlinks uniformly and
rows without outlinks jump according to ``dangling_teleport``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Mapping, Union

import numpy as np

from .errors import InvalidStrategy, ParseError, ValidationError
from .sparse import RowSparse, add_sparse, index_csr, locate, row_ids

STOCHASTIC_TOL = 1e-9
STRATEGY_TOL = 1e-9


@dataclass(frozen=True)
class Rewards:
    """Per-traversal income ``r[i, j] = base[i] + delta[i, j]``.

    ``base`` is a per-row constant and ``delta`` a sparse additive
    correction, so both per-page and per-link reward schemes, and every
    linear combination the coupled solver needs, share one representation.
    """

    base: np.ndarray
    delta: RowSparse

    @staticmethod
    def per_page(values):
        values = np.asarray(values, dtype=np.float64)
        return Rewards(values, RowSparse.empty(values.size, values.size))

    @staticmethod
    def per_link(num_pages, entries, default):
        """Entries give ``r[i, j]`` directly; ``default`` fills the rest."""
        shifted = [(i, j, v - default) for i, j, v in entries]
        return Rewards(
            np.full(num_pages, float(default)),
            RowSparse.from_entries(num_pages, num_pages, shifted),
        )

    @property
    def num_pages(self):
        return self.base.size

    @property
    def is_per_page(self):
        """True when every link of a row earns the same income."""
        return self.delta.nnz == 0

    def entry(self, i, j):
        idx, val = self.delta.row_slice(i)
        k = np.searchsorted(idx, j)
        extra = val[k] if k < idx.size and idx[k] == j else 0.0
        return float(self.base[i] + extra)

    def max_abs(self):
        """Upper bound on ``max |r[i, j]|``, exact off the delta support."""
        m = float(np.max(np.abs(self.base))) if self.base.size else 0.0
        if self.delta.nnz:
            rows = row_ids(self.delta.indptr)
            m = max(m, float(np.max(np.abs(self.base[rows] + self.delta.data))))
        return m

    def row_means(self, weights):
        """Vector of ``sum_j weights[j] * r[i, j]`` for a probability row."""
        return self.base + self.delta.rightmul(weights)

    def minus_weighted(self, matrices, lams):
        """Rewards minus ``sum_k lams[k] * matrices[k]`` (sparse union)."""
        base = self.base.copy()
        delta = self.delta
        for lam, mat in zip(lams, matrices):
            if lam == 0.0:
                continue
            base = base - lam * mat.base
            if mat.delta.nnz:
                delta = add_sparse(delta, mat.delta.scaled(-lam))
        return Rewards(base, delta)

    def scaled(self, factor):
        return Rewards(self.base * factor, self.delta.scaled(factor))

    def dense(self):
        return self.base[:, None] + self.delta.to_dense()


@dataclass(frozen=True)
class SkeletonRecord:
    """Continuous control over one page's outlink row.

    The row must retain at least a ``1 - mu`` share of the designer
    profile ``q`` coordinate by coordinate; ``banned`` coordinates are
    capped at that retained share.
    """

    page: int
    q: np.ndarray
    mu: float
    banned: tuple

    def lower(self):
        return (1.0 - self.mu) * self.q

    def upper(self):
        up = np.ones_like(self.q)
        banned = list(self.banned)
        up[banned] = self.lower()[banned]
        return up


@dataclass(frozen=True)
class CouplingRow:
    """One coupling constraint ``<weights, rho> <= bound``."""

    weights: Rewards
    bound: float


@dataclass(frozen=True)
class WebGraphInstance:
    """A complete optimization instance.

    Link structure is stored as two index-only CSR arrays; the per-page
    partition is obligatory links, facultative links, and (implicitly)
    everything else forbidden.  A page is controlled when it has
    facultative links or a skeleton record.
    """

    num_pages: int
    damping: float
    teleport: np.ndarray
    dangling_teleport: np.ndarray
    obl_indptr: np.ndarray
    obl_indices: np.ndarray
    fac_indptr: np.ndarray
    fac_indices: np.ndarray
    rewards: Rewards
    skeletons: tuple = ()
    coupling: tuple = ()

    @cached_property
    def skeleton_by_page(self):
        return {sk.page: sk for sk in self.skeletons}

    def obligatory_of(self, i):
        return self.obl_indices[self.obl_indptr[i]:self.obl_indptr[i + 1]]

    def facultative_of(self, i):
        return self.fac_indices[self.fac_indptr[i]:self.fac_indptr[i + 1]]

    @cached_property
    def controlled_pages(self):
        fac = np.flatnonzero(np.diff(self.fac_indptr) > 0)
        out = sorted(set(fac.tolist()) | set(self.skeleton_by_page))
        return tuple(out)

    def local_only(self, rewards=None):
        """Copy without coupling rows, optionally swapping the rewards."""
        return replace(self, coupling=(), rewards=rewards or self.rewards)


@dataclass(frozen=True)
class DiscreteChoice:
    """Subset of a page's facultative links switched on."""

    activated: tuple


@dataclass(frozen=True)
class ContinuousChoice:
    """Explicit outlink row for a page, given in chain space (with damping)."""

    row: np.ndarray


@dataclass(frozen=True)
class Strategy:
    """Per-page decisions; pages absent from ``choices`` keep their default.

    The default is no facultative link activated for discrete pages and
    the retained-profile baseline row for skeleton pages.
    """

    choices: Mapping[int, Union[DiscreteChoice, ContinuousChoice]] = field(default_factory=dict)

    def to_json_dict(self):
        pages = []
        for i in sorted(self.choices):
            ch = self.choices[i]
            if isinstance(ch, DiscreteChoice):
                pages.append({"page": int(i), "kind": "discrete",
                              "activated": [int(j) for j in ch.activated]})
            else:
                entries = [[int(j), float(v)] for j, v in enumerate(ch.row) if v != 0.0]
                pages.append({"page": int(i), "kind": "continuous", "row_entries": entries})
        return {"pages": pages}


@dataclass(frozen=True)
class TransitionMatrix:
    """Surfer chain ``P = damping * S + (1 - damping) * ones @ teleport``.

    Only the outlink part ``S`` is stored: a CSR block for rows with
    outlinks plus a flag vector for rows that jump via
    ``dangling_teleport``.  The dense rank-one teleport term is applied on
    the fly and never materialized.
    """

    num_pages: int
    damping: float
    teleport: np.ndarray
    dangling_teleport: np.ndarray
    srows: RowSparse
    dangling: np.ndarray

    def pi_step(self, pi):
        """One application ``pi -> pi P`` for a probability vector pi."""
        out = self.srows.leftmul(pi)
        hang = float(np.sum(pi[self.dangling]))
        if hang != 0.0:
            out = out + hang * self.dangling_teleport
        return self.damping * out + (1.0 - self.damping) * float(np.sum(pi)) * self.teleport

    def apply_s(self, v):
        """Outlink part applied to a column vector, ``S v``."""
        out = self.srows.rightmul(v)
        if np.any(self.dangling):
            out[self.dangling] = float(np.dot(self.dangling_teleport, v))
        return out

    def dense_s(self):
        out = self.srows.to_dense()
        out[self.dangling] = self.dangling_teleport
        return out

    def dense_p(self):
        return self.damping * self.dense_s() + (1.0 - self.damping) * self.teleport[None, :]


def _require(cond, message, exc=ParseError):
    if not cond:
        raise exc(message)


def _as_prob_vector(raw, n, name, allow_zero=False):
    _require(isinstance(raw, (list, tuple)), f"{name} must be an array")
    vec = np.asarray(raw, dtype=np.float64)
    _require(vec.shape == (n,), f"{name} must have length {n}")
    _require(np.all(np.isfinite(vec)), f"{name} must be finite", ValidationError)
    if allow_zero:
        _require(np.all(vec >= 0.0), f"{name} must be nonnegative", ValidationError)
    else:
        _require(np.all(vec > 0.0), f"{name} must be strictly positive", ValidationError)
    _require(abs(float(vec.sum()) - 1.0) <= STOCHASTIC_TOL,
             f"{name} must sum to 1", ValidationError)
    return vec


def _read_document(source, what):
    """Decoded JSON document from a path, or ``source`` itself if a dict."""
    if isinstance(source, dict):
        return source
    if not isinstance(source, (str, os.PathLike)):
        raise ParseError(f"{what} source must be a path or a dict")
    try:
        with open(source, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {what}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def load_instance(source):
    """Parse and validate an instance document.

    Parameters
    ----------
    source : str, os.PathLike, or dict
        Path to a JSON document, or an already decoded document.

    Returns
    -------
    WebGraphInstance

    Raises
    ------
    ParseError
        If the document is malformed.
    ValidationError
        If the document is well formed but structurally invalid.
    """
    doc = _read_document(source, "instance")
    _require(isinstance(doc, dict), "instance document must be an object")
    for key in ("num_pages", "damping", "teleport", "rewards"):
        _require(key in doc, f"missing required key {key!r}")

    n = doc["num_pages"]
    _require(isinstance(n, int) and n >= 1, "num_pages must be a positive integer")
    damping = doc["damping"]
    _require(isinstance(damping, (int, float)), "damping must be a number")
    damping = float(damping)
    _require(0.0 < damping < 1.0, "damping must lie strictly inside (0, 1)",
             ValidationError)

    tele_raw = doc["teleport"]
    if tele_raw == "uniform":
        teleport = np.full(n, 1.0 / n)
    else:
        teleport = _as_prob_vector(tele_raw, n, "teleport")

    hang_raw = doc.get("dangling_teleport")
    if hang_raw is None:
        dangling_teleport = teleport
    elif hang_raw == "uniform":
        dangling_teleport = np.full(n, 1.0 / n)
    else:
        dangling_teleport = _as_prob_vector(hang_raw, n, "dangling_teleport",
                                            allow_zero=True)

    obl_pairs = doc.get("obligatory", [])
    fac_pairs = doc.get("facultative", [])
    _require(isinstance(obl_pairs, list), "obligatory must be a list of pairs")
    _require(isinstance(fac_pairs, list), "facultative must be a list of pairs")
    obl_indptr, obl_indices = index_csr(n, n, obl_pairs)
    fac_indptr, fac_indices = index_csr(n, n, fac_pairs)

    rewards = _parse_rewards(doc["rewards"], n)
    skeletons = _parse_skeletons(doc.get("skeleton", []), n)
    coupling = _parse_coupling(doc.get("coupling", []), n)

    instance = WebGraphInstance(
        num_pages=n,
        damping=damping,
        teleport=teleport,
        dangling_teleport=dangling_teleport,
        obl_indptr=obl_indptr,
        obl_indices=obl_indices,
        fac_indptr=fac_indptr,
        fac_indices=fac_indices,
        rewards=rewards,
        skeletons=skeletons,
        coupling=coupling,
    )
    validate(instance)
    return instance


def _parse_rewards(raw, n):
    _require(isinstance(raw, dict) and "type" in raw, "rewards must carry a type")
    if raw["type"] == "per_page":
        _require("values" in raw, "per_page rewards need values")
        values = np.asarray(raw["values"], dtype=np.float64)
        _require(values.shape == (n,), "per_page values must have one entry per page")
        _require(np.all(np.isfinite(values)), "rewards must be finite", ValidationError)
        return Rewards.per_page(values)
    if raw["type"] == "per_link":
        _require("default" in raw, "per_link rewards need a default")
        _require(isinstance(raw["default"], (int, float)), "default must be a number")
        entries = raw.get("entries", [])
        _require(isinstance(entries, list), "entries must be a list of triples")
        for e in entries:
            _require(isinstance(e, list) and len(e) == 3, "entries must be [i, j, r] triples")
        rewards = Rewards.per_link(n, [(e[0], e[1], float(e[2])) for e in entries],
                                   float(raw["default"]))
        _require(np.all(np.isfinite(rewards.delta.data)), "rewards must be finite",
                 ValidationError)
        return rewards
    raise ParseError(f"unknown rewards type {raw['type']!r}")


def _parse_skeletons(raw, n):
    _require(isinstance(raw, list), "skeleton must be a list of records")
    out = []
    for rec in raw:
        _require(isinstance(rec, dict), "skeleton records must be objects")
        for key in ("page", "q", "mu"):
            _require(key in rec, f"skeleton record missing {key!r}")
        page = rec["page"]
        _require(isinstance(page, int) and 0 <= page < n, "skeleton page out of range")
        q = _as_prob_vector(rec["q"], n, "skeleton q", allow_zero=True)
        mu = rec["mu"]
        _require(isinstance(mu, (int, float)), "skeleton mu must be a number")
        mu = float(mu)
        _require(0.0 <= mu <= 1.0, "skeleton mu must lie in [0, 1]", ValidationError)
        banned = rec.get("banned", [])
        _require(isinstance(banned, list), "banned must be a list of pages")
        for j in banned:
            _require(isinstance(j, int) and 0 <= j < n, "banned page out of range")
        out.append(SkeletonRecord(page, q, mu, tuple(sorted(set(banned)))))
    return tuple(out)


def _parse_coupling(raw, n):
    _require(isinstance(raw, list), "coupling must be a list of rows")
    out = []
    for rec in raw:
        _require(isinstance(rec, dict) and "bound" in rec, "coupling rows need a bound")
        has_entries = "entries" in rec
        has_per_page = "per_page" in rec
        _require(has_entries != has_per_page,
                 "coupling rows carry exactly one of entries, per_page")
        if has_entries:
            entries = rec["entries"]
            _require(isinstance(entries, list), "coupling entries must be a list")
            for e in entries:
                _require(isinstance(e, list) and len(e) == 3,
                         "coupling entries must be [i, j, d] triples")
            weights = Rewards(np.zeros(n),
                              RowSparse.from_entries(n, n, [(e[0], e[1], float(e[2]))
                                                            for e in entries]))
        else:
            values = np.asarray(rec["per_page"], dtype=np.float64)
            _require(values.shape == (n,), "per_page coupling needs one weight per page")
            weights = Rewards.per_page(values)
        bound = rec["bound"]
        _require(isinstance(bound, (int, float)), "coupling bound must be a number")
        out.append(CouplingRow(weights, float(bound)))
    return tuple(out)


def validate(instance):
    """Check the structural invariants of an instance.

    Raises
    ------
    ValidationError
        On the first violated requirement.
    """
    n = instance.num_pages
    if not 0.0 < instance.damping < 1.0:
        raise ValidationError("damping must lie strictly inside (0, 1)")
    z = instance.teleport
    if z.shape != (n,) or not np.all(z > 0.0) or abs(float(z.sum()) - 1.0) > STOCHASTIC_TOL:
        raise ValidationError("teleport must be strictly positive and sum to 1")
    hang = instance.dangling_teleport
    if hang.shape != (n,) or not np.all(hang >= 0.0) \
            or abs(float(hang.sum()) - 1.0) > STOCHASTIC_TOL:
        raise ValidationError("dangling_teleport must be a distribution")

    # obligatory and facultative links must be disjoint page by page
    if locate(instance.fac_indptr, instance.fac_indices, n,
              row_ids(instance.obl_indptr), instance.obl_indices)[1].any():
        raise ValidationError("a link cannot be both obligatory and facultative")

    if instance.rewards.num_pages != n:
        raise ValidationError("rewards shape does not match num_pages")

    seen = set()
    for sk in instance.skeletons:
        if sk.page in seen:
            raise ValidationError(f"page {sk.page} has two skeleton records")
        seen.add(sk.page)
        if instance.obligatory_of(sk.page).size or instance.facultative_of(sk.page).size:
            raise ValidationError(
                f"page {sk.page} carries both links and a skeleton record")
        lo, up = sk.lower(), sk.upper()
        if float(up.sum()) < 1.0 - 1e-12:
            raise ValidationError(
                f"skeleton on page {sk.page} leaves no feasible row")
        if np.any(lo < -1e-15):
            raise ValidationError("skeleton lower bounds must be nonnegative")

    for row in instance.coupling:
        if row.weights.num_pages != n:
            raise ValidationError("coupling row shape does not match num_pages")

    return instance


def load_strategy(source):
    """Parse a strategy document (path or dict) without instance context."""
    doc = _read_document(source, "strategy")
    _require(isinstance(doc, dict) and "pages" in doc, "strategy document needs pages")
    _require(isinstance(doc["pages"], list), "strategy pages must be a list")
    choices = {}
    for rec in doc["pages"]:
        _require(isinstance(rec, dict) and "page" in rec and "kind" in rec,
                 "strategy records need page and kind")
        page = rec["page"]
        _require(isinstance(page, int) and page >= 0, "strategy page must be a nonnegative integer")
        _require(page not in choices, f"page {page} listed twice in strategy")
        if rec["kind"] == "discrete":
            acts = rec.get("activated", [])
            _require(isinstance(acts, list), "activated must be a list")
            choices[page] = DiscreteChoice(tuple(sorted(int(j) for j in acts)))
        elif rec["kind"] == "continuous":
            entries = rec.get("row_entries", [])
            _require(isinstance(entries, list), "row_entries must be a list")
            pairs = {}
            for e in entries:
                _require(isinstance(e, list) and len(e) == 2, "row_entries must be [j, w] pairs")
                _require(e[0] not in pairs, "row_entries lists a column twice")
                pairs[int(e[0])] = float(e[1])
            size = max(pairs) + 1 if pairs else 0
            row = np.zeros(size)
            row[list(pairs)] = list(pairs.values())
            choices[page] = ContinuousChoice(row)
        else:
            raise ParseError(f"unknown strategy kind {rec['kind']!r}")
    return Strategy(choices)


def default_skeleton_row(sk, damping, teleport):
    """Baseline chain-space row for a skeleton page.

    Keeps the retained profile and spreads the free mass over non-banned
    coordinates proportionally to ``q`` (uniformly when ``q`` puts no
    mass there).
    """
    lo = sk.lower()
    slack = 1.0 - float(lo.sum())
    x = lo.copy()
    if slack > 0.0:
        free = np.ones(sk.q.size, dtype=bool)
        free[list(sk.banned)] = False
        if not np.any(free):
            raise ValidationError(f"skeleton on page {sk.page} bans every coordinate")
        weights = np.where(free, sk.q, 0.0)
        total = float(weights.sum())
        if total <= 0.0:
            weights = free.astype(np.float64)
            total = float(weights.sum())
        x += slack * weights / total
    return damping * x + (1.0 - damping) * teleport


def build_transition(instance, strategy=None):
    """Assemble the surfer chain selected by a strategy.

    Parameters
    ----------
    instance : WebGraphInstance
    strategy : Strategy or None
        ``None`` means the default strategy.

    Returns
    -------
    TransitionMatrix

    Raises
    ------
    InvalidStrategy
        If a choice activates a non-facultative link, hands a discrete
        choice to a skeleton page, or supplies a row outside the page's
        constraint set (checked against the chain-space facets within
        1e-9).

    Notes
    -----
    Deterministic: identical inputs produce bit-identical CSR arrays.
    The chain is assembled with array operations: activated links are
    looked up in the facultative CSR by flat key, uniform rows (value
    ``1 / degree``) come from the sorted obligatory and activated keys,
    and a continuous row replaces its page's links.  Only the facet
    check of a continuous row runs page by page.
    """
    from . import polytopes  # deferred to keep module load order simple

    n = instance.num_pages
    alpha = instance.damping
    z = instance.teleport
    choices = strategy.choices if strategy is not None else {}

    continuous_rows = {}
    act_pages, act_links = [], []
    for page in sorted(choices):
        if not isinstance(page, (int, np.integer)) or not 0 <= page < n:
            raise InvalidStrategy(f"strategy page {page} out of range")
        ch = choices[page]
        sk = instance.skeleton_by_page.get(page)
        if isinstance(ch, DiscreteChoice):
            if sk is not None:
                raise InvalidStrategy(
                    f"page {page} needs a continuous row, not a link subset")
            act_pages += [page] * len(ch.activated)
            act_links += ch.activated
        elif isinstance(ch, ContinuousChoice):
            if ch.row.size > n:
                raise InvalidStrategy(f"row for page {page} has too many columns")
            row = np.zeros(n)
            row[:ch.row.size] = ch.row
            if abs(float(row.sum()) - 1.0) > STRATEGY_TOL:
                raise InvalidStrategy(f"row for page {page} is not stochastic")
            fs = polytopes.apply_damping(_local_facets(instance, page, polytopes), alpha, z)
            verdict = polytopes.separate(fs, row, tol=STRATEGY_TOL)
            if verdict.violated:
                raise InvalidStrategy(
                    f"row for page {page} violates {verdict.description} "
                    f"by {verdict.magnitude:.3e}")
            srow = (row - (1.0 - alpha) * z) / alpha
            srow = np.maximum(srow, 0.0)
            total = float(srow.sum())
            if total <= 0.0:
                raise InvalidStrategy(f"row for page {page} has no outlink part")
            continuous_rows[page] = srow / total
        else:
            raise InvalidStrategy(f"unsupported choice type for page {page}")

    act_rows = np.asarray(act_pages, dtype=np.int64)
    act_cols = np.asarray(act_links)
    _, hit = locate(instance.fac_indptr, instance.fac_indices, n, act_rows, act_cols)
    if not hit.all():
        k = int(np.argmin(hit))
        raise InvalidStrategy(f"link ({act_pages[k]}, {act_links[k]}) is not facultative")

    for sk in instance.skeletons:
        if sk.page not in choices:
            prow = default_skeleton_row(sk, alpha, z)
            srow = (prow - (1.0 - alpha) * z) / alpha
            continuous_rows[sk.page] = np.maximum(srow, 0.0)

    # obligatory plus activated links give uniform rows; a continuous row
    # replaces its page's links
    is_cont = np.zeros(n, dtype=bool)
    is_cont[list(continuous_rows)] = True
    rows = np.concatenate([row_ids(instance.obl_indptr), act_rows])
    cols = np.concatenate([instance.obl_indices, act_cols.astype(np.int64)])
    keep = ~is_cont[rows]
    cont = sorted(continuous_rows.items())
    nz = [np.flatnonzero(srow) for _, srow in cont]
    rows = np.concatenate([rows[keep]] + [np.full(c.size, p) for (p, _), c in zip(cont, nz)])
    cols = np.concatenate([cols[keep]] + nz)
    indptr, indices = index_csr(n, n, np.column_stack([rows, cols]))
    deg = np.diff(indptr)
    data = 1.0 / np.repeat(deg, deg)
    if cont:
        data[np.repeat(is_cont, deg)] = np.concatenate(
            [srow[c] for (_, srow), c in zip(cont, nz)])
    # every continuous row has outlink mass, so only link pages can dangle
    return TransitionMatrix(n, alpha, z, instance.dangling_teleport,
                            RowSparse(n, n, indptr, indices, data), deg == 0)


def _local_facets(instance, page, polytopes):
    """Outlink-space facet system of one page's constraint set."""
    sk = instance.skeleton_by_page.get(page)
    if sk is not None:
        return polytopes.facets_box(sk.lower(), sk.upper())
    obligatory = instance.obligatory_of(page)
    facultative = instance.facultative_of(page)
    return polytopes.facets_discrete(obligatory, facultative,
                                     instance.dangling_teleport, instance.num_pages)

