"""Problem instances: web graphs with controllable links, rewards, constraints.

An instance describes a set of pages, the hyperlinks a webmaster must keep
(obligatory), may add or remove (facultative), and the income attached to
each traversal of the surfer chain.  Pages can instead carry a weight
skeleton that constrains a fully continuous outlink row; the parser
reads ``q`` in blocks of at most ``max(n, 65536)`` numbers and reduces
every skeleton record to its floor on the nonzeros of ``q``, its slack
and its bans, all held once in one sparse ``WeightRows``, so a weight
page costs O(nnz of q) after loading.  Links and per-link entries are
read flat, one array per column.  Optional coupling rows bound linear
functionals of the occupation measure across pages.

The surfer chain behind an instance is ``P = damping * S + (1 - damping) *
ones @ teleport`` where ``S`` follows the chosen outlinks uniformly and
rows without outlinks jump according to ``dangling_teleport``.  A
strategy gives a continuous row in outlink space, by where the page's
free mass goes (``ContinuousChoice``), so an optimal weight-mode row is
one entry however dense its skeleton.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Mapping, Optional, Union

import numpy as np

from . import polytopes
from .errors import InvalidStrategy, ParseError, ValidationError
from .sparse import (RowSparse, _flat_records, _sort_coords, find_sorted, flat_array,
                     index_csr, locate, ranges, row_ids)

STOCHASTIC_TOL = 1e-9
STRATEGY_TOL = 1e-9
# Link keys ``row * num_pages + col`` are int64; above this page count
# they would wrap.
MAX_PAGES = math.isqrt(2 ** 63 - 1)
# Systems on at most this many pages are solved densely.  OpenBLAS
# solves n x n on one thread while n * n < 10000; above, with its pool
# unpinned on a loaded 2-core host, a few of 200 solves of 100-200 pages
# took 68-136 ms, not 0.1-0.6 ms (none did pinned, or at 99 pages).
# Unpinned, its worker thread ran at 100 pages for solves (56-66 CPU ticks
# over 3,000) and for ``x @ A`` products (9-10 over 20,000), never at 99.
DENSE_EVAL_CAP = 99


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

    @property
    def num_pages(self):
        return self.base.size

    @property
    def is_per_page(self):
        """True when every link of a row earns the same income."""
        return self.delta.nnz == 0

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

    def scaled(self, factor):
        return Rewards(self.base * factor, self.delta.scaled(factor))

    def dense(self):
        return self.base[:, None] + self.delta.to_dense()


@dataclass(frozen=True)
class WeightRows:
    """The weight pages, the only form a skeleton record is kept in.

    ``pages`` lists them in ascending order, and row k of ``floor`` is
    page ``pages[k]``'s floor ``(1 - mu) q`` on the nonzeros of ``q``,
    whose values ``q`` holds entry by entry.  ``slack[i]`` is page i's
    free mass ``max(1 - sum(floor), 0)`` (summed over the dense floor,
    as parsed), 0 off the weight pages.  ``banned`` holds the sorted
    keys ``i * num_pages + j`` of the banned pairs.  ``len()`` counts
    the weight pages.
    """

    pages: np.ndarray
    floor: RowSparse
    q: np.ndarray
    slack: np.ndarray
    banned: np.ndarray

    @staticmethod
    def empty(num_pages):
        """The store of an instance without weight pages."""
        return WeightRows(np.zeros(0, dtype=np.int64), RowSparse.empty(0, num_pages),
                          np.zeros(0), np.zeros(num_pages), np.zeros(0, dtype=np.int64))

    def __len__(self):
        return self.pages.size

    def _row(self, page):
        """``(cols, floor, q)`` of a page on the nonzeros of q, empty off
        the weight pages."""
        (k,), (hit,) = find_sorted(self.pages, [page])
        lo, hi = (self.floor.indptr[k], self.floor.indptr[k + 1]) if hit else (0, 0)
        return self.floor.indices[lo:hi], self.floor.data[lo:hi], self.q[lo:hi]

    def banned_of(self, page):
        """Sorted banned targets of ``page``."""
        n = self.slack.size
        lo, hi = np.searchsorted(self.banned, [page * n, page * n + n])
        return self.banned[lo:hi] - page * n

    def bounds(self, pages):
        """Dense ``(lower, upper)`` bounds of the outlink rows of ``pages``,
        one row each: the floor (0 off the weight pages), and 1 off the
        banned targets, the floor on them."""
        pages = np.asarray(pages, dtype=np.int64)
        n = self.slack.size
        k, hit = find_sorted(self.pages, pages)
        lower = np.zeros((pages.size, n))
        owner, pos = ranges(self.floor.indptr[k[hit]], self.floor.indptr[k[hit] + 1])
        lower[np.flatnonzero(hit)[owner], self.floor.indices[pos]] = self.floor.data[pos]
        upper = np.ones((pages.size, n))
        owner, pos = ranges(*np.searchsorted(self.banned, [pages * n, pages * n + n]))
        cols = self.banned[pos] - pages[owner] * n
        upper[owner, cols] = lower[owner, cols]
        return lower, upper

    def default_choice(self, page):
        """Baseline choice of a weight page.

        Spreads the free mass over the non-banned targets in proportion
        to ``q`` (uniformly when ``q`` puts no mass there).  When every
        target is banned the floor alone is the row.
        """
        cols, _, q = self._row(page)
        banned = self.banned_of(page)
        free = ~find_sorted(banned, cols)[1]
        if free.any():
            cols, weights = cols[free], q[free]
        else:
            keep = np.ones(self.slack.size, dtype=bool)
            keep[banned] = False
            cols = np.flatnonzero(keep)
            weights = np.ones(cols.size)
        probs = weights / float(weights.sum())  # empty when every target is banned
        return ContinuousChoice(tuple(cols.tolist()), tuple(probs.tolist()))


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
    facultative links or is a weight page (``skeletons``).
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
    skeletons: WeightRows
    coupling: tuple = ()

    def obligatory_of(self, i):
        return self.obl_indices[self.obl_indptr[i]:self.obl_indptr[i + 1]]

    def facultative_of(self, i):
        return self.fac_indices[self.fac_indptr[i]:self.fac_indptr[i + 1]]


@dataclass(frozen=True)
class DiscreteChoice:
    """Subset of a page's facultative links switched on."""

    activated: tuple


@dataclass(frozen=True)
class ContinuousChoice:
    """Where a page sends its free outlink mass: ``probs[k]`` to ``cols[k]``.

    The page's outlink row is ``floor + slack * probs``.
    On a skeleton page the floor is the retained profile ``(1 - mu) q``
    and ``slack = 1 - sum(floor)``; on any other page the floor is 0 and
    the slack 1, so ``probs`` is the row itself.  ``probs`` is a
    distribution (``build_transition`` divides it by its sum) and ``cols``
    holds distinct pages.  An optimal weight-mode row sends all free mass
    to one target, the page's master: ``ContinuousChoice((j,), (1.0,))``.
    """

    cols: tuple
    probs: tuple


@dataclass(frozen=True)
class Strategy:
    """Per-page decisions; pages absent from ``choices`` keep their default.

    The default is no facultative link activated for discrete pages and,
    for weight pages, free mass in proportion to ``q`` on the non-banned
    targets (``WeightRows.default_choice``).
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
                entries = [[int(j), float(p)] for j, p in zip(ch.cols, ch.probs)]
                pages.append({"page": int(i), "kind": "free", "row_entries": entries})
        return {"pages": pages}


def _runs(rows):
    """The rows of the runs of equal ``rows``, and where each run starts,
    then ``rows.size``."""
    new = np.ones(rows.size + 1, dtype=bool)
    new[1:-1] = rows[1:] != rows[:-1]
    starts = np.flatnonzero(new)
    return rows[starts[:-1]], starts


@dataclass(frozen=True)
class FixedPart:
    """The entries of ``S`` that no policy chooses, held once and shared:
    the obligatory links of the rows that keep them (value 1), then the
    weight floors ``(1 - mu) q``, each block in row order; no row has
    both.  ``blocks``, if given, is ``(F, C, M^-1, B)`` for pages F whose
    rows every chain on this part shares (``TransitionMatrix.solve``)."""

    num_pages: int
    obl_rows: np.ndarray
    obl_cols: np.ndarray
    floor_rows: np.ndarray
    floor_cols: np.ndarray
    floor_vals: np.ndarray
    blocks: Optional[tuple] = None

    @cached_property
    def runs(self):
        """``_runs`` of the obligatory block, then of the floors."""
        return [_runs(self.obl_rows), _runs(self.floor_rows)]

    @cached_property
    def keys(self):
        """Each entry's flat key ``i * n + j``, the obligatory links first."""
        n = self.num_pages
        return np.append(self.obl_rows * n + self.obl_cols, self.floor_rows * n + self.floor_cols)

    def sums(self, obl, floor):
        """Per row, the sum of ``obl`` over its obligatory links or of
        ``floor`` over its floor, in order; 0 on the other rows."""
        out = np.zeros(self.num_pages)
        for (rows, starts), x in zip(self.runs, (obl, floor)):
            out[rows] = np.add.reduceat(x, starts[:-1])
        return out


@dataclass(eq=False)
class TransitionMatrix:
    """Surfer chain ``P = damping * S + (1 - damping) * ones @ teleport``.

    ``S`` is a ``fixed`` part, held by reference (``FixedPart``), and the
    entries a strategy chooses, laid end to end in ``rows``, ``cols`` and
    ``vals``: the activated facultative links (value 1; ``activated``
    masks the facultative CSR), then the lifts ``slack * probs``.  Row i
    of ``S`` is its entries' sum divided once by ``size[i]``, its link
    count on a uniform row and 1 elsewhere; a lift adds to a floor entry
    on its coordinate, floor first, and no such sum is below 0.  No
    coordinate has two fixed or two chosen entries.  The ``dangling``
    rows jump by ``dangling_teleport``.  The teleport term is applied on
    the fly.
    """

    num_pages: int
    damping: float
    teleport: np.ndarray
    dangling_teleport: np.ndarray
    fixed: FixedPart
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    size: np.ndarray
    dangling: np.ndarray
    activated: np.ndarray

    @cached_property
    def _step_entries(self):
        """``pi_step``'s entries, fixed then chosen: their columns and shares
        of ``S``, and the rows and lengths of their runs of one row."""
        f = self.fixed
        run_rows, starts = _runs(np.concatenate([f.obl_rows, f.floor_rows, self.rows]))
        return (np.concatenate([f.obl_cols, f.floor_cols, self.cols]), self._shares, run_rows,
                np.diff(starts))

    @cached_property
    def _shares(self):
        """Each entry's share of ``S``, fixed then chosen (a floor row's size is 1)."""
        f = self.fixed
        return np.concatenate([1.0 / self.size[f.obl_rows], f.floor_vals,
                               self.vals / self.size[self.rows]])

    @cached_property
    def _keys(self):
        """Each entry's flat key ``i * n + j``, fixed then chosen, for ``p_at``."""
        return np.concatenate([self.fixed.keys, self.rows * self.num_pages + self.cols])

    def row_sums(self, fixed, chosen, no_link):
        """Per row, ``(fixed + its chosen entries' vals * chosen) / size``, or ``no_link``."""
        out = fixed + np.bincount(self.rows, self.vals * chosen, minlength=self.num_pages)
        out /= self.size
        return np.where(self.dangling, no_link, out)

    def apply_s(self, v):
        """``S v``: each row's fixed entries summed in order, then its chosen ones."""
        f = self.fixed
        return self.row_sums(f.sums(v[f.obl_cols], v[f.floor_cols] * f.floor_vals),
                             v[self.cols], float(np.dot(self.dangling_teleport, v)))

    def pi_step(self, pi):
        """One application ``pi -> pi P`` for a probability vector pi."""
        cols, shares, rows, counts = self._step_entries
        out = np.bincount(cols, pi[rows].repeat(counts) * shares, minlength=self.num_pages)
        hang = float(pi[self.dangling].sum())
        if hang != 0.0:
            out = out + hang * self.dangling_teleport
        return self.damping * out + (1.0 - self.damping) * float(pi.sum()) * self.teleport

    def dense_s(self):
        """``S`` as a dense ``(n, n)`` array."""
        n, f = self.num_pages, self.fixed
        s = np.zeros((n, n))
        # the fixed entries, then the chosen ones: each coordinate once per part
        s.ravel()[f.keys] += self._shares[:f.keys.size]
        s.ravel()[self.rows * n + self.cols] += self._shares[f.keys.size:]
        s[self.dangling] = self.dangling_teleport
        return s

    def dense_p(self):
        return self.damping * self.dense_s() + (1.0 - self.damping) * self.teleport[None, :]

    def p_at(self, keys):
        """``P`` at the ascending flat keys ``i * n + j``, summed as ``dense_s``."""
        n, alpha = self.num_pages, self.damping
        pos, hit = find_sorted(keys, self._keys)
        s = np.bincount(pos[hit], self._shares[hit], minlength=keys.size)
        col = keys % n
        s = np.where(self.dangling[keys // n], self.dangling_teleport[col], s)
        return alpha * s + (1.0 - alpha) * self.teleport[col]

    def solve(self, rhs, transpose=False):
        """``x`` with ``(I - damping S) x = rhs``, or its transpose: dense up
        to ``DENSE_EVAL_CAP`` pages and ``None`` above, or, given the fixed
        part's ``blocks``, on the pages C outside F (the stochastic
        complement; Meyer, *SIAM Review*, 1989).  With ``G = I - damping
        (S_CC + S_CF B)`` and ``a = M^-1 rhs_F``: ``G x_C = rhs_C + damping
        S_CF a``, ``x_F = a + B x_C``; transposed, ``G^T x_C = rhs_C + B^T
        rhs_F``, ``x_F = (rhs_F + damping S_CF^T x_C) M^-1``.
        """
        n, alpha = self.num_pages, self.damping
        if self.fixed.blocks is None:
            if n > DENSE_EVAL_CAP:
                return None
            s = self.dense_s()
            return np.linalg.solve(np.eye(n) - alpha * (s.T if transpose else s), rhs)
        f, c, m_inv, b = self.fixed.blocks
        s_c = self.dense_s()[c]
        s_cf = s_c[:, f]
        g = np.eye(c.size) - alpha * (s_c[:, c] + s_cf @ b)
        x = np.empty(n)
        if transpose:
            x[c] = np.linalg.solve(g.T, rhs[c] + b.T @ rhs[f])
            x[f] = (rhs[f] + alpha * (x[c] @ s_cf)) @ m_inv
        else:
            a = m_inv @ rhs[f]
            x[c] = np.linalg.solve(g, rhs[c] + alpha * (s_cf @ a))
            x[f] = a + b @ x[c]
        return x


def _require(cond, message, exc=ParseError):
    if not cond:
        raise exc(message)


def _number(raw, name):
    """A JSON number, not a bool, as a finite float."""
    _require(isinstance(raw, (int, float)) and not isinstance(raw, bool),
             f"{name} must be a number")
    # compared exactly, so NaN, infinities and ints beyond float range fail
    _require(-sys.float_info.max <= raw <= sys.float_info.max,
             f"{name} must be finite", ValidationError)
    return float(raw)


def _numbers(raw, name, size=None):
    """A flat list of JSON numbers, ``size`` of them if given, as a float64
    array of finite values."""
    arr = flat_array(raw, {int, float}, name)
    _require(np.isfinite(arr).all(), f"{name} must be finite", ValidationError)
    _require(size is None or arr.size == size, f"{name} must have length {size}")
    return arr


def _columns(raw, name):
    """A flat list of JSON integers, none negative, as an int64 array."""
    idx = flat_array(raw, {int}, name)
    _require(np.all(idx >= 0), f"{name} must be nonnegative", ValidationError)
    return idx


def _entries(raw, width, name):
    """``[i, j, v]`` triples (``width`` 3) or ``[j, w]`` pairs (2) as arrays.

    Returns ``(index, values)``: one flat, nonnegative int64 array per
    index position, and the finite float64 values.  The list is read
    flat, one strided slice per column, so no Python loop runs per entry.
    The caller checks the indices' upper bound.
    """
    form = "[i, j, v] triples" if width == 3 else "[j, w] pairs"
    flat = _flat_records(raw, width) if isinstance(raw, list) else None
    _require(flat is not None, f"{name} must be a list of {form}")
    index = [_columns(flat[k::width], f"{name} indices") for k in range(width - 1)]
    return index, _numbers(flat[width - 1::width], f"{name} values")


def _distribution(raw, n, name, allow_zero=False, default=None):
    """``"uniform"`` or a list of n probabilities; ``default`` if absent."""
    if raw is None and default is not None:
        return default
    if isinstance(raw, str) and raw == "uniform":
        return np.full(n, 1.0 / n)
    vec = _numbers(raw, name, n)
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
    """Parse an instance document; the one place an instance is checked.

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
    _require(type(n) is int and n >= 1, "num_pages must be a positive integer")
    _require(n <= MAX_PAGES, f"num_pages must be at most {MAX_PAGES}", ValidationError)
    damping = _number(doc["damping"], "damping")
    _require(0.0 < damping < 1.0, "damping must lie strictly inside (0, 1)",
             ValidationError)

    teleport = _distribution(doc["teleport"], n, "teleport")
    dangling_teleport = _distribution(doc.get("dangling_teleport"), n, "dangling_teleport",
                                      allow_zero=True, default=teleport)

    obl_pairs = doc.get("obligatory", [])
    fac_pairs = doc.get("facultative", [])
    _require(isinstance(obl_pairs, list), "obligatory must be a list of pairs")
    _require(isinstance(fac_pairs, list), "facultative must be a list of pairs")
    obl_indptr, obl_indices = index_csr(n, n, obl_pairs)
    fac_indptr, fac_indices = index_csr(n, n, fac_pairs)
    _require(not (obl_indices.size and fac_indices.size and
                  locate(fac_indptr, fac_indices, n, row_ids(obl_indptr), obl_indices)[1].any()),
             "a link cannot be both obligatory and facultative", ValidationError)

    rewards = _parse_rewards(doc["rewards"], n)
    skeletons = _parse_skeletons(doc.get("skeleton", []), n, obl_indptr, fac_indptr)
    coupling = _parse_coupling(doc.get("coupling", []), n)

    return WebGraphInstance(
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


def _parse_rewards(raw, n):
    _require(isinstance(raw, dict) and "type" in raw, "rewards must carry a type")
    if raw["type"] == "per_page":
        _require("values" in raw, "per_page rewards need values")
        return Rewards.per_page(_numbers(raw["values"], "rewards", n))
    if raw["type"] == "per_link":
        _require("default" in raw, "per_link rewards need a default")
        default = _number(raw["default"], "default")
        (rows, cols), values = _entries(raw.get("entries", []), 3, "rewards entries")
        # entries give r[i, j] directly; default fills the rest
        delta = RowSparse.from_entries(n, n, rows, cols, values - default)
        _require(np.all(np.isfinite(delta.data)), "rewards must be finite", ValidationError)
        return Rewards(np.full(n, default), delta)
    raise ParseError(f"unknown rewards type {raw['type']!r}")


def _parse_skeletons(raw, n, obl_indptr, fac_indptr):
    """The skeleton records, in page order, as one ``WeightRows``: pages,
    ``mu`` and bans are read as whole lists, and the dense ``q`` lists
    flat in blocks of at most ``max(n, 65536)`` numbers, one array
    each, of which only the nonzeros are kept.  A weight page has no
    links."""
    _require(isinstance(raw, list), "skeleton must be a list of records")
    if not raw:
        return WeightRows.empty(n)
    _require(all(isinstance(rec, dict) and {"page", "q", "mu"} <= rec.keys() for rec in raw),
             "skeleton records must be objects with page, q and mu")
    pages = flat_array([rec["page"] for rec in raw], {int}, "skeleton page")
    _require(pages.min() >= 0 and pages.max() < n, "skeleton page out of range")
    raw = sorted(raw, key=itemgetter("page"))  # one pass when the pages ascend
    pages = np.sort(pages)
    for bad, message in ((pages[1:][pages[1:] == pages[:-1]], "has two skeleton records"),
                         (pages[(np.diff(obl_indptr) + np.diff(fac_indptr))[pages] != 0],
                          "carries both links and a skeleton record")):
        if bad.size:
            raise ValidationError(f"page {bad[0]} {message}")
    # an integer mu beyond 64 bits lies outside [0, 1]; NaN fails the range
    mus = flat_array([rec["mu"] for rec in raw], {int, float}, "skeleton mu", ValidationError)
    _require(np.all((mus >= 0.0) & (mus <= 1.0)), "skeleton mu must lie in [0, 1]",
             ValidationError)
    keep = 1.0 - mus
    bans = [rec.get("banned", []) for rec in raw]
    _require(all(isinstance(b, list) for b in bans), "banned must be a list of pages")
    targets = flat_array(list(chain.from_iterable(bans)), {int}, "banned page")
    _require(targets.size == 0 or targets.min() >= 0 and targets.max() < n,
             "banned page out of range")
    qs, step, parts = [rec["q"] for rec in raw], max(2 ** 16 // n, 1), []
    for lo in range(0, len(qs), step):
        flat = _flat_records(qs[lo:lo + step], n)
        _require(flat is not None, f"skeleton q must be a list of {n} numbers")
        q = _numbers(flat, "skeleton q").reshape(-1, n)
        floor = keep[lo:lo + step, None] * q
        pos = np.flatnonzero(q)
        parts.append((pos + lo * n, floor.ravel()[pos], q.ravel()[pos], q.sum(axis=1),
                      floor.sum(axis=1)))
    # pos runs over the k x n array of all q; a negative entry is a nonzero
    pos, floor, q, total, fixed = map(np.concatenate, zip(*parts))
    del parts  # the blocks' copies, freed before the checks and columns below
    _require(q.size == 0 or q.min() >= 0.0, "skeleton q must be nonnegative", ValidationError)
    _require(np.all(np.abs(total - 1.0) <= STOCHASTIC_TOL), "skeleton q must sum to 1",
             ValidationError)
    slack = np.maximum(1.0 - fixed, 0.0)
    # the banned keys page * n + j, sorted, each once; page k bans per[k + 1] - per[k]
    owner = np.repeat(np.arange(pages.size), list(map(len, bans)))
    order, first, per = _sort_coords(pages.size, n, owner, targets)
    banned = (pages[owner] * n + targets)[order[first]]
    # a page banning every target has its floor as its only row
    stuck = pages[(np.diff(per) == n) & (slack > 1e-12)]
    if stuck.size:
        raise ValidationError(f"skeleton on page {stuck[0]} leaves no feasible row")
    indptr = np.searchsorted(pos, np.arange(pages.size + 1) * n)
    cols = pos  # in place: a flat position less its row's start
    cols -= np.repeat(np.arange(pages.size) * n, np.diff(indptr))
    full = np.zeros(n)
    full[pages] = slack
    return WeightRows(pages, RowSparse(pages.size, n, indptr, cols, floor), q, full, banned)


def _parse_coupling(raw, n):
    _require(isinstance(raw, list), "coupling must be a list of rows")
    out = []
    for rec in raw:
        _require(isinstance(rec, dict) and "bound" in rec, "coupling rows need a bound")
        _require(("entries" in rec) != ("per_page" in rec),
                 "coupling rows carry exactly one of entries, per_page")
        if "entries" in rec:
            (rows, cols), values = _entries(rec["entries"], 3, "coupling entries")
            weights = Rewards(np.zeros(n), RowSparse.from_entries(n, n, rows, cols, values))
        else:
            weights = Rewards.per_page(_numbers(rec["per_page"], "coupling weights", n))
        out.append(CouplingRow(weights, _number(rec["bound"], "coupling bound")))
    return tuple(out)


def load_strategy(source, instance):
    """Parse a strategy document (path or dict) for ``instance``.

    A ``row_entries`` column must lie below the page count; it is checked
    before anything is allocated.  Links and columns are JSON integers and
    weights JSON numbers, never booleans.  Two kinds of record
    are read: ``"discrete"``, a ``DiscreteChoice``'s activated links, and
    ``"free"``, a ``ContinuousChoice``'s entries as they are.  Pages,
    links and rows are checked against the instance by ``build_transition``.
    """
    n = instance.num_pages
    doc = _read_document(source, "strategy")
    _require(isinstance(doc, dict) and "pages" in doc, "strategy document needs pages")
    _require(isinstance(doc["pages"], list), "strategy pages must be a list")
    choices = {}
    for rec in doc["pages"]:
        _require(isinstance(rec, dict) and "page" in rec and "kind" in rec,
                 "strategy records need page and kind")
        page = rec["page"]
        _require(type(page) is int and page >= 0, "strategy page must be a nonnegative integer")
        _require(page not in choices, f"page {page} listed twice in strategy")
        kind = rec["kind"]
        if kind == "discrete":
            acts = np.sort(_columns(rec.get("activated", []), "activated"))
            _require(not np.any(acts[1:] == acts[:-1]), "activated lists a link twice")
            choices[page] = DiscreteChoice(tuple(acts.tolist()))
            continue
        _require(kind == "free", f"unknown strategy kind {kind!r}")
        (cols,), vals = _entries(rec.get("row_entries", []), 2, "row_entries")
        order = np.argsort(cols)
        cols, vals = cols[order], vals[order]
        _require(not np.any(cols[1:] == cols[:-1]), "row_entries lists a column twice")
        _require(np.all(cols < n), f"row_entries columns must be below {n}", ValidationError)
        choices[page] = ContinuousChoice(tuple(cols.tolist()), tuple(vals.tolist()))
    return Strategy(choices)


def _free_entries(instance, is_weight, pages, picked):
    """The lifts ``(rows, cols, slack * probs)`` of checked continuous rows.

    ``picked[k]`` is the ``ContinuousChoice`` of page ``pages[k]``, and
    every weight page (``is_weight``, a mask over pages) is among
    ``pages``.  A row is ``floor + slack * probs``, its slack in
    ``instance.skeletons`` (1 off the weight pages).  Every check reads
    with tolerance ``tol = STRATEGY_TOL / damping``, ``STRATEGY_TOL`` on
    the chain row.  Each choice's weights are a distribution (sum one,
    none below ``-tol``); only a weight page whose slack is at most
    ``tol`` may have none.  They are used clipped at 0 and divided by
    their sum, so each row is nonnegative with mass one up to rounding.
    No choice names a column twice, and a weight page's lift on a banned
    target is at most ``tol``.  The link pages' rows are separated
    against their outlink facets at once, and the error names the page
    of the worst violation.
    """
    n = instance.num_pages
    if not picked:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)
    tol = STRATEGY_TOL / instance.damping
    store = instance.skeletons
    sizes = [len(ch.cols) for ch in picked]
    if sizes != [len(ch.probs) for ch in picked]:
        raise InvalidStrategy("a continuous choice needs one weight per column")
    pages = np.asarray(pages, dtype=np.int64)
    rows = np.repeat(pages, sizes)
    cols = np.asarray([j for ch in picked for j in ch.cols])
    probs = np.asarray([p for ch in picked for p in ch.probs], dtype=float)
    if cols.size and (cols.dtype.kind not in "iu" or cols.min() < 0 or cols.max() >= n):
        raise InvalidStrategy("a continuous choice names a column that is not a page")
    cols = cols.astype(np.int64)
    if not np.all(np.isfinite(probs)):
        raise InvalidStrategy("a continuous choice has a weight that is not finite")
    owner = np.repeat(np.arange(pages.size), sizes)
    total = np.bincount(owner, probs, minlength=pages.size)
    idle = is_weight[pages] & (store.slack[pages] <= tol)
    bad = np.flatnonzero(((np.abs(total - 1.0) > tol)
                          | (np.bincount(owner, probs < -tol, minlength=pages.size) > 0))
                         & ~(idle & (np.asarray(sizes) == 0)))
    if bad.size:
        page = pages[bad[0]]
        raise InvalidStrategy(f"page {page} has no free mass, and its weights are not a "
                              "distribution" if idle[bad[0]] else
                              f"the weights of page {page} are not a distribution")
    # a weight below 0 is used as 0, and the rest divided by their sum
    used = np.maximum(probs, 0.0)
    used /= np.bincount(owner, used, minlength=pages.size)[owner]
    lift = np.where(is_weight[rows], store.slack[rows], 1.0) * used
    # mass on a banned target (only weight pages ban)
    off = np.where(find_sorted(store.banned, rows * n + cols)[1], lift, 0.0)
    if off.size and off.max() > tol:
        k = int(np.argmax(off))
        raise InvalidStrategy(f"row for page {rows[k]} moves x[{cols[k]}] off its floor "
                              f"by {off[k]:.3e}")
    link = ~is_weight[pages]
    if link.any():
        # the link pages' rows, scattered into one dense array
        on = ~is_weight[rows]
        dense = np.zeros((int(link.sum()), n))
        dense[np.repeat(np.cumsum(link) - 1, sizes)[on], cols[on]] = probs[on]
        verdict = polytopes.separate(instance_facets(instance, pages[link]), dense, tol=tol)
        if verdict.violated:
            raise InvalidStrategy(f"row for page {pages[link][verdict.page]} violates "
                                  f"{verdict.description} by {verdict.magnitude:.3e}")
    keys = np.sort(rows * n + cols)
    if np.any(keys[1:] == keys[:-1]):
        raise InvalidStrategy("a continuous choice names a column twice")
    return rows, cols, lift


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
        If a choice activates a non-facultative link or one link twice,
        hands a discrete choice to a skeleton page, or supplies a row
        outside the page's constraint set.  A continuous choice's outlink
        row (see ``ContinuousChoice``) is checked within ``STRATEGY_TOL /
        damping``: in closed form on a skeleton page, against the outlink
        facets elsewhere.

    Notes
    -----
    Deterministic: identical inputs produce bit-identical arrays.  The
    blocks are assembled with array operations: activated links are
    looked up in the facultative CSR by flat key, and a continuous row's
    lifts replace its page's links.
    """
    n = instance.num_pages
    choices = strategy.choices if strategy is not None else {}
    store = instance.skeletons
    is_weight = np.zeros(n, dtype=bool)
    is_weight[store.pages] = True

    free_pages, free = [], []
    act_pages, act_links = [], []
    for page in sorted(choices):
        if not isinstance(page, (int, np.integer)) or not 0 <= page < n:
            raise InvalidStrategy(f"strategy page {page} out of range")
        ch = choices[page]
        if isinstance(ch, DiscreteChoice):
            if is_weight[page]:
                raise InvalidStrategy(
                    f"page {page} needs a continuous row, not a link subset")
            act_pages += [page] * len(ch.activated)
            act_links += ch.activated
        elif isinstance(ch, ContinuousChoice):
            free_pages.append(page)
            free.append(ch)
        else:
            raise InvalidStrategy(f"unsupported choice type for page {page}")

    pos, hit = locate(instance.fac_indptr, instance.fac_indices, n,
                      np.asarray(act_pages, dtype=np.int64), np.asarray(act_links))
    if not hit.all():
        k = int(np.argmin(hit))
        raise InvalidStrategy(f"link ({act_pages[k]}, {act_links[k]}) is not facultative")
    activated = np.zeros(instance.fac_indices.size, dtype=bool)
    activated[pos] = True
    if np.count_nonzero(activated) < pos.size:
        k = int(np.argmax(np.bincount(pos)[pos] > 1))
        raise InvalidStrategy(f"link ({act_pages[k]}, {act_links[k]}) is activated twice")

    for page in store.pages.tolist():
        if page not in choices:
            free_pages.append(page)
            free.append(store.default_choice(page))
    # a continuous row replaces its page's links; the other rows keep
    # their obligatory links and add the activated ones
    is_cont = np.zeros(n, dtype=bool)
    is_cont[free_pages] = True
    o_rows = row_ids(instance.obl_indptr)
    keep = ~is_cont[o_rows]
    o_rows = o_rows[keep]
    floor = store.floor
    fixed = FixedPart(n, o_rows, instance.obl_indices[keep], store.pages[row_ids(floor.indptr)],
                      floor.indices, floor.data)
    l_rows, l_cols, lift = _free_entries(instance, is_weight, free_pages, free)
    a_rows = row_ids(instance.fac_indptr)[activated]
    deg = np.bincount(o_rows, minlength=n) + np.bincount(a_rows, minlength=n)
    # every continuous row has outlink mass, so only link pages can dangle
    return TransitionMatrix(
        n, instance.damping, instance.teleport, instance.dangling_teleport, fixed,
        np.concatenate([a_rows, l_rows]), np.concatenate([instance.fac_indices[activated], l_cols]),
        np.concatenate([np.ones(a_rows.size), lift]),
        np.maximum(deg, 1).astype(float), (deg == 0) & ~is_cont, activated)


def instance_facets(instance, pages):
    """The outlink facet system of ``pages``: row k is page ``pages[k]``'s.

    Built at once from the link CSR arrays, ``dangling_teleport`` and
    the weight pages' ``bounds``.  Columns stay page-local (``x[j]`` is
    the page's entry for target j).
    """
    pages = np.asarray(pages, dtype=np.int64)
    links = np.zeros((2, pages.size, instance.num_pages), dtype=bool)
    for mask, indptr, indices in ((links[0], instance.obl_indptr, instance.obl_indices),
                                  (links[1], instance.fac_indptr, instance.fac_indices)):
        owner, pos = ranges(indptr[pages], indptr[pages + 1])
        mask[owner, indices[pos]] = True
    store = instance.skeletons
    return polytopes.facet_tables(links[0], links[1], instance.dangling_teleport,
                                  find_sorted(store.pages, pages)[1], *store.bounds(pages))
