"""Seeded instance documents for the benchmark workloads, numpy only.

Every document is a pure function of ``(workload, seed, index)`` and is
returned as JSON text, so the benchmark times the same parsing path a
user of ``pro`` pays for.  Nothing here imports ``pro``: the inputs, and
the coupling bounds inside them, must not move when the code under test
changes.

Coupling bounds come from chains this module evaluates itself.  A bound
sits between the spending of the default strategy (no facultative link
on, or the retained-profile baseline row on weight pages) and the
spending of a greedy strategy that chases the budget weight.  The
default strategy is admissible and meets its own spending, so every
bound is attainable; the greedy end makes it bite on most instances.
"""

from __future__ import annotations

import json

import numpy as np

DAMPING = 0.85
# the small instances keep one damping factor inside criterion 7's
# range: a damping drawn per instance would spread sweep counts fivefold
SMALL_DAMPING = 0.7

# per workload: pages, controlled pages, facultative candidates per
# controlled page, share of paid pages, skeleton pages, and documents per
# run.  Every pass of a run takes all of its documents, so the count is
# fixed by the seed and not by the speed of the host.  It is large where
# the documents of one seed differ much in solve time: web-coupled's
# outer iterations vary twofold, so its webs are small and many
SIZES = {
    "web-subset": {"pages": 20_000, "controlled": 100, "fac_each": 1000,
                   "docs": 2},
    "web-weights": {"pages": 3_000, "skeletons": 30, "docs": 3},
    "web-coupled": {"pages": 100, "controlled": 5, "fac_each": 20,
                    "paid_share": 0.05, "docs": 64},
    "small-crosscheck": {"pages": 18, "docs": 12},
}
WORKLOADS = tuple(SIZES)


def rng_for(workload, seed, index):
    """Independent stream per (workload, seed, document index)."""
    return np.random.default_rng([WORKLOADS.index(workload), seed, index])


def documents(workload, seed):
    """All JSON documents of one run, in the order the run visits them."""
    make = _MAKERS[workload]
    return [make(rng_for(workload, seed, k), **_kwargs(workload))
            for k in range(SIZES[workload]["docs"])]


def _kwargs(workload):
    return {k: v for k, v in SIZES[workload].items() if k != "docs"}


def _power_law_links(rng, n):
    """Obligatory layer: zipf out-degrees, polynomially popular targets.

    Out-degrees are capped at a twentieth of the pages, so one hub
    cannot dominate a small web's link count.
    """
    deg = 5 + np.minimum(rng.zipf(2.5, n), min(495, n // 20))
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    pop = (np.arange(n) + 1.0) ** -0.6
    cum = np.cumsum(pop / pop.sum())
    dst = np.minimum(np.searchsorted(cum, rng.random(src.size)), n - 1)
    return np.unique(src * n + dst)


def _facultative(rng, n, controlled, fac_each, okey):
    fsrc = np.repeat(controlled, fac_each)
    fdst = rng.integers(0, n, fsrc.size, dtype=np.int64)
    fkey = np.unique(fsrc * n + fdst)
    return fkey[~np.isin(fkey, okey)]


def _pairs(keys, n):
    return np.stack([keys // n, keys % n], axis=1).tolist()


def _paid_values(rng, n, frac=0.01):
    # the most popular twentieth of the pages is never paid, so the
    # number of links into paid pages stays close to its mean
    values = np.zeros(n)
    paid = n // 20 + rng.choice(n - n // 20, max(1, int(frac * n)),
                                replace=False)
    values[paid] = rng.uniform(0.5, 1.5, paid.size)
    return values


def web_subset(rng, pages, controlled, fac_each):
    """Power-law web in subset mode with per-page rewards."""
    n = pages
    okey = _power_law_links(rng, n)
    ctrl = rng.choice(n, controlled, replace=False).astype(np.int64)
    fkey = _facultative(rng, n, ctrl, fac_each, okey)
    return json.dumps({
        "num_pages": n, "damping": DAMPING, "teleport": "uniform",
        "obligatory": _pairs(okey, n), "facultative": _pairs(fkey, n),
        "rewards": {"type": "per_page",
                    "values": _paid_values(rng, n).tolist()},
    })


def web_weights(rng, pages, skeletons):
    """Power-law web whose controlled pages carry dense weight skeletons."""
    n = pages
    okey = _power_law_links(rng, n)
    sk_pages = np.sort(rng.choice(n, skeletons, replace=False))
    okey = okey[~np.isin(okey // n, sk_pages)]
    records = []
    for page in sk_pages.tolist():
        q = rng.random(n) * (rng.random(n) < 0.6)
        q /= q.sum()
        banned = rng.choice(n, 2, replace=False).tolist()
        records.append({"page": page, "q": q.tolist(),
                        "mu": float(rng.uniform(0.3, 0.9)), "banned": banned})
    return json.dumps({
        "num_pages": n, "damping": DAMPING, "teleport": "uniform",
        "obligatory": _pairs(okey, n), "facultative": [],
        "rewards": {"type": "per_page",
                    "values": _paid_values(rng, n).tolist()},
        "skeleton": records,
    })


def web_coupled(rng, pages, controlled, fac_each, paid_share):
    """Power-law web, per-link rewards, one per-page budget row.

    Half of the controlled pages and a twentieth of the others lose
    their obligatory links, so pages choosing between the no-link row
    and facultative links, and dangling pages, both occur.
    """
    n = pages
    okey = _power_law_links(rng, n)
    ctrl = rng.choice(n, controlled, replace=False).astype(np.int64)
    hollow = np.concatenate([ctrl[: controlled // 2],
                             rng.choice(n, n // 20, replace=False)])
    okey = okey[~np.isin(okey // n, hollow)]
    fkey = _facultative(rng, n, ctrl, fac_each, okey)
    paid = _paid_values(rng, n, paid_share)
    links = np.concatenate([okey, fkey])
    into_paid = links[paid[links % n] > 0.0]
    gain = paid[into_paid % n] * rng.uniform(0.8, 1.2, into_paid.size)
    entries = [[int(k // n), int(k % n), float(g)]
               for k, g in zip(into_paid.tolist(), gain.tolist())]
    weights = np.where(paid > 0.0, rng.uniform(0.5, 1.5, n), 0.0) \
        + rng.uniform(0.0, 0.2, n)
    z = np.full(n, 1.0 / n)
    spend_def = _discrete_spending(n, okey, z, weights)
    greedy = np.concatenate([okey, fkey[paid[fkey % n] > 0.0]])
    spend_hi = _discrete_spending(n, greedy, z, weights)
    bound = spend_def + 0.5 * max(spend_hi - spend_def, 0.0)
    return json.dumps({
        "num_pages": n, "damping": DAMPING, "teleport": "uniform",
        "obligatory": _pairs(okey, n), "facultative": _pairs(fkey, n),
        "rewards": {"type": "per_link", "default": 0.0, "entries": entries},
        "coupling": [{"per_page": weights.tolist(), "bound": float(bound)}],
    })


def small_crosscheck(rng, pages):
    """All-weight-page instance small enough for the dense simplex."""
    n = pages
    teleport = rng.random(n) + 0.05
    teleport /= teleport.sum()
    rewards = rng.uniform(-1.0, 1.0, n)
    weights = 0.7 * rewards + 0.3 * rng.uniform(-1.0, 1.0, n)
    records, s_def, s_hi = [], np.zeros((n, n)), np.zeros((n, n))
    for i in range(n):
        q = rng.random(n) * (rng.random(n) < 0.6)
        if q.sum() <= 0.0:
            q[int(rng.integers(0, n))] = 1.0
        q /= q.sum()
        banned = []
        if rng.random() < 0.3:
            banned = rng.choice(n, 2, replace=False).tolist()
        mu = float(rng.uniform(0.3, 0.9))
        records.append({"page": i, "q": q.tolist(), "mu": mu,
                        "banned": banned})
        lower = (1.0 - mu) * q
        free = np.ones(n, dtype=bool)
        free[banned] = False
        share = np.where(free, q, 0.0)
        share = share / share.sum() if share.sum() > 0.0 else free / free.sum()
        s_def[i] = lower + mu * share
        s_hi[i] = lower
        s_hi[i, np.flatnonzero(free)[np.argmax(weights[free])]] += mu
    spend_def = _dense_spending(s_def, teleport, weights)
    spend_hi = _dense_spending(s_hi, teleport, weights)
    bound = spend_def + 0.3 * max(spend_hi - spend_def, 0.0)
    return json.dumps({
        "num_pages": n, "damping": SMALL_DAMPING,
        "teleport": teleport.tolist(),
        "obligatory": [], "facultative": [],
        "rewards": {"type": "per_page", "values": rewards.tolist()},
        "skeleton": records,
        "coupling": [{"per_page": weights.tolist(), "bound": float(bound)}],
    })


def _discrete_spending(n, keys, z, weights):
    """Per-page budget spending of the chain with uniform rows on ``keys``.

    Pages without a link jump by the teleport row, as in ``pro``.
    """
    src, dst = keys // n, keys % n
    deg = np.bincount(src, minlength=n).astype(float)
    dangling = deg == 0
    pi = z.copy()
    for _ in range(1000):
        nxt = np.bincount(dst, weights=(pi / np.maximum(deg, 1.0))[src],
                          minlength=n)
        nxt = DAMPING * (nxt + pi[dangling].sum() * z) + (1.0 - DAMPING) * z
        change = np.abs(nxt - pi).sum()
        pi = nxt
        if change <= 1e-14:
            break
    return float(pi @ weights)


def _dense_spending(s, teleport, weights):
    n = s.shape[0]
    p = SMALL_DAMPING * s + (1.0 - SMALL_DAMPING) * teleport[None, :]
    a = np.vstack([(p - np.eye(n)).T, np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi = np.linalg.lstsq(a, b, rcond=None)[0]
    return float(pi @ weights)


_MAKERS = {
    "web-subset": web_subset,
    "web-weights": web_weights,
    "web-coupled": web_coupled,
    "small-crosscheck": small_crosscheck,
}


if __name__ == "__main__":
    import sys

    for text in documents(sys.argv[1], int(sys.argv[2])):
        print(text)
