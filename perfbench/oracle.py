"""Independent frontier oracle for the benchmark's correctness checks.

Dominance is decided from per-user ``prefers`` tables read straight off
the ``Poset`` closures (``poset.prefers``), never through
``repro.core.dominance.Profile``. The whole stream is compared at once: for
one user, ``D[i, j]`` says object ``i`` dominates object ``j`` (Def. 2).

* Append-only: ``(c, o)`` is disseminated iff no earlier object dominates
  ``o`` for ``c``.
* Count-based window ``W`` (Def. 9): with ``s`` the arrival of ``o``,
  ``E`` its latest earlier dominator and ``L`` its earliest later
  dominator, ``(c, o)`` is disseminated iff
  ``max(s, E + W) <= min(n, s + W - 1, L - 1)`` -- some time step of
  ``o``'s window life has no dominator in the window. This covers arrival
  disseminations and mend promotions alike. The engines' step order
  admits one more step; see ``frontier_pairs``.
"""
from __future__ import annotations

import numpy as np


def prefers_tables(prefs_by_user, attrs, domains) -> dict:
    """user -> one boolean ``V x V`` table per attribute, ``T[i, j]`` iff
    value ``i`` is strictly preferred to value ``j``."""
    tables = {}
    for user, by_attr in prefs_by_user.items():
        per_attr = []
        for d in attrs:
            dom = list(domains[d])
            poset = by_attr[d]
            per_attr.append(
                np.array([[poset.prefers(x, y) for y in dom] for x in dom], dtype=bool)
            )
        tables[user] = per_attr
    return tables


def encode_stream(stream, attrs, domains) -> np.ndarray:
    """Objects -> ``n x K`` value indices into each attribute's domain."""
    index = [{v: i for i, v in enumerate(domains[d])} for d in attrs]
    return np.array(
        [[index[k][v] for k, v in enumerate(vals)] for _, vals in stream], dtype=np.int64
    ).reshape(len(stream), len(attrs))


def _dominance(tables_k, x: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    geq = np.ones((n, n), dtype=bool)
    strict = np.zeros((n, n), dtype=bool)
    for k, table in enumerate(tables_k):
        col = x[:, k]
        better = table[col[:, None], col[None, :]]
        geq &= better | (col[:, None] == col[None, :])
        strict |= better
    return geq & strict


def disseminated_mask(dom: np.ndarray, window: int | None, step_order: bool) -> np.ndarray:
    """Boolean per object: disseminated to this user at some point."""
    n = dom.shape[0]
    earlier = np.triu(dom, 1)  # earlier[i, j]: i < j and i dominates j
    if window is None:
        return ~earlier.any(axis=0)
    later = np.tril(dom, -1)  # later[i, j]: i > j and i dominates j
    s = np.arange(1, n + 1)
    e = np.where(earlier.any(axis=0), n - np.argmax(earlier[::-1], axis=0), -window)
    l_ = np.where(later.any(axis=0), np.argmax(later, axis=0) + 1, n + 1)
    lo = np.maximum(s, e + window)
    hi = np.minimum(np.minimum(n, s + window - 1), l_ if step_order else l_ - 1)
    return lo <= hi


def frontier_pairs(tables, stream, attrs, domains, specs) -> list[set]:
    """``(user, object id)`` pairs a correct engine disseminates, for each
    spec ``(prefix length, window or None, step_order)`` over the stream.

    ``step_order`` follows Algs. 4-5 literally: at each step the expiring
    object leaves and mends run *before* the arrival is inserted, so an
    object whose last earlier dominator expires in the very step its first
    later dominator arrives is still promoted. Def. 9 (``step_order``
    false) has no such intermediate state.
    """
    x = encode_stream(stream, attrs, domains)
    oids = np.array([str(oid) for oid, _ in stream], dtype=object)
    out = [set() for _ in specs]
    for user, tables_k in tables.items():
        dom = _dominance(tables_k, x)
        for pairs, (k, window, step_order) in zip(out, specs):
            mask = disseminated_mask(dom[:k, :k], window, step_order)
            pairs.update((str(user), oid) for oid in oids[:k][mask])
    return out


def efficacy(approx: set, exact: set) -> tuple[float, float]:
    """Eq. 7 precision and Eq. 8 recall of approximate pairs."""
    tp = len(approx & exact)
    precision = tp / len(approx) if approx else 1.0
    recall = tp / len(exact) if exact else 1.0
    return precision, recall
