"""Refresh checks, each recomputed apart from the code under test.

Every function returns a list of failure messages (empty when the check
holds), so a run can report all of them before it exits non-zero.
"""
from __future__ import annotations

import numpy as np


def _pair_matrix(prefs_by_user, users, attr):
    """0/1 matrix users x (ordered value pairs seen in ``attr``)."""
    cols = sorted({p for u in users for p in prefs_by_user[u][attr].pairs}, key=repr)
    col_of = {p: i for i, p in enumerate(cols)}
    m = np.zeros((len(users), len(cols)))
    for r, u in enumerate(users):
        for p in prefs_by_user[u][attr].pairs:
            m[r, col_of[p]] = 1.0
    return m


def _eq6(prefs_by_user, attrs, left, right) -> float:
    """Eq. 6 vector Jaccard of two clusters, averaged over attributes."""
    total = 0.0
    for d in attrs:
        m = _pair_matrix(prefs_by_user, list(left) + list(right), d)
        a = m[: len(left)].mean(axis=0)
        b = m[len(left) :].mean(axis=0)
        den = np.maximum(a, b).sum()
        total += 1.0 if den == 0 else np.minimum(a, b).sum() / den
    return total / len(attrs)


def check_merges(prefs_by_user, attrs, dendrogram, tol=1e-9) -> list[str]:
    """Each merge's recorded similarity equals Eq. 6 recomputed from the
    merged members' relations."""
    errors = []
    for i, m in enumerate(dendrogram.merges):
        want = _eq6(prefs_by_user, attrs, m.left, m.right)
        if abs(want - m.sim) > tol:
            errors.append(f"merge {i}: recorded sim {m.sim!r}, Eq. 6 gives {want!r}")
    return errors


def check_partition(partition, users) -> list[str]:
    """``theta(h)`` puts every user in exactly one cluster."""
    flat = [u for cluster in partition for u in cluster]
    if sorted(flat) != sorted(users) or len(set(flat)) != len(flat):
        return [f"theta(h) is not a partition of the {len(users)} users"]
    return []


def _relation_matrix(poset, dom):
    index = {v: i for i, v in enumerate(dom)}
    r = np.zeros((len(dom), len(dom)), dtype=bool)
    for x, y in poset.pairs:
        r[index[x], index[y]] = True
    return r


def check_approx_relations(exact_clusters, approx_clusters, attrs, domains) -> list[str]:
    """Every Alg. 3 relation is a strict partial order that contains the
    exact common relation of the same members (Lemma 2)."""
    errors = []
    for ex, ap in zip(exact_clusters, approx_clusters):
        if ex.members != ap.members:
            errors.append(f"cluster {ex.cluster_id}: exact and approx members differ")
            continue
        for d in attrs:
            dom = list(domains[d])
            r = _relation_matrix(ap.relation[d], dom)
            e = _relation_matrix(ex.relation[d], dom)
            composed = (r.astype(np.int64) @ r.astype(np.int64)) > 0
            if r.diagonal().any() or (composed & ~r).any():
                errors.append(f"cluster {ap.cluster_id}/{d}: Alg. 3 relation is not a strict partial order")
            if (e & ~r).any():
                errors.append(f"cluster {ap.cluster_id}/{d}: Alg. 3 relation misses exact common tuples")
    return errors


def check_jaccard(sims, prefs_by_user, attrs, tol=1e-9) -> list[str]:
    """Spark's pairwise Jaccard equals a numpy recomputation."""
    users = sorted(prefs_by_user)
    total = np.zeros((len(users), len(users)))
    for d in attrs:
        m = _pair_matrix(prefs_by_user, users, d)
        inter = m @ m.T
        size = m.sum(axis=1)
        union = size[:, None] + size[None, :] - inter
        total += np.where(union == 0, 1.0, inter / np.where(union == 0, 1.0, union))
    total /= len(attrs)
    want = {
        (a, b): total[i, j] for i, a in enumerate(users) for j, b in enumerate(users) if i < j
    }
    if set(sims) != set(want):
        return [f"pairwise Jaccard covers {len(sims)} pairs, expected {len(want)}"]
    bad = [k for k, v in want.items() if abs(sims[k] - v) > tol]
    return [f"pairwise Jaccard differs on {len(bad)} pairs, e.g. {bad[0]}"] if bad else []


def check_pref_tuples(spark_tuples: set, pandas_prefs, duckdb_tuples: set) -> list[str]:
    """Spark-derived preference tuples equal the pandas derivation and
    DuckDB running the same SQL text."""
    pandas_tuples = {
        (str(u), d, str(x), str(y))
        for u, by_attr in pandas_prefs.items()
        for d, poset in by_attr.items()
        for x, y in poset.pairs
    }
    errors = []
    if spark_tuples != pandas_tuples:
        errors.append(
            f"Spark tuples ({len(spark_tuples)}) differ from pandas ({len(pandas_tuples)})"
        )
    if spark_tuples != duckdb_tuples:
        errors.append(
            f"Spark tuples ({len(spark_tuples)}) differ from DuckDB ({len(duckdb_tuples)})"
        )
    return errors
