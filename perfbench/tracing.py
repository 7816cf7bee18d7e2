"""Per-layer timers and counters for the traced mode (``--trace 1``).

The wrappers live here, in the benchmark, and are installed around calls
into the program's layers for the length of a traced run; untraced runs
install nothing. Times are inclusive: ``Frontier.insert`` contains the
``Frontier.matrix`` and ``Profile.compare`` calls it makes.

The one non-public hook is the sliding-window engines' ``_expire``, the
only place expiry work can be told apart from arrival work.
"""
from __future__ import annotations

import time
from collections import defaultdict

from repro.core import hac
from repro.core.dominance import Profile
from repro.core.frontier import Frontier
from repro.core.sliding import BaselineSWEngine, FTVSWEngine, _Buffer

ALGORITHMS = ("baseline", "exact", "approx")


class Tracer:
    """Accumulates per-algorithm engine-layer figures while installed."""

    def __init__(self):
        self.algo: str | None = None
        self.cluster_frontiers: set[int] = set()
        self.sums: dict[str, float] = defaultdict(float)
        self.maxes: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    def _patch(self, owner, name, make):
        orig = getattr(owner, name)
        setattr(owner, name, make(orig))
        self._undo.append((owner, name, orig))

    def __enter__(self):
        clock = time.perf_counter_ns
        sums, maxes = self.sums, self.maxes

        def compare(orig):
            def wrapped(profile, frontier, x):
                t = clock()
                res = orig(profile, frontier, x)
                if self.algo:
                    sums[f"{self.algo}.compare_ns"] += clock() - t
                    sums[f"{self.algo}.compare_calls"] += 1
                    sums[f"{self.algo}.rows_compared"] += res.n_compared
                return res
            return wrapped

        def matrix(kind):
            def make(orig):
                def wrapped(store):
                    t = clock()
                    res = orig(store)
                    if self.algo:
                        sums[f"{self.algo}.{kind}_matrix_ns"] += clock() - t
                        key = f"{self.algo}.{kind}_rows_max"
                        maxes[key] = max(maxes[key], res.shape[0])
                    return res
                return wrapped
            return make

        def insert(orig):
            def wrapped(frontier, oid, x):
                t = clock()
                res = orig(frontier, oid, x)
                if self.algo:
                    dt = clock() - t
                    if id(frontier) in self.cluster_frontiers:
                        sums[f"{self.algo}.filter_ns"] += dt
                        sums[f"{self.algo}.filter_inserts"] += 1
                        sums[f"{self.algo}.filter_admitted"] += res.is_pareto
                    else:
                        sums[f"{self.algo}.verify_ns"] += dt
                return res
            return wrapped

        def expire(orig):
            def wrapped(engine, out_id, out_obj):
                t = clock()
                orig(engine, out_id, out_obj)
                if self.algo:
                    sums[f"{self.algo}.expire_ns"] += clock() - t
            return wrapped

        def similarity(orig):
            def wrapped(sims):
                sums["hac.sim_evals"] += 1
                return orig(sims)
            return wrapped

        self._patch(Profile, "compare", compare)
        self._patch(Frontier, "matrix", matrix("frontier"))
        self._patch(_Buffer, "matrix", matrix("buffer"))
        self._patch(Frontier, "insert", insert)
        self._patch(BaselineSWEngine, "_expire", expire)
        self._patch(FTVSWEngine, "_expire", expire)
        self._patch(hac, "mean_attr_similarity", similarity)
        return self

    def __exit__(self, *exc):
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    def watch(self, algo: str, engine) -> None:
        """Attribute the following engine calls to ``algo``."""
        self.algo = algo
        self.cluster_frontiers = {
            id(f) for f in getattr(engine, "cluster_frontiers", {}).values()
        }

    def engine_metrics(self, rounds: int) -> dict[str, float]:
        """Per-round engine-layer figures for every algorithm (0 where an
        algorithm did not run on this workload)."""
        s, m = self.sums, self.maxes
        out = {}
        for a in ALGORITHMS:
            rows = s[f"{a}.rows_compared"]
            out[f"{a}.compare_s"] = s[f"{a}.compare_ns"] / 1e9 / rounds
            out[f"{a}.compare_calls"] = s[f"{a}.compare_calls"] / rounds
            out[f"{a}.rows_compared"] = rows / rounds
            out[f"{a}.ns_per_cmp"] = s[f"{a}.compare_ns"] / rows if rows else 0.0
            out[f"{a}.frontier_matrix_s"] = s[f"{a}.frontier_matrix_ns"] / 1e9 / rounds
            out[f"{a}.buffer_matrix_s"] = s[f"{a}.buffer_matrix_ns"] / 1e9 / rounds
            out[f"{a}.frontier_rows_max"] = m[f"{a}.frontier_rows_max"]
            out[f"{a}.buffer_rows_max"] = m[f"{a}.buffer_rows_max"]
            out[f"{a}.verify_s"] = s[f"{a}.verify_ns"] / 1e9 / rounds
            out[f"{a}.expire_s"] = s[f"{a}.expire_ns"] / 1e9 / rounds
            if a != "baseline":
                inserts = s[f"{a}.filter_inserts"]
                out[f"{a}.filter_s"] = s[f"{a}.filter_ns"] / 1e9 / rounds
                out[f"{a}.filter_pass_rate"] = (
                    s[f"{a}.filter_admitted"] / inserts if inserts else 0.0
                )
        return out
