"""In-process stages shared by the workloads: data generation, the driver-side
refresh (HAC, theta(h), exact and Alg. 3 relations), engine construction
and timed engine rounds. The ``append`` and ``window`` workloads are made
of these stages alone; ``pipeline`` reuses the engine rounds for its
in-process replay.
"""
from __future__ import annotations

import pickle
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.core.approx import approx_cluster_relation
from repro.core.baseline import BaselineEngine
from repro.core.common import Cluster, make_exact_clusters
from repro.core.ftv import FTVEngine
from repro.core.hac import cluster_users
from repro.core.sliding import BaselineSWEngine, FTVSWEngine
from repro.datasets import movie, publication
from repro.synth_data import zipf_choice

import checks
import oracle
from speed import SpeedProbe

GENERATORS = {"movie": movie.generate, "publication": publication.generate}
STREAM_ZIPF_ALPHA = 0.9  #: both generators' default value popularity skew
WARMUP_OBJECTS = 50  #: objects replayed through throw-away engines first


@dataclass
class Tally:
    """Operations attempted and failed, and the checks that did not hold."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


@dataclass
class Refresh:
    dendrogram: object
    partition: list
    exact: list
    approx: list
    seconds: dict[str, float]  #: stage -> wall seconds


def generate(cfg, seed: int):
    """The workload's pinned user population, and an object stream drawn
    from ``seed`` the way the dataset generators draw theirs."""
    ds = GENERATORS[cfg["dataset"]](
        n_users=cfg["users"], n_groups=cfg["groups"], n_stream=0, seed=cfg["population_seed"]
    )
    rng = np.random.default_rng(seed)
    n = cfg["objects"]
    cols = [zipf_choice(rng, ds.domains[d], n, alpha=STREAM_ZIPF_ALPHA) for d in ds.attrs]
    ds.stream = [(f"o{i}", tuple(str(c[i]) for c in cols)) for i in range(n)]
    return ds


def refresh(attrs, prefs, h: float, initial_sims=None) -> Refresh:
    """Preferences -> dendrogram -> theta(h) -> exact and Alg. 3 clusters."""
    clock = time.perf_counter
    t0 = clock()
    dend = cluster_users(list(attrs), prefs, measure="vector_jaccard", initial_sims=initial_sims)
    t1 = clock()
    partition = dend.theta(h)
    exact = make_exact_clusters(partition, prefs, list(attrs))
    t2 = clock()
    approx = [
        Cluster(i, tuple(m), approx_cluster_relation(list(m), prefs, list(attrs)))
        for i, m in enumerate(partition)
    ]
    t3 = clock()
    return Refresh(
        dend,
        partition,
        exact,
        approx,
        {"hac": t1 - t0, "common": t2 - t1, "approx": t3 - t2},
    )


def build_engines(ds, ref: Refresh, window: int | None) -> dict:
    a, p, d = ds.attrs, ds.prefs, ds.domains
    if window is None:
        return {
            "baseline": BaselineEngine(a, p, d),
            "exact": FTVEngine(a, ref.exact, p, d),
            "approx": FTVEngine(a, ref.approx, p, d),
        }
    return {
        "baseline": BaselineSWEngine(a, p, d, window=window),
        "exact": FTVSWEngine(a, ref.exact, p, d, window=window),
        "approx": FTVSWEngine(a, ref.approx, p, d, window=window),
    }


@dataclass
class EngineRun:
    raw_ns: np.ndarray  #: insert times as measured
    durations_ns: np.ndarray  #: insert times at the reference speed (speed.py)
    arrival: set
    mend: set
    comparisons: dict[str, int]
    failed: int

    @property
    def pairs(self) -> set:
        return self.arrival | self.mend


def run_engines(engines: dict, stream, tracer=None, probe=None) -> dict[str, EngineRun]:
    """Feed the stream to every engine, object by object in turn, timing
    each ``insert``. Interleaving gives every engine the same share of the
    machine's speed swings over the run; ``probe`` samples that speed once
    per object."""
    clock = time.perf_counter_ns
    durations = {a: np.zeros(len(stream), dtype=np.int64) for a in engines}
    arrival = {a: set() for a in engines}
    failed = dict.fromkeys(engines, 0)
    first_tick = len(probe.samples) if probe else 0
    for i, (oid, vals) in enumerate(stream):
        for algo, engine in engines.items():
            if tracer:
                tracer.watch(algo, engine)
            t = clock()
            try:
                targets = engine.insert(oid, vals)
                durations[algo][i] = clock() - t
            except Exception:  # counted as a failed operation; the run goes on
                durations[algo][i] = clock() - t
                targets = ()
                failed[algo] += 1
                traceback.print_exc(file=sys.stderr)
            for c in targets:
                arrival[algo].add((str(c), str(oid)))
        if probe:
            probe.tick()
    if tracer:
        tracer.watch(None, None)
    # Each insert reads as at the reference speed, by the running speed
    # around its object (speed.py).
    scale = probe.local_factors(first_tick) if probe else 1.0
    out = {}
    for algo, engine in engines.items():
        mend = {(str(c), str(o)) for c, o in getattr(engine, "disseminated", ())} - arrival[algo]
        out[algo] = EngineRun(
            durations[algo], durations[algo] / scale, arrival[algo], mend,
            dict(engine.counter.by_stage),
            failed[algo],
        )
    return out


def state_bytes(engine) -> int:
    """Bytes of the engine pickled the way the streaming operator stores it."""
    return len(pickle.dumps(engine))


def setup_reps(cfg, seed: int, reps: int, probe: SpeedProbe):
    """Set up ``reps`` times: generate, refresh, build engines. Returns the
    last dataset and refresh plus per-rep raw timings, each with the
    machine-speed factor ``f`` sampled just before and after its rep."""
    clock = time.perf_counter
    timings = []
    for _ in range(reps):
        before = probe.burst()
        t0 = clock()
        ds = generate(cfg, seed)
        t1 = clock()
        ref = refresh(ds.attrs, ds.prefs, cfg["h"])
        t2 = clock()
        build_engines(ds, ref, cfg["window"])
        t3 = clock()
        probe.burst()
        timings.append({
            "f": probe.factor(before),
            "setup": t3 - t0, "generate": t1 - t0, "refresh": t2 - t1, "build": t3 - t2,
            **ref.seconds,
        })
    return ds, ref, timings


def oracle_pairs(prefs, ds, k: int, window) -> tuple[set, set]:
    """Step-order and Def. 9 pairs over the first ``k`` objects."""
    tables = oracle.prefers_tables(prefs, ds.attrs, ds.domains)
    specs = [(k, window, True), (k, window, False)]
    step, def9 = oracle.frontier_pairs(tables, ds.stream, ds.attrs, ds.domains, specs)
    return step, def9


def check_pairs(tally: Tally, step: set, def9: set, pairs_by_algo: dict) -> dict[str, int]:
    """Exact engines' pairs against the oracle; returns, per engine, the
    number of its pairs beyond Def. 9.

    Every Def. 9 pair must be there. Append-only, Def. 9 and step order
    agree, so the pairs must equal the oracle's. With a window the engines
    follow Algs. 4-5 step order (expire, mend, then insert): a mend may
    promote an object that the same step's arrival dominates (README,
    *Known faults*). Pairs of that kind, and only those, are let through
    and counted, so the count reads 0 once the engines keep Def. 9."""
    extra = {}
    for algo, pairs in pairs_by_algo.items():
        tally.check(def9 <= pairs, f"{algo} misses {len(def9 - pairs)} of {len(def9)} Def. 9 pairs")
        tally.check(
            pairs <= step,
            f"{algo} has {len(pairs - step)} pairs that neither Def. 9 nor the step order allows",
        )
        extra[algo] = len(pairs - def9)
        if extra[algo]:
            print(f"{algo}: {extra[algo]} pairs beyond Def. 9 (transient mend promotions)", file=sys.stderr)
    return extra


def median_of(timings, key, scaled: bool = True):
    """Median of ``key`` over the reps, at the reference speed or raw."""
    return statistics.median(t[key] / (t["f"] if scaled else 1.0) for t in timings)


def refresh_checks(tally: Tally, ds, ref: Refresh) -> None:
    for msg in checks.check_partition(ref.partition, ds.users):
        tally.check(False, msg)
    for msg in checks.check_merges(ds.prefs, ds.attrs, ref.dendrogram):
        tally.check(False, msg)
    for msg in checks.check_approx_relations(ref.exact, ref.approx, ds.attrs, ds.domains):
        tally.check(False, msg)


def quantile_us(durations_ns: np.ndarray, q: float) -> float:
    return float(np.quantile(durations_ns, q)) / 1e3


def measure_engines(ds, ref: Refresh, window, seconds: float, tally: Tally, probe, tracer=None):
    """Warm up on a prefix, then replay the stream through fresh Baseline,
    FTV-Exact and FTV-Approx engines until ``seconds`` have passed (at
    least once); check the pairs against the oracle. Returns the engine
    end-to-end metrics, their raw (unscaled) time figures and per-layer
    figures."""
    stream = ds.stream
    run_engines(build_engines(ds, ref, window), stream[:WARMUP_OBJECTS])
    rounds: list[dict[str, EngineRun]] = []
    t_start = time.perf_counter()
    while not rounds or time.perf_counter() - t_start < seconds:
        engines = build_engines(ds, ref, window)
        rounds.append(run_engines(engines, stream, tracer, probe))
        tally.attempted += len(engines) * len(stream)
        tally.failed += sum(r.failed for r in rounds[-1].values())

    first = rounds[0]
    step, def9 = oracle_pairs(ds.prefs, ds, len(stream), window)
    extra = check_pairs(tally, step, def9, {a: first[a].pairs for a in ("baseline", "exact")})
    for runs in rounds[1:]:
        for algo in runs:
            tally.check(runs[algo].pairs == first[algo].pairs, f"{algo} pairs differ between rounds")
    cmp = {a: sum(r.comparisons.values()) for a, r in first.items()}
    tally.check(
        cmp["approx"] < cmp["exact"] < cmp["baseline"],
        f"comparison order Approx < Exact < Baseline broken: {cmp}",
    )
    precision, recall = oracle.efficacy(first["approx"].pairs, def9)

    def times(scaled: bool) -> dict:
        def pooled(algo):
            return np.concatenate([r[algo].durations_ns if scaled else r[algo].raw_ns for r in rounds])

        def rate(algo):
            ns = pooled(algo)
            return len(ns) / (ns.sum() / 1e9)

        return {
            "baseline_objects_per_s": rate("baseline"),
            "exact_objects_per_s": rate("exact"),
            "approx_objects_per_s": rate("approx"),
            "approx_insert_p99_us": quantile_us(pooled("approx"), 0.99),
            "exact_insert_p50_us": quantile_us(pooled("exact"), 0.5),
            "exact_insert_p99_us": quantile_us(pooled("exact"), 0.99),
        }

    e2e = {
        **times(scaled=True),
        "exact_state_bytes": state_bytes(engines["exact"]),
        "approx_recall": recall,
        "approx_precision": precision,
    }
    layers = engine_layers(first, tracer, len(rounds))
    for algo, n in extra.items():
        layers[f"{algo}.pairs_beyond_def9"] = n
    return e2e, times(scaled=False), layers


def run_inprocess(cfg, seed: int, seconds: float, tracer=None):
    """The ``append`` / ``window`` workload. Returns (tally, e2e, raw, layers)."""
    tally = Tally()
    probe = SpeedProbe()
    ds, ref, timings = setup_reps(cfg, seed, cfg["setup_reps"], probe)
    e2e, raw, layers = measure_engines(ds, ref, cfg["window"], seconds, tally, probe, tracer)
    refresh_checks(tally, ds, ref)
    for key, name in (("setup", "setup_s"), ("refresh", "refresh_s")):
        e2e[name] = median_of(timings, key)
        raw[name] = median_of(timings, key, scaled=False)
    medians = {k: median_of(timings, k) for k in ("generate", "build", "hac", "common", "approx")}
    layers.update(common_layers(medians, ref, tracer, cfg["setup_reps"]))
    layers["speed.factor"] = probe.factor()
    return tally, e2e, raw, layers


def common_layers(medians: dict, ref: Refresh, tracer, reps: int) -> dict:
    """Set-up and refresh layers from median stage times (``generate``,
    ``build``, ``hac``, ``common``, ``approx``) and the last refresh."""
    sizes = [len(m) for m in ref.partition]
    return {
        "datasets.generate_s": medians["generate"],
        "engines.build_s": medians["build"],
        "hac.cluster_users_s": medians["hac"],
        "hac.merges": len(ref.dendrogram.merges),
        "hac.sim_evals": tracer.sums["hac.sim_evals"] / reps if tracer else 0,
        "common.relations_s": medians["common"],
        "approx.relations_s": medians["approx"],
        "clusters.count": len(sizes),
        "clusters.max_size": max(sizes),
    }


def engine_layers(runs: dict[str, EngineRun], tracer, rounds: int) -> dict:
    out = tracer.engine_metrics(rounds) if tracer else {}
    for algo, r in runs.items():
        stages = ("user", "buffer") if algo == "baseline" else ("user", "cluster", "buffer")
        for stage in stages:
            out[f"{algo}.cmp.{stage}"] = r.comparisons.get(stage, 0)
        out[f"{algo}.pairs_arrival"] = len(r.arrival)
        out[f"{algo}.pairs_mend"] = len(r.mend)
    return out
