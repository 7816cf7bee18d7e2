"""The ``pipeline`` workload: the Spark refresh stage, the Structured Streaming
stage fed open-loop, and an in-process replay of the same stream.

Refresh: ratings -> ``derive_prefs_spark`` -> ``pairwise_jaccard_spark`` ->
``cluster_users`` (vector Jaccard, seeded) -> ``theta(h)`` -> exact and
Alg. 3 relations.

Stream: the exact clusters go through ``build_query`` (sliding window).
A generator thread, separate from the query, writes one JSON file per
fixed interval, each stamped with its write time; the query runs with the
default trigger (a new micro-batch as soon as input is there) and
``maxFilesPerTrigger=1``. Lag is measured from a file's stamp to the end
of the micro-batch that consumed it.

Replay: Baseline-SW, FTV-Exact-SW and FTV-Approx-SW over the whole
stream, in-process, with the clusters the Spark refresh produced.
"""
from __future__ import annotations

import datetime
import glob
import json
import os
import shlex
import statistics
import sys
import threading
import time

import duckdb
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.dataflow.prefs_sql import (
    derive_prefs_spark,
    pairwise_jaccard_spark,
    pref_pairs_sql,
    stats_sql,
)
from repro.dataflow.streaming import build_query, read_disseminations
from repro.datasets.derive import fill_missing_attrs
from repro.posets.poset import Poset

import checks
import oracle
from speed import SpeedProbe
from inprocess import (
    Tally,
    build_engines,
    check_pairs,
    common_layers,
    generate,
    measure_engines,
    median_of,
    oracle_pairs,
    refresh,
    refresh_checks,
)


MIN_FILES = 8  #: micro-batch files per run, whatever ``--seconds`` is
WARMUP_FILES = 2  #: first files, whose micro-batches start Spark's Python workers
_T0 = time.perf_counter()


def log(stage: str) -> None:
    """Progress line on standard error: seconds since import, stage."""
    print(f"[pipeline {time.perf_counter() - _T0:6.1f}s] {stage}", file=sys.stderr, flush=True)


def start_spark(workdir: str, cores: int, partitions: int):
    """Local-mode session whose scratch files all stay under ``workdir``."""
    tmp = os.path.join(workdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LOCAL_DIRS"] = tmp
    # Every JVM the launcher starts: no hsperfdata files, temp files here.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={shlex.quote(tmp)}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = f"--master local[{cores}] --driver-memory 1g pyspark-shell"
    spark = (
        SparkSession.builder.appName("perfbench-pipeline")
        .config("spark.sql.shuffle.partitions", str(partitions))
        .config("spark.default.parallelism", str(partitions))
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.local.dir", tmp)
        .config("spark.sql.warehouse.dir", os.path.join(workdir, "warehouse"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM it launched to end."""
    gateway = spark.sparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()  # the JVM exits when this pipe closes
        try:
            proc.wait(timeout=60)
        except Exception:
            proc.kill()
            proc.wait()


def posets_from_tuples(pdf, users, attrs, domains) -> dict:
    """(user_id, attr, better, worse) rows -> user -> attr -> Poset."""
    pairs: dict = {}
    for r in pdf.itertuples(index=False):
        pairs.setdefault(r.user_id, {}).setdefault(r.attr, []).append((r.better, r.worse))
    prefs = {
        u: {d: Poset(p, domain=domains[d]) for d, p in by_attr.items()}
        for u, by_attr in pairs.items()
    }
    for u in users:
        prefs.setdefault(u, {})
    return fill_missing_attrs(prefs, list(attrs), domains)


def duckdb_pref_tuples(ds) -> set:
    con = duckdb.connect()
    try:
        con.register("ratings", ds.ratings)
        con.register("objects", ds.hist_objects)
        con.execute(f"CREATE TEMP VIEW stats AS {stats_sql(list(ds.attrs))}")
        rows = con.execute(pref_pairs_sql()).fetchall()
    finally:
        con.close()
    return {tuple(map(str, r)) for r in rows}


def spark_refresh(spark, ds, h: float):
    clock = time.perf_counter
    t0 = clock()
    prefs_df = derive_prefs_spark(
        spark, spark.createDataFrame(ds.ratings), spark.createDataFrame(ds.hist_objects), ds.attrs
    ).cache()
    pdf = prefs_df.toPandas()
    t1 = clock()
    sims = pairwise_jaccard_spark(spark, prefs_df, ds.attrs)
    t2 = clock()
    prefs = posets_from_tuples(pdf, ds.users, ds.attrs, ds.domains)
    ref = refresh(ds.attrs, prefs, h, initial_sims=sims)
    prefs_df.unpersist()
    tuples = {tuple(map(str, r)) for r in pdf[["user_id", "attr", "better", "worse"]].itertuples(index=False)}
    return prefs, sims, ref, tuples, {"derive": t1 - t0, "jaccard": t2 - t1}


def _generator(stream, in_dir, stage_dir, files, per_file, interval, t0, stamps):
    for i in range(files):
        due = t0 + i * interval
        while (now := time.time()) < due:
            time.sleep(min(0.01, due - now))
        name = f"batch-{i:05d}.json"
        tmp = os.path.join(stage_dir, name)
        with open(tmp, "w") as f:
            for t in range(i * per_file, (i + 1) * per_file):
                oid, vals = stream[t]
                f.write(json.dumps({"obj_id": str(oid), "ts": t + 1, "vals": list(map(str, vals))}) + "\n")
        os.replace(tmp, os.path.join(in_dir, name))
        stamps[name] = (due, time.time())


def _epoch(iso: str) -> float:
    return datetime.datetime.fromisoformat(iso.replace("Z", "+00:00")).timestamp()


def stream_stage(spark, cfg, files, ds, prefs, clusters, workdir, tally: Tally, probe):
    per_file, interval = cfg["per_file"], cfg["interval_s"]
    stream = ds.stream[: files * per_file]
    in_dir, stage_dir = os.path.join(workdir, "in"), os.path.join(workdir, "stage")
    out_dir, ckpt = os.path.join(workdir, "out"), os.path.join(workdir, "ckpt")
    os.makedirs(in_dir)
    os.makedirs(stage_dir)
    writer = build_query(
        spark, clusters, prefs, ds.attrs, ds.domains,
        input_dir=in_dir, output_dir=out_dir, checkpoint_dir=ckpt,
        window=cfg["window"], max_files_per_trigger=1,
    )
    before = probe.burst()
    query = writer.start()
    log("query started")
    stamps: dict[str, tuple[float, float]] = {}
    t0 = time.time() + cfg["lead_s"]
    gen = threading.Thread(
        target=_generator,
        args=(stream, in_dir, stage_dir, files, per_file, interval, t0, stamps),
        daemon=True,
    )
    gen.start()
    deadline = t0 + files * interval + cfg["drain_s"]
    try:
        while time.time() < deadline and query.exception() is None:
            seen = sum(p.numInputRows for p in query.recentProgress)
            if seen >= len(stream):
                break
            time.sleep(0.05)
    finally:
        gen.join()
        query.stop()
    probe.burst()
    speed = probe.factor(before)
    log("stream finished")
    tally.check(query.exception() is None, f"streaming query failed: {query.exception()}")
    progress = [json.loads(p.json) for p in query.recentProgress]
    data = [p for p in progress if p["numInputRows"] > 0]

    batch_end = {
        p["batchId"]: _epoch(p["timestamp"]) + p["durationMs"]["triggerExecution"] / 1e3
        for p in data
    }
    consumed = {}
    for path in glob.glob(os.path.join(ckpt, "sources", "0", "*")):
        with open(path) as f:
            for line in f:
                if line.startswith("{"):
                    entry = json.loads(line)
                    consumed[os.path.basename(entry["path"])] = int(entry["batchId"])
    lags = {
        name: (batch_end[consumed[name]] - stamp) * 1e3 / speed
        for name, (_, stamp) in stamps.items()
        if consumed.get(name) in batch_end
    }
    tally.attempted += files
    tally.failed += files - len(lags)
    steady = [lag for name, lag in sorted(lags.items())[WARMUP_FILES:]]
    warm = [p for p in data if p["batchId"] >= WARMUP_FILES] or data
    order = [consumed.get(f"batch-{i:05d}.json", -1) for i in range(files)]
    tally.check(order == sorted(order), f"files consumed out of order: {order}")

    out = read_disseminations(spark, out_dir).toPandas()
    got = {(r.user_id, r.obj_id) for r in out.itertuples(index=False)}
    extra = check_pairs(tally, *oracle_pairs(prefs, ds, len(stream), cfg["window"]), {"streaming": got})

    log("stream checked")
    state = [p["stateOperators"][0] for p in data]
    engine_bytes = (
        spark.read.format("statestore").load(ckpt)
        .select(F.sum(F.length("value.groupState.engine")).alias("n")).collect()[0]["n"]
    )
    busy_s = sum(p["durationMs"]["triggerExecution"] for p in warm) / 1e3 / speed
    layers = {
        "streaming.lag_p50_ms": statistics.median(steady),
        "streaming.objects_per_s": sum(p["numInputRows"] for p in warm) / busy_s,
        "streaming.batches": len(data),
        "streaming.batch_p50_ms": statistics.median(p["durationMs"]["triggerExecution"] for p in data) / speed,
        "streaming.add_batch_p50_ms": statistics.median(p["durationMs"]["addBatch"] for p in data) / speed,
        "streaming.state_bytes_first": state[0]["memoryUsedBytes"],
        "streaming.state_bytes_per_batch": (
            (state[-1]["memoryUsedBytes"] - state[0]["memoryUsedBytes"]) / max(1, len(state) - 1)
        ),
        "streaming.state_rows": state[-1]["numRowsTotal"],
        "streaming.rows_out": len(out),
        "streaming.pairs_beyond_def9": extra["streaming"],
        "streaming.engine_pickle_bytes": int(engine_bytes or 0),
        "streaming.generator_late_ms_max": max((s - d) * 1e3 for d, s in stamps.values()),
    }
    return state[-1]["memoryUsedBytes"], layers


def run_pipeline(cfg, seed: int, seconds: float, workdir: str, tracer=None):
    """The ``pipeline`` workload. Returns (tally, e2e, raw, layers).

    Timings are raw and read as at the reference machine speed
    (speed.py), sampled just before and after each stage. ``setup_s``
    (generation, engine build) and ``refresh_s`` (the driver-side refresh,
    seeded with Spark's similarities) are timed while no JVM runs; Spark's
    session start and SQL stages are per-layer figures."""
    tally = Tally()
    probe = SpeedProbe()

    def timed(stage, fn):
        before = probe.burst()
        t = time.perf_counter()
        res = fn()
        dt = time.perf_counter() - t
        probe.burst()
        return res, {"f": probe.factor(before), stage: dt}

    gen_t = []
    for _ in range(cfg["setup_reps"]):
        ds, t = timed("generate", lambda: generate(cfg, seed))
        gen_t.append(t)
    log("generated")
    spark, spark_t = timed("start", lambda: start_spark(workdir, cfg["cores"], cfg["partitions"]))
    try:
        (prefs, sims, ref, tuples, rt), sql_t = timed("sql", lambda: spark_refresh(spark, ds, cfg["h"]))
        spark_layers = {
            "spark.session_start_s": spark_t["start"] / spark_t["f"],
            "prefs_sql.derive_s": rt["derive"] / sql_t["f"],
            "prefs_sql.pref_tuples": len(tuples),
            "prefs_sql.jaccard_s": rt["jaccard"] / sql_t["f"],
        }
        log("refreshed")
        tally.attempted += 5  # derive, Jaccard, HAC, common, Alg. 3
        for msg in checks.check_pref_tuples(tuples, ds.prefs, duckdb_pref_tuples(ds)):
            tally.check(False, msg)
        for msg in checks.check_jaccard(sims, prefs, ds.attrs):
            tally.check(False, msg)
        # From here on the Spark-derived preferences, equal to the pandas
        # ones when the check above holds, are the workload's.
        ds.prefs = prefs
        refresh_checks(tally, ds, ref)
        log("refresh checked")
        files = max(MIN_FILES, round(seconds / cfg["interval_s"]))
        s_state, s_layers = stream_stage(spark, cfg, files, ds, prefs, ref.exact, workdir, tally, probe)
    finally:
        stop_spark(spark)
    log("stream stage done, Spark stopped")

    # The driver-side refresh again, now that no JVM competes for the
    # machine: Spark's own stages swing too much between runs to carry a
    # bound.
    refresh_t = []
    for _ in range(cfg["setup_reps"]):
        again, t = timed("refresh", lambda: refresh(ds.attrs, prefs, cfg["h"], initial_sims=sims))
        refresh_t.append({**t, **again.seconds})
    build_t = []
    for _ in range(cfg["setup_reps"]):
        build_t.append(timed("build", lambda: build_engines(ds, ref, cfg["window"]))[1])
    # In-process replay with the preferences and clusters of the refresh:
    # every workload reports every end-to-end metric.
    e2e, raw, layers = measure_engines(ds, ref, cfg["window"], 0, tally, probe, tracer)
    log("replayed")
    for scaled, out in ((True, e2e), (False, raw)):
        out["setup_s"] = median_of(gen_t, "generate", scaled) + median_of(build_t, "build", scaled)
        out["refresh_s"] = median_of(refresh_t, "refresh", scaled)
    e2e["exact_state_bytes"] = s_state
    medians = {
        "generate": median_of(gen_t, "generate"),
        "build": median_of(build_t, "build"),
        **{k: median_of(refresh_t, k) for k in ("hac", "common", "approx")},
    }
    layers.update(common_layers(medians, ref, tracer, 1 + cfg["setup_reps"]))
    layers.update(s_layers)
    layers.update(spark_layers)
    layers["speed.factor"] = probe.factor()
    return tally, e2e, raw, layers
