"""``stream-scale``: the out-of-core tier on x-striped instances.

Set-up streams the NLCs of six seeded instances straight into
``memmap`` stores (:func:`repro.core.nlc.stream_nlc_chunks` into a store
writer, sealed with ``finalize``); the timed loop then repeats
:func:`repro.engine.outofcore.solve_streamed`, a round being one solve
over each sealed store.  The shape follows ``benchmarks/bench_scale.py``:
customers arrive strip by strip along x, so tile row windows are
tight, and the first strip carries 1000x the weight of the rest, which
localises the optimum.  Sites sit on a jittered 10 x 10 grid.

Phase I's share of a solve depends on where the sites fall around the
hot strip, so one instance's solve time moves with the seed by +-20%
(390-600 ms over twelve instances measured in one process); six
instances per run, and sites spread like a planned network rather than
uniformly, keep a run's figures from resting on a few draws.  At 400k
customers a solve takes about 0.45 s here, so a 30 s run holds about
66 solves; the planning scan and the windowed Phase I each take about
half of one.  The inputs are generated again for the checks rather
than held through the timed loop, so the resident set measured is the
program's, not the benchmark's copy of six instances.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from common import (Outcome, layer_counters, median, now, peak_rss_mb_self,
                    region_point, tail)
from oracle import Instance, check_solve, probability_model, probe_points
from tracing import wrap_index_layer

N_CUSTOMERS = 400_000
STRIPS = 100
SITE_GRID = 10
JITTER = 0.3
SHARDS = 16
K = 1
HOT, COLD = 1.0, 0.001
INSTANCES = 6


def make_chunks(seed: int, instance: int
                ) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Per-strip customer and weight chunks, and the sites."""
    base, extra = divmod(N_CUSTOMERS, STRIPS)
    coords, weights = [], []
    for j in range(STRIPS):
        m = base + (1 if j < extra else 0)
        rng = np.random.default_rng([seed, 53, instance, j])
        coords.append(np.column_stack([
            rng.uniform(j / STRIPS, (j + 1) / STRIPS, m),
            rng.uniform(0.0, 1.0, m)]))
        weights.append(rng.uniform(0.5, 1.5, m) * (HOT if j == 0 else COLD))
    rng = np.random.default_rng([seed, 59, instance])
    col, row = np.meshgrid(np.arange(SITE_GRID), np.arange(SITE_GRID))
    cells = np.column_stack([col.ravel(), row.ravel()]) + 0.5
    sites = (cells + rng.uniform(-JITTER, JITTER, cells.shape)) / SITE_GRID
    return coords, weights, sites


def build(coords, weights, sites, tracer) -> tuple[Any, float]:
    """One streamed build into a sealed memmap store."""
    from repro import store as nlc_store
    from repro.core.nlc import stream_nlc_chunks

    t0 = now()
    writer = nlc_store.writer(N_CUSTOMERS * K, "memmap")
    try:
        chunks = stream_nlc_chunks(iter(coords), sites, K,
                                   weight_chunks=iter(weights))
        if tracer is None:
            for chunk in chunks:
                writer.append(chunk)
            owner = writer.finalize()
        else:
            while True:
                chunk = tracer.call("nlc.stream_chunk", "repro.core.nlc",
                                    next, chunks, None)
                if chunk is None:
                    break
                tracer.call("store.append", "repro.store", writer.append,
                            chunk)
            owner = tracer.call("store.finalize", "repro.store",
                                writer.finalize)
    except BaseException:
        writer.abort()
        raise
    return owner, now() - t0


def _install_tracing(tracer) -> None:
    from repro import store as nlc_store
    from repro.core import maxfirst
    from repro.engine import outofcore

    tracer.wrap(outofcore, "plan_streamed", "plan", "repro.engine.outofcore")
    tracer.wrap(maxfirst.MaxFirst, "run_phase1", "tiles.phase1",
                "repro.core.maxfirst")
    tracer.wrap(outofcore, "compute_optimal_region", "merge.grow",
                "repro.core.region")
    tracer.wrap(nlc_store, "attach_slice", "store.attach_slice",
                "repro.store")
    tracer.wrap(nlc_store, "attach", "store.attach", "repro.store")
    wrap_index_layer(tracer)


def run(seed: int, seconds: float, tracer) -> tuple[Outcome, float]:
    from repro import store as nlc_store
    from repro.engine.outofcore import plan_streamed, solve_streamed
    from repro.obs import metrics as obs_metrics

    out = Outcome()
    owners, builds = [], []
    try:
        for i in range(INSTANCES):
            owner, seconds_built = build(*make_chunks(seed, i), tracer)
            owners.append(owner)
            builds.append(seconds_built)
        out.metric("setup_s", median(builds))

        if tracer is not None:
            _install_tracing(tracer)
        counters0 = obs_metrics.REGISTRY.snapshot()
        latencies: list[float] = []
        answers: list[list[tuple]] = [[] for _ in owners]
        first: list[Any] = [None] * len(owners)
        busy = 0.0
        while busy < seconds:
            for i, owner in enumerate(owners):
                t0 = now()
                if tracer is None:
                    result = solve_streamed(owner.handle, shards=SHARDS)
                else:
                    result = tracer.call(
                        "solve_streamed", "repro.engine.outofcore",
                        solve_streamed, owner.handle, shards=SHARDS)
                latencies.append(now() - t0)
                busy += latencies[-1]
                answers[i].append((result.score, tuple(
                    (r.score, r.cover) for r in result.regions)))
                if first[i] is None:
                    first[i] = (result.stats, [(r.score, *region_point(r))
                                               for r in result.regions])
                del result
        if tracer is not None:
            tracer.restore()
        rss = peak_rss_mb_self()
        counters = obs_metrics.REGISTRY.delta_since(counters0)
        windows = ([sum(hi - lo for lo, hi
                        in plan_streamed(o.handle, SHARDS).windows)
                    for o in owners] if tracer is not None else [])
        rows = [o.length for o in owners]
    finally:
        nlc_store.detach()
        for owner in owners:
            owner.close()

    ms = [t * 1000.0 for t in latencies]
    out.attempted = len(ms)
    if tracer is None:
        out.metric("latency_p50_ms", median(ms))
        out.metric("latency_tail_ms", tail(ms))
        out.metric("ops_per_s", len(ms) / busy)
        out.metric("peak_rss_mb", rss)
    out.notes["solves"] = f"{len(ms)} in {busy:.2f} s"

    for i in range(INSTANCES):
        coords, weights, sites = make_chunks(seed, i)
        inst = Instance(customers=np.vstack(coords), sites=sites, k=K,
                        probs=probability_model("uniform", K),
                        weights=np.concatenate(weights))
        score = answers[i][0][0]
        out.check(f"streamed solve of instance {i}", check_solve, inst,
                  score, first[i][1], probe_points(inst, 32, seed + i))
        if any(a != answers[i][0] for a in answers[i][1:]):
            out.wrong.append(f"instance {i}: a repeat solve differs")
    if tracer is not None:
        n = len(ms)
        stats = [f[0] for f in first]
        generated = sum(st.generated for st in stats)
        out.metric("nlc.stream_build_s",
                   tracer.total("nlc.stream_chunk") / INSTANCES)
        out.metric("store.write_s", (tracer.total("store.append")
                                     + tracer.total("store.finalize"))
                   / INSTANCES)
        out.metric("nlc.rows", sum(rows) / INSTANCES)
        out.metric("store.bytes",
                   sum(nlc_store.store_nbytes(r) for r in rows) / INSTANCES)
        out.metric("store.slice_views",
                   counters.get("store_slice_views", 0) / n)
        out.metric("plan.s", tracer.total("plan") / n)
        out.metric("plan.window_rows", sum(windows) / INSTANCES)
        out.metric("tiles.s", tracer.total("tiles.phase1") / n)
        out.metric("phase1.s", tracer.total("tiles.phase1") / n)
        out.metric("merge.s", tracer.total("merge.grow") / n)
        out.metric("phase2.s", tracer.total("merge.grow") / n)
        out.metric("phase1.quadrants", generated / INSTANCES)
        out.metric("phase1.pruned_share",
                   sum(st.pruned_theorem2 + st.pruned_theorem3
                       for st in stats) / max(1, generated))
        out.metric("index.s", sum(tracer.self_times().get(
            "repro.index", {}).values()) / n)
        layer_counters(out, counters, n)
    return out, sum(builds) + busy
