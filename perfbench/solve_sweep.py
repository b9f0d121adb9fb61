"""``solve-sweep``: the paper's batch solve over a seeded instance sweep.

One in-process caller solves instances back to back (closed loop, no
think time) with ``repro.find_optimal_regions`` and its defaults
(MaxFirst).  A round is 36 instances whose axes follow the paper's
Table II — |O|, |P|, k, customer distribution, probability model and
weights — in a fixed balanced design: every level of every axis occurs
equally often in each round.  Every round draws fresh data from
``(seed, round, cell)``, so a run solves hundreds of distinct
instances.

MaxFirst's cost is heavy-tailed: most solves here take 10-50 ms, but
about one in two hundred takes 0.5-2 s.  So the tail, the throughput and
the memory peak are taken per round and reported as the median over
the run's rounds; one slow instance moves one round, not the run.
The C heap is trimmed before every solve (outside the timed span), so
a round's memory peak is what its own solves touch, not what the
allocator kept from an earlier heavy one.
Clustered customers are left out: about one clustered solve in five
hundred at these sizes runs 5-70 s (its Phase I tessellates tied
plateaus around sites down to the resolution guard), and one such solve
would be the whole run.
"""

from __future__ import annotations

import subprocess
import sys
from typing import Any

import numpy as np

from common import (ROOT, Outcome, RssSampler, layer_counters, median, now,
                    peak_rss_mb_self, region_point, tail, trim_heap)
from oracle import Instance, check_solve, probability_model, probe_points
from tracing import wrap_index_layer

N_CUSTOMERS = (250, 500, 1000)
N_SITES = (25, 50, 100)
KS = (1, 2, 3)
DISTRIBUTIONS = ("uniform", "normal")
MODELS = ("uniform", "m1", "m2")
ROUND = 36
PROBES = 32
SETUPS = 3


def design_cell(c: int) -> tuple[int, int, int, str, str, bool]:
    """The axes of cell ``c`` of a round: distribution x model x |O| x
    weights in full, |P| and k in Latin squares over them, so each level
    of each axis appears ``ROUND / levels`` times."""
    model, n, weighted = (c // 2) % 3, (c // 6) % 3, (c // 18) % 2
    return (N_CUSTOMERS[n], N_SITES[(model + n) % 3],
            KS[(model + 2 * n + weighted) % 3], DISTRIBUTIONS[c % 2],
            MODELS[model], bool(weighted))


def points(rng: np.random.Generator, n: int, dist: str) -> np.ndarray:
    """Unclipped draws: clipping to a box piles points up on its edges."""
    if dist == "uniform":
        return rng.uniform(0.0, 1.0, (n, 2))
    return rng.normal(0.5, 0.15, (n, 2))


def make_round(seed: int, r: int) -> list[Instance]:
    out = []
    for c in range(ROUND):
        n, m, k, dist, model, weighted = design_cell(c)
        rng = np.random.default_rng([seed, r, c])
        out.append(Instance(
            customers=points(rng, n, dist), sites=points(rng, m, dist),
            k=k, probs=probability_model(model, k),
            weights=rng.uniform(0.5, 1.5, n) if weighted else None))
    return out


def solve(inst: Instance) -> Any:
    import repro

    return repro.find_optimal_regions(
        inst.customers, inst.sites, k=inst.k, weights=inst.weights,
        probability=[float(p) for p in inst.probs])


#: A cold start of the program: a fresh interpreter imports ``repro``
#: and finishes one small solve (which loads the compiled kernels).
_COLD_START = """
import numpy as np, repro
rng = np.random.default_rng(%d)
repro.find_optimal_regions(rng.uniform(0, 1, (64, 2)),
                           rng.uniform(0, 1, (8, 2)), k=2,
                           weights=rng.uniform(0.5, 1.5, 64),
                           probability=[2 / 3, 1 / 3])
"""


def _cold_start(seed: int, env: dict[str, str]) -> float:
    """Set-up: one cold start of the program, timed from outside."""
    t0 = now()
    subprocess.run([sys.executable, "-c", _COLD_START % seed], env=env,
                   cwd=ROOT, check=True)
    return now() - t0


def _install_tracing(tracer) -> None:
    from repro.core import maxfirst

    tracer.wrap(maxfirst, "build_nlcs", "nlc.build", "repro.core.nlc")
    tracer.wrap(maxfirst.MaxFirst, "solve_nlcs", "phase1.search",
                "repro.core.maxfirst")
    tracer.wrap(maxfirst.MaxFirst, "build_regions", "phase2.build_regions",
                "repro.core.region")
    tracer.wrap(maxfirst, "compute_optimal_region", "phase2.grow",
                "repro.core.region")
    wrap_index_layer(tracer)


def run(seed: int, seconds: float, tracer, env: dict[str, str]
        ) -> tuple[Outcome, float]:
    from repro.obs import metrics as obs_metrics

    out = Outcome()
    out.metric("setup_s", median([_cold_start(seed, env)
                                  for _ in range(SETUPS)]))
    solve(make_round(seed, 0)[0])  # load the kernels in this process too

    if tracer is not None:
        _install_tracing(tracer)
    counters0 = obs_metrics.REGISTRY.snapshot()
    latencies: list[float] = []
    per_round: list[tuple[float, float, float]] = []  # tail, ops, rss
    # Only what the checks need outlives a solve: holding every result
    # (NLC arrays, regions) would grow this process's heap, and with it
    # the garbage collector's pauses and the resident set being measured.
    solved: list[tuple[Instance, float, list[tuple[float, float, float]]]]
    solved = []
    stats = {"generated": 0, "pruned": 0, "rows": 0}
    busy = 0.0
    r = 0
    with RssSampler() as rss:
        while busy < seconds:
            instances = make_round(seed, r)
            rss.take()
            round_s: list[float] = []
            for inst in instances:
                trim_heap()  # the peak is this solve's, not an earlier one's
                t0 = now()
                if tracer is None:
                    result = solve(inst)
                else:
                    result = tracer.call("solve", "repro.core.api", solve,
                                         inst)
                round_s.append(now() - t0)
                solved.append((inst, result.score, [
                    (g.score, *region_point(g)) for g in result.regions]))
                stats["generated"] += result.stats.generated
                stats["pruned"] += (result.stats.pruned_theorem2
                                    + result.stats.pruned_theorem3)
                stats["rows"] += len(result.nlcs)
                del result
            per_round.append((tail(round_s) * 1000.0,
                              len(round_s) / sum(round_s), rss.take()))
            latencies += round_s
            busy += sum(round_s)
            r += 1
    if tracer is not None:
        tracer.restore()
    counters = obs_metrics.REGISTRY.delta_since(counters0)

    out.attempted = len(latencies)
    ms = [t * 1000.0 for t in latencies]
    out.metric("latency_p50_ms", median(ms))
    out.metric("latency_tail_ms", median([t for t, _, _ in per_round]))
    out.metric("ops_per_s", median([o for _, o, _ in per_round]))
    out.metric("peak_rss_mb", median([m for _, _, m in per_round]))
    out.notes["solves"] = (f"{len(ms)} in {r} rounds, {busy:.2f} s busy, "
                           f"slowest {max(ms):.0f} ms, process peak RSS "
                           f"{peak_rss_mb_self():.0f} MB")

    for i, (inst, score, regions) in enumerate(solved):
        out.check(f"solve #{i}", check_solve, inst, score, regions,
                  probe_points(inst, PROBES, seed + i))

    if tracer is not None:
        n = len(ms)
        out.metric("nlc.build_s", tracer.total("nlc.build") / n)
        out.metric("nlc.rows", stats["rows"] / n)
        out.metric("phase1.s", (tracer.total("phase1.search")
                                - tracer.total("phase2.build_regions")) / n)
        out.metric("phase2.s", tracer.total("phase2.build_regions") / n)
        out.metric("phase1.quadrants", stats["generated"] / n)
        out.metric("phase1.pruned_share",
                   stats["pruned"] / max(1, stats["generated"]))
        out.metric("index.s", sum(tracer.self_times().get(
            "repro.index", {}).values()) / n)
        layer_counters(out, counters, n)
    return out, busy
