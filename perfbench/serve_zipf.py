"""``serve-zipf``: one keep-alive client against a ``repro serve`` daemon.

The daemon runs as a subprocess with its default settings and serves
three published instances (20k, 25k and 30k customers).  One
:class:`ServeClient` sends one request per call in a closed loop.  A
round is 50 requests of a fixed make-up, shuffled:

* 17 ``brknn`` on Zipf-skewed sites, 15 ``impact`` on a Zipf-skewed
  12 x 12 grid of what-if points and 6 ``impact`` at fresh points (always
  a cache miss, so the query operators keep computing);
* 3 ``solve_anytime`` over three epsilons, 2 ``heatmap`` over two
  grids, 1 ``site_influence`` and 1 exact ``solve``;
* 5 invalid inputs that must get a typed ``ErrorResponse``: an
  out-of-range site and a negative epsilon (already rejected), and an
  ``impact`` at a NaN and at an infinite coordinate and a
  ``solve_anytime`` with ``epsilon=NaN`` (answered today: counted as
  failed until the program rejects them).

Instances are drawn Zipf-skewed too.  Before timing, one pass sends
every heavy key once (exact solves, anytime epsilons, heat maps, site
influence, the non-finite inputs) so the timed loop sees a filled
cache, as a long-running service would.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from typing import Any

import numpy as np

from common import (ROOT, Outcome, WrongAnswer, layer_counters, median, now,
                    out_path, peak_rss_mb_pid, tail)
from oracle import (Instance, check_anytime, check_brknn, check_heatmap,
                    check_impact, check_site_influence, check_solve,
                    probability_model, probe_points)
from tracing import wrap_index_layer

#: (customers, sites, k, probability model).  Customers are weighted:
#: unweighted instances have integer or rational scores, and Phase I then
#: tessellates tied plateaus to the resolution guard (a 20k-customer
#: unweighted k=1 solve takes 1.8 s against 0.2 s weighted).
INSTANCES = ((20000, 100, 1, "uniform"),
             (25000, 150, 2, "m1"),
             (30000, 200, 3, "m2"))
EPSILONS = (0.05, 0.2, 0.5)
GRIDS = ((16, 16), (32, 24))
WHATIF_EDGE = 12
ZIPF_S = 1.2
ROUND = (("brknn", 17), ("impact_grid", 15), ("impact_fresh", 6),
         ("solve_anytime", 3), ("heatmap", 2), ("site_influence", 1),
         ("solve", 1), ("bad_site", 1), ("bad_epsilon", 1),
         ("nan_impact", 1), ("inf_impact", 1), ("nan_epsilon", 1))
#: Invalid inputs and whether today's program already rejects them.
INVALID = {"bad_site": True, "bad_epsilon": True, "nan_impact": False,
           "inf_impact": False, "nan_epsilon": False}
SETUPS = 3


def make_instances(seed: int) -> list[Instance]:
    out = []
    for i, (n, m, k, model) in enumerate(INSTANCES):
        rng = np.random.default_rng([seed, 31, i])
        out.append(Instance(
            customers=rng.uniform(0, 1, (n, 2)),
            sites=rng.uniform(0, 1, (m, 2)), k=k,
            probs=probability_model(model, k),
            weights=rng.uniform(0.5, 1.5, n)))
    return out


def publish_doc(inst: Instance) -> dict[str, Any]:
    return {"customers": inst.customers.tolist(),
            "sites": inst.sites.tolist(), "k": inst.k,
            "weights": None if inst.weights is None
            else inst.weights.tolist(),
            "probability": [float(p) for p in inst.probs]}


class Zipf:
    """Seeded Zipf draws over ``n`` keys whose popularity order is a
    seeded permutation."""

    def __init__(self, rng: np.random.Generator, n: int) -> None:
        p = 1.0 / np.arange(1, n + 1) ** ZIPF_S
        self.cdf = np.cumsum(p / p.sum())
        self.order = rng.permutation(n)

    def draw(self, rng: np.random.Generator) -> int:
        i = int(np.searchsorted(self.cdf, rng.uniform(), side="right"))
        return int(self.order[min(i, len(self.order) - 1)])


class Mix:
    """The request stream: ``(label, instance index, request args)``."""

    def __init__(self, seed: int, instances: list[Instance]) -> None:
        rng = np.random.default_rng([seed, 37])
        self.seed = seed
        self.inst = Zipf(rng, len(instances))
        self.sites = [Zipf(rng, len(i.sites)) for i in instances]
        self.grid = [Zipf(rng, WHATIF_EDGE ** 2) for _ in instances]
        self.eps = [Zipf(rng, len(EPSILONS)) for _ in instances]
        self.grids = [Zipf(rng, len(GRIDS)) for _ in instances]

    def round(self, r: int) -> list[tuple[str, int, tuple]]:
        rng = np.random.default_rng([self.seed, 41, r])
        labels = [label for label, count in ROUND for _ in range(count)]
        rng.shuffle(labels)
        out = []
        for label in labels:
            if label in INVALID:
                out.append((label, 0, INVALID_ARGS[label]))
                continue
            i = self.inst.draw(rng)
            if label == "brknn":
                args: tuple = (self.sites[i].draw(rng),)
            elif label == "impact_grid":
                g = self.grid[i].draw(rng)
                args = ((g % WHATIF_EDGE + 0.5) / WHATIF_EDGE,
                        (g // WHATIF_EDGE + 0.5) / WHATIF_EDGE)
            elif label == "impact_fresh":
                args = (float(rng.uniform()), float(rng.uniform()))
            elif label == "solve_anytime":
                args = (EPSILONS[self.eps[i].draw(rng)],)
            elif label == "heatmap":
                args = GRIDS[self.grids[i].draw(rng)]
            else:
                args = ()
            out.append((label, i, args))
        return out


#: Fixed invalid inputs: they do not depend on the seed.
INVALID_ARGS = {"bad_site": (1_000_000,), "bad_epsilon": (-0.5,),
                "nan_impact": (math.nan, 0.5), "inf_impact": (math.inf, 0.5),
                "nan_epsilon": (math.nan,)}


def warmup(n_instances: int) -> list[tuple[str, int, tuple]]:
    ops = []
    for i in range(n_instances):
        ops.append(("solve", i, ()))
        ops.append(("site_influence", i, ()))
        ops += [("solve_anytime", i, (e,)) for e in EPSILONS]
        ops += [("heatmap", i, g) for g in GRIDS]
    ops += [(label, 0, INVALID_ARGS[label])
            for label, ok in INVALID.items() if not ok]
    return ops


def to_request(label: str, iid: str, args: tuple) -> Any:
    from repro.serve import protocol as p

    if label in ("brknn", "bad_site"):
        return p.BrknnRequest(iid, *args)
    if label in ("impact_grid", "impact_fresh", "nan_impact", "inf_impact"):
        return p.ImpactRequest(iid, *args)
    if label in ("solve_anytime", "bad_epsilon", "nan_epsilon"):
        return p.AnytimeSolveRequest(iid, *args)
    if label == "heatmap":
        return p.HeatmapRequest(iid, *args)
    if label == "site_influence":
        return p.SiteInfluenceRequest(iid)
    return p.SolveRequest(iid)


# ---------------------------------------------------------------------- #
# Daemon lifecycle
# ---------------------------------------------------------------------- #


class Daemon:
    """A ``repro serve`` subprocess plus one client connection."""

    def __init__(self, env: dict[str, str], log_name: str) -> None:
        from repro.serve.client import ServeClient

        t0 = now()
        self.log = open(out_path(log_name), "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self.log,
            text=True)
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("serving on "):
                raise RuntimeError(f"daemon did not start: {line!r}")
            host, port = line.split()[-1].rsplit(":", 1)
            self.client = ServeClient(host, int(port))
            self.client.health()
        except BaseException:
            self.close()
            raise
        self.boot_s = now() - t0

    def close(self) -> None:
        try:
            if self.proc.poll() is None and hasattr(self, "client"):
                self.client.shutdown()
                self.proc.wait(timeout=30)
        except Exception:  # noqa: BLE001 - a hung daemon is killed below
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()
            self.log.close()


def _setup(env: dict[str, str], docs: list[dict], n: int
           ) -> tuple[Daemon, list[str], float]:
    daemon = Daemon(env, f"serve-daemon-{n}.log")
    try:
        t0 = now()
        ids = [daemon.client.publish(doc) for doc in docs]
        return daemon, ids, now() - t0
    except BaseException:
        daemon.close()
        raise


# ---------------------------------------------------------------------- #
# Checks
# ---------------------------------------------------------------------- #


def _is_error(response: Any) -> bool:
    return getattr(response, "kind", None) == "error"


def verify(instances: list[Instance], optima: list[float],
           label: str, i: int, args: tuple, response: Any,
           seed: int) -> None:
    inst = instances[i]
    kind = response.kind
    if label == "brknn" and kind == "brknn":
        check_brknn(inst, args[0], response.members, response.influence)
    elif label.startswith("impact") and kind == "impact":
        check_impact(inst, args[0], args[1], response.gain,
                     response.customer_ranks)
    elif label == "site_influence" and kind == "site_influence":
        check_site_influence(inst, response.influence)
    elif label == "solve" and kind == "solve":
        check_solve(inst, response.score,
                    [(r.score, r.x, r.y) for r in response.regions],
                    probe_points(inst, 64, seed + i))
    elif label == "solve_anytime" and kind == "solve":
        check_anytime(optima[i], args[0], response.score,
                      response.upper_bound)
    elif label == "heatmap" and kind == "heatmap":
        check_heatmap(inst, args[0], args[1], response.bounds,
                      response.lower, response.upper, seed)
    else:
        raise WrongAnswer(f"{label} got a {kind} response")


def settle(out: Outcome, first: dict[tuple, Any], keys_seen: set[tuple],
           op: tuple[str, int, tuple], response: Any) -> bool:
    """Classify one timed answer as it arrives; True if it failed.

    Invalid inputs fail unless refused with a typed error.  A valid
    input fails if it raised, was refused, or differs from the first
    answer to the same key; the first answer to each key is kept for
    the oracle checks after the loop.
    """
    label, i, args = op
    if isinstance(response, Exception):
        out.notes.setdefault("exceptions", repr(response))
        return True
    if label in INVALID:
        return not _is_error(response)
    if _is_error(response):
        out.wrong.append(f"{label} {args} refused: {response.message}")
        return True
    seen = first.setdefault(op, response)
    keys_seen.add(op)
    if seen is not response and seen != response:
        out.wrong.append(f"{label} {args} on instance {i}: repeat answer "
                         "differs from the first")
        return True
    return False


def run(seed: int, seconds: float, tracer, env: dict[str, str]
        ) -> tuple[Outcome, float]:
    out = Outcome()
    instances = make_instances(seed)
    docs = [publish_doc(inst) for inst in instances]
    mix = Mix(seed, instances)

    boots, publishes, daemon, ids = [], [], None, []
    try:
        for n in range(SETUPS):
            if daemon is not None:
                daemon.close()
            daemon, ids, publish_s = _setup(env, docs, n)
            boots.append(daemon.boot_s)
            publishes.append(publish_s)
        out.metric("setup_s", median([b + p for b, p
                                      in zip(boots, publishes)]))
        out.metric("daemon.boot_s", median(boots))
        out.metric("publish.s", median(publishes))
        client = daemon.client

        warm = warmup(len(instances))
        t_warm = now()
        first: dict[tuple, Any] = {}
        for label, i, args in warm:
            response = client.query([to_request(label, ids[i], args)])[0]
            first.setdefault((label, i, args), response)

        warm_s = now() - t_warm
        if tracer is not None:
            _install_client_tracing(tracer)
        metrics0 = client.metrics()
        sequence: list[tuple[str, int, tuple]] = []
        latencies: list[float] = []
        # Each answer is settled as it arrives and only the first answer
        # per key is kept: holding every answer (the non-finite impact
        # one carries 20k ranks) would grow this process's heap and its
        # garbage-collector pauses inside the timed loop.
        keys_seen: set[tuple] = set()
        busy = 0.0
        r = 0
        while busy < seconds:
            ops = mix.round(r)
            requests = [to_request(label, ids[i], args)
                        for label, i, args in ops]
            t_round = now()
            for op, request in zip(ops, requests):
                t0 = now()
                try:
                    response = client.query([request])[0]
                except Exception as exc:  # noqa: BLE001 - counted failed
                    response = exc
                latencies.append(now() - t0)
                if settle(out, first, keys_seen, op, response):
                    out.failed += 1
            busy += now() - t_round
            sequence += ops
            r += 1
        loop_s = busy
        if tracer is not None:
            tracer.restore()
        rss = peak_rss_mb_pid(daemon.proc.pid)
        metrics1 = client.metrics()
    finally:
        if daemon is not None:
            daemon.close()

    ms = [t * 1000.0 for t in latencies]
    out.attempted = len(ms)
    if tracer is None:
        out.metric("latency_p50_ms", median(ms))
        out.metric("latency_tail_ms", tail(ms))
        out.metric("ops_per_s", len(ms) / sum(latencies))
        out.metric("peak_rss_mb", rss)
    out.notes["requests"] = f"{len(ms)} in {r} rounds, {loop_s:.2f} s busy"

    # Checks: the exact solves first (they give the anytime optima),
    # then each distinct answer once; a wrong one fails every request
    # that received it.
    t_checks = now()
    solves = [("solve", i, ()) for i in range(len(instances))]
    optima = [first[key].score for key in solves]
    for key in solves + sorted(keys_seen - set(solves), key=repr):
        label, i, args = key
        if not out.check(f"{label} {args} on instance {i}", verify,
                         instances, optima, label, i, args, first[key],
                         seed):
            out.failed += sequence.count(key)

    out.notes["phases"] = (f"set-up {sum(boots) + sum(publishes):.1f} s, "
                           f"warm-up {warm_s:.1f} s, checks "
                           f"{now() - t_checks:.1f} s")
    counters = {name: metrics1["counters"].get(name, 0)
                - metrics0["counters"].get(name, 0)
                for name in metrics1["counters"]}
    hits = counters.get("serve_cache_hits", 0)
    lookups = hits + counters.get("serve_cache_misses", 0)
    out.notes["cache"] = (f"hit ratio {hits / max(1, lookups):.3f}, "
                          f"{counters.get('serve_cache_evictions', 0)} "
                          "evictions")
    e2e = loop_s
    if tracer is not None:
        out.metric("cache.hit_ratio", hits / max(1, lookups))
        out.metric("cache.evictions", counters.get("serve_cache_evictions", 0))
        out.metric("cache.bytes",
                   metrics1["gauges"].get("serve_cache_bytes", 0.0))
        out.metric("batching.requests_per_batch",
                   counters.get("serve_requests", 0)
                   / max(1, counters.get("serve_batches", 0)))
        e2e += replay(out, tracer, docs, warm, sequence, sum(ms) / len(ms))
    return out, e2e


# ---------------------------------------------------------------------- #
# Traced run: client spans plus an in-process replay
# ---------------------------------------------------------------------- #


def _install_client_tracing(tracer) -> None:
    from repro.serve import client

    tracer.wrap(client.ServeClient, "query", "serve.round_trip",
                "repro.serve.daemon (remote)")
    tracer.wrap(client, "encode_request", "client.encode_request",
                "repro.serve.protocol")
    tracer.wrap(client, "decode_response", "client.decode_response",
                "repro.serve.protocol")


def _install_service_tracing(tracer) -> None:
    from repro.core import maxfirst
    from repro.serve import cache, instance, service

    tracer.wrap(service.QueryService, "execute", "serve.execute",
                "repro.serve.service")
    tracer.wrap(service, "request_key", "serve.request_key",
                "repro.serve.protocol")
    tracer.wrap(cache.ResultCache, "get", "cache.get", "repro.serve.cache")
    tracer.wrap(cache.ResultCache, "put", "cache.put", "repro.serve.cache")
    for name in ("brknn_of_site", "site_influence", "impact_of_new_site"):
        tracer.wrap(service, name, f"queries.{name}", "repro.core.queries")
    tracer.wrap(service, "build_heatmap", "heatmap.build",
                "repro.core.heatmap")
    tracer.wrap(service, "compute_optimal_region", "phase2.grow",
                "repro.core.region")
    tracer.wrap(maxfirst.MaxFirst, "run_phase1", "phase1.search",
                "repro.core.maxfirst")
    tracer.wrap(instance.InstanceRegistry, "publish", "publish",
                "repro.serve.instance")
    tracer.wrap(instance, "build_nlcs", "nlc.build", "repro.core.nlc")
    wrap_index_layer(tracer)


def _codec_in(request: Any) -> tuple[Any, int]:
    from repro.serve.protocol import decode_request, encode_request

    body = json.dumps({"requests": [encode_request(request)]})
    return decode_request(json.loads(body)["requests"][0]), len(body)


def _codec_out(response: Any) -> tuple[Any, int]:
    from repro.serve.protocol import decode_response, encode_response

    body = json.dumps({"responses": [encode_response(response)]})
    return decode_response(json.loads(body)["responses"][0]), len(body)


def replay(out: Outcome, tracer, docs: list[dict], warm: list,
           sequence: list, round_trip_ms: float) -> float:
    """Replay the warm-up and the timed sequence in process, through
    the daemon's own decode -> execute -> encode path, to split a round
    trip into codec, execute and front end.  Returns the traced wall
    time it adds to the end-to-end total."""
    from repro.obs import metrics as obs_metrics
    from repro.serve.daemon import problem_from_doc
    from repro.serve.service import QueryService

    _install_service_tracing(tracer)
    service = QueryService()
    try:
        t0 = now()
        local = [service.publish(problem_from_doc(doc)).instance_id
                 for doc in docs]
        traced_s = now() - t0
        out.metric("nlc.build_s", tracer.total("nlc.build") / len(docs))
        out.metric("nlc.rows", sum(len(service.registry.get(iid).nlcs)
                                   for iid in local) / len(docs))

        codec, execute, wire = [], [], []
        hit_ms: list[float] = []
        miss_ms: dict[str, list[float]] = {}

        def one(label: str, i: int, args: tuple) -> None:
            request = to_request(label, local[i], args)
            hits0 = obs_metrics.REGISTRY.snapshot().get("serve_cache_hits", 0)
            t0 = now()
            decoded, n_in = tracer.call("codec.request",
                                        "repro.serve.protocol", _codec_in,
                                        request)
            t1 = now()
            response = service.execute([decoded])[0]
            t2 = now()
            _, n_out = tracer.call("codec.response", "repro.serve.protocol",
                                   _codec_out, response)
            t3 = now()
            hit = (obs_metrics.REGISTRY.snapshot().get("serve_cache_hits", 0)
                   > hits0)
            if not (hit or label in INVALID):
                miss_ms.setdefault(request.kind, []).append(
                    (t2 - t1) * 1000.0)
            if tracer.recording:
                codec.append((t1 - t0) + (t3 - t2))
                execute.append(t2 - t1)
                wire.append(n_in + n_out)
                if hit:
                    hit_ms.append((t2 - t1) * 1000.0)

        # The warm-up is replayed untraced; its misses (the exact
        # solves, anytime solves and heat maps) still time their kind.
        tracer.recording = False
        for op in warm:
            one(*op)
        tracer.recording = True
        counters0 = obs_metrics.REGISTRY.snapshot()
        spans0 = len(tracer.spans)
        t_loop = now()
        for op in sequence:
            one(*op)
        traced_s += now() - t_loop
    finally:
        service.close()
        tracer.restore()

    n = len(sequence)
    counters = obs_metrics.REGISTRY.delta_since(counters0)
    codec_ms = 1000.0 * sum(codec) / n
    execute_ms = 1000.0 * sum(execute) / n
    out.metric("codec.ms_per_request", codec_ms)
    out.metric("wire.bytes_per_request", sum(wire) / n)
    out.metric("execute.hit_ms", sum(hit_ms) / max(1, len(hit_ms)))
    for kind, values in miss_ms.items():
        out.metric(f"execute.miss_ms.{kind}", sum(values) / len(values))
    out.metric("frontend.ms_per_request",
               round_trip_ms - codec_ms - execute_ms)
    timed = tracer.spans[spans0:]
    out.metric("phase1.s", sum(s[3] - s[2] for s in timed
                               if s[0] == "phase1.search") / n)
    out.metric("phase2.s", sum(s[3] - s[2] for s in timed
                               if s[0] == "phase2.grow") / n)
    layer_counters(out, counters, n)
    return traced_s
