"""Self-test of the benchmark's answer checkers.

Each checker first accepts a true answer from the program on a small
fixed instance, then must reject the same answer perturbed: a score
plus one, a dropped BRkNN member, an anytime score above its upper
bound, and so on.  A checker that accepts a perturbed answer would let
a wrong program pass, so every run starts with this test and stops if
it fails.
"""

from __future__ import annotations

import numpy as np

from common import WrongAnswer
from oracle import (Instance, check_anytime, check_brknn, check_heatmap,
                    check_impact, check_site_influence, check_solve,
                    probability_model, probe_points)


def _instance() -> Instance:
    rng = np.random.default_rng(20110411)
    return Instance(customers=rng.uniform(0, 1, (300, 2)),
                    sites=rng.uniform(0, 1, (12, 2)), k=2,
                    probs=probability_model("m2", 2),
                    weights=rng.uniform(0.5, 1.5, 300))


def _problem(inst: Instance):
    from repro.core.problem import MaxBRkNNProblem

    return MaxBRkNNProblem(customers=inst.customers, sites=inst.sites,
                           k=inst.k, weights=inst.weights,
                           probability=[float(p) for p in inst.probs])


def run() -> list[str]:
    """Returns one line per rejected perturbation; raises if a true
    answer is rejected or a perturbed one accepted."""
    from repro.serve.protocol import (AnytimeSolveRequest, BrknnRequest,
                                      HeatmapRequest, ImpactRequest,
                                      SiteInfluenceRequest, SolveRequest)
    from repro.serve.service import QueryService

    inst = _instance()
    probes = probe_points(inst, 32, 0)
    with QueryService() as service:
        iid = service.publish(_problem(inst)).instance_id
        solve, anytime, brknn, sites, impact, heat = service.execute([
            SolveRequest(iid), AnytimeSolveRequest(iid, 0.5),
            BrknnRequest(iid, 3), SiteInfluenceRequest(iid),
            ImpactRequest(iid, 0.4, 0.6), HeatmapRequest(iid, 8, 8)])
    regions = [(r.score, r.x, r.y) for r in solve.regions]
    opt = solve.score
    dropped = dict(brknn.members)
    dropped.pop(next(iter(dropped)))
    zeroed = tuple(0.0 for _ in heat.upper)
    cases = [
        ("solve", check_solve,
         (inst, opt, regions, probes),
         (inst, opt + 1.0, [(s + 1.0, x, y) for s, x, y in regions],
          probes)),
        ("solve region point", check_solve,
         (inst, opt, regions, probes),
         (inst, opt, [(opt, regions[0][1] + 0.25, regions[0][2])],
          probes)),
        ("brknn member", check_brknn,
         (inst, 3, brknn.members, brknn.influence),
         (inst, 3, dropped, brknn.influence)),
        ("brknn influence", check_brknn,
         (inst, 3, brknn.members, brknn.influence),
         (inst, 3, brknn.members, brknn.influence + 1.0)),
        ("site_influence", check_site_influence,
         (inst, sites.influence),
         (inst, (sites.influence[0] + 1.0,) + sites.influence[1:])),
        ("impact gain", check_impact,
         (inst, 0.4, 0.6, impact.gain, impact.customer_ranks),
         (inst, 0.4, 0.6, impact.gain + 1.0, impact.customer_ranks)),
        ("impact at NaN", check_impact,
         (inst, 0.4, 0.6, impact.gain, impact.customer_ranks),
         (inst, float("nan"), 0.6, impact.gain, impact.customer_ranks)),
        ("anytime above upper bound", check_anytime,
         (opt, 0.5, anytime.score, anytime.upper_bound),
         (opt, 0.5, anytime.upper_bound * 1.5, anytime.upper_bound)),
        ("anytime below guarantee", check_anytime,
         (opt, 0.5, anytime.score, anytime.upper_bound),
         (opt, 0.5, opt / 1.6, anytime.upper_bound)),
        ("heatmap upper bound", check_heatmap,
         (inst, 8, 8, heat.bounds, heat.lower, heat.upper, 0),
         (inst, 8, 8, heat.bounds, zeroed, zeroed, 0)),
    ]
    lines = []
    for label, check, good, bad in cases:
        check(*good)  # a true answer must pass
        try:
            check(*bad)
        except WrongAnswer as exc:
            lines.append(f"rejected {label}: {exc}")
            continue
        raise RuntimeError(f"checker accepted a perturbed answer: {label}")
    return lines
