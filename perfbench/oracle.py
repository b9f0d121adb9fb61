"""Answers computed apart from the program, with numpy and scipy only.

Nothing here imports ``repro``.  Each ``check_*`` function compares one
program answer against a brute-force recomputation over the benchmark's
own copy of the instance and raises :class:`WrongAnswer` on mismatch.

Influence semantics (the paper's Definition 2, generalised): a new
site at ``q`` takes rank ``r = 1 + #{existing sites among o's k nearest
with d(o, site) <= d(o, q)}`` for customer ``o`` (a tie leaves the
incumbent in front), and earns ``w(o) * prob[r - 1]`` when ``r <= k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from common import WrongAnswer

#: Relative tolerance for float sums taken in another order.
REL_TOL = 1e-9


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def probability_model(name: str, k: int) -> np.ndarray:
    """The paper's rank-probability models, computed here."""
    ranks = np.arange(1, k + 1, dtype=np.float64)
    if name == "uniform":
        probs = np.full(k, 1.0 / k)
    elif name == "m1":  # linear: k/D, (k-1)/D, ..., 1/D
        probs = (k + 1 - ranks) / (k * (k + 1) / 2.0)
    elif name == "m2":  # harmonic: 1/(i * H_k)
        probs = 1.0 / (ranks * np.sum(1.0 / ranks))
    else:
        raise ValueError(name)
    return probs


@dataclass
class Instance:
    """One MaxBRkNN instance as the benchmark generated it."""

    customers: np.ndarray
    sites: np.ndarray
    k: int
    probs: np.ndarray
    weights: np.ndarray | None = None
    _knn: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False)

    @property
    def w(self) -> np.ndarray:
        if self.weights is None:
            return np.ones(len(self.customers))
        return self.weights

    def knn(self) -> tuple[np.ndarray, np.ndarray]:
        """``(distances, site indices)`` of each customer's k nearest."""
        if self._knn is None:
            d, i = cKDTree(self.sites).query(self.customers, k=self.k)
            self._knn = (d.reshape(len(self.customers), self.k),
                         i.reshape(len(self.customers), self.k))
        return self._knn

    def ranks_at(self, x: float, y: float, slack: float = 0.0
                 ) -> np.ndarray:
        """Rank a new site at ``(x, y)`` takes per customer (k+1 = none).

        ``slack`` shifts every NLC boundary outward by that distance:
        a positive slack counts a point on (or a rounding error inside)
        a boundary as inside, a negative one as outside.
        """
        d, _ = self.knn()
        dq = np.hypot(self.customers[:, 0] - x, self.customers[:, 1] - y)
        return 1 + np.count_nonzero(d + slack <= dq[:, None], axis=1)

    def influence(self, x: float, y: float, slack: float = 0.0) -> float:
        r = self.ranks_at(x, y, slack)
        won = r <= self.k
        return float(np.sum(self.w[won] * self.probs[r[won] - 1]))

    def influences(self, points: np.ndarray) -> np.ndarray:
        return np.array([self.influence(px, py) for px, py in points])

    def boundary_slack(self) -> float:
        """Distances this close to an NLC boundary are rounding ties:
        the program and this module compute distances in different
        orders, and a region point may sit on a cusp where several
        boundaries meet."""
        extent = np.ptp(self.customers, axis=0).max()
        return 1e-9 * max(1.0, float(extent))


def probe_points(inst: Instance, n: int, seed: int) -> np.ndarray:
    """Seeded probes: uniform in the customers' box plus jittered
    customer locations (where coverage is densest)."""
    rng = np.random.default_rng([seed, 7919])
    lo = inst.customers.min(axis=0)
    hi = inst.customers.max(axis=0)
    uniform = rng.uniform(lo, hi, size=(n // 2, 2))
    picks = inst.customers[rng.integers(0, len(inst.customers), n - n // 2)]
    scale = 1e-3 * float(np.max(hi - lo))
    return np.vstack([uniform, picks + rng.normal(0, scale, picks.shape)])


def check_solve(inst: Instance, score: float,
                regions: list[tuple[float, float, float]],
                probes: np.ndarray) -> None:
    """``regions`` are ``(score, x, y)`` with ``(x, y)`` inside."""
    if not regions:
        raise WrongAnswer("solve returned no region")
    best = max(r[0] for r in regions)
    if not close(best, score):
        raise WrongAnswer(f"score {score!r} != best region {best!r}")
    slack = inst.boundary_slack()
    for region_score, x, y in regions:
        low = inst.influence(x, y, -slack)
        high = inst.influence(x, y, slack)
        if not (low <= region_score <= high or close(low, region_score)
                or close(high, region_score)):
            raise WrongAnswer(
                f"region at ({x!r}, {y!r}) scores {region_score!r}, "
                f"brute force {inst.influence(x, y)!r}")
    beaten = inst.influences(probes)
    worst = int(np.argmax(beaten))
    if beaten[worst] > score and not close(beaten[worst], score):
        raise WrongAnswer(
            f"probe {probes[worst].tolist()} has influence "
            f"{beaten[worst]!r} > optimum {score!r}")


def check_brknn(inst: Instance, site: int, members: dict[int, int],
                influence: float) -> None:
    _, idx = inst.knn()
    rows, cols = np.nonzero(idx == site)
    expect = dict(zip(rows.tolist(), (cols + 1).tolist()))
    if members != expect:
        missing = len(set(expect) - set(members))
        extra = len(set(members) - set(expect))
        raise WrongAnswer(f"brknn({site}) members differ: {missing} "
                          f"missing, {extra} extra")
    brute = float(np.sum(inst.w[rows] * inst.probs[cols]))
    if not close(brute, influence):
        raise WrongAnswer(
            f"brknn({site}) influence {influence!r} != {brute!r}")


def site_influences(inst: Instance) -> np.ndarray:
    _, idx = inst.knn()
    out = np.zeros(len(inst.sites))
    np.add.at(out, idx.reshape(-1),
              (inst.w[:, None] * inst.probs[None, :]).reshape(-1))
    return out


def check_site_influence(inst: Instance, values: tuple[float, ...]) -> None:
    brute = site_influences(inst)
    if len(values) != len(brute):
        raise WrongAnswer("site_influence length differs")
    for j, (got, want) in enumerate(zip(values, brute)):
        if not close(got, float(want)):
            raise WrongAnswer(f"site {j} influence {got!r} != {want!r}")


def check_impact(inst: Instance, x: float, y: float, gain: float,
                 customer_ranks: dict[int, int]) -> None:
    if not (math.isfinite(x) and math.isfinite(y)):
        raise WrongAnswer(f"impact at ({x}, {y}) answered instead of "
                          "rejected")
    r = inst.ranks_at(x, y)
    won = np.flatnonzero(r <= inst.k)
    expect = dict(zip(won.tolist(), r[won].tolist()))
    if customer_ranks != expect:
        raise WrongAnswer(f"impact ({x!r}, {y!r}) won set differs: "
                          f"{len(customer_ranks)} vs {len(expect)}")
    brute = float(np.sum(inst.w[won] * inst.probs[r[won] - 1]))
    if not close(brute, gain):
        raise WrongAnswer(f"impact ({x!r}, {y!r}) gain {gain!r} != "
                          f"{brute!r}")


def check_anytime(optimum: float, epsilon: float, score: float,
                  upper_bound: float) -> None:
    """score <= optimum <= upper_bound and score * (1 + eps) >= optimum."""
    if not math.isfinite(epsilon) or epsilon < 0:
        raise WrongAnswer(f"anytime solve ran with epsilon={epsilon!r}")
    if score > upper_bound and not close(score, upper_bound):
        raise WrongAnswer(
            f"anytime score {score!r} > its upper bound {upper_bound!r}")
    if score > optimum and not close(score, optimum):
        raise WrongAnswer(f"anytime score {score!r} > optimum {optimum!r}")
    if optimum > upper_bound and not close(optimum, upper_bound):
        raise WrongAnswer(
            f"upper bound {upper_bound!r} < optimum {optimum!r}")
    reach = score * (1.0 + epsilon)
    if reach < optimum and not close(reach, optimum):
        raise WrongAnswer(f"anytime score {score!r} misses optimum "
                          f"{optimum!r} by more than eps={epsilon!r}")


def check_heatmap(inst: Instance, nx: int, ny: int,
                  bounds: tuple[float, float, float, float],
                  lower: tuple[float, ...], upper: tuple[float, ...],
                  seed: int, samples: int = 256) -> None:
    """Tile upper bounds dominate sampled brute-force influence."""
    lo = np.asarray(lower)
    up = np.asarray(upper)
    if lo.shape != (nx * ny,) or up.shape != (nx * ny,):
        raise WrongAnswer("heatmap grid has the wrong size")
    if np.any(lo > up + REL_TOL * np.maximum(1.0, np.abs(up))):
        raise WrongAnswer("heatmap lower bound above upper bound")
    xmin, ymin, xmax, ymax = bounds
    rng = np.random.default_rng([seed, nx, ny, 104729])
    tiles = rng.integers(0, nx * ny, samples)
    for t in tiles.tolist():
        i, j = t % nx, t // nx
        x = xmin + (xmax - xmin) * (i + rng.uniform()) / nx
        y = ymin + (ymax - ymin) * (j + rng.uniform()) / ny
        brute = inst.influence(x, y)
        if brute > up[t] and not close(brute, float(up[t])):
            raise WrongAnswer(f"heatmap tile ({i}, {j}) upper "
                              f"{up[t]!r} < influence {brute!r}")
