"""Shared plumbing: checkout paths, environment, statistics, results.

Everything the benchmark writes goes under ``.bench_build/perfbench`` in
the checkout it runs from (compiled-kernel cache, temp files, the
memmap NLC store, traces and layer tables), so a run never touches
anything outside its checkout.
"""

from __future__ import annotations

import ctypes
import json
import os
import resource
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

#: Program settings the benchmark pins: runs must not inherit a store
#: backend or the lifecycle sanitizer from the calling shell.
_CLEARED_ENV = ("REPRO_STORE", "REPRO_SANITIZE", "REPRO_STORE_DIR")


def prepare_environment() -> dict[str, str]:
    """Point every cache and scratch path of the program into the
    checkout and make ``src/`` importable; returns the environment a
    program subprocess should get."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no program sources under {SRC}")
    for sub in ("cache", "tmp", "store", "out"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    for name in _CLEARED_ENV:
        os.environ.pop(name, None)
    os.environ["XDG_CACHE_HOME"] = str(WORK / "cache")
    os.environ["TMPDIR"] = str(WORK / "tmp")
    os.environ["REPRO_STORE_DIR"] = str(WORK / "store")
    tempfile.tempdir = None  # re-read TMPDIR
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def out_path(name: str) -> Path:
    return WORK / "out" / name


def now() -> float:
    return time.perf_counter()


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def tail(values: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it: the
    ``(n - 10)``-th order statistic, i.e. percentile ``1 - 10/n``."""
    if len(values) < 11:
        raise ValueError(
            f"{len(values)} samples cannot support a tail percentile")
    return float(sorted(values)[len(values) - 11])


def peak_rss_mb_self() -> float:
    """This process's peak resident set (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_pid(pid: int) -> float:
    """Peak resident set of another process, from ``VmHWM``."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _malloc_trim():
    """glibc's ``malloc_trim``, or ``None`` where the C library has none."""
    try:
        return ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return None


_MALLOC_TRIM = _malloc_trim()


def trim_heap() -> None:
    """Hand the C heap's free pages back to the system.

    glibc keeps freed memory, and after a large array is freed it also
    raises its mmap threshold, so the next large arrays land on the
    retained heap.  Without a trim, the resident set after one heavy
    solve stays at that solve's peak for the rest of the run, and a
    run's memory figure would depend on when its heaviest instance came.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


class RssSampler:
    """Resident-set peaks per interval: a thread samples
    ``/proc/self/statm`` every ``period`` seconds and :meth:`take`
    returns (and resets) the highest sample since the last call."""

    def __init__(self, period: float = 0.005) -> None:
        self.period = period
        self._peak = 0
        self._stop = threading.Event()
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _resident(self) -> int:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * self._page

    def _sample(self) -> None:
        while not self._stop.wait(self.period):
            self._peak = max(self._peak, self._resident())

    def take(self) -> float:
        peak, self._peak = max(self._peak, self._resident()), 0
        return peak / 2 ** 20

    def __enter__(self) -> "RssSampler":
        self._peak = self._resident()
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()


def region_point(region: Any) -> tuple[float, float]:
    """A region's representative point as ``(x, y)``."""
    p = region.representative_point()
    return p.x, p.y


def layer_counters(out: "Outcome", counters: dict[str, int],
                   n: int) -> None:
    """Per-operation means of the program's own work counters."""
    out.metric("kernel.batches", counters.get("kernel_batches", 0) / n)
    out.metric("kernel.rects", counters.get("kernel_rects", 0) / n)
    out.metric("phase2.clips", counters.get("phase2_clips", 0) / n)


class WrongAnswer(AssertionError):
    """A program output disagreed with the benchmark's own computation."""


@dataclass
class Outcome:
    """What one run reports: operation counts, correctness, metrics."""

    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    notes: dict[str, Any] = field(default_factory=dict)

    def metric(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)

    def check(self, label: str, fn, *args: Any) -> bool:
        """Run one checker; a mismatch is recorded, not raised."""
        try:
            fn(*args)
        except WrongAnswer as exc:
            if len(self.wrong) < 20:
                self.wrong.append(f"{label}: {exc}")
            else:
                self.notes["more_wrong"] = self.notes.get(
                    "more_wrong", 0) + 1
            return False
        return True

    def emit(self, specs: list[dict[str, Any]], *,
             unmeasured_zero: bool) -> None:
        """Print the notes, then the result object as the last line.

        ``specs`` are the metric entries of ``BENCHMARK.json``.  A layer
        metric the workload never exercises reads 0
        (``unmeasured_zero``); an end-to-end metric must be measured.
        """
        missing = [s["name"] for s in specs if s["name"] not in self.metrics]
        if missing and not unmeasured_zero:
            raise RuntimeError(f"metrics not measured: {missing}")
        for line in self.wrong:
            print(f"WRONG {line}")
        for key, value in self.notes.items():
            print(f"note {key}: {value}")
        doc = {
            "correct": not self.wrong and "more_wrong" not in self.notes,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {s["name"]: {"value": self.metrics.get(s["name"], 0.0),
                                    "unit": s["unit"]} for s in specs},
        }
        print(json.dumps(doc), flush=True)
