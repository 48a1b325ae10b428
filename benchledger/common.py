"""Shared helpers of the repository benchmark: statistics, processes, results.

Every workload reports its numbers through :class:`Outcome`, computes
percentiles with :func:`percentile` and picks its tail with
:func:`tail_percentile`, so the three workloads state latency the same way.
"""

from __future__ import annotations

import json
import math
import os
import resource
from dataclasses import dataclass, field
from pathlib import Path

#: Root of the checkout the benchmark runs in (the parent of this directory).
ROOT = Path(__file__).resolve().parent.parent

#: Environment every workload process runs under: BLAS and OpenMP pinned to
#: one thread so a run measures the program, not the thread pool's mood, and
#: a fixed hash seed so set iteration order cannot differ between runs.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}

#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0)

#: A tail percentile is reported only with at least this many samples
#: beyond it; with fewer samples the maximum is reported instead.
TAIL_MIN_BEYOND = 10


def workload_env() -> dict[str, str]:
    """The process environment of a workload child: pinned, with ``src``."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    return env


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolated percentile *q* (0-100) of *samples*."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(n_samples: int) -> float | None:
    """Highest reportable percentile for *n_samples*; ``None`` = the maximum."""
    for q in TAIL_PERCENTILES:
        if n_samples * (100.0 - q) / 100.0 >= TAIL_MIN_BEYOND:
            return q
    return None


def tail(samples: list[float]) -> tuple[float, str]:
    """(value, label) of the highest percentile with enough samples beyond."""
    q = tail_percentile(len(samples))
    if q is None:
        return max(samples), "max"
    return percentile(samples, q), f"p{q:g}"


def peak_rss_mb_self() -> float:
    """Peak resident set of this process in MiB (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


@dataclass
class Outcome:
    """What one workload process measured and checked.

    ``metrics`` maps an end-to-end (or, traced, per-layer) metric name to
    its value; units come from the spec in :mod:`layers`. ``problems``
    lists every wrong output found: a run is correct only with none.
    ``notes`` are human-readable lines printed before the result.
    """

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    headline: float | None = None
    layer: dict[str, float] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    ready_at: float | None = None

    @property
    def correct(self) -> bool:
        return not self.problems

    def to_json(self) -> str:
        return json.dumps(
            {
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": self.metrics,
                "problems": self.problems,
                "notes": self.notes,
                "headline": self.headline,
                "layer": self.layer,
                "counters": self.counters,
                "ready_at": self.ready_at,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Outcome":
        data = json.loads(text)
        return cls(**data)
