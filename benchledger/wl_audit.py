"""``audit``: a cold four-approach audit of Ds4 (challenging) and Ds7 (easy).

The paper's own job: each dataset gets ``ExperimentRunner.matcher_results``
(the 23-matcher sweep) and then ``assessment``, from an empty cache
directory at scale 1.0. Most time goes to matcher fitting (``matchers``,
``ml``, ``embeddings``), then ``text`` and ``core``; ``blocking``, ``serve``
and ``scale`` are never touched. The inputs are the paper's fixed
benchmarks, so the seed only sets the dataset order.
"""

from __future__ import annotations

import random
import time
from pathlib import Path

from common import Outcome, peak_rss_mb_self, percentile, tail

DATASETS = ("Ds4", "Ds7")
FAMILIES = ("dl", "ml", "linear")


def dataset_order(seed: int) -> list[str]:
    order = list(DATASETS)
    random.Random(seed).shuffle(order)
    return order


def fingerprint(results: dict, assessment) -> dict:
    """Everything a verdict is made of, as exactly comparable values."""
    return {
        "f1": {name: result.f1 for name, result in sorted(results.items())},
        "degraded": sorted(
            name for name, result in results.items() if result.degraded
        ),
        "linearity": {
            name: value.max_f1
            for name, value in sorted(assessment.linearity.items())
        },
        "complexity": dict(sorted(assessment.complexity.scores.items())),
        "challenging": assessment.is_challenging,
    }


def check_verdicts(verdicts: dict[str, bool], reference: frozenset) -> list[str]:
    """Each audited verdict must equal the paper's Section V conclusion."""
    return [
        f"audit: {dataset} verdict challenging={challenging}, "
        f"paper says {dataset in reference}"
        for dataset, challenging in sorted(verdicts.items())
        if challenging != (dataset in reference)
    ]


def check_rereads(cold: dict[str, dict], warm: dict[str, dict]) -> list[str]:
    """A warm re-read through a fresh runner must equal the cold pass."""
    problems = []
    for dataset, expected in sorted(cold.items()):
        got = warm.get(dataset)
        if got != expected:
            differing = sorted(
                key for key in expected if got is None or got.get(key) != expected[key]
            )
            problems.append(
                f"audit: warm re-read of {dataset} differs from the cold pass "
                f"in {differing}"
            )
    return problems


def best_f1_cells(results: dict) -> dict[str, float]:
    from repro.experiments.matcher_suite import family_of

    cells: dict[str, float] = {}
    for name, result in results.items():
        family = family_of(name)
        cells[family] = max(cells.get(family, 0.0), result.f1)
    return cells


def run(seed: int, seconds: float, scratch: Path, scale: float = 1.0,
        on_ready=None) -> Outcome:
    from repro import obs
    from repro.datasets.registry import clear_cache
    from repro.embeddings.provider import clear_model_cache
    from repro.experiments.paper_reference import PAPER_CHALLENGING_ESTABLISHED
    from repro.experiments.runner import ExperimentRunner
    from repro.obs import Observability

    outcome = Outcome()
    order = dataset_order(seed)
    registry = Observability()
    latencies: list[float] = []
    records = 0
    degraded = 0
    busy = 0.0
    first_pass: dict[str, dict] | None = None
    cells: dict[str, dict[str, float]] = {}
    with obs.use(registry):
        if on_ready is not None:
            on_ready()
        started = time.perf_counter()
        n_pass = 0
        while True:
            # Every pass is cold: in-process dataset and model caches go too.
            clear_cache()
            clear_model_cache()
            cache = scratch / f"audit-{n_pass}"
            runner = ExperimentRunner(scale=scale, seed=0, cache_dir=cache)
            cold: dict[str, dict] = {}
            for dataset in order:
                begin = time.perf_counter()
                results = runner.matcher_results(dataset)
                assessment = runner.assessment(dataset, with_practical=True)
                elapsed = time.perf_counter() - begin
                latencies.append(elapsed)
                busy += elapsed
                task = runner.task_for(dataset)
                records += len(task.left) + len(task.right)
                cold[dataset] = fingerprint(results, assessment)
                cells[dataset] = best_f1_cells(results)
                outcome.attempted += len(results) + 1
                n_degraded = sum(r.degraded for r in results.values())
                degraded += n_degraded
                outcome.failed += n_degraded
            outcome.failed += len(runner.failure_records())
            if scale == 1.0:
                outcome.problems += check_verdicts(
                    {d: fp["challenging"] for d, fp in cold.items()},
                    PAPER_CHALLENGING_ESTABLISHED,
                )
            warm_runner = ExperimentRunner(scale=scale, seed=0, cache_dir=cache)
            warm = {
                dataset: fingerprint(
                    warm_runner.matcher_results(dataset),
                    warm_runner.assessment(dataset, with_practical=True),
                )
                for dataset in order
            }
            outcome.problems += check_rereads(cold, warm)
            if first_pass is None:
                first_pass = cold
            elif cold != first_pass:
                outcome.problems.append(
                    f"audit: cold pass {n_pass} differs from cold pass 0"
                )
            n_pass += 1
            if time.perf_counter() - started >= seconds:
                break

    quality_cells = [
        cells[dataset].get(family, 0.0)
        for dataset in DATASETS
        for family in FAMILIES
    ]
    tail_value, tail_label = tail(latencies)
    outcome.metrics = {
        "peak_rss_mb": peak_rss_mb_self(),
        "items_per_s": records / busy,
        "latency_p50_ms": 1000.0 * percentile(latencies, 50),
        "latency_tail_ms": 1000.0 * tail_value,
        "quality": sum(quality_cells) / len(quality_cells),
    }
    outcome.headline = outcome.metrics["items_per_s"]
    outcome.notes += [
        f"audit: {n_pass} cold pass(es) over {order}, {records} records "
        f"in {busy:.2f} s",
        f"audit: verdict latency samples={len(latencies)}, "
        f"tail reported as {tail_label}",
        "audit: best F1 cells "
        + ", ".join(
            f"{d}/{f}={100 * cells[d].get(f, 0.0):.1f}"
            for d in DATASETS
            for f in FAMILIES
        ),
    ]
    outcome.layer["matchers.degraded"] = float(degraded)
    outcome.counters = registry.snapshot()["counters"]
    return outcome
