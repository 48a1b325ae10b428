"""``scale``: a journaled ``ShardedSweep`` over Ds2 with ``lsh``/``SA``.

4x10^4 records in shards of 10^4 entities, each sweep into a fresh state
directory. Time goes mostly to ``datasets`` generation and ``blocking``
minhash; this is the batch use of ``blocking`` that ``serve`` does not
make, and with four shards a shard-parallel change can show on two CPUs.
The seed is ``ScaleConfig.seed``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from common import Outcome, peak_rss_mb_self, percentile, tail

DATASET = "Ds2"
RECORDS = 40_000
SHARD_SIZE = 10_000


def expected_records(profile) -> int:
    """Records a generator profile renders: two per shared entity."""
    return 2 * profile.n_matches + profile.left_extra + profile.right_extra


def check_reports(states: list[dict], journaled: list[dict | None],
                  total_records: int) -> list[str]:
    """Sweeps of one run agree, match their journal and cover every record."""
    problems = []
    for index, (state, stored) in enumerate(zip(states, journaled)):
        if not state["complete"]:
            problems.append(f"scale: sweep {index} is incomplete")
        if stored != state:
            problems.append(
                f"scale: sweep {index} differs from its journaled report"
            )
        shard_records = sum(s["n_left"] + s["n_right"] for s in state["shards"])
        if shard_records != total_records or state["n_records"] != total_records:
            problems.append(
                f"scale: sweep {index} shard records sum to {shard_records} "
                f"(report {state['n_records']}), profile renders {total_records}"
            )
        if len(state["shards"]) != state["n_shards"]:
            problems.append(
                f"scale: sweep {index} reduced {len(state['shards'])} of "
                f"{state['n_shards']} shards"
            )
        if index and state != states[0]:
            problems.append(f"scale: sweep {index} differs from sweep 0")
    return problems


def setup(seed: int, records: int):
    """Imports and the sweep's configuration, before any shard work."""
    from repro.scale.config import ScaleConfig

    return ScaleConfig(
        dataset_id=DATASET,
        records=records,
        shard_size=max(1, SHARD_SIZE * records // RECORDS),
        blocker="lsh",
        matcher="SA",
        seed=seed,
    )


def run(seed: int, seconds: float, scratch: Path, records: int = RECORDS,
        on_ready=None) -> Outcome:
    from repro import obs
    from repro.obs import Observability
    from repro.runtime.cache import read_envelope
    from repro.scale.sweep import SCALE_REPORT_NAME, ShardedSweep

    config = setup(seed, records)
    outcome = Outcome()
    registry = Observability()
    states: list[dict] = []
    journaled: list[dict | None] = []
    shard_seconds: list[float] = []
    swept = 0
    busy = 0.0
    f1 = None
    with obs.use(registry):
        if on_ready is not None:
            on_ready()
        started = time.perf_counter()
        while True:
            state_dir = scratch / f"scale-{len(states)}"
            begin = time.perf_counter()
            sweep = ShardedSweep(config, cache_dir=state_dir)
            report = sweep.run()
            busy += time.perf_counter() - begin
            swept += report.n_records
            outcome.attempted += report.n_shards
            shard_seconds += [shard.seconds for shard in report.shards]
            # JSON-normalized, as the journaled copy is read back.
            states.append(json.loads(json.dumps(report.state())))
            report_path = state_dir / SCALE_REPORT_NAME
            journaled.append(
                read_envelope(report_path) if report_path.exists() else None
            )
            if f1 is None:
                f1 = report.f1
                profile = sweep.profile
            if time.perf_counter() - started >= seconds:
                break

    outcome.problems += check_reports(
        states, journaled, expected_records(profile)
    )
    tail_value, tail_label = tail(shard_seconds)
    outcome.metrics = {
        "peak_rss_mb": peak_rss_mb_self(),
        "items_per_s": swept / busy,
        "latency_p50_ms": 1000.0 * percentile(shard_seconds, 50),
        "latency_tail_ms": 1000.0 * tail_value,
        "quality": f1,
    }
    outcome.headline = outcome.metrics["items_per_s"]
    outcome.notes += [
        f"scale: {len(states)} sweep(s) of {records} records "
        f"({states[0]['n_shards']} shards) in {busy:.2f} s",
        f"scale: shard latency samples={len(shard_seconds)}, "
        f"tail reported as {tail_label}",
        f"scale: F1={f1:.4f} PC={states[0]['pair_completeness']:.4f} "
        f"PQ={states[0]['pairs_quality']:.4f}",
    ]
    outcome.counters = registry.snapshot()["counters"]
    return outcome
