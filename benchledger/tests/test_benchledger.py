"""Tests of the repository benchmark itself (tiny inputs, ~3 minutes).

Run from the repository root::

    python3 -m pytest benchledger/tests -q

They pin four promises: every workload prints the six end-to-end metrics
with units; every correctness check fails on a corrupted output; a refused
reply is a failed operation, never a wrong one; and every per-layer metric
is measured on the workloads it is mapped to, so a missed binding fails
here instead of reading as a silent zero.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import wl_audit  # noqa: E402
import wl_scale  # noqa: E402
import wl_serve  # noqa: E402
from common import tail, tail_percentile  # noqa: E402

WORKLOADS = ("audit", "serve", "scale")


def run_bench(workload: str, trace: int) -> tuple[dict, list[str]]:
    process = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "2", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert process.returncode == 0, process.stderr
    lines = process.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    result, lines = run_bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], [line for line in lines if "WRONG" in line]
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {metric.name: metric.unit for metric in layers.END_TO_END}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
        assert any(line.startswith(f"# {workload} {name} = ") for line in lines)
    assert any(line.startswith("# env git_revision=") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_measures_every_mapped_layer(workload):
    result, lines = run_bench(workload, 1)
    assert result["correct"]
    assert set(result["metrics"]) == {m.name for m in layers.PER_LAYER}
    assert not [line for line in lines if "not measured" in line]
    for metric in layers.PER_LAYER:
        if workload in metric.workloads and metric.positive:
            assert result["metrics"][metric.name]["value"] > 0, metric.name
    if workload == "serve":
        assert result["metrics"]["blocking.index_builds"]["value"] == 1
        assert result["metrics"]["text.incidence_rebuilds"]["value"] == 0


def test_benchmark_json_lists_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in layers.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.PER_LAYER
    ]


def test_tail_needs_ten_samples_beyond():
    assert tail_percentile(9) is None
    assert tail_percentile(100) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail([1.0, 5.0, 3.0]) == (5.0, "max")


# -- audit checks -------------------------------------------------------------


def test_audit_check_flags_an_altered_verdict():
    reference = frozenset({"Ds4"})
    assert wl_audit.check_verdicts({"Ds4": True, "Ds7": False}, reference) == []
    problems = wl_audit.check_verdicts({"Ds4": True, "Ds7": True}, reference)
    assert len(problems) == 1 and "Ds7" in problems[0]


def test_audit_check_flags_a_warm_reread_that_differs():
    cold = {"Ds7": {"f1": {"A": 1.0}, "challenging": False}}
    assert wl_audit.check_rereads(cold, copy.deepcopy(cold)) == []
    warm = copy.deepcopy(cold)
    warm["Ds7"]["challenging"] = True
    assert "challenging" in wl_audit.check_rereads(cold, warm)[0]


# -- scale checks -------------------------------------------------------------


@pytest.fixture(scope="module")
def scale_states(tmp_path_factory):
    from repro.runtime.cache import read_envelope
    from repro.scale.sweep import SCALE_REPORT_NAME, ShardedSweep

    config = wl_scale.setup(seed=3, records=2000)
    state_dir = tmp_path_factory.mktemp("scale")
    sweep = ShardedSweep(config, cache_dir=state_dir)
    report = sweep.run()
    state = json.loads(json.dumps(report.state()))
    return state, read_envelope(state_dir / SCALE_REPORT_NAME), (
        wl_scale.expected_records(sweep.profile)
    )


def test_scale_check_passes_a_clean_sweep(scale_states):
    state, journaled, total = scale_states
    assert wl_scale.check_reports([state, copy.deepcopy(state)],
                                  [journaled, journaled], total) == []


def test_scale_check_flags_a_changed_shard_count(scale_states):
    state, journaled, total = scale_states
    corrupted = copy.deepcopy(state)
    corrupted["shards"][0]["n_left"] += 1
    problems = wl_scale.check_reports([state, corrupted],
                                      [journaled, journaled], total)
    assert any("shard records sum" in problem for problem in problems)
    assert any("differs from sweep 0" in problem for problem in problems)


# -- serve checks -------------------------------------------------------------


@pytest.fixture(scope="module")
def served():
    """Ops answered by one session, plus a fresh reference session."""
    from repro.datasets.generator import build_task_from_sources
    from repro.datasets.registry import load_source_pair
    from repro.serve import MatcherSession, SessionConfig

    sources = load_source_pair(wl_serve.DATASET, 0.3)

    def session():
        return MatcherSession(
            build_task_from_sources(sources, n_pairs=300,
                                    positive_fraction=0.25, seed=0),
            SessionConfig(),
        )

    server = session()
    schedule = wl_serve.build_schedule(seed=9, seconds=2, sources=sources)
    ops = [op for phase in schedule.phases() for op in phase.ops]
    assert any(op.kind == "add" for op in ops)
    for op in ops:
        if op.kind == "add":
            added = server.add_records([op.record])
            op.response = {"ok": True, "op": "add", "added": added}
        else:
            result = server.query(op.record)
            op.response = {"ok": True, "op": "query",
                           "result": json.loads(json.dumps(result.to_dict()))}
    return ops, session


def test_serve_check_passes_a_faithful_server(served):
    ops, session = served
    assert wl_serve.check_answers(ops, session()) == []


def test_serve_check_flags_one_flipped_prediction(served):
    ops, session = served
    corrupted = copy.deepcopy(ops)
    victim = next(op for op in corrupted if op.kind == "query")
    victim.response["result"]["predictions"][0] ^= 1
    problems = wl_serve.check_answers(corrupted, session())
    assert len(problems) == 1 and victim.request_id in problems[0]


def test_serve_refusals_are_failed_not_incorrect(served):
    ops, session = served
    refused = copy.deepcopy(ops)
    queries = [op for op in refused if op.kind == "query"]
    queries[0].response = {"ok": False, "error": "overloaded"}
    queries[1].response = {"ok": False, "error": "deadline_exceeded"}
    queries[2].response = None  # a reply that never came
    assert wl_serve.check_answers(refused, session()) == []
    for index, op in enumerate(refused):
        op.due = op.sent = float(index)
        op.received = None if op.response is None else index + 0.001
    stats = wl_serve.phase_stats(wl_serve.Phase("single-1", refused))
    assert stats["failed"] == 3
    assert not stats["meets_limit"]
