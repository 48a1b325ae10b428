"""The repository benchmark: one command, three workloads, one JSON line.

Usage::

    python3 benchledger/run.py --workload {audit,serve,scale} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout holding ``src/repro``. Each workload runs
in a fresh child process with BLAS/OpenMP pinned to one thread and its own
scratch directory under ``.benchledger/``. The last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``:

* ``--trace 0``: the six end-to-end metrics. ``setup_s`` is the median of
  three set-ups for ``audit`` and ``scale`` (two set-up-only children plus
  the measured one) and of two server starts for ``serve``, whose set-up
  alone costs ~10 s.
* ``--trace 1``: an untraced child, then a traced one; every per-layer
  metric from the traced child, plus ``obs.trace_overhead_pct`` (the traced
  headline against the untraced one). Per-layer numbers never come from
  the run whose end-to-end numbers are reported.

Lines before the result describe the environment, each phase, every
metric with its unit, and any wrong output found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
import uuid
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
from common import ROOT, Outcome, workload_env  # noqa: E402

WORKLOADS = ("audit", "serve", "scale")
#: Every child must finish inside this many seconds of the command starting.
BUDGET_S = 170.0
#: Set-up samples per run (set-up-only children plus the measured one);
#: ``serve`` takes two because one server start costs ~10 s.
SETUP_SAMPLES = {"audit": 3, "serve": 2, "scale": 3}


def environment() -> list[str]:
    """The environment block: CPUs, affinity, Python, numpy, BLAS, revision."""
    lines = [
        f"cpu_count={os.cpu_count()}",
        f"cpu_affinity={sorted(os.sched_getaffinity(0))}",
        f"python={platform.python_version()}",
    ]
    probe = subprocess.run(
        [sys.executable, "-c",
         "import numpy, json; c = numpy.show_config(mode='dicts');"
         "b = c.get('Build Dependencies', {}).get('blas', {});"
         "print(numpy.__version__, b.get('name'), b.get('version'))"],
        capture_output=True, text=True, env=workload_env(), timeout=60,
    )
    parts = probe.stdout.split()
    if len(parts) == 3:
        lines += [f"numpy={parts[0]}", f"blas={parts[1]} {parts[2]}"]
    revision = "unknown (not a git checkout)"
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
        lines_out = git.stdout.split()
        # A checkout nested in some other repository is not a git checkout.
        if git.returncode == 0 and Path(lines_out[0]).resolve() == ROOT:
            revision = lines_out[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    lines.append(f"git_revision={revision}")
    lines.append(
        "pinned=" + ",".join(
            f"{key}={value}" for key, value in sorted(workload_env().items())
            if key.endswith("_THREADS") or key == "PYTHONHASHSEED"
        )
    )
    return lines


def run_child(args, scratch: Path, trace: bool, deadline: float,
              setup_only: bool = False) -> tuple[Outcome, float]:
    """Run one workload child; returns its outcome and spawn time."""
    tag = uuid.uuid4().hex[:8]
    out = scratch / f"outcome-{tag}.json"
    command = [
        sys.executable, str(Path(__file__).with_name("child.py")),
        args.workload, str(args.seed), str(args.seconds),
        "1" if trace else "0", args.size, str(scratch / f"work-{tag}"), str(out),
    ]
    if setup_only:
        command.append("--setup-only")
    spawned = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=ROOT, env=workload_env(), start_new_session=True,
        stdin=subprocess.DEVNULL,
    )
    try:
        code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise RuntimeError(f"{args.workload}: child exceeded the time budget")
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    if code != 0 or not out.exists():
        raise RuntimeError(f"{args.workload}: child exited with {code}")
    return Outcome.from_json(out.read_text()), spawned


def end_to_end(args, scratch: Path, deadline: float) -> Outcome:
    setups = []
    for _ in range(SETUP_SAMPLES[args.workload] - 1):
        probe, spawned = run_child(args, scratch, False, deadline, True)
        setups.append(probe.ready_at - spawned)
    outcome, spawned = run_child(args, scratch, False, deadline)
    setups.append(outcome.ready_at - spawned)
    outcome.metrics["setup_s"] = median(setups)
    outcome.notes.append(
        f"{args.workload}: setup samples "
        + ", ".join(f"{value:.3f}" for value in setups) + " s"
    )
    return outcome


def per_layer(args, scratch: Path, deadline: float) -> Outcome:
    plain, _ = run_child(args, scratch, False, deadline)
    traced, _ = run_child(args, scratch, True, deadline)
    values = dict(traced.layer)
    # Headlines: items_per_s for audit/scale (higher is better), the
    # eight-in-flight query p50 for serve (lower is better); positive = slower.
    if args.workload == "serve":
        overhead = 100.0 * (traced.headline - plain.headline) / plain.headline
    else:
        overhead = 100.0 * (plain.headline - traced.headline) / plain.headline
    values["obs.trace_overhead_pct"] = overhead
    traced.notes.append(
        f"{args.workload}: untraced headline {plain.headline:.4f}, traced "
        f"{traced.headline:.4f}, overhead {overhead:.2f}%"
    )
    missing = []
    table = []
    for metric in layers.PER_LAYER:
        mapped = args.workload in metric.workloads
        if metric.name not in values:
            if mapped:
                missing.append(metric.name)
            values[metric.name] = 0.0
        table.append(
            f"{metric.name:<28} {values[metric.name]:>14.6g} {metric.unit:<12}"
            f" {'*' if mapped else ' '} -> {metric.maps_to}"
        )
    traced.notes.append(
        f"per-layer metrics ({args.workload}; * = mapped to this workload):"
    )
    traced.notes += table
    if missing:
        traced.notes.append(f"not measured on a mapped workload: {missing}")
    traced.metrics = values
    traced.problems += plain.problems
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    return traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: reduced inputs for the benchmark's tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    scratch = ROOT / ".benchledger" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        for line in environment():
            print(f"# env {line}")
        if args.trace:
            outcome = per_layer(args, scratch, deadline)
        else:
            outcome = end_to_end(args, scratch, deadline)
    except (RuntimeError, OSError, subprocess.SubprocessError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    for note in outcome.notes:
        print(f"# {note}")
    for problem in outcome.problems:
        print(f"# WRONG OUTPUT: {problem}")
    if not args.trace:
        for metric in layers.END_TO_END:
            print(f"# {args.workload} {metric.name} = "
                  f"{outcome.metrics[metric.name]:.6g} {metric.unit}")
    print(f"# attempted={outcome.attempted} failed={outcome.failed} "
          f"correct={outcome.correct}")
    names = layers.PER_LAYER if args.trace else layers.END_TO_END
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            metric.name: {"value": outcome.metrics[metric.name],
                          "unit": metric.unit}
            for metric in names
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
