"""``serve``: ``repro serve --listen 127.0.0.1:0 --state DIR`` under load.

The default ``SessionConfig`` (graph index, k=10, SA-ESDE) over
dblp_scholar at scale 1.0. One client thread on one connection sends about
90% ``query`` and 10% ``add`` of fresh-id records: per-request
``blocking`` search plus ``insert`` writes beside the reads, snapshots and
journal appends in ``runtime`` at drain, and the index build in
``setup_s``. ``core`` and DL training are never touched. The seed draws
probes, donors and the op mix.

Phases, in order: an unmeasured warm-up; ``low``, an open loop at 25/s
(coalescing idle, timed from each request's *scheduled* send); then five
measured blocks, each a ``single`` segment (closed loop, one request in
flight: the latency of one request on an idle server) and a ``piped``
segment (closed loop, ``WINDOW`` requests in flight: the server always has
work queued, so its completion rate is its capacity and its latency is the
latency under load). Interleaving the blocks spreads both over the run. With two or more CPUs the server is pinned to
one and this load generator to another, so neither waits for the other's
CPU and the server's threads do not migrate.

Correctness: answered queries must equal an in-process replay of the same
operation sequence on a reference ``MatcherSession``. Refused
(``overloaded``, ``deadline_exceeded``) or missing replies are failed
operations, never wrong outputs.
"""

from __future__ import annotations

import gc
import json
import os
import random
import select
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    ROOT,
    Outcome,
    peak_rss_mb_of,
    percentile,
    tail,
    workload_env,
)

DATASET = "dblp_scholar"
ADD_SHARE = 0.10
LOW_RATE = 25.0
#: Requests in flight in a ``piped`` segment: the server never waits for
#: the client, and the queue stays far below the admission depth (64).
WINDOW = 8
BLOCKS = 5
#: A segment meets the limit when its query tail is at most this and no
#: request in it failed.
LATENCY_LIMIT_MS = 100.0
#: Replay flushes coalesced reference queries at this batch size.
REPLAY_BATCH = 64
READY_TIMEOUT_S = 120.0
DRAIN_TIMEOUT_S = 20.0


@dataclass
class Op:
    request_id: str
    kind: str  # "query" or "add"
    record: object
    line: bytes = b""
    due: float = 0.0
    sent: float = 0.0
    received: float | None = None
    response: dict | None = None

    @property
    def ok(self) -> bool:
        return self.response is not None and bool(self.response.get("ok"))


@dataclass
class Phase:
    """Ops sent either on a schedule (``rate``) or ``window`` at a time."""

    name: str
    ops: list[Op]
    rate: float | None = None
    window: int = 1
    stats: dict = field(default_factory=dict)


@dataclass
class Schedule:
    """Every op of one run, drawn up front from the seed."""

    warmup: Phase
    low: Phase
    #: per block, its ``single`` and ``piped`` segments
    blocks: list[tuple[Phase, Phase]]

    def phases(self) -> list[Phase]:
        return [self.warmup, self.low,
                *(segment for block in self.blocks for segment in block)]


def payload(record) -> dict:
    return {
        "record_id": record.record_id,
        "source": record.source,
        "values": dict(record.values),
    }


def build_schedule(seed: int, seconds: float, sources) -> Schedule:
    """The whole deterministic op schedule for *seed*."""
    from repro.data.records import Record

    rng = random.Random(seed)
    probes = sources.left.records()
    donors = sources.right.records()
    counter = {"q": 0, "a": 0}

    def make_ops(count: int) -> list[Op]:
        ops = []
        for _ in range(count):
            if rng.random() < ADD_SHARE:
                donor = rng.choice(donors)
                n = counter["a"] = counter["a"] + 1
                record = Record(
                    f"bench-{seed}-{n}", donor.source, dict(donor.values)
                )
                request = {"op": "add", "records": [payload(record)],
                           "id": f"add-{seed}-{n}"}
                ops.append(Op(request["id"], "add", record))
            else:
                record = rng.choice(probes)
                n = counter["q"] = counter["q"] + 1
                request = {"op": "query", "record": payload(record),
                           "id": f"q-{n}"}
                ops.append(Op(request["id"], "query", record))
            ops[-1].line = (json.dumps(request) + "\n").encode("utf-8")
        return ops

    # Sizes at --seconds 15, on a 2-CPU box (~5 ms a request alone, ~250
    # requests/s piped): 0.4 s warm-up, 1.6 s low, then five blocks of 1 s
    # single and 1 s piped; ~1,100 piped queries carry a p99 tail with 11
    # samples beyond it.
    def count(at_15: int) -> int:
        return max(10, round(at_15 * seconds / 15))

    warmup = Phase("warmup", make_ops(count(100)), window=WINDOW)
    low = Phase("low", make_ops(count(40)), rate=LOW_RATE)
    blocks = [
        (Phase(f"single-{block + 1}", make_ops(count(200))),
         Phase(f"piped-{block + 1}", make_ops(count(250)), window=WINDOW))
        for block in range(BLOCKS)
    ]
    return Schedule(warmup, low, blocks)


class LoadGenerator:
    """One connection, one thread: sends on schedule and reads replies."""

    def __init__(self, address: str) -> None:
        host, _, port = address.rpartition(":")
        self.sock = socket.create_connection((host, int(port)), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""
        self.pending: dict[str, Op] = {}
        self.replies: dict[str, dict] = {}

    def _receive(self, timeout: float) -> int:
        """File the replies that arrive within *timeout*; returns how many."""
        readable, _, _ = select.select([self.sock], [], [], max(0.0, timeout))
        if not readable:
            return 0
        chunk = self.sock.recv(1 << 20)
        now = time.perf_counter()
        if not chunk:
            raise RuntimeError("serve: the server closed the connection")
        self.buffer += chunk
        *lines, self.buffer = self.buffer.split(b"\n")
        for raw in lines:
            response = json.loads(raw)
            key = str(response.get("id"))
            op = self.pending.pop(key, None)
            if op is not None:
                op.received = now
                op.response = response
            elif "id" in response:
                self.replies[key] = response
        return len(lines)

    def run_phase(self, phase: Phase) -> None:
        """Open loop at ``phase.rate``, else ``phase.window`` in flight.

        A server that answers nothing for ``DRAIN_TIMEOUT_S`` ends the
        phase; its unanswered and unsent ops stay failed.
        """
        start = time.perf_counter() + 0.01
        position = 0
        progress = time.perf_counter()
        while position < len(phase.ops) or self.pending:
            now = time.perf_counter()
            if position < len(phase.ops):
                op = phase.ops[position]
                if phase.rate:
                    op.due = start + position / phase.rate
                    ready = now >= op.due
                else:
                    ready = len(self.pending) < phase.window
                if ready:
                    op.sent = time.perf_counter()
                    if not phase.rate:
                        op.due = op.sent
                    self.pending[op.request_id] = op
                    self.sock.sendall(op.line)
                    position += 1
                    continue
            if self.pending and now - progress > DRAIN_TIMEOUT_S:
                break
            wait = DRAIN_TIMEOUT_S
            if phase.rate and position < len(phase.ops):
                wait = phase.ops[position].due - now
            if self._receive(wait) or not self.pending:
                progress = time.perf_counter()
        self.pending.clear()

    def request(self, request: dict, timeout: float = 30.0) -> dict | None:
        key = str(request["id"])
        self.sock.sendall((json.dumps(request) + "\n").encode("utf-8"))
        deadline = time.perf_counter() + timeout
        while key not in self.replies:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return None
            self._receive(remaining)
        return self.replies.pop(key)

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


def phase_stats(phase: Phase) -> dict:
    """Latency, failures and completion rate of one phase."""
    queries = [
        1000.0 * (op.received - op.due)
        for op in phase.ops
        if op.kind == "query" and op.ok
    ]
    answered = [op for op in phase.ops if op.ok]
    failed = len(phase.ops) - len(answered)
    stats = {
        "attempted": len(phase.ops),
        "failed": failed,
        "queries": queries,
        "lateness_ms": [1000.0 * (op.sent - op.due) for op in phase.ops],
    }
    if answered:
        stats["seconds"] = (max(op.received for op in answered)
                            - min(op.sent for op in phase.ops if op.sent))
        stats["ok_per_s"] = len(answered) / stats["seconds"]
    if queries:
        stats["p50_ms"] = percentile(queries, 50)
        stats["tail_ms"], stats["tail_label"] = tail(queries)
    stats["meets_limit"] = (
        failed == 0 and bool(queries) and stats["tail_ms"] <= LATENCY_LIMIT_MS
    )
    return stats


def blocks_stats(blocks: list[tuple[Phase, Phase]]) -> dict:
    """The measured blocks, pooled: one-in-flight query latency, and the
    piped query latency and answered requests over the piped time."""
    pipes = [piped.stats for _, piped in blocks]
    single = [q for one, _ in blocks for q in one.stats["queries"]]
    queries = [q for stats in pipes for q in stats["queries"]]
    answered = sum(stats["attempted"] - stats["failed"] for stats in pipes)
    busy = sum(stats.get("seconds", 0.0) for stats in pipes)
    tail_ms, tail_label = tail(queries)
    return {
        "single_p50_ms": percentile(single, 50),
        "queries": queries,
        "p50_ms": percentile(queries, 50),
        "tail_ms": tail_ms,
        "tail_label": tail_label,
        "ok_per_s": answered / busy if busy else 0.0,
    }


def check_answers(ops: list[Op], reference) -> list[str]:
    """Replay every admitted op on *reference*; answered queries must match.

    The one connection's FIFO admission makes send order the execution
    order. Refused or missing ops were never applied, so they are skipped.
    """
    problems: list[str] = []
    batch: list[Op] = []

    def flush() -> None:
        if not batch:
            return
        results = reference.query_batch([op.record for op in batch])
        for op, result in zip(batch, results):
            if op.response["result"] != result.to_dict():
                problems.append(
                    f"serve: answer to {op.request_id} "
                    f"({op.record.record_id}) differs from the replay"
                )
        batch.clear()

    for op in ops:
        if not op.ok:
            continue
        if op.kind == "add":
            flush()
            added = reference.add_records([op.record])
            if op.response.get("added") != added:
                problems.append(
                    f"serve: {op.request_id} added "
                    f"{op.response.get('added')} record(s), replay added {added}"
                )
        else:
            if len(batch) >= REPLAY_BATCH or any(
                queued.record.record_id == op.record.record_id
                for queued in batch
            ):
                flush()
            batch.append(op)
    flush()
    return problems


def recall_of(ops: list[Op], truth: dict[str, set[str]]) -> float:
    """True matches among served top-k over all true matches of the probes."""
    found = total = 0
    for op in ops:
        if op.kind != "query" or not op.ok:
            continue
        expected = truth.get(op.record.record_id, set())
        total += len(expected)
        found += len(expected & set(op.response["result"]["candidates"]))
    return found / total if total else 0.0


def queue_waits_ms(ops: list[Op], spans: list) -> list[float]:
    """Client latency minus the server's ``query_batch`` time, per query."""
    by_probe: dict[str, list] = {}
    for span in spans:
        if span[1] == "MatcherSession.query_batch" and span[6]:
            for probe_id in span[6]:
                by_probe.setdefault(probe_id, []).append(span)
    waits = []
    for op in ops:
        if op.kind != "query" or not op.ok:
            continue
        for span in by_probe.get(op.record.record_id, ()):
            if op.sent <= span[3] and span[4] <= op.received:
                waits.append(1000.0 * ((op.received - op.due) - (span[4] - span[3])))
                break
    return waits


def start_server(state: Path, scratch: Path, trace_out: Path | None,
                 scale: float, cpus: set[int] | None = None):
    if trace_out is None:
        command = [sys.executable, "-m", "repro"]
    else:
        command = [sys.executable, str(Path(__file__).with_name("traced_server.py")),
                   str(trace_out)]
    command += ["serve", "--listen", "127.0.0.1:0", "--state", str(state)]
    if scale != 1.0:
        command += ["--scale", str(scale)]
    stderr = open(scratch / "server.stderr", "wb")
    spawned = time.perf_counter()
    process = subprocess.Popen(
        command,
        cwd=ROOT,
        env=workload_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=stderr,
    )
    stderr.close()
    if cpus:
        # The server is still importing: it starts no thread for seconds.
        os.sched_setaffinity(process.pid, cpus)
    ready: dict = {}
    got_ready = threading.Event()

    def watch() -> None:
        for raw in process.stdout:
            if not got_ready.is_set():
                try:
                    event = json.loads(raw)
                except ValueError:
                    continue
                if event.get("event") == "ready":
                    ready["at"] = time.perf_counter()
                    ready["address"] = event["address"]
                    got_ready.set()

    watcher = threading.Thread(target=watch, daemon=True)
    watcher.start()
    return process, spawned, ready, got_ready, watcher


def stop_process(process: subprocess.Popen, timeout: float) -> None:
    try:
        process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait(timeout=10)


def run(seed: int, seconds: float, scratch: Path, trace: bool = False,
        scale: float = 1.0, on_ready=None) -> Outcome:
    from repro.datasets.generator import build_task_from_sources
    from repro.datasets.registry import load_source_pair
    from repro.serve import MatcherSession, SessionConfig

    outcome = Outcome()
    trace_out = scratch / "server-trace.json" if trace else None
    cpus = sorted(os.sched_getaffinity(0))
    server_cpus = None
    if len(cpus) > 1:
        server_cpus = {cpus[-1]}
        os.sched_setaffinity(0, {cpus[0]})
        outcome.notes.append(
            f"serve: server pinned to CPU {cpus[-1]}, client to CPU {cpus[0]}"
        )
    process, spawned, ready, got_ready, watcher = start_server(
        scratch / "serve-state", scratch, trace_out, scale, server_cpus
    )
    try:
        if not got_ready.wait(READY_TIMEOUT_S):
            raise RuntimeError("serve: server never reported ready")
        setup_s = ready["at"] - spawned
        if on_ready is not None:
            on_ready()
        # Drawn only now, so the server's set-up has the CPUs to itself.
        sources = load_source_pair(DATASET, scale)
        schedule = build_schedule(seed, seconds, sources)
        client = LoadGenerator(ready["address"])
        # A collector pause in this process would delay sends and receipts
        # alike and read as server latency.
        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            for phase in schedule.phases():
                client.run_phase(phase)
                phase.stats = phase_stats(phase)
            stats = client.request({"op": "stats", "id": "bench-stats"}) or {}
            peak_rss = peak_rss_mb_of(process.pid)
            client.request({"op": "shutdown", "id": "bench-shutdown"})
        finally:
            gc.enable()
            gc.unfreeze()
            client.close()
        stop_process(process, DRAIN_TIMEOUT_S)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)
        watcher.join(timeout=5)
    if process.returncode != 0:
        raise RuntimeError(f"serve: server exited with {process.returncode}")

    # Built only now, so it never competes with the server for a CPU.
    reference = MatcherSession(
        build_task_from_sources(
            sources, n_pairs=300, positive_fraction=0.25, seed=0
        ),
        SessionConfig(),
    )
    phases = schedule.phases()
    outcome.problems += check_answers(
        [op for phase in phases for op in phase.ops], reference
    )

    low = schedule.low
    measured = blocks_stats(schedule.blocks)
    counted = phases[1:]
    outcome.attempted = sum(phase.stats["attempted"] for phase in counted)
    outcome.failed = sum(phase.stats["failed"] for phase in counted)

    truth: dict[str, set[str]] = {}
    for left_id, right_id in sources.matches:
        truth.setdefault(left_id, set()).add(right_id)
    outcome.metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss,
        "items_per_s": measured["ok_per_s"],
        "latency_p50_ms": measured["p50_ms"],
        "latency_tail_ms": measured["tail_ms"],
        "quality": recall_of([op for phase in counted for op in phase.ops],
                             truth),
    }
    outcome.headline = measured["p50_ms"]

    frontend = stats.get("frontend", {}).get("counts", {})
    outcome.layer.update({
        "serve.unloaded_p50_ms": measured["single_p50_ms"],
        "serve.shed": float(frontend.get("shed", 0)),
        "serve.deadline_exceeded": float(frontend.get("deadline_exceeded", 0)),
        "loadgen.lateness_p99_ms": percentile(low.stats["lateness_ms"], 99),
    })
    if "frontend" not in stats:
        outcome.notes.append("serve: the stats op did not answer")

    for phase in phases:
        s = phase.stats
        latency = (
            f"p50={s['p50_ms']:.2f} ms {s['tail_label']}={s['tail_ms']:.2f} ms "
            f"(n={len(s['queries'])})"
            if s["queries"]
            else "no answered queries"
        )
        load = (f"open {phase.rate:5.1f}/s" if phase.rate
                else f"{phase.window} in flight")
        outcome.notes.append(
            f"serve: phase {phase.name:<8} {load:<13} "
            f"attempted={s['attempted']:4d} failed={s['failed']:3d} "
            f"{s.get('ok_per_s', 0.0):6.1f} ok/s {latency} "
            f"{'meets' if s['meets_limit'] else 'misses'} the "
            f"{LATENCY_LIMIT_MS:g} ms limit"
            + (" (unmeasured)" if phase is schedule.warmup else "")
        )
    outcome.notes.append(
        f"serve: {WINDOW} in flight over {BLOCKS} segments: "
        f"{measured['ok_per_s']:.1f} ok/s, query p50={measured['p50_ms']:.2f} "
        f"ms {measured['tail_label']}={measured['tail_ms']:.2f} ms "
        f"(n={len(measured['queries'])}); one in flight p50="
        f"{measured['single_p50_ms']:.2f} ms; low generator lateness p99="
        f"{outcome.layer['loadgen.lateness_p99_ms']:.2f} ms"
    )
    counts = stats.get("stats", {})
    outcome.notes.append(
        f"serve: server records={counts.get('records')} "
        f"queries={counts.get('queries')}; frontend counts {frontend}"
    )

    if trace_out is not None:
        import layers

        dumped = json.loads(trace_out.read_text())
        counters = dict(dumped["counters"])
        # Rebuilds must stay flat *while serving*: count only those after
        # the listener came up.
        counters["features.incidence_rebuilds"] = counters.get(
            "features.incidence_rebuilds", 0.0
        ) - dumped["ready_counters"].get("features.incidence_rebuilds", 0.0)
        client_side = dict(outcome.layer)
        outcome.layer = layers.reduce(dumped["spans"], counters)
        outcome.layer.update(client_side)
        waits = queue_waits_ms(
            [op for _, piped in schedule.blocks for op in piped.ops],
            dumped["spans"],
        )
        if waits:
            outcome.layer["serve.queue_wait_ms"] = percentile(waits, 50)
    return outcome
