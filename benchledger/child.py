"""One workload in one fresh process; ``run.py`` starts it and reads its file.

Usage: ``child.py WORKLOAD SEED SECONDS TRACE SIZE SCRATCH OUT [--setup-only]``.
With ``--setup-only`` the workload stops the moment its first timed
operation is ready, so ``run.py`` can sample set-up time more than once.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
from common import Outcome  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Reduced sizes for the benchmark's own tests (``--size tiny``).
TINY = {"audit": {"scale": 0.3}, "scale": {"records": 4000},
        "serve": {"scale": 0.3}}


class SetupDone(Exception):
    """Raised at the ready point of a set-up-only run."""


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, size, scratch, out = argv[:7]
    setup_only = "--setup-only" in argv[7:]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    scratch = Path(scratch)
    scratch.mkdir(parents=True, exist_ok=True)
    options = dict(TINY[workload]) if size == "tiny" else {}
    ready: dict[str, float] = {}

    def on_ready() -> None:
        ready["at"] = time.perf_counter()
        if setup_only:
            raise SetupDone

    tracer = None
    if trace and workload != "serve":
        tracer = Tracer()
        layers.install(tracer)

    if workload == "audit":
        import wl_audit as module
    elif workload == "scale":
        import wl_scale as module
    else:
        import wl_serve as module
        options["trace"] = trace

    try:
        outcome = module.run(seed, seconds, scratch, on_ready=on_ready, **options)
    except SetupDone:
        Path(out).write_text(Outcome(ready_at=ready["at"]).to_json())
        return 0
    if tracer is not None:
        client_side = dict(outcome.layer)
        outcome.layer = layers.reduce(tracer.spans, outcome.counters)
        outcome.layer.update(client_side)
    outcome.counters = {}
    outcome.ready_at = ready["at"]
    Path(out).write_text(outcome.to_json())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
