"""Run ``python -m repro`` with the benchmark's layer spans installed.

Usage: ``traced_server.py OUT.json serve --listen ... --state ...``. The
spans stay in memory while the server runs and are written to ``OUT.json``
once it has drained, together with the obs-registry counters at the end
and at the moment the listener came up.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    tracer = Tracer()
    layers.install(tracer)

    from repro import obs
    from repro.experiments import cli
    from repro.obs import Observability
    from repro.serve.frontend import SocketFrontend

    registry = Observability()
    ready_counters: dict[str, float] = {}
    original_start = SocketFrontend.start

    def start(self) -> None:
        original_start(self)
        ready_counters.update(registry.snapshot()["counters"])

    SocketFrontend.start = start
    with obs.use(registry):
        code = cli.main(argv[1:])
    out.write_text(
        json.dumps(
            {
                "spans": tracer.spans,
                "counters": registry.snapshot()["counters"],
                "ready_counters": ready_counters,
            },
            default=str,
        )
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
