"""Fresh-interpreter helper for run.py.

    python3 child.py setup <workload>     < payload.json
        Times ``import numpy``, ``import lorcurv`` and the workload's first
        op in this fresh interpreter; prints one JSON line.
    python3 child.py cli <trace.json> <lorcurv.cli arguments...>
        Runs the CLI like ``python -m lorcurv.cli`` with the layer tracer
        installed, then writes the trace to <trace.json>.

lorcurv must be importable (run.py puts the checkout's src/ on PYTHONPATH).
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def setup(workload: str) -> None:
    payload = json.load(sys.stdin)
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    t1 = time.perf_counter()
    if workload in ("cli", "probes"):
        import lorcurv.cli
        t2 = time.perf_counter()
        # a probe's first op may fail; set-up time counts it all the same
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()), \
                contextlib.suppress(Exception, SystemExit):
            lorcurv.cli.main(payload["argv"])
    else:
        import lorcurv  # noqa: F401
        t2 = time.perf_counter()
        import ops
        ops.OPS[workload](payload)
    t3 = time.perf_counter()
    print(json.dumps({"import_numpy_ms": 1e3 * (t1 - t0),
                      "import_lorcurv_ms": 1e3 * (t2 - t1),
                      "setup_s": t3 - t0}))


def traced_cli(out_path: str, argv: list[str]) -> None:
    import lorcurv.cli
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        code = lorcurv.cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"self_ns": tracer.self_ns, "calls": tracer.calls}, fh)
    sys.exit(code)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2])
    else:
        traced_cli(sys.argv[2], sys.argv[3:])
