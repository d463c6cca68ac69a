"""The lorcurv benchmark.

    python3 bench/run.py --workload {survey,orbits,cli,edge,probes} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; lorcurv is imported from its ``src/``.
One caller, one process, closed loop: each op starts when the previous
one ends, and the ``cli`` workload runs one CLI process at a time.  Inputs
come from ``--seed`` alone (``inputs.py``); every answer is checked
against the closed-form atlas oracle (``oracle.py``).

Ops run in whole passes over the workload's input mix until ``--seconds``
have passed (and, untraced, until at least MIN_SAMPLES ops have returned
checked answers, so that the 90th percentile has ten samples above it).
Checking answers and making the next pass count towards the seconds but
not towards op times.

The last line of standard output is one JSON object with ``correct``
(no answer the oracle rejects), ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``; with ``--trace 1``
the per-layer metrics of a traced run, with each pass also run untraced
to give the tracing overhead.  The line before it holds the provenance:
commit, interpreter, numpy, BLAS threads, seed and the sample counts
behind each percentile.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("survey", "orbits", "cli", "edge", "probes")
#: workloads whose op is one CLI process
CLI_WORKLOADS = ("cli", "probes")
#: run by hand to count failures, so they report outcome shares, not times
FAILURE_WORKLOADS = ("edge", "probes")
MIN_SAMPLES = 100          # checked answers per untraced run
SETUP_RUNS = 9             # fresh interpreters behind the setup_s median
WARMUP_OPS = 10
EDGE_PER_CELL = 10         # random metrics per c cell in one edge pass
CLI_SUBCOMMANDS = ("classify", "curvature", "constcurv", "equiv", "atlas")
ONEILL_NAMES = {"{11,1}": "diagonal", "{1zz}": "complex", "{21}": "double",
                "{3}": "triple"}
FAMILY_KEYS = ("GI", "Gc_gt1", "G1", "Gc_lt1")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# --------------------------------------------------------------------------
# workloads: a pass of items, the call that runs one item, its outcome

class Workload:
    def __init__(self, name: str, seed: int, workdir: Path):
        import numpy as np
        import inputs
        import lorcurv
        import oracle
        import ops

        self.name, self.workdir = name, workdir
        self.rng = np.random.default_rng(seed)
        self.cells = inputs.sweep_cells()
        self.env = child_env()
        self.passes = 0
        self._inputs, self._oracle, self._ops = inputs, oracle, ops
        self._closed_form = lorcurv.closed_form_report
        self.traced_cli = False
        self.trace_path = workdir / "trace.json"

    def make_pass(self):
        inputs = self._inputs
        if self.name == "survey":
            items = inputs.survey_pass(self.cells, self.rng)
        elif self.name == "orbits":
            items = inputs.orbits_pass(self.cells, self.rng)
        elif self.name == "edge":
            items = inputs.edge_pass(self.cells, self.rng, EDGE_PER_CELL)
        else:
            items = (inputs.cli_pass(self.cells, self.rng) if self.name == "cli"
                     else inputs.probes_pass())
            for i, item in enumerate(items):
                paths = []
                for j, doc in enumerate(item.args["docs"]):
                    path = self.workdir / f"p{self.passes}-{i}-{j}.json"
                    path.write_text(doc, encoding="utf-8")
                    paths.append(str(path))
                item.args["cli_argv"] = [a.format(*paths) for a in item.args["argv"]]
        self.passes += 1
        return items

    def call(self, item):
        if self.name not in CLI_WORKLOADS:
            return self._ops.OPS[self.name](item.args)
        if self.traced_cli:
            self.trace_path.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH / "child.py"), "cli",
                    str(self.trace_path), *item.args["cli_argv"]]
        else:
            argv = [sys.executable, "-m", "lorcurv.cli", *item.args["cli_argv"]]
        return self._ops.cli(argv, self.env)

    def outcome(self, item):
        o = self._oracle
        if self.name == "survey":
            return o.survey_outcome(item, item.result)
        if self.name == "orbits":
            return o.orbits_outcome(item, item.result)
        if self.name == "edge":
            return o.edge_outcome(item, item.result, self._closed_form)
        return o.cli_outcome(item, item.result)

    def setup_payload(self, item) -> dict:
        if self.name in CLI_WORKLOADS:
            return {"argv": item.args["cli_argv"]}
        return item.args


def run_items(wl: Workload, items, tracer=None) -> float:
    """Run each item once, closed loop; returns the summed op time."""
    total = 0.0
    for item in items:
        t0 = time.perf_counter()
        try:
            result = wl.call(item)
        except Exception as exc:  # noqa: BLE001 - classified by the oracle
            result = exc
        dt = time.perf_counter() - t0
        item.result, item.seconds = result, dt
        total += dt
        if (tracer is not None and wl.name in CLI_WORKLOADS
                and wl.trace_path.exists()):
            trace = json.loads(wl.trace_path.read_text(encoding="utf-8"))
            tracer.merge(trace["self_ns"], trace["calls"])
    for item in items:
        item.outcome, item.note = wl.outcome(item)
    return total


def run_traced(wl: Workload, items, tracer) -> float:
    tracer.install()
    wl.traced_cli = True
    try:
        return run_items(wl, items, tracer)
    finally:
        tracer.uninstall()
        wl.traced_cli = False


# --------------------------------------------------------------------------
# set-up time: fresh interpreters, each importing lorcurv and running the
# workload's first op

def setup_once(wl: Workload, payload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "setup", wl.name],
        input=payload, capture_output=True, text=True, env=wl.env,
        timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"setup child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------------

class Tally:
    """Outcomes and latencies of the ops of one run."""

    def __init__(self):
        self.ops = 0
        self.time = 0.0
        self.ok_latencies = array("d")          # compact: memory is a metric
        self.outcomes = {"ok": 0, "rejected": 0, "fault": 0, "wrong": 0}
        self.by_kind: dict[str, array] = {}
        self.edge: dict[tuple[str, str], dict[str, int]] = {}
        self.oneill: dict[str, int] = {}
        self.family: dict[str, int] = {}
        self.notes: dict[str, int] = {}

    def add(self, items, total: float) -> None:
        self.time += total
        for item in items:
            self.ops += 1
            self.outcomes[item.outcome] += 1
            if item.outcome == "ok":
                self.ok_latencies.append(item.seconds)
                if item.kind:
                    self.by_kind.setdefault(item.kind, array("d")).append(item.seconds)
            else:
                key = f"{item.kind or 'op'} {item.outcome}: {item.note[:160]}"
                self.notes[key] = self.notes.get(key, 0) + 1
            if "lam_name" in (item.expect or {}):
                cell = self.edge.setdefault(
                    (item.kind, item.expect["lam_name"]),
                    {"ops": 0, "fail": 0, "fault": 0})
                cell["ops"] += 1
                cell["fail"] += item.outcome != "ok"
                cell["fault"] += item.outcome == "fault"
            self._count_mix(item)

    def _count_mix(self, item) -> None:
        tag, otype = None, None
        if item.cell is not None:
            tag, otype = item.cell.tag, item.cell.oneill.value
        elif item.kind == "atlas":
            tag = item.expect["cells"][0].tag
        elif "tag" in item.args:
            from lorcurv import FamilyTag
            tag = FamilyTag(*item.args["tag"])
            if item.outcome == "ok":
                otype = item.result["curvature"].oneill.type_tag.value
        if tag is not None:
            key = tag.family_key()
            self.family[key] = self.family.get(key, 0) + 1
        if otype is not None:
            self.oneill[otype] = self.oneill.get(otype, 0) + 1


def percentile(xs, q: int) -> float:
    """q-th percentile, from statistics.quantiles with n = 100."""
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def measure(wl: Workload, seconds: float, traced: bool):
    """Passes until ``seconds`` have passed.  The SETUP_RUNS fresh
    interpreters are spread over the run, between passes, so that set-up
    time samples the same stretch of time as the ops."""
    from tracer import Tracer
    first = wl.make_pass()
    run_items(wl, first[:WARMUP_OPS])
    payload = json.dumps(wl.setup_payload(first[0]), default=lambda a: a.tolist())
    setups = []
    plain, traced_tally = Tally(), Tally()
    tracer = Tracer() if traced else None
    items = first
    start = time.perf_counter()
    while True:
        # a traced run runs each pass untraced and traced, in alternating
        # order so that neither side always runs second
        if traced and wl.passes % 2:
            traced_tally.add(items, run_traced(wl, items, tracer))
        plain.add(items, run_items(wl, items))
        if traced and not wl.passes % 2:
            traced_tally.add(items, run_traced(wl, items, tracer))
        spent = time.perf_counter() - start
        while len(setups) < min(SETUP_RUNS, math.ceil(SETUP_RUNS * spent / seconds)):
            setups.append(setup_once(wl, payload))
        if spent >= seconds and (traced or wl.name in FAILURE_WORKLOADS
                                 or len(plain.ok_latencies) >= MIN_SAMPLES):
            break
        items = wl.make_pass()
    setup = {k: statistics.median(r[k] for r in setups) for k in setups[0]}
    return setup, plain, traced_tally, tracer


def outcome_shares(t: Tally) -> dict:
    return {"fail_frac": ((t.ops - t.outcomes["ok"]) / t.ops, "fraction"),
            "fault_frac": (t.outcomes["fault"] / t.ops, "fraction"),
            "wrong_frac": (t.outcomes["wrong"] / t.ops, "fraction")}


def end_to_end(setup, t: Tally, workload: str) -> dict:
    lat = t.ok_latencies
    if workload in FAILURE_WORKLOADS:
        return {"setup_s": (setup["setup_s"], "s"),
                "ok_frac": (len(lat) / t.ops, "fraction"), **outcome_shares(t)}
    who = (resource.RUSAGE_CHILDREN if workload in CLI_WORKLOADS
           else resource.RUSAGE_SELF)
    return {
        "setup_s": (setup["setup_s"], "s"),
        "op_p90_ms": (1e3 * percentile(lat, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (len(lat) / t.ops, "fraction"),
    }


def per_layer(setup, plain: Tally, t: Tally, tracer, wl: Workload) -> dict:
    from tracer import NAMES
    m = {}
    for name in NAMES:
        m[f"{name}.self_us_per_op"] = (tracer.self_ns[name] / 1e3 / t.ops, "us")
        m[f"{name}.calls_per_op"] = (tracer.calls[name] / t.ops, "count")
    m["cli.import_numpy_ms"] = (setup["import_numpy_ms"], "ms")
    m["cli.import_lorcurv_ms"] = (setup["import_lorcurv_ms"], "ms")
    for sub in CLI_SUBCOMMANDS + (("probe",) if wl.name == "probes" else ()):
        lat = plain.by_kind.get(sub) if wl.name in CLI_WORKLOADS else None
        m[f"cli.{sub}.p50_ms"] = (1e3 * statistics.median(lat) if lat else 0.0, "ms")
    if wl.name == "edge":      # the robustness table, one row per cell
        for (cell, lam), c in t.edge.items():
            m[f"edge.{cell}.{lam}.fail_frac"] = (c["fail"] / c["ops"], "fraction")
            m[f"edge.{cell}.{lam}.fault_frac"] = (c["fault"] / c["ops"], "fraction")
    m.update(outcome_shares(t))
    m["trace.op_us"] = (1e6 * t.time / t.ops, "us")
    m["trace.overhead_frac"] = (t.time / plain.time - 1.0, "fraction")
    return m


def input_mix(t: Tally) -> dict:
    """Share of each Ricci operator type and family key among the ops."""
    n_types = max(sum(t.oneill.values()), 1)
    n_fam = max(sum(t.family.values()), 1)
    mix = {f"input.oneill.{name}.share": t.oneill.get(value, 0) / n_types
           for value, name in ONEILL_NAMES.items()}
    mix.update({f"input.family.{key}.share": t.family.get(key, 0) / n_fam
                for key in FAMILY_KEYS})
    return mix


def provenance(args, setup, t: Tally) -> dict:
    import numpy as np
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "lorcurv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "nproc": os.cpu_count(), "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in blas_vars},
        "samples": {"setup_s": SETUP_RUNS, "op_p90_ms": len(t.ok_latencies),
                    "op_p50_ms": len(t.ok_latencies), "ops": t.ops},
        # measured, but too unsteady on a shared host to gate (README.md)
        "ops_per_s": len(t.ok_latencies) / t.time,
        "op_p50_ms": (1e3 * statistics.median(t.ok_latencies)
                      if t.ok_latencies else None),
        "outcomes": t.outcomes,
        "input_mix": input_mix(t),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lorcurv" / "__init__.py").is_file():
        sys.stderr.write(f"error: no lorcurv package under {SRC}; run from "
                         "the root of a lorcurv checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as tmp:
        wl = Workload(args.workload, args.seed, Path(tmp))
        setup, plain, traced, tracer = measure(wl, args.seconds, bool(args.trace))
    t = traced if args.trace else plain
    if args.trace:
        metrics = per_layer(setup, plain, traced, tracer, wl)
    else:
        metrics = end_to_end(setup, plain, args.workload)
    for note, count in sorted(t.notes.items(), key=lambda kv: -kv[1])[:20]:
        sys.stderr.write(f"{count:6d}  {note}\n")
    print(json.dumps({"provenance": provenance(args, setup, t)}))
    print(json.dumps({
        "correct": t.outcomes["wrong"] == 0,
        "attempted": t.ops,
        "failed": t.ops - t.outcomes["ok"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
