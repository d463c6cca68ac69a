"""Self-test of the benchmark: each workload at a tiny size, the oracle
against deliberately wrong fake results, the seeded generators, the
tracer, and the refusal to run without a lorcurv checkout.

    python3 bench/selftest.py

Run from the root of a checkout; takes about ten seconds.  lorcurv is
never edited: wrong results are fake objects handed to the oracle.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import lorcurv  # noqa: E402
import ops  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from tracer import NAMES, Tracer  # noqa: E402


def tiny(workload: str, seed: int, workdir: Path):
    """One pass of the workload cut to a few items, run and checked."""
    wl = run.Workload(workload, seed, workdir)
    items = wl.make_pass()
    if workload in ("cli", "probes"):   # one item of each kind, the cheapest atlas
        picked = {}
        for item in items:
            if item.kind not in picked and not (
                    item.kind == "atlas" and "GI" not in item.args["argv"]):
                picked[item.kind] = item
        items = list(picked.values())
    elif workload == "edge":   # whole lambda groups
        items = items[:6]
    else:
        items = items[::60]
    run.run_items(wl, items)
    return wl, items


class Workloads(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH)
        self.workdir = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def test_sweep_cells(self):
        cells = inputs.sweep_cells()
        self.assertEqual(len(cells), 335)
        mix = {}
        for c in cells:
            mix[c.oneill.value] = mix.get(c.oneill.value, 0) + 1
        self.assertEqual(mix, {"{11,1}": 185, "{21}": 76, "{1zz}": 74})

    def test_tiny_runs_are_checked(self):
        for workload in ("survey", "orbits", "cli", "probes"):
            with self.subTest(workload=workload):
                _, items = tiny(workload, 7, self.workdir)
                for item in items:
                    expected = "fault" if item.kind == "probe" else "ok"
                    self.assertIn(item.outcome, (expected, "ok"),
                                  (item.kind, item.note))

    def test_tiny_edge(self):
        _, items = tiny("edge", 7, self.workdir)
        self.assertEqual([i.expect["lam_name"] for i in items[:3]],
                         ["lam1", "lam1e-4", "lam1e4"])
        for item in items:
            self.assertIn(item.outcome, ("ok", "rejected", "fault", "wrong"))
        self.assertEqual(items[0].outcome, "ok", items[0].note)   # GI, lambda = 1

    def test_squeezed_images(self):
        """The gated workloads get only well-scaled images, the edge cell
        ``squeezed`` only the others; an image the reducer is known to
        reject is not well-scaled."""
        cells = inputs.sweep_cells()
        rng = np.random.default_rng(4)
        for item in inputs.orbits_pass(cells, rng):
            for key in ("h", "h_image", "h_other"):
                self.assertTrue(inputs.well_scaled(item.args[key]))
        squeezed = [i for i in inputs.edge_pass(cells, rng, 4)
                    if i.kind == "squeezed"]
        self.assertEqual(len(squeezed), 12)
        for item in squeezed:
            U = inputs.adapted_basis_vectors(item.cell.tag)
            self.assertFalse(inputs.well_scaled(U.T @ item.args["h"] @ U
                                                / item.expect["lam"]))
        g1 = next(c for c in cells if c.form_id == "G1.2" and c.params["mu"] == 0.5)
        A = np.array([[0.116, 0.446, -0.168], [0.0, 0.116, 1.301], [0, 0, 1]])
        self.assertFalse(inputs.well_scaled(A.T @ g1.canonical @ A))

    def test_seeds(self):
        """The same seed gives the same inputs; a held-out seed runs the same
        code on other inputs with the same cell mix."""
        cells = inputs.sweep_cells()
        a1 = inputs.orbits_pass(cells, np.random.default_rng(1))
        a2 = inputs.orbits_pass(cells, np.random.default_rng(1))
        b = inputs.orbits_pass(cells, np.random.default_rng(987654321))
        self.assertTrue(all(np.array_equal(x.args["h"], y.args["h"])
                            for x, y in zip(a1, a2)))
        self.assertFalse(any(np.allclose(x.args["h"], y.args["h"])
                             for x, y in zip(a1, b)))
        self.assertEqual([x.cell.index for x in a1], [y.cell.index for y in b])
        wl = run.Workload("orbits", 987654321, BENCH)
        run.run_items(wl, b[::25])
        self.assertNotIn("wrong", [item.outcome for item in b[::25]])

    def test_samplers_give_automorphisms(self):
        rng = np.random.default_rng(3)
        for tag in inputs.TAGS:
            basis = lorcurv.classification_basis(tag)
            alg = lorcurv.make_family_algebra(tag, basis)
            for _ in range(20):
                A = inputs.rand_automorphism(tag, rng)
                oracle.check_automorphism(tag, basis.value != "natural", A)
                self.assertTrue(lorcurv.is_automorphism(alg, A))
            with self.assertRaises(oracle.Mismatch):
                oracle.check_automorphism(tag, basis.value != "natural",
                                          np.diag([1.0, 2.0, 3.0]))


class OracleFlagsWrongResults(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cells = inputs.sweep_cells()
        rng = np.random.default_rng(11)
        cls.survey = inputs.survey_pass(cells, rng)[100]
        cls.orbit = inputs.orbits_pass(cells, rng)[200]

    def test_survey(self):
        item = self.survey
        report, cls, cf = ops.survey(item.args)
        self.assertEqual(oracle.survey_outcome(item, (report, cls, cf))[0], "ok")
        fake_report = replace(report, scalar=report.scalar + 1e-3)
        self.assertEqual(oracle.survey_outcome(item, (fake_report, cls, cf))[0],
                         "wrong")
        fake_cf = replace(cf, params={k: v * 1.01 for k, v in cf.params.items()}
                          or {"mu": 1.0})
        self.assertEqual(oracle.survey_outcome(item, (report, cls, fake_cf))[0],
                         "wrong")
        fake_cf = replace(cf, witness=cf.witness * 1.001)
        self.assertEqual(oracle.survey_outcome(item, (report, cls, fake_cf))[0],
                         "wrong")

    def test_orbits(self):
        item = self.orbit
        cf, same, other = ops.orbits(item.args)
        self.assertEqual(oracle.orbits_outcome(item, (cf, same, other))[0], "ok")
        bad_same = (True, same[1] + 1e-3)
        self.assertEqual(oracle.orbits_outcome(item, (cf, bad_same, other))[0],
                         "wrong")
        self.assertEqual(oracle.orbits_outcome(item, (cf, same, (True, np.eye(3))))[0],
                         "wrong")
        self.assertEqual(oracle.orbits_outcome(item, (cf, (False, None), other))[0],
                         "wrong")

    def test_exceptions(self):
        self.assertEqual(oracle.exception_outcome(
            lorcurv.DegenerateMetricError("x")), "rejected")
        self.assertEqual(oracle.exception_outcome(ArithmeticError("x")), "fault")
        self.assertEqual(oracle.exception_outcome(np.linalg.LinAlgError("x")), "fault")

    def test_edge_scaling(self):
        """An item at lambda != 1 that disagrees with its lambda = 1 item."""
        items = inputs.edge_pass(inputs.sweep_cells(), np.random.default_rng(5), 1)[:3]
        for item in items:
            item.result = ops.edge(item.args)
            item.outcome, item.note = oracle.edge_outcome(
                item, item.result, lorcurv.closed_form_report)
        self.assertEqual([i.outcome for i in items], ["ok"] * 3)
        item = items[2]
        rep = item.result["curvature"]
        fake = dict(item.result, curvature=replace(rep, scalar=rep.scalar * 2))
        self.assertEqual(oracle.edge_outcome(item, fake,
                                             lorcurv.closed_form_report)[0], "wrong")

    def test_cli(self):
        cells = inputs.sweep_cells()
        items = inputs.cli_pass(cells, np.random.default_rng(2))
        classify = next(i for i in items if i.kind == "classify")
        probe = inputs.probes_pass()[0]
        atlas = next(i for i in items if i.kind == "atlas")

        def proc(code, out="", err=""):
            return SimpleNamespace(returncode=code, stdout=out, stderr=err)
        bad = {"form_id": "GI.9", "params": {}, "witness": np.eye(3).tolist()}
        self.assertEqual(oracle.cli_outcome(classify, proc(0, json.dumps(bad)))[0],
                         "wrong")
        self.assertEqual(oracle.cli_outcome(classify, proc(0, "not json"))[0], "wrong")
        self.assertEqual(oracle.cli_outcome(classify, proc(2))[0], "fault")
        self.assertEqual(oracle.cli_outcome(classify, proc(1, err="rejected: x"))[0],
                         "rejected")
        self.assertEqual(oracle.cli_outcome(probe, proc(0, "{}"))[0], "fault")
        self.assertEqual(oracle.cli_outcome(
            probe, proc(1, err="Traceback (most recent call last):\nValueError"))[0],
            "fault")
        self.assertEqual(oracle.cli_outcome(probe, proc(2, err="error: x"))[0], "ok")
        header = "family,c,form_id,params,rho,kappa12,kappa23,kappa31," \
                 "oneill_type,max_residual,flags\n"
        self.assertEqual(oracle.cli_outcome(atlas, proc(0, header))[0], "wrong")


class TracerAndRefusal(unittest.TestCase):
    def test_tracer_counts_and_restores(self):
        import lorcurv.canonical
        original = lorcurv.canonical.riemann
        item = inputs.survey_pass(inputs.sweep_cells(), np.random.default_rng(1))[0]
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(lorcurv.canonical.riemann, original)
            t0 = time.perf_counter_ns()
            ops.survey(item.args)
            total = time.perf_counter_ns() - t0
        finally:
            tracer.uninstall()
        self.assertIs(lorcurv.canonical.riemann, original)
        self.assertGreater(tracer.calls["curvature.riemann"], 27)
        self.assertEqual(tracer.calls["canonical.constant_curvature_class"], 1)
        self.assertEqual(set(tracer.self_ns), set(NAMES))
        self.assertLessEqual(sum(tracer.self_ns.values()), total)

    def test_refuses_without_checkout(self):
        """Only BENCHMARK.json and the benchmark's files: exit != 0, no result."""
        with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as tmp:
            root = Path(tmp)
            shutil.copytree(BENCH, root / BENCH.name,
                            ignore=shutil.ignore_patterns(".work-*", "__pycache__"))
            bench_json = BENCH.parent / "BENCHMARK.json"
            if bench_json.exists():
                shutil.copy(bench_json, root)
            proc = subprocess.run(
                [sys.executable, f"{BENCH.name}/run.py", "--workload", "survey",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=root, capture_output=True, text=True, timeout=60,
                env={"PATH": "/usr/bin:/bin"})
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
