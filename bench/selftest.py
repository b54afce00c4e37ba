"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

Checks self time on a synthetic span tree, the speed probe and its
rescaling, that tracing patches every binding of each wrapped function, that BENCHMARK.json names exactly the
metrics run.py prints, and that traced counts and verdicts repeat
exactly across two runs with one seed and across two seeds.  The last
test runs every workload three times and takes about a minute.
"""

from __future__ import annotations

import json
import sys
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402


def span(name, start, end, parent=-1, error=None, key=None, overhead=0.0):
    return [name, start, end, parent, 0, error, key, overhead]


class SelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        tree = [
            span("bench.op", 0.0, 10.0),                       # 0
            span("fusion.fuse_direct", 1.0, 4.0, 0, key="a"),  # 1
            span("core.validate_scheme", 1.5, 2.5, 1),         # 2
            span("fusion.bm_check", 3.0, 3.5, 1),              # 3
            span("fusion.fuse_direct", 5.0, 9.0, 0, error="NotAFusion",
                 key="a", overhead=0.5),                       # 4
            span("core.validate_scheme", 6.0, 8.0, 4),         # 5
            span("core.validate_scheme", 9.5, 9.75, 0),        # 6
        ]
        self.assertEqual(spans.self_times(tree),
                         [10 - 3 - 4 - 0.25, 3 - 1 - 0.5, 1, 0.5, 4 - 2 - 0.5, 2, 0.25])
        m = spans.layer_metrics(tree)
        self.assertEqual(m["fusion.fuse_direct.calls"], 2)
        self.assertEqual(m["fusion.fuse_direct.distinct_frac"], 0.5)
        self.assertEqual(m["fusion.fuse_direct.accept_frac"], 0.5)
        self.assertEqual(m["fusion.fuse_direct.self_s"], 1.5 + 1.5)
        self.assertEqual(m["core.validate_scheme.under_fuse.calls"], 2)
        self.assertEqual(m["core.validate_scheme.under_fuse.self_s"], 3.0)
        self.assertEqual(m["core.validate_scheme.outside_fuse.calls"], 1)
        self.assertEqual(m["core.validate_scheme.outside_fuse.self_s"], 0.25)

    def test_probe_time_counts_in_no_span(self):
        tracer = spans.Tracer()
        tracer.add_overhead(1.0)  # no open span: nothing to charge
        with tracer.request("op"):
            tracer.add_overhead(0.25)
        (op,) = tracer.spans
        self.assertEqual(op[spans.OVERHEAD], 0.25)
        self.assertAlmostEqual(spans.self_times(tracer.spans)[0],
                               op[spans.END] - op[spans.START] - 0.25)

    def test_counts_must_repeat(self):
        a = {"fusion.fuse_direct.calls": 3, "fusion.fuse_direct.self_s": 1.0}
        b = {"fusion.fuse_direct.calls": 3, "fusion.fuse_direct.self_s": 3.0}
        self.assertEqual(spans.combine([a, b])["fusion.fuse_direct.self_s"], 2.0)
        with self.assertRaises(ValueError):
            spans.combine([a, dict(b, **{"fusion.fuse_direct.calls": 4})])


class SpeedProbe(unittest.TestCase):
    def test_rescaling(self):
        self.assertAlmostEqual(speed.at_reference(3.0, speed.REFERENCE_S), 3.0)
        # the probe ran twice as slow as the reference: so did the pass
        self.assertAlmostEqual(speed.at_reference(3.0, 2 * speed.REFERENCE_S), 1.5)

    def test_samples_during_the_body(self):
        import signal
        before = signal.getsignal(signal.SIGALRM)
        with speed.SpeedProbe(period=0.01) as probe:
            start = time.perf_counter()
            while time.perf_counter() - start < 0.3:
                sum(range(1000))
            body = time.perf_counter() - start
        # one sample on entry, one on exit, and the timer's in between
        self.assertGreater(len(probe.samples), 10)
        self.assertGreater(probe.busy_s, 0.0)
        self.assertLess(probe.busy_s, body)
        self.assertGreater(probe.mean_s, 0.0)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class Bindings(unittest.TestCase):
    def test_every_binding_patched(self):
        import amorphic
        import worker
        tracer = spans.Tracer()
        originals = tracer.install(worker.MODULES)
        try:
            namespaces = list(worker.MODULES) + [vars(worker)]
            self.assertEqual(spans.missed_bindings(namespaces, originals), [])
            bound = {
                "fusion.fuse_direct": ("fusion", "hypergraph", "cli"),
                "core.validate_scheme": ("core", "fusion", "generators", "cli"),
                "core.spectral_decomposition": ("core", "fusion", "classify", "cli"),
            }
            for name, modules in bound.items():
                fname = name.split(".")[1]
                for short in modules + ("",):
                    module = getattr(amorphic, short) if short else amorphic
                    self.assertIsNot(vars(module)[fname], originals[name], f"{short}.{fname}")
            # a binding restored by hand is reported
            amorphic.hypergraph.fuse_direct = originals["fusion.fuse_direct"]
            self.assertEqual(spans.missed_bindings(namespaces, originals),
                             ["amorphic.hypergraph.fuse_direct"])
        finally:
            tracer.uninstall()
        self.assertIs(amorphic.fusion.fuse_direct, originals["fusion.fuse_direct"])
        self.assertIs(amorphic.hypergraph.fuse_direct, originals["fusion.fuse_direct"])


class Manifest(unittest.TestCase):
    def test_metric_names(self):
        manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in manifest["per_layer"]],
                         [name for name, _, _ in spans.PER_LAYER])
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]],
                         list(spans.PER_LAYER))
        self.assertEqual([w["name"] for w in manifest["workloads"]], list(run.WORKLOADS))
        reps = [{"attempted": 6, "failed": 2, "wall_s": 1.0, "setup_s": 0.5,
                 "maxrss_kb": 2048}]
        metrics, _ = run.end_to_end(reps)
        self.assertEqual({m["name"]: m["unit"] for m in manifest["end_to_end"]},
                         {name: unit for name, (_, unit) in metrics.items()})


class Repeatability(unittest.TestCase):
    def test_counts_and_verdicts(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                reps = [run.run_worker(workload, seed, True, timeout=120.0)
                        for seed in (1, 1, 2)]
                counts = []
                for r in reps:
                    m = spans.layer_metrics(r["spans"])
                    counts.append({name: m[name] for name in spans.COUNTS if name in m})
                self.assertEqual(counts[0], counts[1], "same seed")
                self.assertEqual(counts[0], counts[2], "different seed")
                run.consistent(reps)


if __name__ == "__main__":
    unittest.main()
