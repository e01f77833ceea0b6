"""Self-checks of the benchmark.

    python3 perfbench/selftest.py        # from the root of a checkout, about a minute

Runs every workload once untraced and once traced, then checks that tracing
leaves the CLI's output byte-identical, that each workload keeps its target
layer busiest, and that the correctness gate refuses tampered output.
"""
import os
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

# the layer metrics whose sum must be the largest self time on each workload
TARGET_LAYERS = {
    "verify-all": ("polyring.mul_s",),
    "poly-congruence": ("polyring.sort_s", "padic.vp_s"),
    "coeff-sweep": ("cycle_index.enum_s", "cycle_index.coeff_s"),
}
# per-layer self times; the others are counts, latencies or whole-run figures
SELF_TIMES = ("congruences.self_s", "cycle_index.indicator_s", "cycle_index.enum_s",
              "cycle_index.coeff_s", "polyring.mul_s", "polyring.addsub_s",
              "polyring.sort_s", "polyring.unipoly_mul_s", "polyring.substitute_s",
              "meixner.q_s", "meixner.qstar_s", "series.s", "padic.vp_s",
              "padic.scalar_s", "reports.serialize_s")


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        deadline = time.monotonic() + 600
        cls.runs = {}
        for name, workload in run.WORKLOADS.items():
            argv = workload.cli_argv(run.PINNED_SEED)
            cls.runs[name] = (run.run_child("plain", argv, deadline),
                              run.run_child("traced", argv, deadline))

    def test_tracing_keeps_output_identical(self):
        for name, (plain, traced) in self.runs.items():
            with self.subTest(workload=name):
                workload = run.WORKLOADS[name]
                self.assertIsNone(run.gate(workload, run.PINNED_SEED,
                                           plain.returncode, plain.stdout))
                self.assertEqual(traced.returncode, 0)
                self.assertEqual(traced.stdout, plain.stdout)

    def test_target_layer_is_busiest(self):
        for name, (_, traced) in self.runs.items():
            with self.subTest(workload=name):
                layers = traced.stats["layers"]
                target = TARGET_LAYERS[name]
                others = [layers[m] for m in SELF_TIMES if m not in target]
                self.assertGreater(sum(layers[m] for m in target), max(others))

    def test_traced_run_reports_every_layer_metric(self):
        named = set(run.load_units(trace=True))
        measured_by_parent = {"cli.cpu_util", "trace.overhead_s", "tasks_failed_frac"}
        for name, (_, traced) in self.runs.items():
            with self.subTest(workload=name):
                self.assertEqual(set(traced.stats["layers"]), named - measured_by_parent)

    def test_gate_refuses_tampered_output(self):
        workload = run.WORKLOADS["coeff-sweep"]
        good = self.runs["coeff-sweep"][0].stdout
        lines = good.splitlines(keepends=True)
        swapped = b"".join([lines[1], lines[0]] + lines[2:])
        violated = good.replace(b'"violations":[]', b'"violations":[{}]', 1)
        seed = run.PINNED_SEED
        self.assertIsNone(run.gate(workload, seed, 0, good))
        self.assertIn("digest", run.gate(workload, seed, 0, swapped))
        self.assertIn("exit code", run.gate(workload, seed, 1, good))
        self.assertIn("violations", run.gate(workload, seed, 0, violated))
        self.assertIn("reports", run.gate(workload, seed, 0, b"".join(lines[1:])))

    def test_digest_pinned_only_at_the_pinned_seed(self):
        workload = run.WORKLOADS["verify-all"]
        good = self.runs["verify-all"][0].stdout
        lines = good.splitlines(keepends=True)
        swapped = b"".join([lines[1], lines[0]] + lines[2:])
        self.assertIsNotNone(run.gate(workload, run.PINNED_SEED, 0, swapped))
        # other seeds are checked by counts and violations only
        self.assertIsNone(run.gate(workload, run.PINNED_SEED + 1, 0, swapped))


if __name__ == "__main__":
    unittest.main()
