"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that seeded inputs repeat, that two traced runs count exactly the
same work, and that every output check reports a wrong answer.  Takes
about half a minute, most of it in two traced ``products`` jobs.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference  # noqa: E402
import run  # noqa: E402
from metrics import CLI_RUNS, PER_LAYER  # noqa: E402
from schuralg import SchurElement, multiply, multiply_via_oracle  # noqa: E402
from workloads import (  # noqa: E402
    CHECK_NAMES,
    Centre,
    CliOutput,
    Op,
    Products,
    Verify,
    WORKLOADS,
    check_dim,
    check_idempotents,
    check_product,
    check_suite,
    cli_span_name,
    partitions_with_at_most,
)


class MetricNames(unittest.TestCase):
    def test_every_cli_invocation_has_a_metric(self):
        argvs = Verify.suites + Centre.commands
        self.assertEqual(sorted(cli_span_name(a) for a in argvs), sorted(CLI_RUNS))

    def test_runner_knows_every_workload(self):
        self.assertEqual(set(run.WORKLOAD_NAMES), set(WORKLOADS))


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(Products(7).inputs_digest(), Products(7).inputs_digest())

    def test_other_seed_other_inputs(self):
        self.assertNotEqual(Products(7).inputs_digest(), Products(8).inputs_digest())

    def test_half_the_pairs_are_fully_compatible(self):
        share = Products(7).properties()["compatible_share"]
        self.assertGreater(share, 0.5)
        self.assertLess(share, 0.6)


class TracedCounts(unittest.TestCase):
    def test_two_traced_runs_count_the_same_work(self):
        first, second = (run.spawn("products", 3, 0, 120, trace=True) for _ in range(2))
        for result in (first, second):
            self.assertNotIn("error", result)
            self.assertEqual(result["missing"], [])
        counts = [name for name, unit in PER_LAYER.items() if unit != "s" and name in first["layers"]]
        self.assertGreater(first["layers"]["multiplication.multiply.calls"], 0)
        for name in counts:
            self.assertEqual(first["layers"][name], second["layers"][name], name)
        self.assertEqual(first["digest"], second["digest"])


class OutputChecks(unittest.TestCase):
    def test_wrong_product_is_reported(self):
        workload = Products(5)
        x, y = workload.pairs[1]
        oracle = multiply_via_oracle(x, y)
        self.assertEqual(check_product(multiply(x, y), oracle), "")
        wrong = multiply(x, y) + SchurElement(3, 4, {next(iter(x.terms)): 1})
        self.assertNotEqual(check_product(wrong, oracle), "")

    def test_products_check_flags_the_sampled_wrong_product(self):
        workload = Products(5)
        zero = SchurElement.zero(3, 4)
        ops = [Op(f"product.{k}", 0.0, zero) for k in range(len(workload.pairs))]
        for repeat in (0, 1):
            flagged = [k for k, reason in enumerate(workload.check(ops, repeat)) if reason]
            self.assertEqual(len(flagged), 1)
            self.assertEqual(flagged[0] % 2, repeat)

    def test_failed_verify_check_is_reported(self):
        results = [{"name": name, "status": "pass", "detail": ""} for name in CHECK_NAMES]
        good = CliOutput(0, json.dumps({"d": 3, "results": results}))
        self.assertEqual(check_suite(good), "")
        results[3]["status"] = "fail"
        self.assertIn("oracle-equivalence", check_suite(CliOutput(0, json.dumps({"d": 3, "results": results}))))
        self.assertNotEqual(check_suite(CliOutput(1, "")), "")

    def test_action_convention_must_skip_above_d5(self):
        results = [{"name": name, "status": "pass", "detail": ""} for name in CHECK_NAMES]
        self.assertIn("action-convention", check_suite(CliOutput(0, json.dumps({"d": 6, "results": results}))))

    def test_centre_checks(self):
        self.assertEqual(partitions_with_at_most(6, 3), 7)
        self.assertEqual(partitions_with_at_most(8, 2), 5)
        self.assertEqual(check_dim(CliOutput(0, '{"basis_size":165,"centre_dimension":5}'), 2, 8), "")
        self.assertNotEqual(check_dim(CliOutput(0, '{"basis_size":165,"centre_dimension":6}'), 2, 8), "")
        flags = {"idempotent": True, "orthogonal": False, "resolution_of_identity": True}
        self.assertIn("law flags", check_idempotents(CliOutput(0, json.dumps({"checks": flags})), 3, 6))


class HostSpeed(unittest.TestCase):
    def test_nominal_loop_time_gives_factor_one(self):
        self.assertEqual(reference.host_factor([reference.REF_S] * 3), 1.0)
        self.assertGreater(reference.host_factor([2 * reference.REF_S] * 3), 1.0)

    def test_sampler_stops_on_sigterm_and_reports(self):
        sampler = subprocess.Popen([sys.executable, str(HERE / "reference.py")],
                                   stdout=subprocess.PIPE, text=True)
        time.sleep(1.0)
        sampler.terminate()
        times = json.loads(sampler.communicate(timeout=30)[0])
        self.assertEqual(sampler.returncode, 0)
        self.assertGreater(len(times), 0)
        self.assertTrue(all(t > 0 for t in times))


class Summary(unittest.TestCase):
    def job(self, ops, digest="a"):
        return {"job_s": 1.0, "job_wall_s": 1.1, "setup_s": 0.1, "setup_wall_s": 0.15,
                "setup_ref_s": [0.03, 0.02], "job_ref_s": [0.02],
                "rss_mb": 40.0, "planned_ops": len(ops),
                "ops": ops, "digest": digest, "wall_s": 1.2}

    def test_timeouts_and_mismatches_count_as_failures(self):
        ok = [["a", 0.5, ""], ["b", 0.5, ""]]
        jobs = [self.job(ok), {"error": "timed out after 150 s", "wall_s": 150.0},
                self.job([["a", 0.5, ""], ["b", 0.5, "wrong"]]), self.job(ok, digest="b")]
        record = run.summarize("centre", 0, 30, False, [], jobs)
        self.assertEqual(record["attempted"], 8)
        self.assertEqual(record["failed"], 2 + 1 + 2)

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(list(range(1000))), (949, "p95"))
        value, label = run.tail_percentile(list(range(100)))
        self.assertEqual((value, label), (89, "p90"))
        self.assertEqual(run.tail_percentile([3.0, 1.0, 2.0]), (3.0, "max"))


if __name__ == "__main__":
    unittest.main()
