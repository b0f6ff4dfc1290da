"""Self-tests of the benchmark's own code.

    python3 -m unittest discover -s perfbench/tests

The last test needs the binaries a benchmark run builds (`.bench_build`,
or `$CARGO_TARGET_DIR`) and is skipped without them.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402


def stream_report(records=1000, ingest=None):
    summary = {
        "records": records,
        "sessions": 40,
        "response_bytes": {"count": records, "mean": 2048.5, "m2": 1.25e9},
        "request_windows": [{"index": 0, "h_variance_time": 0.71234567, "poisson_hourly": "Rejected"}],
    }
    config = {"summary": summary}
    if ingest is not None:
        config["ingest"] = ingest
    return {"config": config}


def hub_stats(sent):
    stats = {b: 0 for b in run.SHED_BUCKETS}
    stats.update({"sources_seen": run.CONNECTIONS, "admitted": sent})
    return stats


def repro_report(records=5000):
    return {
        "counters": [
            {"name": "weblog/records_ingested", "value": records},
            {"name": "pipeline/analyses", "value": len(run.BATCH_PROFILES)},
        ],
        "gauges": [
            {"name": "fidelity/h/WVU/whittle", "value": 0.91},
            {"name": "fidelity/alpha/WVU/bytes/llcd", "value": 1.2},
            {"name": "fidelity/poisson/WVU/request_reject_rate", "value": 1.0},
        ],
    }


class Arithmetic(unittest.TestCase):
    def test_median_and_quartiles_match_statistics(self):
        values = [float(v) for v in range(1, 11)]
        self.assertEqual(run.median(values), 5.5)
        self.assertEqual(run.quartiles(values), (2.75, 5.5, 8.25))
        self.assertAlmostEqual(run.spread(values), 1.0)

    def test_quartiles_of_unsorted_values(self):
        values = [9.0, 1.0, 5.0, 3.0, 7.0]
        self.assertEqual(run.quartiles(values), (2.0, 5.0, 8.0))
        self.assertAlmostEqual(run.spread(values), 6.0 / 5.0)

    def test_degenerate_samples(self):
        self.assertEqual(run.quartiles([4.0]), (4.0, 4.0, 4.0))
        self.assertEqual(run.spread([2.0, 2.0, 2.0]), 0.0)
        self.assertEqual(run.spread([0.0, 0.0]), float("inf"))

    def test_timed_rounds_honours_minimum_and_duration(self):
        calls = []
        run.timed_rounds(0.0, 3, lambda: calls.append(1))
        self.assertEqual(len(calls), 3)
        calls.clear()
        run.timed_rounds(0.05, 1, lambda: calls.append(1))
        self.assertGreater(len(calls), 1)

    def test_trace_overhead(self):
        traced = [{"metrics": {"trace.wall_s": 2.2}}, {"metrics": {}}, {"metrics": {"trace.wall_s": 2.4}}]
        self.assertAlmostEqual(run.trace_overhead(traced, [1.9, 2.0, 2.1]), 0.1)
        self.assertEqual(run.trace_overhead(traced, [0.0]), 0.0)

    def test_median_layers_reads_missing_layers_as_zero(self):
        results = [{"metrics": {"a": 1.0}}, {"metrics": {"a": 3.0, "b": 2.0}}, {"metrics": {"a": 2.0}}]
        self.assertEqual(run.median_layers(results, ["a", "b"]), {"a": 2.0, "b": 0.0})


class ReferenceSpeed(unittest.TestCase):
    def runner(self, calibrated, kernel_times):
        r = run.Runner(tempfile.gettempdir(), 0.0, calibrated)
        times = iter(kernel_times)

        def calibrate():
            r.kernel_times.append(next(times))
            return r.kernel_times[-1]

        r.calibrate = calibrate
        return r

    def test_kernel_runs_around_every_step(self):
        ref = run.CALIBRATION_REFERENCE_S
        r = self.runner(True, [2 * ref, 4 * ref, 2 * ref])
        steps = []
        self.assertEqual(r.between_kernels(lambda: steps.append(len(r.kernel_times)) or "first"), "first")
        # The kernel run after one step is the one before the next.
        r.between_kernels(lambda: steps.append(len(r.kernel_times)))
        self.assertEqual(steps, [1, 2])
        self.assertEqual(len(r.kernel_times), 3)
        self.assertAlmostEqual(r.to_reference(), 0.5)

    def test_end_to_end_times_are_at_the_reference_speed(self):
        ref = run.CALIBRATION_REFERENCE_S
        r = self.runner(True, [])
        r.kernel_times = [ref, 2 * ref, 2 * ref]
        result = run.end_to_end(r, 3.0, [9.0, 8.0, 10.0], [900, 800, 1000], [20.0, 22.0, 21.0], [1.0, 1.0, 1.0])
        self.assertAlmostEqual(result["wall_ref_s"], 4.5)
        self.assertAlmostEqual(result["records_per_ref_s"], 200.0)
        self.assertAlmostEqual(result["setup_s"], 1.5)
        self.assertEqual(result["peak_rss_mb"], 22.0)
        self.assertIn("raw wall median 9.0000 s", r.notes[0])

    def test_traced_run_runs_no_kernel(self):
        r = self.runner(False, [])
        self.assertEqual(r.between_kernels(lambda: 7), 7)
        self.assertEqual(r.kernel_times, [])


class Names(unittest.TestCase):
    def test_valid_names(self):
        for name in ["wall_s", "window.close_ms_p50", "file-week", "1st", "a" * 64]:
            self.assertTrue(run.valid_name(name), name)

    def test_invalid_names(self):
        for name in ["", "_x", ".x", "-x", "a b", "a/b", "rate%", "a" * 65, None, 3]:
            self.assertFalse(run.valid_name(name), name)

    def test_units(self):
        for unit in ["s", "ms", "1/s", "%", "count", "MB"]:
            self.assertTrue(run.valid_unit(unit), unit)
        for unit in ["", "m s", "x" * 17, "µs"]:
            self.assertFalse(run.valid_unit(unit), unit)

    def test_repo_spec_loads(self):
        e2e, layers = run.load_spec()
        self.assertEqual(e2e["setup_s"], "s")
        self.assertIn("trace.coverage", layers)
        self.assertIn("window.vt_fine_s", layers)

    def test_bad_spec_is_refused(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for corrupt in (
            lambda s: s["end_to_end"][0].update(name="wall s"),
            lambda s: s["per_layer"].append(dict(s["per_layer"][0])),
            lambda s: s["per_layer"][0].update(unit="seconds and more"),
            lambda s: s["workloads"][0].update(name="-file"),
        ):
            bad = copy.deepcopy(spec)
            corrupt(bad)
            with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
                json.dump(bad, f)
            try:
                with self.assertRaises(run.BenchError):
                    run.load_spec(f.name)
            finally:
                os.remove(f.name)


class OutputChecks(unittest.TestCase):
    def test_identical_summaries_agree(self):
        a = stream_report()["config"]["summary"]
        self.assertEqual(run.compare_summaries(a, copy.deepcopy(a)), [])

    def test_float_noise_within_band_is_accepted(self):
        a = stream_report()["config"]["summary"]
        b = copy.deepcopy(a)
        b["response_bytes"]["mean"] *= 1 + 1e-12
        self.assertEqual(run.compare_summaries(a, b), [])

    def test_corrupted_summaries_are_caught(self):
        a = stream_report()["config"]["summary"]
        for corrupt in (
            lambda s: s.update(records=s["records"] + 1),
            lambda s: s["response_bytes"].update(mean=s["response_bytes"]["mean"] * (1 + 1e-6)),
            lambda s: s["request_windows"][0].update(poisson_hourly="ConsistentWithPoisson"),
            lambda s: s["request_windows"].append({}),
            lambda s: s.pop("sessions"),
        ):
            b = copy.deepcopy(a)
            corrupt(b)
            self.assertNotEqual(run.compare_summaries(a, b), [])

    def test_stream_report_checks(self):
        self.assertEqual(run.check_stream_report(stream_report(1000), 1000), [])
        self.assertNotEqual(run.check_stream_report(stream_report(999), 1000), [])
        self.assertEqual(run.check_stream_report(stream_report(1000, hub_stats(1000)), 1000), [])
        for bucket in run.SHED_BUCKETS:
            stats = hub_stats(1000)
            stats[bucket] = 1
            self.assertNotEqual(run.check_stream_report(stream_report(1000, stats), 1000), [], bucket)
        stats = hub_stats(1000)
        stats["sources_seen"] = 1
        self.assertNotEqual(run.check_stream_report(stream_report(1000, stats), 1000), [])

    def test_repro_report_checks(self):
        self.assertEqual(run.check_repro_report(repro_report(5000), 5000), [])
        self.assertNotEqual(run.check_repro_report(repro_report(4999), 5000), [])
        no_gauges = repro_report(5000)
        no_gauges["gauges"] = []
        self.assertNotEqual(run.check_repro_report(no_gauges, 5000), [])

    def test_fidelity_gauges_compare(self):
        gauges = run.fidelity_gauges(repro_report())
        self.assertEqual(sorted(gauges), ["fidelity/alpha/WVU/bytes/llcd", "fidelity/h/WVU/whittle"])
        self.assertEqual(run.compare_gauges(gauges, dict(gauges), "x"), [])
        drifted = dict(gauges, **{"fidelity/h/WVU/whittle": 0.92})
        self.assertNotEqual(run.compare_gauges(gauges, drifted, "x"), [])
        missing = {"fidelity/h/WVU/whittle": 0.91}
        self.assertNotEqual(run.compare_gauges(gauges, missing, "x"), [])


BIN_DIR = os.path.join(run.ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "release")
BINARIES = ["genlog", "stream-analyze", "perfbench-trace", "perfbench-calibrate"]


needs_binaries = unittest.skipUnless(
    all(os.path.exists(os.path.join(BIN_DIR, b)) for b in BINARIES),
    "benchmark binaries not built; run perfbench/run.py once",
)


@needs_binaries
class CheckpointCheck(unittest.TestCase):
    def test_corrupted_checkpoint_fails_to_load(self):
        work = tempfile.mkdtemp()
        try:
            log, ckpt = os.path.join(work, "f.log"), os.path.join(work, "c.ckpt")
            bin_ = lambda name: os.path.join(BIN_DIR, name)  # noqa: E731
            subprocess.run([bin_("genlog"), "--profile", "nasa", "--scale", "0.002", "--seed", "3",
                            "--quiet", "--out", log], check=True)
            subprocess.run([bin_("stream-analyze"), log, "--quiet", "--report", os.path.join(work, "r.json"),
                            "--checkpoint", ckpt], check=True)
            good = subprocess.run([bin_("perfbench-trace"), "load-checkpoint", ckpt],
                                  stdout=subprocess.PIPE, check=True)
            records = json.loads(good.stdout)["metrics"]["records"]
            self.assertEqual(records, run.count_lines(log))
            with open(ckpt, "r+b") as f:
                f.seek(100)
                byte = f.read(1)
                f.seek(100)
                f.write(bytes([byte[0] ^ 0xFF]))
            bad = subprocess.run([bin_("perfbench-trace"), "load-checkpoint", ckpt],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            self.assertNotEqual(bad.returncode, 0)
            self.assertEqual(bad.stdout, b"")
        finally:
            shutil.rmtree(work)


@needs_binaries
class CalibrationKernel(unittest.TestCase):
    def test_prints_its_time(self):
        done = subprocess.run([os.path.join(BIN_DIR, "perfbench-calibrate")], stdout=subprocess.PIPE, check=True)
        self.assertGreater(float(done.stdout), 0.0)


if __name__ == "__main__":
    unittest.main()
