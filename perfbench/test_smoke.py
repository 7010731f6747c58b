"""Smoke test of the benchmark harness on tiny versions of the workloads.

    python3 -m pytest perfbench/test_smoke.py      # or
    python3 perfbench/test_smoke.py

Checks that every metric appears once with its unit, that child spans lie
inside their parents, that the output checks run, that BENCHMARK.json keeps
to its format, and that the benchmark refuses to run without the program.
Takes a few seconds; the tiny sizes say nothing about performance.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED_CHECKS = {
    "desk-pd": {"row_count", "imag_leakage", "digest_within_run", "digest_across_runs"},
    "planted-lib": {"observations", "altmin_r2_residual", "altmin_r3_residual",
                    "altmin_r4_residual", "levelset_r2_residual", "digest_within_run",
                    "digest_across_runs"},
    "survey-io": {"exit_code", "row_count", "imag_leakage", "digest_within_run",
                  "digest_across_runs"},
}
METRIC_LINE = re.compile(r"^  (\S+)\s+(\S+) (\S+)$")


def run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def printed_metrics(stdout):
    """(name, unit) of every line in the run's ``metrics`` section."""
    lines = stdout.splitlines()
    start = lines.index("metrics") + 1
    out = []
    for line in lines[start:]:
        m = METRIC_LINE.match(line)
        if not m:
            break
        out.append((m.group(1), m.group(3)))
    return out


class WorkloadSmoke(unittest.TestCase):
    def check_run(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout[-2000:] + proc.stderr[-2000:])
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(last["correct"])
        self.assertGreaterEqual(last["attempted"], 1)

        listed = BENCH["per_layer" if trace else "end_to_end"]
        self.assertEqual({n: m["unit"] for n, m in last["metrics"].items()},
                         {m["name"]: m["unit"] for m in listed})

        catalogue = metrics.PER_LAYER if trace else metrics.END_TO_END
        printed = printed_metrics(proc.stdout)
        names = [n for n, _ in printed]
        self.assertEqual(len(names), len(set(names)), "a metric is printed twice")
        for name, unit in printed:
            self.assertEqual(unit, catalogue[name], name)
        if trace:
            self.assertEqual(set(names), set(catalogue))

        results = json.loads((ROOT / ".perfbench" / "results" /
                              f"{workload}-tiny-seed1-trace{trace}.json").read_text())
        ran = {name for name, _, _ in results["checks"]}
        self.assertLessEqual(EXPECTED_CHECKS[workload], ran)
        for key in ("python", "numpy", "blas_name", "blas_version", "blas_threads",
                    "nproc", "cpu_model", "l3_size"):
            self.assertIn(key, results["environment"])
        self.assertEqual(results["environment"]["blas_threads"], 1)
        return names

    def check_spans(self, workload):
        path = ROOT / ".perfbench" / "spans" / f"{workload}-tiny-seed1.jsonl"
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        self.assertTrue(spans)
        by_id = {s["id"]: s for s in spans}
        for s in spans:
            self.assertLessEqual(s["start"], s["end"])
            if s["parent"] is not None:
                p = by_id[s["parent"]]
                self.assertLessEqual(p["start"], s["start"], s["name"])
                self.assertLessEqual(s["end"], p["end"], s["name"])
        return {s["name"] for s in spans}

    def test_desk_pd(self):
        names = self.check_run("desk-pd", 0)
        self.assertIn("slice_s_p90", names)
        self.check_run("desk-pd", 1)
        seen = self.check_spans("desk-pd")
        self.assertLessEqual({"pipeline.run_interpolation", "fileio.read_volume",
                              "volume.dft_time_axis", "altmin.interpolate_slice",
                              "pdsolver.solve_factor", "fileio.write_volume",
                              "reporting.snr_db"}, seen)

    def test_planted_lib(self):
        names = self.check_run("planted-lib", 0)
        self.assertIn("levelset_s", names)
        self.check_run("planted-lib", 1)
        seen = self.check_spans("planted-lib")
        self.assertLessEqual({"altmin.interpolate_slice", "levelset.solve_levelset",
                              "levelset.value_function", "pdsolver.solve_factor"}, seen)

    def test_survey_io(self):
        names = self.check_run("survey-io", 0)
        self.assertIn("teardown_s", names)
        self.check_run("survey-io", 1)
        seen = self.check_spans("survey-io")
        self.assertLessEqual({"cli.main", "pipeline.run_interpolation",
                              "fileio.read_mask"}, seen)


class ReportSmoke(unittest.TestCase):
    def test_every_metric_once_per_workload(self):
        proc = subprocess.run(
            [sys.executable, str(HERE / "report.py"), "--size", "tiny", "--seconds", "0.2",
             "--workloads", "survey-io", "--tag", "smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        printed = [METRIC_LINE.match(line[2:]) for line in proc.stdout.splitlines()
                   if line.startswith("    ")]
        names = [m.group(1) for m in printed if m]
        self.assertEqual(len(names), len(set(names)), "a metric is printed twice")
        units = {**metrics.END_TO_END, **metrics.PER_LAYER,
                 "trace.overhead_s": "s", "trace.overhead_frac": "ratio"}
        for m in printed:
            self.assertEqual(m.group(3), units[m.group(1)], m.group(1))
        self.assertLessEqual(set(metrics.PER_LAYER) | {"trace.overhead_s"}, set(names))


class Contract(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_benchmark_json(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds", "workloads",
                                      "end_to_end", "per_layer"})
        names = [w["name"] for w in BENCH["workloads"]]
        names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, self.NAME)
        for w in BENCH["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in BENCH["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in BENCH["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            self.assertRegex(m["unit"], self.UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertEqual(m["unit"], {**metrics.END_TO_END, **metrics.PER_LAYER}[m["name"]])
        setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in BENCH["end_to_end"]))

    def test_refuses_without_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("desk-pd", 0, cwd=tmp, script=Path(tmp) / "perfbench" / "run.py")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
