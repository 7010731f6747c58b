#!/usr/bin/env python3
"""The benchmark in one command: every workload, every metric, one file.

    python3 perfbench/report.py                   # all workloads, seed 0
    python3 perfbench/report.py --seed 3 --workloads desk-pd

For each workload this runs ``run.py`` twice in child processes with the
same seed: untraced for the end-to-end metrics, then traced for the
per-layer ones.  It prints every metric by name with its unit, the
tracing overhead (traced wall time minus untraced wall time) and the wall
time no layer covers, fails if any run's output checks failed, and writes
everything to ``.perfbench/BENCH_<tag>.json``.  A full pass takes about
four minutes on a 2-core Xeon.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("desk-pd", "planted-lib", "survey-io")
RUN_TIMEOUT_S = 900


def run(workload, seed, seconds, trace, size):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--size", size]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    path = OUT / "results" / f"{workload}-{size}-seed{seed}-trace{trace}.json"
    if proc.returncode not in (0, 1) or not path.exists():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"report: {' '.join(cmd)} exited {proc.returncode}")
    return json.loads(path.read_text())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--tag", default=None, help="BENCH file tag (default: seed<N>)")
    args = parser.parse_args(argv)

    bench = {"seed": args.seed, "seconds": args.seconds, "size": args.size, "workloads": {}}
    all_correct = True
    for workload in args.workloads:
        plain = run(workload, args.seed, args.seconds, 0, args.size)
        traced = run(workload, args.seed, args.seconds, 1, args.size)
        e2e = plain["metrics"]
        # budget_miss_frac and failed_frac come from both runs; shown once.
        layer = {k: v for k, v in traced["metrics"].items() if k not in e2e}
        overhead = layer["trace.wall_s"]["value"] - e2e["wall_s"]["value"]
        # trace.unaccounted_s, the other half of the accounting, is per-layer.
        accounting = {
            "trace.overhead_s": {"value": overhead, "unit": "s"},
            "trace.overhead_frac": {"value": overhead / e2e["wall_s"]["value"], "unit": "ratio"},
        }
        correct = plain["correct"] and traced["correct"]
        all_correct &= correct
        bench["workloads"][workload] = {
            "correct": correct, "environment": plain["environment"],
            "shapes": plain["shapes"], "units": {"untraced": plain["units"],
                                                 "traced": traced["units"]},
            "end_to_end": e2e, "per_layer": layer, "accounting": accounting,
            "checks": {"untraced": plain["checks"], "traced": traced["checks"]},
            "notes": traced["notes"],
        }
        print(f"== {workload} (seed {args.seed}, {args.size}): "
              f"{'correct' if correct else 'CHECKS FAILED'}")
        for title, block in (("end to end", e2e), ("per layer", layer),
                             ("trace accounting", accounting)):
            print(f"  -- {title}")
            for name, m in block.items():
                v = m["value"]
                text = f"{v:.6g}" if isinstance(v, float) else str(v)
                print(f"    {name:<40} {text:>14} {m['unit']}")
    env = next(iter(bench["workloads"].values()))["environment"]
    print("environment " + json.dumps(env, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    path = OUT / f"BENCH_{args.tag or f'seed{args.seed}'}.json"
    path.write_text(json.dumps(bench, indent=1))
    print(f"wrote {path}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
