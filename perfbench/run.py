#!/usr/bin/env python3
"""Run one benchmark workload against the lrfill sources of this checkout.

    python3 perfbench/run.py --workload desk-pd --seed 0 --seconds 5 --trace 0

Workloads: desk-pd, planted-lib, survey-io (see workloads.py).  The run
makes its inputs from ``--seed``, then repeats the workload's unit of work
closed-loop in this one process while the next unit is expected to end
within ``--seconds`` (always at least one unit), and checks every unit's
outputs.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps
lrfill's public names and measures the per-layer metrics instead.

Every metric is printed as ``name value unit``; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``, whose metrics are the ones ``BENCHMARK.json``
lists for the trace mode.  Full results, the environment and the spans of a
traced run are written under ``.perfbench/`` at the checkout root.
"""

import os

# Pin BLAS to one thread before numpy is imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
INPUT_TIMEOUT_S = 600


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_program():
    """Import lrfill from this checkout's src/, and nothing else."""
    if not (SRC / "lrfill" / "__init__.py").is_file():
        fail(f"no lrfill sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lrfill
    if Path(lrfill.__file__).resolve().parent != (SRC / "lrfill").resolve():
        fail(f"imported lrfill from {lrfill.__file__}, not from {SRC}")


def source_hash():
    """Hash of the program and benchmark sources that decide the outputs."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "lrfill").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_digest(key, digest):
    """Outputs of one seed must be identical from run to run.

    The first run of a (workload, size, seed, source) records its output
    digest in .perfbench/digests.json; every later run must match it.
    """
    ledger = OUT / "digests.json"
    known = json.loads(ledger.read_text()) if ledger.exists() else {}
    if key in known:
        return known[key] == digest, f"{digest[:16]} vs recorded {known[key][:16]}"
    known[key] = digest
    tmp = ledger.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, ledger)
    return True, f"{digest[:16]} recorded"


def preload_numpy():
    """Load numpy's lazily imported FFT and linear algebra code."""
    import numpy as np
    x = np.ones((8, 8), dtype=np.complex128)
    np.fft.ifft(np.fft.fft(x, axis=0, norm="ortho"), axis=0, norm="ortho")
    np.linalg.norm(x @ x.conj().T)


def make_inputs(args, workdir):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--make-inputs", str(workdir),
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    try:
        subprocess.run(cmd, check=True, timeout=INPUT_TIMEOUT_S, stdout=subprocess.DEVNULL)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        fail(f"making inputs failed: {exc}")


def run_units(workload, state, seconds, tracer):
    """Units back to back while the next is expected to end in time."""
    import spans

    units = []
    t_start = perf_counter()
    while True:
        patches = spans.install(tracer) if tracer is not None else None
        try:
            unit = workload.run_unit(state, tracer)
        finally:
            if patches is not None:
                patches.restore()
        if unit.verify is not None:
            unit.verify()
        units.append(unit)
        if perf_counter() - t_start + unit.wall_s > seconds:
            return units


def summarize_checks(checks):
    """One entry per check name: failed if any unit failed it."""
    out = {}
    for name, ok, detail in checks:
        if name not in out or (out[name][0] and not ok):
            out[name] = (ok, detail)
    return out


def print_metrics(title, values, units):
    print(title)
    for name, value in values.items():
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<40} {text:>14} {units[name]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny only exercises the harness (smoke test)")
    parser.add_argument("--make-inputs", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    import envinfo
    import metrics
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.make_inputs:
        workload.make_inputs(args.make_inputs, args.seed, args.size)
        return 0

    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        fail(f"{bench_file} is missing")
    bench = json.loads(bench_file.read_text())
    listed = bench["per_layer" if args.trace else "end_to_end"]

    tag = f"{args.workload}-{args.size}-seed{args.seed}"
    workdir = OUT / "work" / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        make_inputs(args, workdir)
        state = workload.load(workdir, args.seed, args.size)
        preload_numpy()
        tracer = Tracer() if args.trace else None
        units = run_units(workload, state, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    checks = [c for u in units for c in u.checks]
    digests = {u.digest for u in units}
    checks.append(("digest_within_run", len(digests) == 1,
                   f"{len(digests)} distinct digests over {len(units)} units"))
    ok, detail = check_digest(f"{tag}/src-{source_hash()}", units[0].digest)
    checks.append(("digest_across_runs", ok, detail))

    if args.trace:
        values = metrics.per_layer(tracer, len(units), sum(u.wall_s for u in units))
        values.update(metrics.solve_outcomes(units))
        catalogue = metrics.PER_LAYER
        nesting = tracer.nesting_errors()
        checks.append(("span_nesting", not nesting, "; ".join(nesting[:3])))
        spans_dir = OUT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_dir / f"{tag}.jsonl")
    else:
        values = metrics.end_to_end(units, peak_rss_mb)
        catalogue = metrics.END_TO_END
    values = {k: metrics.tidy(v, catalogue[k]) for k, v in values.items()}
    env = envinfo.describe()
    shapes = workload.shapes(args.seed, args.size)
    correct = all(ok for _, ok, _ in checks)
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)

    print(f"workload {args.workload} ({args.size}), seed {args.seed}, "
          f"trace {args.trace}: {len(units)} unit(s)")
    print("environment " + json.dumps(env, sort_keys=True))
    print("shapes " + json.dumps(shapes, sort_keys=True))
    print_metrics("metrics", values, catalogue)
    print("notes " + json.dumps(units[-1].notes, sort_keys=True))
    print("checks")
    for name, (ok, detail) in summarize_checks(checks).items():
        print(f"  {'ok  ' if ok else 'FAIL'} {name}: {detail}")

    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "size": args.size, "seed": args.seed,
              "trace": args.trace, "units": len(units), "environment": env,
              "shapes": shapes, "correct": correct, "attempted": attempted,
              "failed": failed, "checks": checks, "notes": [u.notes for u in units],
              "per_unit": [{"wall_s": u.wall_s, "setup_s": u.setup_s, "solve_s": u.solve_s,
                            "teardown_s": u.teardown_s} for u in units],
              "metrics": {k: {"value": v, "unit": catalogue[k]} for k, v in values.items()}}
    (results_dir / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        fail(f"metrics {missing} are not defined on workload {args.workload}")
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in listed}}
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
