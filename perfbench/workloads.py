"""The three benchmark workloads: inputs, one timed unit of work, checks.

A workload makes its inputs once per run from the seed (``make_inputs``,
run in a child process so that its memory does not count toward the run's
peak), then the run repeats ``run_unit`` on them.  A unit calls lrfill only
through public functions and reads back what they return or write.

Seeds: the benchmark seed drives the solver init seed of ``desk-pd`` and
both the generated volume and the solver init seed of ``survey-io``.
``desk-pd`` keeps the data of acceptance criterion 8 for every seed, and
``planted-lib`` keeps the instance and solver seed of criteria 2, 3 and 7
(see ``PLANT_SEED``).  Seed 0 reproduces the acceptance-test runs exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from lrfill import cli, pipeline
from lrfill.altmin import OuterConfig, interpolate_slice
from lrfill.fileio import write_mask, write_volume
from lrfill.levelset import LevelSetConfig, solve_levelset
from lrfill.pdsolver import PdConfig
from lrfill.reporting import read_report, snr_db
from lrfill.sampling import SamplingMask, jittered_volume_mask, uniform_entry_mask
from lrfill.synthgen import EventSpec, PlantSpec, linear_events, observe_slice, plant_slice
from lrfill.transforms import MeasurementOp
from spans import OBSERVERS, Patches

IMAG_LEAKAGE_MAX = 1e-10
BUDGET_SLACK = 1.01  # a solve misses its budget when residual > 1.01 eta


@dataclass
class Unit:
    """What one unit of work measured and checked."""

    wall_s: float = 0.0
    setup_s: list = field(default_factory=list)   # one or more set-up samples
    solve_s: float = 0.0
    slice_s: list = field(default_factory=list)   # per-solve times
    teardown_s: float | None = None
    levelset_s: float | None = None
    snr_db: float = math.nan
    attempted: int = 0
    failed: int = 0
    budget_miss: int = 0
    digest: str = ""
    checks: list = field(default_factory=list)    # (name, ok, detail)
    notes: dict = field(default_factory=dict)     # iteration counts read back
    verify: object = None  # checks to run once tracing is off, if any

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))


def _flush(*paths):
    """Write the inputs to disk now, not while a unit is being timed."""
    for path in paths:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def digest_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 22), b""):
            h.update(block)
    return h.hexdigest()


class SolveClock:
    """Start and end of every slice solve the pipeline makes.

    Wraps the names ``lrfill.pipeline`` looks up for the PD slice solve and
    the inverse DFT, so the set-up phase (run call to first solve) and the
    teardown phase (last solve to return) can be told apart from outside.
    """

    def __init__(self):
        self.intervals = []
        self.idft_start = None

    def install(self, patches):
        solve, idft = pipeline.interpolate_slice, pipeline.idft_freq_axis

        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return solve(*args, **kwargs)
            finally:
                self.intervals.append((t0, perf_counter()))

        def marked(*args, **kwargs):
            if self.idft_start is None:
                self.idft_start = perf_counter()
            return idft(*args, **kwargs)
        patches.set(pipeline, "interpolate_slice", timed)
        patches.set(pipeline, "idft_freq_axis", marked)

    def phases(self, t_call, t_return):
        """(setup_s, solve_s, teardown_s, per-solve times) of one run call.

        Set-up ends at the first solve, or at the inverse DFT when the band
        holds no bin to solve.
        """
        if not self.intervals:
            return self.idft_start - t_call, 0.0, t_return - self.idft_start, []
        slices = [end - start for start, end in self.intervals]
        return (self.intervals[0][0] - t_call, sum(slices),
                t_return - self.intervals[-1][1], slices)


class _Caller:
    """Calls a public function, inside a span when the unit is traced."""

    def __init__(self, tracer):
        self.tracer = tracer

    def __call__(self, name, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.wrap(name, fn, OBSERVERS.get(name))(*args, **kwargs)


# ---------------------------------------------------------------------- #
# pipeline workloads: desk-pd and survey-io


class PipelineWorkload:
    """A whole volume interpolated by ``run_interpolation``."""

    def __init__(self, sizes):
        self.sizes = sizes

    def paths(self, workdir):
        workdir = Path(workdir)
        return {k: workdir / f for k, f in (
            ("truth", "truth.lrv"), ("mask", "mask.lrm"), ("output", "out.lrv"),
            ("report", "report.csv"), ("config", "run.cfg"))}

    def config(self, workdir, seed, size) -> dict:
        p = self.paths(workdir)
        cfg = dict(self.sizes[size]["config"])
        cfg.update(input=str(p["truth"]), truth=str(p["truth"]), mask=str(p["mask"]),
                   output=str(p["output"]), report=str(p["report"]),
                   solver="pd", seed=seed, threads=1)
        return cfg

    def make_inputs(self, workdir, seed, size):
        spec, mask = self.instance(seed, size)
        p = self.paths(workdir)
        write_volume(linear_events(spec), p["truth"])
        write_mask(mask, p["mask"])
        with open(p["config"], "w") as fh:
            for key, value in self.config(workdir, seed, size).items():
                fh.write(f"{key} = {value}\n")
        _flush(p["truth"], p["mask"], p["config"])

    def load(self, workdir, seed, size):
        return {"workdir": Path(workdir), "seed": seed, "size": size}

    def shapes(self, seed, size):
        g = self.sizes[size]["grid"]
        _, mask = self.instance(seed, size)
        return {"p": g[1] * g[3], "q": g[0] * g[2],
                "r": [self.sizes[size]["config"]["rank"]],
                "omega": int(mask.grid.sum())}

    def finish(self, state, unit, t_call, t_return, clock, result):
        """Fill a unit from a run's report and output file."""
        size = self.sizes[state["size"]]
        unit.wall_s = t_return - t_call
        setup, unit.solve_s, unit.teardown_s, unit.slice_s = clock.phases(t_call, t_return)
        unit.setup_s = [setup]
        rows, aggregates = result
        unit.attempted = len(rows)
        unit.failed = sum(1 for r in rows if r["status"] != "ok")
        eta_fraction = size["config"]["eta_fraction"]
        unit.budget_miss = sum(1 for r in rows
                               if not r["rel_residual"] <= BUDGET_SLACK * eta_fraction)
        unit.snr_db = float(aggregates["overall_snr_db"])
        unit.notes["overall_snr_db"] = unit.snr_db
        unit.notes["outer_iters"] = sum(r["outer_iters"] for r in rows)
        unit.notes["inner_iters"] = sum(r["inner_iters"] for r in rows)
        leak = float(aggregates["imag_leakage"])
        unit.check("row_count", len(rows) == size["rows"],
                   f"{len(rows)} rows, expected {size['rows']}")
        unit.check("imag_leakage", leak <= IMAG_LEAKAGE_MAX,
                   f"{leak:.3e} <= {IMAG_LEAKAGE_MAX:.0e}")
        output = self.paths(state["workdir"])["output"]
        unit.digest = digest_file(output)
        # Unwritten pages of a large output would be flushed to disk while
        # the next unit runs; deleting the file drops them instead.
        output.unlink()


class DeskPd(PipelineWorkload):
    """Acceptance criterion 8, driven through ``run_interpolation``."""

    name = "desk-pd"

    def instance(self, seed, size):
        s = self.sizes[size]
        n_rx, n_ry, n_sx, n_sy = s["grid"]
        spec = EventSpec(n_rx=n_rx, n_ry=n_ry, n_sx=n_sx, n_sy=n_sy, spacing_m=25.0,
                         nt=s["nt"], dt=0.004, events=s["events"], wavelet_peak_hz=20.0)
        mask = jittered_volume_mask(n_rx, n_ry, n_sx, n_sy, s["keep"], seed=s["mask_seed"])
        return spec, mask

    def _timed_run(self, call, cfg):
        clock = SolveClock()
        patches = Patches()
        clock.install(patches)
        try:
            t_call = perf_counter()
            result = call("pipeline.run_interpolation", pipeline.run_interpolation, cfg)
            t_return = perf_counter()
        finally:
            patches.restore()
        return result, clock, t_call, t_return

    def setup_probe(self, state):
        """Set-up time of one run whose band holds no bin, so nothing is
        solved: the same reads, mask, forward DFTs, operator build and copy
        of the spectrum as a real run, timed up to the inverse DFT."""
        raw = self.config(state["workdir"], state["seed"], state["size"])
        raw.update(zip(("f_min", "f_max"), self.sizes[state["size"]]["empty_band"]),
                   output=str(state["workdir"] / "probe.lrv"), report=None)
        _, clock, t_call, t_return = self._timed_run(_Caller(None),
                                                     pipeline.config_from_dict(raw))
        # As for out.lrv: drop the file's unwritten pages before the timed run.
        (state["workdir"] / "probe.lrv").unlink()
        return clock.phases(t_call, t_return)[0]

    def run_unit(self, state, tracer):
        call = _Caller(tracer)
        cfg = pipeline.config_from_dict(self.config(state["workdir"], state["seed"],
                                                    state["size"]))
        # Extra set-up samples, untraced so they do not add to layer counts.
        probes = ([self.setup_probe(state) for _ in range(self.sizes[state["size"]]["setup_probes"])]
                  if tracer is None else [])
        unit = Unit()
        result, clock, t_call, t_return = self._timed_run(call, cfg)
        rows = [{"status": r.status, "rel_residual": r.rel_residual,
                 "outer_iters": r.outer_iters, "inner_iters": r.inner_iters}
                for r in result.rows]
        aggregates = {"overall_snr_db": result.overall_snr_db,
                      "imag_leakage": result.imag_leakage}
        self.finish(state, unit, t_call, t_return, clock, (rows, aggregates))
        unit.setup_s += probes
        return unit


class SurveyIo(PipelineWorkload):
    """A volume twice the L3 size, one solved bin, driven through the CLI."""

    name = "survey-io"

    def instance(self, seed, size):
        s = self.sizes[size]
        n_rx, n_ry, n_sx, n_sy = s["grid"]
        rng = np.random.default_rng([seed, 0x5E])
        record = s["nt"] * 0.004
        events = [(float(rng.uniform(0.15, 0.75) * record),
                   float(rng.uniform(-3e-4, 3e-4)), float(rng.uniform(-3e-4, 3e-4)),
                   float(rng.uniform(0.5, 1.0))) for _ in range(3)]
        spec = EventSpec(n_rx=n_rx, n_ry=n_ry, n_sx=n_sx, n_sy=n_sy, spacing_m=25.0,
                         nt=s["nt"], dt=0.004, events=events, wavelet_peak_hz=20.0)
        mask = jittered_volume_mask(n_rx, n_ry, n_sx, n_sy, s["keep"], seed=seed)
        return spec, mask

    def run_unit(self, state, tracer):
        call = _Caller(tracer)
        p = self.paths(state["workdir"])
        clock = SolveClock()
        patches = Patches()
        clock.install(patches)
        unit = Unit()
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                t_call = perf_counter()
                code = call("cli.main", cli.main, ["interpolate", "--config", str(p["config"])])
                t_return = perf_counter()
        finally:
            patches.restore()
        unit.check("exit_code", code == 0, f"lrfill interpolate exited {code}")
        rows, aggregates = read_report(p["report"])
        self.finish(state, unit, t_call, t_return, clock, (rows, aggregates))
        return unit


# ---------------------------------------------------------------------- #
# planted-lib: the library API on a bare matrix


# The planted instance and solver seed of acceptance criteria 2, 3 and 7.
# They are the same for every benchmark seed: from one instance or solver
# seed to the next the PD iteration count of a unit swings by up to 1.6x
# (seed 4 of a seed-driven trial took 60k iterations at ranks 5 and 10
# against 27k to 35k for the others), which made the spread of wall time
# over ten seeds wider than any usable bound.  Fixed, the unit repeats the
# same work and only the machine's noise is left.
PLANT_SEED, MASK_SEED, SOLVER_SEED = 7, 11, 3


class PlantedLib:
    """Criteria 2, 3 and 7's planted matrix through the library API."""

    name = "planted-lib"

    def __init__(self, sizes):
        self.sizes = sizes

    def instance(self, seed, size):
        s = self.sizes[size]
        truth, _ = plant_slice(PlantSpec(p=s["n"], q=s["n"], rank=s["rank"],
                                         profile="flat", seed=PLANT_SEED))
        mask = uniform_entry_mask(s["n"], s["n"], 0.5, seed=MASK_SEED)
        return truth.data, mask

    def make_inputs(self, workdir, seed, size):
        X, mask = self.instance(seed, size)
        np.savez(Path(workdir) / "planted.npz", truth=X, grid=mask.grid)

    def load(self, workdir, seed, size):
        with np.load(Path(workdir) / "planted.npz") as z:
            truth, grid = z["truth"], z["grid"]
        return {"truth": truth, "mask": SamplingMask(grid, axes=("rx", "sx")),
                "seed": seed, "size": size}

    def shapes(self, seed, size):
        s = self.sizes[size]
        return {"p": s["n"], "q": s["n"], "r": list(s["ranks"]) + [s["levelset_rank"]],
                "omega": int(math.ceil(0.5 * s["n"] * s["n"]))}

    def _setup(self, state):
        op = MeasurementOp(state["mask"])
        b = op.forward(state["truth"])
        eta = self.sizes[state["size"]]["eta_fraction"] * float(np.linalg.norm(b))
        return op, b, eta

    def run_unit(self, state, tracer):
        call = _Caller(tracer)
        s = self.sizes[state["size"]]
        truth = state["truth"]
        unit = Unit()

        def setup_block():
            # One set-up takes about 76 us, too short to time alone: a sample
            # is the mean of a block of set-ups timed together.  A block runs
            # before every solve and after the last one, so that the samples
            # are spread over the unit, and their median is reported.  Traced
            # units set up once per block, so as not to add to layer counts.
            calls = s["setup_block_calls"] if tracer is None else 1
            t0 = perf_counter()
            for _ in range(calls):
                built = self._setup(state)
            unit.setup_s.append((perf_counter() - t0) / calls)
            return built

        t_unit = perf_counter()
        op, b, eta = setup_block()
        b_norm = float(np.linalg.norm(b))

        solves = [("altmin", r, "altmin.interpolate_slice", interpolate_slice,
                   (op, b, OuterConfig(rank=r, eta_target=eta, alpha=0.5,
                                       outer_iters=s["outer_iters"], seed=SOLVER_SEED,
                                       pd=PdConfig(max_iters=s["inner_iters"],
                                                   primal_tol=1e-6, feas_tol=5e-6))))
                  for r in s["ranks"]]
        r = s["levelset_rank"]
        solves.append(("levelset", r, "levelset.solve_levelset", solve_levelset,
                       (op, b, eta, r, LevelSetConfig(inner_iters=s["levelset_inner"],
                                                      root_tol=2e-4, max_root_iters=40,
                                                      seed=SOLVER_SEED))))
        estimates = []
        for kind, r, name, fn, args in solves:
            unit.attempted += 1
            t0 = perf_counter()
            try:
                _, X, rep = call(name, fn, *args)
            except Exception as exc:  # a raising solve is a failed solve
                unit.failed += 1
                unit.check(f"{kind}_r{r}_raised", False, f"{type(exc).__name__}: {exc}")
                continue
            dt = perf_counter() - t0
            if kind == "altmin":
                unit.slice_s.append(dt)
            else:
                unit.levelset_s = dt
            unit.notes[f"{kind}_r{r}_inner_iters"] = rep.inner_iters
            unit.notes[f"{kind}_r{r}_outer_iters"] = rep.outer_iters
            if rep.status != "ok":
                unit.failed += 1
            if not rep.rel_residual * b_norm <= BUDGET_SLACK * eta:
                unit.budget_miss += 1
            estimates.append((kind, r, X))
            setup_block()
        t_last = perf_counter()
        snrs = [call("reporting.snr_db", snr_db, truth, X) for _, _, X in estimates]
        t_end = perf_counter()

        unit.wall_s = t_end - t_unit
        unit.solve_s = sum(unit.slice_s)
        unit.teardown_s = t_end - t_last
        unit.snr_db = min(snrs) if snrs else math.nan
        unit.notes["overall_snr_db"] = unit.snr_db
        h = hashlib.sha256()
        for _, _, X in estimates:
            h.update(np.ascontiguousarray(X).tobytes())
        unit.digest = h.hexdigest()

        def verify():
            # b is the planted matrix observed through the operator; it must
            # be what the synthetic generator observes.
            unit.check("observations", np.array_equal(b, observe_slice(truth, state["mask"])),
                       "op.forward(truth) == observe_slice(truth)")
            for kind, r, X in estimates:
                resid = float(np.linalg.norm(op.forward(X) - b))
                unit.check(f"{kind}_r{r}_residual", resid <= BUDGET_SLACK * eta,
                           f"{resid:.4e} <= 1.01 * {eta:.4e}")
        unit.verify = verify
        return unit


# ---------------------------------------------------------------------- #
# sizes: "full" is the benchmark; "tiny" only exercises the harness

CRITERION_8_EVENTS = [(0.10, 0.00025, 0.00015, 1.0),
                      (0.22, -0.0002, 0.0003, 0.8),
                      (0.35, 0.0001, 0.0002, 0.6)]

WORKLOADS = {
    "desk-pd": DeskPd({
        "full": {"grid": (10, 10, 8, 8), "nt": 128, "events": CRITERION_8_EVENTS,
                 "keep": 0.2, "mask_seed": 75, "rows": 34,
                 "empty_band": (1.0, 1.5), "setup_probes": 5,
                 "config": {"f_min": 3.0, "f_max": 70.0, "dt": 0.004, "rank": 8,
                            "eta_fraction": 0.03, "alpha": 0.5, "outer_iters": 15,
                            "inner_iters": 1500}},
        "tiny": {"grid": (4, 4, 4, 4), "nt": 32, "events": CRITERION_8_EVENTS[:1],
                 "keep": 0.5, "mask_seed": 1, "rows": 5,
                 "empty_band": (1.0, 1.5), "setup_probes": 2,
                 "config": {"f_min": 3.0, "f_max": 40.0, "dt": 0.004, "rank": 2,
                            "eta_fraction": 0.05, "alpha": 0.5, "outer_iters": 2,
                            "inner_iters": 20}},
    }),
    "planted-lib": PlantedLib({
        "full": {"n": 100, "rank": 5, "eta_fraction": 1e-3, "ranks": (5, 10, 20),
                 "outer_iters": 30, "inner_iters": 2500, "levelset_rank": 5,
                 "levelset_inner": 600, "setup_block_calls": 500},
        "tiny": {"n": 12, "rank": 2, "eta_fraction": 0.2, "ranks": (2, 3, 4),
                 "outer_iters": 10, "inner_iters": 400, "levelset_rank": 2,
                 "levelset_inner": 50, "setup_block_calls": 20},
    }),
    "survey-io": SurveyIo({
        "full": {"grid": (16, 16, 10, 10), "nt": 512, "keep": 0.5, "rows": 1,
                 "config": {"f_min": 4.2, "f_max": 4.5, "dt": 0.004, "rank": 8,
                            "eta_fraction": 0.03, "alpha": 0.5, "outer_iters": 15,
                            "inner_iters": 40}},
        "tiny": {"grid": (4, 4, 4, 4), "nt": 64, "keep": 0.5, "rows": 1,
                 "config": {"f_min": 3.5, "f_max": 4.5, "dt": 0.004, "rank": 2,
                            "eta_fraction": 0.05, "alpha": 0.5, "outer_iters": 2,
                            "inner_iters": 20}},
    }),
}
