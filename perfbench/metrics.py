"""Every metric the benchmark reports, with its unit, and how it is derived.

``end_to_end`` metrics come from untraced units; ``per_layer`` metrics from
traced ones.  ``BENCHMARK.json`` names the subset that the final JSON line
of a run carries: the metrics defined on every workload.  The others are
printed and saved with the run's results for the workloads they apply to.
"""

from __future__ import annotations

import statistics

import numpy as np

from kernels import op_call

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "solve_s": "s", "teardown_s": "s",
    "slice_s_p50": "s", "slice_s_p90": "s", "slice_s_n": "count",
    "levelset_s": "s", "peak_rss_mb": "MB", "overall_snr_db": "dB",
    "budget_miss_frac": "ratio", "failed_frac": "ratio",
}

# Span names, as <module>.<function>; each gets .calls, .s and .self_s.
SPAN_NAMES = (
    "cli.main",
    "pipeline.run_interpolation", "pipeline.mask_volume",
    "fileio.read_volume", "fileio.read_mask", "fileio.write_volume",
    "volume.dft_time_axis", "volume.idft_freq_axis",
    "altmin.interpolate_slice",
    "pdsolver.solve_factor",
    "levelset.solve_levelset", "levelset.value_function",
    "reporting.snr_db", "reporting.write_report",
    "transforms.forward", "transforms.adjoint",
)
LAYERS = ("cli", "pipeline", "fileio", "volume", "altmin", "pdsolver",
          "levelset", "reporting", "transforms")

PER_LAYER = {}
for _name in SPAN_NAMES:
    PER_LAYER.update({f"{_name}.calls": "count", f"{_name}.s": "s",
                      f"{_name}.self_s": "s"})
PER_LAYER.update({f"{layer}.self_s": "s" for layer in LAYERS})
PER_LAYER.update({
    "fileio.read_volume.bytes": "B", "fileio.write_volume.bytes": "B",
    "transforms.forward.us_per_call": "us", "transforms.adjoint.us_per_call": "us",
    "transforms.bytes_computed": "B",
    "pdsolver.iters": "count", "pdsolver.us_per_iter": "us",
    "pdsolver.converged_ratio": "ratio",
    "altmin.outer_iters": "count", "altmin.outer_capped_ratio": "ratio",
    "levelset.inner_iters": "count",
    "trace.wall_s": "s", "trace.unaccounted_s": "s",
    "budget_miss_frac": "ratio", "failed_frac": "ratio",
    # computed from shapes and counts, not measured: see kernels.py
    "computed.op.bytes_per_call": "B", "computed.op.flops_per_call": "flop",
    "computed.pd_iter.bytes": "B", "computed.pd_iter.flops": "flop",
    "computed.transforms.gb_per_s": "GB/s", "computed.pdsolver.gflop_per_s": "GFLOP/s",
})
del _name


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end(units, peak_rss_mb) -> dict:
    """Medians over units; slice times pooled over units."""
    def med(attr):
        vals = [getattr(u, attr) for u in units if getattr(u, attr) is not None]
        return statistics.median(vals) if vals else None

    out = {
        "setup_s": statistics.median(s for u in units for s in u.setup_s),
        "wall_s": med("wall_s"),
        "solve_s": med("solve_s"),
        "teardown_s": med("teardown_s"),
        "levelset_s": med("levelset_s"),
        "peak_rss_mb": peak_rss_mb,
        "overall_snr_db": med("snr_db"),
        **solve_outcomes(units),
    }
    slices = [s for u in units for s in u.slice_s]
    if len(units[0].slice_s) > 1:  # several slices per unit
        out.update(slice_s_p50=percentile(slices, 50), slice_s_p90=percentile(slices, 90),
                   slice_s_n=len(slices))
    return {k: v for k, v in out.items() if v is not None}


def solve_outcomes(units) -> dict:
    """Shares of attempted solves that missed their residual budget or failed."""
    attempted = max(sum(u.attempted for u in units), 1)
    return {"budget_miss_frac": sum(u.budget_miss for u in units) / attempted,
            "failed_frac": sum(u.failed for u in units) / attempted}


def per_layer(tracer, n_units, traced_wall_s) -> dict:
    """Per-unit means of the traced units' span and counter totals."""
    n = max(n_units, 1)
    names = tracer.by_name()
    c = tracer.counters
    out = {}
    for name in SPAN_NAMES:
        rec = names.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        out[f"{name}.calls"] = rec["calls"] / n
        out[f"{name}.s"] = rec["s"] / n
        out[f"{name}.self_s"] = rec["self_s"] / n
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(rec["self_s"] for name, rec in names.items()
                                     if name.split(".")[0] == layer) / n

    def ratio(a, b):
        return a / b if b else 0.0

    fwd, adj = names.get("transforms.forward"), names.get("transforms.adjoint")
    op_bytes = 0
    op_calls = 0
    for name in ("transforms.forward", "transforms.adjoint"):
        for op, (calls, _) in tracer.hot.get(name, {}).items():
            op_bytes += calls * op_call(*op.factor_shape, op.matricization is None)["bytes"]
            op_calls += calls
    op_s = sum(r["s"] for r in (fwd, adj) if r)
    iters = c.get("pdsolver.iters", 0)
    sf = names.get("pdsolver.solve_factor", {"calls": 0, "s": 0.0})
    isl = names.get("altmin.interpolate_slice", {"calls": 0})
    out.update({
        "fileio.read_volume.bytes": c.get("fileio.read_volume.bytes", 0) / n,
        "fileio.write_volume.bytes": c.get("fileio.write_volume.bytes", 0) / n,
        "transforms.forward.us_per_call": 1e6 * ratio(fwd["s"], fwd["calls"]) if fwd else 0.0,
        "transforms.adjoint.us_per_call": 1e6 * ratio(adj["s"], adj["calls"]) if adj else 0.0,
        "transforms.bytes_computed": op_bytes / n,
        "pdsolver.iters": iters / n,
        "pdsolver.us_per_iter": 1e6 * ratio(sf["s"], iters),
        "pdsolver.converged_ratio": ratio(c.get("pdsolver.converged", 0), sf["calls"]),
        "altmin.outer_iters": c.get("altmin.outer_iters", 0) / n,
        "altmin.outer_capped_ratio": ratio(c.get("altmin.outer_capped", 0), isl["calls"]),
        "levelset.inner_iters": c.get("levelset.inner_iters", 0) / n,
        "trace.wall_s": traced_wall_s / n,
        "trace.unaccounted_s": (traced_wall_s - tracer.covered_seconds()) / n,
        "computed.op.bytes_per_call": ratio(op_bytes, op_calls),
        "computed.op.flops_per_call": 0,
        "computed.pd_iter.bytes": ratio(c.get("computed.pd.bytes", 0), iters),
        "computed.pd_iter.flops": ratio(c.get("computed.pd.flops", 0), iters),
        "computed.transforms.gb_per_s": ratio(op_bytes, op_s) / 1e9,
        "computed.pdsolver.gflop_per_s": ratio(c.get("computed.pd.flops", 0), sf["s"]) / 1e9,
    })
    return out


def tidy(value, unit):
    """Whole counts, bytes and flops as ints; everything else as measured."""
    if unit in ("count", "B", "flop") and float(value).is_integer():
        return int(value)
    return value
