"""Command line interface.

Subcommands: generate, subsample, interpolate, evaluate, svdscan, compare.
Run ``lrfill <command> --help`` for per-command flags.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields

import numpy as np

from .fileio import read_canonical_header, read_volume, write_mask, write_volume
from .pipeline import (
    PipelineConfig,
    config_from_dict,
    load_config,
    mask_volume,
    parse_kv_file,
    run_interpolation,
)
from .reporting import compare_reports, read_report, snr_db, write_comparison
from .sampling import SamplingMask, jittered_volume_mask, uniform_entry_mask
from .synthgen import EventSpec, linear_events
from .transforms import MODES, Matricization, singular_decay
from .volume import dft_time_axis, freq_values_hz


def _parse_floats(text, n, what):
    parts = [float(v) for v in text.split(",")]
    if len(parts) != n:
        raise ValueError(f"{what} needs {n} comma-separated values, got {text!r}")
    return parts


def load_event_spec(path) -> EventSpec:
    """The events spec of ``generate``: its keys are the fields of
    :class:`EventSpec`, and its events come from repeated ``event`` keys."""
    raw = parse_kv_file(path)
    events_raw = raw.pop("event", [])
    if isinstance(events_raw, str):
        events_raw = [events_raw]
    events = [tuple(_parse_floats(e, 4, "event")) for e in events_raw]
    return config_from_dict({"spacing_m": "25.0", "dt": "0.004", **raw}, EventSpec,
                            events=events)


def cmd_generate(args) -> int:
    # A bad spec stops before anything is written.
    spec = load_event_spec(args.spec)
    vol = linear_events(spec)
    write_volume(vol, args.out)
    print(f"wrote {len(spec.events)}-event volume {vol.dims} to {args.out}")
    return 0


def cmd_subsample(args) -> int:
    # The mask is built from the header, so a bad flag stops before any
    # sample is read.
    n_rx, n_ry, n_sx, n_sy, _ = read_canonical_header(args.input)
    if args.scheme == "jittered":
        mask = jittered_volume_mask(n_rx, n_ry, n_sx, n_sy, args.keep,
                                    seed=args.seed, axis=args.axis,
                                    per_axis=args.per_axis)
    elif args.per_axis or args.axis != "sources":
        raise ValueError("--scheme uniform draws grid points of the source pairs; "
                         "it takes neither --per-axis nor --axis receivers")
    else:
        flat = uniform_entry_mask(n_rx * n_ry, n_sx * n_sy, args.keep, seed=args.seed)
        acq = Matricization("srcpair", n_rx, n_ry, n_sx, n_sy)
        mask = SamplingMask(acq.fold(flat.grid), axes=("rx", "ry", "sx", "sy"))
    vol = read_volume(args.input)
    write_mask(mask, args.out_mask)
    write_volume(mask_volume(vol, mask), args.out_volume)
    kept = mask.num_observed / mask.grid.size
    print(f"kept {mask.num_observed}/{mask.grid.size} grid points ({kept:.1%})")
    return 0


def cmd_interpolate(args) -> int:
    overrides = {f.name: getattr(args, f.name) for f in fields(PipelineConfig)}
    if args.config:
        cfg = load_config(args.config, overrides)
    else:
        cfg = config_from_dict(overrides)
    result = run_interpolation(cfg)
    ok = len(result.rows) - result.failed
    print(f"solved {ok}/{len(result.rows)} slices in {result.wall_s:.1f}s")
    if not math.isnan(result.overall_snr_db):
        print(f"overall SNR {result.overall_snr_db:.2f} dB")
    if result.failed:
        print(f"{result.failed} slices failed", file=sys.stderr)
        return 1
    return 0


def cmd_evaluate(args) -> int:
    # Both headers, and their extents, are checked before either file's
    # samples are read.
    dims = read_canonical_header(args.truth)
    estimate_dims = read_canonical_header(args.estimate)
    if estimate_dims != dims:
        raise ValueError(f"estimate dims {estimate_dims} != truth dims {dims}")
    value = snr_db(read_volume(args.truth).data, read_volume(args.estimate).data)
    print(f"SNR {value:.2f} dB")
    return 0


def cmd_svdscan(args) -> int:
    if not (math.isfinite(args.dt) and args.dt > 0.0):
        raise ValueError("--dt must be a positive finite number")
    if not (math.isfinite(args.freq) and args.freq >= 0.0):
        raise ValueError("--freq must be a finite number >= 0")
    read_canonical_header(args.input)
    vol = read_volume(args.input)
    freqs = freq_values_hz(vol.dims[-1], args.dt)
    k = int(np.argmin(np.abs(freqs - args.freq)))
    tensor = dft_time_axis(vol).data[..., k]
    for mode in MODES:
        matric = Matricization(mode, *tensor.shape)
        decay = singular_decay(matric.unfold(tensor))
        path = f"{args.out}_{mode}.csv"
        with open(path, "w") as fh:
            fh.write("index,sigma_normalized\n")
            for i, s in enumerate(decay):
                fh.write(f"{i},{s:.12e}\n")
        print(f"bin {k} ({freqs[k]:.2f} Hz) {mode}: wrote {path}")
    return 0


def cmd_compare(args) -> int:
    rows_a, _ = read_report(args.a)
    rows_b, _ = read_report(args.b)
    rows = compare_reports(rows_a, rows_b)
    if args.out:
        write_comparison(args.out, rows)
    deltas = [r["snr_delta_db"] for r in rows if not math.isnan(r["snr_delta_db"])]
    times = [(r["wall_s_a"], r["wall_s_b"]) for r in rows]
    print(f"{len(rows)} shared frequencies")
    if deltas:
        print(f"mean SNR delta (a - b): {np.mean(deltas):+.2f} dB")
    if times:
        ta = sum(t[0] for t in times)
        tb = sum(t[1] for t in times)
        print(f"total wall time: a = {ta:.1f}s, b = {tb:.1f}s")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lrfill",
                                     description="Low-rank frequency-slice interpolation")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize a plane-event volume")
    g.add_argument("--spec", required=True, help="flat key=value spec file")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("subsample", help="mask a volume")
    s.add_argument("--input", required=True)
    s.add_argument("--scheme", choices=("jittered", "uniform"), default="jittered")
    s.add_argument("--keep", type=float, default=0.2)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--axis", choices=("sources", "receivers"), default="sources")
    s.add_argument("--per-axis", action="store_true")
    s.add_argument("--out-volume", required=True)
    s.add_argument("--out-mask", required=True)
    s.set_defaults(func=cmd_subsample)

    i = sub.add_parser("interpolate", help="run the interpolation pipeline")
    i.add_argument("--config", help="flat key=value config file")
    # One flag per config key, parsed and checked like the file's values.
    for f in fields(PipelineConfig):
        i.add_argument("--" + f.name.replace("_", "-"))
    i.set_defaults(func=cmd_interpolate)

    e = sub.add_parser("evaluate", help="SNR between two volumes")
    e.add_argument("--truth", required=True)
    e.add_argument("--estimate", required=True)
    e.set_defaults(func=cmd_evaluate)

    v = sub.add_parser("svdscan", help="singular-value decay of one bin, both unfoldings")
    v.add_argument("--input", required=True)
    v.add_argument("--freq", type=float, required=True, help="Hz")
    v.add_argument("--dt", type=float, default=0.004)
    v.add_argument("--out", required=True, help="output path prefix")
    v.set_defaults(func=cmd_svdscan)

    c = sub.add_parser("compare", help="diff two run reports")
    c.add_argument("--a", required=True)
    c.add_argument("--b", required=True)
    c.add_argument("--out")
    c.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
