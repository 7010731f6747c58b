import argparse
import csv
import math
import os
from dataclasses import fields

import numpy as np
import pytest
from complex64 import write_complex

from lrfill import cli, pipeline
from lrfill.cli import build_parser, main
from lrfill.fileio import read_mask, read_volume, write_volume
from lrfill.pipeline import PipelineConfig, RunResult, mask_volume
from lrfill.reporting import SliceReport, write_report
from lrfill.synthgen import EventSpec, linear_events
from lrfill.volume import Volume


@pytest.fixture
def events_spec_file(tmp_path):
    path = tmp_path / "events.cfg"
    path.write_text(
        "n_rx = 4\nn_ry = 3\nn_sx = 3\nn_sy = 2\n"
        "spacing_m = 25.0\nnt = 16\ndt = 0.004\n"
        "wavelet_peak_hz = 80.0\n"
        "event = 0.030, 0.0001, 0.00005, 1.0\n"
        "event = 0.036, 0.00004, 0.00002, 0.5\n"
    )
    return path


@pytest.fixture
def plant_spec_file(tmp_path):
    path = tmp_path / "plant.cfg"
    path.write_text("p = 12\nq = 9\nrank = 2\nprofile = flat\nseed = 3\n")
    return path


def test_generate_events(tmp_path, events_spec_file):
    out = tmp_path / "vol.lrv"
    rc = main(["generate", "--spec", str(events_spec_file),
               "--out", str(out)])
    assert rc == 0
    vol = read_volume(out)
    assert vol.dims == (4, 3, 3, 2, 16)
    assert vol.axes == ("rx", "ry", "sx", "sy", "t")
    assert vol.data.dtype == np.float64  # real traces


def test_generate_plant(tmp_path, plant_spec_file, capsys):
    # Planted slices are library fixtures: generate has no mode that
    # writes one, and stops with exit 2 before writing anything.
    out = tmp_path / "plant.lrv"
    with pytest.raises(SystemExit) as stop:
        main(["generate", "--kind", "plant", "--spec", str(plant_spec_file),
              "--out", str(out)])
    assert stop.value.code == 2
    assert "--kind" in capsys.readouterr().err
    assert not list(tmp_path.glob("plant.lrv*"))


_EVENT_GRID = "n_rx = 2\nn_ry = 2\nn_sx = 2\nn_sy = 2\nnt = 16\n"
_AN_EVENT = "event = 0.03, 0.0001, 0.0001, 1.0\n"


@pytest.mark.parametrize("spec", [
    _EVENT_GRID + "wavelet_peak = 30\n",
    "n_rx = 2\nn_ry = 2\nn_sx = 2\nnt = 16\n",
    _EVENT_GRID + "nt = 32\n",
    _EVENT_GRID + "wavelet_peak_hz = 0\n" + _AN_EVENT,
    _EVENT_GRID + "dt = nan\n",
    _EVENT_GRID + "dt = inf\n",
    _EVENT_GRID + "spacing_m = nan\n" + _AN_EVENT,
    _EVENT_GRID + "spacing_m = inf\n" + _AN_EVENT,
    _EVENT_GRID + "wavelet_peak_hz = inf\n" + _AN_EVENT,
    _EVENT_GRID + "event = 0.03, nan, 0.0001, 1.0\n",
    _EVENT_GRID + "event = 0.03, 0.0001, 0.0001, inf\n",
], ids=["unknown-events", "missing-events", "repeated-events", "zero-wavelet-peak",
        "nan-dt", "inf-dt", "nan-spacing", "inf-spacing", "inf-peak", "nan-slowness",
        "inf-amplitude"])
def test_generate_bad_spec_writes_nothing(tmp_path, monkeypatch, spec):
    # A bad spec stops before any sample is computed.
    path = tmp_path / "bad.cfg"
    path.write_text(spec)
    out = tmp_path / "out.lrv"

    def no_volume(spec):
        raise AssertionError("a volume was computed")

    monkeypatch.setattr(cli, "linear_events", no_volume)
    rc = main(["generate", "--spec", str(path), "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_generate_keeps_spec_defaults(tmp_path):
    # spacing_m, dt and wavelet_peak_hz may be left out of an events spec.
    path = tmp_path / "events.cfg"
    path.write_text("n_rx = 3\nn_ry = 2\nn_sx = 2\nn_sy = 2\nnt = 64\n"
                    "event = 0.10, 0.0001, 0.0001, 1.0\n")
    out = tmp_path / "vol.lrv"
    rc = main(["generate", "--spec", str(path), "--out", str(out)])
    assert rc == 0
    spec = EventSpec(n_rx=3, n_ry=2, n_sx=2, n_sy=2, spacing_m=25.0, nt=64, dt=0.004,
                     events=[(0.10, 0.0001, 0.0001, 1.0)], wavelet_peak_hz=20.0)
    np.testing.assert_array_equal(read_volume(out).data, linear_events(spec).data)


def test_subsample_and_evaluate(tmp_path, events_spec_file):
    vol_path = tmp_path / "vol.lrv"
    main(["generate", "--spec", str(events_spec_file),
          "--out", str(vol_path)])
    sub_path = tmp_path / "sub.lrv"
    mask_path = tmp_path / "mask.lrm"
    rc = main(["subsample", "--input", str(vol_path), "--scheme", "jittered",
               "--keep", "0.5", "--seed", "3",
               "--out-volume", str(sub_path), "--out-mask", str(mask_path)])
    assert rc == 0
    mask = read_mask(mask_path)
    assert mask.grid.shape == (4, 3, 3, 2)
    sub = read_volume(sub_path)
    vol = read_volume(vol_path)
    assert np.all(sub.data[:, :, ~mask.grid[0, 0]] == 0)
    rc = main(["evaluate", "--truth", str(vol_path), "--estimate", str(sub_path)])
    assert rc == 0


def test_subsample_uniform(tmp_path, events_spec_file):
    # Uniform sampling of grid points of a 4-d grid: a canonical mask of
    # ceil(keep * N) points, and the input masked by it.
    vol_path = tmp_path / "vol.lrv"
    main(["generate", "--spec", str(events_spec_file),
          "--out", str(vol_path)])
    sub_path = tmp_path / "sub.lrv"
    mask_path = tmp_path / "mask.lrm"
    rc = main(["subsample", "--input", str(vol_path), "--scheme", "uniform",
               "--keep", "0.3", "--seed", "2",
               "--out-volume", str(sub_path), "--out-mask", str(mask_path)])
    assert rc == 0
    mask = read_mask(mask_path)
    assert mask.axes == ("rx", "ry", "sx", "sy")
    assert mask.grid.shape == (4, 3, 3, 2)
    assert mask.num_observed == math.ceil(0.3 * 72)
    np.testing.assert_array_equal(read_volume(sub_path).data,
                                  mask_volume(read_volume(vol_path), mask).data)


@pytest.mark.parametrize("flags", [
    ["--keep", "0"], ["--keep", "nan"], ["--keep", "1.5"],
    ["--scheme", "uniform", "--keep", "0"],
    ["--scheme", "uniform", "--per-axis"], ["--scheme", "uniform", "--axis", "receivers"],
], ids=["keep-0", "keep-nan", "keep-1.5", "uniform-keep-0", "uniform-per-axis",
        "uniform-receivers"])
def test_subsample_bad_mask_stops_before_any_data(tmp_path, events_spec_file, monkeypatch,
                                                  flags):
    # The mask is built from the header: a keep fraction outside (0, 1],
    # or a flag the uniform scheme does not take, exits 2 with no sample
    # read and nothing written.
    vol_path = tmp_path / "vol.lrv"
    main(["generate", "--spec", str(events_spec_file), "--out", str(vol_path)])

    def no_read(*args, **kwargs):
        raise AssertionError("the input was read")

    monkeypatch.setattr(cli, "read_volume", no_read)
    rc = main(["subsample", "--input", str(vol_path), *flags,
               "--out-volume", str(tmp_path / "sub.lrv"),
               "--out-mask", str(tmp_path / "mask.lrm")])
    assert rc == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["events.cfg", "vol.lrv"]


def test_interpolate_via_config_file(tmp_path, events_spec_file):
    vol_path = tmp_path / "vol.lrv"
    main(["generate", "--spec", str(events_spec_file),
          "--out", str(vol_path)])
    sub_path = tmp_path / "sub.lrv"
    mask_path = tmp_path / "mask.lrm"
    main(["subsample", "--input", str(vol_path), "--keep", "0.5", "--seed", "1",
          "--out-volume", str(sub_path), "--out-mask", str(mask_path)])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"input = {sub_path}\n"
        f"mask = {mask_path}\n"
        f"output = {tmp_path / 'out.lrv'}\n"
        f"report = {tmp_path / 'report.csv'}\n"
        f"truth = {vol_path}\n"
        "solver = pd\nrank = 3\neta_fraction = 0.02\nalpha = 0.5\n"
        "outer_iters = 8\ninner_iters = 400\nf_min = 3\nf_max = 70\n"
        "dt = 0.004\nseed = 0\n"
    )
    rc = main(["interpolate", "--config", str(cfg)])
    assert rc == 0
    out = read_volume(tmp_path / "out.lrv")
    assert out.dims == (4, 3, 3, 2, 16)
    assert (tmp_path / "report.csv").exists()


def test_interpolate_flag_overrides(tmp_path, events_spec_file):
    vol_path = tmp_path / "vol.lrv"
    main(["generate", "--spec", str(events_spec_file),
          "--out", str(vol_path)])
    rc = main(["interpolate", "--input", str(vol_path),
               "--output", str(tmp_path / "out.lrv"),
               "--rank", "2", "--eta-fraction", "0.05", "--alpha", "0.5",
               "--outer-iters", "4", "--inner-iters", "200",
               "--f-min", "3", "--f-max", "40", "--dt", "0.004", "--seed", "1"])
    assert rc == 0


def test_interpolate_bad_setting_stops_before_any_data(tmp_path, events_spec_file):
    vol_path = tmp_path / "vol.lrv"
    main(["generate", "--spec", str(events_spec_file),
          "--out", str(vol_path)])
    rc = main(["interpolate", "--input", str(vol_path),
               "--output", str(tmp_path / "out.lrv"),
               "--report", str(tmp_path / "report.csv"),
               "--rank", "2", "--alpha", "1.5"])
    assert rc == 2
    assert not (tmp_path / "out.lrv").exists()
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("flag, value", [("--dt", "0"), ("--rank", "0"), ("--seed", "-1")])
def test_interpolate_bad_dt_or_rank_stops_before_any_data(tmp_path, events_spec_file,
                                                          flag, value):
    vol_path = tmp_path / "vol.lrv"
    main(["generate", "--spec", str(events_spec_file),
          "--out", str(vol_path)])
    # A repeated flag takes its last value.
    rc = main(["interpolate", "--input", str(vol_path),
               "--output", str(tmp_path / "out.lrv"),
               "--report", str(tmp_path / "report.csv"), "--rank", "2", flag, value])
    assert rc == 2
    assert not (tmp_path / "out.lrv").exists()
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("extent, changed", [("n_rx = 4", "n_rx = 5"), ("nt = 16", "nt = 32")])
def test_interpolate_mismatched_truth_stops_before_any_solve(tmp_path, events_spec_file,
                                                             monkeypatch, extent, changed):
    vol_path, truth_path = tmp_path / "vol.lrv", tmp_path / "truth.lrv"
    main(["generate", "--spec", str(events_spec_file),
          "--out", str(vol_path)])
    main(["subsample", "--input", str(vol_path), "--keep", "0.5", "--seed", "1",
          "--out-volume", str(tmp_path / "sub.lrv"), "--out-mask", str(tmp_path / "mask.lrm")])
    truth_spec = tmp_path / "truth.cfg"
    truth_spec.write_text(events_spec_file.read_text().replace(extent, changed))
    main(["generate", "--spec", str(truth_spec), "--out", str(truth_path)])
    solves = []
    solve = pipeline.interpolate_slice

    def counting(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(pipeline, "interpolate_slice", counting)
    rc = main(["interpolate", "--input", str(vol_path), "--truth", str(truth_path),
               "--mask", str(tmp_path / "mask.lrm"),
               "--output", str(tmp_path / "out.lrv"),
               "--report", str(tmp_path / "report.csv"), "--rank", "2",
               "--outer-iters", "2", "--inner-iters", "50"])
    assert rc == 2
    assert solves == []
    assert not (tmp_path / "out.lrv").exists()
    assert not (tmp_path / "report.csv").exists()


def test_interpolate_output_naming_the_mask_stops_before_any_data(
        tmp_path, events_spec_file, monkeypatch):
    # The output replaces the file it names when the run ends, so an output
    # path that resolves to the mask, however it is spelled, would replace
    # the mask with a volume.
    vol_path = tmp_path / "vol.lrv"
    main(["generate", "--spec", str(events_spec_file), "--out", str(vol_path)])
    mask = tmp_path / "mask.lrm"
    main(["subsample", "--input", str(vol_path), "--keep", "0.5", "--seed", "1",
          "--out-volume", str(tmp_path / "sub.lrv"), "--out-mask", str(mask)])
    before = mask.read_bytes()
    reads = []
    preadv = os.preadv

    def counting(*args):
        reads.append(1)
        return preadv(*args)

    monkeypatch.setattr(os, "preadv", counting)
    (tmp_path / "sub").mkdir()
    report = tmp_path / "report.csv"
    rc = main(["interpolate", "--input", str(tmp_path / "sub.lrv"), "--mask", str(mask),
               "--output", str(tmp_path / "sub" / ".." / "mask.lrm"),
               "--report", str(report), "--rank", "2"])
    assert rc == 2
    assert reads == []
    assert mask.read_bytes() == before
    assert not report.exists()
    assert not list(tmp_path.glob("**/*.part"))


@pytest.mark.parametrize("schedule, error", [
    (None, "missing required keys ['rank']"),
    ("3:30,70:100", "unknown config key 'rank_schedule'"),
], ids=["no-rank", "rank-schedule"])
def test_interpolate_without_a_rank_stops_before_any_data(tmp_path, events_spec_file,
                                                          monkeypatch, capsys, schedule, error):
    # Every bin is solved at the one rank the run is given: a run without
    # it, or with the rank schedule of an old config file, reads no data.
    vol_path = tmp_path / "vol.lrv"
    main(["generate", "--spec", str(events_spec_file), "--out", str(vol_path)])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"output = {tmp_path / 'out.lrv'}\n"
                   + (f"rank_schedule = {schedule}\n" if schedule else ""))
    reads = []
    preadv = os.preadv

    def counting(*args):
        reads.append(1)
        return preadv(*args)

    monkeypatch.setattr(os, "preadv", counting)
    capsys.readouterr()
    rc = main(["interpolate", "--config", str(cfg), "--input", str(vol_path),
               "--report", str(tmp_path / "report.csv")])
    assert rc == 2
    assert error in capsys.readouterr().err
    assert reads == []
    assert not list(tmp_path.glob("out.lrv*"))
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("key", ["input", "output", "truth", "mask"])
def test_interpolate_report_naming_a_data_file_stops_before_any_data(
        tmp_path, events_spec_file, monkeypatch, key):
    # The report is written after the run, so a report path that resolves
    # to a data file, however it is spelled, would replace that file.
    vol_path = tmp_path / "vol.lrv"
    main(["generate", "--spec", str(events_spec_file),
          "--out", str(vol_path)])
    main(["subsample", "--input", str(vol_path), "--keep", "0.5", "--seed", "1",
          "--out-volume", str(tmp_path / "sub.lrv"), "--out-mask", str(tmp_path / "mask.lrm")])
    paths = {"input": tmp_path / "sub.lrv", "output": tmp_path / "out.lrv",
             "truth": vol_path, "mask": tmp_path / "mask.lrm"}
    paths["output"].write_bytes(b"earlier")
    before = {name: path.read_bytes() for name, path in paths.items()}
    reads = []
    read = pipeline.read_volume

    def counting(*args, **kwargs):
        reads.append(1)
        return read(*args, **kwargs)

    monkeypatch.setattr(pipeline, "read_volume", counting)
    (tmp_path / "sub").mkdir()
    report = tmp_path / "sub" / ".." / paths[key].name
    rc = main(["interpolate", *(f"--{name}={path}" for name, path in paths.items()),
               f"--report={report}", "--rank", "2"])
    assert rc == 2
    assert reads == []
    assert {name: path.read_bytes() for name, path in paths.items()} == before


def test_interpolate_flags_are_the_config_fields(monkeypatch):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in sub.choices["interpolate"]._actions}
    assert dests - {"help", "config"} == {f.name for f in fields(PipelineConfig)}

    seen = []

    def fake_run(cfg):
        seen.append(cfg)
        return RunResult()

    monkeypatch.setattr(cli, "run_interpolation", fake_run)
    rc = main(["interpolate", "--input", "a.lrv", "--output", "b.lrv", "--rank", "2",
               "--outer-tol", "1e-3"])
    assert rc == 0
    assert seen[0].outer_tol == 1e-3


def test_svdscan(tmp_path, events_spec_file):
    vol_path = tmp_path / "vol.lrv"
    main(["generate", "--spec", str(events_spec_file),
          "--out", str(vol_path)])
    prefix = tmp_path / "decay"
    rc = main(["svdscan", "--input", str(vol_path), "--freq", "30",
               "--dt", "0.004", "--out", str(prefix)])
    assert rc == 0
    for mode in ("srcpair", "recsrcx"):
        path = tmp_path / f"decay_{mode}.csv"
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        sigmas = [float(r["sigma_normalized"]) for r in rows]
        assert sigmas[0] == pytest.approx(1.0)
        assert all(b <= a + 1e-12 for a, b in zip(sigmas, sigmas[1:]))


@pytest.mark.parametrize("dt", ["0", "-0.004"])
def test_svdscan_bad_dt_stops_before_any_data(tmp_path, events_spec_file, dt):
    vol_path = tmp_path / "vol.lrv"
    main(["generate", "--spec", str(events_spec_file),
          "--out", str(vol_path)])
    rc = main(["svdscan", "--input", str(vol_path), "--freq", "30",
               "--dt", dt, "--out", str(tmp_path / "decay")])
    assert rc == 2
    assert not list(tmp_path.glob("*_srcpair.csv"))


@pytest.mark.parametrize("freq", ["nan", "inf", "-30"])
def test_svdscan_bad_freq_stops_before_any_data(tmp_path, monkeypatch, events_spec_file, freq):
    vol_path = tmp_path / "vol.lrv"
    main(["generate", "--spec", str(events_spec_file),
          "--out", str(vol_path)])

    def no_read(*args, **kwargs):
        raise AssertionError("the input was read")

    monkeypatch.setattr(cli, "read_volume", no_read)
    rc = main(["svdscan", "--input", str(vol_path), "--freq", freq,
               "--dt", "0.004", "--out", str(tmp_path / "decay")])
    assert rc == 2
    assert not list(tmp_path.glob("*.csv"))


def test_compare(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    rows = [SliceReport(freq_hz=5.0, rank=3, snr_db=20.0, wall_s=1.0),
            SliceReport(freq_hz=10.0, rank=3, snr_db=22.0, wall_s=1.2)]
    write_report(a, rows)
    write_report(b, rows)
    out = tmp_path / "diff.csv"
    rc = main(["compare", "--a", str(a), "--b", str(b), "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        diff = list(csv.DictReader(fh))
    assert len(diff) == 2
    assert float(diff[0]["snr_delta_db"]) == 0.0


@pytest.mark.parametrize("text", ["a,b\n1,2\n", "freq_hz,rank\n5.0,3\n"],
                         ids=["other-columns", "some-columns"])
def test_compare_refuses_a_csv_that_is_not_a_report(tmp_path, capsys, text):
    # A CSV without every report column exits 2 with an error that names
    # it, and writes no comparison.
    a = tmp_path / "a.csv"
    write_report(a, [SliceReport(freq_hz=5.0, rank=3, snr_db=20.0, wall_s=1.0)])
    b = tmp_path / "b.csv"
    b.write_text(text)
    out = tmp_path / "diff.csv"
    rc = main(["compare", "--a", str(a), "--b", str(b), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "b.csv: not a run report" in err
    assert "snr_db" in err
    assert not out.exists()


def test_missing_file_is_clean_error(tmp_path):
    rc = main(["evaluate", "--truth", str(tmp_path / "no.lrv"),
               "--estimate", str(tmp_path / "no.lrv")])
    assert rc == 2


def _complex_twin(path, twin, code=0):
    """Write the samples of the LRV1 file at ``path`` to ``twin`` as
    complex ones of scalar code ``code``: complex128 (0) or complex64 (1)."""
    vol = read_volume(path)
    write_complex(twin, vol.axes, vol.data, code)


# Axis orders of a float64 file that every command refuses at its header.
REFUSED_ORDERS = {"time-first": ("t", "rx", "ry", "sx", "sy"),
                  "permuted": ("sy", "rx", "t", "sx", "ry")}


def _refused_twin(path, twin, case):
    """Write the samples of the LRV1 file at ``path`` to ``twin`` as the
    ``case`` of a file that every command refuses at its header: complex
    samples (``complex128``, ``complex64``) or float64 ones in another axis
    order (a key of ``REFUSED_ORDERS``); the part of the error it gives."""
    if case in REFUSED_ORDERS:
        order = REFUSED_ORDERS[case]
        write_volume(read_volume(path).reordered(order), twin)
        return f"{twin}: axes {order}"
    code = {"complex128": 0, "complex64": 1}[case]
    _complex_twin(path, twin, code)
    return f"scalar code {code}: complex samples"


@pytest.mark.parametrize("freq", ["30", "125"], ids=["30Hz", "nyquist"])
def test_svdscan_picks_the_bin_of_real_traces_and_refuses_complex_ones(
        tmp_path, events_spec_file, capsys, freq):
    # The bin nearest --freq among 0 Hz to Nyquist; a file of complex
    # samples along t is not real traces and exits 2 with no output.
    real, twin = tmp_path / "real.lrv", tmp_path / "twin.lrv"
    main(["generate", "--spec", str(events_spec_file), "--out", str(real)])
    _complex_twin(real, twin)
    capsys.readouterr()
    rc = main(["svdscan", "--input", str(real), "--freq", freq, "--dt", "0.004",
               "--out", str(tmp_path / "real")])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("bin 8 (125.00 Hz)" if freq == "125" else "bin 2 (31.25 Hz)")
               for line in lines)
    rc = main(["svdscan", "--input", str(twin), "--freq", freq, "--dt", "0.004",
               "--out", str(tmp_path / "twin")])
    assert rc == 2
    assert not list(tmp_path.glob("twin_*.csv"))


def test_subsample_writes_the_kind_it_read(tmp_path, events_spec_file):
    # A float64 file of traces gives a float64 file, scalar code 2.
    real, sub = tmp_path / "real.lrv", tmp_path / "sub.lrv"
    main(["generate", "--spec", str(events_spec_file), "--out", str(real)])
    rc = main(["subsample", "--input", str(real), "--keep", "0.5", "--seed", "3",
               "--out-volume", str(sub), "--out-mask", str(tmp_path / "mask.lrm")])
    assert rc == 0
    assert sub.read_bytes()[5] == 2
    assert read_volume(sub).data.dtype == np.float64


@pytest.mark.parametrize("case", ["complex128", "complex64", "time-first", "permuted"])
@pytest.mark.parametrize("command, role", [("evaluate", "truth"), ("evaluate", "estimate"),
                                           ("subsample", "input"), ("svdscan", "input")])
def test_complex_file_stops_the_command_at_its_header(tmp_path, events_spec_file,
                                                      monkeypatch, capsys, command, role,
                                                      case):
    # A file of complex samples, or of float64 ones in an axis order other
    # than trace-major, given to any command in any role, exits 2 at its
    # header: no sample of any file is read and nothing is written.
    # (interpolate: test_interpolate_bad_header_stops_before_any_data.)
    good, bad = tmp_path / "good.lrv", tmp_path / "bad.lrv"
    main(["generate", "--spec", str(events_spec_file), "--out", str(good)])
    error = _refused_twin(good, bad, case)
    files = {name: str(good) for name in ("truth", "estimate", "input")}
    files[role] = str(bad)
    out = tmp_path / "out"
    argv = {"evaluate": ["--truth", files["truth"], "--estimate", files["estimate"]],
            "subsample": ["--input", files["input"], "--out-volume", f"{out}.lrv",
                          "--out-mask", f"{out}.lrm"],
            "svdscan": ["--input", files["input"], "--freq", "30", "--out", str(out)]}[command]
    reads = _count_reads(monkeypatch)
    capsys.readouterr()
    assert main([command, *argv]) == 2
    assert reads == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.lrv", "events.cfg", "good.lrv"]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert error in captured.err


def _count_reads(monkeypatch):
    """The list that each ``os.preadv`` call, a read of payload bytes,
    appends to."""
    reads = []
    preadv = os.preadv

    def counting(*args):
        reads.append(1)
        return preadv(*args)

    monkeypatch.setattr(os, "preadv", counting)
    return reads


def _bad_headers(tmp_path, good):
    """``(input, truth, error)`` of each case that the run's header check
    refuses: the names of its files, written beside the float64 volume at
    ``good``, and a part of the error it gives.  The truth is ``None``
    where the case gives none."""
    vol = read_volume(good)
    cases = {}
    for kind in ("complex128", "complex64", *REFUSED_ORDERS):
        twin = tmp_path / f"{kind}.lrv"
        error = _refused_twin(good, twin, kind)
        cases[f"{kind}-input"] = (twin.name, None, error)
        cases[f"{kind}-truth"] = (good.name, twin.name, error)
    write_volume(Volume(vol.axes, vol.data[..., :0]), tmp_path / "nt0.lrv")
    write_volume(Volume(vol.axes, vol.data[:, :0]), tmp_path / "empty.lrv")
    cases["nt0-input"] = ("nt0.lrv", None, "at least 1")
    cases["zero-extent-input"] = ("empty.lrv", None, "at least 1")
    return cases


@pytest.mark.parametrize("case", ["complex128-input", "complex64-input", "complex128-truth",
                                  "complex64-truth", "time-first-input", "time-first-truth",
                                  "permuted-input", "permuted-truth", "nt0-input",
                                  "zero-extent-input"])
def test_interpolate_bad_header_stops_before_any_data(tmp_path, events_spec_file,
                                                      monkeypatch, capsys, case):
    # Complex samples or an axis order other than trace-major in the input
    # or the truth, or an extent of 0, stop the run at the headers: exit 2,
    # no sample read, no output or report, nothing on stdout.
    good = tmp_path / "vol.lrv"
    main(["generate", "--spec", str(events_spec_file), "--out", str(good)])
    input_name, truth_name, error = _bad_headers(tmp_path, good)[case]
    reads = _count_reads(monkeypatch)
    capsys.readouterr()
    truth = ["--truth", str(tmp_path / truth_name)] if truth_name else []
    rc = main(["interpolate", "--input", str(tmp_path / input_name), *truth,
               "--output", str(tmp_path / "out.lrv"), "--report", str(tmp_path / "r.csv"),
               "--rank", "2"])
    assert rc == 2
    assert reads == []
    assert not list(tmp_path.glob("out.lrv*")) and not (tmp_path / "r.csv").exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert error in captured.err
    if "at least 1" not in error:
        assert "see README" in captured.err


def test_evaluate_checks_both_extents_before_reading(tmp_path, events_spec_file,
                                                     monkeypatch, capsys):
    # A truth and an estimate of different extents exit 2 from their
    # headers, before a sample of either is read.
    good, short = tmp_path / "good.lrv", tmp_path / "short.lrv"
    main(["generate", "--spec", str(events_spec_file), "--out", str(good)])
    vol = read_volume(good)
    write_volume(Volume(vol.axes, vol.data[..., :8]), short)
    reads = _count_reads(monkeypatch)
    capsys.readouterr()
    assert main(["evaluate", "--truth", str(good), "--estimate", str(short)]) == 2
    assert reads == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "estimate dims (4, 3, 3, 2, 8) != truth dims (4, 3, 3, 2, 16)" in captured.err
