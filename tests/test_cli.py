import argparse
import csv
import math
from dataclasses import fields

import numpy as np
import pytest

from lrfill import cli, pipeline
from lrfill.cli import build_parser, main
from lrfill.fileio import read_mask, read_volume
from lrfill.pipeline import PipelineConfig, RunResult, mask_volume
from lrfill.reporting import SliceReport, write_report
from lrfill.synthgen import EventSpec, linear_events


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
    rc = main(["generate", "--kind", "events", "--spec", str(events_spec_file),
               "--out", str(out)])
    assert rc == 0
    vol = read_volume(out)
    assert vol.dims == (4, 3, 3, 2, 16)
    assert vol.axes == ("rx", "ry", "sx", "sy", "t")


def test_generate_plant(tmp_path, plant_spec_file):
    out = tmp_path / "plant.lrv"
    rc = main(["generate", "--kind", "plant", "--spec", str(plant_spec_file),
               "--out", str(out)])
    assert rc == 0
    vol = read_volume(out)
    assert vol.dims == (1, 12, 9)
    s = np.linalg.svd(vol.data[0], compute_uv=False)
    assert s[2] < 1e-10 * s[0]


@pytest.mark.parametrize("kind, spec", [
    ("plant", "p = 12\nq = 9\nrank = 2\ndecay_ration = 0.9\n"),
    ("plant", "p = 12\nq = 9\nrank = 2\nnoise_eps = 0.1\n"),
    ("events", "n_rx = 2\nn_ry = 2\nn_sx = 2\nn_sy = 2\nnt = 16\nwavelet_peak = 30\n"),
    ("plant", "p = 12\nrank = 2\n"),
    ("events", "n_rx = 2\nn_ry = 2\nn_sx = 2\nnt = 16\n"),
    ("plant", "p = 12\nq = 9\nrank = 2\np = 10\n"),
    ("events", "n_rx = 2\nn_ry = 2\nn_sx = 2\nn_sy = 2\nnt = 16\nnt = 32\n"),
    ("events", "n_rx = 2\nn_ry = 2\nn_sx = 2\nn_sy = 2\nnt = 16\nwavelet_peak_hz = 0\n"
               "event = 0.03, 0.0001, 0.0001, 1.0\n"),
    ("plant", "p = 12\nq = 9\nrank = 2\nprofile = geometric\ndecay_ratio = 0\n"),
    ("plant", "p = 12\nq = 9\nrank = 2\nprofile = geometric\ndecay_ratio = -2\n"),
], ids=["unknown-plant", "unknown-noise_eps", "unknown-events", "missing-plant",
        "missing-events", "repeated-plant", "repeated-events", "zero-wavelet-peak",
        "zero-decay-ratio", "negative-decay-ratio"])
def test_generate_bad_spec_writes_nothing(tmp_path, kind, spec):
    path = tmp_path / "bad.cfg"
    path.write_text(spec)
    out = tmp_path / "out.lrv"
    rc = main(["generate", "--kind", kind, "--spec", str(path), "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_generate_keeps_spec_defaults(tmp_path):
    # spacing_m, dt and wavelet_peak_hz may be left out of an events spec.
    path = tmp_path / "events.cfg"
    path.write_text("n_rx = 3\nn_ry = 2\nn_sx = 2\nn_sy = 2\nnt = 64\n"
                    "event = 0.10, 0.0001, 0.0001, 1.0\n")
    out = tmp_path / "vol.lrv"
    rc = main(["generate", "--kind", "events", "--spec", str(path), "--out", str(out)])
    assert rc == 0
    spec = EventSpec(n_rx=3, n_ry=2, n_sx=2, n_sy=2, spacing_m=25.0, nt=64, dt=0.004,
                     events=[(0.10, 0.0001, 0.0001, 1.0)], wavelet_peak_hz=20.0)
    np.testing.assert_array_equal(read_volume(out).data, linear_events(spec).data)


def test_subsample_and_evaluate(tmp_path, events_spec_file):
    vol_path = tmp_path / "vol.lrv"
    main(["generate", "--kind", "events", "--spec", str(events_spec_file),
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
    main(["generate", "--kind", "events", "--spec", str(events_spec_file),
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


def test_interpolate_via_config_file(tmp_path, events_spec_file):
    vol_path = tmp_path / "vol.lrv"
    main(["generate", "--kind", "events", "--spec", str(events_spec_file),
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
    main(["generate", "--kind", "events", "--spec", str(events_spec_file),
          "--out", str(vol_path)])
    rc = main(["interpolate", "--input", str(vol_path),
               "--output", str(tmp_path / "out.lrv"),
               "--rank", "2", "--eta-fraction", "0.05", "--alpha", "0.5",
               "--outer-iters", "4", "--inner-iters", "200",
               "--f-min", "3", "--f-max", "40", "--dt", "0.004", "--seed", "1"])
    assert rc == 0


def test_interpolate_bad_setting_stops_before_any_data(tmp_path, events_spec_file):
    vol_path = tmp_path / "vol.lrv"
    main(["generate", "--kind", "events", "--spec", str(events_spec_file),
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
    main(["generate", "--kind", "events", "--spec", str(events_spec_file),
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
    main(["generate", "--kind", "events", "--spec", str(events_spec_file),
          "--out", str(vol_path)])
    main(["subsample", "--input", str(vol_path), "--keep", "0.5", "--seed", "1",
          "--out-volume", str(tmp_path / "sub.lrv"), "--out-mask", str(tmp_path / "mask.lrm")])
    truth_spec = tmp_path / "truth.cfg"
    truth_spec.write_text(events_spec_file.read_text().replace(extent, changed))
    main(["generate", "--kind", "events", "--spec", str(truth_spec), "--out", str(truth_path)])
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


@pytest.mark.parametrize("key", ["input", "output", "truth", "mask"])
def test_interpolate_report_naming_a_data_file_stops_before_any_data(
        tmp_path, events_spec_file, monkeypatch, key):
    # The report is written after the run, so a report path that resolves
    # to a data file, however it is spelled, would replace that file.
    vol_path = tmp_path / "vol.lrv"
    main(["generate", "--kind", "events", "--spec", str(events_spec_file),
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
    main(["generate", "--kind", "events", "--spec", str(events_spec_file),
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
    main(["generate", "--kind", "events", "--spec", str(events_spec_file),
          "--out", str(vol_path)])
    rc = main(["svdscan", "--input", str(vol_path), "--freq", "30",
               "--dt", dt, "--out", str(tmp_path / "decay")])
    assert rc == 2
    assert not list(tmp_path.glob("*_srcpair.csv"))


@pytest.mark.parametrize("freq", ["nan", "inf", "-30"])
def test_svdscan_bad_freq_stops_before_any_data(tmp_path, monkeypatch, events_spec_file, freq):
    vol_path = tmp_path / "vol.lrv"
    main(["generate", "--kind", "events", "--spec", str(events_spec_file),
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


def test_missing_file_is_clean_error(tmp_path):
    rc = main(["evaluate", "--truth", str(tmp_path / "no.lrv"),
               "--estimate", str(tmp_path / "no.lrv")])
    assert rc == 2
