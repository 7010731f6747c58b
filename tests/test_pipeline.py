import math
import os
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from complex64 import write_in_order, write_mask_raw

from lrfill import pipeline
from lrfill.fileio import read_mask, read_volume, write_mask, write_volume
from lrfill.pipeline import (
    PipelineConfig,
    config_from_dict,
    config_parser,
    load_config,
    mask_volume,
    parse_kv_file,
    run_interpolation,
)
from lrfill.reporting import read_report, snr_db
from lrfill.sampling import SamplingMask, jittered_volume_mask
from lrfill.synthgen import EventSpec, linear_events
from lrfill.volume import CANONICAL_AXES, SPATIAL_AXES, AxisLayoutError, dft_time_axis

# The order of the files lrfill wrote before it wrote trace-major; a run
# refuses them at the header.
TIME_FIRST = ("t", "rx", "ry", "sx", "sy")



def small_volume():
    spec = EventSpec(n_rx=4, n_ry=3, n_sx=3, n_sy=2, spacing_m=25.0,
                     nt=16, dt=0.004,
                     events=[(0.030, 0.0001, 0.00005, 1.0)],
                     wavelet_peak_hz=80.0)
    return linear_events(spec)


def full_mask(dims):
    return SamplingMask(np.ones(dims, dtype=bool), axes=("rx", "ry", "sx", "sy"))


class TestConfigParsing:
    def test_kv_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "input = a.lrv\n"
            "output = b.lrv   # trailing comment\n"
            "rank = 7\n"
            "\n"
            "eta_fraction = 0.05\n"
        )
        raw = parse_kv_file(path)
        assert raw == {"input": "a.lrv", "output": "b.lrv", "rank": "7",
                       "eta_fraction": "0.05"}

    def test_kv_bad_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just words\n")
        with pytest.raises(ValueError):
            parse_kv_file(path)

    def test_unknown_key_rejected(self):
        # The run always unfolds recsrcx and solves every bin at one rank:
        # an old file's matricization or rank_schedule key is unknown.
        for key, value in (("tpyo", "1"), ("matricization", "srcpair"),
                           ("rank_schedule", "3:30,70:100")):
            with pytest.raises(ValueError, match="unknown config key"):
                config_from_dict({"input": "a", "output": "b", "rank": "3", key: value})

    def test_overrides_take_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("input = a.lrv\noutput = b.lrv\nrank = 3\nseed = 1\n")
        cfg = load_config(path, {"seed": 9, "solver": "levelset"})
        assert cfg.seed == 9
        assert cfg.solver == "levelset"
        assert cfg.rank == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(input="a", output="b", rank=3, f_min=10.0, f_max=5.0)
        with pytest.raises(ValueError):
            PipelineConfig(input="a", output="b", rank=3, eta_fraction=1.5)
        with pytest.raises(ValueError, match=r"missing required keys \['rank'\]"):
            config_from_dict({"input": "a", "output": "b"})
        for rank in (0, -3):
            with pytest.raises(ValueError):
                PipelineConfig(input="a", output="b", rank=rank)
        for dt in (0.0, -0.004, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                PipelineConfig(input="a", output="b", rank=3, dt=dt)
        with pytest.raises(ValueError):
            PipelineConfig(input="a", output="b", rank=3, seed=-1)

    @pytest.mark.parametrize("key", [f.name for f in fields(PipelineConfig)
                                     if config_parser(f) is float])
    def test_nan_rejected_for_every_float_key(self, key):
        with pytest.raises(ValueError):
            config_from_dict({"input": "a", "output": "b", "rank": "3", key: "nan"})

    @pytest.mark.parametrize("key, value", [("alpha", "7"), ("inner_iters", "0")])
    def test_solver_settings_checked_for_every_solver(self, key, value):
        # The alternating solver's own checks run when the config is built,
        # whichever solver it names.
        with pytest.raises(ValueError):
            config_from_dict({"input": "a", "output": "b", "rank": "3",
                              "solver": "levelset", key: value})


class TestMaskVolume:
    def test_zeroes_unobserved_traces(self):
        vol = small_volume()
        grid = np.ones(vol.shape[:-1], dtype=bool)
        grid[:, :, 1, 0] = False
        masked = mask_volume(vol, SamplingMask(grid, axes=("rx", "ry", "sx", "sy")))
        assert np.all(masked[:, :, 1, 0] == 0)
        np.testing.assert_array_equal(masked[:, :, 0, 0], vol[:, :, 0, 0])

    def test_shape_mismatch(self):
        vol = small_volume()
        with pytest.raises(ValueError):
            mask_volume(vol, SamplingMask(np.ones((2, 2, 2, 2), dtype=bool),
                                          axes=("rx", "ry", "sx", "sy")))

    def test_time_first_volume_rejected(self):
        # A volume is masked trace-major: the traces of a time-first array
        # do not lie along its last axis, and its shape says so.
        vol = small_volume()
        with pytest.raises(ValueError, match="does not match spatial dims"):
            mask_volume(np.moveaxis(vol, -1, 0), full_mask(vol.shape[:-1]))

    def test_mask_file_axes_are_honored(self, tmp_path, monkeypatch):
        # The order a mask file's header names is the one it is read in:
        # a file whose axes are stored in another order is refused at its
        # header, by read_mask and by a run, before any sample is read,
        # and the run leaves no output.  The canonical file runs.
        vol = small_volume()
        mask = jittered_volume_mask(4, 3, 3, 2, 0.5, seed=1)
        write_mask(mask, tmp_path / "canonical.lrm")
        order = ("sx", "sy", "rx", "ry")
        grid = mask.grid.transpose([SPATIAL_AXES.index(a) for a in order])
        write_mask_raw(tmp_path / "permuted.lrm", order, grid)
        with pytest.raises(AxisLayoutError, match="permuted.lrm: axes"):
            read_mask(tmp_path / "permuted.lrm")
        assert read_mask(tmp_path / "canonical.lrm").axes == SPATIAL_AXES
        write_volume(vol, tmp_path / "in.lrv")
        counts = _block_counts(monkeypatch)
        for name in ("canonical", "permuted"):
            cfg = PipelineConfig(input=str(tmp_path / "in.lrv"),
                                 output=str(tmp_path / f"{name}.lrv"),
                                 mask=str(tmp_path / f"{name}.lrm"), rank=3)
            if name == "canonical":
                run_interpolation(cfg)
                continue
            reads = counts["read_volume"]
            with pytest.raises(AxisLayoutError, match="permuted.lrm: axes"):
                run_interpolation(cfg)
            assert counts["read_volume"] == reads
        assert (tmp_path / "canonical.lrv").exists()
        assert not list(tmp_path.glob("permuted.lrv*"))

    def test_mask_must_cover_the_spatial_axes(self, tmp_path):
        # A mask file of other axes, a time axis among them, stops the run
        # at its header.
        write_volume(small_volume(), tmp_path / "in.lrv")
        write_mask_raw(tmp_path / "mask.lrm", ("t", "rx", "ry", "sx"),
                       np.ones((4, 3, 3, 2), dtype=bool))
        cfg = PipelineConfig(input=str(tmp_path / "in.lrv"), output=str(tmp_path / "out.lrv"),
                             mask=str(tmp_path / "mask.lrm"), rank=3)
        with pytest.raises(AxisLayoutError):
            run_interpolation(cfg)
        assert not (tmp_path / "out.lrv").exists()


class TestRunInterpolation:
    def run(self, tmp_path, vol, mask, **overrides):
        write_volume(vol, tmp_path / "in.lrv")
        write_mask(mask, tmp_path / "mask.lrm")
        kwargs = dict(
            input=str(tmp_path / "in.lrv"),
            output=str(tmp_path / "out.lrv"),
            mask=str(tmp_path / "mask.lrm"),
            report=str(tmp_path / "report.csv"),
            truth=str(tmp_path / "in.lrv"),
            solver="pd", f_min=3.0, f_max=70.0, dt=0.004,
            rank=3, eta_fraction=0.01, alpha=0.5,
            outer_iters=8, inner_iters=400, seed=0, threads=1,
        )
        kwargs.update(overrides)
        cfg = PipelineConfig(**kwargs)
        return cfg, run_interpolation(cfg)

    def test_full_mask_passthrough(self, tmp_path):
        # Everything observed: every subproblem is consistent and the
        # output reproduces the input.
        vol = small_volume()
        cfg, res = self.run(tmp_path, vol, full_mask(vol.shape[:-1]),
                            eta_fraction=1e-6, outer_iters=16, inner_iters=1500)
        out = read_volume(cfg.output)
        rel = np.linalg.norm(out - vol) / np.linalg.norm(vol)
        assert rel < 1e-8
        assert res.failed == 0

    def test_real_output_and_mirroring(self, tmp_path):
        # A real input gives a real output, written as float64, whose
        # imaginary share is 0.
        vol = small_volume()
        mask = jittered_volume_mask(4, 3, 3, 2, 0.5, seed=1)
        cfg, res = self.run(tmp_path, vol, mask)
        assert Path(cfg.output).read_bytes()[5] == 2  # float64 samples
        out = read_volume(cfg.output)
        total = np.linalg.norm(out)
        assert np.linalg.norm(out.imag) <= 1e-10 * total
        assert res.imag_leakage == 0.0

    def test_out_of_band_passthrough(self, tmp_path):
        # Narrow the band to nothing: output equals the masked input.
        vol = small_volume()
        mask = jittered_volume_mask(4, 3, 3, 2, 0.5, seed=1)
        cfg, res = self.run(tmp_path, vol, mask, f_min=119.0, f_max=124.0)
        out = read_volume(cfg.output)
        masked = mask_volume(vol, mask)
        rel = np.linalg.norm(out - masked) / np.linalg.norm(masked)
        assert rel < 1e-10
        assert len(res.rows) == 0

    def test_input_is_masked_by_the_run(self, tmp_path):
        # Traces the mask removes never reach the output: an unmasked input
        # and its masked copy give the same volume.
        vol = small_volume()
        mask = jittered_volume_mask(4, 3, 3, 2, 0.5, seed=1)
        cfg1, _ = self.run(tmp_path, vol, mask, output=str(tmp_path / "o1.lrv"))
        cfg2, _ = self.run(tmp_path, mask_volume(vol, mask), mask,
                           output=str(tmp_path / "o2.lrv"))
        np.testing.assert_array_equal(read_volume(cfg1.output),
                                      read_volume(cfg2.output))

    def test_overall_snr_matches_written_output(self, tmp_path):
        vol = small_volume()
        mask = jittered_volume_mask(4, 3, 3, 2, 0.5, seed=1)
        cfg, res = self.run(tmp_path, vol, mask)
        _, aggregates = read_report(cfg.report)
        expected = snr_db(read_volume(cfg.truth), read_volume(cfg.output))
        assert float(aggregates["overall_snr_db"]) == pytest.approx(expected, abs=1e-9)
        assert res.overall_snr_db == pytest.approx(expected, abs=1e-9)

    def test_report_rows_and_columns(self, tmp_path):
        vol = small_volume()
        mask = jittered_volume_mask(4, 3, 3, 2, 0.5, seed=1)
        cfg, res = self.run(tmp_path, vol, mask)
        rows, aggregates = read_report(cfg.report)
        freqs = [r["freq_hz"] for r in rows]
        assert freqs == sorted(freqs)
        assert len(rows) == len(res.rows)
        assert all(r["status"] == "ok" for r in rows)
        assert "overall_snr_db" in aggregates
        # one row per in-band nonnegative-frequency bin of a real input
        from lrfill.volume import freq_values_hz

        f = freq_values_hz(16, 0.004)
        expected = sum(1 for k in range(1, 9) if 3.0 <= abs(f[k]) <= 70.0)
        assert len(rows) == expected

    def test_threads_match_single_thread(self, tmp_path):
        vol = small_volume()
        mask = jittered_volume_mask(4, 3, 3, 2, 0.5, seed=1)
        cfg1, _ = self.run(tmp_path, vol, mask, output=str(tmp_path / "o1.lrv"),
                           report=str(tmp_path / "r1.csv"), threads=1)
        cfg2, _ = self.run(tmp_path, vol, mask, output=str(tmp_path / "o2.lrv"),
                           report=str(tmp_path / "r2.csv"), threads=3)
        a = read_volume(cfg1.output)
        b = read_volume(cfg2.output)
        np.testing.assert_array_equal(a, b)

    def test_determinism_across_runs(self, tmp_path):
        vol = small_volume()
        mask = jittered_volume_mask(4, 3, 3, 2, 0.5, seed=1)
        cfg1, res1 = self.run(tmp_path, vol, mask, output=str(tmp_path / "o1.lrv"),
                              report=str(tmp_path / "r1.csv"))
        cfg2, res2 = self.run(tmp_path, vol, mask, output=str(tmp_path / "o2.lrv"),
                              report=str(tmp_path / "r2.csv"))
        a = read_volume(cfg1.output)
        b = read_volume(cfg2.output)
        np.testing.assert_array_equal(a, b)
        # report values bit-stable apart from the wall-time column
        for ra, rb in zip(res1.rows, res2.rows):
            da, db = ra.row(), rb.row()
            da.pop("wall_s")
            db.pop("wall_s")
            assert da == db

    def test_levelset_solver_runs(self, tmp_path):
        vol = small_volume()
        mask = jittered_volume_mask(4, 3, 3, 2, 0.5, seed=1)
        cfg, res = self.run(tmp_path, vol, mask, solver="levelset",
                            f_min=3.0, f_max=40.0)
        assert res.failed == 0
        assert all(r.status == "ok" for r in res.rows)

    def test_real_input_solves_its_zero_hz_bin(self, tmp_path):
        # A real input's 0 Hz bin is its own conjugate: it is solved when
        # in band, and taken real, so the DC offset reaches the missing
        # traces and the output stays real.
        base = small_volume()
        vol = base + 0.2
        mask = jittered_volume_mask(4, 3, 3, 2, 0.5, seed=1)
        cfg, res = self.run(tmp_path, vol, mask, f_min=0.0)
        rows, _ = read_report(cfg.report)
        assert rows[0]["freq_hz"] == 0.0 and rows[0]["status"] == "ok"
        dc = dft_time_axis(read_volume(cfg.output))[..., 0]
        assert np.abs(dc[~mask.grid]).max() > 0.1 * np.abs(dc[mask.grid]).max()
        assert res.imag_leakage <= 1e-12


def test_run_without_a_mask_solves_nothing(tmp_path, monkeypatch):
    # With every trace observed there is nothing to interpolate: no slice
    # is solved, every row is ok with no residual and the output is the
    # input.
    vol = small_volume()
    write_volume(vol, tmp_path / "in.lrv")
    solve, calls = pipeline.interpolate_slice, []

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(pipeline, "interpolate_slice", counting)
    cfg = PipelineConfig(input=str(tmp_path / "in.lrv"), output=str(tmp_path / "out.lrv"),
                         truth=str(tmp_path / "in.lrv"), rank=3)
    res = run_interpolation(cfg)
    assert calls == []
    assert res.rows and all(r.status == "ok" and r.rel_residual == 0.0 for r in res.rows)
    out = read_volume(cfg.output)
    assert np.linalg.norm(out - vol) <= 1e-15 * np.linalg.norm(vol)


def test_many_threads_write_only_their_own_bins(tmp_path):
    # Each worker writes its bin of the shared band while the others run:
    # with more threads than cores and a short switch interval the run
    # still gives the output of one thread.
    spec = EventSpec(n_rx=4, n_ry=3, n_sx=3, n_sy=2, spacing_m=25.0, nt=64, dt=0.004,
                     events=[(0.030, 0.0001, 0.00005, 1.0)], wavelet_peak_hz=80.0)
    write_volume(linear_events(spec), tmp_path / "in.lrv")
    write_mask(jittered_volume_mask(4, 3, 3, 2, 0.5, seed=1), tmp_path / "mask.lrm")

    def run(threads):
        cfg = PipelineConfig(input=str(tmp_path / "in.lrv"),
                             output=str(tmp_path / f"out{threads}.lrv"),
                             mask=str(tmp_path / "mask.lrm"), truth=str(tmp_path / "in.lrv"),
                             rank=3, outer_iters=4, inner_iters=100, threads=threads)
        res = run_interpolation(cfg)
        return (tmp_path / f"out{threads}.lrv").read_bytes(), res

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        (one, res_one), (many, res_many) = run(1), run(8)
    finally:
        sys.setswitchinterval(interval)
    assert len(res_one.rows) == 17
    assert many == one
    assert res_many.overall_snr_db == res_one.overall_snr_db


def _long_record_run(tmp_path, nt):
    """Write a long record on a small grid and run it with its truth over
    3.0-3.03 Hz; the ``tracemalloc`` peak of the run, the volume's bytes
    and the result."""
    spec = EventSpec(n_rx=4, n_ry=3, n_sx=3, n_sy=2, spacing_m=25.0,
                     nt=nt, dt=0.004, events=[(0.030, 0.0001, 0.00005, 1.0)],
                     wavelet_peak_hz=80.0)
    vol = linear_events(spec)
    nbytes = vol.nbytes
    write_volume(vol, tmp_path / "in.lrv")
    del vol
    write_mask(jittered_volume_mask(4, 3, 3, 2, 0.5, seed=1), tmp_path / "mask.lrm")
    cfg = PipelineConfig(input=str(tmp_path / "in.lrv"), output=str(tmp_path / "out.lrv"),
                         mask=str(tmp_path / "mask.lrm"), truth=str(tmp_path / "in.lrv"),
                         rank=2, f_min=3.0, f_max=3.03, outer_iters=2, inner_iters=50)
    tracemalloc.start()
    try:
        res = run_interpolation(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.failed == 0
    return peak, nbytes, res


def _largest_block(nt):
    """Bytes of the largest block of the long-record grid."""
    dims = (4, 3, 3, 2, nt)
    return 16 * nt * max(math.prod(s.stop - s.start for s in b.values())
                         for b in pipeline.trace_blocks(dims))


def test_trace_major_run_holds_two_blocks_per_pass(tmp_path):
    # A long record on a small grid, one solved bin: the volume's copies
    # dominate what the run allocates.  Reading, masking, both DFTs, the
    # corrections, the SNR and the write together stay below four volumes
    # at any moment, and each pass reads, masks and transforms its blocks
    # in two buffers of the largest block, allocated once: the run's peak
    # is little more.
    peak, nbytes, res = _long_record_run(tmp_path, 8192)
    assert len(res.rows) == 1
    assert peak <= 4 * nbytes, f"peak {peak / nbytes:.2f} volumes"
    block = _largest_block(8192)
    assert peak <= 2.5 * block, f"peak {peak / block:.2f} blocks"


def test_trace_major_run_memory_does_not_grow_with_the_record(tmp_path):
    # The run streams blocks of traces: its peak is a fraction of the
    # volume and stays put when the record doubles, although the band then
    # holds twice the bins.
    peak, nbytes, res = _long_record_run(tmp_path, 32768)
    assert len(res.rows) == 4
    assert peak <= 0.5 * nbytes, f"peak {peak / nbytes:.2f} volumes"
    peak2, _, res2 = _long_record_run(tmp_path, 2 * 32768)
    assert len(res2.rows) == 8
    assert peak2 <= 1.1 * peak, f"peak {peak2 / peak:.2f} times the peak at half the record"


def test_blocks_tile_the_volume_within_the_budget(monkeypatch):
    # Every trace is in exactly one block, and a block stays within the
    # budget unless a single trace exceeds it.
    dims = (4, 3, 3, 2, 16)
    for traces in (1, 5, 7, 8, 24, 72, 1000):
        monkeypatch.setattr(pipeline, "BLOCK_BYTES", 16 * 16 * traces)
        seen = np.zeros(dims[:-1], dtype=int)
        for block in pipeline.trace_blocks(dims):
            box = tuple(block[a] for a in ("rx", "ry", "sx", "sy"))
            seen[box] += 1
            assert seen[box].size <= traces
        assert np.all(seen == 1)
    monkeypatch.setattr(pipeline, "BLOCK_BYTES", 1)
    assert len(list(pipeline.trace_blocks(dims))) == 72


# The number and the sizes of the blocks of the small volume's 72 traces
# for a budget of 1, 5 and 7 traces.  At 5 the blocks are uneven, so
# each block of 2 is read into buffers that still hold a block of 4.
BLOCKS_OF_TRACES = {1: (72, {1}), 5: (24, {4, 2}), 7: (12, {6})}


@pytest.mark.parametrize("traces", sorted(BLOCKS_OF_TRACES))
def test_blocks_give_the_output_of_one_block(tmp_path, monkeypatch, traces):
    # Cutting the run into many blocks changes no output sample; the SNR,
    # summed block by block, moves only by rounding.
    vol = small_volume()
    write_volume(vol, tmp_path / "in.lrv")
    write_mask(jittered_volume_mask(4, 3, 3, 2, 0.5, seed=1), tmp_path / "mask.lrm")

    def run(name):
        cfg = PipelineConfig(input=str(tmp_path / "in.lrv"), output=str(tmp_path / name),
                             mask=str(tmp_path / "mask.lrm"), truth=str(tmp_path / "in.lrv"),
                             rank=3, eta_fraction=0.01, alpha=0.5, outer_iters=8,
                             inner_iters=400)
        res = run_interpolation(cfg)
        return read_volume(cfg.output), res

    one, res_one = run("one.lrv")
    monkeypatch.setattr(pipeline, "BLOCK_BYTES", 16 * 16 * traces)
    sizes = [math.prod(s.stop - s.start for s in b.values())
             for b in pipeline.trace_blocks(vol.shape)]
    assert (len(sizes), set(sizes)) == BLOCKS_OF_TRACES[traces]
    many, res_many = run("many.lrv")
    np.testing.assert_array_equal(many, one)
    assert res_many.overall_snr_db == pytest.approx(res_one.overall_snr_db, rel=1e-12)
    assert res_many.imag_leakage == pytest.approx(res_one.imag_leakage, rel=1e-6)


def _block_counts(monkeypatch):
    """Count the calls a run makes to the names that ``lrfill.pipeline``
    looks up for each stage of a block and for each solve, by name, and
    check that each path argument names an existing file."""
    counts = dict.fromkeys(("read_volume", "mask_volume", "dft_time_axis",
                            "idft_freq_axis", "write_volume", "interpolate_slice"), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if name == "read_volume":
                assert os.path.isfile(args[0])
            if name == "write_volume":
                assert os.path.isfile(args[1]) and "block" in kwargs
            return fn(*args, **kwargs)
        return wrapper

    for name in counts:
        monkeypatch.setattr(pipeline, name, counting(name, getattr(pipeline, name)))
    return counts


def _counted_run(tmp_path, monkeypatch, f_min, f_max, truth):
    """A masked run of the small volume in blocks of 5 traces, with the
    calls it makes counted by :func:`_block_counts`: the counts, the
    result and the number of blocks."""
    write_volume(small_volume(), tmp_path / "in.lrv")
    write_mask(jittered_volume_mask(4, 3, 3, 2, 0.5, seed=1), tmp_path / "mask.lrm")
    monkeypatch.setattr(pipeline, "BLOCK_BYTES", 16 * 16 * 5)
    blocks = len(list(pipeline.trace_blocks((4, 3, 3, 2, 16))))
    counts = _block_counts(monkeypatch)
    cfg = PipelineConfig(input=str(tmp_path / "in.lrv"), output=str(tmp_path / "out.lrv"),
                         mask=str(tmp_path / "mask.lrm"), truth=str(truth),
                         rank=3, f_min=f_min, f_max=f_max, outer_iters=2,
                         inner_iters=50)
    return counts, run_interpolation(cfg), blocks


@pytest.mark.parametrize("f_min, f_max, solved", [(200.0, 210.0, 0), (3.0, 70.0, 4)])
def test_run_calls_each_stage_once_per_block(tmp_path, monkeypatch, f_min, f_max, solved):
    # Outside tools time a run by wrapping these names: a run whose band
    # holds no bin still takes an inverse DFT of each block, and a run
    # solves each of its bins through ``interpolate_slice`` once.  A truth
    # that is the input file is the input's own spectrum: pass 1 reads and
    # transforms each block once and masks its spectrum, not its samples,
    # and pass 2 reads and masks it again.
    counts, res, blocks = _counted_run(tmp_path, monkeypatch, f_min, f_max,
                                       tmp_path / "in.lrv")
    assert counts == {"read_volume": 2 * blocks, "mask_volume": blocks,
                      "dft_time_axis": blocks, "idft_freq_axis": blocks,
                      "write_volume": blocks, "interpolate_slice": len(res.rows)}
    assert res.failed == 0 and len(res.rows) == solved


def test_truth_in_another_file_is_read_and_transformed_per_block(tmp_path, monkeypatch):
    # A truth stored in another file, even a copy of the input, keeps its
    # own read and DFT of each block in pass 1.
    write_volume(small_volume(), tmp_path / "truth.lrv")
    counts, res, blocks = _counted_run(tmp_path, monkeypatch, 3.0, 70.0,
                                       tmp_path / "truth.lrv")
    assert counts == {"read_volume": 3 * blocks, "mask_volume": blocks,
                      "dft_time_axis": 2 * blocks, "idft_freq_axis": blocks,
                      "write_volume": blocks, "interpolate_slice": len(res.rows)}
    assert res.failed == 0 and len(res.rows) == 4


@pytest.mark.parametrize("f_min, f_max, solved", [(3.0, 70.0, 4), (200.0, 210.0, 0)],
                         ids=["band", "empty-band"])
def test_truth_that_is_the_input_gives_the_run_of_a_copy(tmp_path, f_min, f_max, solved):
    # Taking the truth's spectrum from the input's when they are one file
    # changes no bit of the output or of the SNRs against a truth that is
    # a byte-identical copy of the input, read and transformed on its own.
    write_volume(small_volume(), tmp_path / "in.lrv")
    (tmp_path / "copy.lrv").write_bytes((tmp_path / "in.lrv").read_bytes())
    write_mask(jittered_volume_mask(4, 3, 3, 2, 0.5, seed=1), tmp_path / "mask.lrm")

    def run(truth, output):
        res = _masked_run(tmp_path, tmp_path / output, truth=tmp_path / truth,
                          f_min=f_min, f_max=f_max)
        return res, (tmp_path / output).read_bytes()

    own, own_bytes = run("in.lrv", "own.lrv")
    copy, copy_bytes = run("copy.lrv", "copy_out.lrv")
    assert own_bytes == copy_bytes
    assert own.failed == copy.failed == 0 and len(own.rows) == solved
    assert np.isfinite(own.overall_snr_db) and own.overall_snr_db == copy.overall_snr_db
    assert [r.snr_db for r in own.rows] == [r.snr_db for r in copy.rows]


@pytest.mark.parametrize("layout", [CANONICAL_AXES, TIME_FIRST],
                         ids=["trace-major", "time-first"])
def test_block_is_read_and_written_in_one_call_per_run(tmp_path, monkeypatch, layout):
    # A block over whole trailing axes of a trace-major file is one
    # contiguous run: one call reads it.  The output is written
    # trace-major, one call per block, with the output and SNR of the run
    # in one block.  A time-first file is refused at its header, with no
    # call at all and no output.
    vol = small_volume()
    write_volume(vol, tmp_path / "trace-major.lrv")
    write_in_order(tmp_path / "in.lrv", vol, layout)
    write_mask(jittered_volume_mask(4, 3, 3, 2, 0.5, seed=1), tmp_path / "mask.lrm")
    ref = _masked_run(tmp_path, tmp_path / "ref.lrv", truth=tmp_path / "trace-major.lrv",
                      input=tmp_path / "trace-major.lrv")
    monkeypatch.setattr(pipeline, "BLOCK_BYTES", 16 * 16 * 18)
    blocks = list(pipeline.trace_blocks(vol.shape))
    assert [tuple(s.stop - s.start for s in b.values()) for b in blocks] == [(1, 3, 3, 2)] * 4
    calls = {"preadv": 0, "pwritev": 0}
    for name in calls:
        def counting(fd, buffers, at, name=name, call=getattr(os, name)):
            calls[name] += 1
            return call(fd, buffers, at)
        monkeypatch.setattr(os, name, counting)
    per_call = {"read_volume": [], "write_volume": []}
    for name, key in (("read_volume", "preadv"), ("write_volume", "pwritev")):
        def moved(*args, name=name, key=key, fn=getattr(pipeline, name), **kwargs):
            before = calls[key]
            out = fn(*args, **kwargs)
            per_call[name].append(calls[key] - before)
            return out
        monkeypatch.setattr(pipeline, name, moved)
    if layout == TIME_FIRST:
        with pytest.raises(AxisLayoutError, match="in.lrv: axes"):
            _masked_run(tmp_path, tmp_path / "out.lrv", input=tmp_path / "in.lrv")
        assert calls == {"preadv": 0, "pwritev": 0}
        assert not list(tmp_path.glob("out.lrv*"))
        return
    res = _masked_run(tmp_path, tmp_path / "out.lrv", truth=tmp_path / "in.lrv",
                      input=tmp_path / "in.lrv")
    # Pass 1 reads each block once, the truth being the input, and pass 2
    # reads it again.
    assert per_call["read_volume"] == [1] * (2 * len(blocks))
    assert per_call["write_volume"] == [1] * len(blocks)
    out, ref_out = read_volume(tmp_path / "out.lrv"), read_volume(tmp_path / "ref.lrv")
    assert (tmp_path / "out.lrv").read_bytes()[7:12] == bytes([2, 3, 4, 5, 0])
    assert np.linalg.norm(out - ref_out) <= 1e-12 * np.linalg.norm(ref_out)
    assert res.overall_snr_db == pytest.approx(ref.overall_snr_db, rel=1e-12)


@pytest.mark.parametrize("bad, layout", [("input", CANONICAL_AXES), ("truth", CANONICAL_AXES),
                                         ("input", TIME_FIRST), ("truth", TIME_FIRST)],
                         ids=["input", "truth", "input-time-first", "truth-time-first"])
def test_non_finite_sample_in_the_last_block_stops_before_any_solve(
        tmp_path, monkeypatch, bad, layout):
    # Every block read into the reused buffers is checked: a NaN in the
    # last sample of the last block of the input or of the truth stops the
    # run before any slice is solved, and leaves no output.  Written
    # time-first, the file with the NaN stops the run at its header, before
    # any block is read.
    vol = small_volume()
    write_in_order(tmp_path / f"{bad}.lrv", vol, layout)
    for name in ("input", "truth"):
        if name != bad:
            write_volume(vol, tmp_path / f"{name}.lrv")
    write_mask(jittered_volume_mask(4, 3, 3, 2, 0.5, seed=1), tmp_path / "mask.lrm")
    monkeypatch.setattr(pipeline, "BLOCK_BYTES", 16 * 16 * 5)
    last = list(pipeline.trace_blocks(vol.shape))[-1]
    corner = {"t": vol.shape[-1] - 1, **{a: s.stop - 1 for a, s in last.items()}}
    at = np.ravel_multi_index(tuple(corner[a] for a in layout),
                              [vol.shape[CANONICAL_AXES.index(a)] for a in layout])
    path = tmp_path / f"{bad}.lrv"
    with open(path, "r+b") as fh:
        fh.seek(os.path.getsize(path) - vol.nbytes + vol.itemsize * int(at))
        fh.write(np.array([np.nan], dtype=vol.dtype).tobytes())
    counts = _block_counts(monkeypatch)
    error = "non-finite" if layout == CANONICAL_AXES else f"{bad}.lrv: axes"
    with pytest.raises(ValueError, match=error):
        _masked_run(tmp_path, tmp_path / "out.lrv", truth=tmp_path / "truth.lrv",
                    input=tmp_path / "input.lrv")
    assert counts["interpolate_slice"] == 0
    # Pass 1 reads the input, then the truth, of each block.
    blocks = len(list(pipeline.trace_blocks(small_volume().shape)))
    reads = 2 * blocks - (bad == "input") if layout == CANONICAL_AXES else 0
    assert counts["read_volume"] == reads
    assert not (tmp_path / "out.lrv").exists()
    assert not (tmp_path / "out.lrv.part").exists()


def test_non_finite_sample_in_an_unobserved_trace_stops_the_run(tmp_path, monkeypatch):
    # Masking zeroes the traces the mask removes without reading their
    # values, but every block is checked where it is read: a NaN in a
    # removed trace still stops the run before any solve, and leaves no
    # output.
    vol = small_volume()
    mask = jittered_volume_mask(4, 3, 3, 2, 0.5, seed=1)
    write_volume(vol, tmp_path / "in.lrv")
    write_mask(mask, tmp_path / "mask.lrm")
    trace = tuple(np.argwhere(~mask.grid)[-1])
    at = np.ravel_multi_index(trace + (3,), vol.shape)
    path = tmp_path / "in.lrv"
    with open(path, "r+b") as fh:
        fh.seek(os.path.getsize(path) - vol.nbytes + vol.itemsize * int(at))
        fh.write(np.array([np.nan]).tobytes())
    counts = _block_counts(monkeypatch)
    with pytest.raises(ValueError, match="non-finite"):
        _masked_run(tmp_path, tmp_path / "out.lrv", input=path)
    assert counts["interpolate_slice"] == 0
    assert not (tmp_path / "out.lrv").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("truth", ["input", "none", "another-file"])
def test_overflowing_spectrum_of_an_unobserved_trace_stops_the_run(tmp_path, monkeypatch,
                                                                   truth):
    # Pass 1 takes the spectrum of every trace of a block before the mask
    # applies, and checks it: a trace the mask removes whose finite samples
    # overflow in the DFT stops the run before any solve, with or without a
    # truth, and leaves no output.  A truth stored in another file is
    # transformed and checked on its own: the same trace there, under a
    # clean input, stops the run too.
    vol = small_volume()
    mask = jittered_volume_mask(4, 3, 3, 2, 0.5, seed=1)
    trace = tuple(np.argwhere(~mask.grid)[0])
    big = vol.copy()
    big[trace] = 1e308
    assert np.isfinite(big).all() and not np.isfinite(dft_time_axis(big[trace])).all()
    write_volume(vol if truth == "another-file" else big, tmp_path / "in.lrv")
    write_volume(big, tmp_path / "truth.lrv")
    write_mask(mask, tmp_path / "mask.lrm")
    counts = _block_counts(monkeypatch)
    with pytest.raises(ValueError, match="non-finite"):
        _masked_run(tmp_path, tmp_path / "out.lrv",
                    truth={"input": tmp_path / "in.lrv", "none": None,
                           "another-file": tmp_path / "truth.lrv"}[truth])
    assert counts["interpolate_slice"] == 0
    assert not list(tmp_path.glob("out.lrv*"))


@pytest.mark.parametrize("f_min, f_max, solved", [(200.0, 210.0, 0), (3.0, 70.0, 4)],
                         ids=["empty-band", "band"])
def test_real_run_keeps_the_order_the_benchmark_times(tmp_path, monkeypatch, f_min, f_max,
                                                      solved):
    # The benchmark times a run from outside, through the names
    # ``lrfill.pipeline`` looks up: set-up ends at the first solve, or at
    # the first inverse DFT when the band holds no bin, and teardown starts
    # after the last solve.  On a file of real samples every solve of a bin
    # runs once, after every pass-1 DFT, and pass 2 takes an inverse DFT of
    # each block before its write, whether or not any bin is solved.
    write_volume(small_volume(), tmp_path / "in.lrv")
    assert (tmp_path / "in.lrv").read_bytes()[5] == 2  # float64 samples
    write_mask(jittered_volume_mask(4, 3, 3, 2, 0.5, seed=1), tmp_path / "mask.lrm")
    monkeypatch.setattr(pipeline, "BLOCK_BYTES", 16 * 16 * 5)
    blocks = len(list(pipeline.trace_blocks((4, 3, 3, 2, 16))))
    events = []
    for name in ("read_volume", "mask_volume", "dft_time_axis", "idft_freq_axis",
                 "write_volume", "interpolate_slice"):
        def logged(*args, name=name, fn=getattr(pipeline, name), **kwargs):
            events.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, logged)
    cfg = PipelineConfig(input=str(tmp_path / "in.lrv"), output=str(tmp_path / "out.lrv"),
                         mask=str(tmp_path / "mask.lrm"), truth=str(tmp_path / "in.lrv"),
                         rank=3, f_min=f_min, f_max=f_max, outer_iters=2, inner_iters=50)
    res = run_interpolation(cfg)
    solves = [i for i, name in enumerate(events) if name == "interpolate_slice"]
    first_idft = events.index("idft_freq_axis")
    last_dft = max(i for i, name in enumerate(events) if name == "dft_time_axis")
    assert len(solves) == len(res.rows) == solved and res.failed == 0
    assert all(last_dft < i < first_idft for i in solves)
    assert "write_volume" not in events[:first_idft]
    assert events[first_idft:].count("idft_freq_axis") == blocks
    assert set(events[first_idft:]) == {"idft_freq_axis", "read_volume", "mask_volume",
                                        "write_volume"}


def _masked_run(tmp_path, output, truth=None, input=None, **settings):
    cfg = PipelineConfig(input=str(input or tmp_path / "in.lrv"), output=str(output),
                         mask=str(tmp_path / "mask.lrm"), truth=truth and str(truth),
                         rank=3, eta_fraction=0.01, alpha=0.5, outer_iters=8, inner_iters=400,
                         **settings)
    return run_interpolation(cfg)


def test_run_that_stops_in_pass_2_leaves_no_output(tmp_path, monkeypatch):
    # The output is built under a temporary name: a write that fails on the
    # second block leaves no file of full length with blocks of zeros, and
    # an earlier output stays as it was.
    write_volume(small_volume(), tmp_path / "in.lrv")
    write_mask(jittered_volume_mask(4, 3, 3, 2, 0.5, seed=1), tmp_path / "mask.lrm")
    (tmp_path / "out.lrv").write_bytes(b"earlier")
    monkeypatch.setattr(pipeline, "BLOCK_BYTES", 16 * 16 * 5)
    calls = []

    def failing(*args, **kwargs):
        calls.append(kwargs["block"])
        if len(calls) == 2:
            raise OSError(28, "no space left on device")
        return write_volume(*args, **kwargs)

    monkeypatch.setattr(pipeline, "write_volume", failing)
    with pytest.raises(OSError):
        _masked_run(tmp_path, tmp_path / "out.lrv")
    assert len(calls) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.lrv", "mask.lrm", "out.lrv"]
    assert (tmp_path / "out.lrv").read_bytes() == b"earlier"


def test_output_may_replace_the_input(tmp_path):
    # Pass 2 reads the input again while the output is written, so the
    # output takes the input's name only when the run ends.
    write_volume(small_volume(), tmp_path / "in.lrv")
    write_mask(jittered_volume_mask(4, 3, 3, 2, 0.5, seed=1), tmp_path / "mask.lrm")
    _masked_run(tmp_path, tmp_path / "other.lrv")
    _masked_run(tmp_path, tmp_path / "in.lrv")
    assert (tmp_path / "in.lrv").read_bytes() == (tmp_path / "other.lrv").read_bytes()


def test_overall_snr_is_exact_near_a_perfect_reconstruction(tmp_path):
    # The overall error is summed bin by bin, not taken as a difference of
    # large sums, so a truth a hair from the output gets its SNR.
    write_volume(small_volume(), tmp_path / "in.lrv")
    write_mask(jittered_volume_mask(4, 3, 3, 2, 0.5, seed=1), tmp_path / "mask.lrm")
    _masked_run(tmp_path, tmp_path / "out.lrv")
    out = read_volume(tmp_path / "out.lrv")
    rng = np.random.default_rng(5)
    near = out + 1e-9 * np.abs(out).max() * rng.standard_normal(out.shape)
    write_volume(near, tmp_path / "near.lrv")
    res = _masked_run(tmp_path, tmp_path / "out2.lrv", truth=tmp_path / "near.lrv")
    assert (tmp_path / "out2.lrv").read_bytes() == (tmp_path / "out.lrv").read_bytes()
    expected = snr_db(near, out)
    assert expected > 150
    assert res.overall_snr_db == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("layout", [("sy", "sx", "ry", "rx", "t"),
                                    ("rx", "t", "ry", "sx", "sy")])
def test_any_layout_runs_as_the_canonical_file(tmp_path, monkeypatch, layout):
    # A file in another axis order is refused at its header, as the input
    # or as the truth, before any block is read.  Its payload transposed to
    # trace-major and written, the conversion README gives, it is the
    # canonical file byte for byte, so it runs as that file does.
    vol = small_volume()
    write_volume(vol, tmp_path / "in.lrv")
    other = tmp_path / "other.lrv"
    write_in_order(other, vol, layout)
    write_mask(jittered_volume_mask(4, 3, 3, 2, 0.5, seed=1), tmp_path / "mask.lrm")
    counts = _block_counts(monkeypatch)
    for input, truth in ((other, None), (tmp_path / "in.lrv", other)):
        with pytest.raises(AxisLayoutError, match="other.lrv: axes"):
            _masked_run(tmp_path, tmp_path / "out.lrv", truth=truth, input=input)
    assert counts["read_volume"] == 0
    assert not list(tmp_path.glob("out.lrv*"))
    extents = [vol.shape[CANONICAL_AXES.index(a)] for a in layout]
    data = np.fromfile(other, dtype="<f8", offset=7 + 9 * 5).reshape(extents)
    write_volume(np.transpose(data, [layout.index(a) for a in CANONICAL_AXES]),
                 tmp_path / "converted.lrv")
    assert (tmp_path / "converted.lrv").read_bytes() == (tmp_path / "in.lrv").read_bytes()


class TestObservedConsistency:
    def test_completed_volume_fits_observations(self, tmp_path):
        vol = small_volume()
        mask = jittered_volume_mask(4, 3, 3, 2, 0.5, seed=1)
        write_volume(vol, tmp_path / "in.lrv")
        write_mask(mask, tmp_path / "mask.lrm")
        cfg = PipelineConfig(
            input=str(tmp_path / "in.lrv"), output=str(tmp_path / "out.lrv"),
            mask=str(tmp_path / "mask.lrm"), rank=3, eta_fraction=0.02,
            alpha=0.5, outer_iters=10, inner_iters=800, f_min=3.0, f_max=70.0,
            dt=0.004, seed=0,
        )
        run_interpolation(cfg)
        out = read_volume(cfg.output)
        masked_in = mask_volume(vol, mask)
        masked_out = mask_volume(out, mask)
        rel = np.linalg.norm(masked_out - masked_in) / np.linalg.norm(masked_in)
        # per-slice eta contract is 0.02 of each in-band slice; out-of-band
        # bins pass through exactly, so the aggregate is below the fraction
        assert rel <= 0.02 + 1e-9
