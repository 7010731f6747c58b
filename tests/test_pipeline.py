import tracemalloc

import numpy as np
import pytest

from lrfill.fileio import read_mask, read_volume, write_mask, write_volume
from lrfill.pipeline import (
    PipelineConfig,
    config_from_dict,
    load_config,
    mask_volume,
    parse_kv_file,
    parse_rank_schedule,
    run_interpolation,
)
from lrfill.reporting import read_report, snr_db
from lrfill.sampling import SamplingMask, jittered_volume_mask
from lrfill.synthgen import EventSpec, linear_events
from lrfill.transforms import MODE_REC_SRC_X, MODE_SRC_PAIR


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

    def test_rank_schedule_syntax(self):
        sched = parse_rank_schedule("3:30,70:100")
        assert (sched.f_lo, sched.r_lo, sched.f_hi, sched.r_hi) == (3.0, 30, 70.0, 100)
        with pytest.raises(ValueError):
            parse_rank_schedule("3,70")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({"input": "a", "output": "b", "rank": "3",
                              "tpyo": "1"})

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
        with pytest.raises(ValueError):
            PipelineConfig(input="a", output="b")  # no rank and no schedule
        for rank in (0, -3):
            with pytest.raises(ValueError):
                PipelineConfig(input="a", output="b", rank=rank)
        for dt in (0.0, -0.004, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                PipelineConfig(input="a", output="b", rank=3, dt=dt)

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
        grid = np.ones(vol.dims[1:], dtype=bool)
        grid[:, :, 1, 0] = False
        masked = mask_volume(vol, SamplingMask(grid, axes=("rx", "ry", "sx", "sy")))
        assert np.all(masked.data[:, :, :, 1, 0] == 0)
        np.testing.assert_array_equal(masked.data[:, :, :, 0, 0], vol.data[:, :, :, 0, 0])

    def test_shape_mismatch(self):
        vol = small_volume()
        with pytest.raises(ValueError):
            mask_volume(vol, SamplingMask(np.ones((2, 2, 2, 2), dtype=bool)))


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
        cfg, res = self.run(tmp_path, vol, full_mask(vol.dims[1:]),
                            eta_fraction=1e-6, outer_iters=16, inner_iters=1500)
        out = read_volume(cfg.output)
        rel = np.linalg.norm(out.data - vol.data) / np.linalg.norm(vol.data)
        assert rel < 1e-8
        assert res.failed == 0

    def test_real_output_and_mirroring(self, tmp_path):
        vol = small_volume()
        mask = jittered_volume_mask(4, 3, 3, 2, 0.5, seed=1)
        cfg, res = self.run(tmp_path, vol, mask)
        out = read_volume(cfg.output)
        total = np.linalg.norm(out.data)
        assert np.linalg.norm(out.data.imag) <= 1e-10 * total
        assert res.imag_leakage <= 1e-10

    def test_out_of_band_passthrough(self, tmp_path):
        # Narrow the band to nothing: output equals the masked input.
        vol = small_volume()
        mask = jittered_volume_mask(4, 3, 3, 2, 0.5, seed=1)
        cfg, res = self.run(tmp_path, vol, mask, f_min=119.0, f_max=124.0)
        out = read_volume(cfg.output)
        masked = mask_volume(vol, mask)
        rel = np.linalg.norm(out.data - masked.data) / np.linalg.norm(masked.data)
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
        np.testing.assert_array_equal(read_volume(cfg1.output).data,
                                      read_volume(cfg2.output).data)

    def test_overall_snr_matches_written_output(self, tmp_path):
        vol = small_volume()
        mask = jittered_volume_mask(4, 3, 3, 2, 0.5, seed=1)
        cfg, res = self.run(tmp_path, vol, mask)
        _, aggregates = read_report(cfg.report)
        expected = snr_db(read_volume(cfg.truth).data, read_volume(cfg.output).data)
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

    def test_rank_schedule_applied(self, tmp_path):
        vol = small_volume()
        mask = full_mask(vol.dims[1:])
        cfg, res = self.run(tmp_path, vol, mask, rank=None,
                            rank_schedule="3:1,70:4", outer_iters=2,
                            inner_iters=50)
        by_freq = {round(r.freq_hz, 3): r.rank for r in res.rows}
        assert by_freq[min(by_freq)] < by_freq[max(by_freq)]

    def test_threads_match_single_thread(self, tmp_path):
        vol = small_volume()
        mask = jittered_volume_mask(4, 3, 3, 2, 0.5, seed=1)
        cfg1, _ = self.run(tmp_path, vol, mask, output=str(tmp_path / "o1.lrv"),
                           report=str(tmp_path / "r1.csv"), threads=1)
        cfg2, _ = self.run(tmp_path, vol, mask, output=str(tmp_path / "o2.lrv"),
                           report=str(tmp_path / "r2.csv"), threads=3)
        a = read_volume(cfg1.output)
        b = read_volume(cfg2.output)
        np.testing.assert_array_equal(a.data, b.data)

    def test_determinism_across_runs(self, tmp_path):
        vol = small_volume()
        mask = jittered_volume_mask(4, 3, 3, 2, 0.5, seed=1)
        cfg1, res1 = self.run(tmp_path, vol, mask, output=str(tmp_path / "o1.lrv"),
                              report=str(tmp_path / "r1.csv"))
        cfg2, res2 = self.run(tmp_path, vol, mask, output=str(tmp_path / "o2.lrv"),
                              report=str(tmp_path / "r2.csv"))
        a = read_volume(cfg1.output)
        b = read_volume(cfg2.output)
        np.testing.assert_array_equal(a.data, b.data)
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

    def test_complex_input_processes_both_sidebands(self, tmp_path):
        # A complex-valued volume gets no Hermitian shortcut: negative-
        # frequency bins are solved in their own right.
        base = small_volume()
        from lrfill.volume import ComplexVolume

        vol = ComplexVolume(base.axes, base.data * (1.0 + 0.5j))
        mask = jittered_volume_mask(4, 3, 3, 2, 0.5, seed=1)
        cfg, res = self.run(tmp_path, vol, mask)
        real_rows = sum(1 for _ in self.run(tmp_path, base, mask,
                                            output=str(tmp_path / "oR.lrv"),
                                            report=str(tmp_path / "rR.csv"))[1].rows)
        assert res.failed == 0
        assert len(res.rows) > real_rows  # negative bins included


def test_run_holds_few_copies_of_the_volume(tmp_path):
    # A long record on a small grid, one solved bin: the volume's copies
    # dominate what the run allocates.  Reading, masking, both DFTs, the
    # output spectrum, the SNR and the write together stay below four
    # volumes at any moment.
    spec = EventSpec(n_rx=4, n_ry=3, n_sx=3, n_sy=2, spacing_m=25.0,
                     nt=8192, dt=0.004, events=[(0.030, 0.0001, 0.00005, 1.0)],
                     wavelet_peak_hz=80.0)
    vol = linear_events(spec)
    nbytes = vol.data.nbytes
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
    assert len(res.rows) == 1 and res.failed == 0
    assert peak <= 4 * nbytes, f"peak {peak / nbytes:.2f} volumes"


class TestObservedConsistency:
    @pytest.mark.parametrize("mode", [MODE_REC_SRC_X, MODE_SRC_PAIR])
    def test_completed_volume_fits_observations(self, tmp_path, mode):
        vol = small_volume()
        mask = jittered_volume_mask(4, 3, 3, 2, 0.5, seed=1)
        write_volume(vol, tmp_path / "in.lrv")
        write_mask(mask, tmp_path / "mask.lrm")
        cfg = PipelineConfig(
            input=str(tmp_path / "in.lrv"), output=str(tmp_path / "out.lrv"),
            mask=str(tmp_path / "mask.lrm"), rank=3, eta_fraction=0.02,
            alpha=0.5, outer_iters=10, inner_iters=800, f_min=3.0, f_max=70.0,
            dt=0.004, seed=0, matricization=mode,
        )
        run_interpolation(cfg)
        out = read_volume(cfg.output)
        masked_in = mask_volume(vol, mask)
        masked_out = mask_volume(out, mask)
        rel = np.linalg.norm(masked_out.data - masked_in.data) / np.linalg.norm(masked_in.data)
        # per-slice eta contract is 0.02 of each in-band slice; out-of-band
        # bins pass through exactly, so the aggregate is below the fraction
        assert rel <= 0.02 + 1e-9
