import math

import numpy as np
import pytest

from lrfill.reporting import (
    SliceReport,
    compare_reports,
    read_report,
    snr_db,
    write_report,
)


class TestSnr:
    def test_exact_match_capped(self):
        x = np.ones((3, 3))
        assert snr_db(x, x.copy()) == 300.0

    def test_zero_estimate_is_zero_db(self):
        x = np.ones((4, 4))
        assert snr_db(x, np.zeros((4, 4))) == pytest.approx(0.0)

    def test_ten_percent_error_is_twenty_db(self):
        rng = np.random.default_rng(0)
        truth = rng.standard_normal((10, 10))
        noise = rng.standard_normal((10, 10))
        noise *= 0.1 * np.linalg.norm(truth) / np.linalg.norm(noise)
        assert snr_db(truth, truth + noise) == pytest.approx(20.0, abs=1e-9)

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            snr_db(np.zeros((2, 2)), np.ones((2, 2)))

    @pytest.mark.parametrize("truth_shape, estimate_shape",
                             [((3,), (1,)), ((3, 3), (3,)), ((3, 3), (1, 3)),
                              ((2, 3, 3), (3, 3)), ((2, 3, 3), (1, 3, 3))])
    def test_shape_mismatch_rejected(self, truth_shape, estimate_shape):
        # A mismatch that would broadcast must not yield an SNR.
        truth = np.arange(1.0, 1.0 + math.prod(truth_shape)).reshape(truth_shape)
        with pytest.raises(ValueError):
            snr_db(truth, np.zeros(estimate_shape))


class TestReportIo:
    def make_rows(self):
        return [
            SliceReport(freq_hz=7.8, rank=4, eta_target=0.1, rel_residual=0.02,
                        outer_iters=5, inner_iters=900, wall_s=1.5, snr_db=31.0),
            SliceReport(freq_hz=3.9, rank=3, eta_target=0.2, rel_residual=0.03,
                        outer_iters=4, inner_iters=700, wall_s=1.1, snr_db=28.5),
        ]

    def test_roundtrip_sorted_by_frequency(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report(path, self.make_rows(), {"overall_snr_db": 30.0})
        rows, aggregates = read_report(path)
        assert [r["freq_hz"] for r in rows] == [3.9, 7.8]
        assert rows[1]["rank"] == 4
        assert rows[0]["status"] == "ok"
        assert float(aggregates["overall_snr_db"]) == 30.0

    def test_compare(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        rows = self.make_rows()
        write_report(a, rows)
        rows_b = self.make_rows()
        for r in rows_b:
            r.snr_db += 1.0
            r.wall_s *= 2.0
        write_report(b, rows_b)
        ra, _ = read_report(a)
        rb, _ = read_report(b)
        diff = compare_reports(ra, rb)
        assert len(diff) == 2
        for row in diff:
            assert row["snr_delta_db"] == pytest.approx(-1.0)
            assert row["wall_delta_s"] < 0

    def test_nan_snr_roundtrips(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report(path, [SliceReport(freq_hz=1.0)])
        rows, _ = read_report(path)
        assert math.isnan(rows[0]["snr_db"])
