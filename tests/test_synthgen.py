import numpy as np
import pytest

from lrfill.sampling import uniform_entry_mask
from lrfill.synthgen import (
    EventSpec,
    PlantSpec,
    linear_events,
    observe_slice,
    plant_slice,
    ricker,
)
from lrfill.transforms import Matricization, apply_sampling, singular_decay
from lrfill.volume import dft_time_axis, freq_values_hz


class TestPlantSlice:
    def test_rank_one_flat(self):
        sl, pair = plant_slice(PlantSpec(p=12, q=9, rank=1, seed=0))
        decay = singular_decay(sl.data)
        assert decay[0] == pytest.approx(1.0)
        assert np.all(decay[1:] < 1e-12)

    def test_geometric_profile_exact(self):
        sl, _ = plant_slice(PlantSpec(p=20, q=15, rank=8, profile="geometric",
                                      decay_ratio=0.5, seed=1))
        s = np.linalg.svd(sl.data, compute_uv=False)
        expected = 0.5 ** np.arange(8)
        np.testing.assert_allclose(s[:8], expected, atol=1e-10)
        assert np.all(s[8:] < 1e-12)

    @pytest.mark.parametrize("ratio", [0.0, -2.0, 1.5, np.nan, np.inf])
    def test_decay_ratio_outside_unit_interval_rejected(self, ratio):
        with pytest.raises(ValueError, match="decay_ratio"):
            PlantSpec(p=12, q=9, rank=2, profile="geometric", decay_ratio=ratio)

    def test_decay_ratio_one_is_flat(self):
        sl, _ = plant_slice(PlantSpec(p=12, q=9, rank=3, profile="geometric",
                                      decay_ratio=1.0, seed=3))
        s = np.linalg.svd(sl.data, compute_uv=False)
        np.testing.assert_allclose(s[:3], 1.0, atol=1e-12)

    def test_factors_reproduce_slice(self):
        sl, pair = plant_slice(PlantSpec(p=10, q=10, rank=4, seed=2))
        np.testing.assert_allclose(pair.product(), sl.data, atol=1e-12)

    def test_deterministic(self):
        a, _ = plant_slice(PlantSpec(p=6, q=6, rank=2, seed=5))
        b, _ = plant_slice(PlantSpec(p=6, q=6, rank=2, seed=5))
        np.testing.assert_array_equal(a.data, b.data)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            PlantSpec(p=4, q=4, rank=5)


class TestObserveSlice:
    def test_noise_free_is_projection(self):
        sl, _ = plant_slice(PlantSpec(p=8, q=8, rank=2, seed=3))
        mask = uniform_entry_mask(8, 8, 0.5, seed=1)
        b = observe_slice(sl.data, mask)
        np.testing.assert_array_equal(b, apply_sampling(mask, sl.data))


class TestRicker:
    def test_peak_at_zero(self):
        assert ricker(0.0, 25.0) == pytest.approx(1.0)

    def test_decays(self):
        assert abs(ricker(1.0, 25.0)) < 1e-10


class TestLinearEvents:
    def test_zero_events_zero_volume(self):
        spec = EventSpec(n_rx=3, n_ry=2, n_sx=2, n_sy=2, spacing_m=25.0,
                         nt=16, dt=0.004, events=[])
        vol = linear_events(spec)
        assert np.all(vol == 0)

    def test_real_valued(self):
        spec = EventSpec(n_rx=3, n_ry=2, n_sx=2, n_sy=2, spacing_m=25.0,
                         nt=32, dt=0.004, events=[(0.06, 0.0, 0.0, 1.0)],
                         wavelet_peak_hz=40.0)
        vol = linear_events(spec)
        assert np.all(vol.imag == 0)

    def test_zero_slowness_identical_traces_rank_one(self):
        spec = EventSpec(n_rx=4, n_ry=3, n_sx=3, n_sy=2, spacing_m=25.0,
                         nt=64, dt=0.004, events=[(0.12, 0.0, 0.0, 1.0)])
        vol = linear_events(spec)
        trace0 = vol[0, 0, 0, 0]
        for idx in np.ndindex(4, 3, 3, 2):
            np.testing.assert_array_equal(vol[idx], trace0)
        # Every bin of the half spectrum: the others are their conjugates.
        spec_f = dft_time_axis(vol)
        rec = Matricization("recsrcx", 4, 3, 3, 2)
        for k in range(spec_f.shape[-1]):
            slice_k = spec_f[..., k]
            if np.linalg.norm(slice_k) < 1e-12:
                continue
            decay = singular_decay(rec.unfold(slice_k))
            assert np.all(decay[1:] < 1e-10)

    def test_two_events_mode_separation(self):
        # The recsrcx unfolding concentrates each event into one singular
        # direction; srcpair spreads it.  Checked near 10 Hz.
        spec = EventSpec(n_rx=8, n_ry=8, n_sx=6, n_sy=6, spacing_m=25.0,
                         nt=128, dt=0.004,
                         events=[(0.15, 0.0002, 0.00012, 1.0),
                                 (0.30, -0.00015, 0.00025, 0.7)],
                         wavelet_peak_hz=20.0)
        vol = linear_events(spec)
        F = dft_time_axis(vol)
        freqs = freq_values_hz(128, 0.004)
        k = int(np.argmin(np.abs(freqs - 10.0)))
        T = F[..., k]
        rec = np.linalg.svd(Matricization("recsrcx", 8, 8, 6, 6).unfold(T), compute_uv=False)
        src = np.linalg.svd(Matricization("srcpair", 8, 8, 6, 6).unfold(T), compute_uv=False)
        top2_rec = rec[:2].sum() / rec.sum()
        top2_src = src[:2].sum() / src.sum()
        assert top2_rec >= 0.95
        assert top2_src < top2_rec

    def test_clipped_event_warns(self):
        spec = EventSpec(n_rx=3, n_ry=2, n_sx=2, n_sy=2, spacing_m=25.0,
                         nt=16, dt=0.004, events=[(0.01, 0.0, 0.0, 1.0)])
        with pytest.warns(UserWarning):
            linear_events(spec)

    def test_event_outside_record_rejected(self):
        with pytest.raises(ValueError):
            EventSpec(n_rx=2, n_ry=2, n_sx=2, n_sy=2, spacing_m=25.0,
                      nt=16, dt=0.004, events=[(99.0, 0.0, 0.0, 1.0)])

    def test_deterministic(self):
        spec = EventSpec(n_rx=3, n_ry=2, n_sx=2, n_sy=2, spacing_m=25.0,
                         nt=32, dt=0.004, events=[(0.06, 0.0001, 0.0, 1.0)],
                         wavelet_peak_hz=40.0)
        a = linear_events(spec)
        b = linear_events(spec)
        np.testing.assert_array_equal(a, b)
