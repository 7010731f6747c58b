import numpy as np
import pytest

from lrfill.sampling import (
    JitterSpec,
    SamplingMask,
    jittered_keep,
    jittered_volume_mask,
    uniform_entry_mask,
)


def gaps(keep):
    idx = np.flatnonzero(keep)
    return np.diff(idx)


class TestJitter:
    def test_keep_all(self):
        keep = jittered_keep(JitterSpec(17, 1.0, seed=0))
        assert keep.all()

    def test_survey_geometry(self):
        # 40 sources, keep 0.2: bin width 5, 8 full bins -> 8 kept, and the
        # max gap of 9 steps matches a 225 m max spacing on a 25 m grid.
        spec = JitterSpec(40, 0.2, seed=3)
        assert spec.bin_width == 5
        keep = jittered_keep(spec)
        assert keep.sum() == 8
        assert gaps(keep).max() <= 9

    def test_deterministic(self):
        a = jittered_keep(JitterSpec(10, 0.5, seed=123))
        b = jittered_keep(JitterSpec(10, 0.5, seed=123))
        np.testing.assert_array_equal(a, b)
        c = jittered_keep(JitterSpec(10, 0.5, seed=124))
        assert not np.array_equal(a, c)

    def test_gap_bounds_over_many_seeds(self):
        # min gap >= 1 step, max gap <= 2w - 1 steps, one keep per full bin
        for seed in range(1000):
            spec = JitterSpec(47, 0.25, seed=seed)
            w = spec.bin_width
            keep = jittered_keep(spec)
            full_bins = spec.n // w
            kept_in_full = keep[: full_bins * w].reshape(full_bins, w).sum(axis=1)
            assert np.all(kept_in_full == 1)
            assert keep[full_bins * w :].sum() <= 1
            g = gaps(keep)
            if g.size:
                assert g.min() >= 1
                assert g.max() <= 2 * w - 1

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            JitterSpec(10, 0.0)
        with pytest.raises(ValueError):
            JitterSpec(10, 1.5)

    def test_degenerate_short_axis_keeps_one(self):
        keep = jittered_keep(JitterSpec(3, 0.1, seed=5))
        assert keep.sum() == 1


class TestJitteredVolumeMask:
    def test_flattened_sources(self):
        mask = jittered_volume_mask(3, 2, 5, 4, 0.2, seed=2)
        assert mask.grid.shape == (3, 2, 5, 4)
        # every receiver sees the same kept sources
        per_source = mask.grid.all(axis=(0, 1)) | ~mask.grid.any(axis=(0, 1))
        assert per_source.all()
        kept_sources = mask.grid[0, 0]
        assert kept_sources.sum() == 4  # 20 flat sources / bin width 5

    def test_flat_index_order_is_sx_fastest(self):
        flat = jittered_keep(JitterSpec(20, 0.2, seed=7))
        mask = jittered_volume_mask(2, 2, 5, 4, 0.2, seed=7)
        kept = mask.grid[0, 0]
        for sx in range(5):
            for sy in range(4):
                assert kept[sx, sy] == flat[sx + sy * 5]

    def test_per_axis_mode(self):
        mask = jittered_volume_mask(2, 2, 10, 8, 0.5, seed=3, per_axis=True)
        kept = mask.grid[0, 0]
        # outer product structure: kept set is a grid of kept sx times kept sy
        sx_any = kept.any(axis=1)
        sy_any = kept.any(axis=0)
        np.testing.assert_array_equal(kept, np.outer(sx_any, sy_any))

    def test_receiver_removal(self):
        mask = jittered_volume_mask(6, 4, 2, 2, 0.5, seed=4, axis="receivers")
        per_recv = mask.grid.all(axis=(2, 3)) | ~mask.grid.any(axis=(2, 3))
        assert per_recv.all()


class TestUniformEntryMask:
    def test_keep_all(self):
        mask = uniform_entry_mask(4, 5, 1.0, seed=0)
        assert mask.grid.all()

    def test_exact_cardinality(self):
        mask = uniform_entry_mask(10, 10, 0.5, seed=9)
        assert mask.num_observed == 50

    def test_ceil_cardinality(self):
        mask = uniform_entry_mask(3, 3, 0.5, seed=9)
        assert mask.num_observed == 5  # ceil(4.5)

    def test_deterministic(self):
        a = uniform_entry_mask(8, 8, 0.3, seed=5)
        b = uniform_entry_mask(8, 8, 0.3, seed=5)
        np.testing.assert_array_equal(a.grid, b.grid)

    def test_inclusion_frequency_is_exchangeable(self):
        # Monte-Carlo moment check over a fixed seed range: every entry is
        # included about half the time (4-sigma band at 10000 draws).
        counts = np.zeros((5, 5))
        for seed in range(10000):
            counts += uniform_entry_mask(5, 5, 0.52, seed=seed).grid
        freq = counts / 10000
        expected = 13 / 25  # ceil(0.52 * 25) = 13 kept of 25
        assert np.all(np.abs(freq - expected) < 0.02)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            uniform_entry_mask(4, 4, 0.0)


class TestSamplingMask:
    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            SamplingMask(np.zeros((3, 3), dtype=bool))

    def test_default_axes(self):
        mask = SamplingMask(np.ones((2, 2), dtype=bool))
        assert mask.axes == ("rx", "sx")

    def test_grid_is_kept_in_canonical_axis_order(self):
        grid = np.zeros((2, 3, 4, 5), dtype=bool)
        grid[1, 2, 3, 4] = True
        mask = SamplingMask(grid, axes=("sx", "sy", "rx", "ry"))
        assert mask.axes == ("rx", "ry", "sx", "sy")
        assert mask.grid.shape == (4, 5, 2, 3)
        assert mask.grid[3, 4, 1, 2] and mask.num_observed == 1

    def test_axis_count_mismatch(self):
        with pytest.raises(ValueError):
            SamplingMask(np.ones((2, 2), dtype=bool), axes=("rx",))
