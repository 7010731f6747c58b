import numpy as np
import pytest
from complex64 import write_complex

from lrfill.fileio import read_canonical_header, read_volume, write_volume
from lrfill.pipeline import mask_volume
from lrfill.sampling import SamplingMask
from lrfill.volume import (
    AxisLayoutError,
    buffer_view,
    check_finite,
    dft_time_axis,
    freq_values_hz,
    idft_freq_axis,
)


def real_volume(rng, nt=8):
    """Real traces, trace-major: axes (rx, ry, sx, sy, t)."""
    return rng.standard_normal((3, 2, 4, 2, nt))


class TestComplexVolume:
    """A volume is a plain array: float64 traces with time last, or their
    complex128 half spectrum with frequency last.  Its axis labels live in
    the file headers only, which are checked once, where the file is
    read."""

    def test_basic_construction(self, tmp_path):
        # What a read gives is a C-contiguous float64 array of the
        # header's extents, and its spectrum a complex128 array with the
        # half spectrum's bins last.
        data = real_volume(np.random.default_rng(0))
        write_volume(data, tmp_path / "v.lrv")
        vol = read_volume(tmp_path / "v.lrv")
        assert type(vol) is np.ndarray and vol.dtype == np.float64
        assert vol.flags.c_contiguous and vol.shape == (3, 2, 4, 2, 8)
        assert read_canonical_header(tmp_path / "v.lrv") == vol.shape
        spec = dft_time_axis(vol)
        assert spec.dtype == np.complex128 and spec.shape == (3, 2, 4, 2, 5)

    def test_data_is_read_only(self):
        # The transforms only read what they are given: a read-only array
        # goes both ways and is left as it was.
        data = real_volume(np.random.default_rng(1))
        data.setflags(write=False)
        spec = dft_time_axis(data)
        spec.setflags(write=False)
        back = idft_freq_axis(spec, 8)
        np.testing.assert_allclose(back, data, atol=1e-14)
        np.testing.assert_array_equal(spec, dft_time_axis(data))

    def test_unknown_axis_rejected(self):
        # A mask names its axes among (rx, ry, sx, sy): any other label,
        # a time or frequency axis included, is refused.
        for axes in (("rx", "zz"), ("t", "rx"), ("f", "sx")):
            with pytest.raises(AxisLayoutError):
                SamplingMask(np.ones((2, 2), dtype=bool), axes=axes)

    def test_duplicate_axis_rejected(self, tmp_path):
        # A label named twice is refused, in a mask and in a file header.
        with pytest.raises(AxisLayoutError):
            SamplingMask(np.ones((2, 2), dtype=bool), axes=("rx", "rx"))
        path = tmp_path / "v.lrv"
        write_complex(path, ("rx", "rx", "sx", "sy", "t"), np.zeros((2, 2, 2, 2, 4)), 2)
        with pytest.raises(AxisLayoutError, match="v.lrv: axes"):
            read_volume(path)

    def test_exactly_one_spectral_axis(self, tmp_path):
        # A volume file holds traces, time last: a file whose last axis is
        # frequency, or that has no time axis, is refused at its header.
        for name, axes, shape in (("f.lrv", ("rx", "ry", "sx", "sy", "f"), (2, 2, 2, 2, 3)),
                                  ("none.lrv", ("rx", "ry", "sx", "sy"), (2, 2, 2, 2))):
            write_complex(tmp_path / name, axes, np.zeros(shape), 2)
            for reader in (read_canonical_header, read_volume):
                with pytest.raises(AxisLayoutError, match=f"{name}: axes"):
                    reader(tmp_path / name)

    def test_nonfinite_rejected(self):
        # Samples are checked where they cross the file boundary, by
        # check_finite, real and complex alike.
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            data = np.zeros((2, 2), dtype=complex)
            data[0, 1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                check_finite(data)
        check_finite(np.zeros((2, 2)))

    def test_shape_must_match_axes(self, tmp_path):
        # An array is written as a volume only with the five axes of the
        # trace-major header and no extent of 0; no file is left otherwise.
        for shape in ((4, 2, 3), (2, 2, 2, 2, 0)):
            with pytest.raises(ValueError, match="is not a volume"):
                write_volume(np.zeros(shape), tmp_path / "v.lrv")
        assert list(tmp_path.iterdir()) == []

    def test_view_is_shared(self, tmp_path):
        # A read into a buffer lies over the buffer's leading elements.
        data = real_volume(np.random.default_rng(2))
        write_volume(data, tmp_path / "v.lrv")
        buffer = np.zeros(data.size + 5)
        vol = read_volume(tmp_path / "v.lrv", out=buffer)
        assert np.shares_memory(vol, buffer)
        buffer[0] = 7.0
        assert vol[0, 0, 0, 0, 0] == 7.0

    def test_owning_array_stays_writable(self, tmp_path):
        # What a read or a transform returns is the caller's to write, and
        # masking into the buffer a block lies over writes it in place.
        data = real_volume(np.random.default_rng(3))
        write_volume(data, tmp_path / "v.lrv")
        buffer = np.zeros(data.size)
        vol = read_volume(tmp_path / "v.lrv", out=buffer)
        assert vol.flags.writeable and dft_time_axis(vol).flags.writeable
        grid = np.ones(data.shape[:-1], dtype=bool)
        grid[0, 0, 0, 0] = False
        masked = mask_volume(vol, SamplingMask(grid, axes=("rx", "ry", "sx", "sy")),
                             out=buffer)
        assert np.shares_memory(masked, buffer) and np.all(vol[0, 0, 0, 0] == 0)

    @pytest.mark.parametrize("data", [np.ones((2, 3, 2, 2, 4), dtype=np.float32),
                                      np.asfortranarray(np.ones((2, 3, 2, 2, 4))),
                                      np.ones((4, 3, 2, 2, 4))[::2]])
    def test_other_dtype_or_layout_is_copied(self, tmp_path, data):
        # Real samples of another type or memory layout are copied to
        # C-contiguous float64 to be written; the array handed over is left
        # as it was.
        data = data * np.arange(1, 5)
        before = data.copy()
        write_volume(data, tmp_path / "v.lrv")
        back = read_volume(tmp_path / "v.lrv")
        np.testing.assert_array_equal(back, data.astype(np.float64))
        np.testing.assert_array_equal(data, before)
        assert data.dtype == before.dtype

    def test_real_samples_are_wrapped_as_float64(self):
        # Real samples of another type are transformed as float64, and a
        # buffer of float64 samples may hold a block.
        data = np.random.default_rng(4).standard_normal((3, 2, 8)).astype(np.float32)
        spec = dft_time_axis(data)
        assert spec.dtype == np.complex128
        np.testing.assert_array_equal(spec, dft_time_axis(data.astype(np.float64)))
        buffer = np.zeros(60)
        assert np.shares_memory(buffer_view(buffer, (3, 2, 8)), buffer)

    def test_volume_over_a_buffer(self):
        # An array over the leading elements of a block buffer shares them,
        # and sees what is written into the buffer later.
        buffer = np.zeros(10, dtype=np.complex128)
        vol = buffer_view(buffer, (2, 3))
        assert vol.shape == (2, 3) and np.shares_memory(vol, buffer)
        buffer[:6] = np.arange(6)
        np.testing.assert_array_equal(vol, np.arange(6).reshape(2, 3))
        with pytest.raises(ValueError, match="cannot hold"):
            buffer_view(buffer, (3, 4))
        with pytest.raises(ValueError, match="float64 or complex128"):
            buffer_view(np.zeros(10, dtype=np.float32), (2, 3))


class TestDft:
    """The transform pair on 5-D volumes of real traces, time axis last."""

    def test_roundtrip_identity(self):
        vol = real_volume(np.random.default_rng(1))
        back = idft_freq_axis(dft_time_axis(vol), 8)
        err = np.linalg.norm(back - vol) / np.linalg.norm(vol)
        assert err < 1e-12
        assert back.shape == vol.shape

    def test_parseval(self):
        # An odd record has no Nyquist bin: every bin but DC has its
        # conjugate among the bins left out.
        vol = real_volume(np.random.default_rng(2), nt=7)
        half = dft_time_axis(vol)
        energy = 2 * np.sum(np.abs(half) ** 2) - np.sum(np.abs(half[..., 0]) ** 2)
        norm2 = np.sum(vol ** 2)
        assert abs(energy - norm2) < 1e-12 * norm2

    def test_transforms_into_a_buffer(self):
        # One buffer sized for the larger block holds each block in turn,
        # and each result is the fresh one bit for bit.
        rng = np.random.default_rng(3)
        large, small = real_volume(rng), real_volume(rng, nt=6)
        spectra = np.full(large.size + 7, np.nan, dtype=np.complex128)
        samples = np.full(large.size + 7, np.nan)
        for vol, nt in ((large, 8), (small, 6)):
            spec = dft_time_axis(vol, out=spectra)
            assert spec.shape == vol.shape[:-1] + (nt // 2 + 1,)
            assert np.shares_memory(spec, spectra)
            np.testing.assert_array_equal(spec, dft_time_axis(vol))
            back = idft_freq_axis(spec, nt, out=samples)
            assert back.shape == vol.shape and np.shares_memory(back, samples)
            np.testing.assert_array_equal(back, idft_freq_axis(spec, nt))


class TestRealDft:
    """The spectrum of real traces is their half spectrum, bins 0 to n//2."""

    def test_constant_series_is_dc_only(self):
        # Length-4 all-ones series: unitary scaling gives 4 / sqrt(4) = 2 at DC.
        spec = dft_time_axis(np.ones((2, 2, 4)))
        assert spec.shape == (2, 2, 3)
        np.testing.assert_allclose(spec[..., 0], 2.0 * np.ones((2, 2)), atol=1e-14)
        np.testing.assert_allclose(spec[..., 1:], 0.0, atol=1e-14)

    @pytest.mark.parametrize("nt", [8, 7])
    def test_half_spectrum_is_the_nonnegative_bins(self, nt):
        # The bins of the full DFT from 0 to nt//2, and the inverse gives
        # the real traces back.
        rng = np.random.default_rng(4)
        data = rng.standard_normal((3, 2, nt))
        half = dft_time_axis(data)
        full = np.fft.fft(data, axis=-1, norm="ortho")
        assert half.shape == (3, 2, nt // 2 + 1)
        np.testing.assert_allclose(half, full[..., :nt // 2 + 1], atol=1e-14)
        back = idft_freq_axis(half, nt)
        assert back.shape == data.shape and back.dtype == np.float64
        np.testing.assert_allclose(back, data, atol=1e-14)

    def test_parseval_counts_each_bin_and_its_conjugate(self):
        data = np.random.default_rng(5).standard_normal((3, 2, 8))
        half = dft_time_axis(data)
        energy = 2 * np.sum(np.abs(half) ** 2) - np.sum(np.abs(half[..., [0, -1]]) ** 2)
        assert abs(energy - np.sum(data ** 2)) <= 1e-12 * np.sum(data ** 2)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal((3, 2, 8))
        v = rng.standard_normal((3, 2, 8))
        a = 1.7
        lhs = dft_time_axis(a * u + v)
        rhs = a * dft_time_axis(u) + dft_time_axis(v)
        assert np.linalg.norm(lhs - rhs) < 1e-12 * np.linalg.norm(rhs)

    def test_single_bin_gives_cosine(self):
        # One unit at bin k=1 of a length-4 record and its conjugate at
        # bin 3: samples 2 cos(2 pi n / 4) / sqrt(4).
        spec = np.zeros((1, 1, 3), dtype=complex)
        spec[..., 1] = 1.0
        vol = idft_freq_axis(spec, 4)
        assert vol.shape == (1, 1, 4)
        np.testing.assert_allclose(vol[0, 0], np.cos(2 * np.pi * np.arange(4) / 4),
                                   atol=1e-14)

    def test_zero_volume_stays_zero(self):
        out = idft_freq_axis(np.zeros((2, 2, 3), dtype=complex), 4)
        assert np.all(out == 0)

    def test_transforms_into_buffers(self):
        # Into a complex buffer and back into a real one, bit for bit as
        # the fresh results.
        vol = np.random.default_rng(6).standard_normal((3, 8))
        spectra = np.full(20, np.nan, dtype=np.complex128)
        samples = np.full(30, np.nan)
        spec = dft_time_axis(vol, out=spectra)
        assert np.shares_memory(spec, spectra)
        np.testing.assert_array_equal(spec, dft_time_axis(vol))
        back = idft_freq_axis(spec, 8, out=samples)
        assert np.shares_memory(back, samples)
        np.testing.assert_array_equal(back, idft_freq_axis(spec, 8))

    def test_spectrum_must_be_the_half_spectrum_of_nt(self):
        spec = np.zeros((2, 5), dtype=complex)
        idft_freq_axis(spec, 9)
        for nt in (7, 10):
            with pytest.raises(ValueError, match="half spectrum"):
                idft_freq_axis(spec, nt)

    def test_complex_traces_are_refused(self):
        with pytest.raises(ValueError, match="real traces"):
            dft_time_axis(np.ones((2, 4), dtype=complex))


def test_freq_values():
    # The frequencies of the bins of dft_time_axis: 0 Hz to Nyquist.
    f = freq_values_hz(8, 0.004)
    assert len(f) == 5
    assert f[0] == 0.0
    assert f[1] == pytest.approx(1.0 / (8 * 0.004))
    assert f[4] == pytest.approx(125.0)
