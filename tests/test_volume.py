import numpy as np
import pytest

from lrfill.volume import (
    AxisLayoutError,
    Volume,
    axis_permutation,
    buffer_view,
    check_finite,
    dft_time_axis,
    freq_values_hz,
    idft_freq_axis,
)


def random_volume(rng, axes=("t", "rx", "ry", "sx", "sy"), dims=(8, 3, 2, 4, 2)):
    data = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    return Volume(axes, data)


class TestComplexVolume:
    def test_basic_construction(self):
        vol = Volume(("t", "rx", "sx"), np.zeros((4, 2, 3)))
        assert vol.dims == (4, 2, 3)
        assert vol.axis_index("rx") == 1

    def test_data_is_read_only(self):
        vol = Volume(("t", "rx", "sx"), np.zeros((4, 2, 3)))
        with pytest.raises(ValueError):
            vol.data[0, 0, 0] = 1.0

    def test_unknown_axis_rejected(self):
        with pytest.raises(AxisLayoutError):
            Volume(("t", "zz"), np.zeros((2, 2)))

    def test_duplicate_axis_rejected(self):
        with pytest.raises(AxisLayoutError):
            Volume(("t", "rx", "rx"), np.zeros((2, 2, 2)))

    def test_exactly_one_spectral_axis(self):
        with pytest.raises(AxisLayoutError):
            Volume(("rx", "sx"), np.zeros((2, 2)))
        with pytest.raises(AxisLayoutError):
            Volume(("t", "f"), np.zeros((2, 2)))

    def test_nonfinite_rejected(self):
        # The constructor checks labels and dimensions, not values: samples
        # are checked where they cross the file boundary, by check_finite.
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            data = np.zeros((2, 2), dtype=complex)
            data[0, 1] = bad
            vol = Volume(("t", "rx"), data)
            with pytest.raises(ValueError, match="non-finite"):
                check_finite(vol.data)

    def test_shape_must_match_axes(self):
        with pytest.raises(AxisLayoutError):
            Volume(("t", "rx", "sx"), np.zeros((2, 2)))

    def test_view_is_shared(self):
        # A C-contiguous complex128 view is wrapped, not copied.
        base = np.zeros((4, 2, 3), dtype=complex)
        vol = Volume(("t", "rx", "sx"), base[1:3])
        assert np.shares_memory(vol.data, base)
        base[1, 0, 0] = 1.0
        assert vol.data[0, 0, 0] == 1.0

    def test_owning_array_stays_writable(self):
        # The volume's own view is read-only; the array handed over is not
        # frozen, and whoever writes it changes the volume.
        data = np.zeros((4, 2, 3), dtype=complex)
        vol = Volume(("t", "rx", "sx"), data)
        assert np.shares_memory(vol.data, data)
        assert data.flags.writeable and not vol.data.flags.writeable
        data[0, 0, 0] = 2.0
        assert vol.data[0, 0, 0] == 2.0

    @pytest.mark.parametrize("data", [np.zeros((4, 2, 3), dtype=np.complex64),
                                      np.zeros((4, 2, 3), dtype=complex, order="F"),
                                      np.zeros((4, 2, 3), dtype=np.float32)])
    def test_other_dtype_or_layout_is_copied(self, data):
        # Complex samples are held as complex128, real ones as float64.
        vol = Volume(("t", "rx", "sx"), data)
        kind = np.complex128 if np.iscomplexobj(data) else np.float64
        assert vol.data.dtype == kind and vol.data.flags.c_contiguous
        assert not np.shares_memory(vol.data, data)
        assert data.flags.writeable

    def test_real_samples_are_wrapped_as_float64(self):
        # Real samples stay real: a C-contiguous float64 array is wrapped
        # without a copy, and a buffer of them may hold a block.
        data = np.zeros((4, 2, 3))
        vol = Volume(("t", "rx", "sx"), data)
        assert vol.data.dtype == np.float64 and np.shares_memory(vol.data, data)
        buffer = np.zeros(30)
        assert np.shares_memory(buffer_view(buffer, (4, 2, 3)), buffer)

    def test_volume_over_a_buffer(self):
        # A volume over the leading elements of a block buffer shares them
        # and cannot write them; the buffer stays writable, and the volume
        # sees what is written into it later.
        buffer = np.zeros(10, dtype=np.complex128)
        vol = Volume(("t", "rx"), buffer_view(buffer, (2, 3)))
        assert vol.dims == (2, 3) and np.shares_memory(vol.data, buffer)
        assert not vol.data.flags.writeable and buffer.flags.writeable
        buffer[:6] = np.arange(6)
        np.testing.assert_array_equal(vol.data, np.arange(6).reshape(2, 3))
        with pytest.raises(ValueError, match="cannot hold"):
            buffer_view(buffer, (3, 4))
        with pytest.raises(ValueError, match="float64 or complex128"):
            buffer_view(np.zeros(10, dtype=np.float32), (2, 3))

    def test_reordered_same_order_is_self(self):
        vol = random_volume(np.random.default_rng(0))
        assert vol.reordered(vol.axes) is vol
        assert vol.reordered(list(vol.axes)) is vol

    def test_axis_permutation(self):
        assert axis_permutation(("t", "rx", "sx"), ("sx", "t", "rx")) == [2, 0, 1]
        for want in (("t", "rx"), ("t", "rx", "sy"), ("t", "rx", "sx", "sy")):
            with pytest.raises(AxisLayoutError, match="cannot reorder"):
                axis_permutation(("t", "rx", "sx"), want)
        vol = random_volume(np.random.default_rng(0))
        with pytest.raises(AxisLayoutError):
            vol.reordered(("f", "rx", "ry", "sx", "sy"))

    def test_reordered_permutes_content(self):
        rng = np.random.default_rng(0)
        vol = random_volume(rng)
        flipped = vol.reordered(("sy", "sx", "ry", "rx", "t"))
        assert flipped.dims == vol.dims[::-1]
        np.testing.assert_array_equal(flipped.data, vol.data.transpose(4, 3, 2, 1, 0))


def real_volume(rng, nt=8):
    return Volume(("t", "rx", "ry", "sx", "sy"), rng.standard_normal((nt, 3, 2, 4, 2)))


class TestDft:
    """The transform pair on 5-D volumes of real traces, time axis first."""

    def test_roundtrip_identity(self):
        vol = real_volume(np.random.default_rng(1))
        back = idft_freq_axis(dft_time_axis(vol), 8)
        err = np.linalg.norm(back.data - vol.data) / np.linalg.norm(vol.data)
        assert err < 1e-12
        assert back.axes == vol.axes

    def test_parseval(self):
        # An odd record has no Nyquist bin: every bin but DC has its
        # conjugate among the bins left out.
        vol = real_volume(np.random.default_rng(2), nt=7)
        half = dft_time_axis(vol).data
        energy = 2 * np.sum(np.abs(half) ** 2) - np.sum(np.abs(half[0]) ** 2)
        norm2 = np.sum(vol.data ** 2)
        assert abs(energy - norm2) < 1e-12 * norm2

    def test_transforms_into_a_buffer(self):
        # One buffer sized for the larger block holds each block in turn,
        # and each result is the fresh one bit for bit.
        rng = np.random.default_rng(3)
        large, small = real_volume(rng), real_volume(rng, nt=6)
        spectra = np.full(large.data.size + 7, np.nan, dtype=np.complex128)
        samples = np.full(large.data.size + 7, np.nan)
        for vol, nt in ((large, 8), (small, 6)):
            spec = dft_time_axis(vol, out=spectra)
            assert spec.axes == ("f", "rx", "ry", "sx", "sy")
            assert np.shares_memory(spec.data, spectra)
            np.testing.assert_array_equal(spec.data, dft_time_axis(vol).data)
            back = idft_freq_axis(spec, nt, out=samples)
            assert back.axes == vol.axes and np.shares_memory(back.data, samples)
            np.testing.assert_array_equal(back.data, idft_freq_axis(spec, nt).data)


class TestRealDft:
    """The spectrum of real traces is their half spectrum, bins 0 to n//2."""

    def test_constant_series_is_dc_only(self):
        # Length-4 all-ones series: unitary scaling gives 4 / sqrt(4) = 2 at DC.
        vol = Volume(("t", "rx", "sx"), np.ones((4, 2, 2)))
        spec = dft_time_axis(vol)
        assert spec.axes == ("f", "rx", "sx") and spec.dims == (3, 2, 2)
        np.testing.assert_allclose(spec.data[0], 2.0 * np.ones((2, 2)), atol=1e-14)
        np.testing.assert_allclose(spec.data[1:], 0.0, atol=1e-14)

    @pytest.mark.parametrize("nt", [8, 7])
    def test_half_spectrum_is_the_nonnegative_bins(self, nt):
        # The bins of the full DFT from 0 to nt//2, and the inverse gives
        # the real traces back.
        rng = np.random.default_rng(4)
        data = rng.standard_normal((nt, 3, 2))
        half = dft_time_axis(Volume(("t", "rx", "sx"), data))
        full = np.fft.fft(data, axis=0, norm="ortho")
        assert half.axes == ("f", "rx", "sx") and half.dims == (nt // 2 + 1, 3, 2)
        np.testing.assert_allclose(half.data, full[:nt // 2 + 1], atol=1e-14)
        back = idft_freq_axis(half, nt)
        assert back.axes == ("t", "rx", "sx") and back.data.dtype == np.float64
        np.testing.assert_allclose(back.data, data, atol=1e-14)

    def test_parseval_counts_each_bin_and_its_conjugate(self):
        data = np.random.default_rng(5).standard_normal((3, 2, 8))
        half = dft_time_axis(Volume(("rx", "sx", "t"), data)).data
        energy = 2 * np.sum(np.abs(half) ** 2) - np.sum(np.abs(half[..., [0, -1]]) ** 2)
        assert abs(energy - np.sum(data ** 2)) <= 1e-12 * np.sum(data ** 2)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        u = Volume(("t", "rx", "sx"), rng.standard_normal((8, 3, 2)))
        v = Volume(("t", "rx", "sx"), rng.standard_normal((8, 3, 2)))
        a = 1.7
        lhs = dft_time_axis(Volume(u.axes, a * u.data + v.data)).data
        rhs = a * dft_time_axis(u).data + dft_time_axis(v).data
        assert np.linalg.norm(lhs - rhs) < 1e-12 * np.linalg.norm(rhs)

    def test_single_bin_gives_cosine(self):
        # One unit at bin k=1 of a length-4 record and its conjugate at
        # bin 3: samples 2 cos(2 pi n / 4) / sqrt(4).
        spec = np.zeros((3, 1, 1), dtype=complex)
        spec[1] = 1.0
        vol = idft_freq_axis(Volume(("f", "rx", "sx"), spec), 4)
        assert vol.axes == ("t", "rx", "sx")
        np.testing.assert_allclose(vol.data[:, 0, 0], np.cos(2 * np.pi * np.arange(4) / 4),
                                   atol=1e-14)

    def test_zero_volume_stays_zero(self):
        out = idft_freq_axis(Volume(("f", "rx", "sx"), np.zeros((3, 2, 2))), 4)
        assert np.all(out.data == 0)

    def test_transforms_into_buffers(self):
        # Into a complex buffer and back into a real one, bit for bit as
        # the fresh results.
        vol = Volume(("rx", "t"), np.random.default_rng(6).standard_normal((3, 8)))
        spectra = np.full(20, np.nan, dtype=np.complex128)
        samples = np.full(30, np.nan)
        spec = dft_time_axis(vol, out=spectra)
        assert np.shares_memory(spec.data, spectra)
        np.testing.assert_array_equal(spec.data, dft_time_axis(vol).data)
        back = idft_freq_axis(spec, 8, out=samples)
        assert np.shares_memory(back.data, samples)
        np.testing.assert_array_equal(back.data, idft_freq_axis(spec, 8).data)

    def test_spectrum_must_be_the_half_spectrum_of_nt(self):
        spec = Volume(("f", "rx"), np.zeros((5, 2), dtype=complex))
        idft_freq_axis(spec, 9)
        for nt in (7, 10):
            with pytest.raises(ValueError, match="half spectrum"):
                idft_freq_axis(spec, nt)

    def test_complex_traces_are_refused(self):
        vol = Volume(("t", "rx"), np.ones((4, 2), dtype=complex))
        with pytest.raises(ValueError, match="real traces"):
            dft_time_axis(vol)

    def test_missing_axis_is_structural_error(self):
        vol = Volume(("f", "rx", "sx"), np.zeros((3, 2, 2)))
        with pytest.raises(AxisLayoutError):
            dft_time_axis(vol)
        tvol = Volume(("t", "rx", "sx"), np.zeros((4, 2, 2)))
        with pytest.raises(AxisLayoutError):
            idft_freq_axis(tvol, 4)


def test_freq_values():
    # The frequencies of the bins of dft_time_axis: 0 Hz to Nyquist.
    f = freq_values_hz(8, 0.004)
    assert len(f) == 5
    assert f[0] == 0.0
    assert f[1] == pytest.approx(1.0 / (8 * 0.004))
    assert f[4] == pytest.approx(125.0)
