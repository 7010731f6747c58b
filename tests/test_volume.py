import numpy as np
import pytest

from lrfill.volume import (
    AxisLayoutError,
    ComplexVolume,
    axis_permutation,
    buffer_view,
    check_finite,
    dft_time_axis,
    freq_values_hz,
    idft_freq_axis,
)


def random_volume(rng, axes=("t", "rx", "ry", "sx", "sy"), dims=(8, 3, 2, 4, 2)):
    data = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    return ComplexVolume(axes, data)


class TestComplexVolume:
    def test_basic_construction(self):
        vol = ComplexVolume(("t", "rx", "sx"), np.zeros((4, 2, 3)))
        assert vol.dims == (4, 2, 3)
        assert vol.axis_index("rx") == 1

    def test_data_is_read_only(self):
        vol = ComplexVolume(("t", "rx", "sx"), np.zeros((4, 2, 3)))
        with pytest.raises(ValueError):
            vol.data[0, 0, 0] = 1.0

    def test_unknown_axis_rejected(self):
        with pytest.raises(AxisLayoutError):
            ComplexVolume(("t", "zz"), np.zeros((2, 2)))

    def test_duplicate_axis_rejected(self):
        with pytest.raises(AxisLayoutError):
            ComplexVolume(("t", "rx", "rx"), np.zeros((2, 2, 2)))

    def test_exactly_one_spectral_axis(self):
        with pytest.raises(AxisLayoutError):
            ComplexVolume(("rx", "sx"), np.zeros((2, 2)))
        with pytest.raises(AxisLayoutError):
            ComplexVolume(("t", "f"), np.zeros((2, 2)))

    def test_nonfinite_rejected(self):
        # The constructor checks labels and dimensions, not values: samples
        # are checked where they cross the file boundary, by check_finite.
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            data = np.zeros((2, 2), dtype=complex)
            data[0, 1] = bad
            vol = ComplexVolume(("t", "rx"), data)
            with pytest.raises(ValueError, match="non-finite"):
                check_finite(vol.data)

    def test_shape_must_match_axes(self):
        with pytest.raises(AxisLayoutError):
            ComplexVolume(("t", "rx", "sx"), np.zeros((2, 2)))

    def test_view_is_shared(self):
        # A C-contiguous complex128 view is wrapped, not copied.
        base = np.zeros((4, 2, 3), dtype=complex)
        vol = ComplexVolume(("t", "rx", "sx"), base[1:3])
        assert np.shares_memory(vol.data, base)
        base[1, 0, 0] = 1.0
        assert vol.data[0, 0, 0] == 1.0

    def test_owning_array_stays_writable(self):
        # The volume's own view is read-only; the array handed over is not
        # frozen, and whoever writes it changes the volume.
        data = np.zeros((4, 2, 3), dtype=complex)
        vol = ComplexVolume(("t", "rx", "sx"), data)
        assert np.shares_memory(vol.data, data)
        assert data.flags.writeable and not vol.data.flags.writeable
        data[0, 0, 0] = 2.0
        assert vol.data[0, 0, 0] == 2.0

    @pytest.mark.parametrize("data", [np.zeros((4, 2, 3), dtype=np.complex64),
                                      np.zeros((4, 2, 3), dtype=complex, order="F"),
                                      np.zeros((4, 2, 3))])
    def test_other_dtype_or_layout_is_copied(self, data):
        vol = ComplexVolume(("t", "rx", "sx"), data)
        assert vol.data.dtype == np.complex128 and vol.data.flags.c_contiguous
        assert not np.shares_memory(vol.data, data)
        assert data.flags.writeable

    def test_volume_over_a_buffer(self):
        # A volume over the leading elements of a block buffer shares them
        # and cannot write them; the buffer stays writable, and the volume
        # sees what is written into it later.
        buffer = np.zeros(10, dtype=np.complex128)
        vol = ComplexVolume(("t", "rx"), buffer_view(buffer, (2, 3)))
        assert vol.dims == (2, 3) and np.shares_memory(vol.data, buffer)
        assert not vol.data.flags.writeable and buffer.flags.writeable
        buffer[:6] = np.arange(6)
        np.testing.assert_array_equal(vol.data, np.arange(6).reshape(2, 3))
        with pytest.raises(ValueError, match="cannot hold"):
            buffer_view(buffer, (3, 4))
        with pytest.raises(ValueError, match="complex128"):
            buffer_view(np.zeros(10), (2, 3))

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


class TestDft:
    def test_constant_series_is_dc_only(self):
        # Length-4 all-ones series: unitary scaling gives 4 / sqrt(4) = 2 at DC.
        data = np.ones((4, 2, 2), dtype=complex)
        vol = ComplexVolume(("t", "rx", "sx"), data)
        spec = dft_time_axis(vol)
        assert spec.axes == ("f", "rx", "sx")
        np.testing.assert_allclose(spec.data[0], 2.0 * np.ones((2, 2)), atol=1e-14)
        np.testing.assert_allclose(spec.data[1:], 0.0, atol=1e-14)

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(1)
        vol = random_volume(rng)
        back = idft_freq_axis(dft_time_axis(vol))
        err = np.linalg.norm(back.data - vol.data) / np.linalg.norm(vol.data)
        assert err < 1e-12
        assert back.axes == vol.axes

    def test_transforms_into_a_buffer(self):
        # Into a larger buffer, and then in place over their own input, the
        # pair gives the fresh results bit for bit.
        vol = random_volume(np.random.default_rng(3))
        buffer = np.full(vol.data.size + 7, np.nan, dtype=np.complex128)
        spec = dft_time_axis(vol)
        into = dft_time_axis(vol, out=buffer)
        assert into.axes == spec.axes and np.shares_memory(into.data, buffer)
        np.testing.assert_array_equal(into.data, spec.data)
        back = idft_freq_axis(into, out=buffer)
        assert back.axes == vol.axes and np.shares_memory(back.data, buffer)
        np.testing.assert_array_equal(back.data, idft_freq_axis(spec).data)

    def test_parseval(self):
        rng = np.random.default_rng(2)
        vol = random_volume(rng)
        spec = dft_time_axis(vol)
        norm = np.linalg.norm(vol.data)
        assert abs(np.linalg.norm(spec.data) - norm) < 1e-12 * norm

    def test_linearity(self):
        rng = np.random.default_rng(3)
        u = random_volume(rng)
        v = random_volume(rng)
        a = 1.7 - 0.3j
        lhs = dft_time_axis(ComplexVolume(u.axes, a * u.data + v.data)).data
        rhs = a * dft_time_axis(u).data + dft_time_axis(v).data
        assert np.linalg.norm(lhs - rhs) < 1e-12 * np.linalg.norm(rhs)

    def test_single_bin_gives_exponential(self):
        # One unit at bin k=1, length 4: samples exp(2i pi n / 4) / sqrt(4).
        spec = np.zeros((4, 1, 1), dtype=complex)
        spec[1] = 1.0
        vol = idft_freq_axis(ComplexVolume(("f", "rx", "sx"), spec))
        assert vol.axes == ("t", "rx", "sx")
        n = np.arange(4)
        expected = np.exp(2j * np.pi * n / 4) / 2.0
        np.testing.assert_allclose(vol.data[:, 0, 0], expected, atol=1e-14)

    def test_zero_volume_stays_zero(self):
        vol = ComplexVolume(("f", "rx", "sx"), np.zeros((4, 2, 2)))
        out = idft_freq_axis(vol)
        assert np.all(out.data == 0)

    def test_missing_axis_is_structural_error(self):
        vol = ComplexVolume(("f", "rx", "sx"), np.zeros((4, 2, 2)))
        with pytest.raises(AxisLayoutError):
            dft_time_axis(vol)
        tvol = ComplexVolume(("t", "rx", "sx"), np.zeros((4, 2, 2)))
        with pytest.raises(AxisLayoutError):
            idft_freq_axis(tvol)


def test_freq_values():
    f = freq_values_hz(8, 0.004)
    assert f[0] == 0.0
    assert f[1] == pytest.approx(1.0 / (8 * 0.004))
    assert f[4] == pytest.approx(-125.0)
