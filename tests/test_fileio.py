import numpy as np
import pytest

from lrfill.fileio import (
    BadMagicError,
    DimsOverflowError,
    FileFormatError,
    TruncatedFileError,
    VersionError,
    read_mask,
    read_volume,
    write_mask,
    write_volume,
)
from lrfill.sampling import SamplingMask
from lrfill.volume import ComplexVolume


@pytest.fixture
def vol():
    rng = np.random.default_rng(42)
    dims = (2, 3, 2, 2, 2)
    data = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    return ComplexVolume(("t", "rx", "ry", "sx", "sy"), data)


def test_volume_roundtrip_bit_exact(tmp_path, vol):
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    back = read_volume(path)
    assert back.axes == vol.axes
    assert back.dims == vol.dims
    assert np.array_equal(back.data, vol.data)  # bit-exact


def test_file_roundtrip_bit_exact(tmp_path, vol):
    a = tmp_path / "a.lrv"
    b = tmp_path / "b.lrv"
    write_volume(vol, a)
    write_volume(read_volume(a), b)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("naxes", [1, 2, 3, 4, 5])
def test_roundtrip_every_axis_count(tmp_path, naxes):
    rng = np.random.default_rng(naxes)
    axes = ("t", "rx", "ry", "sx", "sy")[:naxes]
    dims = (3, 2, 2, 2, 2)[:naxes]
    vol = ComplexVolume(axes, rng.standard_normal(dims) + 1j * rng.standard_normal(dims))
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    back = read_volume(path)
    assert back.axes == vol.axes
    assert np.array_equal(back.data, vol.data)


def test_single_precision_flag(tmp_path, vol):
    path = tmp_path / "v32.lrv"
    write_volume(vol, path, single_precision=True)
    back = read_volume(path)
    assert np.array_equal(back.data, vol.data.astype(np.complex64).astype(np.complex128))


def test_single_precision_reads_back_as_complex128(tmp_path, vol):
    path = tmp_path / "v32.lrv"
    write_volume(vol, path, single_precision=True)
    assert path.stat().st_size == 7 + 5 * 9 + vol.data.size * 8
    back = read_volume(path)
    assert back.data.dtype == np.complex128
    assert not back.data.flags.writeable


def test_bad_magic(tmp_path, vol):
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagicError):
        read_volume(path)


def test_bad_version(tmp_path, vol):
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionError):
        read_volume(path)


def test_truncated_payload(tmp_path):
    # Header says 10 scalars, file stores 9.
    vol = ComplexVolume(("t", "rx"), np.arange(10, dtype=complex).reshape(5, 2))
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(TruncatedFileError):
        read_volume(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "v.lrv"
    path.write_bytes(b"LRV1\x01")
    with pytest.raises(TruncatedFileError):
        read_volume(path)


def test_trailing_bytes_rejected(tmp_path, vol):
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(FileFormatError):
        read_volume(path)


def test_dims_overflow(tmp_path):
    header = bytearray(b"LRV1\x01\x00\x02")
    header.extend([0, 2])  # axes t, rx
    header.extend(np.asarray([1 << 33, 1 << 33], dtype="<u8").tobytes())
    path = tmp_path / "v.lrv"
    path.write_bytes(bytes(header))
    with pytest.raises(DimsOverflowError):
        read_volume(path)


def test_unknown_axis_code(tmp_path):
    header = bytearray(b"LRV1\x01\x00\x01")
    header.append(77)
    header.extend(np.asarray([2], dtype="<u8").tobytes())
    path = tmp_path / "v.lrv"
    path.write_bytes(bytes(header) + b"\x00" * 32)
    with pytest.raises(FileFormatError):
        read_volume(path)


class TestMaskFormat:
    def test_mask_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        grid = rng.random((3, 2, 4, 2)) < 0.4
        grid.flat[0] = True
        mask = SamplingMask(grid, axes=("rx", "ry", "sx", "sy"), scheme="jittered")
        path = tmp_path / "m.lrm"
        write_mask(mask, path)
        back = read_mask(path)
        assert np.array_equal(back.grid, grid)
        assert back.axes == ("rx", "ry", "sx", "sy")
        assert back.scheme == "unknown"  # metadata is not serialized

    def test_mask_bad_magic(self, tmp_path):
        path = tmp_path / "m.lrm"
        path.write_bytes(b"LRV1" + b"\x01\x01" + bytes([2]) + b"\x00" * 8)
        with pytest.raises(BadMagicError):
            read_mask(path)

    def test_mask_payload_values_checked(self, tmp_path):
        mask = SamplingMask(np.ones((2, 2), dtype=bool), axes=("rx", "sx"))
        path = tmp_path / "m.lrm"
        write_mask(mask, path)
        raw = bytearray(path.read_bytes())
        raw[-1] = 7
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError):
            read_mask(path)
