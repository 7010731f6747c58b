import errno
import itertools
import os
import tracemalloc

import numpy as np
import pytest
from complex64 import write_complex64

from lrfill import fileio
from lrfill.fileio import (
    BadMagicError,
    DimsOverflowError,
    FileFormatError,
    TruncatedFileError,
    VersionError,
    create_volume,
    read_mask,
    read_volume,
    read_volume_header,
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
    write_complex64(vol, path)
    back = read_volume(path)
    assert np.array_equal(back.data, vol.data.astype(np.complex64).astype(np.complex128))


def test_single_precision_reads_back_as_complex128(tmp_path, vol):
    path = tmp_path / "v32.lrv"
    write_complex64(vol, path)
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
        mask = SamplingMask(grid, axes=("rx", "ry", "sx", "sy"))
        path = tmp_path / "m.lrm"
        write_mask(mask, path)
        back = read_mask(path)
        assert np.array_equal(back.grid, grid)
        assert back.axes == ("rx", "ry", "sx", "sy")

    def test_mask_bad_magic(self, tmp_path):
        path = tmp_path / "m.lrm"
        path.write_bytes(b"LRV1" + b"\x01\x01" + bytes([2]) + b"\x00" * 8)
        with pytest.raises(BadMagicError):
            read_mask(path)

    def test_failed_mask_write_leaves_no_file(self, tmp_path):
        # A write that fails after the header leaves no file, and a file
        # already at the path stays as it was.
        class Unreadable:
            shape = (2, 2)

            def __array__(self, dtype=None, copy=None):
                raise OSError(errno.EIO, "input/output error")

        path = tmp_path / "m.lrm"
        mask = SamplingMask(np.eye(2, dtype=bool), axes=("rx", "sx"))
        write_mask(mask, path)
        before = path.read_bytes()
        mask.grid = Unreadable()
        for target in (path, tmp_path / "new.lrm"):
            with pytest.raises(OSError):
                write_mask(mask, target)
        assert [p.name for p in tmp_path.iterdir()] == ["m.lrm"]
        assert path.read_bytes() == before

    def test_mask_payload_values_checked(self, tmp_path):
        mask = SamplingMask(np.ones((2, 2), dtype=bool), axes=("rx", "sx"))
        path = tmp_path / "m.lrm"
        write_mask(mask, path)
        raw = bytearray(path.read_bytes())
        raw[-1] = 7
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError):
            read_mask(path)


BLOCKS = [{}, {"rx": slice(1, 2)}, {"ry": slice(0, 1), "sx": slice(1, 3)},
          {"t": slice(2, 4), "sy": slice(1, 2)}, {"rx": slice(0, 3), "sy": slice(0, 1)}]


@pytest.fixture(params=[("t", "rx", "ry", "sx", "sy"), ("rx", "t", "sy", "sx", "ry")],
                ids=["canonical", "permuted"])
def layout(request):
    return request.param


def _volume(axes):
    rng = np.random.default_rng(7)
    dims = {"t": 5, "rx": 3, "ry": 2, "sx": 3, "sy": 2}
    shape = tuple(dims[a] for a in axes)
    return ComplexVolume(axes, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _index(vol, block):
    return tuple(block.get(a, slice(None)) for a in vol.axes)


@pytest.mark.parametrize("single", [False, True], ids=["complex128", "complex64"])
def test_block_read_is_the_box_of_the_whole(tmp_path, layout, single):
    vol = _volume(layout)
    path = tmp_path / "v.lrv"
    (write_complex64 if single else write_volume)(vol, path)
    whole = read_volume(path)
    # A buffer used for every block, read into its leading elements.
    buffer = np.full(vol.data.size, np.nan, dtype=np.complex128)
    for block in BLOCKS:
        part = read_volume(path, block)
        assert part.axes == vol.axes
        assert part.data.dtype == np.complex128
        np.testing.assert_array_equal(part.data, whole.data[_index(vol, block)])
        into = read_volume(path, block, out=buffer)
        assert into.axes == vol.axes and np.shares_memory(into.data, buffer)
        np.testing.assert_array_equal(into.data, part.data)


def test_blocks_written_into_place_make_the_whole_file(tmp_path, layout):
    vol = _volume(layout)
    write_volume(vol, tmp_path / "whole.lrv")
    path = tmp_path / "blocks.lrv"
    with create_volume(path, vol.axes, vol.dims) as partial:
        assert read_volume_header(partial) == (vol.axes, vol.dims)
        canonical = vol.reordered(("t", "rx", "ry", "sx", "sy"))
        for rx, sx in itertools.product(range(3), (slice(0, 2), slice(2, 3))):
            block = {"rx": slice(rx, rx + 1), "sx": sx}
            # A block may come in another axis order; it is written in the file's.
            write_volume(ComplexVolume(canonical.axes, canonical.data[_index(canonical, block)]),
                         partial, block=block)
        assert not path.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocks.lrv", "whole.lrv"]
    assert path.read_bytes() == (tmp_path / "whole.lrv").read_bytes()


def test_block_write_changes_only_its_box(tmp_path, layout):
    vol = _volume(layout)
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    block = {"ry": slice(1, 2), "t": slice(1, 4)}
    index = _index(vol, block)
    zeros = ComplexVolume(vol.axes, np.zeros(vol.data[index].shape))
    write_volume(zeros, path, block=block)
    expected = np.array(vol.data)
    expected[index] = 0
    np.testing.assert_array_equal(read_volume(path).data, expected)


@pytest.mark.parametrize("block", [{"xx": slice(0, 1)}, {"rx": slice(2, 2)},
                                   {"rx": slice(0, 3, 2)}, {"f": slice(0, 1)}])
def test_bad_block_rejected(tmp_path, vol, block):
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    with pytest.raises(ValueError):
        read_volume(path, block)


def test_block_write_must_fill_its_box(tmp_path, vol):
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    with pytest.raises(ValueError):
        write_volume(vol, path, block={"rx": slice(0, 1)})
    np.testing.assert_array_equal(read_volume(path).data, vol.data)


def test_truncated_payload_rejected_before_a_block_is_read(tmp_path, vol):
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    path.write_bytes(path.read_bytes()[:-16])
    for reader in (read_volume_header, lambda p: read_volume(p, {"rx": slice(0, 1)})):
        with pytest.raises(TruncatedFileError):
            reader(path)


def _counting(monkeypatch, name, most=None):
    """Count the calls to ``os.<name>``; with ``most``, each moves at most
    that many bytes, as a short read or write may."""
    calls = []
    call = getattr(os, name)

    def counting(fd, buffers, at):
        calls.append(at)
        return call(fd, [buffers[0][:most]], at)

    monkeypatch.setattr(os, name, counting)
    return calls


def test_block_is_moved_one_call_per_run(tmp_path, monkeypatch):
    # A box of one rx line of a time-first file is one contiguous run per
    # time sample, each read and written in one call.
    vol = _volume(("t", "rx", "ry", "sx", "sy"))
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    block = {"rx": slice(1, 2)}
    reads = _counting(monkeypatch, "preadv")
    part = read_volume(path, block)
    np.testing.assert_array_equal(part.data, vol.data[:, 1:2])
    assert len(reads) == vol.dims[0]
    writes = _counting(monkeypatch, "pwritev")
    write_volume(part, path, block=block)
    assert len(writes) == vol.dims[0]


def test_trace_major_block_is_moved_in_one_call(tmp_path, monkeypatch):
    # A box of one rx line of a trace-major file spans whole trailing axes:
    # one contiguous run, read and written in one call.
    vol = _volume(("rx", "ry", "sx", "sy", "t"))
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    block = {"rx": slice(1, 2)}
    reads = _counting(monkeypatch, "preadv")
    part = read_volume(path, block)
    np.testing.assert_array_equal(part.data, vol.data[1:2])
    writes = _counting(monkeypatch, "pwritev")
    write_volume(part, path, block=block)
    assert len(reads) == len(writes) == 1


@pytest.mark.parametrize("single", [False, True], ids=["complex128", "complex64"])
def test_blocks_in_another_order_move_in_small_chunks(tmp_path, monkeypatch, layout, single):
    # Runs are moved a few at a time and staged through a small array: a
    # box is read in the order asked for, into a buffer or not, and blocks
    # in that order written into place in a file of zeros make the file,
    # whatever its order and scalar type.
    monkeypatch.setattr(fileio, "_CHUNK_RUNS", 3)
    monkeypatch.setattr(fileio, "_STAGE_BYTES", 5 * 16)
    vol = _volume(layout)
    path = tmp_path / "v.lrv"
    write = write_complex64 if single else write_volume
    write(vol, path)
    want = ("rx", "ry", "sx", "sy", "t")
    whole = read_volume(path).reordered(want)
    buffer = np.full(vol.data.size, np.nan, dtype=np.complex128)
    for block in BLOCKS:
        part = read_volume(path, block, out=buffer, axes=want)
        assert part.axes == want and np.shares_memory(part.data, buffer)
        np.testing.assert_array_equal(part.data, whole.data[_index(whole, block)])
        np.testing.assert_array_equal(read_volume(path, block, axes=want).data, part.data)
    blocks = tmp_path / "blocks.lrv"
    write(ComplexVolume(vol.axes, np.zeros(vol.dims)), blocks)
    for rx in range(3):
        block = {"rx": slice(rx, rx + 1)}
        write_volume(ComplexVolume(want, whole.data[_index(whole, block)]), blocks,
                     block=block)
    assert blocks.read_bytes() == path.read_bytes()


def test_short_transfers_are_completed(tmp_path, monkeypatch):
    vol = _volume(("rx", "t", "sy", "sx", "ry"))
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    block = {"t": slice(1, 4), "sx": slice(0, 2)}
    writes = _counting(monkeypatch, "pwritev", most=7)
    write_volume(ComplexVolume(vol.axes, vol.data[_index(vol, block)]), path, block=block)
    reads = _counting(monkeypatch, "preadv", most=7)
    np.testing.assert_array_equal(read_volume(path).data, vol.data)
    assert len(writes) > 1 and len(reads) > 1


@pytest.mark.parametrize("single, axes", [(True, None), (False, ("t", "rx", "ry", "sx", "sy"))],
                         ids=["complex64", "another-order"])
def test_whole_read_holds_no_second_copy(tmp_path, single, axes):
    # A whole read of a complex64 file, or of a file in another axis order,
    # goes through the small staging array into the complex128 array it
    # returns: the payload is never held twice, and the values are those of
    # its complex128 twin.
    rng = np.random.default_rng(11)
    dims = (4, 4, 4, 4, 1024)
    canonical = ("rx", "ry", "sx", "sy", "t")
    vol = ComplexVolume(canonical, rng.standard_normal(dims) + 1j * rng.standard_normal(dims))
    (write_complex64 if single else write_volume)(vol, tmp_path / "in.lrv")
    twin = vol.data.astype(np.complex64) if single else vol.data
    write_volume(ComplexVolume(canonical, twin), tmp_path / "twin.lrv")
    del vol, twin
    tracemalloc.start()
    try:
        back = read_volume(tmp_path / "in.lrv", axes=axes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 17 * back.data.size
    np.testing.assert_array_equal(back.data, read_volume(tmp_path / "twin.lrv", axes=axes).data)


def test_failed_write_leaves_no_file(tmp_path, monkeypatch, vol):
    # A write that stops partway leaves neither a partial file nor one of
    # full length with zeros where it stopped; a file already at the path
    # stays as it was.
    def full(fd, buffers, at):
        raise OSError(errno.ENOSPC, "no space left on device")

    monkeypatch.setattr(os, "pwritev", full)
    with pytest.raises(OSError):
        write_volume(vol, tmp_path / "new.lrv")
    (tmp_path / "old.lrv").write_bytes(b"old")
    with pytest.raises(OSError):
        write_volume(vol, tmp_path / "old.lrv")
    assert [p.name for p in tmp_path.iterdir()] == ["old.lrv"]
    assert (tmp_path / "old.lrv").read_bytes() == b"old"


def test_non_finite_payload_rejected_where_it_is_read(tmp_path, vol):
    # A whole read and a read of the block that holds the NaN raise, into a
    # buffer or not; a block without it reads.
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    at = np.ravel_multi_index((1, 2, 0, 1, 1), vol.dims)
    with open(path, "r+b") as fh:
        fh.seek(os.path.getsize(path) - vol.data.nbytes + 16 * int(at))
        fh.write(np.array([np.nan], dtype=np.complex128).tobytes())
    buffer = np.empty(vol.data.size, dtype=np.complex128)
    for block in ({}, {"rx": slice(2, 3)}):
        for out in (None, buffer):
            with pytest.raises(ValueError, match="non-finite"):
                read_volume(path, block, out=out)
    np.testing.assert_array_equal(read_volume(path, {"rx": slice(0, 2)}).data,
                                  vol.data[:, 0:2])


def test_non_finite_volume_is_not_written(tmp_path, vol):
    # A NaN stops a whole write before any byte: no file is left, and a
    # file already at the path keeps its bytes.  A block with a NaN leaves
    # its file unchanged.
    data = np.array(vol.data)
    data[0, 1, 1, 0, 1] = np.nan
    bad = ComplexVolume(vol.axes, data)
    with pytest.raises(ValueError, match="non-finite"):
        write_volume(bad, tmp_path / "new.lrv")
    path = tmp_path / "old.lrv"
    write_volume(vol, path)
    before = path.read_bytes()
    with pytest.raises(ValueError, match="non-finite"):
        write_volume(bad, path)
    block = {"rx": slice(1, 2)}
    with pytest.raises(ValueError, match="non-finite"):
        write_volume(ComplexVolume(bad.axes, bad.data[:, 1:2]), path, block=block)
    assert [p.name for p in tmp_path.iterdir()] == ["old.lrv"]
    assert path.read_bytes() == before
