import errno
import itertools
import os
import tracemalloc

import numpy as np
import pytest
from complex64 import write_complex

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
from lrfill.volume import Volume


@pytest.fixture
def vol():
    rng = np.random.default_rng(42)
    return Volume(("t", "rx", "ry", "sx", "sy"), rng.standard_normal((2, 3, 2, 2, 2)))


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
    vol = Volume(axes, rng.standard_normal(dims))
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    back = read_volume(path)
    assert back.axes == vol.axes
    assert np.array_equal(back.data, vol.data)


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
    vol = Volume(("t", "rx"), np.arange(10.0).reshape(5, 2))
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
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
    header = bytearray(b"LRV1\x01\x02\x02")
    header.extend([0, 2])  # axes t, rx
    header.extend(np.asarray([1 << 33, 1 << 33], dtype="<u8").tobytes())
    path = tmp_path / "v.lrv"
    path.write_bytes(bytes(header))
    with pytest.raises(DimsOverflowError):
        read_volume(path)


def test_unknown_axis_code(tmp_path):
    header = bytearray(b"LRV1\x01\x02\x01")
    header.append(77)
    header.extend(np.asarray([2], dtype="<u8").tobytes())
    path = tmp_path / "v.lrv"
    path.write_bytes(bytes(header) + b"\x00" * 16)
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
                ids=["time-first", "permuted"])
def layout(request):
    return request.param


def _volume(axes):
    rng = np.random.default_rng(7)
    dims = {"t": 5, "rx": 3, "ry": 2, "sx": 3, "sy": 2}
    return Volume(axes, rng.standard_normal(tuple(dims[a] for a in axes)))


def _index(vol, block):
    return tuple(block.get(a, slice(None)) for a in vol.axes)


# The scalar code of a complex twin of a float64 file: the same samples in
# the same layout, whose blocks are refused where the float64 file's are read.
COMPLEX_TWINS = pytest.mark.parametrize("code", [0, 1], ids=["complex128", "complex64"])


def _refused(code):
    return pytest.raises(FileFormatError, match=f"scalar code {code}: complex samples")


@COMPLEX_TWINS
def test_block_read_is_the_box_of_the_whole(tmp_path, layout, code):
    vol = _volume(layout)
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    twin = tmp_path / "twin.lrv"
    write_complex(twin, vol.axes, vol.data, code)
    whole = read_volume(path)
    # A buffer used for every block, read into its leading elements.
    buffer = np.full(vol.data.size, np.nan)
    for block in BLOCKS:
        part = read_volume(path, block)
        assert part.axes == vol.axes
        assert part.data.dtype == np.float64
        np.testing.assert_array_equal(part.data, whole.data[_index(vol, block)])
        into = read_volume(path, block, out=buffer)
        assert into.axes == vol.axes and np.shares_memory(into.data, buffer)
        np.testing.assert_array_equal(into.data, part.data)
        before = buffer.copy()
        for out in (None, buffer):
            with _refused(code):
                read_volume(twin, block, out=out)
        np.testing.assert_array_equal(buffer, before)


def test_blocks_written_into_place_make_the_whole_file(tmp_path, layout):
    vol = _volume(layout)
    write_volume(vol, tmp_path / "whole.lrv")
    path = tmp_path / "blocks.lrv"
    with create_volume(path, vol.axes, vol.dims) as partial:
        assert read_volume_header(partial) == (vol.axes, vol.dims)
        for rx, sx in itertools.product(range(3), (slice(0, 2), slice(2, 3))):
            block = {"rx": slice(rx, rx + 1), "sx": sx}
            write_volume(Volume(vol.axes, vol.data[_index(vol, block)]), partial,
                         block=block)
        assert not path.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocks.lrv", "whole.lrv"]
    assert path.read_bytes() == (tmp_path / "whole.lrv").read_bytes()


def test_block_write_changes_only_its_box(tmp_path, layout):
    vol = _volume(layout)
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    block = {"ry": slice(1, 2), "t": slice(1, 4)}
    index = _index(vol, block)
    zeros = Volume(vol.axes, np.zeros(vol.data[index].shape))
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


def test_block_in_another_order_is_not_written(tmp_path, monkeypatch, vol):
    # A block is written in its file's axis order only: one of the same
    # labels in another order is refused before any byte is written.
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    before = path.read_bytes()
    writes = _counting(monkeypatch, "pwritev")
    block = {"rx": slice(1, 2)}
    part = read_volume(path, block).reordered(("rx", "ry", "sx", "sy", "t"))
    with pytest.raises(ValueError, match="not written into a file of axes"):
        write_volume(part, path, block=block)
    assert writes == []
    assert path.read_bytes() == before


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


def _runs(vol, block):
    """Contiguous runs of the payload that the box ``block`` of ``vol``
    covers, counted from the flat offsets of its samples."""
    flat = np.arange(vol.data.size).reshape(vol.dims)[_index(vol, block)].ravel()
    return 1 + np.count_nonzero(np.diff(flat) != 1)


@COMPLEX_TWINS
def test_each_run_of_a_box_is_moved_in_one_call(tmp_path, monkeypatch, layout, code):
    # Whatever the file's order, each box is read, into a buffer or not,
    # and written into place with one call per contiguous run of it, and
    # blocks written into place in a file of zeros make the file.  A
    # complex file of zeros takes none of them.
    vol = _volume(layout)
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    copy = tmp_path / "copy.lrv"
    write_volume(vol, copy)
    buffer = np.full(vol.data.size, np.nan)
    for block in BLOCKS:
        reads = _counting(monkeypatch, "preadv")
        part = read_volume(path, block, out=buffer)
        assert len(reads) == _runs(vol, block)
        assert part.axes == vol.axes and np.shares_memory(part.data, buffer)
        np.testing.assert_array_equal(part.data, vol.data[_index(vol, block)])
        np.testing.assert_array_equal(read_volume(path, block).data, part.data)
        writes = _counting(monkeypatch, "pwritev")
        write_volume(part, copy, block=block)
        assert len(writes) == _runs(vol, block)
    assert copy.read_bytes() == path.read_bytes()
    blocks = tmp_path / "blocks.lrv"
    write_volume(Volume(vol.axes, np.zeros(vol.dims)), blocks)
    twin = tmp_path / "twin.lrv"
    write_complex(twin, vol.axes, np.zeros(vol.dims), code)
    zeros = twin.read_bytes()
    for sy in range(2):
        block = {"sy": slice(sy, sy + 1)}
        part = Volume(vol.axes, vol.data[_index(vol, block)])
        write_volume(part, blocks, block=block)
        with _refused(code):
            write_volume(part, twin, block=block)
    assert blocks.read_bytes() == path.read_bytes()
    assert twin.read_bytes() == zeros


def test_many_short_runs_cost_no_memory_beyond_the_box(tmp_path):
    # A box of a time-first file cut on its last axis is one run of one
    # sample per record: 10,000 runs here.  Reading it and writing it back
    # allocate a few kilobytes beyond its samples, however many runs it has.
    rng = np.random.default_rng(12)
    vol = Volume(("t", "rx", "ry", "sx", "sy"), rng.standard_normal((1250, 2, 2, 2, 2)))
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    block = {"sy": slice(1, 2)}
    tracemalloc.start()
    try:
        part = read_volume(path, block)
        read_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        write_volume(part, path, block=block)
        write_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert _runs(vol, block) == 10_000
    # check_finite's mask of the box, a byte per sample, comes and goes too.
    assert read_peak <= part.data.nbytes + part.data.size + 16_384
    assert write_peak <= part.data.size + 16_384
    np.testing.assert_array_equal(read_volume(path).data, vol.data)


def test_short_transfers_are_completed(tmp_path, monkeypatch):
    vol = _volume(("rx", "t", "sy", "sx", "ry"))
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    block = {"t": slice(1, 4), "sx": slice(0, 2)}
    writes = _counting(monkeypatch, "pwritev", most=7)
    write_volume(Volume(vol.axes, vol.data[_index(vol, block)]), path, block=block)
    reads = _counting(monkeypatch, "preadv", most=7)
    np.testing.assert_array_equal(read_volume(path).data, vol.data)
    assert len(writes) > 1 and len(reads) > 1


@pytest.mark.parametrize("axes", [("rx", "ry", "sx", "sy", "t"), ("t", "rx", "ry", "sx", "sy")],
                         ids=["file-order", "another-order"])
def test_whole_read_holds_no_second_copy(tmp_path, axes):
    # A whole read goes straight into the array it returns, in the file's
    # axis order, whether the file is trace-major or in another order: the
    # payload is never held twice.
    rng = np.random.default_rng(11)
    vol = Volume(axes, rng.standard_normal((4, 4, 4, 4, 1024)))
    write_volume(vol, tmp_path / "in.lrv")
    tracemalloc.start()
    try:
        back = read_volume(tmp_path / "in.lrv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * back.data.size
    assert back.axes == axes
    np.testing.assert_array_equal(back.data, vol.data)


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
        fh.seek(os.path.getsize(path) - vol.data.nbytes + 8 * int(at))
        fh.write(np.array([np.nan]).tobytes())
    buffer = np.empty(vol.data.size)
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
    bad = Volume(vol.axes, data)
    with pytest.raises(ValueError, match="non-finite"):
        write_volume(bad, tmp_path / "new.lrv")
    path = tmp_path / "old.lrv"
    write_volume(vol, path)
    before = path.read_bytes()
    with pytest.raises(ValueError, match="non-finite"):
        write_volume(bad, path)
    block = {"rx": slice(1, 2)}
    with pytest.raises(ValueError, match="non-finite"):
        write_volume(Volume(bad.axes, bad.data[:, 1:2]), path, block=block)
    assert [p.name for p in tmp_path.iterdir()] == ["old.lrv"]
    assert path.read_bytes() == before


# ---------------------------------------------------------------------- #
# scalar code 2: real float64 samples


# The canonical, trace-major, order and another.
REAL_LAYOUTS = pytest.mark.parametrize(
    "axes", [("rx", "ry", "sx", "sy", "t"), ("t", "rx", "sy", "sx", "ry")],
    ids=["canonical", "permuted"])


def _real_volume(axes):
    rng = np.random.default_rng(8)
    dims = {"t": 5, "rx": 3, "ry": 2, "sx": 3, "sy": 2}
    return Volume(axes, rng.standard_normal(tuple(dims[a] for a in axes)))


@REAL_LAYOUTS
def test_real_volume_is_written_as_code_2(tmp_path, axes):
    vol = _real_volume(axes)
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    raw = path.read_bytes()
    assert raw[5] == 2 and len(raw) == 7 + 9 * len(axes) + 8 * vol.data.size
    back = read_volume(path)
    assert back.axes == vol.axes and back.data.dtype == np.float64
    assert np.array_equal(back.data, vol.data)
    write_volume(back, tmp_path / "again.lrv")
    assert (tmp_path / "again.lrv").read_bytes() == raw


@REAL_LAYOUTS
def test_real_block_round_trip(tmp_path, axes):
    # Blocks of a float64 file read into a float64 buffer or not; written
    # into place, they make the whole file.
    vol = _real_volume(axes)
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    buffer = np.full(vol.data.size, np.nan)
    for block in BLOCKS:
        expected = vol.data[_index(vol, block)]
        for out in (None, buffer):
            part = read_volume(path, block, out=out)
            assert part.data.dtype == np.float64
            np.testing.assert_array_equal(part.data, expected)
    blocks = tmp_path / "blocks.lrv"
    with create_volume(blocks, vol.axes, vol.dims) as partial:
        for rx in range(3):
            block = {"rx": slice(rx, rx + 1)}
            write_volume(Volume(vol.axes, vol.data[_index(vol, block)]), partial,
                         block=block)
    assert blocks.read_bytes() == path.read_bytes()


def test_real_and_complex_samples_do_not_narrow(tmp_path, monkeypatch):
    # A volume of complex samples is not written, whole or as a block,
    # before any file is created; a real file keeps its bytes.  Samples
    # are read into a float64 buffer only.
    real = tmp_path / "real.lrv"
    vol = _real_volume(("t", "rx", "ry", "sx", "sy"))
    write_volume(vol, real)
    before = real.read_bytes()
    cplx = Volume(vol.axes, vol.data + 1j)

    def no_file(*args):
        raise AssertionError("a file was created")

    monkeypatch.setattr(fileio, "create_volume", no_file)
    block = {"rx": slice(0, 1)}
    for path, where in ((tmp_path / "new.lrv", None), (real, None), (real, block)):
        data = cplx.data[_index(cplx, where)] if where else cplx.data
        with pytest.raises(ValueError, match="complex samples are not written"):
            write_volume(Volume(vol.axes, data), path, block=where)
    assert [p.name for p in tmp_path.iterdir()] == ["real.lrv"]
    assert real.read_bytes() == before
    with pytest.raises(ValueError, match="complex128 buffer"):
        read_volume(real, out=np.empty(vol.data.size, dtype=complex))


@pytest.mark.parametrize("cut", [-8, 8], ids=["truncated", "trailing"])
def test_real_payload_of_the_wrong_length_is_rejected(tmp_path, cut):
    # A float64 payload is 8 bytes a sample: one sample short or one
    # sample over is caught from the header and the file size.
    path = tmp_path / "v.lrv"
    write_volume(_real_volume(("rx", "t")), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:cut] if cut < 0 else raw + b"\x00" * cut)
    error = TruncatedFileError if cut < 0 else FileFormatError
    for reader in (read_volume, read_volume_header):
        with pytest.raises(error):
            reader(path)


def test_unknown_scalar_code_rejected(tmp_path):
    path = tmp_path / "v.lrv"
    write_volume(_real_volume(("rx", "t")), path)
    raw = bytearray(path.read_bytes())
    raw[5] = 3
    path.write_bytes(bytes(raw))
    for reader in (read_volume, read_volume_header):
        with pytest.raises(FileFormatError, match="scalar code 3"):
            reader(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_real_non_finite_sample_rejected_on_read_and_write(tmp_path, bad):
    vol = _real_volume(("rx", "ry", "sx", "sy", "t"))
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    before = path.read_bytes()
    data = np.array(vol.data)
    data[1, 0, 2, 1, 3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        write_volume(Volume(vol.axes, data), path)
    with pytest.raises(ValueError, match="non-finite"):
        write_volume(Volume(vol.axes, data[1:2]), path, block={"rx": slice(1, 2)})
    assert path.read_bytes() == before
    at = np.ravel_multi_index((1, 0, 2, 1, 3), vol.dims)
    with open(path, "r+b") as fh:
        fh.seek(len(before) - vol.data.nbytes + 8 * int(at))
        fh.write(np.array([bad]).tobytes())
    for block in ({}, {"rx": slice(1, 2)}):
        with pytest.raises(ValueError, match="non-finite"):
            read_volume(path, block, out=np.empty(vol.data.size))
    np.testing.assert_array_equal(read_volume(path, {"rx": slice(0, 1)}).data, vol.data[:1])


@pytest.mark.parametrize("kind, code", [(np.float64, 2), (np.complex128, 0), (np.complex64, 1)])
def test_sample_kind_is_read_from_the_header_alone(tmp_path, monkeypatch, kind, code):
    # The header names the kind of the samples before any of the payload
    # is read: float64 ones (code 2) are read, and complex ones, complex128
    # (code 0) and complex64 (code 1), are refused by every reader there.
    data = np.ones((2, 3), dtype=kind)
    path = tmp_path / "v.lrv"
    if code == 2:
        write_volume(Volume(("rx", "t"), data), path)
    else:
        write_complex(path, ("rx", "t"), data, code)
    assert path.read_bytes()[5] == code

    def no_read(*args):
        raise AssertionError("the payload was read")

    monkeypatch.setattr(os, "preadv", no_read)
    if code == 2:
        assert read_volume_header(path) == (("rx", "t"), (2, 3))
        return
    readers = (read_volume_header, read_volume, lambda p: read_volume(p, {"rx": slice(0, 1)}),
               lambda p: read_volume(p, out=np.empty(6)))
    for reader in readers:
        with pytest.raises(FileFormatError, match=f"scalar code {code}: complex samples"):
            reader(path)
