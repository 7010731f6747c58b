import errno
import itertools
import os
import re
import tracemalloc

import numpy as np
import pytest
from complex64 import write_complex, write_in_order, write_mask_raw

from lrfill import fileio
from lrfill.fileio import (
    BadMagicError,
    DimsOverflowError,
    FileFormatError,
    TruncatedFileError,
    VersionError,
    create_volume,
    read_canonical_header,
    read_mask,
    read_volume,
    write_mask,
    write_volume,
)
from lrfill.sampling import SamplingMask
from lrfill.volume import CANONICAL_AXES, SPATIAL_AXES, AxisLayoutError


@pytest.fixture
def vol():
    rng = np.random.default_rng(42)
    return rng.standard_normal((3, 2, 2, 2, 2))


def _transposed(data, order):
    """The trace-major array ``data`` with its axes in ``order``."""
    return np.transpose(data, [CANONICAL_AXES.index(a) for a in order])


def _refused_order(order):
    return pytest.raises(AxisLayoutError, match=re.escape(f"axes {order}"))


def test_volume_roundtrip_bit_exact(tmp_path, vol):
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    back = read_volume(path)
    assert back.shape == vol.shape
    assert np.array_equal(back, vol)  # bit-exact


def test_file_roundtrip_bit_exact(tmp_path, vol):
    a = tmp_path / "a.lrv"
    b = tmp_path / "b.lrv"
    write_volume(vol, a)
    write_volume(read_volume(a), b)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("naxes", [1, 2, 3, 4, 5])
def test_roundtrip_every_axis_count(tmp_path, naxes):
    # A header of any axis count parses, but only the five trace-major
    # axes are a volume: a file of fewer is refused at its header, and an
    # array of fewer is not written.
    rng = np.random.default_rng(naxes)
    axes = CANONICAL_AXES[-naxes:]
    data = rng.standard_normal((2, 2, 2, 2, 3)[-naxes:])
    path = tmp_path / "v.lrv"
    if naxes == 5:
        write_volume(data, path)
        assert np.array_equal(read_volume(path), data)
        return
    write_complex(path, axes, data, 2)
    with _refused_order(axes):
        read_volume(path)
    with pytest.raises(ValueError, match="is not a volume"):
        write_volume(data, tmp_path / "w.lrv")


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
    vol = np.arange(10.0).reshape(1, 1, 1, 2, 5)
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

    @pytest.mark.parametrize("axes", [("sx", "sy", "rx", "ry"), ("rx", "sx")])
    def test_mask_of_other_axes_is_refused_at_its_header(self, tmp_path, monkeypatch, axes):
        # A mask file is read in the order (rx, ry, sx, sy) only: one in
        # another order, or of other axes, is refused before its grid is
        # read, and lrfill writes no such file.
        grid = np.ones((2, 3, 4, 5)[:len(axes)], dtype=bool)
        path = tmp_path / "m.lrm"
        write_mask_raw(path, axes, grid)

        def no_read(*args):
            raise AssertionError("the payload was read")

        monkeypatch.setattr(os, "preadv", no_read)
        with _refused_order(axes):
            read_mask(path)
        if len(axes) == 2:
            with pytest.raises(AxisLayoutError):
                write_mask(SamplingMask(grid, axes=axes), tmp_path / "w.lrm")
            assert not (tmp_path / "w.lrm").exists()

    def test_mask_bad_magic(self, tmp_path):
        path = tmp_path / "m.lrm"
        path.write_bytes(b"LRV1" + b"\x01\x01" + bytes([2]) + b"\x00" * 8)
        with pytest.raises(BadMagicError):
            read_mask(path)

    def test_failed_mask_write_leaves_no_file(self, tmp_path):
        # A write that fails after the header leaves no file, and a file
        # already at the path stays as it was.
        class Unreadable:
            shape = (2, 2, 1, 1)

            def __array__(self, dtype=None, copy=None):
                raise OSError(errno.EIO, "input/output error")

        path = tmp_path / "m.lrm"
        mask = SamplingMask(np.eye(2, dtype=bool)[..., None, None], axes=SPATIAL_AXES)
        write_mask(mask, path)
        before = path.read_bytes()
        mask.grid = Unreadable()
        for target in (path, tmp_path / "new.lrm"):
            with pytest.raises(OSError):
                write_mask(mask, target)
        assert [p.name for p in tmp_path.iterdir()] == ["m.lrm"]
        assert path.read_bytes() == before

    def test_mask_payload_values_checked(self, tmp_path):
        mask = SamplingMask(np.ones((2, 2, 1, 1), dtype=bool), axes=SPATIAL_AXES)
        path = tmp_path / "m.lrm"
        write_mask(mask, path)
        raw = bytearray(path.read_bytes())
        raw[-1] = 7
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError):
            read_mask(path)


BLOCKS = [{}, {"rx": slice(1, 2)}, {"ry": slice(0, 1), "sx": slice(1, 3)},
          {"t": slice(2, 4), "sy": slice(1, 2)}, {"rx": slice(0, 3), "sy": slice(0, 1)}]


# Axis orders other than trace-major: a file in one is written only raw
# here, and its blocks are refused where the trace-major file's are read.
@pytest.fixture(params=[("t", "rx", "ry", "sx", "sy"), ("rx", "t", "sy", "sx", "ry")],
                ids=["time-first", "permuted"])
def layout(request):
    return request.param


def _volume():
    rng = np.random.default_rng(7)
    return rng.standard_normal((3, 2, 3, 2, 5))


def _index(block):
    return tuple(block.get(a, slice(None)) for a in CANONICAL_AXES)


# The scalar code of a complex twin of a float64 file: the same samples in
# the same layout, whose blocks are refused where the float64 file's are read.
COMPLEX_TWINS = pytest.mark.parametrize("code", [0, 1], ids=["complex128", "complex64"])


def _refused(code):
    return pytest.raises(FileFormatError, match=f"scalar code {code}: complex samples")


@COMPLEX_TWINS
def test_block_read_is_the_box_of_the_whole(tmp_path, layout, code):
    vol = _volume()
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    twin = tmp_path / "twin.lrv"
    write_complex(twin, CANONICAL_AXES, vol, code)
    other = tmp_path / "other.lrv"
    write_in_order(other, vol, layout)
    whole = read_volume(path)
    # A buffer used for every block, read into its leading elements.
    buffer = np.full(vol.size, np.nan)
    for block in BLOCKS:
        part = read_volume(path, block)
        assert part.dtype == np.float64
        np.testing.assert_array_equal(part, whole[_index(block)])
        into = read_volume(path, block, out=buffer)
        assert np.shares_memory(into, buffer)
        np.testing.assert_array_equal(into, part)
        before = buffer.copy()
        for out in (None, buffer):
            with _refused(code):
                read_volume(twin, block, out=out)
            with _refused_order(layout):
                read_volume(other, block, out=out)
        np.testing.assert_array_equal(buffer, before)


def test_blocks_written_into_place_make_the_whole_file(tmp_path, layout):
    # Blocks written into a created file make the whole file; a file in
    # another order takes none of them.
    vol = _volume()
    write_volume(vol, tmp_path / "whole.lrv")
    other = tmp_path / "other.lrv"
    write_in_order(other, np.zeros(vol.shape), layout)
    zeros = other.read_bytes()
    path = tmp_path / "blocks.lrv"
    with create_volume(path, vol.shape) as partial:
        assert read_canonical_header(partial) == vol.shape
        for rx, sx in itertools.product(range(3), (slice(0, 2), slice(2, 3))):
            block = {"rx": slice(rx, rx + 1), "sx": sx}
            write_volume(vol[_index(block)], partial, block=block)
            with _refused_order(layout):
                write_volume(vol[_index(block)], other, block=block)
        assert not path.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocks.lrv", "other.lrv",
                                                          "whole.lrv"]
    assert path.read_bytes() == (tmp_path / "whole.lrv").read_bytes()
    assert other.read_bytes() == zeros


def test_block_write_changes_only_its_box(tmp_path, layout):
    vol = _volume()
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    block = {"ry": slice(1, 2), "t": slice(1, 4)}
    index = _index(block)
    write_volume(np.zeros(vol[index].shape), path, block=block)
    expected = np.array(vol)
    expected[index] = 0
    np.testing.assert_array_equal(read_volume(path), expected)
    other = tmp_path / "other.lrv"
    write_in_order(other, vol, layout)
    before = other.read_bytes()
    with _refused_order(layout):
        write_volume(np.zeros(vol[index].shape), other, block=block)
    assert other.read_bytes() == before


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
    np.testing.assert_array_equal(read_volume(path), vol)


def test_block_in_another_order_is_not_written(tmp_path, monkeypatch, vol):
    # A block is written into a trace-major file only, as a trace-major
    # array: a file in another order, and a block transposed to another
    # shape, are refused before any byte is written.
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    other = tmp_path / "other.lrv"
    order = ("t", "rx", "ry", "sx", "sy")
    write_in_order(other, vol, order)
    before = {p: p.read_bytes() for p in (path, other)}
    writes = _counting(monkeypatch, "pwritev")
    block = {"rx": slice(1, 2)}
    part = read_volume(path, block)
    with _refused_order(order):
        write_volume(part, other, block=block)
    with pytest.raises(ValueError, match="does not fill the box"):
        write_volume(_transposed(part, order), path, block=block)
    assert writes == []
    assert {p: p.read_bytes() for p in before} == before


def test_truncated_payload_rejected_before_a_block_is_read(tmp_path, vol):
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    path.write_bytes(path.read_bytes()[:-16])
    for reader in (read_canonical_header, lambda p: read_volume(p, {"rx": slice(0, 1)})):
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
    # A box of one sy index of a trace-major file is one contiguous run,
    # a trace, per (rx, ry, sx) point, each read and written in one call.
    vol = _volume()
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    block = {"sy": slice(1, 2)}
    reads = _counting(monkeypatch, "preadv")
    part = read_volume(path, block)
    np.testing.assert_array_equal(part, vol[:, :, :, 1:2])
    assert len(reads) == 3 * 2 * 3
    writes = _counting(monkeypatch, "pwritev")
    write_volume(part, path, block=block)
    assert len(writes) == 3 * 2 * 3


def test_trace_major_block_is_moved_in_one_call(tmp_path, monkeypatch):
    # A box of one rx line of a trace-major file spans whole trailing axes:
    # one contiguous run, read and written in one call.
    vol = _volume()
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    block = {"rx": slice(1, 2)}
    reads = _counting(monkeypatch, "preadv")
    part = read_volume(path, block)
    np.testing.assert_array_equal(part, vol[1:2])
    writes = _counting(monkeypatch, "pwritev")
    write_volume(part, path, block=block)
    assert len(reads) == len(writes) == 1


def _runs(vol, block):
    """Contiguous runs of the payload that the box ``block`` of ``vol``
    covers, counted from the flat offsets of its samples."""
    flat = np.arange(vol.size).reshape(vol.shape)[_index(block)].ravel()
    return 1 + np.count_nonzero(np.diff(flat) != 1)


@COMPLEX_TWINS
def test_each_run_of_a_box_is_moved_in_one_call(tmp_path, monkeypatch, layout, code):
    # Each box is read, into a buffer or not, and written into place with
    # one call per contiguous run of it, and blocks written into place in a
    # file of zeros make the file.  A complex file of zeros, or one in
    # another order, takes none of them.
    vol = _volume()
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    copy = tmp_path / "copy.lrv"
    write_volume(vol, copy)
    buffer = np.full(vol.size, np.nan)
    for block in BLOCKS:
        reads = _counting(monkeypatch, "preadv")
        part = read_volume(path, block, out=buffer)
        assert len(reads) == _runs(vol, block)
        assert np.shares_memory(part, buffer)
        np.testing.assert_array_equal(part, vol[_index(block)])
        np.testing.assert_array_equal(read_volume(path, block), part)
        writes = _counting(monkeypatch, "pwritev")
        write_volume(part, copy, block=block)
        assert len(writes) == _runs(vol, block)
    assert copy.read_bytes() == path.read_bytes()
    blocks = tmp_path / "blocks.lrv"
    write_volume(np.zeros(vol.shape), blocks)
    twin, other = tmp_path / "twin.lrv", tmp_path / "other.lrv"
    write_complex(twin, CANONICAL_AXES, np.zeros(vol.shape), code)
    write_in_order(other, np.zeros(vol.shape), layout)
    zeros = {p: p.read_bytes() for p in (twin, other)}
    for sy in range(2):
        block = {"sy": slice(sy, sy + 1)}
        part = vol[_index(block)]
        write_volume(part, blocks, block=block)
        with _refused(code):
            write_volume(part, twin, block=block)
        with _refused_order(layout):
            write_volume(part, other, block=block)
    assert blocks.read_bytes() == path.read_bytes()
    assert {p: p.read_bytes() for p in zeros} == zeros


def test_many_short_runs_cost_no_memory_beyond_the_box(tmp_path):
    # A box of a trace-major file cut on its time axis is one run of one
    # sample per trace: 10,000 runs here.  Reading it and writing it back
    # allocate a few kilobytes beyond its samples, however many runs it has.
    rng = np.random.default_rng(12)
    vol = rng.standard_normal((10, 10, 10, 10, 2))
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    block = {"t": slice(1, 2)}
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
    assert read_peak <= part.nbytes + part.size + 16_384
    assert write_peak <= part.size + 16_384
    np.testing.assert_array_equal(read_volume(path), vol)


def test_short_transfers_are_completed(tmp_path, monkeypatch):
    vol = _volume()
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    block = {"t": slice(1, 4), "sx": slice(0, 2)}
    writes = _counting(monkeypatch, "pwritev", most=7)
    write_volume(vol[_index(block)], path, block=block)
    reads = _counting(monkeypatch, "preadv", most=7)
    np.testing.assert_array_equal(read_volume(path), vol)
    assert len(writes) > 1 and len(reads) > 1


@pytest.mark.parametrize("order", [CANONICAL_AXES, ("t", "rx", "ry", "sx", "sy")],
                         ids=["file-order", "another-order"])
def test_whole_read_holds_no_second_copy(tmp_path, order):
    # A whole read of a trace-major file goes straight into the array it
    # returns: the payload is never held twice.  A file in another order is
    # refused at its header, before anything of its size is allocated.
    rng = np.random.default_rng(11)
    vol = rng.standard_normal((4, 4, 4, 4, 1024))
    write_in_order(tmp_path / "in.lrv", vol, order)
    tracemalloc.start()
    try:
        if order == CANONICAL_AXES:
            back = read_volume(tmp_path / "in.lrv")
        else:
            with _refused_order(order):
                read_volume(tmp_path / "in.lrv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if order != CANONICAL_AXES:
        assert peak <= 65_536
        return
    assert peak <= 9 * back.size
    np.testing.assert_array_equal(back, vol)


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
    at = np.ravel_multi_index((2, 0, 1, 1, 1), vol.shape)
    with open(path, "r+b") as fh:
        fh.seek(os.path.getsize(path) - vol.nbytes + 8 * int(at))
        fh.write(np.array([np.nan]).tobytes())
    buffer = np.empty(vol.size)
    for block in ({}, {"rx": slice(2, 3)}):
        for out in (None, buffer):
            with pytest.raises(ValueError, match="non-finite"):
                read_volume(path, block, out=out)
    np.testing.assert_array_equal(read_volume(path, {"rx": slice(0, 2)}), vol[0:2])


def test_non_finite_volume_is_not_written(tmp_path, vol):
    # A NaN stops a whole write before any byte: no file is left, and a
    # file already at the path keeps its bytes.  A block with a NaN leaves
    # its file unchanged.
    bad = np.array(vol)
    bad[1, 1, 0, 1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        write_volume(bad, tmp_path / "new.lrv")
    path = tmp_path / "old.lrv"
    write_volume(vol, path)
    before = path.read_bytes()
    with pytest.raises(ValueError, match="non-finite"):
        write_volume(bad, path)
    block = {"rx": slice(1, 2)}
    with pytest.raises(ValueError, match="non-finite"):
        write_volume(bad[1:2], path, block=block)
    assert [p.name for p in tmp_path.iterdir()] == ["old.lrv"]
    assert path.read_bytes() == before


# ---------------------------------------------------------------------- #
# scalar code 2: real float64 samples


# The canonical, trace-major, order and another.
REAL_LAYOUTS = pytest.mark.parametrize(
    "axes", [CANONICAL_AXES, ("t", "rx", "sy", "sx", "ry")], ids=["canonical", "permuted"])


def _real_volume():
    rng = np.random.default_rng(8)
    return rng.standard_normal((3, 2, 3, 2, 5))


@REAL_LAYOUTS
def test_real_volume_is_written_as_code_2(tmp_path, axes):
    # A volume is written as float64 samples under the trace-major header,
    # and read back; a float64 file in another order, which lrfill does not
    # write, is refused at its header.
    vol = _real_volume()
    path = tmp_path / "v.lrv"
    if axes != CANONICAL_AXES:
        write_in_order(path, vol, axes)
        assert path.read_bytes()[5] == 2
        with _refused_order(axes):
            read_volume(path)
        return
    write_volume(vol, path)
    raw = path.read_bytes()
    assert raw[5] == 2 and len(raw) == 7 + 9 * len(axes) + 8 * vol.size
    assert list(raw[7:12]) == [2, 3, 4, 5, 0]  # rx, ry, sx, sy, t
    back = read_volume(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, vol)
    write_volume(back, tmp_path / "again.lrv")
    assert (tmp_path / "again.lrv").read_bytes() == raw


@REAL_LAYOUTS
def test_real_block_round_trip(tmp_path, axes):
    # Blocks of a float64 file read into a float64 buffer or not; written
    # into place, they make the whole file.  Each block of a file in
    # another order is refused.
    vol = _real_volume()
    path = tmp_path / "v.lrv"
    if axes == CANONICAL_AXES:
        write_volume(vol, path)
    else:
        write_in_order(path, vol, axes)
    buffer = np.full(vol.size, np.nan)
    for block in BLOCKS:
        expected = vol[_index(block)]
        for out in (None, buffer):
            if axes != CANONICAL_AXES:
                with _refused_order(axes):
                    read_volume(path, block, out=out)
                continue
            part = read_volume(path, block, out=out)
            assert part.dtype == np.float64
            np.testing.assert_array_equal(part, expected)
    if axes != CANONICAL_AXES:
        return
    blocks = tmp_path / "blocks.lrv"
    with create_volume(blocks, vol.shape) as partial:
        for rx in range(3):
            block = {"rx": slice(rx, rx + 1)}
            write_volume(vol[_index(block)], partial, block=block)
    assert blocks.read_bytes() == path.read_bytes()


def test_real_and_complex_samples_do_not_narrow(tmp_path, monkeypatch):
    # A volume of complex samples is not written, whole or as a block,
    # before any file is created; a real file keeps its bytes.  Samples
    # are read into a float64 buffer only.
    real = tmp_path / "real.lrv"
    vol = _real_volume()
    write_volume(vol, real)
    before = real.read_bytes()
    cplx = vol + 1j

    def no_file(*args):
        raise AssertionError("a file was created")

    monkeypatch.setattr(fileio, "create_volume", no_file)
    block = {"rx": slice(0, 1)}
    for path, where in ((tmp_path / "new.lrv", None), (real, None), (real, block)):
        data = cplx[_index(where)] if where else cplx
        with pytest.raises(ValueError, match="complex samples are not written"):
            write_volume(data, path, block=where)
    assert [p.name for p in tmp_path.iterdir()] == ["real.lrv"]
    assert real.read_bytes() == before
    with pytest.raises(ValueError, match="complex128 buffer"):
        read_volume(real, out=np.empty(vol.size, dtype=complex))


@pytest.mark.parametrize("cut", [-8, 8], ids=["truncated", "trailing"])
def test_real_payload_of_the_wrong_length_is_rejected(tmp_path, cut):
    # A float64 payload is 8 bytes a sample: one sample short or one
    # sample over is caught from the header and the file size.
    path = tmp_path / "v.lrv"
    write_volume(_real_volume(), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:cut] if cut < 0 else raw + b"\x00" * cut)
    error = TruncatedFileError if cut < 0 else FileFormatError
    for reader in (read_volume, read_canonical_header):
        with pytest.raises(error):
            reader(path)


def test_unknown_scalar_code_rejected(tmp_path):
    path = tmp_path / "v.lrv"
    write_volume(_real_volume(), path)
    raw = bytearray(path.read_bytes())
    raw[5] = 3
    path.write_bytes(bytes(raw))
    for reader in (read_volume, read_canonical_header):
        with pytest.raises(FileFormatError, match="scalar code 3"):
            reader(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_real_non_finite_sample_rejected_on_read_and_write(tmp_path, bad):
    vol = _real_volume()
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    before = path.read_bytes()
    data = np.array(vol)
    data[1, 0, 2, 1, 3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        write_volume(data, path)
    with pytest.raises(ValueError, match="non-finite"):
        write_volume(data[1:2], path, block={"rx": slice(1, 2)})
    assert path.read_bytes() == before
    at = np.ravel_multi_index((1, 0, 2, 1, 3), vol.shape)
    with open(path, "r+b") as fh:
        fh.seek(len(before) - vol.nbytes + 8 * int(at))
        fh.write(np.array([bad]).tobytes())
    for block in ({}, {"rx": slice(1, 2)}):
        with pytest.raises(ValueError, match="non-finite"):
            read_volume(path, block, out=np.empty(vol.size))
    np.testing.assert_array_equal(read_volume(path, {"rx": slice(0, 1)}), vol[:1])


@pytest.mark.parametrize("kind, code", [(np.float64, 2), (np.complex128, 0), (np.complex64, 1)])
def test_sample_kind_is_read_from_the_header_alone(tmp_path, monkeypatch, kind, code):
    # The header names the kind of the samples before any of the payload
    # is read: float64 ones (code 2) are read, and complex ones, complex128
    # (code 0) and complex64 (code 1), are refused by every reader there.
    data = np.ones((2, 1, 1, 1, 3), dtype=kind)
    path = tmp_path / "v.lrv"
    if code == 2:
        write_volume(data, path)
    else:
        write_complex(path, CANONICAL_AXES, data, code)
    assert path.read_bytes()[5] == code

    def no_read(*args):
        raise AssertionError("the payload was read")

    monkeypatch.setattr(os, "preadv", no_read)
    if code == 2:
        assert read_canonical_header(path) == (2, 1, 1, 1, 3)
        return
    readers = (read_canonical_header, read_volume, lambda p: read_volume(p, {"rx": slice(0, 1)}),
               lambda p: read_volume(p, out=np.empty(6)))
    for reader in readers:
        with pytest.raises(FileFormatError, match=f"scalar code {code}: complex samples"):
            reader(path)
