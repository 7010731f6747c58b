"""Bit-exact binary formats for volumes (LRV1) and masks (LRM1).

LRV1 layout, all integers little-endian:

    bytes 0..3    magic "LRV1"
    byte  4       version (1)
    byte  5       scalar code: 0 = complex float64, 1 = complex float32
    byte  6       axis count A
    bytes 7..7+A  axis label codes (t=0, f=1, rx=2, ry=3, sx=4, sy=5)
    next 8*A      u64 extents
    payload       interleaved (re, im) scalars, row-major in axis order

LRM1 is the same header without the scalar-code byte; its payload is one
byte per grid point (1 = observed, 0 = missing).
"""

from __future__ import annotations

import contextlib
import math
import os

import numpy as np

from .sampling import SamplingMask
from .volume import AXIS_CODES, AXIS_LABELS, ComplexVolume, buffer_view

VOLUME_MAGIC = b"LRV1"
MASK_MAGIC = b"LRM1"
FORMAT_VERSION = 1

# Refuse absurd headers before allocating anything.
MAX_ELEMENTS = 1 << 40
# Longest header: magic, version, scalar code, axis count, six axis codes
# and six u64 extents.
_MAX_HEADER = 4 + 1 + 1 + 1 + len(AXIS_LABELS) * (1 + 8)
# Payload scalar type by scalar code.
_VOLUME_DTYPES = ("<c16", "<c8")


class FileFormatError(ValueError):
    """Base class for malformed LRV1/LRM1 files."""


class BadMagicError(FileFormatError):
    pass


class VersionError(FileFormatError):
    pass


class TruncatedFileError(FileFormatError):
    pass


class DimsOverflowError(FileFormatError):
    pass


def _take(buf: bytes, pos: int, count: int, what: str) -> tuple[bytes, int]:
    if pos + count > len(buf):
        raise TruncatedFileError(f"file ends inside {what}")
    return buf[pos : pos + count], pos + count


def _read_header(buf: bytes, magic: bytes, with_scalar: bool):
    got, pos = _take(buf, 0, 4, "magic")
    if got != magic:
        raise BadMagicError(f"expected magic {magic!r}, found {got!r}")
    ver, pos = _take(buf, pos, 1, "version")
    if ver[0] != FORMAT_VERSION:
        raise VersionError(f"unsupported version {ver[0]}")
    scalar_code = 0
    if with_scalar:
        sc, pos = _take(buf, pos, 1, "scalar code")
        scalar_code = sc[0]
        if scalar_code not in (0, 1):
            raise FileFormatError(f"unknown scalar code {scalar_code}")
    ac, pos = _take(buf, pos, 1, "axis count")
    naxes = ac[0]
    if not 1 <= naxes <= len(AXIS_LABELS):
        raise FileFormatError(f"axis count {naxes} out of range")
    codes, pos = _take(buf, pos, naxes, "axis labels")
    axes = []
    for code in codes:
        if code >= len(AXIS_LABELS):
            raise FileFormatError(f"unknown axis code {code}")
        axes.append(AXIS_LABELS[code])
    raw, pos = _take(buf, pos, 8 * naxes, "extents")
    extents = tuple(int(e) for e in np.frombuffer(raw, dtype="<u8"))
    count = 1
    for e in extents:
        count *= e
        if count > MAX_ELEMENTS:
            raise DimsOverflowError(f"declared extents {extents} overflow")
    return tuple(axes), extents, count, scalar_code, pos


def _check_payload(found: int, nbytes: int, what: str):
    if found < nbytes:
        raise TruncatedFileError(f"{what}: expected {nbytes} payload bytes, found {found}")
    if found > nbytes:
        raise FileFormatError(f"{what}: {found - nbytes} trailing bytes")


def _open_payload(fh, magic: bytes, with_scalar: bool, what: str):
    """Parse the header of an open LRV1/LRM1 file and check the payload
    length against the file size; nothing of the payload is read."""
    axes, extents, count, scalar_code, pos = _read_header(
        fh.read(_MAX_HEADER), magic, with_scalar)
    dtype = np.dtype(_VOLUME_DTYPES[scalar_code] if with_scalar else np.uint8)
    _check_payload(os.fstat(fh.fileno()).st_size - pos, count * dtype.itemsize, what)
    return axes, extents, dtype, pos


def _box(axes, extents, block) -> list:
    """``(start, stop)`` per axis of the box that ``block`` names: a slice
    per axis label, and the whole extent of every axis it leaves out."""
    block = block or {}
    unknown = set(block) - set(axes)
    if unknown:
        raise ValueError(f"block names axes {sorted(unknown)} the file lacks")
    box = [block.get(a, slice(None)).indices(n) for a, n in zip(axes, extents)]
    if any(step != 1 or (a in block and start >= stop)
           for a, (start, stop, step) in zip(axes, box)):
        raise ValueError(f"block {block} is not a nonempty box of {extents}")
    return [(start, stop) for start, stop, _ in box]


def _runs(extents, box):
    """Element offsets of the contiguous runs of a C-ordered payload that
    make up ``box``, in the box's own C order, and the length of a run."""
    last = len(extents) - 1
    while last > 0 and box[last] == (0, extents[last]):
        last -= 1
    strides = [math.prod(extents[i + 1:]) for i in range(len(extents))]
    offsets = np.zeros(1, dtype=np.int64)
    for (start, stop), stride in zip(box[:last], strides):
        offsets = (offsets[:, None] + np.arange(start, stop) * stride).ravel()
    start, stop = box[last]
    return offsets + start * strides[last], (stop - start) * strides[last]


def _move(call, fd: int, view: memoryview, at: int):
    """All of the bytes of ``view`` through ``os.preadv`` or ``os.pwritev``
    at byte ``at`` of the file."""
    while len(view):
        done = call(fd, [view], at)
        if done == 0:
            raise TruncatedFileError("file ends inside the payload")
        view, at = view[done:], at + done


def _bytes(data: np.ndarray) -> memoryview:
    return memoryview(data.reshape(-1).view(np.uint8))


def _transfer(fd: int, data: np.ndarray, pos: int, extents, box, write: bool):
    """Read or write the C-contiguous ``data`` of ``box`` from or to the
    payload at byte ``pos`` of the file, one call per contiguous run of the
    box.  The payload is never mapped into memory."""
    itemsize = data.dtype.itemsize
    offsets, run = _runs(extents, box)
    call = os.pwritev if write else os.preadv
    raw, nbytes = _bytes(data), run * itemsize
    for i, at in enumerate((pos + offsets * itemsize).tolist()):
        _move(call, fd, raw[i * nbytes:(i + 1) * nbytes], at)


def _read_file(path, magic: bytes, with_scalar: bool, what: str, block=None, out=None):
    """Axis labels and payload of an LRV1/LRM1 file, or of the box of it
    that ``block`` names.  The header and the payload length are checked
    before any of the payload is read; the payload goes straight into the
    array returned, which is the leading elements of the complex128 buffer
    ``out`` (see :func:`buffer_view`) if one is given.  A payload of
    another scalar type is then read into a staging array and copied."""
    with open(path, "rb") as fh:
        axes, extents, dtype, pos = _open_payload(fh, magic, with_scalar, what)
        box = _box(axes, extents, block)
        shape = [stop - start for start, stop in box]
        direct = out is not None and dtype == out.dtype
        data = buffer_view(out, shape) if direct else np.empty(shape, dtype=dtype)
        _transfer(fh.fileno(), data, pos, extents, box, write=False)
    if out is not None and not direct:
        staged, data = data, buffer_view(out, shape)
        data[...] = staged
    return axes, data


def read_volume_header(path: str | os.PathLike) -> tuple:
    """``(axes, extents)`` of an LRV1 file, read and checked without its
    payload."""
    with open(path, "rb") as fh:
        axes, extents, _, _ = _open_payload(fh, VOLUME_MAGIC, True, "volume payload")
    return axes, extents


@contextlib.contextmanager
def create_volume(path: str | os.PathLike, axes, extents, scalar_code: int = 0):
    """Create an LRV1 volume for :func:`write_volume` to fill block by block
    in the body of a ``with``; the path to write to is the value bound.

    The file is built under a temporary name beside ``path``, sized for its
    payload, and takes the name ``path`` when the body ends.  If the body
    raises, the file is removed and ``path`` is left as it was, so a write
    that stops partway leaves no file of full length with blocks of zeros.
    """
    part = f"{os.fspath(path)}.part"
    header = _header(VOLUME_MAGIC, axes, extents, scalar_code)
    nbytes = math.prod(extents) * np.dtype(_VOLUME_DTYPES[scalar_code]).itemsize
    try:
        with open(part, "wb") as fh:
            fh.write(header)
            fh.truncate(len(header) + nbytes)
        yield part
        os.replace(part, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(part)
        raise


def _header(magic: bytes, axes, extents, scalar_code: int | None = None) -> bytes:
    """LRV1 header with its ``scalar_code``, or LRM1 header without one."""
    header = bytearray(magic)
    header.append(FORMAT_VERSION)
    if scalar_code is not None:
        header.append(scalar_code)
    header.append(len(axes))
    header.extend(AXIS_CODES[a] for a in axes)
    header.extend(np.asarray(extents, dtype="<u8").tobytes())
    return bytes(header)


def write_volume(vol: ComplexVolume, path: str | os.PathLike, single_precision: bool = False,
                 block: dict | None = None):
    """Serialize a volume as LRV1; a write that fails leaves no file.

    With ``block``, a slice per axis label as for :func:`read_volume`,
    ``vol`` is that box of the LRV1 file at ``path`` instead, which must
    exist (see :func:`create_volume`): it is written into place in the
    file's axis order and scalar type, and nothing else of the file changes.
    The whole volume is written so too, as the box of every axis, ``{}``.
    """
    if block is None:
        with create_volume(path, vol.axes, vol.dims, int(single_precision)) as part:
            write_volume(vol, part, block={})
        return
    if single_precision:
        raise ValueError("a block is written in the scalar type of its file")
    with open(path, "r+b") as fh:
        axes, extents, dtype, pos = _open_payload(fh, VOLUME_MAGIC, True, "volume payload")
        box = _box(axes, extents, block)
        vol = vol.reordered(axes)
        if vol.dims != tuple(stop - start for start, stop in box):
            raise ValueError(f"block of dims {vol.dims} does not fill the box {box}")
        payload = np.ascontiguousarray(vol.data, dtype=dtype)
        _transfer(fh.fileno(), payload, pos, extents, box, write=True)


def read_volume(path: str | os.PathLike, block: dict | None = None,
                out: np.ndarray | None = None) -> ComplexVolume:
    """Read an LRV1 file back into a volume; a complex64 payload is
    widened to complex128.

    ``block`` maps axis labels to slices and reads only that box of the
    volume, in the file's axis order; axes it leaves out are read whole.
    With ``out``, a buffer as for :func:`lrfill.volume.buffer_view`, the
    samples are read into its leading elements and the volume returned
    lies over them (:meth:`ComplexVolume.over`).
    """
    axes, data = _read_file(path, VOLUME_MAGIC, True, "volume payload", block, out)
    return ComplexVolume(axes, data) if out is None else ComplexVolume.over(axes, data)


def write_mask(mask: SamplingMask, path: str | os.PathLike):
    """Serialize a mask as LRM1: its axis labels, extents and grid."""
    with open(path, "wb") as fh:
        fh.write(_header(MASK_MAGIC, mask.axes, mask.grid.shape))
        fh.write(memoryview(np.ascontiguousarray(mask.grid, dtype=np.uint8)))


def read_mask(path: str | os.PathLike) -> SamplingMask:
    axes, raw = _read_file(path, MASK_MAGIC, False, "mask payload")
    bad = np.setdiff1d(raw, [0, 1])
    if bad.size:
        raise FileFormatError(f"mask bytes must be 0 or 1, found {bad[:4]}")
    return SamplingMask(raw.astype(bool), axes=axes)
