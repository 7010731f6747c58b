"""Bit-exact binary formats for volumes (LRV1) and masks (LRM1).

LRV1 layout, all integers little-endian:

    bytes 0..3    magic "LRV1"
    byte  4       version (1)
    byte  5       scalar code, the type of each sample (table below)
    byte  6       axis count A
    bytes 7..7+A  axis label codes (t=0, f=1, rx=2, ry=3, sx=4, sy=5)
    next 8*A      u64 extents
    payload       samples, row-major in axis order

    code  sample           lrfill
    0     complex float64  refuses it at the header
    1     complex float32  refuses it at the header
    2     real float64     reads it, and writes it for every volume:
                           ``generate``, ``subsample`` and every
                           ``interpolate`` output

Seismic records are real traces, and their frequency slices exist only
inside a run, so lrfill reads and writes code 2 only.  A file of code 0
or 1 is refused from its header, before any sample is read.

LRM1 is the same header without the scalar-code byte; its payload is one
byte per grid point (1 = observed, 0 = missing).

The axis labels live here, in the headers, and nowhere else: a volume
in memory is a plain float64 array, time last (see :mod:`lrfill.volume`).
lrfill reads and writes volumes trace-major, ``(rx, ry, sx, sy, t)``, the
order of SEG-Y field data, and masks ``(rx, ry, sx, sy)``: every trace is
contiguous, and a block of whole traces over whole trailing axes is one
contiguous run of the payload.  Every read checks the order once, at the
header, and refuses a file in any other order or with an extent of 0
before any of its payload is read; a volume is written with the
trace-major header only.  A block is moved one call per contiguous run,
each at an offset worked out from the strides as it is reached, so a box
of many short runs costs no list of their offsets.

This is where samples cross the program's boundary, so both ways they are
checked for NaNs and infinities: a payload after it is read, whole or a
block, and a volume or a block before any byte of it is written.
"""

from __future__ import annotations

import contextlib
import math
import os

import numpy as np

from .sampling import SamplingMask
from .volume import CANONICAL_AXES, SPATIAL_AXES, AxisLayoutError, buffer_view, check_finite

VOLUME_MAGIC = b"LRV1"
MASK_MAGIC = b"LRM1"
FORMAT_VERSION = 1
# The axis label of each header code.
AXIS_LABELS = ("t", "f", "rx", "ry", "sx", "sy")
AXIS_CODES = {label: code for code, label in enumerate(AXIS_LABELS)}

# Refuse absurd headers before allocating anything.
MAX_ELEMENTS = 1 << 40
# Longest header: magic, version, scalar code, axis count, six axis codes
# and six u64 extents.
_MAX_HEADER = 4 + 1 + 1 + 1 + len(AXIS_LABELS) * (1 + 8)
# The one payload scalar type and its code; codes 0 and 1, complex
# float64 and complex float32 samples, are refused.
_SAMPLE_DTYPE = np.dtype("<f8")
_SAMPLE_CODE = 2


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
    if with_scalar:
        sc, pos = _take(buf, pos, 1, "scalar code")
        if sc[0] in (0, 1):
            raise FileFormatError(f"scalar code {sc[0]}: complex samples; lrfill reads "
                                  "real traces, float64 samples (code 2): see README")
        if sc[0] != _SAMPLE_CODE:
            raise FileFormatError(f"unknown scalar code {sc[0]}")
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
    return tuple(axes), extents, count, pos


def _check_payload(found: int, nbytes: int, what: str):
    if found < nbytes:
        raise TruncatedFileError(f"{what}: expected {nbytes} payload bytes, found {found}")
    if found > nbytes:
        raise FileFormatError(f"{what}: {found - nbytes} trailing bytes")


def _open_payload(fh, magic: bytes, with_scalar: bool, order: tuple, what: str):
    """Extents, sample type and payload offset of an open LRV1/LRM1 file
    of a ``what``, from its header, which is checked, as is the payload
    length against the file size; nothing of the payload is read.  Axes
    other than ``order`` raise :class:`AxisLayoutError` and an extent of 0
    ``ValueError``; each error names the file."""
    try:
        axes, extents, count, pos = _read_header(fh.read(_MAX_HEADER), magic, with_scalar)
    except FileFormatError as exc:
        raise type(exc)(f"{fh.name}: {exc}") from None
    if axes != order:
        raise AxisLayoutError(f"{fh.name}: axes {axes}; lrfill reads trace-major {what}s, "
                              f"axes {order}: see README")
    if 0 in extents:
        raise ValueError(f"{fh.name}: every extent must be at least 1, not {extents}")
    dtype = _SAMPLE_DTYPE if with_scalar else np.dtype(np.uint8)
    _check_payload(os.fstat(fh.fileno()).st_size - pos, count * dtype.itemsize,
                   f"{what} payload")
    return extents, dtype, pos


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


def _move(call, fd: int, view: memoryview, at: int):
    """All of the bytes of ``view`` through ``os.preadv`` or ``os.pwritev``
    at byte ``at`` of the file."""
    while len(view):
        done = call(fd, [view], at)
        if done == 0:
            raise TruncatedFileError("file ends inside the payload")
        view, at = view[done:], at + done


def _transfer(fd: int, data: np.ndarray, pos: int, extents, box, write: bool):
    """Read or write ``data``, the C-contiguous samples of ``box``, from or
    to the payload at byte ``pos`` of the file, whose samples are of the
    type of ``data``, in place.  The payload is never mapped into memory.

    A run spans the range of the box's last cut axis and the whole axes
    after it, so it is contiguous in the file.  The runs are taken in
    order, each moved in one call through :func:`_move` at an offset
    worked out from the strides, and no list or array of offsets is built.
    """
    if data.size == 0:
        return
    cut = max((i for i, span in enumerate(box) if span != (0, extents[i])), default=0)
    strides = [math.prod(extents[i + 1:]) for i in range(len(extents))]
    runs = math.prod(data.shape[:cut])
    raw = memoryview(data.reshape(-1).view(np.uint8))
    nbytes = len(raw) // runs
    call = os.pwritev if write else os.preadv
    for i in range(runs):
        # Run i's index on each axis before the cut one, the last fastest.
        at, rest = box[cut][0] * strides[cut], i
        for (start, stop), stride in zip(reversed(box[:cut]), reversed(strides[:cut])):
            rest, k = divmod(rest, stop - start)
            at += (start + k) * stride
        _move(call, fd, raw[i * nbytes:(i + 1) * nbytes], pos + data.itemsize * at)


def _read_file(path, magic: bytes, with_scalar: bool, order: tuple, what: str,
               block=None, out=None):
    """Payload of an LRV1/LRM1 file of a ``what`` whose axes must be
    ``order``, or of the box of it that ``block`` names.  The header, its
    order among it, and the payload length are checked before any of the
    payload is read (see :func:`_open_payload`); the payload goes straight
    into the array returned: a new array of the payload's type, or the
    leading elements of the buffer ``out`` (see :func:`buffer_view`),
    which must be of that type, if one is given."""
    with open(path, "rb") as fh:
        extents, dtype, pos = _open_payload(fh, magic, with_scalar, order, what)
        box = _box(order, extents, block)
        shape = [stop - start for start, stop in box]
        if out is None:
            data = np.empty(shape, dtype=dtype)
        else:
            data = buffer_view(out, shape)
            if data.dtype != dtype:
                raise ValueError(f"{what}: {dtype} samples are not read into a "
                                 f"{data.dtype} buffer")
        _transfer(fh.fileno(), data, pos, extents, box, write=False)
    return data


def read_canonical_header(path: str | os.PathLike) -> tuple:
    """Extents of the LRV1 volume at ``path``, read and checked from its
    header without its payload: every command's check of a volume it is
    given, and the check every read of a volume makes.  A volume whose
    axes are not ``CANONICAL_AXES``, trace-major, raises
    :class:`AxisLayoutError`, one with an extent of 0 ``ValueError``, and
    one of complex samples :class:`FileFormatError`; each names the
    file."""
    with open(path, "rb") as fh:
        return _open_payload(fh, VOLUME_MAGIC, True, CANONICAL_AXES, "volume")[0]


@contextlib.contextmanager
def _replacing(path: str | os.PathLike):
    """Bind ``<path>.part`` for the body of a ``with`` to build a file in,
    and give it the name ``path`` when the body ends.  If the body raises,
    the part file is removed and ``path`` is left as it was, so a write
    that stops partway leaves no file."""
    part = f"{os.fspath(path)}.part"
    try:
        yield part
        os.replace(part, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(part)
        raise


@contextlib.contextmanager
def create_volume(path: str | os.PathLike, extents):
    """Create a trace-major LRV1 volume of float64 samples for
    :func:`write_volume` to fill block by block in the body of a ``with``;
    the path to write to is the value bound.

    The file is built under a temporary name beside ``path``, sized for its
    payload, and takes the name ``path`` when the body ends (see
    :func:`_replacing`), so a write that stops partway leaves no file of
    full length with blocks of zeros.
    """
    header = _header(VOLUME_MAGIC, CANONICAL_AXES, extents, _SAMPLE_CODE)
    nbytes = math.prod(extents) * _SAMPLE_DTYPE.itemsize
    with _replacing(path) as part:
        with open(part, "wb") as fh:
            fh.write(header)
            fh.truncate(len(header) + nbytes)
        yield part


def _header(magic: bytes, axes, extents, scalar_code: int | None = None) -> bytes:
    """LRV1 header of a payload of ``scalar_code``, or LRM1 header."""
    header = bytearray(magic)
    header.append(FORMAT_VERSION)
    if scalar_code is not None:
        header.append(scalar_code)
    header.append(len(axes))
    header.extend(AXIS_CODES[a] for a in axes)
    header.extend(np.asarray(extents, dtype="<u8").tobytes())
    return bytes(header)


def write_volume(data: np.ndarray, path: str | os.PathLike, block: dict | None = None):
    """Serialize a volume, an array of real traces with time last, as a
    trace-major LRV1 file of float64 samples (code 2); a write that fails
    leaves no file (see :func:`create_volume`).  Samples of another real
    type or memory layout are copied to C-contiguous float64 first.

    With ``block``, a slice per axis label as for :func:`read_volume`,
    ``data`` is that box of the trace-major LRV1 file at ``path`` instead,
    which must exist: it is written into place, and nothing else of the
    file changes.  Complex samples raise ``ValueError``, and so do a NaN or
    an infinity (:func:`lrfill.volume.check_finite`) and an array that is
    not 5-d or has an extent of 0, before any file is created or any byte
    written.
    """
    if np.iscomplexobj(data):
        raise ValueError("complex samples are not written: an LRV1 file holds real "
                         "traces, float64 samples")
    data = np.ascontiguousarray(data, dtype=_SAMPLE_DTYPE)
    if data.ndim != len(CANONICAL_AXES) or 0 in data.shape:
        raise ValueError(f"an array of shape {data.shape} is not a volume: lrfill writes "
                         f"axes {CANONICAL_AXES}, each of extent at least 1")
    check_finite(data)
    target = (create_volume(path, data.shape) if block is None
              else contextlib.nullcontext(path))
    with target as part, open(part, "r+b") as fh:
        extents, _, pos = _open_payload(fh, VOLUME_MAGIC, True, CANONICAL_AXES, "volume")
        box = _box(CANONICAL_AXES, extents, block)
        if data.shape != tuple(stop - start for start, stop in box):
            raise ValueError(f"block of shape {data.shape} does not fill the box {box}")
        _transfer(fh.fileno(), data, pos, extents, box, write=True)


def read_volume(path: str | os.PathLike, block: dict | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
    """Read a trace-major LRV1 file into a float64 array, time last; a file
    in another axis order, with an extent of 0 or of complex samples is
    refused from its header (see :func:`read_canonical_header`).

    ``block`` maps axis labels to slices and reads only that box of the
    volume; axes it leaves out are read whole.  With ``out``, a float64
    buffer as for :func:`lrfill.volume.buffer_view`, the samples are read
    into its leading elements and the array returned lies over them.  The
    samples read are checked by :func:`lrfill.volume.check_finite`: a NaN
    or an infinity raises ``ValueError``.
    """
    data = _read_file(path, VOLUME_MAGIC, True, CANONICAL_AXES, "volume", block, out)
    check_finite(data)
    return data


def write_mask(mask: SamplingMask, path: str | os.PathLike):
    """Serialize a mask of axes ``(rx, ry, sx, sy)`` as LRM1: its axis
    labels, extents and grid; a mask of other axes raises
    :class:`AxisLayoutError`.  As for a volume, a write that fails leaves
    no file."""
    if mask.axes != SPATIAL_AXES:
        raise AxisLayoutError(f"a mask of axes {mask.axes} is not written: lrfill writes "
                              f"masks of axes {SPATIAL_AXES}")
    with _replacing(path) as part, open(part, "wb") as fh:
        fh.write(_header(MASK_MAGIC, SPATIAL_AXES, mask.grid.shape))
        fh.write(memoryview(np.ascontiguousarray(mask.grid, dtype=np.uint8)))


def read_mask(path: str | os.PathLike) -> SamplingMask:
    """Read an LRM1 file of axes ``(rx, ry, sx, sy)``; a file in another
    axis order or with an extent of 0 is refused from its header, as a
    volume is (see :func:`read_canonical_header`)."""
    raw = _read_file(path, MASK_MAGIC, False, SPATIAL_AXES, "mask")
    bad = np.setdiff1d(raw, [0, 1])
    if bad.size:
        raise FileFormatError(f"mask bytes must be 0 or 1, found {bad[:4]}")
    return SamplingMask(raw.astype(bool), axes=SPATIAL_AXES)
