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

import os

import numpy as np

from .sampling import SamplingMask
from .volume import AXIS_CODES, AXIS_LABELS, ComplexVolume

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


def _read_file(path, magic: bytes, with_scalar: bool, what: str):
    """Axis labels and payload of an LRV1/LRM1 file.  The payload length is
    checked against the file size, then the payload is read once, straight
    into the array returned."""
    with open(path, "rb") as fh:
        axes, extents, count, scalar_code, pos = _read_header(
            fh.read(_MAX_HEADER), magic, with_scalar)
        dtype = np.dtype(_VOLUME_DTYPES[scalar_code] if with_scalar else np.uint8)
        nbytes = count * dtype.itemsize
        _check_payload(os.fstat(fh.fileno()).st_size - pos, nbytes, what)
        data = np.empty(extents, dtype=dtype)
        fh.seek(pos)
        _check_payload(fh.readinto(data), nbytes, what)
    return axes, data


def write_volume(vol: ComplexVolume, path: str | os.PathLike, single_precision: bool = False):
    """Serialize a volume as LRV1."""
    scalar_code = 1 if single_precision else 0
    header = bytearray(VOLUME_MAGIC)
    header.append(FORMAT_VERSION)
    header.append(scalar_code)
    header.append(len(vol.axes))
    header.extend(AXIS_CODES[a] for a in vol.axes)
    header.extend(np.asarray(vol.dims, dtype="<u8").tobytes())
    payload = np.ascontiguousarray(vol.data, dtype=_VOLUME_DTYPES[scalar_code])
    with open(path, "wb") as fh:
        fh.write(bytes(header))
        fh.write(memoryview(payload))


def read_volume(path: str | os.PathLike) -> ComplexVolume:
    """Read an LRV1 file back into a volume; a complex64 payload is
    widened to complex128."""
    return ComplexVolume(*_read_file(path, VOLUME_MAGIC, True, "volume payload"))


def write_mask(mask: SamplingMask, path: str | os.PathLike):
    """Serialize a mask as LRM1 (metadata is not stored)."""
    header = bytearray(MASK_MAGIC)
    header.append(FORMAT_VERSION)
    header.append(mask.grid.ndim)
    header.extend(AXIS_CODES[a] for a in mask.axes)
    header.extend(np.asarray(mask.grid.shape, dtype="<u8").tobytes())
    with open(path, "wb") as fh:
        fh.write(bytes(header))
        fh.write(memoryview(np.ascontiguousarray(mask.grid, dtype=np.uint8)))


def read_mask(path: str | os.PathLike) -> SamplingMask:
    axes, raw = _read_file(path, MASK_MAGIC, False, "mask payload")
    bad = np.setdiff1d(raw, [0, 1])
    if bad.size:
        raise FileFormatError(f"mask bytes must be 0 or 1, found {bad[:4]}")
    grid = raw.astype(bool)
    kept = float(grid.mean())
    return SamplingMask(grid, axes=axes, scheme="unknown", keep_fraction=kept)
