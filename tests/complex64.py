"""Raw LRV1 files that lrfill refuses and does not write: scalar codes 0
(complex float64) and 1 (complex float32), and float64 samples (code 2) in
an axis order other than trace-major.  The tests of those refusals build
their files here, byte by byte."""

from pathlib import Path

import numpy as np

_AXIS_CODES = {"t": 0, "f": 1, "rx": 2, "ry": 3, "sx": 4, "sy": 5}
_TRACE_MAJOR = ("rx", "ry", "sx", "sy", "t")
_PAYLOAD_TYPES = {0: "<c16", 1: "<c8", 2: "<f8"}


def write_complex(path, axes, data, code):
    """Write ``data``, an array whose axes are labelled ``axes``, to
    ``path`` as an LRV1 file of scalar code ``code``, 0, 1 or 2: the
    header, then each sample as the (re, im) pair of that code's precision,
    or as a float64 for code 2."""
    data = np.asarray(data)
    # Magic, version, scalar code, axis count, then a code per axis and a
    # u64 extent per axis.
    header = bytearray(b"LRV1\x01")
    header += bytes([code, len(axes)])
    header += bytes(_AXIS_CODES[a] for a in axes)
    header += np.asarray(data.shape, dtype="<u8").tobytes()
    Path(path).write_bytes(bytes(header) + data.astype(_PAYLOAD_TYPES[code]).tobytes())


def write_in_order(path, vol, order):
    """Write ``vol``, a trace-major float64 volume, to ``path`` as an LRV1
    file of code 2 whose axes are in ``order``."""
    write_complex(path, order, np.transpose(vol, [_TRACE_MAJOR.index(a) for a in order]), 2)


def write_mask_raw(path, axes, grid):
    """Write the boolean ``grid``, whose axes are labelled ``axes``, to
    ``path`` as an LRM1 file."""
    grid = np.asarray(grid)
    header = b"LRM1\x01" + bytes([len(axes)]) + bytes(_AXIS_CODES[a] for a in axes)
    header += np.asarray(grid.shape, dtype="<u8").tobytes()
    Path(path).write_bytes(header + grid.astype(np.uint8).tobytes())
