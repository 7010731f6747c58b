"""Raw LRV1 files of complex samples: scalar codes 0 (complex float64) and
1 (complex float32).  lrfill refuses both and writes neither, so the tests
of that refusal build their files here, byte by byte."""

from pathlib import Path

import numpy as np

from lrfill.volume import AXIS_CODES

_PAYLOAD_TYPES = {0: "<c16", 1: "<c8"}


def write_complex(path, axes, data, code):
    """Write ``data``, an array whose axes are labelled ``axes``, to
    ``path`` as an LRV1 file of scalar code ``code``, 0 or 1: the header,
    then each sample as the (re, im) pair of that code's precision."""
    data = np.asarray(data)
    # Magic, version, scalar code, axis count, then a code per axis and a
    # u64 extent per axis.
    header = bytearray(b"LRV1\x01")
    header += bytes([code, len(axes)])
    header += bytes(AXIS_CODES[a] for a in axes)
    header += np.asarray(data.shape, dtype="<u8").tobytes()
    Path(path).write_bytes(bytes(header) + data.astype(_PAYLOAD_TYPES[code]).tobytes())
