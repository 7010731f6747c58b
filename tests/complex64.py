"""Complex64 LRV1 fixtures: lrfill reads complex float32 volumes but writes
complex float64 and real float64 only, so tests build their
single-precision files here."""

from pathlib import Path

import numpy as np

from lrfill.fileio import write_volume
from lrfill.volume import Volume


def write_complex64(vol, path):
    """Write ``vol`` to ``path`` as an LRV1 file of complex64 samples
    (scalar code 1), each sample rounded to single precision; real samples
    are taken as complex ones."""
    write_volume(Volume(vol.axes, vol.data.astype(np.complex128)), path)
    raw = Path(path).read_bytes()
    # Magic, version, scalar code, axis count, then a code and a u64
    # extent per axis.
    header = bytearray(raw[:7 + 9 * len(vol.axes)])
    header[5] = 1
    payload = np.frombuffer(raw[len(header):], dtype="<c16").astype("<c8")
    Path(path).write_bytes(bytes(header) + payload.tobytes())
