"""Volumes as plain arrays, and the time/frequency transform pair.

A volume in memory is a float64 array of real traces with time last,
trace-major, in the order ``CANONICAL_AXES``, ``(rx, ry, sx, sy, t)``:
two receiver axes, two source axes and time.  Its spectrum is a complex128
array of the same spatial axes with frequency last.  The axis labels live
in the file headers only, where :mod:`lrfill.fileio` checks them once:
every volume read is trace-major, and nothing in memory carries labels.
Seismic traces are real, so the transform pair takes real traces of n time
samples to their half spectrum, bins 0 to n//2, and back; the other bins
are their conjugates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPATIAL_AXES = ("rx", "ry", "sx", "sy")
# Trace-major: each trace's samples are contiguous, in memory and in the
# files, and the DFTs run along the last axis.
CANONICAL_AXES = SPATIAL_AXES + ("t",)
# Floats that check_finite takes at a time.
_CHECK_FLOATS = 1 << 17


class AxisLayoutError(ValueError):
    """The axes of a file, a mask or an array do not match what an
    operation requires."""


@dataclass
class FrequencySlice:
    """One monochromatic p-by-q matrix cut from a volume."""

    p: int
    q: int
    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.complex128)
        if arr.shape != (self.p, self.q):
            raise ValueError(
                f"slice data has shape {arr.shape}, expected {(self.p, self.q)}"
            )
        self.data = arr


def check_finite(data: np.ndarray):
    """Raise ``ValueError`` if float64 or complex128 ``data`` holds a NaN
    or an infinity.  Complex samples are checked as their real and
    imaginary parts, which is faster than a complex check, and the floats
    ``_CHECK_FLOATS`` at a time, so that the mask of each step stays
    small."""
    flat = data.reshape(-1).view(np.float64)
    for i in range(0, flat.size, _CHECK_FLOATS):
        if not np.isfinite(flat[i:i + _CHECK_FLOATS]).all():
            raise ValueError("volume contains non-finite values")


def buffer_view(buffer: np.ndarray, shape) -> np.ndarray:
    """The leading elements of ``buffer``, a writable C-contiguous float64
    or complex128 array, as an array of ``shape`` over the same memory: a
    buffer sized for the largest block holds each block in its first
    elements."""
    if not (buffer.dtype in (np.float64, np.complex128) and buffer.flags.c_contiguous
            and buffer.flags.writeable):
        raise ValueError("a buffer must be a writable C-contiguous float64 or "
                         "complex128 array")
    count = math.prod(shape)
    if buffer.size < count:
        raise ValueError(f"a buffer of {buffer.size} elements cannot hold {tuple(shape)}")
    return buffer.reshape(-1)[:count].reshape(shape)


def dft_time_axis(data: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unitary forward DFT along the last axis, time, of real traces: their
    spectrum, frequency last.

    Unitary (1/sqrt(N) both ways) normalization keeps Frobenius norms
    identical in both domains, so residual thresholds are comparable no
    matter which side they are measured on.  The spectrum of n time
    samples is their half spectrum, bins 0 to n//2 (``rfft``): each other
    bin counts twice in its norm, once for its conjugate.  Complex samples
    raise ``ValueError``.

    With ``out``, a complex128 buffer as for :func:`buffer_view`, the
    spectrum is written into its leading elements, and the array returned
    lies over them.  The spectrum is not checked: a DFT of finite samples
    can overflow, so a caller that needs finite values checks them with
    :func:`check_finite`.
    """
    if np.iscomplexobj(data):
        raise ValueError("the time DFT takes real traces; these samples are complex")
    data = np.asarray(data, dtype=np.float64)
    shape = data.shape[:-1] + (data.shape[-1] // 2 + 1,)
    dest = None if out is None else buffer_view(out, shape)
    return np.fft.rfft(data, axis=-1, norm="ortho", out=dest)


def idft_freq_axis(spectrum: np.ndarray, nt: int,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Unitary inverse DFT along the last axis, frequency; exact inverse of
    :func:`dft_time_axis`, and written into the float64 buffer ``out`` as
    it is.

    ``spectrum`` holds the half spectrum of real traces of ``nt`` samples,
    bins 0 to nt//2, and the traces returned are real (``irfft``): the
    imaginary parts of bin 0 and, for an even ``nt``, of bin nt/2 do not
    reach them.
    """
    if spectrum.shape[-1] != nt // 2 + 1:
        raise ValueError(f"{spectrum.shape[-1]} bins are not the half spectrum of "
                         f"{nt} samples")
    dest = None if out is None else buffer_view(out, spectrum.shape[:-1] + (nt,))
    return np.fft.irfft(spectrum, n=nt, axis=-1, norm="ortho", out=dest)


def freq_values_hz(n: int, dt: float) -> np.ndarray:
    """Physical frequency of each bin that :func:`dft_time_axis` gives an
    n-sample record at step dt: 0 Hz to Nyquist."""
    return np.fft.rfftfreq(n, d=dt)
