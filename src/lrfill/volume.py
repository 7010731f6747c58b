"""Axis-labeled dense volumes and the time/frequency transform pair.

A volume is a dense array of real (float64) or complex (complex128)
samples whose axes carry labels from ``{t, f, rx, ry, sx, sy}`` (time,
frequency, two receiver axes, two source axes).  Seismic traces are real,
so the transform pair takes real traces of n time samples to their half
spectrum, bins 0 to n//2, and back; the other bins are their conjugates.
Labeling the axes instead of relying on positional conventions is what
keeps the later matricization steps honest: every reshape is done by
name, never by assumed order, and every permutation of axes is taken from
their labels by :func:`axis_permutation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

AXIS_LABELS = ("t", "f", "rx", "ry", "sx", "sy")
AXIS_CODES = {label: code for code, label in enumerate(AXIS_LABELS)}
SPATIAL_AXES = ("rx", "ry", "sx", "sy")
# Trace-major: each trace's samples are contiguous, in memory and in the
# files a run writes, and the DFTs run along the last axis.
CANONICAL_AXES = SPATIAL_AXES + ("t",)
# Floats that check_finite takes at a time.
_CHECK_FLOATS = 1 << 17


class AxisLayoutError(ValueError):
    """The axes of a volume do not match what an operation requires."""


def check_axis_labels(axes: tuple):
    """Raise :class:`AxisLayoutError` unless ``axes`` are distinct labels
    of ``AXIS_LABELS``."""
    for label in axes:
        if label not in AXIS_CODES:
            raise AxisLayoutError(f"unknown axis label {label!r}")
    if len(set(axes)) != len(axes):
        raise AxisLayoutError(f"duplicate axis labels in {axes}")


def axis_permutation(axes, want) -> list:
    """Positions in ``axes`` of the labels of ``want``, in the order of
    ``want``: the permutation that takes an array whose axes are ``axes``
    to one whose axes are ``want``.  Raises :class:`AxisLayoutError` unless
    both hold the same labels."""
    axes, want = tuple(axes), tuple(want)
    if sorted(axes) != sorted(want):
        raise AxisLayoutError(f"cannot reorder {axes} to {want}")
    return [axes.index(a) for a in want]


@dataclass(frozen=True)
class Volume:
    """Dense real or complex N-d array with named axes.

    Parameters
    ----------
    axes : tuple of str
        Axis labels, one per array dimension, drawn from ``AXIS_LABELS``.
        Labels must be unique and exactly one of ``t``/``f`` must appear.
    data : ndarray
        Samples: complex ones are held as complex128, any others as
        float64.  A C-contiguous float64 or complex128 array, whether it
        owns its memory or is a view such as a block buffer's, is wrapped
        as a read-only view without a copy: the volume cannot write it, and
        whoever can still write the array changes the volume's values, so
        must be done with the volume first.  Any other array (another dtype
        or layout) is copied into a new C-contiguous array of its kind.
        The labels and the dimensions are checked, not the values: samples
        are checked where they enter and leave the program (see
        :func:`check_finite`).
    """

    axes: tuple
    data: np.ndarray

    def __post_init__(self):
        axes = tuple(self.axes)
        check_axis_labels(axes)
        if ("t" in axes) == ("f" in axes):
            raise AxisLayoutError("exactly one of axes 't' and 'f' is required")
        data = np.asarray(self.data)
        kind = np.complex128 if np.iscomplexobj(data) else np.float64
        data = np.asarray(data, dtype=kind, order="C").view()
        if data.ndim != len(axes):
            raise AxisLayoutError(
                f"data has {data.ndim} dimensions but {len(axes)} axes declared"
            )
        data.setflags(write=False)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "data", data)

    @property
    def dims(self):
        return self.data.shape

    def axis_index(self, label: str) -> int:
        try:
            return self.axes.index(label)
        except ValueError:
            raise AxisLayoutError(f"volume has no {label!r} axis") from None

    def reordered(self, axes) -> "Volume":
        """Return a volume with the same content, axes permuted to `axes`;
        the volume itself when they are already in that order."""
        axes = tuple(axes)
        if axes == self.axes:
            return self
        return Volume(axes, np.transpose(self.data, axis_permutation(self.axes, axes)))


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


def _transform(fft, vol: Volume, src: str, dst: str, out, length: int, **kwargs) -> Volume:
    """Unitary ``fft`` along axis ``src`` of ``vol``, relabeled ``dst`` and
    of ``length`` along it; into the leading elements of the buffer ``out``
    unless it is ``None``."""
    k = vol.axis_index(src)
    axes = tuple(dst if a == src else a for a in vol.axes)
    shape = vol.dims[:k] + (length,) + vol.dims[k + 1:]
    dest = None if out is None else buffer_view(out, shape)
    return Volume(axes, fft(vol.data, axis=k, norm="ortho", out=dest, **kwargs))


def dft_time_axis(vol: Volume, out: np.ndarray | None = None) -> Volume:
    """Unitary forward DFT along the time axis of real traces; relabels
    ``t`` to ``f``.

    Unitary (1/sqrt(N) both ways) normalization keeps Frobenius norms
    identical in both domains, so residual thresholds are comparable no
    matter which side they are measured on.  The spectrum of n time
    samples is their half spectrum, bins 0 to n//2 (``rfft``): each other
    bin counts twice in its norm, once for its conjugate.  A volume of
    complex samples raises ``ValueError``.

    With ``out``, a complex128 buffer as for :func:`buffer_view`, the
    spectrum is written into its leading elements, and the volume returned
    lies over them.  The spectrum is not checked: a DFT of finite samples
    can overflow, so a caller that needs finite values checks them with
    :func:`check_finite`.
    """
    if vol.data.dtype != np.float64:
        raise ValueError("the time DFT takes real traces; these samples are complex")
    n = vol.dims[vol.axis_index("t")]
    return _transform(np.fft.rfft, vol, "t", "f", out, n // 2 + 1)


def idft_freq_axis(vol: Volume, nt: int, out: np.ndarray | None = None) -> Volume:
    """Unitary inverse DFT along the frequency axis; exact inverse of
    :func:`dft_time_axis`, and written into the float64 buffer ``out`` as
    it is.

    ``vol`` holds the half spectrum of real traces of ``nt`` samples, bins
    0 to nt//2, and the volume returned is real (``irfft``): the imaginary
    parts of bin 0 and, for an even ``nt``, of bin nt/2 do not reach it.
    """
    n = vol.dims[vol.axis_index("f")]
    if n != nt // 2 + 1:
        raise ValueError(f"{n} bins are not the half spectrum of {nt} samples")
    return _transform(np.fft.irfft, vol, "f", "t", out, nt, n=nt)


def freq_values_hz(n: int, dt: float) -> np.ndarray:
    """Physical frequency of each bin that :func:`dft_time_axis` gives an
    n-sample record at step dt: 0 Hz to Nyquist."""
    return np.fft.rfftfreq(n, d=dt)
