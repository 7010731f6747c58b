"""Axis-labeled dense complex volumes and the time/frequency transform pair.

A volume is a dense complex array whose axes carry labels from
``{t, f, rx, ry, sx, sy}`` (time, frequency, two receiver axes, two source
axes).  Labeling the axes instead of relying on positional conventions is
what keeps the later matricization steps honest: every reshape is done by
name, never by assumed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

AXIS_LABELS = ("t", "f", "rx", "ry", "sx", "sy")
AXIS_CODES = {label: code for code, label in enumerate(AXIS_LABELS)}
SPATIAL_AXES = ("rx", "ry", "sx", "sy")
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


@dataclass(frozen=True)
class ComplexVolume:
    """Dense complex N-d array with named axes.

    Parameters
    ----------
    axes : tuple of str
        Axis labels, one per array dimension, drawn from ``AXIS_LABELS``.
        Labels must be unique and exactly one of ``t``/``f`` must appear.
    data : ndarray
        Complex values, frozen (read-only) so volumes can be shared across
        threads.  The volume takes ownership of an array that owns its
        memory, is complex128 and is C-contiguous: that array is frozen in
        place, not copied, so whoever hands it over gives up writing to it.
        Any other array (a view, another dtype or layout) is copied into
        a new C-contiguous complex128 array first, so a volume never shares
        memory with an array that someone else can still write, unless it
        is made by :meth:`over`.  Values are checked by
        :func:`check_finite`.
    """

    axes: tuple
    data: np.ndarray

    def __post_init__(self):
        arr = self.data
        if not (type(arr) is np.ndarray and arr.flags.owndata
                and arr.dtype == np.complex128 and arr.flags.c_contiguous):
            arr = np.array(arr, dtype=np.complex128, order="C", copy=True)
        self._take(arr)
        check_finite(arr)

    @classmethod
    def over(cls, axes, data: np.ndarray) -> "ComplexVolume":
        """A volume whose data is a read-only view of ``data``, a
        C-contiguous complex128 array that the caller keeps writing: a block
        buffer used again for the next block.  Its axes are checked as any
        volume's are, but ``data`` is neither copied nor frozen, so its
        values change when the caller writes ``data`` again; the caller must
        be done with it first.  Its values are not checked: the caller
        checks a buffer with :func:`check_finite` where its samples enter
        and where they leave, not after every stage.
        """
        if not (type(data) is np.ndarray and data.dtype == np.complex128
                and data.flags.c_contiguous):
            raise ValueError("a volume over a buffer needs C-contiguous complex128 data")
        vol = object.__new__(cls)
        object.__setattr__(vol, "axes", axes)
        vol._take(data.view())
        return vol

    def _take(self, arr: np.ndarray):
        """Check the axes and the dimensions of ``arr`` and make them the
        volume's, with ``arr`` frozen."""
        axes = tuple(self.axes)
        check_axis_labels(axes)
        if ("t" in axes) == ("f" in axes):
            raise AxisLayoutError("exactly one of axes 't' and 'f' is required")
        if arr.ndim != len(axes):
            raise AxisLayoutError(
                f"data has {arr.ndim} dimensions but {len(axes)} axes declared"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "data", arr)

    @property
    def dims(self):
        return self.data.shape

    def axis_index(self, label: str) -> int:
        try:
            return self.axes.index(label)
        except ValueError:
            raise AxisLayoutError(f"volume has no {label!r} axis") from None

    def has_axis(self, label: str) -> bool:
        return label in self.axes

    def norm(self) -> float:
        """Frobenius norm of the full volume."""
        return float(np.linalg.norm(self.data))

    def reordered(self, axes) -> "ComplexVolume":
        """Return a volume with the same content, axes permuted to `axes`;
        the volume itself when they are already in that order."""
        axes = tuple(axes)
        if axes == self.axes:
            return self
        if set(axes) != set(self.axes):
            raise AxisLayoutError(f"cannot reorder {self.axes} to {axes}")
        perm = [self.axes.index(a) for a in axes]
        return ComplexVolume(axes, np.transpose(self.data, perm))


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
    """Raise ``ValueError`` if complex128 ``data`` holds a NaN or an
    infinity.  Its real and imaginary parts are checked as floats, which is
    faster than a complex check, ``_CHECK_FLOATS`` at a time, so that the
    mask of each step stays small."""
    flat = data.reshape(-1).view(np.float64)
    for i in range(0, flat.size, _CHECK_FLOATS):
        if not np.isfinite(flat[i:i + _CHECK_FLOATS]).all():
            raise ValueError("volume contains non-finite values")


def buffer_view(buffer: np.ndarray, shape) -> np.ndarray:
    """The leading elements of ``buffer``, a writable C-contiguous complex128
    array, as an array of ``shape`` over the same memory: a buffer sized
    for the largest block holds each block in its first elements."""
    if not (buffer.dtype == np.complex128 and buffer.flags.c_contiguous
            and buffer.flags.writeable):
        raise ValueError("a buffer must be a writable C-contiguous complex128 array")
    count = math.prod(shape)
    if buffer.size < count:
        raise ValueError(f"a buffer of {buffer.size} elements cannot hold {tuple(shape)}")
    return buffer.reshape(-1)[:count].reshape(shape)


def _transform(fft, vol: ComplexVolume, src: str, dst: str, out) -> ComplexVolume:
    """Unitary ``fft`` along axis ``src`` of ``vol``, relabeled ``dst``; into
    the leading elements of the buffer ``out`` unless it is ``None``."""
    k = vol.axis_index(src)
    axes = tuple(dst if a == src else a for a in vol.axes)
    if out is None:
        return ComplexVolume(axes, fft(vol.data, axis=k, norm="ortho"))
    dest = buffer_view(out, vol.dims)
    return ComplexVolume.over(axes, fft(vol.data, axis=k, norm="ortho", out=dest))


def dft_time_axis(vol: ComplexVolume, out: np.ndarray | None = None) -> ComplexVolume:
    """Unitary forward DFT along the time axis; relabels ``t`` to ``f``.

    Unitary (1/sqrt(N) both ways) normalization keeps Frobenius norms
    identical in both domains, so residual thresholds are comparable no
    matter which side they are measured on.

    With ``out``, a buffer as for :func:`buffer_view`, the spectrum is
    written into its leading elements, which may be the ones that hold
    ``vol`` (the DFT is then taken in place, with the same result), and
    the volume returned lies over them (:meth:`ComplexVolume.over`),
    unchecked: a DFT of finite samples can overflow, so the caller checks
    the spectrum.
    """
    return _transform(np.fft.fft, vol, "t", "f", out)


def idft_freq_axis(vol: ComplexVolume, out: np.ndarray | None = None) -> ComplexVolume:
    """Unitary inverse DFT along the frequency axis; exact inverse of
    :func:`dft_time_axis`, and written into ``out`` as it is."""
    return _transform(np.fft.ifft, vol, "f", "t", out)


def freq_values_hz(n: int, dt: float) -> np.ndarray:
    """Physical frequency of each DFT bin for an n-sample record at step dt."""
    return np.fft.fftfreq(n, d=dt)
