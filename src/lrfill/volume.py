"""Axis-labeled dense complex volumes and the time/frequency transform pair.

A volume is a dense complex array whose axes carry labels from
``{t, f, rx, ry, sx, sy}`` (time, frequency, two receiver axes, two source
axes).  Labeling the axes instead of relying on positional conventions is
what keeps the later matricization steps honest: every reshape is done by
name, never by assumed order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

AXIS_LABELS = ("t", "f", "rx", "ry", "sx", "sy")
AXIS_CODES = {label: code for code, label in enumerate(AXIS_LABELS)}
SPATIAL_AXES = ("rx", "ry", "sx", "sy")


class AxisLayoutError(ValueError):
    """The axes of a volume do not match what an operation requires."""


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
        memory with an array that someone else can still write.
    """

    axes: tuple
    data: np.ndarray

    def __post_init__(self):
        axes = tuple(self.axes)
        for label in axes:
            if label not in AXIS_CODES:
                raise AxisLayoutError(f"unknown axis label {label!r}")
        if len(set(axes)) != len(axes):
            raise AxisLayoutError(f"duplicate axis labels in {axes}")
        if ("t" in axes) == ("f" in axes):
            raise AxisLayoutError("exactly one of axes 't' and 'f' is required")
        arr = self.data
        if not (type(arr) is np.ndarray and arr.flags.owndata
                and arr.dtype == np.complex128 and arr.flags.c_contiguous):
            arr = np.array(arr, dtype=np.complex128, order="C", copy=True)
        if arr.ndim != len(axes):
            raise AxisLayoutError(
                f"data has {arr.ndim} dimensions but {len(axes)} axes declared"
            )
        if arr.size and not np.isfinite(arr).all():
            raise ValueError("volume contains non-finite values")
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


def dft_time_axis(vol: ComplexVolume) -> ComplexVolume:
    """Unitary forward DFT along the time axis; relabels ``t`` to ``f``.

    Unitary (1/sqrt(N) both ways) normalization keeps Frobenius norms
    identical in both domains, so residual thresholds are comparable no
    matter which side they are measured on.
    """
    k = vol.axis_index("t")
    spec = np.fft.fft(vol.data, axis=k, norm="ortho")
    axes = tuple("f" if a == "t" else a for a in vol.axes)
    return ComplexVolume(axes, spec)


def idft_freq_axis(vol: ComplexVolume) -> ComplexVolume:
    """Unitary inverse DFT along the frequency axis; exact inverse of
    :func:`dft_time_axis`."""
    k = vol.axis_index("f")
    series = np.fft.ifft(vol.data, axis=k, norm="ortho")
    axes = tuple("t" if a == "f" else a for a in vol.axes)
    return ComplexVolume(axes, series)


def freq_values_hz(n: int, dt: float) -> np.ndarray:
    """Physical frequency of each DFT bin for an n-sample record at step dt."""
    return np.fft.fftfreq(n, d=dt)
