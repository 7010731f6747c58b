"""Synthetic inputs: planted low-rank slices and plane-event volumes.

Planted slices give exact quantitative ground truth (known factors, known
singular profile).  They are library fixtures, built in memory by the
tests and the benchmark: a frequency slice exists only inside a run, and
no command writes one.  Event volumes are what ``lrfill generate``
writes: float64 arrays of real traces, trace-major with time last, as
every volume in memory is.  They imitate seismic records: Ricker wavelets
arriving at a time that is linear in the per-axis source-receiver offset,

    t_arrival = t0 + px * |x_rx - x_sx| + py * |x_ry - x_sy|.

The offset dependence is what makes the construction useful as a
diagnostic: each event's monochromatic slice factors across the
(rx, sx) / (ry, sy) index pairs, so its ``recsrcx`` unfolding is exactly
rank one while its ``srcpair`` unfolding is a full-rank distance-like
matrix.  (An arrival time additive in the raw coordinates would be rank one
in every unfolding and could not separate the two modes.)
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .pdsolver import FactorPair
from .sampling import SamplingMask
from .transforms import apply_sampling
from .volume import FrequencySlice


@dataclass
class PlantSpec:
    p: int
    q: int
    rank: int
    profile: str = "flat"  # flat | geometric
    decay_ratio: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.rank <= min(self.p, self.q):
            raise ValueError("rank out of range")
        if self.profile not in ("flat", "geometric"):
            raise ValueError("profile must be 'flat' or 'geometric'")
        # NaN and inf fail the comparison too.
        if not 0.0 < self.decay_ratio <= 1.0:
            raise ValueError(f"decay_ratio must lie in (0, 1], got {self.decay_ratio}")


def _haar_columns(n, r, rng):
    """r orthonormal columns, Haar-distributed (QR with phase fix)."""
    A = (rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))) / np.sqrt(2)
    Q, Rm = np.linalg.qr(A)
    d = np.diagonal(Rm)
    return Q * (d / np.abs(d)).conj()


def plant_slice(spec: PlantSpec):
    """Planted slice X = U diag(sigma) V^H; returns (FrequencySlice,
    FactorPair) where the factors are the balanced split U s^1/2, V s^1/2."""
    rng = np.random.default_rng(spec.seed)
    U = _haar_columns(spec.p, spec.rank, rng)
    V = _haar_columns(spec.q, spec.rank, rng)
    if spec.profile == "flat":
        sigma = np.ones(spec.rank)
    else:
        sigma = spec.decay_ratio ** np.arange(spec.rank)
    X = (U * sigma) @ V.conj().T
    root = np.sqrt(sigma)
    pair = FactorPair(U * root, V * root)
    return FrequencySlice(spec.p, spec.q, X), pair


def observe_slice(X, mask: SamplingMask):
    """Masked observations b = P(X) of a slice X shaped like the mask's
    grid: X where the mask observes, zero elsewhere, as complex128."""
    return apply_sampling(mask, np.asarray(X, dtype=np.complex128))


def ricker(t, peak_hz: float):
    """Ricker wavelet with the given peak frequency."""
    a = (np.pi * peak_hz * np.asarray(t)) ** 2
    return (1.0 - 2.0 * a) * np.exp(-a)


@dataclass
class EventSpec:
    """Plane-event volume on a regular acquisition grid.

    Each event is (apex_time_s, slowness_x_s_per_m, slowness_y_s_per_m,
    amplitude).
    """

    n_rx: int
    n_ry: int
    n_sx: int
    n_sy: int
    spacing_m: float
    nt: int
    dt: float
    events: list = field(default_factory=list)
    wavelet_peak_hz: float = 20.0

    def __post_init__(self):
        if min(self.n_rx, self.n_ry, self.n_sx, self.n_sy, self.nt) < 1:
            raise ValueError("all extents must be positive")
        if not all(math.isfinite(x) and x > 0 for x in (self.spacing_m, self.dt)):
            raise ValueError("spacing_m and dt must be positive and finite")
        if not (math.isfinite(self.wavelet_peak_hz) and self.wavelet_peak_hz > 0):
            raise ValueError("wavelet_peak_hz must be positive and finite")
        for ev in self.events:
            if not 0 <= ev[0] <= self.nt * self.dt:
                raise ValueError(f"event apex {ev[0]} outside the record")
            if not all(map(math.isfinite, ev[1:])):
                raise ValueError(f"event {ev}: slownesses and amplitude must be finite")


def linear_events(spec: EventSpec) -> np.ndarray:
    """Time-domain volume of summed plane events: a float64 array of real
    traces, trace-major, of shape ``(n_rx, n_ry, n_sx, n_sy, nt)``.

    Arrivals whose wavelet support reaches past the record edges are
    clipped; a warning reports how many.
    """
    x_rx = np.arange(spec.n_rx) * spec.spacing_m
    x_ry = np.arange(spec.n_ry) * spec.spacing_m
    x_sx = np.arange(spec.n_sx) * spec.spacing_m
    x_sy = np.arange(spec.n_sy) * spec.spacing_m
    t = np.arange(spec.nt) * spec.dt
    out = np.zeros((spec.n_rx, spec.n_ry, spec.n_sx, spec.n_sy, spec.nt))
    half_width = 1.5 / spec.wavelet_peak_hz
    clipped = 0
    for t0, px, py, amp in spec.events:
        off_x = np.abs(x_rx[:, None, None, None] - x_sx[None, None, :, None])
        off_y = np.abs(x_ry[None, :, None, None] - x_sy[None, None, None, :])
        tau = t0 + px * off_x + py * off_y  # (n_rx, n_ry, n_sx, n_sy)
        clipped += int((tau < half_width).sum() + (tau > t[-1] - half_width).sum())
        out += amp * ricker(t - tau[..., None], spec.wavelet_peak_hz)
    if clipped:
        warnings.warn(f"{clipped} arrivals within {half_width:.3f}s of the record "
                      "edge; wavelets clipped", stacklevel=2)
    return out
