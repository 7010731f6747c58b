"""Observation masks: uniform random entries and jittered source removal."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volume import AXIS_CODES, check_axis_labels


@dataclass
class SamplingMask:
    """Boolean observation grid over labelled axes.

    The grid covers the acquisition axes: 4-d ``(rx, ry, sx, sy)`` for
    volume experiments, 2-d for bare-matrix instances.  A grid given with
    its axes in another order is transposed into the order of
    ``AXIS_LABELS``, so a mask means the same whatever order it comes in.
    """

    grid: np.ndarray
    axes: tuple = ()

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=bool)
        if grid.size == 0 or not grid.any():
            raise ValueError("mask observes no entries")
        axes = tuple(self.axes) if self.axes else _default_axes(grid.ndim)
        if len(axes) != grid.ndim:
            raise ValueError(f"{len(axes)} axis labels for {grid.ndim}-d grid")
        check_axis_labels(axes)
        order = sorted(range(grid.ndim), key=lambda i: AXIS_CODES[axes[i]])
        self.grid = np.ascontiguousarray(grid.transpose(order))
        self.axes = tuple(axes[i] for i in order)

    @property
    def num_observed(self) -> int:
        return int(self.grid.sum())


def _default_axes(ndim: int) -> tuple:
    if ndim == 1:
        return ("sx",)
    if ndim == 2:
        return ("rx", "sx")
    if ndim == 4:
        return ("rx", "ry", "sx", "sy")
    raise ValueError(f"no default axis labels for a {ndim}-d mask")


@dataclass(frozen=True)
class JitterSpec:
    """One-axis jittered decimation: keep one sample per bin of width
    round(1/keep_fraction), at a uniform random in-bin offset.

    Consecutive kept samples are then at least 1 and at most
    ``2*bin_width - 1`` grid steps apart.  A trailing partial bin keeps a
    sample only when the drawn offset happens to land inside it.
    """

    n: int
    keep_fraction: float
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("axis length must be positive")
        if not 0.0 < self.keep_fraction <= 1.0:
            raise ValueError("keep_fraction must lie in (0, 1]")

    @property
    def bin_width(self) -> int:
        return max(1, round(1.0 / self.keep_fraction))


def jittered_keep(spec: JitterSpec) -> np.ndarray:
    """Boolean keep-vector of length spec.n for one jittered axis."""
    w = spec.bin_width
    rng = np.random.default_rng(spec.seed)
    keep = np.zeros(spec.n, dtype=bool)
    if w >= spec.n:
        # Degenerate: the whole axis is one bin; always keep one sample so
        # the mask is never empty.
        keep[rng.integers(0, spec.n)] = True
        return keep
    for start in range(0, spec.n, w):
        offset = int(rng.integers(0, w))
        if start + offset < spec.n:
            keep[start + offset] = True
    return keep


def jittered_volume_mask(
    n_rx: int,
    n_ry: int,
    n_sx: int,
    n_sy: int,
    keep_fraction: float,
    seed: int = 0,
    axis: str = "sources",
    per_axis: bool = False,
) -> SamplingMask:
    """4-d acquisition mask with jittered removal of whole sources (or
    receivers).

    By default the jitter acts on the flattened source index
    ``sx + sy * n_sx``; with ``per_axis=True`` each source axis is jittered
    independently and the kept set is their outer product.
    """
    if axis not in ("sources", "receivers"):
        raise ValueError("axis must be 'sources' or 'receivers'")
    na, nb = (n_sx, n_sy) if axis == "sources" else (n_rx, n_ry)
    if per_axis:
        keep_a = jittered_keep(JitterSpec(na, keep_fraction, seed))
        keep_b = jittered_keep(JitterSpec(nb, keep_fraction, seed + 1))
        kept = np.outer(keep_a, keep_b)  # (a, b), a fastest in flat order
    else:
        flat = jittered_keep(JitterSpec(na * nb, keep_fraction, seed))
        kept = flat.reshape(nb, na).T  # flat index = a + b * na
    grid = np.zeros((n_rx, n_ry, n_sx, n_sy), dtype=bool)
    if axis == "sources":
        grid[:, :, kept] = True
    else:
        grid[kept] = True
    return SamplingMask(grid, axes=("rx", "ry", "sx", "sy"))


def uniform_entry_mask(p: int, q: int, keep_fraction: float, seed: int = 0) -> SamplingMask:
    """Keep exactly ``ceil(keep_fraction * p * q)`` entries of a p-by-q grid,
    sampled without replacement.  Fixed cardinality, deterministic per seed."""
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must lie in (0, 1]")
    total = p * q
    count = int(np.ceil(keep_fraction * total))
    rng = np.random.default_rng(seed)
    flat = rng.choice(total, size=count, replace=False)
    grid = np.zeros(total, dtype=bool)
    grid[flat] = True
    return SamplingMask(grid.reshape(p, q), axes=("rx", "sx"))
