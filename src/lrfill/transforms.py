"""Matricizations of 4-d monochromatic tensors and the masked measurement
operator built on top of them.

A monochromatic slice lives on the acquisition grid ``(rx, ry, sx, sy)``.
Two unfoldings into a matrix are supported; both index maps are zero-based
with the fastest-varying index first, and they are frozen here because the
whole test-suite depends on them:

    srcpair   row = rx + ry * n_rx      col = sx + sy * n_sx
    recsrcx   row = ry + sy * n_ry      col = rx + sx * n_rx

"srcpair" puts receivers on rows and sources on columns, so removing a
source empties a whole column.  "recsrcx" mixes source and receiver indices
across rows and columns, which is what gives coherent data a fast-decaying
singular spectrum while scattering the missing entries.

The measurement operator folds a factor-domain matrix back onto the
acquisition grid and masks it: ``measure(Z) = mask * fold(Z)``.  Its data
live on the mask's own grid, the 4-d tensor for a volume mask and the
matrix for a 2-d one.  Because folding is a pure permutation and the mask a
coordinate projection, the operator norm is at most 1, with equality
whenever the mask is nonempty.

Since the operator is a permutation followed by a coordinate mask, it is
fully described by where each observed entry sits in the factor domain.
``MeasurementOp`` computes that index map once; the solvers run on its
``packed`` form, whose data domain is the vector of observed entries: a
gather forward, a scatter adjoint, and a transposed view of the same index
map for the R-factor subproblem.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .sampling import SamplingMask
from .volume import AxisLayoutError, FrequencySlice

MODE_SRC_PAIR = "srcpair"
MODE_REC_SRC_X = "recsrcx"
MODES = (MODE_SRC_PAIR, MODE_REC_SRC_X)


@dataclass(frozen=True)
class Matricization:
    """Unfolding of an ``(n_rx, n_ry, n_sx, n_sy)`` tensor into a matrix."""

    mode: str
    n_rx: int
    n_ry: int
    n_sx: int
    n_sy: int

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        for e in self.extents:
            if e < 1:
                raise ValueError("all extents must be positive")

    @property
    def extents(self) -> tuple:
        return (self.n_rx, self.n_ry, self.n_sx, self.n_sy)

    @property
    def shape(self) -> tuple:
        """(rows, cols) of the unfolded matrix."""
        if self.mode == MODE_SRC_PAIR:
            return (self.n_rx * self.n_ry, self.n_sx * self.n_sy)
        return (self.n_ry * self.n_sy, self.n_rx * self.n_sx)

    def unfold(self, tensor: np.ndarray) -> np.ndarray:
        tensor = np.asarray(tensor)
        if tensor.shape != self.extents:
            raise AxisLayoutError(
                f"tensor shape {tensor.shape} does not match extents {self.extents}"
            )
        if self.mode == MODE_SRC_PAIR:
            # (ry, rx, sy, sx) in C order makes rx/sx the fast indices.
            return tensor.transpose(1, 0, 3, 2).reshape(self.shape)
        return tensor.transpose(3, 1, 2, 0).reshape(self.shape)

    def fold(self, matrix: np.ndarray) -> np.ndarray:
        matrix = np.asarray(matrix)
        if matrix.shape != self.shape:
            raise AxisLayoutError(
                f"matrix shape {matrix.shape} does not match unfolding {self.shape}"
            )
        if self.mode == MODE_SRC_PAIR:
            interim = matrix.reshape(self.n_ry, self.n_rx, self.n_sy, self.n_sx)
            return interim.transpose(1, 0, 3, 2)
        interim = matrix.reshape(self.n_sy, self.n_ry, self.n_sx, self.n_rx)
        return interim.transpose(3, 1, 2, 0)


def apply_sampling(mask: SamplingMask, data: np.ndarray) -> np.ndarray:
    """Zero every entry outside the observed set of data shaped like the
    mask's grid.  Idempotent, self-adjoint."""
    data = np.asarray(data)
    if data.shape != mask.grid.shape:
        raise ValueError(f"data shape {data.shape} != mask shape {mask.grid.shape}")
    return np.where(mask.grid, data, 0)


class MeasurementOp:
    """Sampling-plus-transform operator from factor domain to data domain.

    ``forward`` maps a factor-domain matrix (the chosen unfolding, shape
    ``factor_shape``) to the masked data on the mask's grid (shape
    ``data_shape``, equal to ``mask.grid.shape``); ``adjoint`` is its exact
    adjoint.  With no matricization (2-d masks), the transform is the
    identity and the operator is the bare coordinate projection.

    Both directions move only the observed entries, through two index
    arrays computed once here: ``data_index`` holds the flat grid index of
    each observed entry and ``factor_index`` the flat factor-domain index
    of the same entry, in the same order.  ``packed`` is the same operator
    with the zeros left out of the data domain; the solvers run on it and
    on its ``transposed()`` view.
    """

    def __init__(self, mask: SamplingMask, matricization: Matricization | None = None):
        self.matricization = matricization
        self.observed = mask.grid
        self.data_shape = mask.grid.shape
        if matricization is None:
            if mask.grid.ndim != 2:
                raise ValueError("a 4-d mask requires a matricization")
            self.factor_shape = mask.grid.shape
        else:
            if mask.grid.ndim != 4 or mask.grid.shape != matricization.extents:
                raise ValueError(
                    f"mask grid {mask.grid.shape} does not match "
                    f"matricization extents {matricization.extents}"
                )
            self.factor_shape = matricization.shape
        # Observed entries in factor order: sorted factor indices keep the
        # solvers' gathers and scatters sequential in memory.
        self.factor_index = np.flatnonzero(self.from_acquisition(self.observed))
        if matricization is None:
            self.data_index = self.factor_index
        else:
            positions = np.arange(self.observed.size).reshape(self.data_shape)
            self.data_index = self.from_acquisition(positions).ravel()[self.factor_index]
        self.packed = PackedOp(self.factor_index, self.factor_shape, matricization)

    def to_acquisition(self, Z: np.ndarray) -> np.ndarray:
        """Transform only (no masking): fold a factor-domain matrix onto
        the acquisition grid."""
        Z = np.asarray(Z)
        if Z.shape != self.factor_shape:
            raise ValueError(f"expected factor shape {self.factor_shape}, got {Z.shape}")
        if self.matricization is None:
            return Z
        return self.matricization.fold(Z)

    def from_acquisition(self, W: np.ndarray) -> np.ndarray:
        """Transform only: unfold data on the acquisition grid into the
        factor domain."""
        W = np.asarray(W)
        if W.shape != self.data_shape:
            raise ValueError(f"expected data shape {self.data_shape}, got {W.shape}")
        if self.matricization is None:
            return W
        return self.matricization.unfold(W)

    def pack(self, W: np.ndarray) -> np.ndarray:
        """The observed entries of data on the grid, in the order of
        ``packed``'s data vectors."""
        W = np.asarray(W)
        if W.shape != self.data_shape:
            raise ValueError(f"expected data shape {self.data_shape}, got {W.shape}")
        return W.take(self.data_index)

    def forward(self, Z: np.ndarray) -> np.ndarray:
        Z = np.asarray(Z)
        if Z.shape != self.factor_shape:
            raise ValueError(f"expected factor shape {self.factor_shape}, got {Z.shape}")
        return _scatter(Z.take(self.factor_index), self.data_index, self.data_shape)

    def adjoint(self, W: np.ndarray) -> np.ndarray:
        return _scatter(self.pack(W), self.factor_index, self.factor_shape)


def _scatter(values: np.ndarray, index: np.ndarray, shape: tuple) -> np.ndarray:
    """Zero array of ``shape`` holding ``values`` at the flat ``index``."""
    out = np.zeros(shape, dtype=np.result_type(values, 0))
    out.reshape(-1)[index] = values
    return out


class PackedOp:
    """Measurement operator whose data domain is the observed entries only.

    ``forward`` gathers the observed entries of a factor-domain matrix into
    a vector of length |Omega| (``data_shape``); ``adjoint`` scatters such
    a vector into a zero ``factor_shape`` matrix.  ``index`` holds the flat
    factor-domain position of each observed entry.  Data vectors come from
    :meth:`MeasurementOp.pack`.  ``row_patterns`` and ``transposed()`` are
    computed on first use and kept, so a run that builds the operator once
    pays for them once.
    """

    def __init__(self, index: np.ndarray, factor_shape: tuple,
                 matricization: Matricization | None):
        self.index = index
        self.factor_shape = factor_shape
        self.data_shape = (index.size,)
        self.matricization = matricization

    def forward(self, Z: np.ndarray) -> np.ndarray:
        Z = np.asarray(Z)
        if Z.shape != self.factor_shape:
            raise ValueError(f"expected factor shape {self.factor_shape}, got {Z.shape}")
        return Z.take(self.index)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y)
        if y.shape != self.data_shape:
            raise ValueError(f"expected data shape {self.data_shape}, got {y.shape}")
        return _scatter(y, self.index, self.factor_shape)

    @cached_property
    def row_patterns(self) -> tuple:
        """``(patterns, inverse)``: the distinct rows of the boolean
        factor-domain mask, one per set of observed columns, and for each
        row the index of its pattern, so ``patterns[inverse]`` is the mask.

        Removing a source removes it from every receiver, so a source mask
        has few patterns however many rows it has; the factor solve
        diagonalizes one Gram matrix per pattern.  Solver threads share
        the cache; two that race to fill it compute the same value.
        """
        mask = self.adjoint(np.ones(self.data_shape)) != 0
        patterns, inverse = np.unique(mask, axis=0, return_inverse=True)
        # numpy 2.0.0 returns the inverse with an extra axis.
        return patterns, inverse.reshape(-1)

    @cached_property
    def _transpose(self) -> "PackedTranspose":
        return PackedTranspose(self)

    def transposed(self) -> "PackedTranspose":
        """View of the operator acting on conjugate-transposed arguments.

        Solving the R-factor subproblem reuses the L-factor solver through
        this view: ||A(L R^H) - b|| equals ||T(R L^H) - conj(b)||.
        """
        return self._transpose


class PackedTranspose(PackedOp):
    """The packed operator on ``(q, p)`` matrices ``R L^H``, the conjugate
    transpose of the factor-domain product; its data vectors are the
    conjugated packed data.

    Entry (i, j) of the ``(p, q)`` factor domain sits at (j, i) here, so
    the view is the same gather and scatter at index ``j * p + i``.
    """

    def __init__(self, base: PackedOp):
        p, q = base.factor_shape
        i, j = np.divmod(base.index, q)
        super().__init__(j * p + i, (q, p), base.matricization)
        self.base = base

    def transposed(self) -> PackedOp:
        return self.base


def singular_decay(slice_or_matrix) -> np.ndarray:
    """Singular values sorted descending and normalized by the largest.

    Dense SVD; diagnostics only, never called from solver paths.
    """
    if isinstance(slice_or_matrix, FrequencySlice):
        X = slice_or_matrix.data
    else:
        X = np.asarray(slice_or_matrix)
    if X.ndim != 2 or X.size == 0:
        raise ValueError("singular_decay expects a nonempty matrix")
    s = np.linalg.svd(X, compute_uv=False)
    if s[0] > 0:
        s = s / s[0]
    return s
