"""The solver of one convex factor subproblem.

With the other factor R held fixed, the subproblem is

    min_L  1/2 ||L||_F^2   s.t.  ||A(L R^H) - b||_F <= eta.

The paper solves it with a primal-dual splitting; that scheme is kept as a
test reference, :func:`lrfill.oracles.solve_factor_pd`.  :func:`solve_factor`
solves it directly instead.  The measurement operator is a permutation
followed by a coordinate mask, so with the multiplier of the constraint
fixed the problem splits into one r x r system per row of L, and the
multiplier that meets eta is the root of a scalar secular equation.  A
row's system depends on the row only through its set of observed columns,
so the solve costs one r x r eigendecomposition per distinct sampling
pattern and a few dozen vector operations, where the splitting takes
hundreds to thousands of iterations.

The solver needs of the operator only ``forward``, ``adjoint``,
``factor_shape``, ``data_shape`` and ``row_patterns``.  The alternating
loop hands it ``MeasurementOp.packed``, whose data are vectors over the
observed entries, and that operator's transposed view for the R-factor
subproblem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Floor for norms used as divisors; the other solver modules import it.
_TINY = 1e-300
# Eigenvalues of a row's Gram matrix below this fraction of the row's
# largest are rounding noise, and the multiplier bracket is closed once its
# ends agree to this relative tolerance.
_EIG_FLOOR = 1e-12
_LAM_RTOL = 1e-12


@dataclass
class FactorPair:
    """Low-rank factors L (p x r) and R (q x r)."""

    L: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        L = np.asarray(self.L, dtype=np.complex128)
        R = np.asarray(self.R, dtype=np.complex128)
        if L.ndim != 2 or R.ndim != 2 or L.shape[1] != R.shape[1]:
            raise ValueError(f"incompatible factor shapes {L.shape}, {R.shape}")
        if not 1 <= L.shape[1] <= min(L.shape[0], R.shape[0]):
            raise ValueError(f"rank {L.shape[1]} out of range for {L.shape}, {R.shape}")
        if not (np.isfinite(L).all() and np.isfinite(R).all()):
            raise ValueError("factors contain non-finite values")
        self.L, self.R = L, R

    @property
    def rank(self) -> int:
        return self.L.shape[1]

    def product(self) -> np.ndarray:
        return self.L @ self.R.conj().T


@dataclass
class DualState:
    """Data-domain dual variable and the residual it certifies."""

    y: np.ndarray
    residual: np.ndarray


@dataclass
class PdConfig:
    """Settings of the factor solvers.

    ``max_iters`` caps the root-find steps of :func:`solve_factor` and the
    iterations of the reference :func:`lrfill.oracles.solve_factor_pd`.
    ``primal_tol`` is read only by ``solve_factor_pd``, as its stopping test
    on the relative primal change.  ``feas_tol`` bounds the feasibility
    overshoot in ``solve_factor_pd``'s stopping test and in the alternating
    loop's outer stop.
    """

    max_iters: int = 500
    primal_tol: float = 1e-5
    feas_tol: float = 1e-4

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        # NaN fails the comparison too.
        for name in ("primal_tol", "feas_tol"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be a number >= 0")


@dataclass
class FactorSolveInfo:
    """What a factor solve did: its iteration count, the norm of its final
    residual A(L R^H) - b, and whether it stopped by its own test."""

    iterations: int
    residual_norm: float
    converged: bool


def _row_grams(mask, R):
    """The stack H_i = sum_j mask_ij R_j^H R_j, one r x r matrix per row i
    of the boolean ``mask``.

    Column c of every H_i is ``mask @ (conj(R) * R[:, c])``, taken as one
    real product on the interleaved real and imaginary parts.
    """
    mask = mask.astype(np.float64)
    r = R.shape[1]
    H = np.empty((mask.shape[0], r, r), dtype=np.complex128)
    for c in range(r):
        H[:, :, c] = (mask @ (R.conj() * R[:, c:c + 1]).view(np.float64)).view(np.complex128)
    return H


def solve_factor(op, b, R, eta, cfg: PdConfig | None = None):
    """Solve the factor subproblem exactly; returns (L, DualState, FactorSolveInfo).

    Parameters
    ----------
    op : measurement operator (forward/adjoint/factor_shape/data_shape)
    b : observed data, shape ``op.data_shape``
    R : the held-fixed factor (q x r); must be finite and nonzero
    eta : residual budget, >= 0

    The operator is a permutation followed by a coordinate mask, so for a
    multiplier lam >= 0 the optimality condition
    ``L + lam A*(A(L R^H) - b) R = 0`` splits into one r x r system per row:

        L_i (I + lam H_i) = lam g_i,   H_i = sum_{j in Omega_i} R_j^H R_j,

    with ``g = A*(b) R`` and R_j the j-th row of R.  H_i depends on row i
    only through Omega_i, so one batched ``eigh`` of the stack over the
    distinct patterns of ``op.row_patterns`` gives every row its
    H_i = V_i diag(w_i) V_i^H through the pattern index.  That turns the
    squared residual into the secular function

        psi(lam) = ||b||^2 - sum_ik |d_ik|^2 lam (2 + lam w_ik) / (1 + lam w_ik)^2,

    d_i = g_i V_i, which decreases in lam from ||b||^2 towards the squared
    least-squares residual rho^2.  Newton steps on 1/sqrt(psi - rho^2),
    which is concave in lam and hence reached from the left, each followed
    by a probe twice as far, shrink a bracket around psi(lam) = eta^2
    until its ends agree to ``_LAM_RTOL``; the feasible end is returned,
    L_i = lam d_i diag(1 / (1 + lam w_i)) V_i^H, with dual y = lam times
    the residual.  No SVD of a data-sized matrix is taken.

    ``iterations`` counts root-find steps, capped by ``cfg.max_iters``.
    ``eta >= ||b||`` gives L = 0.  When eta < rho, the subproblem is
    infeasible: the result is the minimum-norm least-squares limit
    lam -> inf, in which eigenvalues below ``_EIG_FLOOR`` of their row's
    largest count as zero, with a zero dual and ``converged=False``.
    """
    cfg = cfg or PdConfig()
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    b = np.asarray(b, dtype=np.complex128)
    if b.shape != op.data_shape:
        raise ValueError(f"b has shape {b.shape}, operator expects {op.data_shape}")
    R = np.asarray(R, dtype=np.complex128)
    if R.size == 0 or not np.isfinite(R).all() or not np.linalg.norm(R) > 0:
        raise ValueError("the fixed factor must be finite and nonzero")
    p, q = op.factor_shape
    r = R.shape[1]
    b_norm = float(np.linalg.norm(b))

    def result(L, lam, iters, converged):
        residual = op.forward(L @ R.conj().T) - b
        info = FactorSolveInfo(iterations=iters, residual_norm=float(np.linalg.norm(residual)),
                               converged=converged)
        return L, DualState(y=lam * residual, residual=residual), info

    if eta >= b_norm:
        # Zero is feasible and has the least norm.
        return result(np.zeros((p, r), dtype=np.complex128), 0.0, 0, True)

    # One Gram matrix per sampling pattern is diagonalized.  The root-find
    # needs of the rows only the per-pattern totals of |d_ik|^2, so it works
    # on (patterns, r) arrays; the rows take their pattern's V to form d and
    # the solution.  With r^2 <= q the expanded (p, r, r) stack holds no
    # more entries than the p x q slice.
    patterns, inverse = op.row_patterns
    w, V = np.linalg.eigh(_row_grams(patterns, R))
    V = V[inverse]
    d = ((op.adjoint(b) @ R)[:, None, :] @ V)[:, 0, :]
    # Directions with eigenvalues at rounding level are unobserved: the data
    # carry no energy there, and dropping them bounds the secular function.
    keep = w > _EIG_FLOOR * np.maximum(w[:, -1:], 0.0)
    w = np.where(keep, w, 1.0)
    n_patterns = w.shape[0]
    d_sq = np.bincount((inverse[:, None] * r + np.arange(r)).ravel(),
                       weights=(np.abs(d) ** 2).ravel(),
                       minlength=n_patterns * r).reshape(n_patterns, r)
    c2 = np.where(keep, d_sq / w, 0.0)   # fitted energy per pattern and direction
    rho_sq = max(b_norm**2 - float(c2.sum()), 0.0)

    def factor(scale):
        # Rows (d_i * scale_i) V_i^H, formed as conj(V_i conj(d_i * scale_i)),
        # with each row's scale that of its pattern.
        coef = np.where(keep[inverse], d * scale[inverse], 0.0).conj()
        return (V @ coef[:, :, None])[:, :, 0].conj()

    delta_sq = eta * eta - rho_sq
    if delta_sq <= 0.0:
        return result(factor(1.0 / w), 0.0, 0, False)

    def excess(lam):
        # psi(lam) - rho^2 and its derivative in lam, summed by pattern
        t = 1.0 / (1.0 + lam * w)
        c2t2 = c2 * t * t
        return float(c2t2.sum()), -2.0 * float((c2t2 * w * t).sum())

    # excess(lam) <= excess(0) / (1 + lam min w)^2, so psi <= eta^2 at
    # hi = (sqrt(excess(0)) / delta - 1) / min w, with delta^2 = eta^2 - rho^2.
    s_lo, ds_lo = excess(0.0)
    lo = 0.0
    hi = (np.sqrt(s_lo / delta_sq) - 1.0) / float(w[keep].min())
    iters = 0
    while hi - lo > _LAM_RTOL * hi and iters < cfg.max_iters:
        iters += 1
        # Newton step on 1/sqrt(excess) - 1/delta from lo; it cannot
        # overshoot.  Near the root rounding can shrink it to nothing, so
        # it moves at least half the bracket tolerance.
        step = 2.0 * s_lo * (np.sqrt(s_lo / delta_sq) - 1.0) / -ds_lo
        step = max(step, 0.5 * _LAM_RTOL * lo)
        for lam in (lo + step, lo + 2.0 * step):
            if not lo < lam < hi:
                lam = 0.5 * (lo + hi)
            s, ds = excess(lam)
            if s > delta_sq:
                lo, s_lo, ds_lo = lam, s, ds
            else:
                hi = lam
                break
    converged = bool(hi - lo <= _LAM_RTOL * hi)
    return result(factor(hi / (1.0 + hi * w)), hi, iters, converged)
