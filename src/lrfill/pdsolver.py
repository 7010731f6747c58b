"""Primal-dual splitting solver for one convex factor subproblem.

With the other factor R held fixed, the subproblem is

    min_L  1/2 ||L||_F^2   s.t.  ||A(L R^H) - b||_F <= eta,

whose saddle-point form is  min_L max_y 1/2||L||^2 + <A~L - b, y> - eta||y||,
where A~ : L -> A(L R^H) is the lifted linear operator.  Each iteration is
one proximal step on L (a scalar shrink) and one on y (a block soft
threshold toward the origin), using a single step size

    gamma = c / ||R||_op,   c = 0.99,

which is admissible because the measurement operator is nonexpansive, so
||A~||_op <= ||R||_op.  Only operator applications and matrix products are
used; no SVDs, no projections.

The solver needs of the operator only ``forward``, ``adjoint``,
``factor_shape`` and ``data_shape``.  The alternating loop hands it
``MeasurementOp.packed``, whose data are vectors over the observed entries,
and that operator's transposed view for the R-factor subproblem.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Floor for norms used as divisors; the other solver modules import it.
_TINY = 1e-300


@dataclass
class FactorPair:
    """Low-rank factors L (p x r) and R (q x r)."""

    L: np.ndarray
    R: np.ndarray
    rank: int

    def __post_init__(self):
        L = np.asarray(self.L, dtype=np.complex128)
        R = np.asarray(self.R, dtype=np.complex128)
        if L.ndim != 2 or R.ndim != 2 or L.shape[1] != R.shape[1]:
            raise ValueError(f"incompatible factor shapes {L.shape}, {R.shape}")
        if not 1 <= self.rank <= min(L.shape[0], R.shape[0]):
            raise ValueError(f"rank {self.rank} out of range for {L.shape}, {R.shape}")
        if L.shape[1] != self.rank:
            raise ValueError(f"factors have {L.shape[1]} columns, rank says {self.rank}")
        if not (np.isfinite(L).all() and np.isfinite(R).all()):
            raise ValueError("factors contain non-finite values")
        self.L, self.R = L, R

    def product(self) -> np.ndarray:
        return self.L @ self.R.conj().T


@dataclass
class DualState:
    """Data-domain dual variable and the residual it certifies."""

    y: np.ndarray
    residual: np.ndarray


@dataclass
class PdConfig:
    max_iters: int = 500
    step_safety: float = 0.99
    primal_tol: float = 1e-5
    feas_tol: float = 1e-4
    power_tol: float = 1e-12
    power_maxiter: int = 1000

    def __post_init__(self):
        if not 0.0 < self.step_safety < 1.0:
            raise ValueError("step_safety must lie in (0, 1)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class FactorSolveInfo:
    iterations: int
    residual_norm: float
    objective: float
    feasibility_gap: float
    converged: bool
    gamma: float
    residual_history: list = field(default_factory=list, repr=False)


def op_norm(R: np.ndarray, tol: float = 1e-12, maxiter: int = 1000, seed: int = 0) -> float:
    """Largest singular value of R by power iteration on the r x r Gram
    matrix R^H R.  Deterministic for a fixed seed."""
    R = np.asarray(R)
    if R.size == 0 or not np.linalg.norm(R) > 0:
        raise ValueError("operator norm of a zero matrix: step size undefined")
    gram = R.conj().T @ R
    r = gram.shape[0]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(r) + 1j * rng.standard_normal(r)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(maxiter):
        w = gram @ v
        lam_new = float(np.linalg.norm(w))
        if lam_new <= 0:
            # v landed in the null space; restart once from a fresh vector.
            v = rng.standard_normal(r) + 1j * rng.standard_normal(r)
            v /= np.linalg.norm(v)
            continue
        v = w / lam_new
        if abs(lam_new - lam) <= tol * lam_new:
            lam = lam_new
            break
        lam = lam_new
    if lam <= 0:
        # Entries so small that the Gram matrix underflows to zero.
        raise ValueError("operator norm of a numerically zero matrix")
    return float(np.sqrt(lam))


def primal_update(L, y, gamma, R, op) -> np.ndarray:
    """Proximal step on the factor:  (L - gamma * A*(y) R) / (1 + gamma)."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    step = op.adjoint(y) @ R
    out = (L - gamma * step) / (1.0 + gamma)
    if not np.isfinite(out).all():
        raise ValueError("non-finite values in primal update")
    return out


def dual_update(y, L_new, L_old, gamma, eta, b, R, op) -> np.ndarray:
    """Extrapolated residual step followed by block soft thresholding.

    y+ = y + gamma * A((2 L_new - L_old) R^H) - gamma * b, then shrink
    toward the origin by max(1 - eta*gamma/||y+||, 0); the zero-norm case
    returns zero outright (the shrink formula would divide by it).
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    Rh = R.conj().T
    y_plus = y + gamma * op.forward((2.0 * L_new - L_old) @ Rh) - gamma * b
    return _shrink(y_plus, eta * gamma)


def _shrink(y_plus, threshold):
    ny = float(np.linalg.norm(y_plus))
    if ny == 0.0:
        return np.zeros_like(y_plus)
    scale = max(1.0 - threshold / ny, 0.0)
    return scale * y_plus


def solve_factor(op, b, R, eta, cfg: PdConfig | None = None, warm=None):
    """Solve the factor subproblem; returns (L, DualState, FactorSolveInfo).

    Parameters
    ----------
    op : measurement operator (forward/adjoint/factor_shape/data_shape)
    b : observed data, shape ``op.data_shape``
    R : the held-fixed factor (q x r); must be nonzero
    eta : residual budget, >= 0
    warm : optional (L0, y0) from a previous, nearby subproblem.  Cold
        starts use zeros for both.

    Stops after ``cfg.max_iters`` iterations or once the relative primal
    change drops below ``primal_tol`` while the feasibility overshoot
    max(||A(LR^H) - b|| - eta, 0) / ||b|| is below ``feas_tol``.
    """
    cfg = cfg or PdConfig()
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    b = np.asarray(b, dtype=np.complex128)
    if b.shape != op.data_shape:
        raise ValueError(f"b has shape {b.shape}, operator expects {op.data_shape}")
    R = np.asarray(R, dtype=np.complex128)
    sigma = op_norm(R, tol=cfg.power_tol, maxiter=cfg.power_maxiter)
    gamma = cfg.step_safety / sigma
    Rh = R.conj().T

    p = op.factor_shape[0]
    r = R.shape[1]
    if warm is not None and warm[0] is not None:
        L = np.array(warm[0], dtype=np.complex128)
    else:
        L = np.zeros((p, r), dtype=np.complex128)
    if warm is not None and warm[1] is not None:
        y = np.array(warm[1], dtype=np.complex128)
    else:
        y = np.zeros(op.data_shape, dtype=np.complex128)

    b_norm = float(np.linalg.norm(b))
    feas_scale = max(b_norm, _TINY)
    AL = op.forward(L @ Rh)
    history = []
    converged = False
    iters = 0
    resid = float(np.linalg.norm(AL - b))
    for k in range(cfg.max_iters):
        L_new = (L - gamma * (op.adjoint(y) @ R)) / (1.0 + gamma)
        if float(np.linalg.norm(L_new)) <= 1e-140:
            # The iterate is contracting to the zero solution (happens when
            # eta >= ||b|| keeps the dual at zero); snap it there instead of
            # grinding through hundreds more shrink iterations into
            # underflow.
            L_new = np.zeros_like(L_new)
        AL_new = op.forward(L_new @ Rh)
        y = _shrink(y + gamma * (2.0 * AL_new - AL) - gamma * b, eta * gamma)
        resid = float(np.linalg.norm(AL_new - b))
        gap = max(resid - eta, 0.0) / feas_scale
        change = float(np.linalg.norm(L_new - L)) / max(float(np.linalg.norm(L)), _TINY)
        history.append(resid)
        zero_fixed_point = not L_new.any() and not y.any()
        L, AL = L_new, AL_new
        iters = k + 1
        if (change < cfg.primal_tol or zero_fixed_point) and gap < cfg.feas_tol:
            converged = True
            break

    residual = AL - b
    info = FactorSolveInfo(
        iterations=iters,
        residual_norm=resid,
        objective=0.5 * float(np.linalg.norm(L)) ** 2,
        feasibility_gap=max(resid - eta, 0.0) / feas_scale,
        converged=converged,
        gamma=gamma,
        residual_history=history,
    )
    return L, DualState(y=y, residual=residual), info
