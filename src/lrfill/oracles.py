"""Small-instance reference solvers, used by the test-suite only.

None of it is reachable from the CLI or the pipeline.  The solvers act as
independent ground truth for the code paths that are:

* :func:`solve_nn_reference` computes the convex nuclear-norm completion
  (full matrix variable, singular-value thresholding inside a primal-dual
  loop) to a tight objective tolerance.
* :func:`solve_factor_reference` solves one factor subproblem by projected
  gradient, with the exact projection onto the residual ball computed in a
  dense SVD basis via bisection on the scalar Lagrange multiplier.
* :func:`solve_factor_pd` solves the same subproblem by the paper's
  primal-dual splitting, matrix-free.

The first two run dense SVDs and are restricted to desk-scale matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .pdsolver import _TINY, DualState, FactorSolveInfo, PdConfig

# solve_factor_pd: the constant c < 1 of the step size gamma = c / ||R||_op.
_STEP_C = 0.99


@dataclass
class PdSolveInfo(FactorSolveInfo):
    """What :func:`solve_factor_pd` did: a factor solve's record plus its
    step size ``gamma`` and the residual norm after each iteration."""

    gamma: float
    residual_history: list = field(default_factory=list, repr=False)


class OracleConvergenceError(RuntimeError):
    """Reference solver ran out of iterations: test infrastructure error."""


class OracleInfeasibleError(RuntimeError):
    """The residual constraint cannot be met within the operator range."""


def nuclear_norm(X) -> float:
    """Sum of singular values (dense SVD)."""
    return float(np.linalg.svd(np.asarray(X), compute_uv=False).sum())


def _svt(X, threshold):
    """Singular-value soft threshold; returns (matrix, thresholded values)."""
    U, s, Vh = np.linalg.svd(X, full_matrices=False)
    s_shr = np.maximum(s - threshold, 0.0)
    return (U * s_shr) @ Vh, s_shr


def _grid_of(mask):
    grid = mask if isinstance(mask, np.ndarray) else mask.grid
    if grid.ndim != 2:
        raise ValueError("reference completion expects a 2-d mask")
    return grid.astype(bool)


def solve_nn_reference(mask, b, eta, tol=1e-8, feas_tol=1e-6, max_iters=60000):
    """Minimum-nuclear-norm matrix fitting the observed entries to eta.

    Over-relaxed primal-dual iteration with full-matrix singular-value
    thresholding as the primal proximal map and a shifted block shrink as
    the dual one.  Stops when the windowed relative objective change falls
    below ``tol`` and the constraint overshoot below ``feas_tol``; raises
    :class:`OracleConvergenceError` at the iteration cap.
    """
    omega = _grid_of(mask)
    b = np.where(omega, np.asarray(b, dtype=np.complex128), 0)
    b_norm = float(np.linalg.norm(b))
    if eta == 0.0 and omega.all():
        return b.copy()

    step = 0.99  # both step sizes; admissible since the projection has norm 1
    rho = 1.8  # relaxation, valid in (0, 2)
    X = b.copy()
    y = np.zeros_like(b)
    objs = []
    window = 20
    for k in range(max_iters):
        X_half, s = _svt(X - step * np.where(omega, y, 0), step)
        w = y + step * np.where(omega, 2.0 * X_half - X, 0) - step * b
        nw = float(np.linalg.norm(w))
        shrink = max(1.0 - step * eta / nw, 0.0) if nw > 0 else 0.0
        y_half = shrink * w
        X = X + rho * (X_half - X)
        y = y + rho * (y_half - y)
        obj = float(s.sum())
        objs.append(obj)
        if len(objs) > window:
            drift = abs(objs[-1] - objs[-1 - window]) / window
            resid = float(np.linalg.norm(np.where(omega, X_half, 0) - b))
            gap = max(resid - eta, 0.0) / max(b_norm, _TINY)
            if drift <= tol * max(obj, _TINY) and gap <= feas_tol:
                return X_half
    raise OracleConvergenceError(
        f"nuclear-norm reference did not converge in {max_iters} iterations"
    )


def _lifted_matrix(op, R):
    """Dense matrix of L -> A(L R^H) acting on vec(L); desk scale only."""
    p = op.factor_shape[0]
    r = R.shape[1]
    Rh = R.conj().T
    M = np.zeros((math.prod(op.data_shape), p * r), dtype=np.complex128)
    E = np.zeros((p, r), dtype=np.complex128)
    for j in range(p * r):
        E.flat[j] = 1.0
        M[:, j] = op.forward(E @ Rh).ravel()
        E.flat[j] = 0.0
    return M


def _project_residual_ball(z, U, s, Vh, c, rho_sq, eta):
    """Projection of z onto {x : ||M x - b|| <= eta} in the SVD basis of M.

    With M = U diag(s) V^H and c = U^H b, the KKT system is diagonal:
    w(lam) = (V^H z + lam s c) / (1 + lam s^2); bisection drives the
    residual psi(lam) = ||s w - c||^2 + rho^2 down to eta^2.
    """
    eta_sq = eta * eta
    if rho_sq > eta_sq * (1 + 1e-12) + 1e-30:
        raise OracleInfeasibleError(
            f"constraint unreachable: off-range energy {np.sqrt(rho_sq):.3e} > eta"
        )
    zt = Vh @ z
    perp = z - Vh.conj().T @ zt

    def psi(lam):
        w = (zt + lam * s * c) / (1.0 + lam * s * s)
        return float(np.linalg.norm(s * w - c)) ** 2 + rho_sq

    if psi(0.0) <= eta_sq * (1 + 1e-14):
        return z
    lo, hi = 0.0, 1.0
    for _ in range(200):
        if psi(hi) <= eta_sq:
            break
        lo, hi = hi, hi * 2.0
    else:
        raise OracleConvergenceError("multiplier bisection failed to bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if psi(mid) > eta_sq:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    w = (zt + hi * s * c) / (1.0 + hi * s * s)
    return Vh.conj().T @ w + perp


def solve_factor_reference(op, b, R, eta, tol=1e-8, max_iters=200, step=0.9):
    """Projected-gradient reference for min 1/2||L||^2 over the residual
    ball; the projection is exact, so convergence is a fast contraction."""
    R = np.asarray(R, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    p = op.factor_shape[0]
    r = R.shape[1]
    M = _lifted_matrix(op, R)
    U, s, Vh = np.linalg.svd(M, full_matrices=False)
    bv = b.ravel()
    c = U.conj().T @ bv
    rho_sq = max(float(np.linalg.norm(bv)) ** 2 - float(np.linalg.norm(c)) ** 2, 0.0)

    x = np.zeros(p * r, dtype=np.complex128)
    for _ in range(max_iters):
        x_new = _project_residual_ball((1.0 - step) * x, U, s, Vh, c, rho_sq, eta)
        delta = float(np.linalg.norm(x_new - x))
        x = x_new
        if delta <= tol * max(1.0, float(np.linalg.norm(x))):
            return x.reshape(p, r)
    raise OracleConvergenceError(
        f"factor reference did not converge in {max_iters} iterations"
    )


def op_norm(R: np.ndarray) -> float:
    """Largest singular value of R by power iteration on the r x r Gram
    matrix R^H R, to relative tolerance 1e-12 or 1000 steps.  Deterministic:
    the start vector is drawn from a fixed seed."""
    R = np.asarray(R)
    if R.size == 0 or not np.linalg.norm(R) > 0:
        raise ValueError("operator norm of a zero matrix: step size undefined")
    gram = R.conj().T @ R
    r = gram.shape[0]
    rng = np.random.default_rng(0)
    v = rng.standard_normal(r) + 1j * rng.standard_normal(r)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(1000):
        w = gram @ v
        lam_new = float(np.linalg.norm(w))
        if lam_new <= 0:
            # v landed in the null space; restart once from a fresh vector.
            v = rng.standard_normal(r) + 1j * rng.standard_normal(r)
            v /= np.linalg.norm(v)
            continue
        v = w / lam_new
        if abs(lam_new - lam) <= 1e-12 * lam_new:
            lam = lam_new
            break
        lam = lam_new
    if lam <= 0:
        # Entries so small that the Gram matrix underflows to zero.
        raise ValueError("operator norm of a numerically zero matrix")
    return float(np.sqrt(lam))


def _shrink(y_plus, threshold):
    """Block soft threshold: y+ scaled by max(1 - threshold/||y+||, 0); a
    zero y+ returns zero outright (the formula would divide by it)."""
    ny = float(np.linalg.norm(y_plus))
    if ny == 0.0:
        return np.zeros_like(y_plus)
    scale = max(1.0 - threshold / ny, 0.0)
    return scale * y_plus


def solve_factor_pd(op, b, R, eta, cfg: PdConfig | None = None, warm=None):
    """Solve the factor subproblem by the paper's primal-dual splitting;
    returns (L, DualState, PdSolveInfo), as
    :func:`lrfill.pdsolver.solve_factor` returns (L, DualState, FactorSolveInfo).

    The saddle-point form is  min_L max_y 1/2||L||^2 + <A~L - b, y> - eta||y||,
    where A~ : L -> A(L R^H) is the lifted linear operator.  Each iteration
    is one proximal step on L (a scalar shrink) and one on y (a block soft
    threshold toward the origin), using a single step size

        gamma = c / ||R||_op,   c = 0.99,

    which is admissible because the measurement operator is nonexpansive,
    so ||A~||_op <= ||R||_op.  Only operator applications and matrix
    products are used; no SVDs, no projections.

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
    gamma = _STEP_C / op_norm(R)
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

    info = PdSolveInfo(iterations=iters, residual_norm=resid, converged=converged,
                       gamma=gamma, residual_history=history)
    return L, DualState(y=y, residual=AL - b), info
