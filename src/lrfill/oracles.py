"""Small-instance reference solvers, used by the test-suite only.

Everything here runs dense SVDs and is restricted to desk-scale matrices;
none of it is reachable from the CLI or the pipeline.  The two solvers act
as independent ground truth for the matrix-free code paths:

* :func:`solve_nn_reference` computes the convex nuclear-norm completion
  (full matrix variable, singular-value thresholding inside a primal-dual
  loop) to a tight objective tolerance.
* :func:`solve_factor_reference` solves one factor subproblem by projected
  gradient, with the exact projection onto the residual ball computed in a
  dense SVD basis via bisection on the scalar Lagrange multiplier.
"""

from __future__ import annotations

import numpy as np

from .pdsolver import _TINY


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
    n, m = op.data_shape
    Rh = R.conj().T
    M = np.zeros((n * m, p * r), dtype=np.complex128)
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
