"""Outer alternating loop: relax the residual budget geometrically while
trading R- and L-factor subproblems, each solved exactly by
:func:`~lrfill.pdsolver.solve_factor` (one r x r eigendecomposition per
distinct sampling pattern and a root-find on the multiplier)."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .pdsolver import _TINY, FactorPair, PdConfig, solve_factor
from .reporting import SliceReport


@dataclass
class OuterConfig:
    """Configuration of one slice interpolation.

    ``rank``, at least 1, is the rank of the factors, cut to the slice's
    smaller side.  ``eta_target`` is the slice's residual budget, an
    absolute norm: a run passes ``eta_fraction * ||b||`` of its slice.
    ``outer_tol`` bounds the relative change of the product at which the
    outer loop stops.
    """

    rank: int
    eta_target: float
    alpha: float = 0.1
    outer_iters: int = 15
    outer_tol: float = 1e-4
    seed: int = 0
    pd: PdConfig = field(default_factory=PdConfig)

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.outer_iters < 1:
            raise ValueError("outer_iters must be at least 1")
        if not (np.isfinite(self.eta_target) and self.eta_target >= 0.0):
            raise ValueError("eta_target must be a finite number >= 0")
        if not self.outer_tol >= 0.0:  # NaN fails it too
            raise ValueError("outer_tol must be >= 0")


def eta_schedule(eta_prev: float, alpha: float, eta_target: float) -> float:
    """Next residual budget: the previous one decayed by the fixed ratio
    alpha, never below the target."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if eta_prev < eta_target:
        raise ValueError("eta_prev must not be below eta_target")
    return max(alpha * eta_prev, eta_target)


def init_factors(p: int, q: int, r: int, seed: int = 0) -> FactorPair:
    """Complex Gaussian factors with E|entry|^2 = 1/r.

    Entries have standard complex Gaussian law (real and imaginary parts
    each N(0, 1/2)) scaled by 1/sqrt(r), so ||L R^H|| stays O(sqrt(p*q))
    independent of the nominal rank.
    """
    if not 1 <= r <= min(p, q):
        raise ValueError(f"rank {r} out of range for {p} x {q}")
    rng = np.random.default_rng(seed)
    scale = np.sqrt(0.5 / r)
    L = scale * (rng.standard_normal((p, r)) + 1j * rng.standard_normal((p, r)))
    R = scale * (rng.standard_normal((q, r)) + 1j * rng.standard_normal((q, r)))
    return FactorPair(L, R)


def zero_completion(p: int, q: int, r: int, b_norm: float, eta: float, t_start: float):
    """``(FactorPair, X, SliceReport)`` of a p x q slice whose budget
    ``eta`` is at least ||b|| = ``b_norm``: zero rank-``r`` factors and a
    zero X, already feasible and of least norm, reported ``ok`` after no
    iterations and timed from ``t_start``."""
    pair = FactorPair(np.zeros((p, r)), np.zeros((q, r)))
    report = SliceReport(rank=r, eta_target=eta, rel_residual=b_norm / max(b_norm, _TINY),
                         outer_iters=0, inner_iters=0,
                         wall_s=time.perf_counter() - t_start, status="ok")
    return pair, np.zeros((p, q), dtype=np.complex128), report


def interpolate_slice(op, b, cfg: OuterConfig):
    """Complete one slice from its masked measurements ``b``, shaped like
    the mask's grid (``op.data_shape``), within the residual budget
    ``cfg.eta_target``, an absolute norm.

    Runs the outer loop: tighten eta, solve for R with L fixed, then for L
    with R fixed, each subproblem exactly, then equalize the factor norms;
    stop at ``outer_iters`` or once the product settles inside the budget.
    Both solves and the residual run on ``op.packed`` and its transposed
    view, so the data are vectors over the observed entries.  The report's
    ``inner_iters`` counts the multiplier root-find steps of both solves.
    ``cfg.pd.max_iters`` caps those steps per solve, and ``cfg.pd.feas_tol``
    is the outer stop's tolerance on the budget.  Returns
    ``(FactorPair, X, SliceReport)`` with X = L R^H in the factor domain;
    ``op.to_acquisition(X)`` folds it back onto the acquisition grid.
    """
    t_start = time.perf_counter()
    b = np.asarray(b, dtype=np.complex128)
    p, q = op.factor_shape
    r = min(cfg.rank, p, q)
    b_norm = float(np.linalg.norm(b))
    eta_target = cfg.eta_target

    if eta_target >= b_norm:
        return zero_completion(p, q, r, b_norm, eta_target, t_start)

    pair = init_factors(p, q, r, cfg.seed)
    L, R = pair.L, pair.R
    A = op.packed
    A_T = A.transposed()
    b_obs = op.pack(b)
    b_obs_T = b_obs.conj()

    eta_k = b_norm
    X_prev = L @ R.conj().T
    total_inner = 0
    resid = float("nan")
    history = []
    outer_done = 0
    for k in range(cfg.outer_iters):
        eta_k = eta_schedule(eta_k, cfg.alpha, eta_target)
        try:
            R, _, info_R = solve_factor(A_T, b_obs_T, L, eta_k, cfg.pd)
            L, _, info_L = solve_factor(A, b_obs, R, eta_k, cfg.pd)
        except ValueError as exc:
            raise RuntimeError(
                f"inner solve failed at outer iteration {k} (eta={eta_k:.3e}): {exc}"
            ) from exc
        # Equalize the factor norms.  Each exact solve scales inversely with
        # its fixed factor, so no product changes; the factors keep one scale
        # and the recorded objective is the least over rescalings.
        norm_L = float(np.linalg.norm(L))
        norm_R = float(np.linalg.norm(R))
        if norm_L > 0 and norm_R > 0:
            s = np.sqrt(norm_L / norm_R)
            L, R = L / s, R * s
        X = L @ R.conj().T
        resid = float(np.linalg.norm(A.forward(X) - b_obs))
        change = float(np.linalg.norm(X - X_prev)) / max(float(np.linalg.norm(X_prev)), _TINY)
        X_prev = X
        total_inner += info_R.iterations + info_L.iterations
        outer_done = k + 1
        history.append({
            "outer": k,
            "eta": eta_k,
            "residual": resid,
            "inner_R": info_R.iterations,
            "inner_L": info_L.iterations,
            "objective": 0.5 * (np.linalg.norm(L) ** 2 + np.linalg.norm(R) ** 2),
        })
        gap = max(resid - eta_target, 0.0) / max(b_norm, _TINY)
        if gap < cfg.pd.feas_tol and change < cfg.outer_tol:
            break

    report = SliceReport(
        rank=r,
        eta_target=eta_target,
        rel_residual=resid / max(b_norm, _TINY),
        outer_iters=outer_done,
        inner_iters=total_inner,
        wall_s=time.perf_counter() - t_start,
        status="ok",
        history=history,
    )
    return FactorPair(L, R), X_prev, report
