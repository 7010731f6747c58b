"""Level-set baseline: root-find the value function

    v(tau) = min { ||A(L R^H) - b||_F : ||L||_F^2 + ||R||_F^2 <= 2 tau }

for v(tau) = eta.  The value function is evaluated inexactly by projected
gradient on the squared residual with backtracking; the root search is a
secant iteration guarded by bisection so the bracket endpoints always
straddle eta.  This is a deliberately simplified comparator for the
alternating scheme, not a full level-set solver: no dual derivative of v is
computed, Newton steps are replaced by secants.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .altmin import init_factors, zero_completion
from .pdsolver import _TINY, FactorPair
from .reporting import SliceReport

# solve_levelset's bracket starts at tau = _TAU_START and doubles tau at
# most _MAX_DOUBLINGS times.  value_function halves a step at most
# _MAX_HALVINGS times and stops once one moves the factors by less than
# _MOVE_TOL relative to 1 + ||L|| + ||R||.
_TAU_START = 1.0
_MAX_DOUBLINGS = 60
_MAX_HALVINGS = 40
_MOVE_TOL = 1e-7


class RootBracketError(RuntimeError):
    """The value function never crossed eta within the expansion budget."""

    def __init__(self, message, taus=None, values=None):
        super().__init__(message)
        self.taus = list(taus or [])
        self.values = list(values or [])


@dataclass
class LevelSetConfig:
    """Settings of the level-set solver.

    ``root_tol`` is the root search's tolerance on |v(tau) - eta|, relative
    to ||b||, and ``max_root_iters`` caps its secant steps once the root is
    bracketed.  ``inner_iters`` caps the projected-gradient steps of each
    value-function evaluation, and ``seed`` draws its starting factors.
    """

    root_tol: float = 1e-4
    max_root_iters: int = 40
    inner_iters: int = 300
    seed: int = 0

    def __post_init__(self):
        if not self.root_tol > 0:  # NaN fails the comparison too
            raise ValueError("root_tol must be positive")
        if self.inner_iters < 1:
            raise ValueError("inner_iters must be at least 1")
        if self.max_root_iters < 0:
            raise ValueError("max_root_iters must be nonnegative")


def project_ball(L, R, tau):
    """Exact Euclidean projection of the stacked factors onto
    ||L||^2 + ||R||^2 <= 2 tau: rescale both when outside, else identity."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    sq = float(np.linalg.norm(L)) ** 2 + float(np.linalg.norm(R)) ** 2
    if sq <= 2.0 * tau:
        return L, R
    scale = np.sqrt(2.0 * tau / sq)
    return scale * L, scale * R


def value_function(op, b, tau, r, cfg: LevelSetConfig | None = None, warm=None):
    """Approximate v(tau); returns (v, (L, R), inner_iterations).

    Projected gradient on g(L, R) = 1/2 ||A(L R^H) - b||^2 with a
    backtracking line search; each step re-projects onto the factor ball.
    ``warm`` factors (from a nearby tau) are projected in and reused.
    ``op`` may be a ``MeasurementOp`` with its dense ``b``, or its
    ``packed`` operator with ``op.pack(b)``, which is what
    :func:`solve_levelset` passes.
    """
    cfg = cfg or LevelSetConfig()
    b = np.asarray(b, dtype=np.complex128)
    p, q = op.factor_shape
    if warm is not None:
        L, R = np.array(warm[0]), np.array(warm[1])
    else:
        pair = init_factors(p, q, r, cfg.seed)
        L, R = pair.L, pair.R
    L, R = project_ball(L, R, tau)

    res = op.forward(L @ R.conj().T) - b
    f = 0.5 * float(np.linalg.norm(res)) ** 2
    t = 1.0
    iters = 0
    for it in range(cfg.inner_iters):
        G = op.adjoint(res)
        gL = G @ R
        gR = G.conj().T @ L
        gnorm_sq = float(np.linalg.norm(gL)) ** 2 + float(np.linalg.norm(gR)) ** 2
        if gnorm_sq == 0.0:
            break
        accepted = False
        for _ in range(_MAX_HALVINGS):
            Lc, Rc = project_ball(L - t * gL, R - t * gR, tau)
            dL = Lc - L
            dR = Rc - R
            step_sq = float(np.linalg.norm(dL)) ** 2 + float(np.linalg.norm(dR)) ** 2
            res_c = op.forward(Lc @ Rc.conj().T) - b
            f_c = 0.5 * float(np.linalg.norm(res_c)) ** 2
            linear = float(np.real(np.vdot(gL, dL)) + np.real(np.vdot(gR, dR)))
            if f_c <= f + linear + step_sq / (2.0 * t) + 1e-15 * max(f, 1.0):
                accepted = True
                break
            t *= 0.5
        iters = it + 1
        if not accepted:
            break
        moved = np.sqrt(step_sq)
        L, R, res, f = Lc, Rc, res_c, f_c
        scale = 1.0 + float(np.linalg.norm(L)) + float(np.linalg.norm(R))
        if moved <= _MOVE_TOL * scale:
            break
        t *= 1.5

    v = float(np.linalg.norm(res))
    return v, (L, R), iters


def solve_levelset(op, b, eta, r, cfg: LevelSetConfig | None = None):
    """Root-find v(tau) = eta; returns (FactorPair, X, SliceReport).

    The bracket starts at tau=0 (where v = ||b|| exactly, no evaluation
    needed) and expands tau upward by doubling until v drops below eta;
    failure to bracket raises :class:`RootBracketError` with the tried
    points.  Each secant candidate is forced inside the current bracket,
    falling back to bisection, so the endpoints straddle eta throughout.
    """
    if r < 1:
        raise ValueError("rank must be at least 1")
    t_start = time.perf_counter()
    cfg = cfg or LevelSetConfig()
    b = np.asarray(b, dtype=np.complex128)
    p, q = op.factor_shape
    r = min(r, p, q)
    b_norm = float(np.linalg.norm(b))
    if eta >= b_norm:
        return zero_completion(p, q, r, b_norm, eta, t_start)

    A = op.packed
    b_obs = op.pack(b)
    tol_abs = cfg.root_tol * b_norm
    total_inner = 0
    tried_taus, tried_values = [], []

    def evaluate(tau, warm, retry=None, seed=None):
        """v(tau) and its factors from ``warm``; when ``retry(v)`` holds,
        evaluated again from a fresh draw of ``seed`` and the smaller value
        kept.  Counts the steps and records the point tried."""
        nonlocal total_inner
        v, warm, it = value_function(A, b_obs, tau, r, cfg, warm)
        total_inner += it
        if retry is not None and retry(v):
            v_fresh, warm_fresh, it2 = value_function(A, b_obs, tau, r,
                                                      replace(cfg, seed=seed))
            total_inner += it2
            if v_fresh < v:
                v, warm = v_fresh, warm_fresh
        tried_taus.append(tau)
        tried_values.append(v)
        return v, warm

    tau_lo, v_lo = 0.0, b_norm
    tau_hi = _TAU_START
    v_hi, warm = evaluate(tau_hi, None)
    expansions = 0
    while v_hi > eta:
        if expansions >= _MAX_DOUBLINGS:
            raise RootBracketError(
                f"v(tau) stayed above eta={eta:.3e} up to tau={tau_hi:.3e}",
                taus=tried_taus, values=tried_values)
        tau_lo, v_lo = tau_hi, v_hi
        tau_hi *= 2.0
        # Doubling tau without the value moving means the warm start is
        # parked at a spurious stationary point of the nonconvex inner
        # problem; retry from a fresh draw and keep the better of the two.
        v_hi, warm = evaluate(tau_hi, warm, lambda v: v > 0.95 * v_lo,
                              cfg.seed + expansions + 1)
        expansions += 1

    best_gap = abs(v_hi - eta)
    best = (warm[0].copy(), warm[1].copy(), v_hi)
    bracket_history = [(tau_lo, v_lo, tau_hi, v_hi)]

    # Secant on the bracket with the Illinois weighting: when the same
    # endpoint survives twice in a row, its stored value is pulled toward
    # eta, which stops the one-sided crawl that a flat v(tau) causes.  A
    # third consecutive one-sided update forces a plain bisection step, so
    # the bracket shrinks geometrically even across a near-vertical v.
    w_lo, w_hi = v_lo, v_hi
    last_side = 0
    side_repeats = 0
    for _ in range(cfg.max_root_iters):
        if best_gap <= tol_abs:
            break
        denom = w_hi - w_lo
        if denom != 0.0:
            tau_next = tau_lo + (eta - w_lo) * (tau_hi - tau_lo) / denom
        else:
            tau_next = 0.5 * (tau_lo + tau_hi)
        lo_guard = tau_lo + 0.01 * (tau_hi - tau_lo)
        hi_guard = tau_hi - 0.01 * (tau_hi - tau_lo)
        if side_repeats >= 2 or not lo_guard <= tau_next <= hi_guard:
            tau_next = 0.5 * (tau_lo + tau_hi)
        # The warm start may be hysteretic (stuck high, or dragged into an
        # overfit basin from a larger tau).  A fresh evaluation is an
        # independent upper bound on v(tau); keep the smaller.
        v_next, warm = evaluate(tau_next, warm, lambda v: abs(v - eta) > tol_abs,
                                cfg.seed + 7919 + len(tried_taus))
        if abs(v_next - eta) < best_gap:
            best_gap = abs(v_next - eta)
            best = (warm[0].copy(), warm[1].copy(), v_next)
        if v_next > eta:
            tau_lo, v_lo, w_lo = tau_next, v_next, v_next
            if last_side == 1:
                w_hi = 0.5 * (w_hi + eta)
            side_repeats = side_repeats + 1 if last_side == 1 else 0
            last_side = 1
        else:
            tau_hi, v_hi, w_hi = tau_next, v_next, v_next
            if last_side == -1:
                w_lo = 0.5 * (w_lo + eta)
            side_repeats = side_repeats + 1 if last_side == -1 else 0
            last_side = -1
        bracket_history.append((tau_lo, v_lo, tau_hi, v_hi))

    L, R, v_best = best
    X = L @ R.conj().T
    report = SliceReport(
        rank=r,
        eta_target=eta,
        rel_residual=v_best / max(b_norm, _TINY),
        outer_iters=len(tried_taus),
        inner_iters=total_inner,
        wall_s=time.perf_counter() - t_start,
        status="ok",
        history=bracket_history,
    )
    return FactorPair(L, R), X, report
