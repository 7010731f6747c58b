import numpy as np
import pytest

from lrfill.oracles import _shrink, op_norm, solve_factor_pd, solve_factor_reference
from lrfill.pdsolver import FactorPair, PdConfig, solve_factor
from lrfill.sampling import SamplingMask, jittered_volume_mask, uniform_entry_mask
from lrfill.transforms import MODE_REC_SRC_X, MODE_SRC_PAIR, Matricization, MeasurementOp


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


@pytest.fixture
def small_problem():
    rng = np.random.default_rng(100)
    p, q, r = 14, 11, 3
    mask = uniform_entry_mask(p, q, 0.6, seed=4)
    op = MeasurementOp(mask)
    R = crandn(rng, q, r)
    L_true = crandn(rng, p, r)
    b = op.forward(L_true @ R.conj().T)
    return op, b, R, rng


class _DenseConjTranspose:
    """Dense reference for the R-subproblem: the operator acting on
    conjugate-transposed arguments, ||A(L R^H) - b|| = ||T(R L^H) - b^H||."""

    def __init__(self, op):
        self.op = op
        self.factor_shape = op.factor_shape[::-1]
        self.data_shape = op.data_shape[::-1]

    def forward(self, V):
        return self.op.forward(V.conj().T).conj().T

    def adjoint(self, W):
        return self.op.adjoint(W.conj().T).conj().T


class TestFactorPair:
    def test_valid(self):
        pair = FactorPair(np.ones((5, 2)), np.ones((4, 2)))
        assert pair.rank == 2
        assert pair.product().shape == (5, 4)

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            FactorPair(np.ones((5, 6)), np.ones((4, 6)))  # r > min(p, q)
        with pytest.raises(ValueError):
            FactorPair(np.ones((5, 0)), np.ones((4, 0)))

    def test_nonfinite_rejected(self):
        L = np.ones((5, 2))
        L[0, 0] = np.inf
        with pytest.raises(ValueError):
            FactorPair(L, np.ones((4, 2)))


class TestOpNorm:
    def test_identity(self):
        assert op_norm(np.eye(4)) == pytest.approx(1.0, rel=1e-9)

    def test_diagonal(self):
        assert op_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-9)

    def test_matches_dense_svd(self):
        rng = np.random.default_rng(101)
        R = crandn(rng, 50, 5)
        dense = np.linalg.svd(R, compute_uv=False)[0]
        assert op_norm(R) == pytest.approx(dense, rel=1e-6)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            op_norm(np.zeros((4, 2)))

    def test_rank_one(self):
        rng = np.random.default_rng(102)
        u = crandn(rng, 7)
        v = crandn(rng, 3)
        R = np.outer(u, v)
        assert op_norm(R) == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v), rel=1e-9)


def _pd_step(op, b, R, eta, L0, y0):
    """One iteration of solve_factor_pd from (L0, y0): (L1, y1, gamma)."""
    cfg = PdConfig(max_iters=1, primal_tol=0.0, feas_tol=0.0)
    L1, dual, info = solve_factor_pd(op, b, R, eta, cfg, warm=(L0, y0))
    assert info.iterations == 1
    return L1, dual.y, info.gamma


class TestPrimalUpdate:
    """The proximal step on the factor inside solve_factor_pd:
    L1 = (L0 - gamma * A*(y0) R) / (1 + gamma)."""

    def test_zero_dual_is_pure_shrink(self, small_problem):
        op, b, R, rng = small_problem
        L = crandn(rng, op.factor_shape[0], R.shape[1])
        y = np.zeros(op.data_shape, dtype=complex)
        out, _, gamma = _pd_step(op, b, R, 0.1 * float(np.linalg.norm(b)), L, y)
        np.testing.assert_allclose(out, L / (1.0 + gamma), atol=1e-15)

    def test_zero_in_zero_out(self, small_problem):
        op, b, R, rng = small_problem
        L = np.zeros((op.factor_shape[0], R.shape[1]), dtype=complex)
        y = np.zeros(op.data_shape, dtype=complex)
        out, _, _ = _pd_step(op, b, R, 0.1 * float(np.linalg.norm(b)), L, y)
        assert np.all(out == 0)

    def test_matches_entrywise_quadratic_oracle(self, small_problem):
        # Oracle: per entry solve the 2x2 linear optimality system of
        # min 1/2|z|^2 + 1/(2 gamma) |z - v|^2 over (re, im).
        op, b, R, rng = small_problem
        L = crandn(rng, op.factor_shape[0], R.shape[1])
        y = crandn(rng, *op.data_shape)
        out, _, gamma = _pd_step(op, b, R, 0.1 * float(np.linalg.norm(b)), L, y)
        v = L - gamma * (op.adjoint(y) @ R)
        A = np.array([[1 + 1 / gamma, 0.0], [0.0, 1 + 1 / gamma]])
        for entry_v, entry_out in zip(v.ravel(), out.ravel()):
            ref = np.linalg.solve(A, np.array([entry_v.real, entry_v.imag]) / gamma)
            assert complex(ref[0], ref[1]) == pytest.approx(entry_out, abs=1e-12)

    def test_gamma_must_be_positive(self, small_problem):
        # gamma = c / ||R||_op with the constant c = 0.99 in (0, 1).
        op, b, R, rng = small_problem
        _, _, gamma = _pd_step(op, b, R, 0.0, np.zeros((op.factor_shape[0], R.shape[1])),
                               np.zeros(op.data_shape))
        assert gamma == pytest.approx(0.99 / op_norm(R), rel=1e-12)


class TestDualUpdate:
    """The dual step inside solve_factor_pd: the extrapolated residual step
    y+ = y0 + gamma * A((2 L1 - L0) R^H) - gamma * b, then the block soft
    threshold toward the origin by eta * gamma."""

    def test_full_shrink_to_zero(self, small_problem):
        op, b, R, rng = small_problem
        L = np.zeros((op.factor_shape[0], R.shape[1]), dtype=complex)
        y = np.zeros(op.data_shape, dtype=complex)
        # y+ = -gamma*b; with eta*gamma >= ||y+|| the output collapses to 0.
        eta = 2.0 * float(np.linalg.norm(b))
        _, out, _ = _pd_step(op, b, R, eta, L, y)
        assert np.all(out == 0)

    def test_eta_zero_keeps_y_plus(self, small_problem):
        op, b, R, rng = small_problem
        L_old = crandn(rng, op.factor_shape[0], R.shape[1])
        y = crandn(rng, *op.data_shape)
        L_new, out, gamma = _pd_step(op, b, R, 0.0, L_old, y)
        expected = y + gamma * op.forward((2 * L_new - L_old) @ R.conj().T) - gamma * b
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_hand_evaluated_shrink(self):
        # Scalar case: y+ = (3, 4), eta*gamma = 1, ||y+|| = 5 ->
        # scale max(1 - 1/5, 0) = 0.8 -> (2.4, 3.2).
        y_plus = np.array([[3.0], [4.0]], dtype=complex)
        np.testing.assert_allclose(_shrink(y_plus, 1.0), [[2.4], [3.2]], atol=1e-14)

    def test_shrink_never_grows(self, small_problem):
        op, b, R, rng = small_problem
        for _ in range(10):
            y = crandn(rng, *op.data_shape)
            L_old = crandn(rng, op.factor_shape[0], R.shape[1])
            L_new, out, gamma = _pd_step(op, b, R, 0.3, L_old, y)
            y_plus = y + gamma * op.forward((2 * L_new - L_old) @ R.conj().T) - gamma * b
            assert np.linalg.norm(out) <= np.linalg.norm(y_plus) + 1e-14

    def test_prox_firmly_nonexpansive(self):
        # The shrink map u -> max(1 - t/||u||, 0) u is a proximal operator,
        # hence nonexpansive.
        rng = np.random.default_rng(103)
        for _ in range(50):
            u = crandn(rng, 3, 2)
            v = crandn(rng, 3, 2)
            pu = _shrink(u, 0.9)
            pv = _shrink(v, 0.9)
            assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12


class TestSolveFactor:
    """The primal-dual splitting, ``oracles.solve_factor_pd``."""

    def test_zero_data_zero_eta(self, small_problem):
        op, _, R, rng = small_problem
        b0 = np.zeros(op.data_shape, dtype=complex)
        L, dual, info = solve_factor_pd(op, b0, R, 0.0)
        assert np.all(L == 0)
        assert info.converged

    def test_eta_above_data_norm_gives_zero(self, small_problem):
        op, b, R, rng = small_problem
        L, dual, info = solve_factor_pd(op, b, R, 1.5 * float(np.linalg.norm(b)))
        assert np.all(L == 0)
        assert info.converged
        assert info.residual_norm <= 1.5 * float(np.linalg.norm(b))

    def test_eta_above_data_norm_from_warm_start(self, small_problem):
        # Even from a nonzero warm start the iterate contracts to the exact
        # zero solution rather than stalling in the denormal range.
        op, b, R, rng = small_problem
        warm_L = crandn(rng, op.factor_shape[0], R.shape[1])
        cfg = PdConfig(max_iters=5000)
        L, dual, info = solve_factor_pd(op, b, R, 1.5 * float(np.linalg.norm(b)),
                                     cfg, warm=(warm_L, None))
        assert np.all(L == 0)
        assert info.converged

    def test_zero_fixed_factor_rejected(self, small_problem):
        op, b, R, rng = small_problem
        with pytest.raises(ValueError):
            solve_factor_pd(op, b, np.zeros_like(R), 0.1)

    def test_matches_projected_gradient_reference(self):
        # 20x15, r=3, full mask, random R, eta = 0.1 ||b||.
        rng = np.random.default_rng(104)
        p, q, r = 20, 15, 3
        mask = SamplingMask(np.ones((p, q), dtype=bool), axes=("rx", "sx"))
        op = MeasurementOp(mask)
        R = crandn(rng, q, r)
        b = op.forward(crandn(rng, p, r) @ R.conj().T)
        eta = 0.1 * float(np.linalg.norm(b))
        cfg = PdConfig(max_iters=20000, primal_tol=1e-10, feas_tol=1e-8)
        L, dual, info = solve_factor_pd(op, b, R, eta, cfg)
        L_ref = solve_factor_reference(op, b, R, eta)
        obj = 0.5 * np.linalg.norm(L) ** 2
        obj_ref = 0.5 * np.linalg.norm(L_ref) ** 2
        assert obj == pytest.approx(obj_ref, rel=1e-4)

    def test_kkt_fixed_point_and_slackness(self, small_problem):
        op, b, R, rng = small_problem
        eta = 0.1 * float(np.linalg.norm(b))
        cfg = PdConfig(max_iters=20000, primal_tol=1e-10, feas_tol=1e-8)
        L, dual, info = solve_factor_pd(op, b, R, eta, cfg)
        # Fixed point of the primal prox: L = -A*(y) R.
        kkt = np.linalg.norm(L + op.adjoint(dual.y) @ R)
        assert kkt <= 1e-3 * max(1.0, np.linalg.norm(L))
        # Complementary slackness: y aligned with the residual, or inactive.
        y_norm = np.linalg.norm(dual.y)
        res_norm = np.linalg.norm(dual.residual)
        if y_norm > 1e-8:
            align = np.real(np.vdot(dual.y, dual.residual))
            assert align >= (1 - 1e-3) * y_norm * res_norm
        else:
            assert res_norm <= eta * (1 + 1e-4)

    def test_feasibility_trend(self, small_problem):
        op, b, R, rng = small_problem
        eta = 0.05 * float(np.linalg.norm(b))
        cfg = PdConfig(max_iters=1000, primal_tol=0.0, feas_tol=0.0)  # run full budget
        L, dual, info = solve_factor_pd(op, b, R, eta, cfg)
        hist = info.residual_history
        gap = [max(h - eta, 0.0) for h in hist]
        assert gap[-1] <= gap[len(gap) // 10] + 1e-12

    def test_warm_start_roundtrip(self, small_problem):
        op, b, R, rng = small_problem
        eta = 0.1 * float(np.linalg.norm(b))
        L1, d1, i1 = solve_factor_pd(op, b, R, eta)
        L2, d2, i2 = solve_factor_pd(op, b, R, eta, warm=(L1, d1.y))
        assert i2.iterations <= i1.iterations

    def test_iteration_matches_standalone_updates(self, small_problem):
        # One solver sweep must reproduce the primal and dual steps written
        # out on their own.
        op, b, R, rng = small_problem
        eta = 0.2 * float(np.linalg.norm(b))
        L0 = crandn(rng, op.factor_shape[0], R.shape[1])
        y0 = crandn(rng, *op.data_shape)
        cfg = PdConfig(max_iters=1, primal_tol=0.0, feas_tol=0.0)
        L1, d1, _ = solve_factor_pd(op, b, R, eta, cfg, warm=(L0, y0))
        gamma = 0.99 / op_norm(R)
        L1_ref = (L0 - gamma * (op.adjoint(y0) @ R)) / (1.0 + gamma)
        y1_ref = _shrink(y0 + gamma * op.forward((2.0 * L1_ref - L0) @ R.conj().T)
                         - gamma * b, eta * gamma)
        np.testing.assert_allclose(L1, L1_ref, atol=1e-14)
        np.testing.assert_allclose(d1.y, y1_ref, atol=1e-14)

    def test_dual_supported_on_observed_set(self, small_problem):
        op, b, R, rng = small_problem
        eta = 0.1 * float(np.linalg.norm(b))
        L, dual, info = solve_factor_pd(op, b, R, eta)
        assert np.all(dual.y[~op.observed] == 0)

    @pytest.mark.parametrize("side", ["L", "R"])
    def test_packed_operator_matches_dense(self, side):
        # The solver is operator-agnostic: on the packed pair it must take
        # the same path as on the dense operator, to rounding.
        rng = np.random.default_rng(106)
        mask = jittered_volume_mask(4, 3, 4, 3, 0.5, seed=7)
        op = MeasurementOp(mask, Matricization(MODE_REC_SRC_X, 4, 3, 4, 3))
        p, q = op.factor_shape
        r = 3
        L, R = crandn(rng, p, r), crandn(rng, q, r)
        b = op.forward(L @ R.conj().T) + 0.05 * op.forward(crandn(rng, p, q))
        eta = 0.05 * float(np.linalg.norm(b))
        cfg = PdConfig(max_iters=400)
        if side == "L":
            dense = solve_factor_pd(op, b, R, eta, cfg)
            packed = solve_factor_pd(op.packed, op.pack(b), R, eta, cfg)
        else:
            dense = solve_factor_pd(_DenseConjTranspose(op), b.conj().T, L, eta, cfg)
            packed = solve_factor_pd(op.packed.transposed(), op.pack(b).conj(), L, eta, cfg)
        assert packed[2].iterations == dense[2].iterations
        assert np.linalg.norm(packed[0] - dense[0]) <= 1e-12 * np.linalg.norm(dense[0])


def _exact_side(op, b, L, R, side):
    """The packed operator, its data and the fixed factor for the L- or the
    R-subproblem, with a dense operator and data for the reference."""
    if side == "L":
        return op.packed, op.pack(b), R, op, b
    return op.packed.transposed(), op.pack(b).conj(), L, _DenseConjTranspose(op), b.conj().T


def _criterion_1_instance(rng, noise=0.0):
    """Shaped like acceptance criterion 1: 8-30 rows and columns, rank 1-5,
    40-100% of entries kept, eta between 5% and 30% of ||b||."""
    p, q = int(rng.integers(8, 31)), int(rng.integers(8, 31))
    r = int(rng.integers(1, 6))
    mask = uniform_entry_mask(p, q, float(rng.uniform(0.4, 1.0)),
                              seed=int(rng.integers(1 << 30)))
    op = MeasurementOp(mask)
    L, R = crandn(rng, p, r), crandn(rng, q, r)
    b = op.forward(L @ R.conj().T + noise * crandn(rng, p, q))
    eta = float(rng.uniform(0.05, 0.3)) * float(np.linalg.norm(b))
    return op, b, L, R, eta


def _per_row_factor(A, data, fixed, lam):
    """The factor subproblem's solution at the multiplier lam, solved row
    by row: L_i (I + lam H_i) = lam g_i, with H_i built from row i's own
    observed columns and g = A*(b) R."""
    observed = A.adjoint(np.ones(A.data_shape)) != 0
    g = A.adjoint(data) @ fixed
    eye = np.eye(fixed.shape[1])
    X = np.zeros_like(g)
    for i in range(X.shape[0]):
        F = fixed[observed[i]]
        X[i] = np.linalg.solve((eye + lam * F.conj().T @ F).T, lam * g[i])
    return X


def _criterion_8_op(mode):
    """The operator of acceptance criterion 8: 80% of an 8x8 source grid
    removed by jittered sampling, mask seed 75."""
    mask = jittered_volume_mask(10, 10, 8, 8, 0.2, seed=75)
    return MeasurementOp(mask, Matricization(mode, 10, 10, 8, 8))


class TestSolveFactorExact:
    """The exact row-wise solve, ``pdsolver.solve_factor``."""

    @pytest.mark.parametrize("side", ["L", "R"])
    def test_matches_reference_and_converged_pd(self, side):
        rng = np.random.default_rng(107)
        pd_cfg = PdConfig(max_iters=100000, primal_tol=1e-13, feas_tol=1e-12)
        for _ in range(5):
            op, b, L, R, eta = _criterion_1_instance(rng)
            A, data, fixed, dense, dense_b = _exact_side(op, b, L, R, side)
            X, dual, info = solve_factor(A, data, fixed, eta)
            ref = solve_factor_reference(dense, dense_b, fixed, eta, tol=1e-13,
                                         max_iters=5000)
            pd, _, _ = solve_factor_pd(A, data, fixed, eta, pd_cfg)
            assert info.converged
            assert np.linalg.norm(X - ref) <= 1e-9 * np.linalg.norm(ref)
            assert np.linalg.norm(X - pd) <= 1e-9 * np.linalg.norm(pd)
            # Stationarity with the returned dual: X = -A*(y) fixed.
            kkt = np.linalg.norm(X + A.adjoint(dual.y) @ fixed)
            assert kkt <= 1e-10 * np.linalg.norm(X)

    @pytest.mark.parametrize("side", ["L", "R"])
    @pytest.mark.parametrize("mode", [None, MODE_REC_SRC_X])
    def test_feasible_subproblem_meets_eta(self, side, mode):
        rng = np.random.default_rng(108)
        for _ in range(20):
            if mode is None:
                op, b, L, R, eta = _criterion_1_instance(rng, noise=0.02)
            else:
                mask = jittered_volume_mask(4, 3, 4, 3, 0.5, seed=int(rng.integers(1000)))
                op = MeasurementOp(mask, Matricization(mode, 4, 3, 4, 3))
                p, q = op.factor_shape
                L, R = crandn(rng, p, 3), crandn(rng, q, 3)
                b = op.forward(L @ R.conj().T + 0.02 * crandn(rng, p, q))
                eta = float(rng.uniform(0.05, 0.3)) * float(np.linalg.norm(b))
            A, data, fixed, _, _ = _exact_side(op, b, L, R, side)
            X, dual, info = solve_factor(A, data, fixed, eta)
            resid = np.linalg.norm(A.forward(X @ fixed.conj().T) - data)
            assert info.converged
            assert resid <= eta * (1 + 1e-12)
            assert info.residual_norm == pytest.approx(resid, rel=1e-12)
            # The constraint is active: the minimum-norm factor uses the
            # whole budget.
            assert resid >= eta * (1 - 1e-9)

    @pytest.mark.parametrize("side", ["L", "R"])
    def test_capped_root_find_returns_feasible_end(self, side):
        # Stopped before the bracket on the multiplier closes, the solve
        # still returns a feasible factor, from the bracket's feasible end.
        rng = np.random.default_rng(111)
        for _ in range(10):
            op, b, L, R, eta = _criterion_1_instance(rng, noise=0.02)
            A, data, fixed, _, _ = _exact_side(op, b, L, R, side)
            X, _, info = solve_factor(A, data, fixed, eta, PdConfig(max_iters=1))
            assert info.iterations == 1 and not info.converged
            assert info.residual_norm <= eta * (1 + 1e-12)

    @pytest.mark.parametrize("side", ["L", "R"])
    def test_eta_at_or_above_data_norm_gives_zero(self, side, small_problem):
        op, b, R, rng = small_problem
        L = crandn(rng, op.factor_shape[0], R.shape[1])
        A, data, fixed, _, _ = _exact_side(op, b, L, R, side)
        for scale in (1.0, 1.5):
            eta = scale * float(np.linalg.norm(data))
            X, dual, info = solve_factor(A, data, fixed, eta)
            assert X.shape == (A.factor_shape[0], fixed.shape[1])
            assert np.all(X == 0) and np.all(dual.y == 0)
            assert info.converged and info.iterations == 0

    @pytest.mark.parametrize("side", ["L", "R"])
    def test_infeasible_gives_least_squares_limit(self, side):
        # Rank-one factors cannot fit full-rank data to 1%.
        rng = np.random.default_rng(109)
        op = MeasurementOp(uniform_entry_mask(14, 11, 0.6, seed=5))
        L, R = crandn(rng, 14, 1), crandn(rng, 11, 1)
        b = op.forward(crandn(rng, 14, 11))
        A, data, fixed, _, _ = _exact_side(op, b, L, R, side)
        eta = 0.01 * float(np.linalg.norm(data))
        X, dual, info = solve_factor(A, data, fixed, eta)
        assert not info.converged
        assert np.isfinite(X).all()
        assert info.residual_norm > eta
        # Row by row, the minimum-norm least-squares fit of the observed
        # entries, from the dense factor-domain mask and data.
        observed = A.adjoint(np.ones(A.data_shape)) != 0
        B = A.adjoint(data)
        for i in range(X.shape[0]):
            cols = np.flatnonzero(observed[i])
            ls = np.linalg.lstsq(fixed[cols].conj(), B[i, cols], rcond=None)[0]
            np.testing.assert_allclose(X[i], ls, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("side", ["L", "R"])
    def test_rows_without_observations_stay_zero(self, side):
        rng = np.random.default_rng(110)
        grid = np.ones((9, 7), dtype=bool)
        grid[[0, 4], :] = False
        grid[:, 3] = False
        grid[5, 1] = False
        op = MeasurementOp(SamplingMask(grid, axes=("rx", "sx")))
        L, R = crandn(rng, 9, 2), crandn(rng, 7, 2)
        b = op.forward(L @ R.conj().T + 0.1 * crandn(rng, 9, 7))
        A, data, fixed, _, _ = _exact_side(op, b, L, R, side)
        empty = [0, 4] if side == "L" else [3]
        for eta in (0.05 * float(np.linalg.norm(data)), 0.0):
            X, _, _ = solve_factor(A, data, fixed, eta)
            assert np.all(X[empty] == 0)
            assert np.all(np.delete(X, empty, axis=0) != 0)

    @pytest.mark.parametrize("side", ["L", "R"])
    @pytest.mark.parametrize("mask", [MODE_REC_SRC_X, MODE_SRC_PAIR, "uniform"])
    def test_per_pattern_solve_equals_per_row_solve(self, side, mask):
        rng = np.random.default_rng(112)
        if mask == "uniform":
            op = MeasurementOp(uniform_entry_mask(30, 24, 0.5, seed=6))
        else:
            op = _criterion_8_op(mask)
        p, q = op.factor_shape
        L, R = crandn(rng, p, 3), crandn(rng, q, 3)
        b = op.forward(L @ R.conj().T + 0.05 * crandn(rng, p, q))
        A, data, fixed, _, _ = _exact_side(op, b, L, R, side)
        for eta in (0.3 * float(np.linalg.norm(data)), 0.1 * float(np.linalg.norm(data))):
            X, dual, info = solve_factor(A, data, fixed, eta)
            assert info.converged
            # The multiplier the solve found, from its dual y = lam * residual.
            lam = np.vdot(dual.residual, dual.y).real / np.vdot(dual.residual, dual.residual).real
            X_row = _per_row_factor(A, data, fixed, lam)
            assert np.linalg.norm(X - X_row) <= 1e-12 * np.linalg.norm(X_row)

    @pytest.mark.parametrize("side, patterns", [("L", 8), ("R", 7)])
    def test_one_eigendecomposition_per_pattern(self, side, patterns, monkeypatch):
        rng = np.random.default_rng(113)
        op = _criterion_8_op(MODE_REC_SRC_X)
        p, q = op.factor_shape
        L, R = crandn(rng, p, 8), crandn(rng, q, 8)
        b = op.forward(L @ R.conj().T)
        A, data, fixed, _, _ = _exact_side(op, b, L, R, side)
        batches = []
        eigh = np.linalg.eigh

        def counting_eigh(a):
            batches.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        solve_factor(A, data, fixed, 0.1 * float(np.linalg.norm(data)))
        assert batches == [(patterns, 8, 8)]

    @pytest.mark.parametrize("side", ["L", "R"])
    def test_zero_or_nonfinite_fixed_factor_rejected(self, side, small_problem):
        op, b, R, rng = small_problem
        L = crandn(rng, op.factor_shape[0], R.shape[1])
        A, data, fixed, _, _ = _exact_side(op, b, L, R, side)
        bad = fixed.copy()
        bad[0, 0] = np.nan
        for F in (np.zeros_like(fixed), bad):
            # Also when eta alone would make zero the answer.
            for eta in (0.1, 2.0 * float(np.linalg.norm(data))):
                with pytest.raises(ValueError):
                    solve_factor(A, data, F, eta)


def test_factorization_bound_and_balanced_equality():
    from lrfill.oracles import nuclear_norm

    rng = np.random.default_rng(105)
    for _ in range(100):
        p, q, r = 9, 7, 3
        L = crandn(rng, p, r)
        R = crandn(rng, q, r)
        bound = 0.5 * (np.linalg.norm(L) ** 2 + np.linalg.norm(R) ** 2)
        assert bound >= nuclear_norm(L @ R.conj().T) - 1e-10
    # Equality for the balanced factors of a dense SVD.
    X = crandn(rng, 9, 7)
    U, s, Vh = np.linalg.svd(X, full_matrices=False)
    Lb = U * np.sqrt(s)
    Rb = Vh.conj().T * np.sqrt(s)
    bound = 0.5 * (np.linalg.norm(Lb) ** 2 + np.linalg.norm(Rb) ** 2)
    assert bound == pytest.approx(nuclear_norm(X), rel=1e-10)


@pytest.mark.parametrize("key", ["primal_tol", "feas_tol"])
@pytest.mark.parametrize("value", [float("nan"), -1.0, -1e-12])
def test_tolerance_that_is_nan_or_negative_is_rejected(key, value):
    # With feas_tol NaN or below 0 the alternating loop's outer stop could
    # never hold, and the loop would run to its cap without a word.
    with pytest.raises(ValueError, match=key):
        PdConfig(**{key: value})
    PdConfig(**{key: 0.0})
