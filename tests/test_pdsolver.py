import numpy as np
import pytest

from lrfill.oracles import solve_factor_reference
from lrfill.pdsolver import (
    DualState,
    FactorPair,
    PdConfig,
    dual_update,
    op_norm,
    primal_update,
    solve_factor,
)
from lrfill.sampling import SamplingMask, jittered_volume_mask, uniform_entry_mask
from lrfill.transforms import MODE_REC_SRC_X, Matricization, MeasurementOp


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
        pair = FactorPair(np.ones((5, 2)), np.ones((4, 2)), 2)
        assert pair.product().shape == (5, 4)

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            FactorPair(np.ones((5, 6)), np.ones((4, 6)), 6)  # r > min(p, q)
        with pytest.raises(ValueError):
            FactorPair(np.ones((5, 2)), np.ones((4, 2)), 0)

    def test_nonfinite_rejected(self):
        L = np.ones((5, 2))
        L[0, 0] = np.inf
        with pytest.raises(ValueError):
            FactorPair(L, np.ones((4, 2)), 2)


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


class TestPrimalUpdate:
    def test_zero_dual_is_pure_shrink(self, small_problem):
        op, b, R, rng = small_problem
        L = crandn(rng, op.factor_shape[0], R.shape[1])
        y = np.zeros(op.data_shape, dtype=complex)
        out = primal_update(L, y, 1.0, R, op)
        np.testing.assert_allclose(out, L / 2.0, atol=1e-15)

    def test_zero_in_zero_out(self, small_problem):
        op, b, R, rng = small_problem
        L = np.zeros((op.factor_shape[0], R.shape[1]), dtype=complex)
        y = np.zeros(op.data_shape, dtype=complex)
        assert np.all(primal_update(L, y, 0.7, R, op) == 0)

    def test_matches_entrywise_quadratic_oracle(self, small_problem):
        # Oracle: per entry solve the 2x2 linear optimality system of
        # min 1/2|z|^2 + 1/(2 gamma) |z - v|^2 over (re, im).
        op, b, R, rng = small_problem
        gamma = 0.37
        L = crandn(rng, op.factor_shape[0], R.shape[1])
        y = crandn(rng, *op.data_shape)
        out = primal_update(L, y, gamma, R, op)
        v = L - gamma * (op.adjoint(y) @ R)
        A = np.array([[1 + 1 / gamma, 0.0], [0.0, 1 + 1 / gamma]])
        for entry_v, entry_out in zip(v.ravel(), out.ravel()):
            ref = np.linalg.solve(A, np.array([entry_v.real, entry_v.imag]) / gamma)
            assert complex(ref[0], ref[1]) == pytest.approx(entry_out, abs=1e-12)

    def test_gamma_must_be_positive(self, small_problem):
        op, b, R, rng = small_problem
        L = crandn(rng, op.factor_shape[0], R.shape[1])
        with pytest.raises(ValueError):
            primal_update(L, np.zeros(op.data_shape), 0.0, R, op)


class TestDualUpdate:
    def test_full_shrink_to_zero(self, small_problem):
        op, b, R, rng = small_problem
        L = np.zeros((op.factor_shape[0], R.shape[1]), dtype=complex)
        y = np.zeros(op.data_shape, dtype=complex)
        # y+ = -gamma*b; with eta*gamma >= ||y+|| the output collapses to 0.
        gamma = 1.0
        eta = 2.0 * float(np.linalg.norm(b))
        out = dual_update(y, L, L, gamma, eta, b, R, op)
        assert np.all(out == 0)

    def test_eta_zero_keeps_y_plus(self, small_problem):
        op, b, R, rng = small_problem
        L_new = crandn(rng, op.factor_shape[0], R.shape[1])
        L_old = crandn(rng, op.factor_shape[0], R.shape[1])
        y = crandn(rng, *op.data_shape)
        gamma = 0.8
        out = dual_update(y, L_new, L_old, gamma, 0.0, b, R, op)
        expected = y + gamma * op.forward((2 * L_new - L_old) @ R.conj().T) - gamma * b
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_hand_evaluated_shrink(self):
        # Scalar case: y+ = (3, 4), gamma = eta = 1, ||y+|| = 5 ->
        # scale max(1 - 1/5, 0) = 0.8 -> (2.4, 3.2).
        mask = SamplingMask(np.ones((2, 1), dtype=bool), axes=("rx", "sx"))
        op = MeasurementOp(mask)
        R = np.ones((1, 1), dtype=complex)
        L_new = np.zeros((2, 1), dtype=complex)
        y = np.array([[3.0], [4.0]], dtype=complex)
        out = dual_update(y, L_new, L_new, 1.0, 1.0, np.zeros((2, 1)), R, op)
        np.testing.assert_allclose(out, [[2.4], [3.2]], atol=1e-14)

    def test_shrink_never_grows(self, small_problem):
        op, b, R, rng = small_problem
        for _ in range(10):
            y = crandn(rng, *op.data_shape)
            L_new = crandn(rng, op.factor_shape[0], R.shape[1])
            L_old = crandn(rng, op.factor_shape[0], R.shape[1])
            gamma, eta = 0.5, 0.3
            y_plus = y + gamma * op.forward((2 * L_new - L_old) @ R.conj().T) - gamma * b
            out = dual_update(y, L_new, L_old, gamma, eta, b, R, op)
            assert np.linalg.norm(out) <= np.linalg.norm(y_plus) + 1e-14

    def test_prox_firmly_nonexpansive(self):
        # The shrink map u -> max(1 - t/||u||, 0) u is a proximal operator,
        # hence nonexpansive.
        rng = np.random.default_rng(103)
        mask = SamplingMask(np.ones((3, 2), dtype=bool), axes=("rx", "sx"))
        op = MeasurementOp(mask)
        R = np.ones((2, 1), dtype=complex)
        zeros = np.zeros((3, 1), dtype=complex)
        b0 = np.zeros((3, 2), dtype=complex)
        for _ in range(50):
            u = crandn(rng, 3, 2)
            v = crandn(rng, 3, 2)
            pu = dual_update(u, zeros, zeros, 1.0, 0.9, b0, R, op)
            pv = dual_update(v, zeros, zeros, 1.0, 0.9, b0, R, op)
            assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12


class TestSolveFactor:
    def test_zero_data_zero_eta(self, small_problem):
        op, _, R, rng = small_problem
        b0 = np.zeros(op.data_shape, dtype=complex)
        L, dual, info = solve_factor(op, b0, R, 0.0)
        assert np.all(L == 0)
        assert info.converged

    def test_eta_above_data_norm_gives_zero(self, small_problem):
        op, b, R, rng = small_problem
        L, dual, info = solve_factor(op, b, R, 1.5 * float(np.linalg.norm(b)))
        assert np.all(L == 0)
        assert info.converged
        assert info.residual_norm <= 1.5 * float(np.linalg.norm(b))

    def test_eta_above_data_norm_from_warm_start(self, small_problem):
        # Even from a nonzero warm start the iterate contracts to the exact
        # zero solution rather than stalling in the denormal range.
        op, b, R, rng = small_problem
        warm_L = crandn(rng, op.factor_shape[0], R.shape[1])
        cfg = PdConfig(max_iters=5000)
        L, dual, info = solve_factor(op, b, R, 1.5 * float(np.linalg.norm(b)),
                                     cfg, warm=(warm_L, None))
        assert np.all(L == 0)
        assert info.converged

    def test_zero_fixed_factor_rejected(self, small_problem):
        op, b, R, rng = small_problem
        with pytest.raises(ValueError):
            solve_factor(op, b, np.zeros_like(R), 0.1)

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
        L, dual, info = solve_factor(op, b, R, eta, cfg)
        L_ref = solve_factor_reference(op, b, R, eta)
        obj = 0.5 * np.linalg.norm(L) ** 2
        obj_ref = 0.5 * np.linalg.norm(L_ref) ** 2
        assert obj == pytest.approx(obj_ref, rel=1e-4)

    def test_kkt_fixed_point_and_slackness(self, small_problem):
        op, b, R, rng = small_problem
        eta = 0.1 * float(np.linalg.norm(b))
        cfg = PdConfig(max_iters=20000, primal_tol=1e-10, feas_tol=1e-8)
        L, dual, info = solve_factor(op, b, R, eta, cfg)
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
        L, dual, info = solve_factor(op, b, R, eta, cfg)
        hist = info.residual_history
        gap = [max(h - eta, 0.0) for h in hist]
        assert gap[-1] <= gap[len(gap) // 10] + 1e-12

    def test_warm_start_roundtrip(self, small_problem):
        op, b, R, rng = small_problem
        eta = 0.1 * float(np.linalg.norm(b))
        L1, d1, i1 = solve_factor(op, b, R, eta)
        L2, d2, i2 = solve_factor(op, b, R, eta, warm=(L1, d1.y))
        assert i2.iterations <= i1.iterations

    def test_iteration_matches_standalone_updates(self, small_problem):
        # One solver sweep must reproduce primal_update/dual_update exactly.
        op, b, R, rng = small_problem
        eta = 0.2 * float(np.linalg.norm(b))
        L0 = crandn(rng, op.factor_shape[0], R.shape[1])
        y0 = crandn(rng, *op.data_shape)
        cfg = PdConfig(max_iters=1, primal_tol=0.0, feas_tol=0.0)
        L1, d1, _ = solve_factor(op, b, R, eta, cfg, warm=(L0, y0))
        gamma = cfg.step_safety / op_norm(R)
        L1_ref = primal_update(L0, y0, gamma, R, op)
        y1_ref = dual_update(y0, L1_ref, L0, gamma, eta, b, R, op)
        np.testing.assert_allclose(L1, L1_ref, atol=1e-14)
        np.testing.assert_allclose(d1.y, y1_ref, atol=1e-14)

    def test_dual_supported_on_observed_set(self, small_problem):
        op, b, R, rng = small_problem
        eta = 0.1 * float(np.linalg.norm(b))
        L, dual, info = solve_factor(op, b, R, eta)
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
            dense = solve_factor(op, b, R, eta, cfg)
            packed = solve_factor(op.packed, op.pack(b), R, eta, cfg)
        else:
            dense = solve_factor(_DenseConjTranspose(op), b.conj().T, L, eta, cfg)
            packed = solve_factor(op.packed.transposed(), op.pack(b).conj(), L, eta, cfg)
        assert packed[2].iterations == dense[2].iterations
        assert np.linalg.norm(packed[0] - dense[0]) <= 1e-12 * np.linalg.norm(dense[0])


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
