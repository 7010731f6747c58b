import numpy as np
import pytest

from lrfill.pdsolver import solve_factor
from lrfill.sampling import SamplingMask, jittered_volume_mask, uniform_entry_mask
from lrfill.transforms import (
    MODE_REC_SRC_X,
    MODE_SRC_PAIR,
    MODES,
    Matricization,
    MeasurementOp,
    apply_sampling,
    singular_decay,
)
from lrfill.volume import AxisLayoutError


def random_tensor(rng, extents=(3, 2, 4, 2)):
    return rng.standard_normal(extents) + 1j * rng.standard_normal(extents)


def random_mask(rng, extents=(3, 2, 4, 2), keep=0.5):
    grid = rng.random(extents) < keep
    grid.flat[0] = True
    return SamplingMask(grid, axes=("rx", "ry", "sx", "sy"))


class TestMatricization:
    def test_index_maps_by_exhaustive_enumeration(self):
        # Independent oracle: walk the documented index maps entry by entry,
        # for both modes, with extents that all differ, through unfold and
        # fold.
        n_rx, n_ry, n_sx, n_sy = 2, 3, 4, 5
        T = np.arange(n_rx * n_ry * n_sx * n_sy, dtype=float).reshape(n_rx, n_ry, n_sx, n_sy)
        maps = {
            MODE_SRC_PAIR: ((n_rx * n_ry, n_sx * n_sy),
                            lambda rx, ry, sx, sy: (rx + ry * n_rx, sx + sy * n_sx)),
            MODE_REC_SRC_X: ((n_ry * n_sy, n_rx * n_sx),
                             lambda rx, ry, sx, sy: (ry + sy * n_ry, rx + sx * n_rx)),
        }
        assert set(maps) == set(MODES)
        for mode, (shape, index) in maps.items():
            m = Matricization(mode, n_rx, n_ry, n_sx, n_sy)
            assert m.shape == shape
            M = m.unfold(T)
            expected = np.zeros(shape)
            for at in np.ndindex(T.shape):
                assert M[index(*at)] == T[at]
                expected[index(*at)] = T[at]
            np.testing.assert_array_equal(m.fold(expected), T)

    @pytest.mark.parametrize("mode", MODES)
    def test_fold_unfold_roundtrip(self, mode):
        rng = np.random.default_rng(5)
        T = random_tensor(rng)
        m = Matricization(mode, *T.shape)
        assert np.array_equal(m.fold(m.unfold(T)), T)

    @pytest.mark.parametrize("mode", MODES)
    def test_norm_preserved(self, mode):
        rng = np.random.default_rng(6)
        T = random_tensor(rng)
        m = Matricization(mode, *T.shape)
        assert np.linalg.norm(m.unfold(T)) == pytest.approx(np.linalg.norm(T), rel=0)

    def test_entry_multiset_preserved(self):
        rng = np.random.default_rng(7)
        T = random_tensor(rng)
        for mode in MODES:
            M = Matricization(mode, *T.shape).unfold(T)
            assert sorted(M.ravel().tolist(), key=abs) == sorted(T.ravel().tolist(), key=abs)

    def test_wrong_shape_is_structural_error(self):
        m = Matricization(MODE_SRC_PAIR, 2, 2, 2, 2)
        with pytest.raises(AxisLayoutError):
            m.unfold(np.zeros((2, 2, 2, 3)))
        with pytest.raises(AxisLayoutError):
            m.fold(np.zeros((4, 5)))

    def test_module_level_wrappers(self):
        rng = np.random.default_rng(8)
        T = random_tensor(rng)
        m = Matricization(MODE_REC_SRC_X, *T.shape)
        assert np.array_equal(m.fold(m.unfold(T)), T)


class TestApplySampling:
    def test_full_mask_is_identity(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        mask = SamplingMask(np.ones((4, 5), dtype=bool), axes=("rx", "sx"))
        np.testing.assert_array_equal(apply_sampling(mask, X), X)

    def test_removed_lines_are_exactly_zero(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((4, 5))
        grid = np.ones((4, 5), dtype=bool)
        grid[1, :] = False          # an empty row
        grid[:, 3] = False          # a removed source column
        mask = SamplingMask(grid, axes=("rx", "sx"))
        out = apply_sampling(mask, X)
        assert np.all(out[1, :] == 0)
        assert np.all(out[:, 3] == 0)
        np.testing.assert_array_equal(out[grid], X[grid])

    def test_idempotent(self):
        rng = np.random.default_rng(12)
        mask = uniform_entry_mask(6, 7, 0.4, seed=1)
        X = rng.standard_normal((6, 7)) + 1j * rng.standard_normal((6, 7))
        once = apply_sampling(mask, X)
        np.testing.assert_array_equal(apply_sampling(mask, once), once)

    def test_self_adjoint(self):
        rng = np.random.default_rng(13)
        mask = uniform_entry_mask(6, 7, 0.5, seed=2)
        X = rng.standard_normal((6, 7)) + 1j * rng.standard_normal((6, 7))
        Y = rng.standard_normal((6, 7)) + 1j * rng.standard_normal((6, 7))
        lhs = np.vdot(Y, apply_sampling(mask, X))
        rhs = np.vdot(apply_sampling(mask, Y), X)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_shape_mismatch(self):
        mask = uniform_entry_mask(6, 7, 0.5)
        with pytest.raises(ValueError):
            apply_sampling(mask, np.zeros((7, 6)))


class TestMeasurementOp:
    @pytest.mark.parametrize("mode", MODES)
    def test_adjoint_identity(self, mode):
        rng = np.random.default_rng(14)
        mask = random_mask(rng)
        op = MeasurementOp(mask, Matricization(mode, *mask.grid.shape))
        Z = rng.standard_normal(op.factor_shape) + 1j * rng.standard_normal(op.factor_shape)
        W = rng.standard_normal(op.data_shape) + 1j * rng.standard_normal(op.data_shape)
        lhs = np.vdot(W, op.forward(Z))
        rhs = np.vdot(op.adjoint(W), Z)
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_full_mask_adjoint_inverts(self):
        rng = np.random.default_rng(15)
        grid = np.ones((3, 2, 4, 2), dtype=bool)
        mask = SamplingMask(grid, axes=("rx", "ry", "sx", "sy"))
        op = MeasurementOp(mask, Matricization(MODE_REC_SRC_X, 3, 2, 4, 2))
        Z = rng.standard_normal(op.factor_shape) + 1j * rng.standard_normal(op.factor_shape)
        np.testing.assert_allclose(op.adjoint(op.forward(Z)), Z, atol=1e-14)

    def test_power_iteration_norm_is_one(self):
        # Oracle: the dense matrix of the operator on a 2x2x2x2 instance.
        rng = np.random.default_rng(16)
        grid = rng.random((2, 2, 2, 2)) < 0.5
        grid.flat[0] = True
        mask = SamplingMask(grid, axes=("rx", "ry", "sx", "sy"))
        op = MeasurementOp(mask, Matricization(MODE_REC_SRC_X, 2, 2, 2, 2))
        dense = np.zeros((16, 16))
        E = np.zeros(op.factor_shape)
        for j in range(16):
            E.flat[j] = 1.0
            dense[:, j] = op.forward(E).ravel().real
            E.flat[j] = 0.0
        sigma_dense = np.linalg.svd(dense, compute_uv=False)[0]
        assert sigma_dense == pytest.approx(1.0, abs=1e-12)

        v = rng.standard_normal(op.factor_shape) + 1j * rng.standard_normal(op.factor_shape)
        lam = 0.0
        for _ in range(200):
            w = op.adjoint(op.forward(v))
            lam = np.linalg.norm(w)
            v = w / lam
        assert np.sqrt(lam) == pytest.approx(sigma_dense, abs=1e-6)

    def test_nonexpansive(self):
        rng = np.random.default_rng(17)
        mask = random_mask(rng)
        op = MeasurementOp(mask, Matricization(MODE_REC_SRC_X, *mask.grid.shape))
        for _ in range(20):
            Z = rng.standard_normal(op.factor_shape) + 1j * rng.standard_normal(op.factor_shape)
            assert np.linalg.norm(op.forward(Z)) <= np.linalg.norm(Z) * (1 + 1e-12)

    def test_identity_transform_for_2d_masks(self):
        rng = np.random.default_rng(18)
        mask = uniform_entry_mask(5, 6, 0.5, seed=3)
        op = MeasurementOp(mask)
        Z = rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))
        np.testing.assert_array_equal(op.forward(Z), apply_sampling(mask, Z))
        np.testing.assert_array_equal(op.to_acquisition(Z), Z)
        # The 2-d path shares one index map between both domains.
        assert op.data_shape == mask.grid.shape
        assert op.data_index is op.factor_index

    def test_hermitian_flip_adjoint_and_involution(self):
        rng = np.random.default_rng(19)
        mask = random_mask(rng)
        op = MeasurementOp(mask, Matricization(MODE_REC_SRC_X, *mask.grid.shape))
        flip = op.packed.transposed()
        assert flip.transposed() is op.packed
        # Built once per operator, so a run's slices share its index maps.
        assert op.packed.transposed() is flip
        V = rng.standard_normal(flip.factor_shape) + 1j * rng.standard_normal(flip.factor_shape)
        W = rng.standard_normal(flip.data_shape) + 1j * rng.standard_normal(flip.data_shape)
        lhs = np.vdot(W, flip.forward(V))
        rhs = np.vdot(flip.adjoint(W), V)
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_flip_matches_conjugate_transposed_products(self):
        rng = np.random.default_rng(20)
        mask = random_mask(rng)
        op = MeasurementOp(mask, Matricization(MODE_REC_SRC_X, *mask.grid.shape))
        p, q = op.factor_shape
        r = 3
        L = rng.standard_normal((p, r)) + 1j * rng.standard_normal((p, r))
        R = rng.standard_normal((q, r)) + 1j * rng.standard_normal((q, r))
        lhs = op.packed.transposed().forward(R @ L.conj().T)
        rhs = op.pack(op.forward(L @ R.conj().T)).conj()
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("mode", MODES)
    def test_forward_is_sampling_of_transform(self, mode):
        rng = np.random.default_rng(24)
        mask = random_mask(rng)
        matric = Matricization(mode, *mask.grid.shape)
        op = MeasurementOp(mask, matric)
        Z = rng.standard_normal(op.factor_shape) + 1j * rng.standard_normal(op.factor_shape)
        np.testing.assert_array_equal(op.forward(Z), apply_sampling(mask, op.to_acquisition(Z)))
        # The data live on the mask's own grid: the transform is the fold.
        assert op.data_shape == mask.grid.shape
        np.testing.assert_array_equal(op.to_acquisition(Z), matric.fold(Z))

    @pytest.mark.parametrize("mode", [*MODES, None])
    def test_packed_pair_is_dense_restricted_to_observed(self, mode):
        rng = np.random.default_rng(25)
        if mode is None:
            mask = uniform_entry_mask(5, 6, 0.5, seed=4)
            op = MeasurementOp(mask)
        else:
            mask = random_mask(rng)
            op = MeasurementOp(mask, Matricization(mode, *mask.grid.shape))
        A = op.packed
        Z = rng.standard_normal(op.factor_shape) + 1j * rng.standard_normal(op.factor_shape)
        W = rng.standard_normal(op.data_shape) + 1j * rng.standard_normal(op.data_shape)
        assert A.data_shape == (int(op.observed.sum()),)
        np.testing.assert_array_equal(A.forward(Z), op.pack(op.forward(Z)))
        np.testing.assert_array_equal(A.adjoint(op.pack(W)), op.adjoint(W))
        # Put back in acquisition order, the packed data are the observed entries.
        np.testing.assert_array_equal(op.pack(W)[np.argsort(op.data_index)],
                                      W[op.observed])

    def test_packed_pair_exposes_what_solver_tracing_reads(self):
        rng = np.random.default_rng(26)
        mask = random_mask(rng)
        matric = Matricization(MODE_REC_SRC_X, *mask.grid.shape)
        op = MeasurementOp(mask, matric)
        A, A_T = op.packed, op.packed.transposed()
        p, q = op.factor_shape
        m = int(op.observed.sum())
        assert A.factor_shape == (p, q) and A.data_shape == (m,)
        assert A_T.factor_shape == (q, p) and A_T.data_shape == (m,)
        assert A.matricization is matric and A_T.matricization is matric
        assert A_T.base is A
        # perfbench tells an R-side solve from an L-side one by ``.base``.
        assert not hasattr(A, "base")

    @pytest.mark.parametrize("mode", MODES)
    def test_row_patterns_index_the_factor_domain_mask(self, mode):
        mask = jittered_volume_mask(10, 10, 8, 8, 0.2, seed=75)
        op = MeasurementOp(mask, Matricization(mode, 10, 10, 8, 8))
        observed = op.from_acquisition(mask.grid)
        for A, rows in ((op.packed, observed), (op.packed.transposed(), observed.T)):
            patterns, inverse = A.row_patterns
            np.testing.assert_array_equal(patterns[inverse], rows)
            assert len({tuple(row) for row in rows}) == len(patterns)

    def test_row_patterns_are_computed_on_first_solve_and_kept(self):
        # A timed operator build must not pay for the pattern index: it is
        # computed by the first solve that needs it, then reused.
        rng = np.random.default_rng(28)
        mask = jittered_volume_mask(4, 3, 4, 3, 0.5, seed=7)
        op = MeasurementOp(mask, Matricization(MODE_REC_SRC_X, 4, 3, 4, 3))
        A, A_T = op.packed, op.packed.transposed()
        assert "row_patterns" not in vars(A) and "row_patterns" not in vars(A_T)
        q = op.factor_shape[1]
        R = rng.standard_normal((q, 2)) + 1j * rng.standard_normal((q, 2))
        b = op.pack(rng.standard_normal(op.data_shape) + 0j)
        solve_factor(A, b, R, 0.5 * float(np.linalg.norm(b)))
        assert "row_patterns" in vars(A) and "row_patterns" not in vars(A_T)
        assert A.row_patterns is vars(A)["row_patterns"]

    def test_mask_matric_shape_mismatch(self):
        rng = np.random.default_rng(21)
        mask = random_mask(rng, extents=(3, 2, 4, 2))
        with pytest.raises(ValueError):
            MeasurementOp(mask, Matricization(MODE_REC_SRC_X, 2, 2, 4, 2))
        with pytest.raises(ValueError):
            MeasurementOp(mask)  # 4-d mask requires a matricization


class TestSingularDecay:
    def test_rank_one(self):
        rng = np.random.default_rng(22)
        u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        decay = singular_decay(np.outer(u, v.conj()))
        assert decay[0] == pytest.approx(1.0)
        assert np.all(decay[1:] < 1e-12)

    def test_unitary_is_flat(self):
        rng = np.random.default_rng(23)
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        np.testing.assert_allclose(singular_decay(Q), np.ones(5), atol=1e-12)

    def test_sorted_descending(self):
        rng = np.random.default_rng(24)
        decay = singular_decay(rng.standard_normal((8, 6)))
        assert np.all(np.diff(decay) <= 0)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            singular_decay(np.zeros((0, 3)))


def numerical_rank(X, scale):
    s = np.linalg.svd(X, compute_uv=False)
    return int((s > 1e-10 * scale).sum())


def test_rank_monotone_under_column_removal():
    rng = np.random.default_rng(25)
    for trial in range(50):
        n, m = 12, 10
        if trial % 2:
            X = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        else:
            r = int(rng.integers(1, 5))
            X = (rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))) @ (
                rng.standard_normal((r, m)) + 1j * rng.standard_normal((r, m))
            )
        cols = rng.random(m) < 0.6
        if not cols.any():
            cols[0] = True
        masked = X * cols[None, :]
        scale = np.linalg.svd(X, compute_uv=False)[0]
        assert numerical_rank(masked, scale) <= numerical_rank(X, scale)
