import numpy as np
import pytest

from lrfill import levelset
from lrfill.altmin import OuterConfig, interpolate_slice
from lrfill.levelset import (
    LevelSetConfig,
    RootBracketError,
    project_ball,
    solve_levelset,
    value_function,
)
from lrfill.oracles import nuclear_norm
from lrfill.reporting import snr_db
from lrfill.sampling import uniform_entry_mask
from lrfill.synthgen import PlantSpec, observe_slice, plant_slice
from lrfill.transforms import MeasurementOp


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


@pytest.fixture(scope="module")
def planted():
    sl, pair = plant_slice(PlantSpec(p=40, q=40, rank=3, seed=1))
    mask = uniform_entry_mask(40, 40, 0.6, seed=2)
    b = observe_slice(sl.data, mask)
    return sl.data, MeasurementOp(mask), b


class TestProjectBall:
    def test_inside_unchanged(self):
        rng = np.random.default_rng(0)
        L, R = crandn(rng, 5, 2), crandn(rng, 4, 2)
        tau = (np.linalg.norm(L) ** 2 + np.linalg.norm(R) ** 2)  # 2*tau = 2x norm
        L2, R2 = project_ball(L, R, tau)
        assert L2 is L and R2 is R

    def test_scales_to_boundary(self):
        # stacked norm 2, tau = 0.5 -> target norm sqrt(2*0.5) = 1
        L = np.full((2, 1), 1.0 + 0j)
        R = np.full((2, 1), 1.0 + 0j)
        assert np.linalg.norm(np.vstack([L, R])) == pytest.approx(2.0)
        L2, R2 = project_ball(L, R, 0.5)
        total = np.linalg.norm(L2) ** 2 + np.linalg.norm(R2) ** 2
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_idempotent_and_nonexpansive(self):
        rng = np.random.default_rng(1)
        tau = 0.7
        for _ in range(25):
            L, R = crandn(rng, 6, 2), crandn(rng, 5, 2)
            L1, R1 = project_ball(L, R, tau)
            L2, R2 = project_ball(L1, R1, tau)
            np.testing.assert_allclose(L1, L2, atol=1e-12)
            # ball constraint satisfied to 1e-12 relative
            assert np.linalg.norm(L1) ** 2 + np.linalg.norm(R1) ** 2 <= 2 * tau * (1 + 1e-12)
            # nonexpansive versus a second random point
            La, Ra = crandn(rng, 6, 2), crandn(rng, 5, 2)
            La1, Ra1 = project_ball(La, Ra, tau)
            d_before = np.sqrt(np.linalg.norm(L - La) ** 2 + np.linalg.norm(R - Ra) ** 2)
            d_after = np.sqrt(np.linalg.norm(L1 - La1) ** 2 + np.linalg.norm(R1 - Ra1) ** 2)
            assert d_after <= d_before + 1e-12

    def test_tau_positive(self):
        with pytest.raises(ValueError):
            project_ball(np.ones((2, 1)), np.ones((2, 1)), 0.0)


class TestValueFunction:
    def test_tiny_tau_pins_factors(self, planted):
        X_true, op, b = planted
        v, (L, R), _ = value_function(op, b, 1e-12, 3, LevelSetConfig(seed=5))
        assert v == pytest.approx(float(np.linalg.norm(b)), rel=1e-6)

    def test_large_tau_reaches_eta(self, planted):
        X_true, op, b = planted
        tau = 10.0 * nuclear_norm(X_true)
        cfg = LevelSetConfig(inner_iters=600, seed=5)
        v, _, _ = value_function(op, b, tau, 3, cfg)
        assert v <= 1e-2 * float(np.linalg.norm(b))

    def test_monotone_in_tau(self, planted):
        X_true, op, b = planted
        tau_ref = nuclear_norm(X_true)
        cfg = LevelSetConfig(inner_iters=500, seed=5)
        warm = None
        values = []
        for frac in np.linspace(0.1, 1.0, 10):
            v, warm, _ = value_function(op, b, frac * tau_ref, 3, cfg, warm)
            values.append(v)
        noise = 1e-3 * float(np.linalg.norm(b))
        for a, c in zip(values, values[1:]):
            assert c <= a + noise


class TestSolveLevelset:
    def test_eta_above_data_norm(self, planted):
        # Both solvers take the same exit when the budget covers ||b||.
        X_true, op, b = planted
        eta = 2.0 * float(np.linalg.norm(b))
        for pair, X, rep in (solve_levelset(op, b, eta, 3),
                             interpolate_slice(op, b, OuterConfig(rank=3, eta_target=eta))):
            assert X.shape == (40, 40) and np.all(X == 0)
            assert pair.L.shape == pair.R.shape == (40, 3)
            assert not pair.L.any() and not pair.R.any()
            assert (rep.rel_residual, rep.outer_iters, rep.inner_iters) == (1.0, 0, 0)
            assert rep.status == "ok"

    def test_evaluates_through_the_module_value_function(self, planted, monkeypatch):
        # Each evaluation, warm or fresh, looks value_function up in the
        # module, so a wrapper there sees all of them.
        X_true, op, b = planted
        steps = []

        def counted(*args, **kwargs):
            out = value_function(*args, **kwargs)
            steps.append(out[2])
            return out

        monkeypatch.setattr(levelset, "value_function", counted)
        cfg = LevelSetConfig(inner_iters=400, root_tol=2e-4, seed=5)
        _, _, rep = solve_levelset(op, b, 1e-2 * float(np.linalg.norm(b)), 3, cfg)
        assert sum(steps) == rep.inner_iters > 0
        assert len(steps) >= rep.outer_iters > 0

    def test_planted_recovery_and_residual_window(self, planted):
        X_true, op, b = planted
        bn = float(np.linalg.norm(b))
        eta = 1e-3 * bn
        cfg = LevelSetConfig(inner_iters=600, root_tol=2e-4, max_root_iters=40, seed=5)
        pair, X, rep = solve_levelset(op, b, eta, 3, cfg)
        resid = rep.rel_residual * bn
        assert 0.5 * eta <= resid <= 1.5 * eta
        assert snr_db(X_true, X) >= 20.0

    def test_bracket_straddles_eta_throughout(self, planted):
        X_true, op, b = planted
        bn = float(np.linalg.norm(b))
        eta = 1e-2 * bn
        cfg = LevelSetConfig(inner_iters=400, root_tol=2e-4, seed=5)
        pair, X, rep = solve_levelset(op, b, eta, 3, cfg)
        for tau_lo, v_lo, tau_hi, v_hi in rep.history:
            assert v_lo > eta >= v_hi
            assert tau_lo < tau_hi

    def test_unbracketable_root_raises_with_diagnostics(self):
        # Rank-1 factors cannot reach a rank-2 target within a tiny eta no
        # matter how large tau grows.
        rng = np.random.default_rng(9)
        sl, _ = plant_slice(PlantSpec(p=12, q=12, rank=4, seed=3))
        mask = uniform_entry_mask(12, 12, 1.0, seed=0)
        op = MeasurementOp(mask)
        b = sl.data.copy()
        cfg = LevelSetConfig(inner_iters=150, seed=5)
        with pytest.raises(RootBracketError) as info:
            solve_levelset(op, b, 1e-6 * float(np.linalg.norm(b)), 1, cfg)
        assert len(info.value.taus) == len(info.value.values)
        assert len(info.value.taus) >= 12


@pytest.mark.parametrize("rank", [0, -3])
def test_rank_below_one_is_rejected(rank):
    # Refused on the zero-completion exit too, where no factor is fitted.
    mask = uniform_entry_mask(12, 12, 0.5, seed=0)
    op = MeasurementOp(mask)
    b = observe_slice(plant_slice(PlantSpec(p=12, q=12, rank=2, seed=1))[0].data, mask)
    for eta in (0.1 * float(np.linalg.norm(b)), 2.0 * float(np.linalg.norm(b))):
        with pytest.raises(ValueError, match="rank"):
            solve_levelset(op, b, eta, rank)


@pytest.mark.parametrize("root_tol", [float("nan"), 0.0, -1e-4])
def test_root_tolerance_that_is_nan_or_not_positive_is_rejected(root_tol):
    with pytest.raises(ValueError, match="root_tol"):
        LevelSetConfig(root_tol=root_tol)
