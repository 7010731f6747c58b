import numpy as np
import pytest

from lrfill import altmin
from lrfill.altmin import (
    OuterConfig,
    eta_schedule,
    init_factors,
    interpolate_slice,
)
from lrfill.levelset import solve_levelset
from lrfill.pdsolver import PdConfig
from lrfill.reporting import snr_db
from lrfill.sampling import SamplingMask, uniform_entry_mask
from lrfill.synthgen import PlantSpec, observe_slice, plant_slice
from lrfill.transforms import MeasurementOp


class TestEtaSchedule:
    def test_geometric_sequence(self):
        # eta0 = 10, ratio 0.1, target 0.3: 1.0, 0.3, 0.3, ...
        eta = 10.0
        seq = []
        for _ in range(4):
            eta = eta_schedule(eta, 0.1, 0.3)
            seq.append(eta)
        assert seq == [1.0, pytest.approx(0.3), pytest.approx(0.3), pytest.approx(0.3)]

    def test_floor_is_sticky(self):
        assert eta_schedule(0.3, 0.1, 0.3) == 0.3

    def test_target_floor_two_steps_at_production_values(self):
        # From ||b|| with ratio 0.1 down to 0.03||b||: exactly two steps.
        b_norm = 7.3
        eta = b_norm
        eta = eta_schedule(eta, 0.1, 0.03 * b_norm)
        assert eta == pytest.approx(0.1 * b_norm)
        eta = eta_schedule(eta, 0.1, 0.03 * b_norm)
        assert eta == pytest.approx(0.03 * b_norm)

    def test_nonincreasing_bounded_below(self):
        eta = 5.0
        prev = eta
        for _ in range(20):
            eta = eta_schedule(eta, 0.3, 0.01)
            assert eta <= prev
            assert eta >= 0.01
            prev = eta

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            eta_schedule(1.0, 1.5, 0.1)
        with pytest.raises(ValueError):
            eta_schedule(1.0, 0.0, 0.1)


class TestInitFactors:
    def test_deterministic(self):
        a = init_factors(10, 8, 3, seed=42)
        b = init_factors(10, 8, 3, seed=42)
        np.testing.assert_array_equal(a.L, b.L)
        np.testing.assert_array_equal(a.R, b.R)

    def test_seed_changes_draw(self):
        a = init_factors(10, 8, 3, seed=1)
        b = init_factors(10, 8, 3, seed=2)
        assert not np.array_equal(a.L, b.L)

    def test_second_moment(self):
        # After 1/sqrt(r) scaling, E|entry|^2 = 1/r.
        pair = init_factors(200, 50, 50, seed=7)
        m = np.mean(np.abs(pair.L) ** 2)
        assert abs(m - 1 / 50) < 0.05 / 50

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            init_factors(4, 4, 5, seed=0)
        with pytest.raises(ValueError):
            init_factors(4, 4, 0, seed=0)


class TestOuterConfig:
    def test_eta_target_is_required_finite_and_nonnegative(self):
        with pytest.raises(TypeError):
            OuterConfig(rank=3)
        for eta in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="eta_target"):
                OuterConfig(rank=3, eta_target=eta)
        assert OuterConfig(rank=3, eta_target=0.0).eta_target == 0.0

    @pytest.mark.parametrize("rank", [0, -3])
    def test_rank_below_one_rejected(self, rank):
        with pytest.raises(ValueError, match="rank"):
            OuterConfig(rank=rank, eta_target=0.1)

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_outer_tol_below_zero_or_nan_rejected(self, tol):
        with pytest.raises(ValueError, match="outer_tol"):
            OuterConfig(rank=3, eta_target=0.1, outer_tol=tol)


class TestInterpolateSlice:
    def test_zero_data_gives_zero_slice(self):
        # Both solvers take the same exit when the budget covers ||b||.
        mask = uniform_entry_mask(8, 8, 0.5, seed=0)
        op = MeasurementOp(mask)
        b = np.zeros((8, 8), dtype=complex)
        cfg = OuterConfig(rank=2, eta_target=0.0, seed=1)
        for pair, X, rep in (interpolate_slice(op, b, cfg), solve_levelset(op, b, 0.0, 2)):
            assert X.shape == (8, 8) and np.all(X == 0)
            assert pair.L.shape == pair.R.shape == (8, 2)
            assert not pair.L.any() and not pair.R.any()
            assert (rep.rel_residual, rep.outer_iters, rep.inner_iters) == (0.0, 0, 0)
            assert rep.status == "ok"

    def test_full_mask_consistent_recovery(self):
        # With everything observed and eta nearly zero, the completion must
        # reproduce the data.
        sl, _ = plant_slice(PlantSpec(p=20, q=15, rank=3, seed=4))
        grid = np.ones((20, 15), dtype=bool)
        mask = SamplingMask(grid, axes=("rx", "sx"))
        op = MeasurementOp(mask)
        b = sl.data.copy()
        cfg = OuterConfig(rank=3, eta_target=1e-6 * float(np.linalg.norm(b)), alpha=0.5,
                          outer_iters=25, seed=2,
                          pd=PdConfig(max_iters=3000, primal_tol=1e-8, feas_tol=1e-7))
        pair, X, rep = interpolate_slice(op, b, cfg)
        assert snr_db(b, X) >= 60.0

    def test_feasible_at_termination(self):
        sl, _ = plant_slice(PlantSpec(p=30, q=30, rank=3, seed=5))
        mask = uniform_entry_mask(30, 30, 0.7, seed=6)
        b = observe_slice(sl.data, mask)
        op = MeasurementOp(mask)
        eta = 0.01 * float(np.linalg.norm(b))
        cfg = OuterConfig(rank=3, eta_target=eta, alpha=0.5, outer_iters=25, seed=3,
                          pd=PdConfig(max_iters=3000, primal_tol=1e-7, feas_tol=1e-6))
        pair, X, rep = interpolate_slice(op, b, cfg)
        resid = np.linalg.norm(op.forward(X) - b)
        assert resid <= 1.01 * eta

    def test_rank_clamped_to_shape(self):
        mask = uniform_entry_mask(6, 5, 0.9, seed=1)
        op = MeasurementOp(mask)
        sl, _ = plant_slice(PlantSpec(p=6, q=5, rank=2, seed=1))
        b = observe_slice(sl.data, mask)
        cfg = OuterConfig(rank=50, eta_target=0.05 * float(np.linalg.norm(b)), outer_iters=4,
                          seed=0, pd=PdConfig(max_iters=300))
        pair, X, rep = interpolate_slice(op, b, cfg)
        assert pair.rank == 5

    def test_report_counts(self):
        sl, _ = plant_slice(PlantSpec(p=12, q=12, rank=2, seed=8))
        mask = uniform_entry_mask(12, 12, 0.8, seed=9)
        b = observe_slice(sl.data, mask)
        op = MeasurementOp(mask)
        cfg = OuterConfig(rank=2, eta_target=0.05 * float(np.linalg.norm(b)), outer_iters=6,
                          seed=4, pd=PdConfig(max_iters=400))
        pair, X, rep = interpolate_slice(op, b, cfg)
        assert rep.outer_iters >= 1
        assert rep.inner_iters >= rep.outer_iters
        assert len(rep.history) == rep.outer_iters
        assert rep.wall_s > 0

    def test_eta_floor_reached_within_log_bound(self):
        # Geometric decay from ||b|| hits the floor within
        # ceil(log_alpha(target / eta0)) + 1 outer iterations.
        sl, _ = plant_slice(PlantSpec(p=12, q=12, rank=2, seed=8))
        mask = uniform_entry_mask(12, 12, 0.8, seed=9)
        b = observe_slice(sl.data, mask)
        op = MeasurementOp(mask)
        alpha, frac = 0.3, 0.01
        target = frac * float(np.linalg.norm(b))
        cfg = OuterConfig(rank=2, eta_target=target, alpha=alpha, outer_iters=12,
                          seed=4, pd=PdConfig(max_iters=300))
        pair, X, rep = interpolate_slice(op, b, cfg)
        bound = int(np.ceil(np.log(frac) / np.log(alpha))) + 1
        etas = [h["eta"] for h in rep.history]
        assert all(b2 <= a2 for a2, b2 in zip(etas, etas[1:]))  # nonincreasing
        assert min(etas[: bound + 1]) <= target * (1 + 1e-12)

    def test_regularizer_never_grows_from_feasible_start(self):
        # Data reachable by the Gaussian init itself: every min-norm solve
        # can only shrink the stacked factor norm.
        rng = np.random.default_rng(12)
        mask = uniform_entry_mask(15, 15, 0.8, seed=13)
        op = MeasurementOp(mask)
        pair0 = init_factors(15, 15, 3, seed=21)
        b = op.forward(pair0.product())
        bn = float(np.linalg.norm(b))
        cfg = OuterConfig(rank=3, eta_target=0.9 * bn, alpha=0.5, outer_iters=6,
                          seed=21, pd=PdConfig(max_iters=800))
        pair, X, rep = interpolate_slice(op, b, cfg)
        reg0 = 0.5 * (np.linalg.norm(pair0.L) ** 2 + np.linalg.norm(pair0.R) ** 2)
        reg = 0.5 * (np.linalg.norm(pair.L) ** 2 + np.linalg.norm(pair.R) ** 2)
        assert reg <= reg0 * (1 + 1e-9)

    def test_each_outer_iteration_solves_through_the_module_name(self, monkeypatch):
        # The loop looks its factor solve up as ``altmin.solve_factor``, so a
        # wrapper put there sees every solve: one R and one L per iteration.
        calls = []
        real_solve = altmin.solve_factor

        def counting_solve(*args, **kwargs):
            calls.append(args[0].factor_shape)
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(altmin, "solve_factor", counting_solve)
        sl, _ = plant_slice(PlantSpec(p=12, q=10, rank=2, seed=8))
        mask = uniform_entry_mask(12, 10, 0.8, seed=9)
        b = observe_slice(sl.data, mask)
        cfg = OuterConfig(rank=2, eta_target=0.05 * float(np.linalg.norm(b)), outer_iters=4,
                          seed=4)
        _, _, rep = interpolate_slice(MeasurementOp(mask), b, cfg)
        assert rep.outer_iters >= 1
        assert calls == [(10, 12), (12, 10)] * rep.outer_iters

    def test_inner_failure_carries_outer_context(self, monkeypatch):
        # A factor solve that raises is re-raised with the outer iteration
        # and the budget it failed at.
        def failing_solve(*args, **kwargs):
            raise ValueError("injected")

        monkeypatch.setattr(altmin, "solve_factor", failing_solve)
        sl, _ = plant_slice(PlantSpec(p=12, q=12, rank=2, seed=8))
        mask = uniform_entry_mask(12, 12, 0.8, seed=9)
        b = observe_slice(sl.data, mask)
        op = MeasurementOp(mask)
        cfg = OuterConfig(rank=2, eta_target=0.05 * float(np.linalg.norm(b)), outer_iters=6,
                          seed=4)
        with pytest.raises(RuntimeError, match="outer iteration 0 .*injected"):
            interpolate_slice(op, b, cfg)
