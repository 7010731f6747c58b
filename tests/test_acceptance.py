"""Acceptance suite: one test per criterion, run with ``pytest -v -s
tests/test_acceptance.py`` to get a pass/fail line and the measured numbers
for each.

The planted-slice fixtures are shared across criteria so the whole suite
stays inside a few minutes single-threaded.
"""

import time

import numpy as np
import pytest

from lrfill.altmin import OuterConfig, eta_schedule, interpolate_slice
from lrfill.fileio import read_volume, write_mask, write_volume
from lrfill.levelset import LevelSetConfig, solve_levelset
from lrfill.oracles import (
    nuclear_norm,
    solve_factor_pd,
    solve_factor_reference,
    solve_nn_reference,
)
from lrfill.pdsolver import PdConfig
from lrfill.pipeline import PipelineConfig, run_interpolation
from lrfill.reporting import snr_db
from lrfill.sampling import SamplingMask, jittered_volume_mask, uniform_entry_mask
from lrfill.synthgen import EventSpec, PlantSpec, linear_events, observe_slice, plant_slice
from lrfill.transforms import Matricization, MeasurementOp
from lrfill.volume import dft_time_axis, freq_values_hz, idft_freq_axis


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def report(line):
    print(f"\n  {line}")


# ----------------------------------------------------------------------- #
# shared planted instance: 100x100 complex rank-5, 50% uniform entries,
# noiseless, eta = 1e-3 ||b||
# ----------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def planted():
    sl, _ = plant_slice(PlantSpec(p=100, q=100, rank=5, profile="flat", seed=7))
    mask = uniform_entry_mask(100, 100, 0.5, seed=11)
    b = observe_slice(sl.data, mask)
    op = MeasurementOp(mask)
    b_norm = float(np.linalg.norm(b))
    return {"truth": sl.data, "mask": mask, "op": op, "b": b,
            "b_norm": b_norm, "eta": 1e-3 * b_norm}


@pytest.fixture(scope="module")
def oracle_solution(planted):
    t0 = time.perf_counter()
    X = solve_nn_reference(planted["mask"], planted["b"], planted["eta"])
    return {"X": X, "snr": snr_db(planted["truth"], X),
            "wall": time.perf_counter() - t0}


def run_altmin(planted, rank):
    cfg = OuterConfig(rank=rank, eta_target=planted["eta"], alpha=0.5,
                      outer_iters=30, seed=3,
                      pd=PdConfig(max_iters=2500, primal_tol=1e-6, feas_tol=5e-6))
    t0 = time.perf_counter()
    pair, X, rep = interpolate_slice(planted["op"], planted["b"], cfg)
    wall = time.perf_counter() - t0
    resid = float(np.linalg.norm(planted["op"].forward(X) - planted["b"]))
    return {"X": X, "snr": snr_db(planted["truth"], X), "resid": resid,
            "wall": wall, "report": rep}


@pytest.fixture(scope="module")
def altmin_runs(planted):
    return {r: run_altmin(planted, r) for r in (5, 10, 20)}


@pytest.fixture(scope="module")
def levelset_run(planted):
    cfg = LevelSetConfig(inner_iters=600, root_tol=2e-4, max_root_iters=40, seed=3)
    t0 = time.perf_counter()
    pair, X, rep = solve_levelset(planted["op"], planted["b"], planted["eta"], 5, cfg)
    wall = time.perf_counter() - t0
    resid = float(np.linalg.norm(planted["op"].forward(X) - planted["b"]))
    return {"X": X, "snr": snr_db(planted["truth"], X), "resid": resid, "wall": wall}


# ----------------------------------------------------------------------- #
# 1. subproblem oracle equivalence
# ----------------------------------------------------------------------- #

def test_criterion_1_subproblem_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst_obj = 0.0
    feasibility = []
    for trial in range(25):
        p = int(rng.integers(8, 31))
        q = int(rng.integers(8, 31))
        r = int(rng.integers(1, 6))
        keep = float(rng.uniform(0.4, 1.0))
        mask = uniform_entry_mask(p, q, keep, seed=int(rng.integers(1 << 30)))
        op = MeasurementOp(mask)
        R = crandn(rng, q, r)
        b = op.forward(crandn(rng, p, r) @ R.conj().T)
        b_norm = float(np.linalg.norm(b))
        eta = float(rng.uniform(0.05, 0.3)) * b_norm
        cfg = PdConfig(max_iters=30000, primal_tol=1e-10, feas_tol=2e-7)
        L_pd, dual, info = solve_factor_pd(op, b, R, eta, cfg)
        L_ref = solve_factor_reference(op, b, R, eta)
        obj_pd = 0.5 * np.linalg.norm(L_pd) ** 2
        obj_ref = 0.5 * np.linalg.norm(L_ref) ** 2
        rel = abs(obj_pd - obj_ref) / obj_ref
        worst_obj = max(worst_obj, rel)
        res_pd = float(np.linalg.norm(op.forward(L_pd @ R.conj().T) - b))
        res_ref = float(np.linalg.norm(op.forward(L_ref @ R.conj().T) - b))
        feasibility.append((res_pd, res_ref, eta, b_norm))
        assert rel <= 1e-4, f"trial {trial}: objective mismatch {rel:.2e}"
        assert res_pd <= eta + 1e-6 * b_norm
        assert res_ref <= eta + 1e-6 * b_norm
        # feasibility-gap trend: end of the run no worse than a tenth in
        hist = info.residual_history
        gap_late = max(hist[-1] - eta, 0.0)
        gap_early = max(hist[max(len(hist) // 10 - 1, 0)] - eta, 0.0)
        assert gap_late <= gap_early + 1e-8 * b_norm
    wall = time.perf_counter() - t0
    assert wall < 10.0, f"criterion 1 took {wall:.1f}s"
    test_criterion_1_subproblem_oracle_equivalence.feasibility = feasibility
    report(f"criterion 1 PASS: 25 instances, worst objective gap {worst_obj:.2e}, "
           f"{wall:.1f}s")


# ----------------------------------------------------------------------- #
# 2. planted recovery vs the convex oracle
# ----------------------------------------------------------------------- #

def test_criterion_2_planted_recovery(planted, oracle_solution, altmin_runs):
    alt = altmin_runs[5]
    wall = alt["wall"] + oracle_solution["wall"]
    assert oracle_solution["snr"] >= 20.0, (
        f"oracle SNR {oracle_solution['snr']:.2f} dB below 20")
    assert alt["snr"] >= 20.0, f"alt-min SNR {alt['snr']:.2f} dB below 20"
    assert abs(alt["snr"] - oracle_solution["snr"]) <= 1.0, (
        f"alt-min {alt['snr']:.2f} dB vs oracle {oracle_solution['snr']:.2f} dB")
    assert wall < 60.0, f"criterion 2 took {wall:.1f}s"
    report(f"criterion 2 PASS: alt-min {alt['snr']:.2f} dB, "
           f"oracle {oracle_solution['snr']:.2f} dB, {wall:.1f}s")


# ----------------------------------------------------------------------- #
# 3. level-set parity
# ----------------------------------------------------------------------- #

def test_criterion_3_levelset_parity(altmin_runs, levelset_run):
    alt = altmin_runs[5]
    assert abs(levelset_run["snr"] - alt["snr"]) <= 1.0, (
        f"levelset {levelset_run['snr']:.2f} dB vs alt-min {alt['snr']:.2f} dB")
    report(f"criterion 3 PASS: levelset {levelset_run['snr']:.2f} dB, "
           f"alt-min {alt['snr']:.2f} dB")


# ----------------------------------------------------------------------- #
# 4. feasibility contract on every converged run of criteria 1-3
# ----------------------------------------------------------------------- #

def test_criterion_4_feasibility_contract(planted, altmin_runs, levelset_run):
    eta = planted["eta"]
    checked = 0
    for r, run in altmin_runs.items():
        assert run["resid"] <= 1.01 * eta, (
            f"alt-min r={r}: residual {run['resid']:.3e} > 1.01 eta")
        checked += 1
    assert levelset_run["resid"] <= 1.01 * eta
    checked += 1
    feasibility = getattr(test_criterion_1_subproblem_oracle_equivalence,
                          "feasibility", [])
    for res_pd, res_ref, eta_i, b_norm in feasibility:
        assert res_pd <= 1.01 * eta_i
        assert res_ref <= 1.01 * eta_i
        checked += 2
    report(f"criterion 4 PASS: {checked} runs all within 1.01 eta")


# ----------------------------------------------------------------------- #
# 5. eta schedule reaches the production target in exactly two steps
# ----------------------------------------------------------------------- #

def test_criterion_5_eta_schedule():
    b_norm = 4.217
    target = 0.03 * b_norm
    eta1 = eta_schedule(b_norm, 0.1, target)
    eta2 = eta_schedule(eta1, 0.1, target)
    eta3 = eta_schedule(eta2, 0.1, target)
    assert eta1 == pytest.approx(0.1 * b_norm, rel=1e-15)
    assert eta2 == pytest.approx(target, rel=1e-15)
    assert eta3 == pytest.approx(target, rel=1e-15)
    report("criterion 5 PASS: ||b|| -> 0.1||b|| -> 0.03||b|| floor in 2 steps")


# ----------------------------------------------------------------------- #
# 6. matricization diagnostics
# ----------------------------------------------------------------------- #

def test_criterion_6_matricization_diagnostics():
    spec = EventSpec(n_rx=10, n_ry=10, n_sx=8, n_sy=8, spacing_m=25.0,
                     nt=128, dt=0.004,
                     events=[(0.15, 0.0002, 0.00012, 1.0),
                             (0.30, -0.00015, 0.00025, 0.7)],
                     wavelet_peak_hz=20.0)
    # Every bin of the half spectrum: each other bin is the conjugate of
    # one of them, with the same singular values.
    F = np.moveaxis(dft_time_axis(linear_events(spec)), -1, 0)
    freqs = freq_values_hz(128, 0.004)
    rec = Matricization("recsrcx", 10, 10, 8, 8)
    src = Matricization("srcpair", 10, 10, 8, 8)
    margins = []
    for k in range(len(freqs)):
        if not 3.0 <= freqs[k] <= 70.0:
            continue
        T = F[k]
        s_rec = np.linalg.svd(rec.unfold(T), compute_uv=False)
        s_src = np.linalg.svd(src.unfold(T), compute_uv=False)
        top2_rec = s_rec[:2].sum() / s_rec.sum()
        top2_src = s_src[:2].sum() / s_src.sum()
        assert top2_rec > top2_src, f"bin {k}: {top2_rec:.4f} <= {top2_src:.4f}"
        margins.append(top2_rec - top2_src)

    # whole-column removal never increases numerical rank
    rng = np.random.default_rng(99)
    for trial in range(100):
        n, m = 14, 12
        if trial % 2:
            X = crandn(rng, n, m)
        else:
            r = int(rng.integers(1, 6))
            X = crandn(rng, n, r) @ crandn(rng, r, m)
        cols = rng.random(m) < rng.uniform(0.3, 0.9)
        if not cols.any():
            cols[0] = True
        sigma_scale = np.linalg.svd(X, compute_uv=False)[0]
        rank_full = int((np.linalg.svd(X, compute_uv=False) > 1e-10 * sigma_scale).sum())
        rank_masked = int((np.linalg.svd(X * cols[None, :], compute_uv=False)
                           > 1e-10 * sigma_scale).sum())
        assert rank_masked <= rank_full
    report(f"criterion 6 PASS: recsrcx top-2 beats srcpair at all "
           f"{len(margins)} in-band bins (min margin {min(margins):.3f}); "
           "column removal never raised rank in 100 trials")


# ----------------------------------------------------------------------- #
# 7. no overfitting with excess rank
# ----------------------------------------------------------------------- #

def test_criterion_7_no_overfitting(altmin_runs):
    snrs = {r: run["snr"] for r, run in altmin_runs.items()}
    spread = max(snrs.values()) - min(snrs.values())
    assert spread <= 3.0, f"SNR spread {spread:.2f} dB across ranks {snrs}"
    report(f"criterion 7 PASS: SNRs {{5: {snrs[5]:.2f}, 10: {snrs[10]:.2f}, "
           f"20: {snrs[20]:.2f}}} dB, spread {spread:.2f} dB")


# ----------------------------------------------------------------------- #
# 8. end-to-end pipeline at desk scale
# ----------------------------------------------------------------------- #

def connectivity_ceiling_db(vol, kept):
    """Information ceiling for block-structured source sampling: only the
    (sy, sx) blocks whose nodes share a component of the kept-source
    bipartite graph are determined by matrix completion."""
    vol = np.moveaxis(vol, -1, 0)
    energy = (np.abs(vol) ** 2).sum(axis=(0, 1, 2))  # (sx, sy)
    n_sx, n_sy = energy.shape
    parent = list(range(n_sy + n_sx))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for sx in range(n_sx):
        for sy in range(n_sy):
            if kept[sx, sy]:
                parent[find(sy)] = find(n_sy + sx)
    determined = sum(energy[sx, sy]
                     for sx in range(n_sx) for sy in range(n_sy)
                     if find(sy) == find(n_sy + sx))
    frac = determined / energy.sum()
    return -10.0 * np.log10(max(1.0 - frac, 1e-300))


def reference_completion_db(vol, mask, cfg):
    """SNR of the convex solution of the same formulation, assembled the
    way the pipeline docstring describes: each in-band positive-frequency
    bin of the real volume's half spectrum is replaced by min ||X||_* s.t.
    ||A(X) - b|| <= eta_fraction ||b|| in the solver's matricization, and
    every other bin passes through as observed.  The nuclear norm is the
    minimum of 1/2 (||L||^2 + ||R||^2) over X = L R^H, so a converged
    factorized run of enough rank should come out close to this."""
    observed = np.moveaxis(dft_time_axis(vol * mask.grid[..., None]), -1, 0)
    nt = vol.shape[-1]
    freqs = freq_values_hz(nt, cfg.dt)
    matric = Matricization(cfg.matricization, *observed.shape[1:])
    omega = matric.unfold(mask.grid)
    out = np.array(observed)
    for k in range(1, (nt + 1) // 2):
        if not cfg.f_min <= freqs[k] <= cfg.f_max:
            continue
        b = matric.unfold(observed[k])
        X = solve_nn_reference(omega, b, cfg.eta_fraction * np.linalg.norm(b))
        out[k] = matric.fold(X)
    estimate = idft_freq_axis(np.moveaxis(out, 0, -1), nt)
    return snr_db(vol, estimate)


@pytest.mark.slow
def test_criterion_8_end_to_end_pipeline(tmp_path):
    spec = EventSpec(n_rx=10, n_ry=10, n_sx=8, n_sy=8, spacing_m=25.0,
                     nt=128, dt=0.004,
                     events=[(0.10, 0.00025, 0.00015, 1.0),
                             (0.22, -0.0002, 0.0003, 0.8),
                             (0.35, 0.0001, 0.0002, 0.6)],
                     wavelet_peak_hz=20.0)
    vol = linear_events(spec)
    # jitter seed chosen (once, frozen) to maximize source-graph coverage;
    # see the ceiling computation below for why this matters
    mask = jittered_volume_mask(10, 10, 8, 8, 0.2, seed=75)
    truth_path = tmp_path / "truth.lrv"
    mask_path = tmp_path / "mask.lrm"
    write_volume(vol, truth_path)
    write_mask(mask, mask_path)
    cfg = PipelineConfig(
        input=str(truth_path), output=str(tmp_path / "out.lrv"),
        mask=str(mask_path), report=str(tmp_path / "report.csv"),
        truth=str(truth_path), solver="pd", f_min=3.0, f_max=70.0, dt=0.004,
        rank=8, eta_fraction=0.03, alpha=0.5, outer_iters=30, inner_iters=1500,
        seed=0, threads=1,
    )
    t0 = time.perf_counter()
    result = run_interpolation(cfg)
    wall = time.perf_counter() - t0

    assert result.failed == 0, f"{result.failed} slices failed"
    assert len(result.rows) == 34  # one row per in-band bin
    assert result.imag_leakage <= 1e-10
    assert wall < 300.0, f"pipeline took {wall:.0f}s"
    for row in result.rows:
        assert row.rel_residual <= 1.01 * cfg.eta_fraction

    t0 = time.perf_counter()
    ref_snr_db = reference_completion_db(vol, mask, cfg)
    ref_wall = time.perf_counter() - t0
    kept = mask.grid[0, 0]
    ceiling = connectivity_ceiling_db(vol, kept)
    report(f"criterion 8: run complete ({wall:.0f}s, 34 slices, "
           f"imag {result.imag_leakage:.1e}), overall SNR "
           f"{result.overall_snr_db:.2f} dB; convex reference "
           f"{ref_snr_db:.2f} dB ({ref_wall:.0f}s); connectivity ceiling at "
           f"this sampling is {ceiling:.2f} dB")
    assert result.overall_snr_db >= ref_snr_db - 1.0, (
        f"overall SNR {result.overall_snr_db:.2f} dB is more than 1 dB below "
        f"the {ref_snr_db:.2f} dB of the convex nuclear-norm solution at the "
        f"same eta (connectivity ceiling {ceiling:.2f} dB)")
    assert result.overall_snr_db <= ceiling, (
        f"overall SNR {result.overall_snr_db:.2f} dB is above the "
        f"{ceiling:.2f} dB that {int(kept.sum())} kept sources can determine "
        f"through the (sy, sx) block graph")


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_criterion_8_instance_meets_budget_at_every_solver_seed(tmp_path, seed):
    # Criterion 8 asserts the residual budget at solver seed 0 only; every
    # slice of the same instance and config must meet it at other seeds too.
    spec = EventSpec(n_rx=10, n_ry=10, n_sx=8, n_sy=8, spacing_m=25.0,
                     nt=128, dt=0.004,
                     events=[(0.10, 0.00025, 0.00015, 1.0),
                             (0.22, -0.0002, 0.0003, 0.8),
                             (0.35, 0.0001, 0.0002, 0.6)],
                     wavelet_peak_hz=20.0)
    truth_path = tmp_path / "truth.lrv"
    mask_path = tmp_path / "mask.lrm"
    write_volume(linear_events(spec), truth_path)
    write_mask(jittered_volume_mask(10, 10, 8, 8, 0.2, seed=75), mask_path)
    cfg = PipelineConfig(
        input=str(truth_path), output=str(tmp_path / "out.lrv"),
        mask=str(mask_path), report=str(tmp_path / "report.csv"),
        solver="pd", f_min=3.0, f_max=70.0, dt=0.004,
        rank=8, eta_fraction=0.03, alpha=0.5, outer_iters=30, inner_iters=1500,
        seed=seed, threads=1,
    )
    result = run_interpolation(cfg)
    assert result.failed == 0
    worst = max(result.rows, key=lambda row: row.rel_residual)
    assert worst.rel_residual <= 1.01 * cfg.eta_fraction, (
        f"seed {seed}: the {worst.freq_hz:.2f} Hz slice ends at relative residual "
        f"{worst.rel_residual:.4f} against a {cfg.eta_fraction} budget")
    report(f"criterion-8 instance, solver seed {seed}: worst relative residual "
           f"{worst.rel_residual:.4f} at {worst.freq_hz:.2f} Hz")


# ----------------------------------------------------------------------- #
# 9. numerical property suite
# ----------------------------------------------------------------------- #

def test_criterion_9_numerical_properties(tmp_path):
    rng = np.random.default_rng(4096)

    # adjoint identity at 1e-10
    grid = rng.random((4, 3, 5, 2)) < 0.6
    grid.flat[0] = True
    mask = SamplingMask(grid, axes=("rx", "ry", "sx", "sy"))
    op = MeasurementOp(mask, Matricization("recsrcx", 4, 3, 5, 2))
    for _ in range(20):
        Z = crandn(rng, *op.factor_shape)
        W = crandn(rng, *op.data_shape)
        lhs = np.vdot(W, op.forward(Z))
        rhs = np.vdot(op.adjoint(W), Z)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    # dual prox nonexpansive
    from lrfill.oracles import _shrink
    for _ in range(50):
        u = crandn(rng, 6, 5)
        v = crandn(rng, 6, 5)
        t = float(rng.uniform(0.1, 2.0))
        assert (np.linalg.norm(_shrink(u, t) - _shrink(v, t))
                <= np.linalg.norm(u - v) + 1e-12)

    # ball projection idempotent
    from lrfill.levelset import project_ball
    for _ in range(25):
        L, R = crandn(rng, 7, 3), crandn(rng, 6, 3)
        L1, R1 = project_ball(L, R, 0.4)
        L2, R2 = project_ball(L1, R1, 0.4)
        np.testing.assert_allclose(L1, L2, atol=1e-12)

    # DFT Parseval at 1e-12, each bin of the half spectrum but 0 Hz and
    # Nyquist counted for itself and its conjugate
    vol = np.moveaxis(crandn(rng, 16, 4, 3).real, 0, -1).reshape(4, 3, 1, 1, 16)
    spec = dft_time_axis(vol)
    norm = np.linalg.norm(vol)
    spec_norm = np.sqrt(2 * np.linalg.norm(spec) ** 2
                        - np.linalg.norm(spec[..., [0, -1]]) ** 2)
    assert abs(spec_norm - norm) <= 1e-12 * norm
    back = idft_freq_axis(spec, 16)
    assert np.linalg.norm(back - vol) <= 1e-12 * norm

    # file roundtrip bit-exact
    path = tmp_path / "v.lrv"
    write_volume(vol, path)
    assert np.array_equal(read_volume(path), vol)

    # factorization inequality on 100 random pairs
    for _ in range(100):
        L, R = crandn(rng, 9, 3), crandn(rng, 8, 3)
        bound = 0.5 * (np.linalg.norm(L) ** 2 + np.linalg.norm(R) ** 2)
        assert bound >= nuclear_norm(L @ R.conj().T) - 1e-10
    report("criterion 9 PASS: adjoints, prox, projection, Parseval, "
           "file roundtrip, factorization bound")
