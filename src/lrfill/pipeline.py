"""End-to-end interpolation runs: subsample, transform, solve every
in-band frequency slice, transform back, report.

The run configuration lives in a flat ``key = value`` text file whose keys
are the fields of :class:`PipelineConfig`; every key can be overridden by
the CLI flag of the same name.  Frequency bins outside the band are passed
through as observed (zero-filled where missing) rather than zeroed.  For a
real-valued input volume only the nonnegative-frequency bins are solved;
their mirrors are filled in by conjugation so the output stays real.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, Field, dataclass, field, fields
from typing import get_args, get_type_hints

import numpy as np

from .altmin import OuterConfig, RankSchedule, interpolate_slice, rank_for_frequency
from .fileio import read_mask, read_volume, write_volume
from .levelset import LevelSetConfig, solve_levelset
from .pdsolver import PdConfig
from .reporting import SliceReport, snr_db, write_report
from .sampling import SamplingMask
from .transforms import MODE_REC_SRC_X, MODES, Matricization, MeasurementOp
from .volume import SPATIAL_AXES, ComplexVolume, dft_time_axis, freq_values_hz, idft_freq_axis

CANONICAL_AXES = ("t", "rx", "ry", "sx", "sy")

SOLVERS = ("pd", "levelset")


@dataclass
class PipelineConfig:
    """Settings of one ``interpolate`` run.  The fields are the config-file
    keys and, spelled ``--kebab-case``, the CLI flags.

    ``solver = levelset`` ignores ``alpha`` and ``outer_tol`` (both are
    still checked), reads ``outer_iters`` as a third of its root-find cap
    and ``inner_iters`` as the cap on each value-function evaluation, and
    sets its root tolerance from ``eta_fraction``.
    """

    input: str
    output: str
    mask: str | None = None
    report: str | None = None
    truth: str | None = None
    solver: str = "pd"
    f_min: float = 3.0
    f_max: float = 70.0
    dt: float = 0.004
    rank: int | None = None
    rank_schedule: RankSchedule | None = None
    eta_fraction: float = 0.03
    alpha: float = 0.1
    outer_iters: int = 15
    inner_iters: int = 500
    outer_tol: float = 1e-4
    seed: int = 0
    threads: int = 1
    matricization: str = MODE_REC_SRC_X

    def __post_init__(self):
        if isinstance(self.rank_schedule, str):
            self.rank_schedule = parse_rank_schedule(self.rank_schedule)
        if self.solver not in SOLVERS:
            raise ValueError(f"solver must be one of {SOLVERS}")
        if not 0.0 <= self.f_min < self.f_max:
            raise ValueError("need 0 <= f_min < f_max")
        if (self.rank is None) == (self.rank_schedule is None):
            raise ValueError("give exactly one of rank / rank_schedule")
        if self.rank is not None and self.rank < 1:
            raise ValueError("rank must be at least 1")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError("dt must be a positive finite number")
        if self.matricization not in MODES:
            raise ValueError(f"matricization must be one of {MODES}")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        # The solver settings pass their own checks before any data is read.
        self.outer_config(rank=1, seed=0)

    def outer_config(self, rank: int, seed: int) -> OuterConfig:
        """The alternating solver's settings for one slice."""
        return OuterConfig(rank=rank, eta_fraction=self.eta_fraction, alpha=self.alpha,
                           outer_iters=self.outer_iters, outer_tol=self.outer_tol,
                           seed=seed, pd=PdConfig(max_iters=self.inner_iters))


def parse_kv_file(path) -> dict:
    """Flat ``key = value`` file; '#' starts a comment; repeated keys
    collect into a list."""
    out: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key in out:
                prev = out[key]
                out[key] = prev + [value] if isinstance(prev, list) else [prev, value]
            else:
                out[key] = value
    return out


def parse_rank_schedule(text: str) -> RankSchedule:
    """Schedule syntax ``f_lo:r_lo,f_hi:r_hi`` (Hz and integer ranks)."""
    try:
        lo, hi = text.split(",")
        f_lo, r_lo = lo.split(":")
        f_hi, r_hi = hi.split(":")
        return RankSchedule(float(f_lo), int(r_lo), float(f_hi), int(r_hi))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad rank schedule {text!r}, want 'f:r,f:r'") from exc


def config_parser(f: Field, cls: type = PipelineConfig) -> type:
    """Parser of a value of field ``f`` of ``cls``: ``int`` or ``float``
    when the field is annotated so (alone or ``| None``), else ``str``.  A
    ``rank_schedule`` string is parsed by ``PipelineConfig.__post_init__``."""
    hint = get_type_hints(cls)[f.name]
    return next((t for t in (int, float) if t is hint or t in get_args(hint)), str)


def config_from_dict(raw: dict, cls: type = PipelineConfig, **given):
    """Build the config, or another dataclass of flat settings, from raw
    values keyed by its field names; ``None`` values count as unset.  The
    fields in ``given`` are not keys: their values are passed as they are.
    Unknown, repeated and missing keys raise ``ValueError``."""
    schema = {f.name: f for f in fields(cls) if f.name not in given}
    kwargs = dict(given)
    for key, value in raw.items():
        if value is None:
            continue
        if key not in schema:
            raise ValueError(f"unknown config key {key!r}")
        if isinstance(value, list):
            raise ValueError(f"config key {key!r} given more than once")
        kwargs[key] = config_parser(schema[key], cls)(value)
    missing = [f.name for f in schema.values()
               if f.default is MISSING and f.name not in kwargs]
    if missing:
        raise ValueError(f"config is missing required keys {missing}")
    return cls(**kwargs)


def load_config(path, overrides: dict | None = None) -> PipelineConfig:
    raw = parse_kv_file(path)
    for key, value in (overrides or {}).items():
        if value is not None:
            raw[key] = value
    return config_from_dict(raw)


def mask_volume(vol: ComplexVolume, mask: SamplingMask) -> ComplexVolume:
    """Zero the traces of unobserved grid points (mask is time-invariant)."""
    vol = vol.reordered(_canonical_axes(vol))
    if mask.grid.shape != vol.dims[1:]:
        raise ValueError(
            f"mask grid {mask.grid.shape} does not match spatial dims {vol.dims[1:]}"
        )
    return ComplexVolume(vol.axes, vol.data * mask.grid[None])


def _canonical_axes(vol: ComplexVolume):
    lead = "t" if vol.has_axis("t") else "f"
    return (lead,) + CANONICAL_AXES[1:]


def _norms(data: np.ndarray) -> tuple[float, float]:
    """Frobenius norms of a complex array and of its imaginary part, taken
    on flat views so that neither part is copied."""
    flat = data.reshape(-1)
    imag_sq = float(np.dot(flat.imag, flat.imag))
    return math.sqrt(float(np.dot(flat.real, flat.real)) + imag_sq), math.sqrt(imag_sq)


@dataclass
class RunResult:
    rows: list = field(default_factory=list)
    overall_snr_db: float = math.nan
    imag_leakage: float = math.nan
    wall_s: float = 0.0
    failed: int = 0
    output_path: str = ""


def _solve_one(op, b, freq_hz, rank, cfg: PipelineConfig, bin_index: int):
    seed = int(np.random.SeedSequence([cfg.seed, bin_index]).generate_state(1)[0])
    if cfg.solver == "pd":
        _, X, rep = interpolate_slice(op, b, cfg.outer_config(rank, seed))
    else:
        eta = cfg.eta_fraction * float(np.linalg.norm(b))
        lcfg = LevelSetConfig(
            root_tol=max(cfg.eta_fraction * 0.05, 1e-5),
            max_root_iters=cfg.outer_iters * 3,
            inner_iters=cfg.inner_iters,
            seed=seed,
        )
        _, X, rep = solve_levelset(op, b, eta, rank, lcfg)
    rep.freq_hz = freq_hz
    return X, rep


def run_interpolation(cfg: PipelineConfig) -> RunResult:
    """Execute a full run; writes the completed volume and the report CSV.

    Per-slice failures are recorded in their report row and the run
    continues; the result carries the failure count for the exit code.
    """
    t_run = time.perf_counter()
    # Each stage is dropped as soon as the next one exists, so that at most
    # three full-size arrays are alive at once.
    vol = read_volume(cfg.input).reordered(CANONICAL_AXES)
    extents = vol.dims[1:]
    if cfg.mask is None:
        mask = SamplingMask(np.ones(extents, dtype=bool), axes=SPATIAL_AXES)
    else:
        mask = read_mask(cfg.mask)
    masked = mask_volume(vol, mask)
    del vol

    total, imag = _norms(masked.data)
    real_input = total == 0.0 or imag <= 1e-12 * total

    spec = dft_time_axis(masked)
    del masked
    nt = spec.dims[0]
    freqs = freq_values_hz(nt, cfg.dt)
    op = MeasurementOp(mask, Matricization(cfg.matricization, *extents))
    p, q = op.factor_shape

    truth_spec = None
    if cfg.truth is not None:
        truth_spec = dft_time_axis(read_volume(cfg.truth).reordered(CANONICAL_AXES))

    # The output spectrum starts as the observed one: out-of-band bins pass
    # through.  The workers read their bin from it before any bin is set.
    out_axes, out_data = spec.axes, np.array(spec.data)
    del spec

    in_band = [k for k in range(nt) if cfg.f_min <= abs(freqs[k]) <= cfg.f_max]
    if real_input:
        solve_bins = [k for k in in_band if 0 < k <= nt // 2]
        self_conj = {0, nt // 2} if nt % 2 == 0 else {0}
    else:
        solve_bins = in_band
        self_conj = set()

    def rank_at(f_hz):
        if cfg.rank is not None:
            r = cfg.rank
        else:
            r = rank_for_frequency(cfg.rank_schedule, f_hz)
        return max(1, min(r, p, q))

    fully_observed = bool(op.observed.all())

    def worker(k):
        b = out_data[k]
        freq_hz = abs(float(freqs[k]))
        if fully_observed:
            # Nothing to interpolate: pass the slice through untouched.
            rep = SliceReport(freq_hz=freq_hz, rank=rank_at(freq_hz),
                              eta_target=cfg.eta_fraction * float(np.linalg.norm(b)),
                              rel_residual=0.0, status="ok")
            done = b
        else:
            try:
                X, rep = _solve_one(op, b, freq_hz, rank_at(freq_hz), cfg, k)
                done = op.to_acquisition(X)
            except Exception as exc:  # degrade to the observed data for this slice
                rep = SliceReport(freq_hz=freq_hz, rank=rank_at(freq_hz),
                                  status=f"failed: {type(exc).__name__}")
                done = b
        if truth_spec is not None and rep.status == "ok":
            truth_slice = truth_spec.data[k]
            if np.linalg.norm(truth_slice) > 0:
                rep.snr_db = snr_db(truth_slice, done)
        return k, done, rep

    rows = []
    if cfg.threads == 1:
        results = [worker(k) for k in solve_bins]
    else:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(worker, solve_bins))
    for k, done, rep in results:
        if real_input and k in self_conj:
            done = done.real.astype(np.complex128)
        out_data[k] = done
        if real_input and 0 < k < nt - k:
            out_data[nt - k] = np.conj(done)
        rows.append(rep)

    result = RunResult(rows=rows, output_path=cfg.output)
    result.failed = sum(1 for r in rows if r.status != "ok")
    if truth_spec is not None:
        # The DFT is unitary, so the spectra give the time-domain SNR.
        result.overall_snr_db = snr_db(truth_spec.data, out_data)
        del truth_spec

    out_vol = idft_freq_axis(ComplexVolume(out_axes, out_data))
    del out_data
    write_volume(out_vol, cfg.output)
    out_total, out_imag = _norms(out_vol.data)
    if out_total > 0:
        result.imag_leakage = out_imag / out_total
    result.wall_s = time.perf_counter() - t_run

    if cfg.report is not None:
        aggregates = {
            "overall_snr_db": result.overall_snr_db,
            "imag_leakage": result.imag_leakage,
            "wall_s": result.wall_s,
            "failed": result.failed,
            "solver": cfg.solver,
        }
        write_report(cfg.report, rows, aggregates)
    return result
