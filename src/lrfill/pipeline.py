"""End-to-end interpolation runs: transform, mask, solve every in-band
frequency slice, transform the corrections back, report.  The volume is
streamed through blocks of traces, never held whole, and pass 1 reads and
transforms each block of the input once, masking its spectrum.

The run configuration lives in a flat ``key = value`` text file whose keys
are the fields of :class:`PipelineConfig`; every key can be overridden by
the CLI flag of the same name.  Frequency bins outside the band are passed
through as observed (zero-filled where missing) rather than zeroed.  The
run takes real traces: trace-major float64 files, whose half spectra it
solves from 0 Hz to Nyquist.  A file in another axis order or of complex
samples is refused from its header.  In memory a block is a plain float64
array, time last, and its spectrum a complex128 array, frequency last.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, Field, dataclass, field, fields
from typing import get_args, get_type_hints

import numpy as np

from .altmin import OuterConfig, interpolate_slice
from .fileio import create_volume, read_canonical_header, read_mask, read_volume, write_volume
from .levelset import LevelSetConfig, solve_levelset
from .pdsolver import PdConfig
from .reporting import SliceReport, snr_db, snr_from_norms, write_report
from .sampling import SamplingMask
from .transforms import MODE_REC_SRC_X, Matricization, MeasurementOp
from .volume import (
    SPATIAL_AXES,
    buffer_view,
    check_finite,
    dft_time_axis,
    freq_values_hz,
    idft_freq_axis,
)

SOLVERS = ("pd", "levelset")

# Bytes of complex128 samples in one block of traces.  Each pass of a run
# works in buffers of one to one and a half such blocks, of float64 samples
# and their half spectra, allocated once, besides the in-band bins, so this
# bounds the run's memory: pass 1 holds one buffer of each, plus a second
# of half spectra for a truth in another file than the input.  A block is
# read in one call per run of whole traces, one in all when it spans whole
# trailing axes, so a larger block saves few calls.
BLOCK_BYTES = 5 << 20
# Share of the fullest box's traces that a block must hold; see _block_shape.
_BLOCK_FILL = 0.9


@dataclass
class PipelineConfig:
    """Settings of one ``interpolate`` run.  The fields are the config-file
    keys and, spelled ``--kebab-case``, the CLI flags.  The unfolding of
    the slices is not a key: every run unfolds them by ``matricization``,
    the source-receiver unfolding of Kumar et al. (Geophysics 2015), rows
    ``(ry, sy)`` and columns ``(rx, sx)``, which criterion 6 confirms on
    the desk data.  ``rank`` has no default: every bin of a run is solved
    at that one rank, cut to the smaller side of the unfolded slice.

    ``solver = levelset`` ignores ``alpha`` and ``outer_tol`` (both are
    still checked), reads ``outer_iters`` as a third of its root-find cap
    and ``inner_iters`` as the cap on each value-function evaluation, and
    sets its root tolerance from ``eta_fraction``.
    """

    input: str
    output: str
    rank: int
    mask: str | None = None
    report: str | None = None
    truth: str | None = None
    solver: str = "pd"
    f_min: float = 3.0
    f_max: float = 70.0
    dt: float = 0.004
    eta_fraction: float = 0.03
    alpha: float = 0.1
    outer_iters: int = 15
    inner_iters: int = 500
    outer_tol: float = 1e-4
    seed: int = 0
    threads: int = 1
    matricization = MODE_REC_SRC_X

    def __post_init__(self):
        if self.solver not in SOLVERS:
            raise ValueError(f"solver must be one of {SOLVERS}")
        if not 0.0 <= self.f_min < self.f_max:
            raise ValueError("need 0 <= f_min < f_max")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError("dt must be a positive finite number")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not 0.0 <= self.eta_fraction < 1.0:
            raise ValueError("eta_fraction must lie in [0, 1)")
        # The report is written last, over whatever file it names, and the
        # output when the run ends, over the file it names: that may be the
        # input, read by then, but not the mask, a file of another format.
        for name, key in (("report", "input"), ("report", "output"), ("report", "truth"),
                          ("report", "mask"), ("output", "mask")):
            path, data = getattr(self, name), getattr(self, key)
            if path and data and os.path.realpath(data) == os.path.realpath(path):
                raise ValueError(f"{name} {path!r} names the {key} file")
        # The solver settings, the rank among them, pass their own checks
        # before any data is read.
        self.outer_config(rank=self.rank, eta=0.0, seed=0)

    def outer_config(self, rank: int, eta: float, seed: int) -> OuterConfig:
        """The alternating solver's settings for one slice of budget ``eta``."""
        return OuterConfig(rank=rank, eta_target=eta, alpha=self.alpha,
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


def config_parser(f: Field, cls: type = PipelineConfig) -> type:
    """Parser of a value of field ``f`` of ``cls``: ``int`` or ``float``
    when the field is annotated so (alone or ``| None``), else ``str``."""
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


def mask_volume(data: np.ndarray, mask: SamplingMask, block: dict | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
    """Zero the traces of unobserved grid points (mask is time-invariant)
    of ``data``, a trace-major volume, time last.  For a block of a volume,
    ``block`` is the slice per spatial axis that it covers (see
    :func:`trace_blocks`), and the mask is cut to match; a grid that does
    not match the spatial extents raises ``ValueError``.  With ``out``, a
    buffer as for :func:`buffer_view`, the masked volume is written into
    its leading elements, which may be the ones that hold ``data`` (then
    only the unobserved traces are written), and the array returned lies
    over them.  The samples are not checked: zeroing a trace drops
    whatever it held, so they are checked where they are read."""
    grid = mask.grid if block is None else mask.grid[_spatial_index(block)]
    if grid.shape != data.shape[:-1]:
        raise ValueError(
            f"mask grid {grid.shape} does not match spatial dims {data.shape[:-1]}"
        )
    masked = np.empty_like(data) if out is None else buffer_view(out, data.shape)
    masked[...] = data  # nothing to copy when masked already lies over data
    masked[~grid] = 0
    return masked


def _spatial_index(block: dict) -> tuple:
    return tuple(block[a] for a in SPATIAL_AXES)


def _block_shape(extents: tuple, most: int) -> tuple:
    """Extents of a box of at most ``most`` traces of a spatial grid.

    The boxes tried take whole trailing axes, a range of one axis, a range
    of the axis before it and one index of each axis before those.  Of the
    boxes that hold at least ``_BLOCK_FILL`` of the most any of them holds,
    the one read in the fewest contiguous runs of a trace-major file is
    taken, the fuller of equals first: filling the budget keeps the block's
    memory the same whatever the record length, and few runs keep the reads
    few.  A box over whole trailing axes is one run.
    """
    candidates = []
    for j, n in enumerate(extents):
        tail = math.prod(extents[j + 1:])
        for r in range(1, n + 1):
            if r * tail > most:
                break
            lead = (min(extents[j - 1], most // (r * tail)),) if j else ()
            shape = (1,) * max(j - 1, 0) + lead + (r,) + extents[j + 1:]
            runs = 1 if r == n or not lead else lead[0]
            candidates.append((runs, -math.prod(shape), shape))
    fullest = -min(size for _, size, _ in candidates)
    return min(c for c in candidates if -c[1] >= _BLOCK_FILL * fullest)[2]


def trace_blocks(dims: tuple):
    """The blocks that tile a canonical ``(rx, ry, sx, sy, t)`` volume of
    ``dims``, in order, each a slice per spatial axis: a box of whole
    traces, every time sample included, of at most ``BLOCK_BYTES`` of
    complex128 unless one trace is larger.  Generated one at a time, so
    that their number does not cost memory."""
    nt, extents = dims[-1], tuple(dims[:-1])
    shape = _block_shape(extents, max(1, BLOCK_BYTES // (16 * max(nt, 1))))
    ranges = [[slice(a, min(a + b, n)) for a in range(0, n, b)]
              for n, b in zip(extents, shape)]
    for box in itertools.product(*ranges):
        yield dict(zip(SPATIAL_AXES, box))


# Sums of squares by einsum, not BLAS: a threaded BLAS dot can spend
# milliseconds waking its threads, once per block.
def _energy(data: np.ndarray) -> float:
    """Squared Frobenius norm."""
    flat = data.reshape(-1).view(np.float64)
    return float(np.einsum("i,i->", flat, flat))


def _self_conjugate_bins(nt: int) -> list:
    """The bins of the half spectrum of real nt-sample traces that are
    their own conjugates: 0 Hz and, for an even nt, Nyquist.  Each other
    bin stands for itself and its conjugate."""
    return [0, nt // 2] if nt % 2 == 0 else [0]


def _spectrum_energy(spectrum: np.ndarray, nt: int) -> float:
    """Squared Frobenius norm of the full spectrum whose half spectrum,
    along the last axis, ``spectrum`` holds (see
    :func:`_self_conjugate_bins`)."""
    return 2.0 * _energy(spectrum) - _energy(spectrum[..., _self_conjugate_bins(nt)])


@dataclass
class RunResult:
    rows: list = field(default_factory=list)
    overall_snr_db: float = math.nan
    # The output is real; the field stays for the readers of the report.
    imag_leakage: float = 0.0
    wall_s: float = 0.0
    failed: int = 0


def _solve_one(op, b, eta, freq_hz, rank, cfg: PipelineConfig, bin_index: int):
    seed = int(np.random.SeedSequence([cfg.seed, bin_index]).generate_state(1)[0])
    if cfg.solver == "pd":
        _, X, rep = interpolate_slice(op, b, cfg.outer_config(rank, eta, seed))
    else:
        lcfg = LevelSetConfig(
            root_tol=max(cfg.eta_fraction * 0.05, 1e-5),
            max_root_iters=cfg.outer_iters * 3,
            inner_iters=cfg.inner_iters,
            seed=seed,
        )
        _, X, rep = solve_levelset(op, b, eta, rank, lcfg)
    rep.freq_hz = freq_hz
    return X, rep


def _block_buffer(dims: tuple, length: int, kind) -> np.ndarray:
    """A buffer of ``kind`` for ``length`` samples or bins of each trace of
    any block of :func:`trace_blocks`; the first block is the largest,
    since each axis is cut from its start."""
    first = next(trace_blocks(dims))
    return np.empty(length * math.prod(s.stop - s.start for s in first.values()), dtype=kind)


def _read_band(cfg: PipelineConfig, dims: tuple, mask: SamplingMask, in_band: list):
    """Pass 1 of :func:`run_interpolation`: the in-band bins of the masked
    input and of the truth (``None`` without one), bin-major, and the sums
    of squares of the truth and of the output's error in the out-of-band
    bins.  Each block of the input is read once and its half spectrum
    taken unmasked; the mask applies where the spectrum is used: the
    in-band gather zeroes the block's unobserved traces, and the error is
    the truth's spectrum less the input's at the observed traces.  A truth
    that is the input file is that spectrum, with no read of its own; a
    truth in another file is read into the same samples buffer and
    transformed into a second buffer of half spectra.  The buffers are
    allocated once and dropped when the pass returns.
    :func:`read_volume` checks every block it reads for non-finite values,
    and every spectrum is checked here, since a DFT of finite samples can
    overflow, so a bad sample stops the run before any solve."""
    nt, nf = dims[-1], dims[-1] // 2 + 1
    observed = np.empty((len(in_band),) + dims[:-1], dtype=np.complex128)
    truth = None if cfg.truth is None else np.empty_like(observed)
    own_truth = truth is not None and os.path.samefile(cfg.truth, cfg.input)
    inputs = _block_buffer(dims, nt, np.float64)
    spectra = _block_buffer(dims, nf, np.complex128)
    if truth is not None and not own_truth:
        true_spectra = _block_buffer(dims, nf, np.complex128)
    truth_sq = err_sq = 0.0
    for block in trace_blocks(dims):
        box = _spatial_index(block)
        at, grid = (slice(None),) + box, mask.grid[box]
        spectrum = dft_time_axis(read_volume(cfg.input, block, out=inputs), out=spectra)
        check_finite(spectrum)
        observed[at] = np.moveaxis(spectrum[..., in_band], -1, 0)
        observed[at][:, ~grid] = 0.0
        if truth is not None:
            true_spectrum = spectrum
            if not own_truth:
                true_spectrum = dft_time_axis(read_volume(cfg.truth, block, out=inputs),
                                              out=true_spectra)
                check_finite(true_spectrum)
            truth_sq += _spectrum_energy(true_spectrum, nt)
            truth[at] = np.moveaxis(true_spectrum[..., in_band], -1, 0)
            # The output's out-of-band bins are the observed ones, so its
            # error there is the truth less the input at the observed
            # traces: 0 there when the truth is the input.
            np.subtract(true_spectrum, spectrum, out=true_spectrum, where=grid[..., None])
            true_spectrum[..., in_band] = 0.0
            err_sq += _spectrum_energy(true_spectrum, nt)
    return observed, truth, truth_sq, err_sq


def _write_output(cfg: PipelineConfig, dims: tuple, mask: SamplingMask, in_band: list,
                  corrections: np.ndarray):
    """Pass 2 of :func:`run_interpolation`: write the output, the masked
    input plus the inverse DFT of the in-band ``corrections``, block by
    block, as float64 samples.  A block's correction spectrum is built in
    one buffer and inverted into a buffer of samples, and the input is read
    and masked into another.  :func:`read_volume` checks each block it
    reads and :func:`write_volume` each block it writes for non-finite
    values."""
    nt, nf = dims[-1], dims[-1] // 2 + 1
    with create_volume(cfg.output, dims) as partial:
        inputs = _block_buffer(dims, nt, np.float64)
        spectra = _block_buffer(dims, nf, np.complex128)
        fixes = _block_buffer(dims, nt, np.float64)
        for block in trace_blocks(dims):
            part = corrections[(slice(None),) + _spatial_index(block)]
            spectrum = buffer_view(spectra, part.shape[1:] + (nf,))
            spectrum[...] = 0.0
            spectrum[..., in_band] = np.moveaxis(part, 0, -1)
            fix = idft_freq_axis(spectrum, nt, out=fixes)
            total = mask_volume(read_volume(cfg.input, block, out=inputs), mask, block,
                                out=inputs)
            total += fix
            write_volume(total, partial, block=block)


def run_interpolation(cfg: PipelineConfig) -> RunResult:
    """Execute a full run; writes the completed volume and the report CSV.

    The volume is never held whole: the run passes twice over it in the
    blocks of :func:`trace_blocks`, whose time DFT is exact because each
    holds every time sample of its traces.  Pass 1 reads each block of the
    input once, takes the half spectrum of its real traces, bins 0 Hz to
    Nyquist, and keeps the in-band bins of its observed traces, the mask
    applied to the spectrum; a truth that is the input file is that
    spectrum, and a truth in another file is read and transformed block by
    block too.  Each solve turns its bin into its correction (solved minus
    observed) in place; the 0 Hz bin, and the Nyquist bin of an even
    record, are their own conjugates, so their corrections are taken real.
    Pass 2 reads and masks each input block again, adds the inverse DFT of
    its corrections and writes it into its place in the output, so
    out-of-band bins pass through as observed, and the output is real, so
    its ``imag_leakage`` is 0.  The overall error is summed bin by bin,
    out of band in pass 1 and in band by each solve, each bin of a half
    spectrum counted for itself and its conjugate, so that it stays exact
    near a perfect reconstruction.  Each pass works in buffers of one
    block that it allocates once, and pass 1 drops its own before the
    solve.  A block is read one call per contiguous run: one call for a
    block that spans whole trailing axes.  The headers are
    checked before any data is read (see :func:`read_canonical_header`
    and :func:`read_mask`): an input, a truth or a mask that is not
    trace-major, of complex samples or with an extent of 0 stops the run
    there.  The output is written trace-major under a temporary name that
    it takes only when pass 2 ends, so a run that stops early leaves no
    output.

    Per-slice failures are recorded in their report row and the run
    continues; the result carries the failure count for the exit code.
    """
    t_run = time.perf_counter()
    dims = read_canonical_header(cfg.input)
    nt, extents = dims[-1], dims[:-1]
    if cfg.truth is not None:
        truth_dims = read_canonical_header(cfg.truth)
        if truth_dims != dims:
            raise ValueError(f"truth dims {truth_dims} != input dims {dims}")
    if cfg.mask is None:
        mask = SamplingMask(np.ones(extents, dtype=bool), axes=SPATIAL_AXES)
    else:
        mask = read_mask(cfg.mask)
    if mask.grid.shape != extents:
        raise ValueError(f"mask grid {mask.grid.shape} does not match spatial dims {extents}")
    freqs = freq_values_hz(nt, cfg.dt)
    in_band = np.flatnonzero((freqs >= cfg.f_min) & (freqs <= cfg.f_max)).tolist()

    observed, truth, truth_sq, err_sq = _read_band(cfg, dims, mask, in_band)
    if truth is not None and truth_sq == 0.0:
        raise ValueError("SNR undefined for all-zero truth")

    op = MeasurementOp(mask, Matricization(cfg.matricization, *extents))
    rank = min(cfg.rank, *op.factor_shape)
    fully_observed = bool(op.observed.all())
    self_conjugate = _self_conjugate_bins(nt)

    def worker(i):
        # The bin's observed values become its correction, solved minus
        # observed, in place: no two workers write the same slot.
        k = in_band[i]
        b = done = observed[i]
        freq_hz = float(freqs[k])
        eta = cfg.eta_fraction * float(np.linalg.norm(b))
        if fully_observed:
            # Nothing to interpolate: pass the slice through untouched.
            rep = SliceReport(freq_hz=freq_hz, rank=rank, eta_target=eta,
                              rel_residual=0.0, status="ok")
        else:
            try:
                X, rep = _solve_one(op, b, eta, freq_hz, rank, cfg, k)
                done = op.to_acquisition(X)
            except Exception as exc:  # degrade to the observed data for this slice
                rep = SliceReport(freq_hz=freq_hz, rank=rank,
                                  status=f"failed: {type(exc).__name__}")
        own = k in self_conjugate
        if own:  # a real bin of real traces
            done = done.real.astype(np.complex128)
        bin_sq = 0.0
        if truth is not None:
            if rep.status == "ok" and np.linalg.norm(truth[i]) > 0:
                rep.snr_db = snr_db(truth[i], done)
            # Each other bin of a half spectrum stands for its conjugate too.
            bin_sq = (1 if own else 2) * _energy(truth[i] - done)
        observed[i] = done - b
        return rep, bin_sq

    if cfg.threads == 1:
        results = [worker(i) for i in range(len(in_band))]
    else:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(worker, range(len(in_band))))
    # The output's in-band bins are done, so their error completes the sum.
    rows = [rep for rep, _ in results]
    err_sq += sum(bin_sq for _, bin_sq in results)
    corrections = observed
    del observed, truth

    result = RunResult(rows=rows)
    result.failed = sum(1 for r in rows if r.status != "ok")
    if cfg.truth is not None:
        result.overall_snr_db = snr_from_norms(math.sqrt(truth_sq), math.sqrt(err_sq))

    _write_output(cfg, dims, mask, in_band, corrections)
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
