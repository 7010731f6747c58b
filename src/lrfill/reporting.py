"""Per-slice solve records, the run report CSV, and quality metrics."""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

REPORT_COLUMNS = [
    "freq_hz", "rank", "eta_target", "rel_residual",
    "outer_iters", "inner_iters", "wall_s", "snr_db", "status",
]

SNR_CAP_DB = 300.0


@dataclass
class SliceReport:
    """One row of the run report; ``history`` holds per-iteration
    diagnostics and never reaches the CSV."""

    freq_hz: float = math.nan
    rank: int = 0
    eta_target: float = math.nan
    rel_residual: float = math.nan
    outer_iters: int = 0
    inner_iters: int = 0
    wall_s: float = 0.0
    snr_db: float = math.nan
    status: str = "ok"
    history: list = field(default_factory=list, repr=False, compare=False)

    def row(self) -> dict:
        return {c: getattr(self, c) for c in REPORT_COLUMNS}


def snr_db(truth, estimate) -> float:
    """-20 log10 of the relative Frobenius error; +300 dB for an exact
    match.  An all-zero truth has no meaningful scale and raises.

    On arrays of more than two dimensions the error is summed over the
    leading axis, so no full-size difference is ever held.
    """
    truth = np.asarray(truth)
    estimate = np.asarray(estimate)
    if estimate.shape != truth.shape:
        raise ValueError(f"estimate shape {estimate.shape} != truth shape {truth.shape}")
    tn = float(np.linalg.norm(truth))
    if truth.ndim > 2:
        dn = math.sqrt(sum(float(np.linalg.norm(t - e)) ** 2
                           for t, e in zip(truth, estimate)))
    else:
        dn = float(np.linalg.norm(truth - estimate))
    return snr_from_norms(tn, dn)


def snr_from_norms(truth_norm: float, error_norm: float) -> float:
    """The SNR of :func:`snr_db` from the Frobenius norms of the truth and
    of the error, for a run that sums them block by block."""
    if truth_norm == 0.0:
        raise ValueError("SNR undefined for all-zero truth")
    if error_norm == 0.0:
        return SNR_CAP_DB
    return -20.0 * math.log10(error_norm / truth_norm)


def write_report(path: str | os.PathLike, rows, aggregates: dict | None = None):
    """Write slice rows (sorted by frequency) plus run-level aggregates as
    leading comment lines."""
    rows = sorted(rows, key=lambda r: (math.isnan(r.freq_hz), r.freq_hz))
    with open(path, "w", newline="") as fh:
        for key, value in (aggregates or {}).items():
            fh.write(f"# {key} = {value}\n")
        writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
        writer.writeheader()
        for r in rows:
            writer.writerow(r.row())


def read_report(path: str | os.PathLike):
    """Read a report CSV; returns (rows as dicts with floats parsed,
    aggregates dict).  A CSV whose header lacks any of ``REPORT_COLUMNS``
    is not a run report and raises ``ValueError`` naming the file and the
    columns it lacks."""
    aggregates = {}
    lines = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                aggregates[key.strip()] = value.strip()
            else:
                lines.append(line)
    reader = csv.DictReader(lines)
    missing = [c for c in REPORT_COLUMNS if c not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"{os.fspath(path)}: not a run report, it lacks the "
                         f"columns {', '.join(missing)}")
    rows = []
    for rec in reader:
        parsed = {}
        for key, value in rec.items():
            if key in ("rank", "outer_iters", "inner_iters"):
                parsed[key] = int(value)
            elif key == "status":
                parsed[key] = value
            else:
                parsed[key] = float(value)
        rows.append(parsed)
    return rows, aggregates


def compare_reports(rows_a, rows_b):
    """Join two reports on frequency; per-row SNR and wall-time deltas."""
    by_freq = {round(r["freq_hz"], 9): r for r in rows_b}
    out = []
    for ra in rows_a:
        rb = by_freq.get(round(ra["freq_hz"], 9))
        if rb is None:
            continue
        out.append({
            "freq_hz": ra["freq_hz"],
            "snr_db_a": ra["snr_db"],
            "snr_db_b": rb["snr_db"],
            "snr_delta_db": ra["snr_db"] - rb["snr_db"],
            "wall_s_a": ra["wall_s"],
            "wall_s_b": rb["wall_s"],
            "wall_delta_s": ra["wall_s"] - rb["wall_s"],
        })
    return out


def write_comparison(path: str | os.PathLike, rows):
    cols = ["freq_hz", "snr_db_a", "snr_db_b", "snr_delta_db",
            "wall_s_a", "wall_s_b", "wall_delta_s"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=cols)
        writer.writeheader()
        for r in rows:
            writer.writerow(r)
