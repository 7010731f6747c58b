"""Spans and call counters recorded from outside the program.

Nothing here edits lrfill.  A traced run replaces public names at the place
where their callers look them up (``lrfill.pipeline.read_volume``,
``lrfill.altmin.solve_factor``, the ``forward``/``adjoint`` methods of
``MeasurementOp`` ...) with wrappers, and puts the originals back afterwards.

Each ordinary wrapper records a span: name, start, end and parent.  The two
hot methods ``forward`` and ``adjoint`` run about 285k times per desk run, so
they keep only a call count and summed time per operator object; their time
is still charged to the enclosing span as child time.  A span's self time is
its duration minus the time its child spans and hot calls cover.  The
program runs single-threaded here (``threads = 1``), so children never
overlap and that coverage is a plain sum.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
from time import perf_counter

from kernels import pd_iteration


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "child_s")

    def __init__(self, sid, name, start, parent):
        self.id = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.child_s = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s

    def record(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent}


class Tracer:
    """In-memory span recorder for one process, one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.hot: dict[str, dict] = {}      # name -> {op: [calls, seconds]}
        self.counters: dict[str, float] = {}
        self.orphan_s = 0.0                 # hot-call time outside any span

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    @contextlib.contextmanager
    def span(self, name):
        parent = self.stack[-1] if self.stack else None
        s = Span(len(self.spans), name, perf_counter(),
                 parent.id if parent else None)
        self.spans.append(s)
        self.stack.append(s)
        try:
            yield s
        finally:
            s.end = perf_counter()
            self.stack.pop()
            if parent is not None:
                parent.child_s += s.duration

    def wrap(self, name, fn, observe=None):
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if observe is not None:
                observe(self, args, out)
            return out
        return traced

    def wrap_hot(self, name, method):
        per_op = self.hot.setdefault(name, {})
        stack = self.stack

        def counted(op, *args, **kwargs):
            t0 = perf_counter()
            out = method(op, *args, **kwargs)
            dt = perf_counter() - t0
            rec = per_op.get(op)
            if rec is None:
                rec = per_op[op] = [0, 0.0]
            rec[0] += 1
            rec[1] += dt
            if stack:
                stack[-1].child_s += dt
            else:
                self.orphan_s += dt
            return out
        return counted

    # ------------------------------------------------------------------ #
    # summaries

    def by_name(self) -> dict:
        """name -> {"calls", "s", "self_s"} over spans and hot methods."""
        out: dict[str, dict] = {}
        for s in self.spans:
            rec = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["s"] += s.duration
            rec["self_s"] += s.self_s
        for name, per_op in self.hot.items():
            calls = sum(c for c, _ in per_op.values())
            secs = sum(t for _, t in per_op.values())
            out[name] = {"calls": calls, "s": secs, "self_s": secs}
        return out

    def covered_seconds(self) -> float:
        """Time inside some layer: root spans plus hot calls outside spans."""
        return sum(s.duration for s in self.spans if s.parent is None) + self.orphan_s

    def nesting_errors(self) -> list[str]:
        """Child spans that do not lie inside their parent's interval."""
        errors = []
        for s in self.spans:
            if s.parent is None:
                continue
            p = self.spans[s.parent]
            if not (p.start <= s.start and s.end <= p.end):
                errors.append(f"span {s.id} {s.name} escapes parent {p.id} {p.name}")
        return errors

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.record()) + "\n")


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------- #
# observers: counts read from arguments and return values


def _file_bytes(key, path_arg):
    def observe(tracer, args, out):
        tracer.count(key, os.path.getsize(args[path_arg]))
    return observe


def _observe_solve_factor(tracer, args, out):
    op, _, R = args[:3]
    info = out[2]
    tracer.count("pdsolver.iters", info.iterations)
    tracer.count("pdsolver.converged", int(info.converged))
    flipped = hasattr(op, "base")
    base = op.base if flipped else op
    model = pd_iteration(*op.factor_shape, R.shape[1],
                         identity=base.matricization is None, flipped=flipped)
    tracer.count("computed.pd.bytes", model["bytes"] * info.iterations)
    tracer.count("computed.pd.flops", model["flops"] * info.iterations)


def _observe_interpolate_slice(tracer, args, out):
    rep = out[2]
    tracer.count("altmin.outer_iters", rep.outer_iters)
    tracer.count("altmin.outer_capped", int(rep.outer_iters >= args[2].outer_iters))


def _observe_value_function(tracer, args, out):
    tracer.count("levelset.inner_iters", out[2])


# (module, attribute, span name, observer).  Each attribute is the name a
# caller inside lrfill looks up, not the defining module's copy.
SITES = (
    ("lrfill.cli", "run_interpolation", "pipeline.run_interpolation", None),
    ("lrfill.pipeline", "read_volume", "fileio.read_volume",
     _file_bytes("fileio.read_volume.bytes", 0)),
    ("lrfill.pipeline", "read_mask", "fileio.read_mask", None),
    ("lrfill.pipeline", "write_volume", "fileio.write_volume",
     _file_bytes("fileio.write_volume.bytes", 1)),
    ("lrfill.pipeline", "mask_volume", "pipeline.mask_volume", None),
    ("lrfill.pipeline", "dft_time_axis", "volume.dft_time_axis", None),
    ("lrfill.pipeline", "idft_freq_axis", "volume.idft_freq_axis", None),
    ("lrfill.pipeline", "interpolate_slice", "altmin.interpolate_slice",
     _observe_interpolate_slice),
    ("lrfill.pipeline", "snr_db", "reporting.snr_db", None),
    ("lrfill.pipeline", "write_report", "reporting.write_report", None),
    ("lrfill.altmin", "solve_factor", "pdsolver.solve_factor", _observe_solve_factor),
    ("lrfill.levelset", "value_function", "levelset.value_function",
     _observe_value_function),
)

HOT = (("forward", "transforms.forward"), ("adjoint", "transforms.adjoint"))

# Observers for calls the benchmark makes itself rather than lrfill.
OBSERVERS = {name: obs for _, _, name, obs in SITES if obs is not None}


def install(tracer: Tracer) -> Patches:
    from lrfill.transforms import MeasurementOp

    patches = Patches()
    for module, attr, name, observe in SITES:
        owner = importlib.import_module(module)
        patches.set(owner, attr, tracer.wrap(name, getattr(owner, attr), observe))
    for attr, name in HOT:
        patches.set(MeasurementOp, attr, tracer.wrap_hot(name, getattr(MeasurementOp, attr)))
    return patches
