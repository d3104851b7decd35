"""In-memory span recorder, and spanning wrappers around tetralap's public functions.

A span has a name, a start, an end, a parent span and a job id.  Spans
stay in memory until the run ends.  A span's self time is its duration
minus the time its direct children cover.  Wrappers are installed from
outside the package by rebinding each wrapped function in every
tetralap module that imports it, so calls the package makes to its own
public functions (``limit_spectrum`` calling ``enumerate_spectrum``)
show up as child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int


class Recorder:
    """Spans plus counters, both keyed by metric name."""

    def __init__(self):
        self.spans: list[Span] = []
        self.totals: dict[str, float] = defaultdict(float)  # summed over the run
        self.peaks: dict[str, float] = {}  # largest value seen in the run
        self.job = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.job))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, amount: float) -> None:
        self.totals[name] += amount

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(float(value), self.peaks.get(name, float(value)))

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.end - s.start
            if s.parent is not None:
                out[self.spans[s.parent].name] -= s.end - s.start
        return out

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


class NullSpan:
    """Stand-in for ``span`` when tracing is off."""

    def __init__(self, name: str):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def span_factory(rec: Recorder | None):
    """A context-manager class for spans on ``rec``; a no-op when ``rec`` is None."""
    if rec is None:
        return NullSpan

    class RecordedSpan:
        def __init__(self, name: str):
            self.name = name

        def __enter__(self):
            self.idx = rec.open(self.name)
            return self

        def __exit__(self, *exc):
            rec.close(self.idx)
            return False

    return RecordedSpan


# --- counters taken from return values at the layer boundary -------------


def _graph(rec, g):
    rec.add("fractal_graph.vertices_built", g.n_vertices)
    return g


def _table(rec, table):
    rec.add("decimation.records_enumerated", len(table.records))
    return table


def _limits(rec, limits):
    from tetralap.decimation import LIMIT_GENERATION_CAP

    # generations_used counts absolute levels; a value at the cap cannot
    # be told apart from a silent give-up, so it counts as unconverged
    gens = [l.generations_used for l in limits]
    converged = sum(l.generations_used - l.lineage.level < LIMIT_GENERATION_CAP for l in limits)
    rec.add("decimation.limit.records", len(limits))
    rec.add("decimation.limit.generations_sum", sum(gens))
    rec.add("decimation.limit.converged", converged)
    return limits


def _matrix(rec, a):
    rec.peak("oracle.dim", a.dim)
    return a


def _decomposition(rec, d):
    rec.add("oracle.jacobi.sweeps", d.sweeps)
    rec.peak("oracle.jacobi.off_diag_norm", d.off_diag_norm)
    return d


def _residual(rec, r):
    rec.peak("laplacian.gauss_green.max_residual", abs(r))
    return r


def _family(rec, at_level):
    # the family extends lazily: time each level request under the same name
    span = span_factory(rec)

    @functools.wraps(at_level)
    def traced(m):
        with span("decimation.eigenfunction_family"):
            return at_level(m)

    return traced


#: (module, function, span name, counter hook).  These are the layer
#: boundaries; helpers called per vertex or per record (canonicalize,
#: index_of, decimate_up, counting_function) are left unwrapped so their
#: time stays in the caller's self time.
LAYER_FUNCTIONS = (
    ("fractal_graph", "build_level", "fractal_graph.build_level", _graph),
    ("energy", "harmonize", "energy.harmonize", None),
    ("energy", "energy", "energy.energy", None),
    ("energy", "energy_bilinear", "energy.energy", None),
    ("energy", "cell_restriction", "energy.cell_restriction", None),
    ("laplacian", "interior_laplacian", "laplacian.interior_laplacian", None),
    ("laplacian", "gauss_green_residual", "laplacian.gauss_green_residual", _residual),
    ("laplacian", "normal_derivative", "laplacian.normal_derivative", None),
    ("decimation", "enumerate_spectrum", "decimation.enumerate_spectrum", _table),
    ("decimation", "spectrum_json", "decimation.spectrum_json", None),
    ("decimation", "spectrum_from_json", "decimation.spectrum_from_json", None),
    ("decimation", "limit_spectrum", "decimation.limit_spectrum", _limits),
    ("decimation", "weyl_fit", "decimation.weyl_fit", None),
    ("decimation", "eigenfunction_family", "decimation.eigenfunction_family", _family),
    ("oracle", "assemble", "oracle.assemble", _matrix),
    ("oracle", "jacobi_eigen", "oracle.jacobi_eigen", _decomposition),
)


def install(rec: Recorder):
    """Wrap every LAYER_FUNCTIONS entry wherever tetralap binds it.

    Returns a callable that restores the original bindings.
    """
    span = span_factory(rec)
    modules = [m for n, m in sys.modules.items() if n == "tetralap" or n.startswith("tetralap.")]
    undo = []
    for module, fname, name, hook in LAYER_FUNCTIONS:
        orig = getattr(sys.modules[f"tetralap.{module}"], fname)
        wrapper = _wrap(orig, name, hook, rec, span)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, orig))

    def uninstall():
        for mod, attr, orig in reversed(undo):
            setattr(mod, attr, orig)

    return uninstall


def _wrap(fn, name, hook, rec, span):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with span(name):
            out = fn(*args, **kwargs)
        return hook(rec, out) if hook else out

    return wrapper
