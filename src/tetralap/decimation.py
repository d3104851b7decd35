"""Dirichlet spectrum via spectral decimation.

Eigenvalues of consecutive graph Laplacians obey lam_{m-1} =
lam_m (6 - lam_m), inverted by lam_m = 3 -/+ sqrt(9 - lam_{m-1}).  The
recursion degenerates at {2, 6, 8}, where new eigenvalues are born
instead of continued:

  * level 1 starts with 2, 6, 8 at multiplicities 1, 3, 2;
  * at every level m >= 1, 8 is born with multiplicity 4^m - 2 and 6
    with multiplicity 4^{m-1} + 2;
  * the minus continuation of 8 lands on 2, which is not an eigenvalue
    at levels >= 2 and is pruned; every other record continues through
    both branches with its multiplicity.

The born-6 count deserves a note, since a plausible-looking closed form
4^m circulates: the complete level-m spectrum has total multiplicity
2(4^m - 1) = |V_m \\ V_0|, continuations contribute
2*[2(4^{m-1}-1) - (4^{m-1}-2)] + (4^{m-1}-2) = 3*4^{m-1} - 2 of it, and
born 8 contributes 4^m - 2, which leaves exactly 4^{m-1} + 2 for born 6
(6 at level 2, 18 at level 3).  4^m would overshoot the total; the
dense-oracle kernel dimensions confirm 6 and 18.

Eigenvalues of the limit operator are 2 * lim 6^m lam_m along lineages
that are eventually all-minus.  The minus branch is evaluated as
lam / (3 + sqrt(9 - lam)) -- algebraically identical, but immune to the
cancellation that makes 3 - sqrt(9 - lam) lose digits as lam -> 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .fractal_graph import (
    CELL_MIDPOINT_PAIRS,
    LevelCapError,
    LevelGraph,
    build_level,
    refine,
)
from .energy import VertexFunction
from . import oracle as _oracle

FORBIDDEN_VALUES = (2.0, 6.0, 8.0)
MINUS, PLUS = "-", "+"

SPECTRUM_LEVEL_CAP = 15

#: Limit iteration policy: stop once one more generation moves the
#: value by less than REL_TOL relatively, give up at GENERATION_CAP.
LIMIT_REL_TOL = 1e-12
LIMIT_GENERATION_CAP = 60


class ForbiddenEigenvalueError(ValueError):
    """Extension attempted at a degenerate eigenvalue (2, 6 or 8)."""


@dataclass(frozen=True)
class Lineage:
    """Birth data plus the branch choices taken since."""

    birth_level: int
    birth_value: float
    branches: tuple[str, ...] = ()

    def __post_init__(self):
        if self.birth_value not in FORBIDDEN_VALUES:
            raise ValueError(f"birth value must be one of {FORBIDDEN_VALUES}")
        if any(b not in (MINUS, PLUS) for b in self.branches):
            raise ValueError("branches must be '-' or '+'")

    @property
    def level(self) -> int:
        return self.birth_level + len(self.branches)

    @property
    def branch_string(self) -> str:
        return "".join(self.branches)

    def extended(self, branch: str) -> "Lineage":
        return replace(self, branches=self.branches + (branch,))


@dataclass(frozen=True)
class EigenvalueRecord:
    level: int
    value: float
    multiplicity: int
    lineage: Lineage


@dataclass(frozen=True)
class SpectrumTable:
    level: int
    records: tuple[EigenvalueRecord, ...]

    @property
    def total_multiplicity(self) -> int:
        return sum(r.multiplicity for r in self.records)


@dataclass(frozen=True)
class LimitEigenvalue:
    """2 * lim 6^k lam_k along a lineage continued all-minus forever."""

    lineage: Lineage
    value: float
    multiplicity: int
    generations_used: int


@dataclass(frozen=True)
class DimensionConstants:
    """Scaling exponents of the tetrahedron.

    ``resistance_dim`` solves (2/3)^(m d) = 4^(-m), i.e. cells of
    resistance diameter (2/3)^m carry measure 4^(-m), giving
    d = ln4/ln(3/2) ~ 3.419.  (The inverted ratio ln(3/2)/ln4 ~ 0.29
    sometimes quoted elsewhere would put the counting exponent
    d/(d+1) near 0.23, irreconcilable with the measured slope ~0.77;
    see weyl_fit.)  ``weyl_alpha`` = d/(d+1) = ln4/ln6.
    """

    hausdorff: float = math.log(4.0) / math.log(2.0)
    beta: float = math.log(1.5) / math.log(2.0)
    resistance_dim: float = math.log(4.0) / math.log(1.5)
    weyl_alpha: float = math.log(4.0) / math.log(6.0)

    def as_dict(self) -> dict[str, dict]:
        formulas = {
            "hausdorff": "ln(4)/ln(2)",
            "beta": "ln(3/2)/ln(2)",
            "resistance_dim": "ln(4)/ln(3/2)",
            "weyl_alpha": "ln(4)/ln(6)",
        }
        return {
            name: {"value": getattr(self, name), "formula": formulas[name]}
            for name in formulas
        }


DIMENSION_CONSTANTS = DimensionConstants()


def decimate_down(lam_m: float) -> float:
    """Parent eigenvalue lam_{m-1} = lam_m (6 - lam_m)."""
    return lam_m * (6.0 - lam_m)


def decimate_up(lam_prev: float) -> tuple[float, float]:
    """Both children (3 - sqrt(9 - lam), 3 + sqrt(9 - lam)) of a parent value."""
    if lam_prev > 9.0:
        raise ValueError(f"decimate_up needs lam <= 9, got {lam_prev}")
    root = math.sqrt(9.0 - lam_prev)
    return lam_prev / (3.0 + root), 3.0 + root


def lineage_value(lineage: Lineage) -> float:
    """Eigenvalue at lineage.level, replayed from the birth value."""
    lam = lineage.birth_value
    for branch in lineage.branches:
        lo, hi = decimate_up(lam)
        lam = lo if branch == MINUS else hi
    return lam


def born_multiplicities(m: int) -> dict[int, int]:
    """Multiplicities of the eigenvalues born at level m, keyed 2/6/8."""
    if m < 1:
        raise ValueError(f"births start at level 1, got {m}")
    return {
        2: 1 if m == 1 else 0,
        6: 4 ** (m - 1) + 2,
        8: 4 ** m - 2,
    }


def _born_records(m: int) -> list[EigenvalueRecord]:
    mults = born_multiplicities(m)
    return [
        EigenvalueRecord(m, float(v), mults[v], Lineage(m, float(v)))
        for v in (2, 6, 8)
        if mults[v] > 0
    ]


def enumerate_spectrum(m: int, *, level_cap: int = SPECTRUM_LEVEL_CAP) -> SpectrumTable:
    """Complete Dirichlet spectrum of -Delta_m, total multiplicity 2(4^m - 1)."""
    if m < 1:
        raise ValueError(f"the spectrum is enumerated for levels >= 1, got {m}")
    if m > level_cap:
        raise LevelCapError(f"spectrum enumeration capped at level {level_cap}, got {m}")
    records = _born_records(1)
    for k in range(2, m + 1):
        nxt = []
        for rec in records:
            lo, hi = decimate_up(rec.value)
            if rec.value != 8.0:
                # the minus child of 8 is 2, which has no eigenfunction
                # at levels >= 2; every other record keeps both branches
                nxt.append(
                    EigenvalueRecord(k, lo, rec.multiplicity, rec.lineage.extended(MINUS))
                )
            nxt.append(
                EigenvalueRecord(k, hi, rec.multiplicity, rec.lineage.extended(PLUS))
            )
        nxt.extend(_born_records(k))
        records = nxt
    records.sort(key=lambda r: r.value)
    return SpectrumTable(level=m, records=tuple(records))


def limit_eigenvalue(
    record: EigenvalueRecord,
    *,
    rel_tol: float = LIMIT_REL_TOL,
    generation_cap: int = LIMIT_GENERATION_CAP,
) -> LimitEigenvalue:
    """Continue a graph record all-minus and renormalize to the limit operator."""
    lam = record.value
    power = 6.0 ** record.level
    prev = 2.0 * power * lam
    for gen in range(record.level + 1, record.level + generation_cap + 1):
        lam = lam / (3.0 + math.sqrt(9.0 - lam))
        power *= 6.0
        cur = 2.0 * power * lam
        if abs(cur - prev) <= rel_tol * abs(cur):
            return LimitEigenvalue(record.lineage, cur, record.multiplicity, gen)
        prev = cur
    return LimitEigenvalue(
        record.lineage, prev, record.multiplicity, record.level + generation_cap
    )


def limit_spectrum(m_birth_max: int, count: int) -> list[LimitEigenvalue]:
    """The ``count`` smallest limit eigenvalues over lineages with
    birth level <= m_birth_max, ascending.

    The level-(m_birth_max) table realizes every such lineage whose
    branch choices end by that level; lineages branching later are all
    strictly larger than everything it contains, so the initial segment
    is complete.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    table = enumerate_spectrum(m_birth_max)
    if count > len(table.records):
        raise ValueError(
            f"only {len(table.records)} lineages have births up to level "
            f"{m_birth_max}; raise m_birth_max for more"
        )
    limits = sorted((limit_eigenvalue(r) for r in table.records), key=lambda l: l.value)
    return limits[:count]


def counting_function(spectrum, x: float) -> int:
    """N(x): total multiplicity of eigenvalues <= x."""
    records = spectrum.records if isinstance(spectrum, SpectrumTable) else spectrum
    return sum(r.multiplicity for r in records if r.value <= x)


@dataclass(frozen=True)
class WeylFitDiagnostics:
    n_used: int
    n_total: int
    window: tuple[float, float]
    intercept: float
    rms_log_residual: float


def weyl_fit(limit_values) -> tuple[float, WeylFitDiagnostics]:
    """Least-squares slope of log N(x) against log x.

    The lowest decade of eigenvalues and the top 10% of records are
    excluded: the additive O(1) term dominates the bottom and the
    enumeration truncates the top.
    """
    records = sorted(limit_values, key=lambda r: r.value)
    if len(records) < 100:
        raise ValueError(f"weyl_fit needs at least 100 limit eigenvalues, got {len(records)}")
    xs = np.array([r.value for r in records])
    ns = np.cumsum([r.multiplicity for r in records])
    keep = xs >= 10.0 * xs[0]
    keep &= np.arange(len(xs)) < int(math.floor(0.9 * len(xs)))
    if np.sum(keep) < 2:
        raise ValueError("fit window is empty; enumerate more eigenvalues")
    lx = np.log(xs[keep])
    ln = np.log(ns[keep])
    slope, intercept = np.polyfit(lx, ln, 1)
    rms = float(np.sqrt(np.mean((ln - (slope * lx + intercept)) ** 2)))
    diag = WeylFitDiagnostics(
        n_used=int(np.sum(keep)),
        n_total=len(records),
        window=(float(xs[keep][0]), float(xs[keep][-1])),
        intercept=float(intercept),
        rms_log_residual=rms,
    )
    return float(slope), diag


# --- eigenfunctions -----------------------------------------------------


def eigenfunction_extend(
    u: VertexFunction,
    lambda_m: float,
    *,
    target: LevelGraph | None = None,
) -> VertexFunction:
    """Extend a level-(m-1) Dirichlet eigenfunction to level m.

    Requires lam_m outside {2,6,8} (the per-cell solve divides by
    (2-lam)(6-lam)) and u satisfying -Delta u = lam_m(6-lam_m) u with
    zero boundary values; the result then satisfies -Delta u = lam_m u
    on all of V_m minus V_0.  For the forbidden values there is no
    extension formula: take kernel vectors from the dense oracle
    (born_eigenbasis) instead.
    """
    if min(abs(lambda_m - f) for f in FORBIDDEN_VALUES) < 1e-9:
        raise ForbiddenEigenvalueError(
            f"lam={lambda_m} is degenerate; born eigenfunctions come from the "
            "dense-oracle kernel (born_eigenbasis), not from extension"
        )
    g = u.graph
    if target is None:
        target = build_level(g.level + 1)
    denom = (2.0 - lambda_m) * (6.0 - lambda_m)

    def midpoints(*cv):
        out = []
        for i, j in CELL_MIDPOINT_PAIRS:
            k, l = (x for x in range(4) if x != i and x != j)
            out.append(((4.0 - lambda_m) * (cv[i] + cv[j]) + 2.0 * (cv[k] + cv[l])) / denom)
        return out

    return VertexFunction(target, refine(g, target, u.values, midpoints))


def born_eigenbasis(
    level: int,
    value: float,
    *,
    graph: LevelGraph | None = None,
    decomposition: _oracle.EigenDecomposition | None = None,
) -> list[VertexFunction]:
    """Orthonormal eigenfunctions for a born eigenvalue, from the oracle.

    Interior kernel vectors of the Dirichlet matrix padded with zero
    boundary values.
    """
    g = graph if graph is not None else build_level(level)
    decomp = (
        decomposition
        if decomposition is not None
        else _oracle.jacobi_eigen(_oracle.assemble(level, graph=g))
    )
    picks = np.nonzero(np.abs(decomp.values - value) < _oracle.CLUSTER_TOL)[0]
    out = []
    for idx in picks:
        vals = np.zeros(g.n_vertices)
        vals[4:] = decomp.vectors[:, idx]
        out.append(VertexFunction(g, vals))
    return out


def lineage_eigenfunction(
    lineage: Lineage,
    *,
    graphs: dict[int, LevelGraph] | None = None,
    decompositions: dict[int, _oracle.EigenDecomposition] | None = None,
    member: int = 0,
) -> VertexFunction:
    """One eigenfunction realizing a lineage at its level.

    Starts from the ``member``-th kernel vector at the birth level and
    replays the recorded branch values through eigenfunction_extend.
    """
    lookup = graphs or {}
    birth_graph = lookup.get(lineage.birth_level)
    decomp = (decompositions or {}).get(lineage.birth_level)
    basis = born_eigenbasis(
        lineage.birth_level, lineage.birth_value, graph=birth_graph, decomposition=decomp
    )
    u = basis[member]
    lam = lineage.birth_value
    for branch in lineage.branches:
        lo, hi = decimate_up(lam)
        lam = lo if branch == MINUS else hi
        u = eigenfunction_extend(u, lam, target=lookup.get(u.graph.level + 1))
    return u


def eigenfunction_family(
    lineage: Lineage,
    *,
    graphs: dict[int, LevelGraph] | None = None,
    decompositions: dict[int, _oracle.EigenDecomposition] | None = None,
    member: int = 0,
):
    """level -> VertexFunction continuing a lineage all-minus, cached.

    Levels above lineage.level follow the minus branch, matching the
    limit eigenvalue of limit_eigenvalue for the same lineage.
    """
    lookup = graphs or {}
    base = lineage_eigenfunction(
        lineage, graphs=graphs, decompositions=decompositions, member=member
    )
    cache = {lineage.level: base}
    lams = {lineage.level: lineage_value(lineage)}

    def at_level(m: int) -> VertexFunction:
        if m < lineage.level:
            raise ValueError(f"lineage starts at level {lineage.level}, got {m}")
        top = max(cache)
        for k in range(top + 1, m + 1):
            lams[k], _ = decimate_up(lams[k - 1])
            cache[k] = eigenfunction_extend(
                cache[k - 1], lams[k], target=lookup.get(k)
            )
        return cache[m]

    return at_level


# --- serialization ------------------------------------------------------


def _record_json(r) -> dict:
    """The fields an EigenvalueRecord and a LimitEigenvalue share."""
    return {
        "value": r.value,
        "multiplicity": r.multiplicity,
        "birth_level": r.lineage.birth_level,
        "birth_value": r.lineage.birth_value,
        "branches": r.lineage.branch_string,
    }


def spectrum_json(table: SpectrumTable) -> dict:
    return {
        "level": table.level,
        "total_multiplicity": table.total_multiplicity,
        "records": [_record_json(r) for r in table.records],
    }


def _csv(header: str, rows) -> str:
    """JSON-ready rows as CSV, fields in key order; floats via repr, so they round-trip."""
    lines = [",".join(v if isinstance(v, str) else repr(v) for v in r.values()) for r in rows]
    return "\n".join([header] + lines) + "\n"


def spectrum_csv(table: SpectrumTable) -> str:
    header = "value,multiplicity,birth_level,birth_value,branches"
    return _csv(header, spectrum_json(table)["records"])


def spectrum_from_json(data: dict) -> SpectrumTable:
    records = tuple(
        EigenvalueRecord(
            level=data["level"],
            value=r["value"],
            multiplicity=r["multiplicity"],
            lineage=Lineage(
                birth_level=r["birth_level"],
                birth_value=r["birth_value"],
                branches=tuple(r["branches"]),
            ),
        )
        for r in data["records"]
    )
    return SpectrumTable(level=data["level"], records=records)


def limit_spectrum_json(limits) -> dict:
    return {
        "limit_eigenvalues": [
            {**_record_json(l), "generations_used": l.generations_used} for l in limits
        ]
    }


def limit_spectrum_csv(limits) -> str:
    header = "value,multiplicity,birth_level,birth_value,branches,generations_used"
    return _csv(header, limit_spectrum_json(limits)["limit_eigenvalues"])


def _running_counts(records):
    """(record, total multiplicity up to it) in ascending value order."""
    ordered = sorted(records, key=lambda r: r.value)
    return zip(ordered, itertools.accumulate(r.multiplicity for r in ordered))


def counting_json(spectrum) -> dict:
    """The counting function at each eigenvalue, in record order: {points: [[x, N(x)]]}."""
    records = spectrum.records if isinstance(spectrum, SpectrumTable) else spectrum
    counts = {r.value: n for r, n in _running_counts(records)}  # the last of a tie counts all of x
    return {"points": [[r.value, counts[r.value]] for r in records]}


def counting_csv(spectrum) -> str:
    """CSV of the counting function sampled at each eigenvalue: rows (x, N)."""
    records = spectrum.records if isinstance(spectrum, SpectrumTable) else spectrum
    lines = [f"{r.value!r},{n}" for r, n in _running_counts(records)]
    return "\n".join(["x,N"] + lines) + "\n"
