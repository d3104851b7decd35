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

import functools
import itertools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .fractal_graph import (
    CELL_MIDPOINT_PAIRS,
    LevelCapError,
    LevelGraph,
    level_graph,
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


@dataclass(frozen=True, slots=True)
class Lineage:
    """Birth data plus the branch choices taken since."""

    birth_level: int
    birth_value: float
    branches: str = ""

    def __post_init__(self):
        if self.birth_value not in FORBIDDEN_VALUES:
            raise ValueError(f"birth value must be one of {FORBIDDEN_VALUES}")
        if self.birth_level < 1 or (self.birth_value == 2.0 and self.birth_level != 1):
            raise ValueError(
                f"no eigenvalue {self.birth_value} is born at level {self.birth_level}"
            )
        if not isinstance(self.branches, str) or self.branches.strip(MINUS + PLUS):
            raise ValueError(f"branches must be a string of '-' and '+', got {self.branches!r}")
        if self.branches and self.branches[0] not in _branches_after(self.birth_value):
            raise ValueError(f"{self.birth_value} does not continue on {self.branches[0]!r}")

    @property
    def level(self) -> int:
        return self.birth_level + len(self.branches)

    def extended(self, branch: str) -> "Lineage":
        return Lineage(self.birth_level, self.birth_value, self.branches + branch)


@dataclass(frozen=True, slots=True)
class EigenvalueRecord:
    value: float
    multiplicity: int
    lineage: Lineage

    @property
    def level(self) -> int:
        return self.lineage.level


@dataclass(frozen=True, eq=False)
class SpectrumTable:
    """The level-m spectrum as read-only columns, one row per record, in
    ascending value order; ``branches`` holds each row's Lineage.branches."""

    #: Column name -> (JSON field, dtype); a row is one record.
    COLUMNS: ClassVar[dict[str, tuple[str, type]]] = {
        "values": ("value", np.float64),
        "multiplicities": ("multiplicity", np.int64),
        "birth_levels": ("birth_level", np.int64),
        "birth_values": ("birth_value", np.float64),
        "branches": ("branches", np.str_),
    }

    level: int
    values: np.ndarray
    multiplicities: np.ndarray
    birth_levels: np.ndarray
    birth_values: np.ndarray
    branches: np.ndarray

    def __post_init__(self):
        for name, (_, dtype) in self.COLUMNS.items():
            column = np.asarray(getattr(self, name), dtype=dtype).view()
            if column.ndim != 1 or len(column) != len(self.values):
                raise ValueError(f"{name} must be one-dimensional and as long as values, "
                                 f"got shape {column.shape}")
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.level == other.level and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in self.COLUMNS
        )

    def _rows(self, rows=slice(None)):
        """The selected rows as tuples of Python scalars, in COLUMNS order."""
        return zip(*(getattr(self, name)[rows].tolist() for name in self.COLUMNS))

    @staticmethod
    def _record(value, multiplicity, birth_level, birth_value, branches):
        return EigenvalueRecord(value, multiplicity, Lineage(birth_level, birth_value, branches))

    @functools.cached_property
    def records(self) -> tuple:
        """The rows as record objects, built on first access."""
        return tuple(self._record(*row) for row in self._rows())

    @property
    def total_multiplicity(self) -> int:
        return int(self.multiplicities.sum())


@dataclass(frozen=True)
class LimitEigenvalue:
    """2 * lim 6^k lam_k along a lineage continued as limit_eigenvalue does."""

    lineage: Lineage
    value: float
    multiplicity: int
    generations_used: int


@dataclass(frozen=True, eq=False)
class LimitTable(SpectrumTable):
    """Limit eigenvalues as columns, read as a sequence of LimitEigenvalue;
    ``branches`` holds the branches continued to the limit and ``level`` is
    the graph level the limits were taken from."""

    COLUMNS: ClassVar[dict[str, tuple[str, type]]] = {
        **SpectrumTable.COLUMNS,
        "generations_used": ("generations_used", np.int64),
    }

    generations_used: np.ndarray

    @staticmethod
    def _record(value, multiplicity, birth_level, birth_value, branches, generations_used):
        return LimitEigenvalue(
            Lineage(birth_level, birth_value, branches), value, multiplicity, generations_used
        )

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i):
        return self.records[i]

    def __iter__(self):
        return iter(self.records)


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


def _children(lam_prev, sqrt=math.sqrt):
    """The minus and plus children 3 -/+ sqrt(9 - lam) of a parent value lam
    <= 9, or of a column of them with sqrt=np.sqrt."""
    root = sqrt(9.0 - lam_prev)
    return lam_prev / (3.0 + root), 3.0 + root


def _child(lam_prev: float, branch: str) -> float:
    """The child of a parent value lam <= 9 on one branch."""
    minus, plus = _children(lam_prev)
    return minus if branch == MINUS else plus


def _branches_after(lam: float) -> str:
    """The branches lam continues on at the next level; the first is taken
    once a lineage's recorded branches run out.  The minus child of 8 is 2,
    which has no eigenfunction at levels >= 2."""
    return PLUS if lam == 8.0 else MINUS + PLUS


#: The values _branches_after continues on PLUS only, for the column steps.
_PLUS_ONLY = [v for v in FORBIDDEN_VALUES if MINUS not in _branches_after(v)]


def decimate_up(lam_prev: float) -> tuple[float, float]:
    """Both children (3 - sqrt(9 - lam), 3 + sqrt(9 - lam)) of a parent value."""
    if lam_prev > 9.0:
        raise ValueError(f"decimate_up needs lam <= 9, got {lam_prev}")
    return _children(lam_prev)


def lineage_value(lineage: Lineage) -> float:
    """Eigenvalue at lineage.level, replayed from the birth value."""
    lam = lineage.birth_value
    for branch in lineage.branches:
        lam = _child(lam, branch)
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


def enumerate_spectrum(m: int) -> SpectrumTable:
    """Complete Dirichlet spectrum of -Delta_m, total multiplicity 2(4^m - 1)."""
    if m < 1:
        raise ValueError(f"the spectrum is enumerated for levels >= 1, got {m}")
    if m > SPECTRUM_LEVEL_CAP:
        raise LevelCapError(f"spectrum enumeration capped at level {SPECTRUM_LEVEL_CAP}, got {m}")
    values = born_at = np.empty(0)
    mults = levels = bits = np.empty(0, np.int64)  # bits: the branches, PLUS = 1, last lowest
    for k in range(1, m + 1):
        # one child per allowed (parent, branch), each parent's MINUS before its PLUS
        allowed = np.column_stack([~np.isin(values, _PLUS_ONLY), np.ones(len(values), bool)])
        parents, plus = np.nonzero(allowed)
        minus_child, plus_child = _children(values[parents], np.sqrt)
        births = {float(v): n for v, n in born_multiplicities(k).items() if n}
        values = np.concatenate([np.where(plus, plus_child, minus_child), list(births)])
        mults = np.concatenate([mults[parents], list(births.values())])
        levels = np.concatenate([levels[parents], [k] * len(births)])
        born_at = np.concatenate([born_at[parents], list(births)])
        bits = np.concatenate([2 * bits[parents] + plus, [0] * len(births)])
    order = np.argsort(values, kind="stable")
    levels, bits = levels[order], bits[order]
    # branch strings one position at a time: branch j of a row with n
    # branches is bit n - 1 - j; positions past n stay NUL, which numpy strips
    lengths = m - levels
    chars = np.zeros((len(bits), m), np.uint32)
    for j in range(m):
        row = lengths > j
        step = (bits[row] >> (lengths[row] - 1 - j)) & 1
        chars[row, j] = np.where(step, ord(PLUS), ord(MINUS))
    branches = chars.view(f"U{m}")[:, 0]
    return SpectrumTable(m, values[order], mults[order], levels, born_at[order], branches)


def _limits(table: SpectrumTable, count: int) -> LimitTable:
    """The ``count`` smallest limits of the table's rows, ascending.

    Each row continues on the first branch _branches_after allows (one plus
    from a value 8, which its lineage carries, then minus) and renormalizes,
    2 * 6^k lam_k, until one more generation moves it by at most
    LIMIT_REL_TOL relatively; each row stops at its own generation.  Raises
    ValueError naming the lineage of the first row still moving after
    LIMIT_GENERATION_CAP generations.
    """
    size = len(table.values)
    limits, generations, pluses = np.empty(size), np.empty(size, np.int64), np.empty(size, np.int64)
    rows, lam, taken = np.arange(size), table.values, np.zeros(size, np.int64)
    power = 6.0 ** table.level
    prev = 2.0 * power * lam
    for gen in range(table.level + 1, table.level + LIMIT_GENERATION_CAP + 1):
        plus = np.isin(lam, _PLUS_ONLY)
        minus_child, plus_child = _children(lam, np.sqrt)
        lam = np.where(plus, plus_child, minus_child)
        taken = taken + plus
        power *= 6.0
        cur = 2.0 * power * lam
        done = np.abs(cur - prev) <= LIMIT_REL_TOL * np.abs(cur)
        stop = rows[done]
        limits[stop], generations[stop], pluses[stop] = cur[done], gen, taken[done]
        moving = ~done
        rows, lam, prev, taken = rows[moving], lam[moving], cur[moving], taken[moving]
        if not len(rows):
            break
    else:
        (_, _, level, born, branches), = table._rows(rows[:1])
        raise ValueError(
            f"the limit of {Lineage(level, born, branches)} did not converge within "
            f"LIMIT_GENERATION_CAP = {LIMIT_GENERATION_CAP} generations"
        )
    rows = np.argsort(limits, kind="stable")[:count]
    continued = np.char.add(table.branches[rows], np.char.multiply(PLUS, pluses[rows]))
    return LimitTable(
        table.level, limits[rows], table.multiplicities[rows], table.birth_levels[rows],
        table.birth_values[rows], continued, generations[rows],
    )


def limit_eigenvalue(record: EigenvalueRecord) -> LimitEigenvalue:
    """The limit of one graph record: limit_spectrum's continuation of a
    one-row table; ValueError if LIMIT_GENERATION_CAP generations do not
    reach LIMIT_REL_TOL."""
    lineage = record.lineage
    row = SpectrumTable(
        record.level, [record.value], [record.multiplicity],
        [lineage.birth_level], [lineage.birth_value], [lineage.branches],
    )
    return _limits(row, 1)[0]


def limit_spectrum(m_birth_max: int, count: int) -> LimitTable:
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
    if count > len(table.values):
        raise ValueError(
            f"only {len(table.values)} lineages have births up to level "
            f"{m_birth_max}; raise m_birth_max for more"
        )
    return _limits(table, count)


def counting_function(spectrum: SpectrumTable, x):
    """N(x): total multiplicity of eigenvalues <= x, an int at a scalar x and
    one count per element at an array x; ValueError at NaN."""
    x = np.asarray(x, dtype=np.float64)
    if np.isnan(x).any():
        raise ValueError("N(x) is not defined at NaN")
    order = np.argsort(spectrum.values, kind="stable")
    totals = np.concatenate([[0], np.cumsum(spectrum.multiplicities[order])])
    counts = totals[np.searchsorted(spectrum.values[order], x, side="right")]
    return int(counts) if counts.ndim == 0 else counts


@dataclass(frozen=True)
class WeylFitDiagnostics:
    n_used: int
    n_total: int
    window: tuple[float, float]
    intercept: float
    rms_log_residual: float


def weyl_fit(limits: SpectrumTable) -> tuple[float, WeylFitDiagnostics]:
    """Least-squares slope of log N(x) against log x over a table of
    eigenvalues, usually limit_spectrum's.

    The lowest decade of eigenvalues and the top 10% of records are
    excluded: the additive O(1) term dominates the bottom and the
    enumeration truncates the top.
    """
    xs = np.sort(limits.values)
    if len(xs) < 100:
        raise ValueError(f"weyl_fit needs at least 100 limit eigenvalues, got {len(xs)}")
    ns = counting_function(limits, xs)
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
        n_total=len(xs),
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
    target = level_graph(u.graph.level + 1, target)
    denom = (2.0 - lambda_m) * (6.0 - lambda_m)

    def midpoints(*cv):
        out = []
        for i, j in CELL_MIDPOINT_PAIRS:
            k, l = (x for x in range(4) if x != i and x != j)
            out.append(((4.0 - lambda_m) * (cv[i] + cv[j]) + 2.0 * (cv[k] + cv[l])) / denom)
        return out

    return VertexFunction(target, refine(u.graph, target, u.values, midpoints))


def born_eigenbasis(
    level: int,
    value: float,
    *,
    graph: LevelGraph | None = None,
    decomposition: _oracle.EigenDecomposition | None = None,
) -> list[VertexFunction]:
    """Orthonormal eigenfunctions for a born eigenvalue, from the oracle.

    Interior kernel vectors of the Dirichlet matrix padded with zero
    boundary values.  A prebuilt graph or decomposition must be of this level.
    """
    g = level_graph(level, graph)
    decomp = decomposition or _oracle.jacobi_eigen(_oracle.assemble(level, graph=g))
    if len(decomp.vectors) != g.n_vertices - 4:
        raise ValueError(f"decomposition of dim {len(decomp.vectors)} is not of level {level}")
    picks = np.nonzero(np.abs(decomp.values - value) < _oracle.CLUSTER_TOL)[0]
    out = []
    for idx in picks:
        vals = np.zeros(g.n_vertices)
        vals[4:] = decomp.vectors[:, idx]
        out.append(VertexFunction(g, vals))
    return out


def eigenfunction_family(
    lineage: Lineage,
    *,
    graphs: dict[int, LevelGraph] | None = None,
    decompositions: dict[int, _oracle.EigenDecomposition] | None = None,
    member: int = 0,
):
    """level -> VertexFunction continuing a lineage, cached.

    Starts from the ``member``-th kernel vector at the birth level and
    extends it through eigenfunction_extend along the recorded branches;
    levels above lineage.level take the first branch _branches_after
    allows, as limit_eigenvalue does for the same lineage.
    """
    lookup = graphs or {}
    birth = lineage.birth_level
    basis = born_eigenbasis(
        birth, lineage.birth_value,
        graph=lookup.get(birth), decomposition=(decompositions or {}).get(birth),
    )
    if not 0 <= member < len(basis):
        raise ValueError(
            f"member {member} is out of range: {lineage} is born with multiplicity {len(basis)}"
        )
    cache = {birth: (basis[member], lineage.birth_value)}

    def at_level(m: int) -> VertexFunction:
        if m < lineage.level:
            raise ValueError(f"lineage starts at level {lineage.level}, got {m}")
        for k in range(max(cache), m):
            u, lam = cache[k]
            lam = _child(lam, lineage.branches[k - birth:k - birth + 1] or _branches_after(lam)[0])
            cache[k + 1] = (eigenfunction_extend(u, lam, target=lookup.get(k + 1)), lam)
        return cache[m][0]

    return at_level


# --- serialization ------------------------------------------------------


def _table_json(table: SpectrumTable):
    """The table's rows as JSON dicts, one field per column, read from the columns."""
    fields = [field for field, _ in table.COLUMNS.values()]
    return (dict(zip(fields, row)) for row in table._rows())


def spectrum_json(table: SpectrumTable) -> dict:
    return {
        "level": table.level,
        "total_multiplicity": table.total_multiplicity,
        "records": list(_table_json(table)),
    }


def spectrum_from_json(data: dict) -> SpectrumTable:
    """Inverse of spectrum_json: the table of the document's level; ValueError
    unless the document is exactly that table's JSON (LevelCapError for a
    level above SPECTRUM_LEVEL_CAP)."""
    if not isinstance(data, dict) or data.keys() != {"level", "total_multiplicity", "records"}:
        raise ValueError("a spectrum document is an object with the keys "
                         "level, total_multiplicity and records, and no others")
    level, stated, records = data["level"], data["total_multiplicity"], data["records"]
    if type(level) is not int or type(stated) is not int:
        raise ValueError(f"level and total_multiplicity must be integers: {level!r}, {stated!r}")
    if not isinstance(records, list) or not all(
        isinstance(r, dict) and type(r.get("multiplicity")) is int for r in records
    ):
        raise ValueError("records must be a list of objects with an integer multiplicity")
    total = sum(r["multiplicity"] for r in records)
    if total != stated:
        raise ValueError(f"multiplicities add up to {total}, not {stated}")
    table = enumerate_spectrum(level)
    for i, (want, got) in enumerate(itertools.zip_longest(_table_json(table), records)):
        # dict == takes 1, 1.0 and true for one another, so each field's type is checked too
        if want == got and all(type(got[k]) is type(v) for k, v in want.items()):
            continue
        differs = ValueError(f"record {i} differs from the level-{table.level} spectrum")
        try:
            lineage = Lineage(got["birth_level"], got["birth_value"], got["branches"])
        except (KeyError, TypeError):  # no record here, or one without a lineage
            raise differs from None
        if lineage.level != table.level:
            raise ValueError(f"record {i}: {lineage} does not end at level {table.level}")
        raise differs
    return table


def limit_spectrum_json(limits: LimitTable) -> dict:
    return {"limit_eigenvalues": list(_table_json(limits))}


def counting_json(spectrum: SpectrumTable) -> dict:
    """The counting function at each eigenvalue, in row order: {points: [[x, N(x)]]}."""
    counts = counting_function(spectrum, spectrum.values)
    return {"points": [[x, n] for x, n in zip(spectrum.values.tolist(), counts.tolist())]}
