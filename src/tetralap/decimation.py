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

import collections
import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .fractal_graph import LevelCapError, LevelGraph, is_integer, level_graph
from .energy import FORBIDDEN_VALUES, VertexFunction, eigenfunction_extend
from . import oracle as _oracle

MINUS, PLUS = "-", "+"

SPECTRUM_LEVEL_CAP = 15

#: Limit iteration policy: stop once one more generation moves the
#: value by less than REL_TOL relatively, give up at GENERATION_CAP.
LIMIT_REL_TOL = 1e-12
LIMIT_GENERATION_CAP = 60

#: Rows checked against Lineage's rules, built as records, compared by
#: spectrum_from_json or written by the CLI, at a time: enough to keep the
#: per-block calls cheap, few enough to keep transient arrays and lists small.
_BLOCK = 4096


def blocks(*columns):
    """(start, slices) for each _BLOCK-row block of the longest column: each
    column's rows start to start + _BLOCK, short or empty past its end."""
    for start in range(0, max(map(len, columns)), _BLOCK):
        yield start, [column[start:start + _BLOCK] for column in columns]


@dataclass(frozen=True, slots=True)
class Lineage:
    """Birth data plus the branch choices taken since."""

    birth_level: int
    birth_value: float
    branches: str = ""

    def __post_init__(self):
        if not is_integer(self.birth_level):
            raise TypeError(f"birth level must be an integer, got {self.birth_level!r}")
        if self.birth_value not in FORBIDDEN_VALUES:
            raise ValueError(f"birth value must be one of {FORBIDDEN_VALUES}")
        if self.birth_level < 1 or (self.birth_value == 2.0 and self.birth_level != 1):
            raise ValueError(
                f"no eigenvalue {self.birth_value} is born at level {self.birth_level}"
            )
        if not isinstance(self.branches, str) or self.branches.strip(MINUS + PLUS):
            _refuse_branches(self.branches)
        if self.branches and self.branches[0] not in _branches_after(self.birth_value):
            raise ValueError(f"{self.birth_value} does not continue on {self.branches[0]!r}")

    @property
    def level(self) -> int:
        return self.birth_level + len(self.branches)


def _refuse_branches(branches):
    raise ValueError(f"branches must be a string of '-' and '+', got {branches!r}")


@dataclass(frozen=True, slots=True)
class EigenvalueRecord:
    value: float
    multiplicity: int
    lineage: Lineage


@dataclass(frozen=True, slots=True)
class LimitEigenvalue(EigenvalueRecord):
    """2 * lim 6^k lam_k along a lineage continued as limit_spectrum does."""

    generations_used: int


@dataclass(frozen=True, eq=False)
class SpectrumTable:
    """The level-m spectrum as read-only columns, one row per record, in
    ascending value order; ``branches`` holds each row's Lineage.branches.
    The table reads as a sequence of ROW records (len, indexing, iteration).
    A column given as an ndarray of its own dtype kind is taken as it is; any
    other is read by its own scalars, of which an integer column takes only
    integers, a float column no bool, string or None, and the branches column
    only str, refusing any other with Lineage's own error.  Past those checks a
    table refuses a row Lineage refuses, with Lineage's own error, an integer
    past int64, a float that is not finite (NaN, an infinity or a number past
    float64) and a multiplicity below 1, so every column is finite."""

    #: Column name -> (JSON field, dtype); a row is one record.
    COLUMNS: ClassVar[dict[str, tuple[str, type]]] = {
        "values": ("value", np.float64),
        "multiplicities": ("multiplicity", np.int64),
        "birth_levels": ("birth_level", np.int64),
        "birth_values": ("birth_value", np.float64),
        "branches": ("branches", np.str_),
    }
    ROW: ClassVar[type] = EigenvalueRecord

    level: int
    values: np.ndarray
    multiplicities: np.ndarray
    birth_levels: np.ndarray
    birth_values: np.ndarray
    branches: np.ndarray

    def __post_init__(self):
        if not is_integer(self.level):
            raise TypeError(f"level must be an integer, got {self.level!r}")
        object.__setattr__(self, "level", int(self.level))
        for name, (field, dtype) in self.COLUMNS.items():
            given, label, kind = getattr(self, name), field.replace("_", " "), np.dtype(dtype).kind
            if not (isinstance(given, np.ndarray) and given.dtype.kind == kind):
                wanted = "an integer" if kind == "i" else "a real number"
                for v in np.asarray(given, dtype=object).ravel().tolist():  # its own scalars
                    if kind == "U":
                        if not isinstance(v, str):  # numpy would turn b"+" and 5 into str
                            _refuse_branches(v)
                    elif (isinstance(v, (bool, np.bool_, str, bytes, type(None)))
                          or kind == "i" and not is_integer(v)):
                        raise TypeError(f"{label} must be {wanted}, got {v!r}")
                    elif kind == "i" and not -2 ** 63 <= v < 2 ** 63:
                        raise ValueError(f"{label} must fit int64, got {v}")
                    elif kind == "f" and not abs(v) <= 1.7976931348623157e308:  # float64's max
                        raise ValueError(f"{label} must be finite and fit float64, got {v!r}")
            column = np.asarray(given, dtype=dtype).view()
            if column.ndim != 1 or len(column) != len(self.values):
                raise ValueError(f"{name} must be one-dimensional and as long as values, "
                                 f"got shape {column.shape}")
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if (least := self.multiplicities.min(initial=1)) < 1:
            raise ValueError(f"multiplicity must be at least 1, got {least}")
        if not np.isfinite(self.values).all():
            raise ValueError(f"value must be finite, got {self.values[~np.isfinite(self.values)][0]}")
        if (self.values[1:] < self.values[:-1]).any():
            raise ValueError("values must ascend")
        for _, block in blocks(self.birth_levels, self.birth_values, self.branches):
            for bad in np.flatnonzero(_lineage_faults(*block))[:1]:
                Lineage(*(column[bad].item() for column in block))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.level == other.level and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in self.COLUMNS
        )

    @property
    def fields(self) -> list[str]:
        """The JSON field of each column, in COLUMNS order."""
        return [field for field, _ in self.COLUMNS.values()]

    def rows(self):
        """The rows as tuples of Python scalars, in COLUMNS order."""
        return zip(*_scalars(getattr(self, name) for name in self.COLUMNS))

    @functools.cached_property
    def records(self) -> tuple:
        """The rows as ROW records, as ROW(value, multiplicity, Lineage(...),
        *rest) makes them, but built a block at a time without __init__ on
        first access, and cached: the table checked every lineage when it was
        made.  The list is sized once, not grown."""
        built = [None] * len(self)
        for start, block in blocks(*(getattr(self, name) for name in self.COLUMNS)):
            value, mult, level, born, branches, *rest = _scalars(block)
            lineages = _new(Lineage, level, born, branches)
            built[start:start + _BLOCK] = _new(self.ROW, value, mult, lineages, *rest)
        return tuple(built)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i):
        return self.records[i]

    def __iter__(self):
        return iter(self.records)

    @property
    def total_multiplicity(self) -> int:
        return int(self.multiplicities.sum())


@dataclass(frozen=True, eq=False)
class LimitTable(SpectrumTable):
    """Limit eigenvalues as columns, read as a sequence of LimitEigenvalue;
    ``branches`` holds the branches continued to the limit and ``level`` is
    the graph level the limits were taken from."""

    COLUMNS: ClassVar[dict[str, tuple[str, type]]] = {
        **SpectrumTable.COLUMNS,
        "generations_used": ("generations_used", np.int64),
    }
    ROW: ClassVar[type] = LimitEigenvalue

    generations_used: np.ndarray


def _constant(value: float, formula: str):
    """A DimensionConstants field: its value, with the formula it is written by."""
    return dataclasses.field(default=value, metadata={"formula": formula})


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

    hausdorff: float = _constant(math.log(4.0) / math.log(2.0), "ln(4)/ln(2)")
    beta: float = _constant(math.log(1.5) / math.log(2.0), "ln(3/2)/ln(2)")
    resistance_dim: float = _constant(math.log(4.0) / math.log(1.5), "ln(4)/ln(3/2)")
    weyl_alpha: float = _constant(math.log(4.0) / math.log(6.0), "ln(4)/ln(6)")

    def as_dict(self) -> dict[str, dict]:
        return {
            f.name: {"value": getattr(self, f.name), "formula": f.metadata["formula"]}
            for f in dataclasses.fields(self)
        }


DIMENSION_CONSTANTS = DimensionConstants()


def _child(lam, plus):
    """The plus child 3 + sqrt(9 - lam) of a parent value lam <= 9 where plus
    holds, else its minus child 3 - sqrt(9 - lam); of one value or a column."""
    root = np.sqrt(9.0 - lam)
    return np.where(plus, 3.0 + root, lam / (3.0 + root))


def _branches_after(lam: float) -> str:
    """The branches lam continues on at the next level; the first is taken
    once a lineage's recorded branches run out.  The minus child of 8 is 2,
    which has no eigenfunction at levels >= 2."""
    return PLUS if lam == 8.0 else MINUS + PLUS


#: The values _branches_after continues on PLUS only, for the column steps.
_PLUS_ONLY = [v for v in FORBIDDEN_VALUES if MINUS not in _branches_after(v)]


#: The birth values a valid row can hold, keyed by value.
_BIRTH_VALUES = {v: v for v in FORBIDDEN_VALUES}


def _scalars(columns) -> list:
    """Columns in COLUMNS order as lists of Python scalars.  The birth values
    share the FORBIDDEN_VALUES floats, so a table holds three birth-value
    objects, not one per row."""
    lists = [column.tolist() for column in columns]
    lists[3] = list(map(_BIRTH_VALUES.get, lists[3], lists[3]))
    return lists


def _lineage_faults(levels, born, branches) -> np.ndarray:
    """Which rows Lineage(level, born, branches) refuses, by the rules of
    Lineage.__post_init__ (an int64 birth level is always an integer)."""
    codes = np.ascontiguousarray(branches, branches.dtype.newbyteorder("="))
    codes = codes.view(np.uint32).reshape(len(branches), branches.itemsize // 4)
    letters = codes != 0  # numpy pads with NULs; a NUL before a letter is real
    return (
        ~np.isin(born, FORBIDDEN_VALUES)
        | (levels < 1)
        | (born == 2.0) & (levels != 1)
        | (letters & (codes != ord(MINUS)) & (codes != ord(PLUS))).any(axis=1)
        | (letters[:, 1:] > letters[:, :-1]).any(axis=1)
        | np.isin(born, _PLUS_ONLY) & (codes[:, 0] == ord(MINUS))
    )


def _new(cls, *columns) -> list:
    """One instance of the slotted dataclass cls per row, its fields taken from
    the columns in field order and set through the slot descriptors, so
    __init__ and its checks do not run."""
    made = list(map(object.__new__, itertools.repeat(cls, len(columns[0]))))
    for field, column in zip(dataclasses.fields(cls), columns):
        collections.deque(map(getattr(cls, field.name).__set__, made, column), maxlen=0)
    return made


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
    mults = levels = np.empty(0, np.int64)
    chars = np.empty((0, m), np.uint8)  # the branches as bytes, NUL past each row's last
    for k in range(1, m + 1):
        # one child per allowed (parent, branch), each parent's MINUS before its PLUS
        allowed = np.column_stack([~np.isin(values, _PLUS_ONLY), np.ones(len(values), bool)])
        parents, plus = np.nonzero(allowed)
        births = {float(v): n for v, n in born_multiplicities(k).items() if n}
        values = np.concatenate([_child(values[parents], plus), list(births)])
        mults = np.concatenate([mults[parents], list(births.values())])
        levels = np.concatenate([levels[parents], [k] * len(births)])
        born_at = np.concatenate([born_at[parents], list(births)])
        chars = np.concatenate([chars[parents], np.zeros((len(births), m), np.uint8)])
        # this level's branch goes at position k - birth_level - 1 of each continued row
        continued = np.arange(len(parents))
        chars[continued, k - levels[continued] - 1] = np.where(plus, ord(PLUS), ord(MINUS))
    order = np.argsort(values, kind="stable")
    branches = chars[order].astype(np.uint32).view(f"U{m}")[:, 0]  # numpy strips the NULs
    return SpectrumTable(m, values[order], mults[order], levels[order], born_at[order], branches)


def _limits(table: SpectrumTable, count: int) -> LimitTable:
    """The ``count`` smallest limits of the table's rows, ascending.

    Each row continues on the first branch _branches_after allows (one plus
    from a value 8, which its lineage carries, then minus) and renormalizes,
    2 * 6^k lam_k, until one more generation moves it by at most
    LIMIT_REL_TOL relatively; each row stops at its own generation.  Raises
    ValueError naming the lineage of the first row still moving after
    LIMIT_GENERATION_CAP generations.
    """
    size = len(table)
    limits, generations = np.empty(size), np.empty(size, np.int64)
    rows, lam = np.arange(size), table.values
    power = 6.0 ** table.level
    prev = 2.0 * power * lam
    for gen in range(table.level + 1, table.level + LIMIT_GENERATION_CAP + 1):
        lam = _child(lam, np.isin(lam, _PLUS_ONLY))
        power *= 6.0
        cur = 2.0 * power * lam
        done = np.abs(cur - prev) <= LIMIT_REL_TOL * np.abs(cur)
        stop = rows[done]
        limits[stop], generations[stop] = cur[done], gen
        moving = ~done
        rows, lam, prev = rows[moving], lam[moving], cur[moving]
        if not len(rows):
            break
    else:
        lineage = Lineage(*(column[rows[0]].item()
                            for column in (table.birth_levels, table.birth_values, table.branches)))
        raise ValueError(
            f"the limit of {lineage} did not converge within "
            f"LIMIT_GENERATION_CAP = {LIMIT_GENERATION_CAP} generations"
        )
    rows = np.argsort(limits, kind="stable")[:count]
    # a plus child (4) and every minus child lie below 8, so only a row starting
    # on a _PLUS_ONLY value takes a plus, on its first step alone
    plus = np.where(np.isin(table.values[rows], _PLUS_ONLY), PLUS, "")
    return LimitTable(
        table.level, limits[rows], table.multiplicities[rows], table.birth_levels[rows],
        table.birth_values[rows], np.char.add(table.branches[rows], plus), generations[rows],
    )


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
    if count > len(table):
        raise ValueError(
            f"only {len(table)} lineages have births up to level "
            f"{m_birth_max}; raise m_birth_max for more"
        )
    return _limits(table, count)


def counting_function(spectrum: SpectrumTable, x):
    """N(x): total multiplicity of eigenvalues <= x, summed along the table's
    ascending rows; an int at a scalar x and one count per element at an
    array x; ValueError at NaN."""
    x = np.asarray(x, dtype=np.float64)
    if np.isnan(x).any():
        raise ValueError("N(x) is not defined at NaN")
    totals = np.concatenate([[0], np.cumsum(spectrum.multiplicities)])
    counts = totals[np.searchsorted(spectrum.values, x, side="right")]
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
    xs = limits.values
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
    allows, as limit_spectrum does for the same lineage.
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
            branch = lineage.branches[k - birth:k - birth + 1] or _branches_after(lam)[0]
            lam = float(_child(lam, branch == PLUS))
            cache[k + 1] = (eigenfunction_extend(u, lam, target=lookup.get(k + 1)), lam)
        return cache[m][0]

    return at_level


# --- serialization ------------------------------------------------------


def spectrum_json(table: SpectrumTable) -> dict:
    return {
        "level": table.level,
        "total_multiplicity": table.total_multiplicity,
        "records": list(map(dict, map(zip, itertools.repeat(table.fields), table.rows()))),
    }


def _field(records, name):
    """The name field of each record, None where it has none."""
    return map(dict.get, records, itertools.repeat(name))


def _typed(column):
    """Each item of a column as a (type, value) pair."""
    return zip(map(type, column), column)


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
    if not (isinstance(records, list) and all(map(isinstance, records, itertools.repeat(dict)))
            and set(map(type, _field(records, "multiplicity"))) <= {int}):
        raise ValueError("records must be a list of objects with an integer multiplicity")
    total = sum(_field(records, "multiplicity"))
    if total != stated:
        raise ValueError(f"multiplicities add up to {total}, not {stated}")
    table = enumerate_spectrum(level)
    fields = table.fields
    for start, (got, *want) in blocks(records, *(getattr(table, name) for name in table.COLUMNS)):
        want = [column.tolist() for column in want]
        # compared column by column: a missing field reads None, which no column
        # holds, and == takes 1, 1.0 and true for one another, so the types are
        # checked too, bar the multiplicities' that the shape pass checked; only
        # a block that fails is searched row by row
        columns = [list(_field(got, field)) for field in fields]
        if set(map(len, got)) == {len(fields)} and columns == want and all(
            set(map(type, column)) == {type(w[0])}
            for field, column, w in zip(fields, columns, want) if field != "multiplicity"
        ):
            continue
        got_rows = zip(map(len, got), *map(_typed, columns))
        want_rows = zip(itertools.repeat(len(fields)), *map(_typed, want))
        i = next(i for i, (g, w) in enumerate(itertools.zip_longest(got_rows, want_rows), start)
                 if g != w)
        differs = ValueError(f"record {i} differs from the level-{table.level} spectrum")
        try:
            lineage = Lineage(records[i]["birth_level"], records[i]["birth_value"],
                              records[i]["branches"])
        except (IndexError, KeyError, TypeError):  # no record here, or one without a lineage
            raise differs from None
        if lineage.level != table.level:
            raise ValueError(f"record {i}: {lineage} does not end at level {table.level}")
        raise differs
    return table
