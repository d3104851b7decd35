"""Spectral decimation: recursion, enumeration, limits, eigenfunctions.

Core claims:
    - every record value is its lineage replayed child by child, bit for
      bit, and R(x) = x(6 - x) walks it back to its birth value
    - born multiplicities are {2:1, 6:3, 8:2}, {6:6, 8:14}, {6:18, 8:62}
    - every level's total multiplicity is 2(4^m - 1), values distinct
    - limit eigenvalues agree with an extended-precision iteration
    - inserting a plus branch strictly increases the limit value
    - decimated eigenfunctions have machine-precision residuals
    - the counting function steps correctly and the log-log fit
      recovers exponents
"""

import dataclasses
import functools
import hashlib
import json
import math

import mpmath as mp
import numpy as np
import pytest

from tetralap import (
    Address,
    ForbiddenEigenvalueError,
    LevelCapError,
    Lineage,
    VertexFunction,
    born_eigenbasis,
    born_multiplicities,
    build_level,
    counting_function,
    eigenfunction_extend,
    eigenfunction_family,
    enumerate_spectrum,
    interior_laplacian,
    limit_spectrum,
    spectrum_from_json,
    spectrum_json,
    weyl_fit,
)
from tetralap import decimation
from tetralap.cli import main
from tetralap.decimation import EigenvalueRecord, LimitTable, SpectrumTable

SQRT3 = math.sqrt(3.0)
SQRT7 = math.sqrt(7.0)


# --- a scalar replay of the recursion ---------------------------------------


def _child(lam, branch):
    """The child of lam on one branch: lam/(3 + sqrt(9 - lam)) on minus,
    3 + sqrt(9 - lam) on plus."""
    root = math.sqrt(9.0 - lam)
    return lam / (3.0 + root) if branch == "-" else 3.0 + root


def _replay(lineage):
    """A lineage's value, walked one scalar child at a time from its birth value."""
    return functools.reduce(_child, lineage.branches, lineage.birth_value)


# --- multiplicities and enumeration ------------------------------------------


def test_born_multiplicities_first_levels():
    assert born_multiplicities(1) == {2: 1, 6: 3, 8: 2}
    assert born_multiplicities(2) == {2: 0, 6: 6, 8: 14}
    assert born_multiplicities(3) == {2: 0, 6: 18, 8: 62}
    with pytest.raises(ValueError):
        born_multiplicities(0)


def test_level1_spectrum():
    table = enumerate_spectrum(1)
    assert [(r.value, r.multiplicity) for r in table.records] == [
        (2.0, 1),
        (6.0, 3),
        (8.0, 2),
    ]
    assert table.total_multiplicity == 6


def test_level2_spectrum():
    table = enumerate_spectrum(2)
    expected = [
        (3.0 - SQRT7, 1),
        (3.0 - SQRT3, 3),
        (4.0, 2),
        (3.0 + SQRT3, 3),
        (3.0 + SQRT7, 1),
        (6.0, 6),
        (8.0, 14),
    ]
    expected.sort()
    got = [(r.value, r.multiplicity) for r in table.records]
    assert len(got) == 7
    for (gv, gm), (ev, em) in zip(got, expected):
        assert gv == pytest.approx(ev, abs=1e-12)
        assert gm == em
    assert table.total_multiplicity == 30


def test_completeness_through_level6():
    for m in range(1, 7):
        table = enumerate_spectrum(m)
        assert table.total_multiplicity == 2 * (4 ** m - 1)


def test_values_sorted_and_distinct():
    for m in (2, 4, 6):
        values = [r.value for r in enumerate_spectrum(m).records]
        assert values == sorted(values)
        gaps = np.diff(values)
        assert np.min(gaps) > 1e-9


def test_values_in_range():
    for r in enumerate_spectrum(6).records:
        assert 0.0 < r.value <= 8.0


def test_lineage_replay_consistency():
    # walking the lineage down reproduces each ancestor value
    for rec in enumerate_spectrum(4).records:
        assert _replay(rec.lineage) == pytest.approx(rec.value, rel=1e-12)
        lam = rec.value
        for _ in rec.lineage.branches:
            lam = lam * (6.0 - lam)
        assert lam == pytest.approx(rec.lineage.birth_value, rel=1e-10, abs=1e-10)


def test_record_values_replay_their_lineages_exactly():
    # the column step and the scalar replay take the same correctly rounded
    # operations, so the branch bookkeeping reproduces every value bit for bit
    for rec in enumerate_spectrum(12).records:
        assert rec.value == _replay(rec.lineage)


def test_spectrum_table_columns():
    for build in (lambda: enumerate_spectrum(6), lambda: limit_spectrum(6, 127)):
        table = build()
        columns = {
            "values": np.float64, "multiplicities": np.int64, "birth_levels": np.int64,
            "birth_values": np.float64,
        }
        if isinstance(table, LimitTable):
            columns["generations_used"] = np.int64
        for name, dtype in columns.items():
            assert getattr(table, name).dtype == dtype
        for name in [*columns, "branches"]:
            column = getattr(table, name)
            with pytest.raises(ValueError):
                column[0] = column[1]
        assert table == build()
        mults = table.multiplicities.copy()
        mults[3] += 1
        assert table != dataclasses.replace(table, multiplicities=mults)
        assert table.records is table.records
        assert [r.lineage.branches for r in table.records] == table.branches.tolist()
    limits = limit_spectrum(6, 127)
    assert list(limits) == list(limits.records) and len(limits) == 127
    # the same five columns as a graph table are not that graph table
    graph = SpectrumTable(
        limits.level, limits.values, limits.multiplicities, limits.birth_levels,
        limits.birth_values, limits.branches,
    )
    assert limits != graph and graph != limits


# sha256 over the columns in COLUMNS order: each numeric column's bytes,
# then the branches joined by newlines
@pytest.mark.parametrize("build, dtype, digest", [
    pytest.param(lambda: enumerate_spectrum(15), "<U15",
                 "2d8b2182d27c4e0df0c1842eda677606d4a4eb93f035700bc0719224195544b3",
                 id="spectrum-15"),
    pytest.param(lambda: limit_spectrum(15, 65535), "<U16",
                 "6f5a1fdf979b9e997d17e0f3985705f427320c1e700ab070beede24cd6248f96",
                 id="limit-15-65535"),
])
def test_tables_at_the_cap_are_pinned(build, dtype, digest):
    table = build()
    assert table.level == decimation.SPECTRUM_LEVEL_CAP
    assert table.branches.dtype == dtype
    sha = hashlib.sha256()
    for name in table.COLUMNS:
        column = getattr(table, name)
        sha.update("\n".join(column.tolist()).encode() if name == "branches" else column.tobytes())
    assert sha.hexdigest() == digest


@pytest.mark.parametrize("build", [
    pytest.param(lambda: enumerate_spectrum(6), id="graph"),
    pytest.param(lambda: limit_spectrum(6, 127), id="limit"),
])
def test_table_items_and_slices_are_the_cached_records(build):
    table = build()
    first, last = table[0], table[-1]
    assert first is table.records[0] and last is table.records[-1]
    assert isinstance(first, EigenvalueRecord)
    assert type(first) is table.ROW
    part, backward = table[3:9], table[::-1]
    assert (first, last) == (table.records[0], table.records[-1])
    assert [table[i] for i in range(-127, 127)] == list(table.records) * 2
    assert table[np.int64(5)] == table.records[5]
    assert part == table.records[3:9] and backward == table.records[::-1]
    assert table[3:9] == table.records[3:9] and table[::-1] == table.records[::-1]
    assert list(table) == list(table.records) and len(table) == 127
    for i in (127, -128):
        with pytest.raises(IndexError):
            table[i]
    with pytest.raises(TypeError):
        table[1.0]


@pytest.mark.parametrize("build", [
    *(pytest.param(functools.partial(enumerate_spectrum, m), id=f"spectrum-{m}")
      for m in range(1, 16)),
    pytest.param(lambda: limit_spectrum(6, 127), id="limit-6-127"),
    pytest.param(lambda: limit_spectrum(15, 65535), id="limit-15-65535"),
])
def test_records_equal_the_per_row_constructor(build):
    # the bulk build skips __init__, so it must give what __init__ gives
    table = build()
    want = [
        table.ROW(v, m, Lineage(bl, bv, br), *rest) for v, m, bl, bv, br, *rest in table.rows()
    ]
    got = table.records
    assert list(got) == want
    assert list(map(type, got)) == list(map(type, want))
    assert list(map(repr, got)) == list(map(repr, want))
    assert list(map(hash, got)) == list(map(hash, want))
    # equal birth values are one float object, not one per row
    assert len({id(r.lineage.birth_value) for r in got}) <= 3


LINEAGE_COLUMNS = ("birth_levels", "birth_values", "branches")


def _error(make):
    """The (type, message) of the exception make() raises."""
    with pytest.raises(Exception) as error:
        make()
    return error.type, str(error.value)


def _with(table, **rows):
    """The table's columns as lists, each named column changed at the given
    {row: value} entries."""
    columns = {name: getattr(table, name).tolist() for name in table.COLUMNS}
    for name, changes in rows.items():
        for i, bad in changes.items():
            columns[name][i] = bad
    return columns


@pytest.mark.parametrize("level, column, row, bad", [
    pytest.param(3, "birth_values", 5, 5.0, id="born-at-5"),
    pytest.param(3, "birth_levels", 5, 0, id="born-at-level-0"),
    pytest.param(3, "birth_levels", 4, 2, id="2-born-at-level-2"),
    pytest.param(3, "branches", 5, "-x", id="branch-x"),
    pytest.param(3, "branches", 5, "-\x00+", id="branch-nul"),
    pytest.param(3, "birth_values", 0, 8.0, id="8-continues-on-minus"),
    pytest.param(12, "birth_values", 4096 + 7, 5.0, id="second-block"),
])
def test_tables_refuse_the_first_bad_lineage_when_made(level, column, row, bad):
    # one fault at row, and another further on (born 2.0 at level 1, now at
    # level -1): construction raises what Lineage raises for the first
    table = enumerate_spectrum(level)
    later = 12 if level == 3 else 8000
    columns = _with(table, **{column: {row: bad}})
    first = _error(lambda: Lineage(*(columns[name][row] for name in LINEAGE_COLUMNS)))
    columns["birth_levels"][later] = -1
    assert first != _error(lambda: Lineage(*(columns[name][later] for name in LINEAGE_COLUMNS)))
    assert _error(lambda: SpectrumTable(level, *columns.values())) == first


def test_tables_refuse_bad_lineages_in_every_form():
    # branches in either byte order are read as character codes
    branches = np.array(["-", "+", "-"], dtype=">U1")
    good = SpectrumTable(2, [1.0, 2.0], [1, 1], [1, 1], [2.0, 8.0], branches[:2])
    assert good.records == (
        EigenvalueRecord(1.0, 1, Lineage(1, 2.0, "-")),
        EigenvalueRecord(2.0, 1, Lineage(1, 8.0, "+")),
    )
    assert _error(
        lambda: SpectrumTable(2, [1.0, 2.0, 3.0], [1, 1, 1], [1, 1, 1], [2.0, 8.0, 8.0], branches)
    ) == _error(lambda: Lineage(1, 8.0, "-"))
    # a limit table, and a copy made by dataclasses.replace, are checked too
    limits = limit_spectrum(6, 127)
    columns = _with(limits, birth_values={3: 5.0})
    replaced = functools.partial(dataclasses.replace, limits, birth_values=columns["birth_values"])
    assert _error(replaced) == _error(
        lambda: Lineage(columns["birth_levels"][3], 5.0, columns["branches"][3])
    )
    columns = _with(limits, birth_levels={9: 0})
    assert _error(lambda: LimitTable(limits.level, *columns.values())) == _error(
        lambda: Lineage(0, columns["birth_values"][9], columns["branches"][9])
    )


@pytest.mark.parametrize("column, bad", [
    pytest.param("birth_levels", 1.5, id="birth-level-1.5"),
    pytest.param("birth_levels", True, id="birth-level-true"),
    pytest.param("multiplicities", 1.5, id="multiplicity-1.5"),
    pytest.param("multiplicities", True, id="multiplicity-true"),
    pytest.param("generations_used", 2.0, id="generations-2.0"),
])
def test_integer_columns_refuse_floats_and_bools(column, bad):
    # a float or bool column would be truncated to an integer one, so a row
    # would read back a birth level or multiplicity it was not given
    limits = limit_spectrum(3, 5)
    columns = {name: getattr(limits, name)[:1].tolist() for name in limits.COLUMNS}
    columns[column] = [bad]
    field = limits.COLUMNS[column][0].replace("_", " ")
    want = TypeError, f"{field} must be an integer, got {bad!r}"
    assert _error(lambda: LimitTable(limits.level, *columns.values())) == want
    if column == "birth_levels":
        assert _error(lambda: Lineage(bad, columns["birth_values"][0])) == want
    # an empty column has no dtype to keep; the empty table is accepted
    assert len(SpectrumTable(1, [], [], [], [], [])) == 0


@pytest.mark.parametrize("column, given, want", [
    pytest.param("multiplicities", [True, 1], "multiplicity must be an integer, got True",
                 id="multiplicity-true-1"),
    pytest.param("birth_levels", [True, 1], "birth level must be an integer, got True",
                 id="birth-level-true-1"),
    pytest.param("values", ["2.0"], "value must be a real number, got '2.0'", id="value-str"),
    pytest.param("values", [True], "value must be a real number, got True", id="value-true"),
    pytest.param("birth_values", ["2.0"], "birth value must be a real number, got '2.0'",
                 id="birth-value-str"),
])
def test_columns_are_read_by_their_own_scalars(column, given, want):
    # numpy reads [True, 1] as int64 and turns "2.0" and True into floats, so
    # how numpy read a list cannot tell whether its scalars are of the column's kind
    columns = {"values": [2.0, 6.0], "multiplicities": [1, 3], "birth_levels": [1, 1],
               "birth_values": [2.0, 6.0], "branches": ["", ""]}
    columns = {name: rows[:len(given)] for name, rows in columns.items()}
    columns[column] = given
    assert _error(lambda: SpectrumTable(1, *columns.values())) == (TypeError, want)
    if column.startswith("birth"):  # Lineage refuses the row too
        with pytest.raises((TypeError, ValueError)):
            Lineage(columns["birth_levels"][0], columns["birth_values"][0])


@pytest.mark.parametrize("bad", [b"", b"+", 5], ids=["bytes-empty", "bytes-plus", "int"])
def test_branches_column_is_read_by_its_own_scalars(bad):
    # numpy would turn each of these into a str; the table refuses it as Lineage does
    want = _error(lambda: Lineage(1, 2.0, bad))
    assert want == (ValueError, f"branches must be a string of '-' and '+', got {bad!r}")
    assert _error(lambda: SpectrumTable(1, [2.0], [1], [1], [2.0], [bad])) == want


@pytest.mark.parametrize("column, given, want", [
    pytest.param("values", [None], (TypeError, "value must be a real number, got None"),
                 id="value-none"),
    pytest.param("birth_values", [None], (TypeError, "birth value must be a real number, got None"),
                 id="birth-value-none"),
    pytest.param("values", [10 ** 400],
                 (ValueError, f"value must be finite and fit float64, got {10 ** 400}"),
                 id="value-past-float64"),
    pytest.param("birth_values", [10 ** 400],
                 (ValueError, f"birth value must be finite and fit float64, got {10 ** 400}"),
                 id="birth-value-past-float64"),
    pytest.param("values", [math.inf], (ValueError, "value must be finite and fit float64, got inf"),
                 id="value-inf"),
    pytest.param("values", np.array([-math.inf]), (ValueError, "value must be finite, got -inf"),
                 id="value-inf-array"),
])
def test_float_columns_are_finite(column, given, want):
    # numpy reads None as NaN and cannot convert 10**400, and a writer would
    # need JSON's Infinity for an infinite value: each is refused by name
    columns = {"values": [2.0], "multiplicities": [1], "birth_levels": [1],
               "birth_values": [2.0], "branches": [""]}
    columns[column] = given
    assert _error(lambda: SpectrumTable(1, *columns.values())) == want


def test_float_columns_take_ints():
    # from a list or from an int64 ndarray, which is not of the float columns' kind
    table = SpectrumTable(1, [2], [1], [1], [2], [""])
    assert table.values.tolist() == table.birth_values.tolist() == [2.0]
    assert SpectrumTable(1, np.array([2]), [1], [1], np.array([2]), [""]) == table


def test_spectrum_table_refuses_multiplicities_below_one_or_past_int64():
    # a uint64 column past int64 would wrap to a negative count, and a
    # negative count would go on into counting_function and the documents
    for mults, want in ((np.array([2 ** 63], np.uint64), "fit int64, got 9223372036854775808"),
                        ([2 ** 64], "fit int64, got 18446744073709551616"),
                        ([-1], "be at least 1, got -1"), ([0], "be at least 1, got 0")):
        with pytest.raises(ValueError, match=f"multiplicity must {want}$"):
            SpectrumTable(1, [2.0], mults, [1], [2.0], [""])
    # numpy reads this list as float64, which must not hide the value past int64
    with pytest.raises(ValueError, match="multiplicity must fit int64, got 9223372036854775808$"):
        SpectrumTable(1, [2.0, 3.0], [2 ** 63, 1], [1, 1], [2.0, 2.0], ["", ""])
    table = SpectrumTable(1, [2.0], np.array([1], np.uint64), [1], [2.0], [""])
    assert table.multiplicities.tolist() == [1]


def test_spectrum_table_refuses_ragged_columns():
    # a second value without a second row would drop out of records and
    # JSON, and counting_function would fail on it with an IndexError
    with pytest.raises(ValueError, match="as long as values"):
        SpectrumTable(1, [1.0, 2.0], [1], [1], [2.0], [""])
    with pytest.raises(ValueError, match="one-dimensional"):
        SpectrumTable(1, [[2.0]], [[1]], [[1]], [[2.0]], [[""]])
    limits = limit_spectrum(3, 5)
    with pytest.raises(ValueError, match="generations_used"):
        dataclasses.replace(limits, generations_used=limits.generations_used[:4])
    # counting_function and weyl_fit take the rows as ascending, so a table
    # refuses values out of order, and NaN, which has no order, with its own message
    for values, want in (([8.0, 2.0], "values must ascend"),
                         ([2.0, math.nan], "value must be finite and fit float64, got nan"),
                         (np.array([math.nan]), "value must be finite, got nan")):
        n = len(values)
        with pytest.raises(ValueError, match=f"^{want}$"):
            SpectrumTable(1, values, [1] * n, [1] * n, [2.0] * n, [""] * n)
    with pytest.raises(ValueError, match="ascend"):
        dataclasses.replace(limits, values=limits.values[::-1])


def test_multiplicity_constant_along_lineage():
    by_lineage = {}
    for m in range(1, 5):
        for r in enumerate_spectrum(m).records:
            key = (r.lineage.birth_level, r.lineage.birth_value)
            by_lineage.setdefault(key, set()).add(r.multiplicity)
    for mults in by_lineage.values():
        assert len(mults) == 1


def test_no_value_two_beyond_level_one():
    for m in (2, 3, 4):
        for r in enumerate_spectrum(m).records:
            assert abs(r.value - 2.0) > 1e-9


def test_lineage_branches_are_one_string():
    lineage = Lineage(1, 2.0, "-+")
    assert lineage.level == 3
    assert _replay(lineage) == _child(_child(2.0, "-"), "+")


@pytest.mark.parametrize("birth_value,branches", [
    (2.0, "-x"), (2.0, ("-",)), (2.0, "+ "),
    (8.0, "-"),  # the minus child of 8 is the pruned value 2
])
def test_lineage_rejects_malformed_branches(birth_value, branches):
    with pytest.raises(ValueError):
        Lineage(1, birth_value, branches)


@pytest.mark.parametrize("birth_level,birth_value", [(0, 6.0), (-2, 8.0), (2, 2.0)])
def test_lineage_rejects_births_that_never_happen(birth_level, birth_value):
    # births start at level 1, and 2 is born at level 1 only
    with pytest.raises(ValueError, match="born at level"):
        Lineage(birth_level, birth_value)


@pytest.mark.parametrize("birth_level,birth_value", [(2.0, 8.0), (1.5, 6.0), (True, 2.0)])
def test_lineage_rejects_birth_levels_that_are_not_integers(birth_level, birth_value):
    # a float level would fail later, inside range(); True would pass as level 1
    with pytest.raises(TypeError, match="birth level must be an integer"):
        Lineage(birth_level, birth_value)


def test_levels_are_stored_as_ints():
    # an np.int64 level would reach the documents, which json cannot write
    assert json.dumps(spectrum_json(enumerate_spectrum(np.int64(3)))) == json.dumps(
        spectrum_json(enumerate_spectrum(3)))
    assert type(limit_spectrum(np.int64(4), 10).level) is int
    assert type(build_level(np.int64(2)).level) is int
    with pytest.raises(TypeError, match="level must be an integer, got True"):
        build_level(True)
    with pytest.raises(TypeError, match="level must be an integer, got 1.0"):
        SpectrumTable(1.0, [2.0], [1], [1], [2.0], [""])


def test_spectrum_level_cap():
    with pytest.raises(LevelCapError):
        enumerate_spectrum(16)
    with pytest.raises(ValueError):
        enumerate_spectrum(0)


# --- limit eigenvalues --------------------------------------------------------


def _limit_mp(birth_value, birth_level, iters=40):
    with mp.workdps(120):
        lam = mp.mpf(birth_value)
        power = mp.mpf(6) ** birth_level
        for _ in range(iters):
            lam = lam / (3 + mp.sqrt(9 - lam))
            power *= 6
        return float(2 * power * lam)


def _record(value, level, mult=1):
    return EigenvalueRecord(value, mult, Lineage(level, value))


def limit_eigenvalue(record):
    """The limit of one graph record: limit_spectrum's column loop over a
    one-row table of it."""
    lineage = record.lineage
    row = SpectrumTable(
        lineage.level, [record.value], [record.multiplicity],
        [lineage.birth_level], [lineage.birth_value], [lineage.branches],
    )
    return decimation._limits(row, 1)[0]


def test_smallest_limit_eigenvalue_matches_extended_precision():
    got = limit_eigenvalue(_record(2.0, 1))
    assert got.value == pytest.approx(_limit_mp(2, 1), rel=1e-11)
    # frozen from the 120-digit iteration
    assert got.value == pytest.approx(25.813339310469095, rel=1e-11)


def test_limit_eigenvalues_for_other_births():
    assert limit_eigenvalue(_record(6.0, 1)).value == pytest.approx(
        _limit_mp(6, 1), rel=1e-11
    )
    assert limit_eigenvalue(_record(6.0, 2)).value == pytest.approx(
        _limit_mp(6, 2), rel=1e-11
    )


def _scaled_replay(value, level, iters):
    lam, power = value, 6.0 ** level
    for _ in range(iters):
        lam = lam / (3.0 + math.sqrt(9.0 - lam))
        power *= 6.0
    return 2.0 * power * lam


def test_two_extra_generations_change_little():
    base = limit_eigenvalue(_record(2.0, 1))
    iters = base.generations_used - 1  # iterations beyond the birth level
    at_stop = _scaled_replay(2.0, 1, iters)
    two_more = _scaled_replay(2.0, 1, iters + 2)
    assert abs(two_more - at_stop) < 1e-12 * abs(at_stop)
    assert at_stop == base.value
    assert base.generations_used <= 60


def test_scaled_graph_values_approach_limit():
    # 2 * 6^m lam_m increases toward the limit; since the minus branch
    # is lam/6 + O(lam^2), the remainder is O(6^m lam_m^2)
    rec = _record(2.0, 1)
    lim = limit_eigenvalue(rec).value
    lam, level = 2.0, 1
    prev_gap = lim - 2.0 * 6.0 ** level * lam
    for _ in range(6):
        lam = _child(lam, "-")
        level += 1
        gap = lim - 2.0 * 6.0 ** level * lam
        assert 0.0 < gap < prev_gap
        assert gap < 6.0 ** level * lam * lam
        prev_gap = gap


def test_limit_eigenvalue_raises_at_generation_cap(monkeypatch):
    assert limit_eigenvalue(_record(2.0, 1)).generations_used > 3
    monkeypatch.setattr(decimation, "LIMIT_GENERATION_CAP", 2)
    for run in (lambda: limit_eigenvalue(_record(2.0, 1)), lambda: limit_spectrum(3, 5)):
        with pytest.raises(ValueError, match=r"the limit of Lineage\(.*LIMIT_GENERATION_CAP = 2"):
            run()


def test_dimension_constants_identity():
    from tetralap import DIMENSION_CONSTANTS as c

    assert abs(c.weyl_alpha - c.resistance_dim / (c.resistance_dim + 1.0)) < 1e-15
    assert c.hausdorff == 2.0
    assert c.beta == pytest.approx(math.log(1.5) / math.log(2.0), rel=1e-15)
    assert c.weyl_alpha == pytest.approx(0.7737056144690831, rel=1e-15)


def test_limit_spectrum_sorted_with_multiplicity():
    limits = limit_spectrum(3, 10)
    values = [l.value for l in limits]
    assert values == sorted(values)
    assert values[0] == pytest.approx(25.813339310469095, rel=1e-11)
    assert all(l.multiplicity >= 1 for l in limits)
    assert len(limits) == 10


@pytest.mark.parametrize("births", range(3, 11))
def test_limit_spectrum_matches_larger_births(births):
    # every limit of the births-B table, the top one (a value 8 born at
    # level B) included, is realized in the same place by births B + 3
    small = limit_spectrum(births, 2 ** (births + 1) - 1)
    large = limit_spectrum(births + 3, 2 ** (births + 4) - 1)
    assert [(l.value, l.multiplicity) for l in small] == [
        (l.value, l.multiplicity) for l in large[:len(small)]
    ]


def _limit_walk(value, level):
    """(limit, generations used, branches added) of one graph value, one
    scalar step at a time: a value 8 takes one '+' (its minus child 2 is
    pruned), then minus steps until one more generation moves the scaled
    value by at most LIMIT_REL_TOL relatively."""
    added = ""
    if value == 8.0:
        value, level, added = 3.0 + math.sqrt(9.0 - value), level + 1, "+"
    iters = 1
    while True:
        cur = _scaled_replay(value, level, iters)
        if abs(cur - _scaled_replay(value, level, iters - 1)) <= decimation.LIMIT_REL_TOL * abs(cur):
            return cur, level + iters, added
        iters += 1


def _limit_row(limit):
    return (limit.value, limit.multiplicity, limit.lineage.branches, limit.generations_used)


@pytest.mark.parametrize("births", [3, 8, 10])
def test_limit_spectrum_matches_scalar_walk(births):
    # both entry points, the whole table and one record at a time
    expected = []
    for rec in enumerate_spectrum(births).records:
        value, generations, added = _limit_walk(rec.value, rec.lineage.level)
        expected.append((value, rec.multiplicity, rec.lineage.branches + added, generations))
        assert _limit_row(limit_eigenvalue(rec)) == expected[-1]
    expected.sort(key=lambda row: row[0])
    limits = limit_spectrum(births, 2 ** (births + 1) - 1)
    assert [_limit_row(l) for l in limits] == expected


def test_limit_spectrum_matches_extended_precision_replay():
    # every row against its lineage replayed at 40 digits: the recorded
    # branches, then 60 minus steps, then 2 * 6^k lam_k
    errors = []
    with mp.workdps(40):
        for limit in limit_spectrum(10, 2047):
            lineage = limit.lineage
            lam = mp.mpf(lineage.birth_value)
            for branch in lineage.branches:
                root = mp.sqrt(9 - lam)
                lam = lam / (3 + root) if branch == "-" else 3 + root
            for _ in range(60):
                lam = lam / (3 + mp.sqrt(9 - lam))
            want = 2 * mp.mpf(6) ** (lineage.level + 60) * lam
            errors.append(float(abs(limit.value - want) / want))
    assert max(errors) <= 2e-13


def test_limit_spectrum_count_guard():
    with pytest.raises(ValueError):
        limit_spectrum(2, 1000)
    with pytest.raises(ValueError):
        limit_spectrum(2, 0)


@pytest.mark.parametrize("births", range(1, 13))
def test_limit_spectrum_is_a_prefix_of_the_full_table(births):
    # limits keep the table's row order, so a count takes the first rows of
    # the full limit table, every column included
    full = limit_spectrum(births, len(enumerate_spectrum(births)))
    for count in (1, 2 ** births, len(full)):
        part = limit_spectrum(births, count)
        for name in LimitTable.COLUMNS:
            assert np.array_equal(getattr(part, name), getattr(full, name)[:count]), (count, name)


def test_limits_refuse_rows_whose_limits_fall_out_of_order():
    # no enumerated table gets here: the minus child of 8.5 (about 2.3) falls
    # below the plus child 4 of 8, and the limits keep the rows' order
    table = SpectrumTable(1, [8.0, 8.5], [1, 1], [1, 1], [8.0, 8.0], ["", ""])
    with pytest.raises(ValueError, match="values must ascend"):
        decimation._limits(table, 2)


def test_plus_branch_strictly_increases_limits():
    # every enumerated lineage with an extra plus branch lands strictly
    # above the minimal continuation of the same birth (all-minus, or
    # plus-then-minus for birth 8 whose minus child is pruned)
    table = enumerate_spectrum(5)
    by_lineage = {
        (r.lineage.birth_level, r.lineage.birth_value, r.lineage.branches): r
        for r in table.records
    }
    for (bl, bv, branches), rec in by_lineage.items():
        if not branches:
            continue
        minimal = "-" * len(branches) if bv != 8.0 else "+" + "-" * (len(branches) - 1)
        if branches == minimal:
            continue
        base = by_lineage[(bl, bv, minimal)]
        assert limit_eigenvalue(rec).value > limit_eigenvalue(base).value


# --- eigenfunctions -----------------------------------------------------------


def _residual(u: VertexFunction, lam: float) -> float:
    interior = list(u.graph.interior)
    res = -interior_laplacian(u) - lam * u.values[interior]
    return float(np.max(np.abs(res)))


def test_extend_explicit_level1_eigenfunction(graphs):
    from tetralap import CELL_MIDPOINT_PAIRS

    g1 = graphs(1)
    values = np.zeros(g1.n_vertices)
    for (i, j) in CELL_MIDPOINT_PAIRS:
        values[g1.index_of(Address((i,), j))] = 1.0
    u = VertexFunction(g1, values)
    lam2 = _child(2.0, "-")
    ext = eigenfunction_extend(u, lam2, target=graphs(2))
    assert _residual(ext, lam2) < 1e-10 * np.max(np.abs(ext.values))


def test_extend_zero_is_zero(graphs):
    u = VertexFunction(graphs(1), np.zeros(10))
    ext = eigenfunction_extend(u, _child(2.0, "-"), target=graphs(2))
    assert np.all(ext.values == 0.0)


def test_extend_eight_to_four(graphs, oracle_decomps):
    basis = born_eigenbasis(1, 8.0, graph=graphs(1), decomposition=oracle_decomps(1))
    assert len(basis) == 2
    for u in basis:
        ext = eigenfunction_extend(u, 4.0, target=graphs(2))
        assert _residual(ext, 4.0) < 1e-10


def test_extend_rejects_forbidden(graphs):
    u = VertexFunction(graphs(1), np.zeros(10))
    for lam in (2.0, 6.0, 8.0):
        with pytest.raises(ForbiddenEigenvalueError):
            eigenfunction_extend(u, lam)


def test_lineage_eigenfunction_residuals(graphs, oracle_decomps):
    decomps = {1: oracle_decomps(1), 2: oracle_decomps(2)}
    lookup = {m: graphs(m) for m in range(5)}
    for rec in enumerate_spectrum(3).records:
        if rec.lineage.birth_level > 2:
            continue
        family = eigenfunction_family(rec.lineage, graphs=lookup, decompositions=decomps)
        u = family(rec.lineage.level)
        assert _residual(u, rec.value) <= 1e-9 * np.max(np.abs(u.values))


@pytest.mark.parametrize("member", [3, -1])
def test_family_rejects_member_out_of_range(graphs, oracle_decomps, member):
    # 6 is born at level 1 with multiplicity 3
    with pytest.raises(ValueError, match="multiplicity 3"):
        eigenfunction_family(
            Lineage(1, 6.0), graphs={1: graphs(1)}, decompositions={1: oracle_decomps(1)},
            member=member,
        )


def test_family_continues_on_the_minus_branch(graphs, oracle_decomps):
    lineage = Lineage(1, 6.0, "+")
    lookup = {m: graphs(m) for m in range(5)}
    family = eigenfunction_family(lineage, graphs=lookup, decompositions={1: oracle_decomps(1)})
    u, lam = family(lineage.level), _replay(lineage)
    for k in (lineage.level + 1, lineage.level + 2):
        lam = _child(lam, "-")
        u = eigenfunction_extend(u, lam, target=graphs(k))
    assert np.array_equal(family(lineage.level + 2).values, u.values)


def test_born_eight_family_continues_on_the_plus_branch(graphs, oracle_decomps):
    # 8 born at level 2 goes on as 4, then minus: its minus child 2 has no
    # eigenfunction at level 3
    lookup = {m: graphs(m) for m in range(5)}
    family = eigenfunction_family(
        Lineage(2, 8.0), graphs=lookup, decompositions={2: oracle_decomps(2)}, member=13
    )
    for lineage in (Lineage(2, 8.0, "+"), Lineage(2, 8.0, "+-")):
        u = family(lineage.level)
        assert _residual(u, _replay(lineage)) <= 1e-9 * np.max(np.abs(u.values))


def test_family_refuses_levels_below_its_lineage(graphs, oracle_decomps):
    family = eigenfunction_family(Lineage(1, 6.0, "+"), graphs={1: graphs(1)},
                                  decompositions={1: oracle_decomps(1)})
    with pytest.raises(ValueError, match="^lineage starts at level 2, got 1$"):
        family(1)


def test_born_eigenbasis_dimensions(graphs, oracle_decomps):
    assert len(born_eigenbasis(1, 2.0, graph=graphs(1), decomposition=oracle_decomps(1))) == 1
    assert len(born_eigenbasis(2, 6.0, graph=graphs(2), decomposition=oracle_decomps(2))) == 6
    assert len(born_eigenbasis(2, 8.0, graph=graphs(2), decomposition=oracle_decomps(2))) == 14


# --- counting function and fit -------------------------------------------------


def test_counting_function_level1():
    table = enumerate_spectrum(1)
    assert counting_function(table, 6.0) == 4
    assert type(counting_function(table, 6.0)) is int
    assert counting_function(table, 1.9) == 0
    assert counting_function(table, 100.0) == 6
    assert counting_function(table, -math.inf) == 0
    assert counting_function(table, math.inf) == 6
    for nan in (math.nan, np.array([1.0, math.nan])):
        with pytest.raises(ValueError, match="NaN"):
            counting_function(table, nan)


def test_counting_function_level2():
    table = enumerate_spectrum(2)
    assert counting_function(table, 8.0) == 30
    assert counting_function(table, 4.0) == 6  # 1 + 3 + 2


def test_counting_function_step_behaviour():
    # the array form counts each x as the scalar form does
    for level in (2, 6):
        table = enumerate_spectrum(level)
        xs = np.stack([table.values - 1e-12, table.values, table.values + 1e-12])
        counts = counting_function(table, xs)
        assert counts.tolist() == [[counting_function(table, x) for x in row] for row in xs.tolist()]
        below, at, above = counts
        assert np.all(below < at) and np.array_equal(at, above)


def test_counting_json_reads_counting_function(capsys):
    # the counting CLI document lists N(x) at each eigenvalue, in row order
    table, limits = enumerate_spectrum(6), limit_spectrum(6, 127)
    runs = (("--level", "6"), ("--limit", "--births", "6", "--count", "127"))
    for spectrum, values, argv in ((table, table.values, runs[0]),
                                   (limits, np.array([l.value for l in limits]), runs[1])):
        counts = counting_function(spectrum, values).tolist()
        assert main(["counting", *argv, "--format", "json"]) == 0
        points = json.loads(capsys.readouterr().out)["points"]
        assert points == [[x, n] for x, n in zip(values.tolist(), counts)]


def test_weyl_fit_recovers_pure_power_law():
    # counts follow N(x) = x^alpha exactly when values are x = N^(1/alpha)
    alpha = 0.61
    ns = np.arange(1, 401, dtype=float)
    n = len(ns)
    fake = LimitTable(1, ns ** (1.0 / alpha), [1] * n, [1] * n, [2.0] * n, [""] * n, [20] * n)
    got, diag = weyl_fit(fake)
    assert got == pytest.approx(alpha, abs=1e-6)
    assert diag.n_used < diag.n_total


def test_weyl_fit_scale_invariant():
    limits = limit_spectrum(6, 127)
    a1, _ = weyl_fit(limits)
    doubled = dataclasses.replace(limits, values=2.0 * limits.values)
    a2, _ = weyl_fit(doubled)
    assert a2 == pytest.approx(a1, abs=1e-12)


def test_weyl_fit_needs_data():
    with pytest.raises(ValueError):
        weyl_fit(limit_spectrum(3, 15))


def test_weyl_fit_refuses_limits_within_one_decade():
    # 100 limits, enough to fit, but none at 10 times the smallest or more
    n = 100
    within = SpectrumTable(1, np.linspace(1.0, 9.9, n), [1] * n, [1] * n, [2.0] * n, [""] * n)
    with pytest.raises(ValueError, match="^fit window is empty; enumerate more eigenvalues$"):
        weyl_fit(within)


# --- serialization --------------------------------------------------------------


def test_spectrum_json_round_trip():
    table = enumerate_spectrum(3)
    assert spectrum_from_json(spectrum_json(table)) == table


def test_spectrum_from_json_rejects_contradictions():
    record = {"value": 1.0, "multiplicity": 1, "birth_level": 1, "birth_value": 2.0,
              "branches": "-"}
    with pytest.raises(ValueError, match="level 3"):
        spectrum_from_json({"level": 3, "total_multiplicity": 1, "records": [record]})
    with pytest.raises(ValueError, match="99"):
        spectrum_from_json({"level": 2, "total_multiplicity": 99, "records": [record]})
    unborn = {**record, "birth_level": 0}  # ends at level 1, but nothing is born at 0
    with pytest.raises(ValueError, match="born at level 0"):
        spectrum_from_json({"level": 1, "total_multiplicity": 1, "records": [unborn]})
    with pytest.raises(ValueError):  # the value of (1, 2.0, "-") at level 2 is not 1.0
        spectrum_from_json({"level": 2, "total_multiplicity": 1, "records": [record]})
    doc = spectrum_json(enumerate_spectrum(2))
    doc["records"][0]["multiplicity"] += 1
    doc["total_multiplicity"] += 1  # consistent with itself, not with level 2
    with pytest.raises(ValueError):
        spectrum_from_json(doc)
    doc = spectrum_json(enumerate_spectrum(2))
    doc["records"][0]["note"] = "extra key"
    with pytest.raises(ValueError):
        spectrum_from_json(doc)
    doc = spectrum_json(enumerate_spectrum(2))
    doc["records"][0]["value"] = repr(doc["records"][0]["value"])  # a string, not the float
    with pytest.raises(ValueError):
        spectrum_from_json(doc)


def _without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


def _with_record0(doc, record):
    return {**doc, "records": [record] + doc["records"][1:]}


def _born8_as_ints(doc):
    """The born-8 record written with int value and birth value (8, not 8.0)."""
    return {**doc, "records": [
        {**r, "value": 8, "birth_value": 8} if r["value"] == 8.0 else r for r in doc["records"]
    ]}


@pytest.mark.parametrize("malform", [
    pytest.param(lambda d: {**d, "note": "extra key"}, id="extra-key"),
    pytest.param(lambda d: _without(d, "level"), id="no-level"),
    pytest.param(lambda d: {**d, "level": 2.0}, id="level-float"),
    pytest.param(lambda d: {**d, "level": "2"}, id="level-string"),
    pytest.param(lambda d: {**d, "level": True}, id="level-bool"),
    pytest.param(lambda d: {**d, "total_multiplicity": 30.0}, id="total-float"),
    pytest.param(lambda d: {**d, "records": None}, id="records-null"),
    pytest.param(lambda d: _with_record0(d, _without(d["records"][0], "multiplicity")),
                 id="record-without-multiplicity"),
    pytest.param(lambda d: _with_record0(d, _without(d["records"][0], "birth_level")),
                 id="record-without-birth-level"),
    pytest.param(lambda d: _with_record0(d, {**d["records"][0], "birth_level": "1"}),
                 id="birth-level-string"),
    pytest.param(lambda d: _with_record0(d, {**d["records"][0], "birth_level": True}),
                 id="birth-level-true"),
    pytest.param(_born8_as_ints, id="born-8-ints"),
    pytest.param(lambda d: _with_record0(d, list(d["records"][0].values())), id="record-list"),
    pytest.param(lambda d: list(d.items()), id="document-list"),
])
def test_spectrum_from_json_rejects_malformed(malform):
    with pytest.raises(ValueError):
        spectrum_from_json(malform(spectrum_json(enumerate_spectrum(2))))


@pytest.fixture(scope="module")
def level15_records():
    return spectrum_json(enumerate_spectrum(15))["records"]


def _edit(records, i, **fields):
    """Record i with fields replaced; a field set to None is dropped."""
    record = {**records[i], **fields}
    return records[:i] + [{k: v for k, v in record.items() if v is not None}] + records[i + 1:]


# records 40000 to 40003 of level 15 are all born at level 1, and 40003 is
# (1, 6.0, "+--++--+--+-++"); the last record is the born-8 one, 65534
@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda rs: _edit(rs, 40002, birth_value=8), "record 40002 differs",
                 id="int-for-float"),
    pytest.param(lambda rs: _edit(rs, 40000, birth_level=True), "record 40000 differs",
                 id="true-for-int"),
    pytest.param(lambda rs: _edit(rs, 40001, multiplicity=2 ** 70), "record 40001 differs",
                 id="huge-multiplicity"),
    pytest.param(lambda rs: _edit(rs, 40003, branches="+--++--+--+-+-"), "record 40003 differs",
                 id="branch-changed"),
    pytest.param(lambda rs: _edit(rs, 40003, branches="+--++--+--+-+"),
                 "record 40003: Lineage(birth_level=1, birth_value=6.0, "
                 "branches='+--++--+--+-+') does not end at level 15", id="branch-dropped"),
    pytest.param(lambda rs: _edit(rs, 40000, value=None), "record 40000 differs",
                 id="missing-value"),
    pytest.param(lambda rs: _edit(rs, 40000, branches=None), "record 40000 differs",
                 id="missing-branches"),
    pytest.param(lambda rs: _edit(rs, 40000, note="extra key"), "record 40000 differs",
                 id="extra-key"),
    pytest.param(lambda rs: _edit(_edit(rs, 60000, value=0.5), 40000, value=0.5),
                 "record 40000 differs", id="first-of-two"),
    pytest.param(lambda rs: _edit(rs, 4095, value=0.5), "record 4095 differs",
                 id="last-of-first-block"),
    pytest.param(lambda rs: _edit(rs, 4096, value=0.5), "record 4096 differs",
                 id="first-of-second-block"),
    pytest.param(lambda rs: _edit(rs, 8191, value=0.5), "record 8191 differs",
                 id="last-of-second-block"),
    pytest.param(lambda rs: rs[:40000] + [list(rs[40000].values())] + rs[40001:],
                 "records must be a list of objects with an integer multiplicity",
                 id="record-list"),
    pytest.param(lambda rs: _edit(rs, 40000, multiplicity=2.0),
                 "records must be a list of objects with an integer multiplicity",
                 id="float-multiplicity"),
    pytest.param(lambda rs: _edit(rs, 40000, multiplicity=True),
                 "records must be a list of objects with an integer multiplicity",
                 id="true-multiplicity"),
    pytest.param(lambda rs: rs[:-1], "record 65534 differs", id="one-short"),
    pytest.param(lambda rs: rs + rs[-1:], "record 65535 differs", id="one-long"),
    pytest.param(lambda rs: rs + [{**rs[-1], "birth_level": 14}],
                 "record 65535: Lineage(birth_level=14, birth_value=8.0, branches='') "
                 "does not end at level 15", id="one-long-other-level"),
])
def test_spectrum_from_json_names_the_first_differing_record(level15_records, edit, message):
    records = edit(level15_records)
    # an integer total that the records state, so that only the records are refused
    total = sum(int(r["multiplicity"]) for r in records if isinstance(r, dict))
    doc = {"level": 15, "total_multiplicity": total, "records": records}
    with pytest.raises(ValueError) as excinfo:
        spectrum_from_json(doc)
    if message.endswith(" differs"):
        message += " from the level-15 spectrum"
    assert str(excinfo.value) == message


def test_spectrum_from_json_walks_past_the_table(level15_records):
    # the compare walks the longer of the document and the table, so records
    # past the table's last block are refused at the first of them
    records = level15_records + level15_records[-5000:]
    doc = {"level": 15, "total_multiplicity": sum(r["multiplicity"] for r in records),
           "records": records}
    with pytest.raises(ValueError, match="^record 65535 differs from the level-15 spectrum$"):
        spectrum_from_json(doc)


def test_blocks_walk_the_longest_column():
    walked = [(start, [list(c) for c in cs])
              for start, cs in decimation.blocks(range(decimation._BLOCK + 2), range(3))]
    assert [start for start, _ in walked] == [0, decimation._BLOCK]
    assert walked[0][1] == [list(range(decimation._BLOCK)), [0, 1, 2]]
    assert walked[1][1] == [[decimation._BLOCK, decimation._BLOCK + 1], []]
    assert list(decimation.blocks([], [])) == []


@pytest.mark.parametrize("rows", [decimation._BLOCK, 2 * decimation._BLOCK])
def test_table_refuses_a_lineage_fault_in_the_last_row_of_its_last_block(rows):
    # the lineage check runs a block at a time; a table that fills its blocks
    # exactly is checked to its last row, here a 2 born at level 2
    levels = np.ones(rows, np.int64)
    levels[-1] = 2
    columns = [np.arange(rows, dtype=float), np.ones(rows, np.int64), levels,
               np.full(rows, 2.0), np.full(rows, "")]
    want = _error(lambda: Lineage(2, 2.0))
    assert want == (ValueError, "no eigenvalue 2.0 is born at level 2")
    assert _error(lambda: SpectrumTable(1, *columns)) == want
    levels[-1] = 1
    assert len(SpectrumTable(1, *columns)) == rows
    assert len(SpectrumTable(1, *(column[:0] for column in columns))) == 0


def test_spectrum_json_round_trip_level15(level15_records):
    table = enumerate_spectrum(15)
    doc = json.loads(json.dumps(spectrum_json(table)))
    assert doc["records"] == level15_records
    assert spectrum_from_json(doc) == table


def test_spectrum_json_fields():
    doc = spectrum_json(enumerate_spectrum(2))
    assert doc["level"] == 2
    assert doc["total_multiplicity"] == 30
    rec = doc["records"][0]
    assert set(rec) == {"value", "multiplicity", "birth_level", "birth_value", "branches"}
    assert doc["records"][0]["branches"] == "-"
