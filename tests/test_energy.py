"""Energies and harmonic extension.

Core claims:
    - E_0(1,0,0,0) = 3; constants have zero energy
    - the closed-form cell extension solves the 6x6 critical-point system
    - one extension step scales any energy by exactly 2/3 (rel 1e-12)
    - the extension minimizes energy among all interior perturbations
    - normalized energy of a harmonic function is level-independent
    - energy is self-similar across the four subcopies
    - harmonic functions obey the maximum principle
    - the cell extension commutes with corner permutations
"""

import dataclasses

import numpy as np
import pytest

from tetralap import (
    CELL_MIDPOINT_PAIRS,
    Address,
    VertexFunction,
    cell_restriction,
    eigenfunction_extend,
    energy,
    energy_bilinear,
    extension_cell,
    harmonic_family,
    harmonize,
)
from tetralap import fractal_graph
from test_fractal_graph import _reference_build

# critical-point system of the one-cell minimization, used as the
# independent oracle for the closed form
CELL_SYSTEM = np.array(
    [
        [6, -1, -1, -1, -1, 0],
        [-1, 6, -1, 0, -1, -1],
        [-1, -1, 6, -1, 0, -1],
        [-1, 0, -1, 6, -1, -1],
        [-1, -1, 0, -1, 6, -1],
        [0, -1, -1, -1, -1, 6],
    ],
    dtype=float,
)


def solve_cell(a, b, c, d):
    rhs = np.array([a + b, b + c, a + c, a + d, b + d, c + d], dtype=float)
    return np.linalg.solve(CELL_SYSTEM, rhs)


def test_energy_level0_unit_corner(graphs):
    u = VertexFunction(graphs(0), np.array([1.0, 0.0, 0.0, 0.0]))
    rep = energy(u)
    assert rep.raw == 3.0
    assert rep.normalized == 3.0
    assert rep.level == 0


def test_energy_of_constant_is_zero(graphs):
    for m in range(4):
        u = VertexFunction(graphs(m), np.full(graphs(m).n_vertices, 7.5))
        assert energy(u).raw == 0.0


def test_energy_positive_for_nonconstant(graphs):
    rng = np.random.default_rng(3)
    g = graphs(2)
    u = VertexFunction(g, rng.normal(size=g.n_vertices))
    assert energy(u).raw > 0.0


def test_unit_corner_extension_energy(graphs):
    u1 = harmonize((1, 0, 0, 0), 1, graphs={0: graphs(0), 1: graphs(1)})
    assert energy(u1).raw == pytest.approx(2.0, rel=1e-12)
    assert energy(u1).normalized == pytest.approx(3.0, rel=1e-12)


def test_closed_form_matches_linear_system():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b, c, d = rng.normal(scale=3.0, size=4)
        assert np.allclose(
            extension_cell(0.0, a, b, c, d), solve_cell(a, b, c, d), atol=1e-12
        )


def test_cell_extension_known_values():
    assert extension_cell(0.0, 0, 2, 0, 2) == (1.0, 1.0, 2.0 / 3.0, 1.0, 4.0 / 3.0, 1.0)
    assert extension_cell(0.0, 1, 1, 1, 1) == (1.0,) * 6
    # frozen from solve_cell(1, 0, 0, 0)
    assert np.allclose(
        extension_cell(0.0, 1, 0, 0, 0),
        (1 / 3, 1 / 6, 1 / 3, 1 / 3, 1 / 6, 1 / 6),
        atol=1e-15,
    )


def _harmonic_closed_forms(a, b, c, d):
    # the per-cell harmonic extension as it was written before it became
    # extension_cell at lam = 0, association for association
    return (
        (2 * a + 2 * b + c + d) / 6.0,
        (a + 2 * b + 2 * c + d) / 6.0,
        (2 * a + b + 2 * c + d) / 6.0,
        (2 * a + b + c + 2 * d) / 6.0,
        (a + 2 * b + c + 2 * d) / 6.0,
        (a + b + 2 * (c + d)) / 6.0,
    )


@pytest.mark.parametrize("corners", [
    pytest.param(np.random.default_rng(13).normal(scale=3.0, size=(4, 2000)), id="random"),
    pytest.param(np.full((4, 3), -0.0), id="negative-zero"),
    pytest.param(np.random.default_rng(14).choice([-1.0, 1.0], size=(4, 2000))
                 * np.random.default_rng(15).uniform(0.5e308, 1.7e308, size=(4, 2000)),
                 id="near-overflow"),
])
def test_extension_cell_at_zero_is_the_harmonic_closed_form(corners):
    with np.errstate(over="ignore", invalid="ignore"):
        got = extension_cell(0.0, *corners)
        want = _harmonic_closed_forms(*corners)
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


def test_extension_ratio_for_arbitrary_functions(graphs):
    rng = np.random.default_rng(4)
    for m in range(1, 6):
        g = graphs(m - 1)
        u = VertexFunction(g, rng.normal(size=g.n_vertices))
        ext = eigenfunction_extend(u, 0.0, target=graphs(m))
        assert energy(ext).raw == pytest.approx(
            (2.0 / 3.0) * energy(u).raw, rel=1e-12
        )


def test_extension_agrees_on_old_vertices(graphs):
    rng = np.random.default_rng(5)
    u = VertexFunction(graphs(1), rng.normal(size=10))
    ext = eigenfunction_extend(u, 0.0, target=graphs(2))
    for a in _reference_build(1)[0]:
        assert ext.values[graphs(2).index_of(a)] == u.values[graphs(1).index_of(a)]


def test_extension_minimizes_energy(graphs):
    rng = np.random.default_rng(6)
    for m in (1, 2):
        base = VertexFunction(graphs(m - 1), rng.normal(size=graphs(m - 1).n_vertices))
        ext = eigenfunction_extend(base, 0.0, target=graphs(m))
        e0 = energy(ext).raw
        old = {graphs(m).index_of(a) for a in _reference_build(m - 1)[0]}
        new = [v for v in range(graphs(m).n_vertices) if v not in old]
        for _ in range(100):
            delta = np.zeros(graphs(m).n_vertices)
            delta[new] = rng.normal(scale=0.3, size=len(new))
            perturbed = VertexFunction(graphs(m), ext.values + delta)
            assert energy(perturbed).raw > e0


def test_normalized_energy_constant_for_harmonic(graphs):
    lookup = {m: graphs(m) for m in range(4)}
    for boundary in [(1, 0, 0, 0), (0, 2, 0, 2), (3, -1, 2, 0.5)]:
        u0 = harmonize(boundary, 0, graphs=lookup)
        target = energy(u0).raw
        for m in range(1, 4):
            um = harmonize(boundary, m, graphs=lookup)
            assert energy(um).normalized == pytest.approx(target, rel=1e-12)


def test_harmonize_figure_caption_case(graphs):
    u = harmonize((0, 2, 0, 2), 1, graphs={0: graphs(0), 1: graphs(1)})
    mids = [u.values[u.graph.index_of(Address((i,), j))] for i, j in CELL_MIDPOINT_PAIRS]
    assert mids == [1.0, 1.0, 2.0 / 3.0, 1.0, 4.0 / 3.0, 1.0]


def test_harmonize_zero_boundary(graphs):
    u = harmonize((0, 0, 0, 0), 3)
    assert np.all(u.values == 0.0)


def test_constant_extends_to_constant(graphs):
    u = VertexFunction(graphs(1), np.full(10, 2.5))
    ext = eigenfunction_extend(u, 0.0, target=graphs(2))
    assert np.all(ext.values == 2.5)


def test_energy_self_similarity(graphs):
    rng = np.random.default_rng(7)
    for m in (1, 2, 3):
        g = graphs(m)
        u = VertexFunction(g, rng.normal(size=g.n_vertices))
        total = energy(u).normalized
        parts = sum(
            energy(cell_restriction(u, i, target=graphs(m - 1))).normalized
            for i in range(4)
        )
        assert total == pytest.approx(1.5 * parts, rel=1e-12)


def test_maximum_principle(graphs):
    rng = np.random.default_rng(8)
    lookup = {m: graphs(m) for m in range(6)}
    for _ in range(20):
        boundary = rng.normal(scale=2.0, size=4)
        u = harmonize(boundary, 5, graphs=lookup)
        assert np.min(u.values) >= np.min(boundary) - 1e-12
        assert np.max(u.values) <= np.max(boundary) + 1e-12


def test_cell_extension_symmetry_equivariance():
    import itertools

    rng = np.random.default_rng(9)
    vals = rng.normal(size=4)
    base = extension_cell(0.0, *vals)
    pair_slot = {frozenset(p): k for k, p in enumerate(CELL_MIDPOINT_PAIRS)}
    for perm in itertools.permutations(range(4)):
        permuted = extension_cell(0.0, *(vals[list(perm)]))
        for k, (i, j) in enumerate(CELL_MIDPOINT_PAIRS):
            # midpoint slot (i,j) of the permuted input carries the value
            # the original placed on (perm[i], perm[j])
            src = pair_slot[frozenset((perm[i], perm[j]))]
            assert permuted[k] == pytest.approx(base[src], rel=0, abs=1e-15)


def test_bilinear_diagonal_and_constants(graphs):
    rng = np.random.default_rng(10)
    g = graphs(1)
    u = VertexFunction(g, rng.normal(size=10))
    assert energy_bilinear(u, u) == pytest.approx(energy(u).raw, rel=1e-14)
    const = VertexFunction(g, np.full(10, 4.2))
    assert energy_bilinear(u, const) == 0.0


def test_bilinear_polarization(graphs):
    u = harmonize((1, 0, 0, 0), 1, graphs={0: graphs(0), 1: graphs(1)})
    v = harmonize((0, 1, 0, 0), 1, graphs={0: graphs(0), 1: graphs(1)})
    plus = VertexFunction(u.graph, u.values + v.values)
    minus = VertexFunction(u.graph, u.values - v.values)
    polarized = 0.25 * (energy(plus).raw - energy(minus).raw)
    assert energy_bilinear(u, v) == pytest.approx(polarized, rel=1e-12)


def test_bilinear_symmetry(graphs):
    rng = np.random.default_rng(12)
    g = graphs(2)
    u = VertexFunction(g, rng.normal(size=g.n_vertices))
    v = VertexFunction(g, rng.normal(size=g.n_vertices))
    assert energy_bilinear(u, v) == energy_bilinear(v, u)


def test_graph_mismatch_rejected(graphs):
    u = VertexFunction(graphs(1), np.zeros(10))
    v = VertexFunction(graphs(2), np.zeros(34))
    with pytest.raises(ValueError):
        energy_bilinear(u, v)


def test_vertex_function_validation(graphs):
    with pytest.raises(ValueError):
        VertexFunction(graphs(1), np.zeros(9))
    with pytest.raises(ValueError):
        VertexFunction(graphs(0), np.array([1.0, np.nan, 0.0, 0.0]))


def test_vertex_function_owns_read_only_values(graphs):
    # the caller's array stays the caller's: changing it after construction
    # cannot undo the finite check
    a = np.zeros(graphs(1).n_vertices)
    u = VertexFunction(graphs(1), a)
    a[0] = np.nan
    assert np.all(u.values == 0.0)
    # and a cached level cannot be written into, so the levels extended
    # from it stay harmonic
    f = harmonic_family((1, 0, 0, 0))
    with pytest.raises(ValueError, match="read-only"):
        f(2).values[:] = 5.0
    assert f(3).values.tobytes() == harmonize((1, 0, 0, 0), 3).values.tobytes()


def test_vertex_function_attributes_cannot_be_rebound(graphs):
    # rebinding would skip the shape and finite checks of construction
    u = VertexFunction(graphs(0), np.zeros(4))
    with pytest.raises(dataclasses.FrozenInstanceError):
        u.values = np.full(3, np.nan)
    with pytest.raises(dataclasses.FrozenInstanceError):
        u.graph = graphs(1)
    assert u.values.shape == (4,) and u.graph is graphs(0)


def test_boundary_must_be_four_numbers():
    # a string is one value, not four characters
    for boundary in ("1234", (1.0, 0.0, 0.0), None):
        with pytest.raises(ValueError, match="four values"):
            harmonize(boundary, 1)
        with pytest.raises(ValueError, match="four values"):
            harmonic_family(boundary)


def test_letters_must_be_integers(graphs):
    u = VertexFunction(graphs(1), np.zeros(10))
    for letter in (1.0, True, np.float64(1.0), np.bool_(True)):
        with pytest.raises(ValueError, match="integers in 0..3"):
            Address((0,), letter)
        with pytest.raises(ValueError, match="integers in 0..3"):
            Address((letter,), 0)
        with pytest.raises(ValueError, match="integer in 0..3"):
            cell_restriction(u, letter)
    assert Address((np.int64(0),), np.int64(1)) == Address((0,), 1)
    same = cell_restriction(u, np.int64(1)).values == cell_restriction(u, 1).values
    assert np.all(same)


def test_cell_restriction_refuses_level_zero(graphs):
    # a level-0 function is a single cell with no subcopy below it
    with pytest.raises(ValueError, match="^cell restriction needs level >= 1$"):
        cell_restriction(VertexFunction(graphs(0), np.zeros(4)), 0)


def test_harmonic_family_builds_each_level_once(monkeypatch):
    built = []
    real = fractal_graph.build_level
    monkeypatch.setattr(fractal_graph, "build_level", lambda m: built.append(m) or real(m))
    fam = harmonic_family((1, 0, 0, 0))
    assert fam(3) is fam(3)
    fam(2)
    fam(4)
    assert built == [0, 1, 2, 3, 4]
    assert fam(4).values.tobytes() == harmonize((1, 0, 0, 0), 4).values.tobytes()
    with pytest.raises(ValueError, match="nonnegative"):
        fam(-1)
