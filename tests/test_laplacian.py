"""Measure, renormalized Laplacian, normal derivatives, Gauss-Green.

Core claims:
    - bump integrals are 2/4^{m+1} interior, 1/4^{m+1} at corners, and
      both cell measures and bump integrals tile to exactly 1
    - Delta_m reproduces the level-1 eigenvalue identities (2 and 8)
    - the summation-by-parts identity holds to rounding at every level
    - harmonic functions have level-independent boundary fluxes that
      sum to zero, and renormalized Laplacians that decay to zero
    - the non-uniform measure gates the renormalized operations off
"""

import math

import numpy as np
import pytest

from tetralap import (
    Address,
    MeasureModel,
    NonUniformMeasureError,
    UNIFORM_MEASURE,
    VertexFunction,
    energy_bilinear,
    gauss_green_residual,
    graph_laplacian,
    harmonic_family,
    harmonize,
    interior_laplacian,
    laplacian_csv,
    normal_derivative,
    pointwise_laplacian,
    pointwise_laplacian_profile,
    spline_integral,
)


# --- measure ----------------------------------------------------------------


def test_measure_validation():
    with pytest.raises(ValueError):
        MeasureModel((0.5, 0.5, 0.25, 0.25))
    with pytest.raises(ValueError):
        MeasureModel((0.5, 0.5, 0.0, 0.0))
    assert UNIFORM_MEASURE.is_uniform


def test_cell_measures_tile_to_one():
    for m in range(6):
        assert 4 ** m * UNIFORM_MEASURE.cell_measure(m) == 1.0


def test_word_measure_non_uniform():
    mu = MeasureModel((0.1, 0.2, 0.3, 0.4))
    assert mu.word_measure((0, 3)) == pytest.approx(0.04)
    with pytest.raises(NonUniformMeasureError):
        mu.cell_measure(2)


def test_spline_integral_values():
    assert spline_integral(Address((0,), 1), 1) == 2.0 / 16.0
    assert spline_integral(Address((), 2), 1) == 1.0 / 16.0
    # non-canonical spellings: (1,):1 and (1,1):1 are the corner P_1
    assert spline_integral(Address((1,), 1), 1) == 1.0 / 16.0
    assert spline_integral(Address((1, 1), 1), 1) == 1.0 / 16.0
    assert spline_integral(Address((1, 0), 0), 1) == 2.0 / 16.0
    for m in (1, 2, 3):
        interior = spline_integral(Address((0,), 1), m)
        assert interior == 2.0 / 4.0 ** (m + 1)


def test_spline_integrals_tile_to_one(graphs):
    for m in (1, 2, 3, 4):
        g = graphs(m)
        total = math.fsum(spline_integral(a, m) for a in g.vertices)
        assert total == 1.0


def test_spline_integral_per_cell_share():
    # the four corner bumps of one cell split its measure evenly
    m = 2
    per_corner = UNIFORM_MEASURE.cell_measure(m) / 4.0
    assert spline_integral(Address((), 0), m) == per_corner
    assert spline_integral(Address((0, 1), 2), m) == 2 * per_corner


def test_spline_integral_requires_membership():
    with pytest.raises(ValueError):
        spline_integral(Address((0, 1), 2), 1)
    with pytest.raises(NonUniformMeasureError):
        spline_integral(Address((0,), 1), 1, MeasureModel((0.1, 0.2, 0.3, 0.4)))


# --- graph laplacian ---------------------------------------------------------


def test_laplacian_of_constant(graphs):
    g = graphs(2)
    u = VertexFunction(g, np.full(g.n_vertices, 3.3))
    for v in g.interior:
        assert graph_laplacian(u, g.vertices[v]) == 0.0


def test_level1_eigenvalue_two(graphs):
    g = graphs(1)
    u = VertexFunction.zeros(g)
    u.values[4:] = 1.0
    for v in g.interior:
        assert graph_laplacian(u, g.vertices[v]) == -2.0


def test_level1_eigenvalue_eight(graphs):
    from tetralap import CELL_MIDPOINT_PAIRS

    g = graphs(1)
    u = VertexFunction.zeros(g)
    for (i, j), val in zip(CELL_MIDPOINT_PAIRS, (1.0, -1.0, 0.0, -1.0, 0.0, 1.0)):
        u.values[g.index_of(Address((i,), j))] = val
    for v in g.interior:
        a = g.vertices[v]
        assert -graph_laplacian(u, a) == pytest.approx(8.0 * u.value_at(a), abs=1e-14)


def test_laplacian_rejects_boundary(graphs):
    g = graphs(1)
    u = VertexFunction.zeros(g)
    with pytest.raises(ValueError):
        graph_laplacian(u, Address((), 0))


def test_laplacian_linearity(graphs):
    rng = np.random.default_rng(21)
    g = graphs(2)
    u = VertexFunction(g, rng.normal(size=g.n_vertices))
    v = VertexFunction(g, rng.normal(size=g.n_vertices))
    combo = VertexFunction(g, 2.5 * u.values - 1.5 * v.values)
    x = g.vertices[17]
    assert graph_laplacian(combo, x) == pytest.approx(
        2.5 * graph_laplacian(u, x) - 1.5 * graph_laplacian(v, x), rel=1e-12
    )


@pytest.mark.parametrize("m", range(1, 6))
def test_interior_laplacian_alignment(graphs, m):
    rng = np.random.default_rng(22)
    g = graphs(m)
    # magnitudes from 1e-5 to 1e5 with both signs, so any change in the
    # order of the neighbor sum shows in the last bits
    signs = rng.choice([-1.0, 1.0], size=g.n_vertices)
    u = VertexFunction(g, signs * 10.0 ** rng.uniform(-5.0, 5.0, size=g.n_vertices))
    vec = interior_laplacian(u)
    for k, v in enumerate(g.interior):
        assert vec[k] == graph_laplacian(u, g.vertices[v])
        assert vec[k] == np.sum(u.values[g.neighbors(v)] - u.values[v])
    for b in g.boundary:
        flux = np.sum(u.values[b] - u.values[g.neighbors(b)])
        assert normal_derivative(lambda k: u, g.vertices[b], m).value == 1.5 ** m * flux


# --- pointwise estimates -----------------------------------------------------


def test_pointwise_laplacian_harmonic_is_negligible(graphs):
    # Delta_m of a harmonic function is zero up to rounding; even after
    # the 2*6^m amplification the estimates stay far below any signal
    fam = harmonic_family((1, 0, 0, 0))
    x = Address((0,), 1)
    estimates = pointwise_laplacian_profile(fam, x, range(1, 6))
    assert all(abs(e.value) < 1e-9 for e in estimates)


def test_pointwise_laplacian_constant_zero(graphs):
    fam = harmonic_family((5, 5, 5, 5))
    for m in (1, 2, 3):
        est = pointwise_laplacian(fam, Address((0,), 1), m)
        assert est.value == 0.0
        assert est.level == m


def test_pointwise_laplacian_gates_non_uniform():
    fam = harmonic_family((1, 0, 0, 0))
    with pytest.raises(NonUniformMeasureError):
        pointwise_laplacian(fam, Address((0,), 1), 2, MeasureModel((0.1, 0.2, 0.3, 0.4)))


def test_pointwise_laplacian_requires_membership():
    fam = harmonic_family((1, 0, 0, 0))
    with pytest.raises(KeyError):
        pointwise_laplacian(fam, Address((0, 1), 2), 1)


# --- normal derivatives ------------------------------------------------------


def test_normal_derivative_level0_formula(graphs):
    rng = np.random.default_rng(23)
    for _ in range(10):
        a, b, c, d = rng.normal(size=4)
        fam = harmonic_family((a, b, c, d))
        est = normal_derivative(fam, Address((), 0), 0)
        assert est.value == pytest.approx(3 * a - (b + c + d), rel=1e-12, abs=1e-12)


def test_normal_derivative_level_independent_for_harmonic():
    fam = harmonic_family((1, 0, 0, 0))
    values = [normal_derivative(fam, Address((), 0), k).value for k in range(6)]
    for v in values:
        assert v == pytest.approx(3.0, abs=1e-12)
    # constancy at every corner for generic harmonic data
    rng = np.random.default_rng(28)
    for _ in range(5):
        f = harmonic_family(rng.normal(size=4))
        for i in range(4):
            base = normal_derivative(f, Address((), i), 0).value
            for k in range(1, 6):
                assert normal_derivative(f, Address((), i), k).value == pytest.approx(
                    base, abs=1e-12
                )


def test_normal_derivatives_sum_to_zero_for_harmonic():
    rng = np.random.default_rng(24)
    for _ in range(10):
        fam = harmonic_family(rng.normal(size=4))
        for k in (0, 2, 4):
            total = sum(
                normal_derivative(fam, Address((), i), k).value for i in range(4)
            )
            assert total == pytest.approx(0.0, abs=1e-12)


def test_normal_derivative_rejects_wrong_level_source():
    u7 = harmonize((1, 0, 0, 0), 7)
    with pytest.raises(ValueError):
        normal_derivative(lambda k: u7, Address((), 0), 3)
    with pytest.raises(ValueError):
        pointwise_laplacian(lambda k: u7, Address((0,), 1), 3)
    assert normal_derivative(lambda k: u7, Address((), 0), 7).value == pytest.approx(3.0)


def test_normal_derivative_at_interior_vertex_uses_six_neighbors(graphs):
    # at an interior vertex of a harmonic function the flux estimate is
    # -(3/2)^k Delta_k u, which vanishes
    fam = harmonic_family((1, 0, 0, 0))
    est = normal_derivative(fam, Address((0,), 1), 3)
    assert est.value == pytest.approx(0.0, abs=1e-12)


# --- summation by parts ------------------------------------------------------


def _rel_residual(u, v):
    scale = max(abs(1.5 ** u.graph.level * energy_bilinear(u, v)), 1.0)
    return abs(gauss_green_residual(u, v)) / scale


def test_gauss_green_random_pairs(graphs):
    rng = np.random.default_rng(25)
    for m in range(1, 6):
        g = graphs(m)
        for _ in range(100 if m <= 4 else 20):
            u = VertexFunction(g, rng.normal(size=g.n_vertices))
            v = VertexFunction(g, rng.normal(size=g.n_vertices))
            assert _rel_residual(u, v) < 1e-10


def test_gauss_green_interior_test_function(graphs):
    # v = 0 on the boundary: energy pairs against the Laplacian alone
    rng = np.random.default_rng(26)
    g = graphs(2)
    u = VertexFunction(g, rng.normal(size=g.n_vertices))
    v = VertexFunction(g, rng.normal(size=g.n_vertices))
    v.values[:4] = 0.0
    scale = 1.5 ** 2
    lhs = scale * energy_bilinear(u, v)
    rhs = -scale * float(np.sum(v.values[list(g.interior)] * interior_laplacian(u)))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_gauss_green_harmonic_leaves_boundary_term(graphs):
    rng = np.random.default_rng(27)
    lookup = {m: graphs(m) for m in range(3)}
    u = harmonize(rng.normal(size=4), 2, graphs=lookup)
    v = VertexFunction(graphs(2), rng.normal(size=graphs(2).n_vertices))
    fam = harmonic_family(tuple(u.values[:4]))
    boundary_term = sum(
        v.values[i] * normal_derivative(fam, Address((), i), 2).value for i in range(4)
    )
    assert 1.5 ** 2 * energy_bilinear(u, v) == pytest.approx(
        boundary_term, rel=1e-10, abs=1e-10
    )


def test_gauss_green_graph_mismatch(graphs):
    with pytest.raises(ValueError):
        gauss_green_residual(
            VertexFunction.zeros(graphs(1)), VertexFunction.zeros(graphs(2))
        )


def test_laplacian_csv_format():
    fam = harmonic_family((1, 0, 0, 0))
    rows = pointwise_laplacian_profile(fam, Address((0,), 1), range(1, 3))
    text = laplacian_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "level,address,value"
    assert lines[1].startswith("1,0:1,")
    assert len(lines) == 3
