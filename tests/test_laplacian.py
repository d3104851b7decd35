"""Renormalized Laplacian, normal derivatives, Gauss-Green.

Core claims:
    - Delta_m reproduces the level-1 eigenvalue identities (2 and 8)
    - the summation-by-parts identity holds to rounding at every level
    - harmonic functions have level-independent boundary fluxes that
      sum to zero, and renormalized Laplacians that decay to zero
"""

import numpy as np
import pytest

from tetralap import (
    Address,
    VertexFunction,
    build_level,
    energy_bilinear,
    gauss_green_residual,
    harmonic_family,
    harmonize,
    interior_laplacian,
    normal_derivative,
    renormalized_laplacian,
)
from test_fractal_graph import neighbors


# --- graph laplacian ---------------------------------------------------------


def test_laplacian_of_constant(graphs):
    g = graphs(2)
    u = VertexFunction(g, np.full(g.n_vertices, 3.3))
    assert np.all(interior_laplacian(u) == 0.0)


def test_level1_eigenvalue_two(graphs):
    g = graphs(1)
    values = np.zeros(g.n_vertices)
    values[4:] = 1.0
    u = VertexFunction(g, values)
    assert np.all(interior_laplacian(u) == -2.0)


def test_level1_eigenvalue_eight(graphs):
    from tetralap import CELL_MIDPOINT_PAIRS

    g = graphs(1)
    values = np.zeros(g.n_vertices)
    for (i, j), val in zip(CELL_MIDPOINT_PAIRS, (1.0, -1.0, 0.0, -1.0, 0.0, 1.0)):
        values[g.index_of(Address((i,), j))] = val
    u = VertexFunction(g, values)
    assert -interior_laplacian(u) == pytest.approx(8.0 * u.values[4:], abs=1e-14)


def test_laplacian_linearity(graphs):
    rng = np.random.default_rng(21)
    g = graphs(2)
    u = VertexFunction(g, rng.normal(size=g.n_vertices))
    v = VertexFunction(g, rng.normal(size=g.n_vertices))
    combo = VertexFunction(g, 2.5 * u.values - 1.5 * v.values)
    x = 17 - 4  # vertex 17 in interior order
    assert interior_laplacian(combo)[x] == pytest.approx(
        2.5 * interior_laplacian(u)[x] - 1.5 * interior_laplacian(v)[x], rel=1e-12
    )


@pytest.mark.parametrize("m", range(1, 6))
def test_interior_laplacian_alignment(graphs, m):
    rng = np.random.default_rng(22)
    g = graphs(m)
    # magnitudes from 1e-5 to 1e5 with both signs, so any change in the
    # order of the neighbor sum shows in the last bits
    signs = rng.choice([-1.0, 1.0], size=g.n_vertices)
    # and +0.0 at the corners against -0.0 elsewhere, so that the repeated
    # corner in a corner's row shows if it changes the sign of a zero sum
    zeros = np.full(g.n_vertices, -0.0)
    zeros[:4] = 0.0
    for values in (signs * 10.0 ** rng.uniform(-5.0, 5.0, size=g.n_vertices), zeros):
        u = VertexFunction(g, values)
        vec = interior_laplacian(u)
        want = [np.sum(u.values[neighbors(g, v)] - u.values[v]) for v in g.interior]
        assert vec.tobytes() == np.array(want).tobytes()
        # at any index set, unsorted and with repeats, or at one index, the
        # renormalized Laplacian is the per-vertex 2 * 6^m * Delta_m u(x), bit for bit
        picks = rng.choice(g.interior, size=len(g.interior) + 3)
        for at in (g.interior, picks, picks.tolist(), picks[:1]):
            want = [2.0 * 6.0 ** m * float(vec[v - 4]) for v in at]
            assert renormalized_laplacian(u, at).tobytes() == np.array(want).tobytes()
        assert renormalized_laplacian(u, int(picks[0])) == 2.0 * 6.0 ** m * float(vec[picks[0] - 4])
        # a corner's flux is its 3-term neighbor sum, bit for bit
        for b in g.boundary:
            flux = -float(np.sum(u.values[neighbors(g, b)] - u.values[b]))
            got = normal_derivative(lambda k: u, Address((), b), m).value
            assert np.float64(got).tobytes() == np.float64(1.5 ** m * flux).tobytes()


def test_laplacian_reads_build_only_the_neighbor_table():
    g = build_level(3)
    u = VertexFunction(g, np.linspace(-1.0, 1.0, g.n_vertices))
    before = set(vars(g))
    interior_laplacian(u)
    renormalized_laplacian(u, [4, 9])
    normal_derivative(lambda k: u, Address((), 2), 3)
    assert set(vars(g)) - before == {"neighbors"}


def test_renormalized_laplacian_refuses_non_interior_indices():
    u = harmonize((1, 0, 0, 0), 2)
    n = u.graph.n_vertices
    for at in (0, 1, 2, 3, -1, n, [5, 3], np.array([4, n]), [4.0], True):
        with pytest.raises(ValueError, match="interior indices"):
            renormalized_laplacian(u, at)


def test_renormalized_laplacian_of_no_vertex_is_empty():
    # numpy reads [] as float64, and an empty selection of any dtype names no index
    u = harmonize((1, 0, 0, 0), 2)
    for at in ([], range(0), np.array([], int), np.array([], np.uint8), np.zeros((0, 2))):
        got = renormalized_laplacian(u, at)
        assert got.dtype == np.float64 and got.shape == np.shape(at)


# --- pointwise estimates -----------------------------------------------------


def test_pointwise_laplacian_harmonic_is_negligible(graphs):
    # Delta_m of a harmonic function is zero up to rounding; even after
    # the 2*6^m amplification the estimates stay far below any signal
    fam = harmonic_family((1, 0, 0, 0))
    x = Address((0,), 1)
    for m in range(1, 6):
        u = fam(m)
        assert abs(renormalized_laplacian(u, u.graph.index_of(x))) < 1e-9


def test_pointwise_laplacian_constant_zero(graphs):
    fam = harmonic_family((5, 5, 5, 5))
    for m in (1, 2, 3):
        u = fam(m)
        assert renormalized_laplacian(u, u.graph.index_of(Address((0,), 1))) == 0.0
        assert u.graph.level == m


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
    v_values = rng.normal(size=g.n_vertices)
    v_values[:4] = 0.0
    v = VertexFunction(g, v_values)
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
            VertexFunction(graphs(1), np.zeros(10)), VertexFunction(graphs(2), np.zeros(34))
        )
