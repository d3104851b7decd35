"""Renormalized Laplacian and boundary flux for the self-similar measure.

The measure gives each of the four contractions weight 1/4; it is the
only one supported.  Each cell at level m has measure 4^{-m}, and a
piecewise-harmonic bump at an interior vertex integrates to 2/4^{m+1}
(one 4^{-m-1} slice per incident cell).  Combining the energy scaling
(3/2)^m with the inverse bump integral 4^{m+1}/2 renormalizes the graph
Laplacian: the pointwise operator is the limit of 2 * 6^m * Delta_m.

Normal derivatives are the boundary fluxes (3/2)^k * sum(u(X) - u(Y))
over level-k neighbors; together with the interior Laplacian they make
the summation-by-parts (Gauss-Green) identity exact at every level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fractal_graph import Address, canonicalize
from .energy import VertexFunction, energy_bilinear


@dataclass(frozen=True)
class LaplacianEstimate:
    level: int
    vertex: Address
    value: float


@dataclass(frozen=True)
class NormalDerivativeEstimate:
    vertex: Address
    level: int
    value: float


def spline_integral(x: Address, m: int) -> float:
    """Integral of the level-m harmonic bump at x: one 4^{-m}/4 slice per incident cell."""
    x = canonicalize(x)
    if len(x.word) > m:
        raise ValueError(f"{x} is not a vertex of V_{m}")
    incident = 1 if x.is_boundary else 2
    return incident / 4.0 ** (m + 1)


def _neighbor_sums(u: VertexFunction, start: int, stop: int) -> np.ndarray:
    """Sum of u(y) - u(x) over the neighbors y of each x in start..stop-1, a range
    of corners (3 neighbors each) or of interior vertices (6 each).  The
    difference form keeps constants exactly in the kernel."""
    g = u.graph
    degree = 3 if stop <= 4 else 6
    rows = g.neighbor_idx[g.neighbor_ptr[start]:g.neighbor_ptr[stop]].reshape(-1, degree)
    return np.sum(u.values[rows] - u.values[start:stop, None], axis=1)


def graph_laplacian(u: VertexFunction, x: Address) -> float:
    """Delta_m u at an interior vertex: sum of u(y) - u(x) over the 6 neighbors."""
    idx = u.graph.index_of(x)
    if idx in u.graph.boundary:
        raise ValueError(f"graph Laplacian is defined on interior vertices only, got {x}")
    return float(_neighbor_sums(u, idx, idx + 1)[0])


def interior_laplacian(u: VertexFunction) -> np.ndarray:
    """Delta_m u over all interior vertices, aligned with graph.interior order."""
    return _neighbor_sums(u, 4, u.graph.n_vertices)


def pointwise_laplacian(u_source, x: Address, m: int) -> LaplacianEstimate:
    """Renormalized estimate 2 * 6^m * Delta_m u(x).

    ``u_source`` maps a level to the VertexFunction of one function
    restricted to that level (see harmonic_family, eigenfunction_family).
    The estimate converges only for functions with a continuous
    Laplacian; callers should inspect a profile across levels rather
    than trust a single m.
    """
    u = u_source(m)
    if u.graph.level != m:
        raise ValueError(f"u_source({m}) returned a level-{u.graph.level} function")
    value = 2.0 * 6.0 ** m * graph_laplacian(u, x)
    return LaplacianEstimate(level=m, vertex=canonicalize(x), value=value)


def normal_derivative(u_source, x: Address, k: int) -> NormalDerivativeEstimate:
    """Boundary-flux estimate (3/2)^k * sum over level-k neighbors of u(x) - u(y)."""
    u = u_source(k)
    if u.graph.level != k:
        raise ValueError(f"u_source({k}) returned a level-{u.graph.level} function")
    idx = u.graph.index_of(x)
    flux = -float(_neighbor_sums(u, idx, idx + 1)[0])
    return NormalDerivativeEstimate(vertex=canonicalize(x), level=k, value=1.5 ** k * flux)


def gauss_green_residual(u: VertexFunction, v: VertexFunction) -> float:
    """Defect of the summation-by-parts identity; zero up to rounding.

    (3/2)^m E_m(u,v)  =  - sum_interior (3/2)^m v Delta_m u
                         + sum_boundary (3/2)^m v * flux(u)
    """
    g = u.graph
    if v.graph.level != g.level:
        raise ValueError("gauss_green_residual requires functions on the same graph")
    scale = 1.5 ** g.level
    lhs = scale * energy_bilinear(u, v)
    interior_term = -scale * float(np.sum(v.values[4:] * interior_laplacian(u)))
    boundary_term = float(np.sum(scale * v.values[:4] * -_neighbor_sums(u, 0, 4)))
    return lhs - (interior_term + boundary_term)
