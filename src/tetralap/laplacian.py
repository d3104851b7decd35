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
class VertexEstimate:
    """A level-``level`` normal-derivative estimate at a vertex."""

    level: int
    vertex: Address
    value: float


def _neighbor_sums(u: VertexFunction, at) -> np.ndarray:
    """Sum of u(y) - u(x) over the neighbors y of each vertex x at ``at``, a
    slice, read through a view of the neighbor rows, or vertex indices of any
    shape, whose own rows alone are gathered.  A corner's row repeats the
    corner, and u(x) - u(x) adds nothing.  The difference form keeps
    constants exactly in the kernel."""
    diffs = u.values[u.graph.neighbors[at]]  # a fresh gather, so one array is enough
    diffs -= u.values[at][..., None]
    return np.sum(diffs, axis=-1)


def interior_laplacian(u: VertexFunction) -> np.ndarray:
    """Delta_m u over all interior vertices, aligned with graph.interior order."""
    return _neighbor_sums(u, slice(4, u.graph.n_vertices))


def renormalized_laplacian(u: VertexFunction, vertices) -> np.ndarray:
    """2 * 6^m * Delta_m u at the interior vertex indices ``vertices`` (one
    index or any int array-like, such as graph.interior, or an empty one), in
    their shape; only their neighbor rows are read.  It converges only for
    functions with a continuous Laplacian; callers should inspect a profile
    across levels rather than trust a single m."""
    at, n = np.asarray(vertices), u.graph.n_vertices
    if not at.size:  # of any dtype: numpy reads [] as float64
        at = at.astype(int)
    elif at.dtype.kind not in "iu" or at.min() < 4 or at.max() >= n:
        raise ValueError(f"vertices must be interior indices 4..{n - 1}, got {vertices!r}")
    return 2.0 * 6.0 ** u.graph.level * _neighbor_sums(u, at)


def normal_derivative(u_source, x: Address, k: int) -> VertexEstimate:
    """Boundary-flux estimate (3/2)^k * sum over level-k neighbors of u(x) - u(y);
    ``u_source`` maps a level to a VertexFunction (harmonic_family, eigenfunction_family)."""
    u = u_source(k)
    if u.graph.level != k:
        raise ValueError(f"u_source({k}) returned a level-{u.graph.level} function")
    flux = -float(_neighbor_sums(u, u.graph.index_of(x)))
    return VertexEstimate(level=k, vertex=canonicalize(x), value=1.5 ** k * flux)


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
    boundary_term = float(np.sum(scale * v.values[:4] * -_neighbor_sums(u, slice(0, 4))))
    return lhs - (interior_term + boundary_term)
