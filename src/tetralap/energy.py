"""Dirichlet energies and harmonic extension on the level graphs.

The level-m energy is E_m(u) = sum over edges of (u(X)-u(Y))^2; the
renormalized energy (3/2)^m E_m(u) is what survives the m -> infinity
limit.  Minimizing E_m over the new midpoints of one cell with corner
values (a,b,c,d) has the closed-form solution

    x_1 = (2a+2b+c+d)/6    x_2 = (a+2b+2c+d)/6    x_3 = (2a+b+2c+d)/6
    x_4 = (2a+b+c+2d)/6    x_5 = (a+2b+c+2d)/6    x_6 = (a+b+2c+2d)/6

in the midpoint labeling of CELL_MIDPOINT_PAIRS, and the minimum energy
is (2/3) times the corner energy.  The global minimization splits into
one such problem per cell.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .fractal_graph import LETTERS, Address, LevelGraph, level_graph, refine


@dataclass
class VertexFunction:
    """A real-valued function on the vertices of a level graph."""

    graph: LevelGraph
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.graph.n_vertices,):
            raise ValueError(
                f"expected {self.graph.n_vertices} values for level "
                f"{self.graph.level}, got shape {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("vertex values must be finite")

    @classmethod
    def zeros(cls, graph: LevelGraph) -> "VertexFunction":
        return cls(graph, np.zeros(graph.n_vertices))

    def value_at(self, a: Address) -> float:
        return float(self.values[self.graph.index_of(a)])

    def copy(self) -> "VertexFunction":
        return VertexFunction(self.graph, self.values.copy())


@dataclass(frozen=True)
class EnergyReport:
    level: int
    raw: float
    normalized: float


def energy(u: VertexFunction) -> EnergyReport:
    """E_m(u) and its renormalization (3/2)^m E_m(u)."""
    raw = energy_bilinear(u, u)
    m = u.graph.level
    return EnergyReport(level=m, raw=raw, normalized=1.5 ** m * raw)


def energy_bilinear(u: VertexFunction, v: VertexFunction) -> float:
    """E_m(u, v), the symmetric bilinear form with energy(u).raw on the diagonal."""
    if u.graph is not v.graph and u.graph.level != v.graph.level:
        raise ValueError("energy_bilinear requires functions on the same graph")
    i, j = u.graph.edges.T
    # np.sum is pairwise: bounded rounding
    return float(np.sum((u.values[i] - u.values[j]) * (v.values[i] - v.values[j])))


def harmonic_extension_cell(a: float, b: float, c: float, d: float):
    """Energy-minimizing midpoint values of one cell (elementwise on arrays)."""
    return (
        (2 * a + 2 * b + c + d) / 6.0,
        (a + 2 * b + 2 * c + d) / 6.0,
        (2 * a + b + 2 * c + d) / 6.0,
        (2 * a + b + c + 2 * d) / 6.0,
        (a + 2 * b + c + 2 * d) / 6.0,
        (a + b + 2 * (c + d)) / 6.0,
    )


def harmonic_extend(u: VertexFunction, target: LevelGraph | None = None) -> VertexFunction:
    """Extend u from level m to the energy minimizer on level m+1.

    Agrees with u on V_m; each cell's six new midpoints get the
    closed-form values.  Pass ``target`` to reuse a prebuilt graph.
    """
    target = level_graph(u.graph.level + 1, target)
    return VertexFunction(target, refine(u.graph, target, u.values, harmonic_extension_cell))


def harmonize(boundary, m: int, *, graphs=None) -> VertexFunction:
    """The level-m harmonic function with the given four corner values.

    Iterates harmonic_extend from level 0, so the renormalized energy
    equals E_0 of the boundary data at every level.  ``graphs`` may map
    levels to prebuilt LevelGraphs.
    """
    boundary = tuple(float(x) for x in boundary)
    if len(boundary) != 4:
        raise ValueError("boundary data must be four values (one per corner)")
    if m < 0:
        raise ValueError(f"level must be nonnegative, got {m}")
    lookup = graphs or {}
    u = VertexFunction(level_graph(0, lookup.get(0)), np.array(boundary))
    for k in range(1, m + 1):
        u = harmonic_extend(u, target=lookup.get(k))
    return u


def harmonic_family(boundary):
    """level -> VertexFunction for one harmonic function, cached across levels."""

    @functools.cache
    def at_level(m: int) -> VertexFunction:
        return harmonic_extend(at_level(m - 1)) if m > 0 else harmonize(boundary, m)

    at_level(0)  # checks and copies the boundary data now
    return at_level


def cell_restriction(u: VertexFunction, letter: int, target: LevelGraph | None = None) -> VertexFunction:
    """u composed with f_letter: the level-(m-1) function on one subcopy.

    Vertex (word, base) of the target pulls back the value of u at
    (letter + word, base).
    """
    g = u.graph
    if g.level < 1:
        raise ValueError("cell restriction needs level >= 1")
    if letter not in LETTERS:
        raise ValueError(f"cell letter must lie in 0..3, got {letter}")
    target = level_graph(g.level - 1, target)
    # in product order, cell (letter,) + W of g is cell letter * n + (index of W in target)
    n = len(target.cells)
    vals = np.empty(target.n_vertices)
    vals[target.cells] = u.values[g.cells[letter * n:(letter + 1) * n]]
    return VertexFunction(target, vals)
