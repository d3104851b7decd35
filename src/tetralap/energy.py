"""Dirichlet energies and the extension of functions to the next level.

The level-m energy is E_m(u) = sum over edges of (u(X)-u(Y))^2; the
renormalized energy (3/2)^m E_m(u) is what survives the m -> infinity
limit.  Minimizing E_m over the new midpoints of one cell with corner
values (a,b,c,d) has the closed-form solution

    x_1 = (2a+2b+c+d)/6    x_2 = (a+2b+2c+d)/6    x_3 = (2a+b+2c+d)/6
    x_4 = (2a+b+c+2d)/6    x_5 = (a+2b+c+2d)/6    x_6 = (a+b+2c+2d)/6

in the midpoint labeling of CELL_MIDPOINT_PAIRS, and the minimum energy
is (2/3) times the corner energy.  The global minimization splits into
one such problem per cell.  It is the lam = 0 case of the spectral
decimation formula, so one extension_cell serves harmonic functions and
eigenfunctions alike; cell_restriction inverts the extension.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .fractal_graph import CHILD_CORNERS, LevelGraph, is_letter, level_graph


@dataclass(frozen=True)
class VertexFunction:
    """A real-valued function on the vertices of a level graph; it owns a
    read-only copy of its values, and neither attribute can be rebound."""

    graph: LevelGraph
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.array(self.values, dtype=float))
        self._seal()

    def _seal(self):
        self.values.flags.writeable = False
        if self.values.shape != (self.graph.n_vertices,):
            raise ValueError(
                f"expected {self.graph.n_vertices} values for level "
                f"{self.graph.level}, got shape {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("vertex values must be finite")


def _owning(graph: LevelGraph, values: np.ndarray) -> VertexFunction:
    """VertexFunction(graph, values) without the copy, for a fresh float array
    that nothing else holds; it is sealed and checked the same way."""
    u = object.__new__(VertexFunction)
    object.__setattr__(u, "graph", graph)
    object.__setattr__(u, "values", values)
    u._seal()
    return u


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
    du = u.values[i] - u.values[j]
    dv = du if v is u else v.values[i] - v.values[j]
    # np.sum is pairwise: bounded rounding
    return float(np.sum(du * dv))


#: Eigenvalues that are born, not extended: no extension_cell reaches them.
FORBIDDEN_VALUES = (2.0, 6.0, 8.0)


class ForbiddenEigenvalueError(ValueError):
    """Extension attempted at a degenerate eigenvalue (2, 6 or 8)."""


def extension_cell(lam: float, a: float, b: float, c: float, d: float):
    """Midpoint values of one cell at eigenvalue lam (elementwise on arrays).

    Slot (i, j) is ((4-lam)(c_i+c_j) + 2(c_k+c_l)) / ((2-lam)(6-lam)), halved
    above and below; p = 2 and q = 6 exactly give the closed form above at lam = 0.
    """
    p, q = (4.0 - lam) / 2.0, (2.0 - lam) * (6.0 - lam) / 2.0
    return (
        (p * a + p * b + c + d) / q,
        (a + p * b + p * c + d) / q,
        (p * a + b + p * c + d) / q,
        (p * a + b + c + p * d) / q,
        (a + p * b + c + p * d) / q,
        (a + b + p * (c + d)) / q,
    )


def eigenfunction_extend(u: VertexFunction, lambda_m: float, *,
                         target: LevelGraph | None = None) -> VertexFunction:
    """Extend a level-(m-1) Dirichlet eigenfunction to level m.

    Requires lam_m outside {2,6,8} (the per-cell solve divides by
    (2-lam)(6-lam)) and u satisfying -Delta u = lam_m(6-lam_m) u with
    zero boundary values; the result then satisfies -Delta u = lam_m u
    on all of V_m minus V_0.  At lam_m = 0 it is the harmonic extension
    of any u.  For the forbidden values there is no extension formula:
    take kernel vectors from the dense oracle (born_eigenbasis) instead.
    """
    if min(abs(lambda_m - f) for f in FORBIDDEN_VALUES) < 1e-9:
        raise ForbiddenEigenvalueError(
            f"lam={lambda_m} is degenerate; born eigenfunctions come from the "
            "dense-oracle kernel (born_eigenbasis), not from extension"
        )
    target = level_graph(u.graph.level + 1, target)
    corners = u.values[u.graph.cells].T
    out = np.empty(target.n_vertices)
    for (i, j), column in zip(CHILD_CORNERS, [*corners, *extension_cell(lambda_m, *corners)]):
        out[target.cells.reshape(-1, 4, 4)[:, i, j]] = column
    return _owning(target, out)


def harmonize(boundary, m: int, *, graphs=None) -> VertexFunction:
    """The level-m harmonic function with the given four corner values.

    Iterates eigenfunction_extend at lam = 0 from level 0, so the
    renormalized energy equals E_0 of the boundary data at every level.
    ``graphs`` may map levels to prebuilt LevelGraphs.
    """
    values = np.array(boundary, dtype=float)
    if values.shape != (4,):
        raise ValueError("boundary data must be four values (one per corner)")
    if m < 0:
        raise ValueError(f"level must be nonnegative, got {m}")
    lookup = graphs or {}
    u = VertexFunction(level_graph(0, lookup.get(0)), values)
    for k in range(1, m + 1):
        u = eigenfunction_extend(u, 0.0, target=lookup.get(k))
    return u


def harmonic_family(boundary):
    """level -> VertexFunction for one harmonic function, cached across levels."""

    @functools.cache
    def at_level(m: int) -> VertexFunction:
        return eigenfunction_extend(at_level(m - 1), 0.0) if m > 0 else harmonize(boundary, m)

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
    if not is_letter(letter):
        raise ValueError(f"cell letter must be an integer in 0..3, got {letter!r}")
    target = level_graph(g.level - 1, target)
    # in product order, cell (letter,) + W of g is cell letter * n + (index of W in target)
    n = len(target.cells)
    vals = np.empty(target.n_vertices)
    vals[target.cells] = u.values[g.cells[letter * n:(letter + 1) * n]]
    return _owning(target, vals)
