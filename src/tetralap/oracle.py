"""Brute-force spectral oracle: dense Dirichlet matrix plus cyclic Jacobi.

This side of the cross-validation is deliberately self-contained: the
eigensolver is a hand-rolled cyclic Jacobi rotation sweep, so agreement
with the decimation recursion is evidence, not circularity.  Dimensions
stay modest (2(4^m - 1), at most 2046 for the supported levels), where
Jacobi is slow but dependable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fractal_graph import LevelCapError, LevelGraph, level_graph

ORACLE_LEVEL_CAP = 5

#: Eigenvalues within this distance are treated as one multiple
#: eigenvalue; true gaps at the supported levels exceed 1e-2.
CLUSTER_TOL = 1e-6

#: Jacobi's target for the relative off-diagonal norm, and its sweep cap.
JACOBI_TOL = 1e-14
JACOBI_MAX_SWEEPS = 50


class JacobiConvergenceError(RuntimeError):
    """Sweep cap reached before the off-diagonal mass fell below tolerance."""


@dataclass(frozen=True)
class DirichletMatrix:
    """Matrix of -Delta_m on V_m minus V_0 with zero boundary data.

    Diagonal 6, entry -1 per interior-interior edge; row sums count the
    missing boundary neighbors.
    """

    level: int
    entries: np.ndarray

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class EigenDecomposition:
    values: np.ndarray
    vectors: np.ndarray
    off_diag_norm: float
    sweeps: int


def assemble(m: int, *, graph: LevelGraph | None = None) -> DirichletMatrix:
    """Dense interior Dirichlet matrix at level m (boundary rows dropped)."""
    if m < 1:
        raise ValueError(f"the Dirichlet matrix needs level >= 1, got {m}")
    if m > ORACLE_LEVEL_CAP:
        raise LevelCapError(
            f"dense oracle capped at level {ORACLE_LEVEL_CAP} "
            f"(dim {2 * (4 ** ORACLE_LEVEL_CAP - 1)}); got {m}"
        )
    g = level_graph(m, graph)
    n = g.n_vertices - 4
    a = 6.0 * np.eye(n)
    i, j = (g.edges[g.edges[:, 0] >= 4] - 4).T  # edges are (i, j) with i < j
    a[i, j] = a[j, i] = -1.0
    return DirichletMatrix(level=m, entries=a)


def _off_norm(a: np.ndarray) -> float:
    # computed entrywise; the sum-of-squares shortcut cancels to noise
    # once the off-diagonal mass is tiny next to the diagonal
    b = a.copy()
    np.fill_diagonal(b, 0.0)
    return float(np.linalg.norm(b))


def jacobi_eigen(a: DirichletMatrix | np.ndarray) -> EigenDecomposition:
    """Full symmetric eigendecomposition by cyclic Jacobi rotations.

    Sweeps run until the off-diagonal Frobenius norm drops below
    ``JACOBI_TOL * ||A||_F``; eigenvalues come back ascending with
    matching orthonormal eigenvector columns.
    """
    work = np.array(a.entries if isinstance(a, DirichletMatrix) else a, dtype=float)
    n = work.shape[0]
    if work.shape != (n, n) or not np.array_equal(work, work.T):
        raise ValueError("jacobi_eigen needs an exactly symmetric square matrix")
    fro = float(np.linalg.norm(work))
    if fro == 0.0 or n == 1:
        return EigenDecomposition(np.diag(work).copy(), np.eye(n), 0.0, 0)

    # both[p] holds row p of the matrix and of vt = vee.T, so one update turns
    # both rows; columns turn as rows of the transpose.  Views, scratch rows
    # and 0-d scalars are made once per call: a rotation allocates nothing
    both = np.stack([work, np.eye(n)], axis=1)
    work, vt = both[:, 0], both[:, 1]
    c, s, h, scratch = np.empty(()), np.empty(()), np.empty(()), np.empty((2, 2, n))
    turns = ((list(both), *scratch), (list(work.T), *scratch[:, 0]))  # views, s*x, s*y
    sweeps = 0
    while True:
        off = _off_norm(work)
        if off <= JACOBI_TOL * fro:
            break
        if sweeps >= JACOBI_MAX_SWEEPS:
            raise JacobiConvergenceError(
                f"no convergence after {sweeps} sweeps: off-diagonal {off:.3e} "
                f"vs target {JACOBI_TOL * fro:.3e} (dim {n})"
            )
        # rotations far below the current off level cannot help this
        # sweep; they are picked up later once off has shrunk
        thresh = 0.2 * off / n
        for p in range(n - 1):
            live = (np.flatnonzero(np.abs(work[p, p + 1:]) > thresh) + (p + 1)).tolist()
            for q in live:
                apq = work.item(p, q)
                if abs(apq) <= thresh:
                    continue  # shrunk by an earlier rotation this sweep
                theta = 0.5 * (work.item(q, q) - work.item(p, p)) / apq
                if theta == 0.0:
                    t = 1.0
                else:
                    # np.hypot, not math.hypot, which may round differently
                    t = math.copysign(1.0, theta) / (abs(theta) + np.hypot(1.0, theta, out=h).item())
                c[()] = cs = 1.0 / math.sqrt(t * t + 1.0)
                s[()] = t * cs
                # x, y = c*x - s*y, s*x + c*y in place: each entry is two rounded
                # products and one rounded sum, whichever order the sum is written in
                for views, sx, sy in turns:
                    x, y = views[p], views[q]
                    np.multiply(x, s, out=sx)
                    np.multiply(y, s, out=sy)
                    x *= c
                    x -= sy
                    y *= c
                    y += sx
        sweeps += 1

    order = np.argsort(np.diag(work), kind="stable")
    return EigenDecomposition(np.diag(work)[order], vt[order].T.copy(), _off_norm(work), sweeps)

