"""Brute-force spectral oracle: dense Dirichlet matrix plus cyclic Jacobi.

This side of the cross-validation is deliberately self-contained: the
eigensolver is a hand-rolled cyclic Jacobi rotation sweep, so agreement
with the decimation recursion is evidence, not circularity.  Dimensions
stay modest (2(4^m - 1), at most 2046 for the supported levels), where
Jacobi is slow but dependable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fractal_graph import LevelCapError, LevelGraph, build_level

ORACLE_LEVEL_CAP = 5

#: Eigenvalues within this distance are treated as one multiple
#: eigenvalue; true gaps at the supported levels exceed 1e-2.
CLUSTER_TOL = 1e-6


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


def assemble(m: int, *, graph: LevelGraph | None = None, level_cap: int = ORACLE_LEVEL_CAP) -> DirichletMatrix:
    """Dense interior Dirichlet matrix at level m (boundary rows dropped)."""
    if m < 1:
        raise ValueError(f"the Dirichlet matrix needs level >= 1, got {m}")
    if m > level_cap:
        raise LevelCapError(
            f"dense oracle capped at level {level_cap} (dim {2 * (4 ** level_cap - 1)}); got {m}"
        )
    g = graph if graph is not None else build_level(m)
    if g.level != m:
        raise ValueError(f"graph level {g.level} does not match requested level {m}")
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


def jacobi_eigen(
    a: DirichletMatrix | np.ndarray,
    *,
    tol: float = 1e-14,
    max_sweeps: int = 50,
) -> EigenDecomposition:
    """Full symmetric eigendecomposition by cyclic Jacobi rotations.

    Sweeps run until the off-diagonal Frobenius norm drops below
    ``tol * ||A||_F``; eigenvalues come back ascending with matching
    orthonormal eigenvector columns.
    """
    work = np.array(a.entries if isinstance(a, DirichletMatrix) else a, dtype=float)
    n = work.shape[0]
    if work.shape != (n, n) or not np.array_equal(work, work.T):
        raise ValueError("jacobi_eigen needs an exactly symmetric square matrix")
    vee = np.eye(n)
    fro = float(np.linalg.norm(work))
    if fro == 0.0 or n == 1:
        return EigenDecomposition(np.diag(work).copy(), vee, 0.0, 0)

    sweeps = 0
    while True:
        off = _off_norm(work)
        if off <= tol * fro:
            break
        if sweeps >= max_sweeps:
            raise JacobiConvergenceError(
                f"no convergence after {sweeps} sweeps: off-diagonal {off:.3e} "
                f"vs target {tol * fro:.3e} (dim {n})"
            )
        # rotations far below the current off level cannot help this
        # sweep; they are picked up later once off has shrunk
        thresh = 0.2 * off / n
        for p in range(n - 1):
            live = np.nonzero(np.abs(work[p, p + 1:]) > thresh)[0] + p + 1
            for q in live:
                apq = work[p, q]
                if abs(apq) <= thresh:
                    continue  # shrunk by an earlier rotation this sweep
                theta = 0.5 * (work[q, q] - work[p, p]) / apq
                if theta == 0.0:
                    t = 1.0
                else:
                    t = np.sign(theta) / (abs(theta) + np.hypot(1.0, theta))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rp = work[p, :].copy()
                rq = work[q, :].copy()
                work[p, :] = c * rp - s * rq
                work[q, :] = s * rp + c * rq
                cp = work[:, p].copy()
                cq = work[:, q].copy()
                work[:, p] = c * cp - s * cq
                work[:, q] = s * cp + c * cq
                vp = vee[:, p].copy()
                vq = vee[:, q].copy()
                vee[:, p] = c * vp - s * vq
                vee[:, q] = s * vp + c * vq
        sweeps += 1

    vals = np.diag(work).copy()
    order = np.argsort(vals, kind="stable")
    return EigenDecomposition(
        values=vals[order],
        vectors=vee[:, order],
        off_diag_norm=_off_norm(work),
        sweeps=sweeps,
    )


def kernel_dimension(
    a: DirichletMatrix | EigenDecomposition,
    lam: float,
    *,
    tol: float = CLUSTER_TOL,
) -> int:
    """Multiplicity of lam: eigenvalues within ``tol`` of it."""
    decomp = a if isinstance(a, EigenDecomposition) else jacobi_eigen(a)
    return int(np.sum(np.abs(decomp.values - lam) < tol))


def eigenvalue_multiset(decomp: EigenDecomposition, *, tol: float = CLUSTER_TOL):
    """Clustered (value, multiplicity) pairs, ascending."""
    out: list[tuple[float, int]] = []
    for v in decomp.values:
        if out and abs(v - out[-1][0]) < tol:
            out[-1] = (out[-1][0], out[-1][1] + 1)
        else:
            out.append((float(v), 1))
    return out


def eigenvalues_csv(level: int, decomp: EigenDecomposition) -> str:
    """CSV rows (level, index, eigenvalue)."""
    lines = ["level,index,eigenvalue"]
    for i, v in enumerate(decomp.values):
        lines.append(f"{level},{i},{float(v)!r}")
    return "\n".join(lines) + "\n"
