"""Dense Dirichlet matrix and the Jacobi eigensolver.

Core claims:
    - the level-1 matrix is the known 6x6 with diagonal 6 and a zero on
      each opposite-midpoint pair; all-ones maps to 2*ones
    - Jacobi reproduces {2, 6^3, 8^2} at level 1 and the full algebraic
      multiset at level 2; eigenpairs and orthonormality hold to spec
    - kernel dimensions at level 2 are 0/6/14 and at level 3 are 18/62,
      settling the born-6 bookkeeping
    - sorted multisets from the oracle and from decimation agree at
      levels 1..3 within 1e-8
    - det(A_m - xI) equals the decimation product of its factors mod a
      prime at every x = 0..dim for levels 1..3 and at four seeded x at
      level 4, with no float and no eigensolver
"""

import functools
import hashlib
import math

import numpy as np
import pytest

from multiset import eigenvalue_multiset
from tetralap import (
    JacobiConvergenceError,
    LevelCapError,
    assemble,
    born_eigenbasis,
    born_multiplicities,
    enumerate_spectrum,
    jacobi_eigen,
)
from tetralap import oracle

# interior order at level 1 is the sorted midpoint addresses
# 0:1, 0:2, 0:3, 1:2, 1:3, 2:3; opposite midpoints share no cell
LEVEL1_MATRIX = np.array(
    [
        [6, -1, -1, -1, -1, 0],
        [-1, 6, -1, -1, 0, -1],
        [-1, -1, 6, 0, -1, -1],
        [-1, -1, 0, 6, -1, -1],
        [-1, 0, -1, -1, 6, -1],
        [0, -1, -1, -1, -1, 6],
    ],
    dtype=float,
)


def test_assemble_level1_matrix(graphs):
    a = assemble(1, graph=graphs(1))
    assert a.dim == 6
    assert np.array_equal(a.entries, LEVEL1_MATRIX)


def test_assemble_level1_in_classic_midpoint_order(graphs):
    # permuted to the x_1..x_6 midpoint labeling, the matrix is exactly
    # the harmonic-extension system matrix (the lam = 0 case)
    from tetralap import Address, CELL_MIDPOINT_PAIRS

    g = graphs(1)
    a = assemble(1, graph=g).entries
    perm = [g.index_of(Address((i,), j)) - 4 for i, j in CELL_MIDPOINT_PAIRS]
    classic = np.array(
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
    assert np.array_equal(a[np.ix_(perm, perm)], classic)


def test_assemble_all_ones_identity(graphs):
    a = assemble(1, graph=graphs(1))
    ones = np.ones(6)
    assert np.array_equal(a.entries @ ones, 2.0 * ones)


def test_assemble_dimensions(graphs):
    assert assemble(2, graph=graphs(2)).dim == 30
    assert assemble(3, graph=graphs(3)).dim == 126


def test_assemble_structure(graphs):
    a = assemble(2, graph=graphs(2)).entries
    assert np.array_equal(a, a.T)
    assert np.all(np.diag(a) == 6.0)
    row_sums = a.sum(axis=1)
    assert set(np.unique(row_sums)) <= {0.0, 1.0, 2.0, 3.0}


def test_assemble_caps():
    with pytest.raises(LevelCapError):
        assemble(6)
    with pytest.raises(ValueError):
        assemble(0)


def test_jacobi_identity_matrix():
    decomp = jacobi_eigen(np.eye(5))
    assert np.array_equal(decomp.values, np.ones(5))
    assert decomp.sweeps == 0


@pytest.mark.parametrize("mat", [np.array([[3.5]]), np.zeros((4, 4)), np.zeros((0, 0))],
                         ids=["1x1", "zero", "empty"])
def test_jacobi_needs_no_rotation(mat):
    decomp = jacobi_eigen(mat)
    assert np.array_equal(decomp.values, np.diag(mat))
    assert np.array_equal(decomp.vectors, np.eye(len(mat)))
    assert decomp.sweeps == 0 and decomp.off_diag_norm == 0.0


def _digest(decomp):
    return hashlib.sha256(decomp.values.tobytes() + decomp.vectors.tobytes()).hexdigest()


@pytest.mark.parametrize("m, digest, sweeps, off", [
    (2, "038638b6ad515a4d9c5abe7d3856dbe3525661af117626d5d75cba5c1067d9be", 12,
     "2.7225091998647045e-14"),
    (3, "56de2c09e7f2b9b93e4cf09865038e1d702d708aa0b231e622bb062398c4517b", 14,
     "2.6870927215753686e-13"),
    # level 4's off_diag_norm moves in its last digit with the BLAS thread
    # count (ROADMAP item 14), so it is not pinned
    pytest.param(4, "db2ac659793f131f644bbb397f1af56789420ee7c49c7254b84d5ec0bc6435ba", 16,
                 None, marks=pytest.mark.slow),
])
def test_jacobi_decomposition_is_pinned(oracle_decomps, m, digest, sweeps, off):
    # the whole decomposition, bit for bit: oracle-compare's pinned
    # documents carry the values only
    decomp = oracle_decomps(m)
    assert _digest(decomp) == digest
    assert decomp.sweeps == sweeps
    if off is not None:
        assert repr(decomp.off_diag_norm) == off


def test_jacobi_rejects_asymmetric():
    with pytest.raises(ValueError):
        jacobi_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))
    # within np.allclose's default rtol, but not symmetric
    with pytest.raises(ValueError):
        jacobi_eigen(np.array([[2.0, 1.0], [1.0 + 1e-6, 3.0]]))


def test_jacobi_random_symmetric_matches_lapack():
    rng = np.random.default_rng(41)
    mat = rng.normal(size=(40, 40))
    mat = (mat + mat.T) / 2.0
    decomp = jacobi_eigen(mat)
    assert _digest(decomp) == "65a688015b0a9a98d033e0dfababaa64e8bbd71a283cd55f123a27fc3d22f961"
    assert decomp.sweeps == 13
    assert np.allclose(decomp.values, np.linalg.eigvalsh(mat), atol=1e-11)
    assert np.max(np.abs(mat @ decomp.vectors - decomp.vectors * decomp.values)) < 1e-11
    gram = decomp.vectors.T @ decomp.vectors
    assert np.max(np.abs(gram - np.eye(40))) < 1e-12


def test_jacobi_convergence_cap(monkeypatch):
    rng = np.random.default_rng(42)
    mat = rng.normal(size=(12, 12))
    mat = (mat + mat.T) / 2.0
    monkeypatch.setattr(oracle, "JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(JacobiConvergenceError):
        jacobi_eigen(mat)


def test_level1_eigenvalues(oracle_decomps):
    values = oracle_decomps(1).values
    assert np.allclose(values, [2.0, 6.0, 6.0, 6.0, 8.0, 8.0], atol=1e-10)


def test_level2_eigenvalue_multiset(oracle_decomps):
    got = eigenvalue_multiset(oracle_decomps(2))
    expected = sorted(
        [
            (3.0 - math.sqrt(7.0), 1),
            (3.0 - math.sqrt(3.0), 3),
            (4.0, 2),
            (3.0 + math.sqrt(3.0), 3),
            (3.0 + math.sqrt(7.0), 1),
            (6.0, 6),
            (8.0, 14),
        ]
    )
    assert len(got) == len(expected)
    for (gv, gm), (ev, em) in zip(got, expected):
        assert gv == pytest.approx(ev, abs=1e-9)
        assert gm == em


def test_eigenpair_quality(oracle_decomps, graphs):
    for m in (1, 2, 3):
        decomp = oracle_decomps(m)
        a = assemble(m, graph=graphs(m)).entries
        residual = np.max(np.abs(a @ decomp.vectors - decomp.vectors * decomp.values))
        assert residual < 1e-9
        gram = decomp.vectors.T @ decomp.vectors
        assert np.max(np.abs(gram - np.eye(a.shape[0]))) < 1e-10
        assert decomp.off_diag_norm < 1e-12 * np.linalg.norm(a)


def test_trace_identity(oracle_decomps):
    for m in (1, 2, 3):
        values = oracle_decomps(m).values
        assert float(np.sum(values)) == pytest.approx(6.0 * len(values), abs=1e-8)


def test_spectrum_inside_gershgorin(oracle_decomps):
    for m in (1, 2, 3):
        values = oracle_decomps(m).values
        assert np.all(values > 0.0)
        assert np.all(values < 12.0)


def test_kernel_dimensions_level2(graphs, oracle_decomps):
    basis = functools.partial(born_eigenbasis, 2, graph=graphs(2), decomposition=oracle_decomps(2))
    assert len(basis(2.0)) == 0
    assert len(basis(6.0)) == 6
    assert len(basis(8.0)) == 14


def test_kernel_dimensions_level3_arbitrate_born6(graphs, oracle_decomps):
    basis = functools.partial(born_eigenbasis, 3, graph=graphs(3), decomposition=oracle_decomps(3))
    # 18 = 4^2 + 2; the alternative closed form 4^3 = 64 cannot fit in a
    # total multiplicity of 126
    assert len(basis(6.0)) == 18
    assert len(basis(8.0)) == 62


def test_oracle_matches_decimation(oracle_decomps):
    for m in (1, 2, 3):
        dense = oracle_decomps(m).values
        expanded = []
        for r in enumerate_spectrum(m).records:
            expanded.extend([r.value] * r.multiplicity)
        expanded.sort()
        assert len(expanded) == len(dense)
        assert np.max(np.abs(dense - np.array(expanded))) < 1e-8


# --- the characteristic polynomial, exactly ----------------------------------

PRIME = 1_000_003


def _det_mod_p(entries, x):
    """det(entries - xI) mod PRIME, by Gaussian elimination in int64: every
    entry stays below PRIME, so each product stays below 2^63."""
    a = (entries.astype(np.int64) - x * np.eye(len(entries), dtype=np.int64)) % PRIME
    det = 1
    for k in range(len(a)):
        (rows,) = np.nonzero(a[k:, k])
        if not len(rows):
            return 0
        if rows[0]:
            a[[k, k + rows[0]]] = a[[k + rows[0], k]]
            det = -det
        pivot = int(a[k, k])
        det = det * pivot % PRIME
        factors = a[k + 1:, k] * pow(pivot, -1, PRIME) % PRIME
        a[k + 1:, k:] = (a[k + 1:, k:] - factors[:, None] * a[k, k:]) % PRIME
    return det


def _decimation_det_mod_p(m, x):
    """The decimation product, mod PRIME, with R(y) = y(6 - y):
    (2 - R^(m-1)(x)) * prod_{k=1..m} (6 - R^(m-k)(x))^(born 6 at k)
    * prod_{k=1..m-1} (4 - R^(m-k-1)(x))^(born 8 at k) * (8 - x)^(born 8 at m).
    8 born at level k < m goes on as 4 = 3 + sqrt(9 - 8) only: its minus
    child 2 is pruned, so no factor of 2 - R^(m-k-1)(x) is there."""
    r = [x]  # r[j] = R^j(x) mod PRIME
    for _ in range(m - 1):
        r.append(r[-1] * (6 - r[-1]) % PRIME)
    det = pow(2 - r[m - 1], born_multiplicities(1)[2], PRIME)
    for k in range(1, m + 1):
        born = born_multiplicities(k)
        det = det * pow(6 - r[m - k], born[6], PRIME) % PRIME
        stem = 4 - r[m - k - 1] if k < m else 8 - x
        det = det * pow(stem, born[8], PRIME) % PRIME
    return det


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_characteristic_polynomial_is_the_decimation_product(graphs, m):
    # both sides are polynomials of degree dim in x, so agreeing at the
    # dim + 1 points x = 0..dim makes them equal mod PRIME: every
    # multiplicity and the branch rule, checked exactly.  At level 4 that
    # is 511 eliminations of a 510 x 510 matrix, so four seeded points
    # stand in: two different polynomials of degree 510 agree at a
    # random point with probability at most 510 / PRIME
    entries = assemble(m, graph=graphs(m)).entries
    points = (range(len(entries) + 1) if m <= 3
              else np.random.default_rng(4).integers(0, PRIME, size=4).tolist())
    for x in points:
        assert _det_mod_p(entries, x) == _decimation_det_mod_p(m, x), x
