"""Acceptance suite: one test per criterion, with a printed verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts;
each check uses the tolerance stated in its criterion.
"""

import math
import time

import numpy as np
import pytest

from multiset import eigenvalue_multiset
from test_decimation import limit_eigenvalue
from tetralap import (
    Address,
    VertexFunction,
    assemble,
    born_eigenbasis,
    born_multiplicities,
    build_level,
    energy,
    energy_bilinear,
    enumerate_spectrum,
    gauss_green_residual,
    eigenfunction_extend,
    extension_cell,
    harmonic_family,
    interior_laplacian,
    jacobi_eigen,
    limit_spectrum,
    eigenfunction_family,
    normal_derivative,
    renormalized_laplacian,
    weyl_fit,
)
from tetralap.decimation import DIMENSION_CONSTANTS

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


def _report(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _expand(table):
    out = []
    for r in table.records:
        out.extend([r.value] * r.multiplicity)
    return np.array(sorted(out))


def test_criterion_01_vertex_counts():
    t0 = time.perf_counter()
    counts = [build_level(m).n_vertices for m in range(5)]
    elapsed = time.perf_counter() - t0
    ok = counts == [4, 10, 34, 130, 514] and elapsed < 1.0
    _report(1, ok, f"counts={counts}, {elapsed:.3f}s")


def test_criterion_02_harmonic_extension(graphs):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        a, b, c, d = rng.normal(scale=2.0, size=4)
        rhs = np.array([a + b, b + c, a + c, a + d, b + d, c + d])
        solved = np.linalg.solve(CELL_SYSTEM, rhs)
        closed = np.array(extension_cell(0.0, a, b, c, d))
        worst = max(worst, float(np.max(np.abs(solved - closed))))
    ratio_worst = 0.0
    for m in range(1, 6):
        g = graphs(m - 1)
        u = VertexFunction(g, rng.normal(size=g.n_vertices))
        ext = eigenfunction_extend(u, 0.0, target=graphs(m))
        ratio = energy(ext).raw / energy(u).raw
        ratio_worst = max(ratio_worst, abs(ratio - 2.0 / 3.0) / (2.0 / 3.0))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and ratio_worst < 1e-12 and elapsed < 5.0
    _report(2, ok, f"closed-form dev={worst:.2e}, ratio dev={ratio_worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_figure_caption_case():
    got = extension_cell(0.0, 0, 2, 0, 2)
    expected = (1.0, 1.0, 2.0 / 3.0, 1.0, 4.0 / 3.0, 1.0)
    ok = got == expected
    _report(3, ok, f"midpoints={got}")


def test_criterion_04_level1_spectrum(graphs, oracle_decomps):
    dense = oracle_decomps(1).values
    expected = np.array([2.0, 6.0, 6.0, 6.0, 8.0, 8.0])
    dev_dense = float(np.max(np.abs(dense - expected)))
    dec = _expand(enumerate_spectrum(1))
    dev_dec = float(np.max(np.abs(dec - expected)))
    ok = dev_dense < 1e-10 and dev_dec == 0.0
    _report(4, ok, f"oracle dev={dev_dense:.2e}, decimation dev={dev_dec:.2e}")


def test_criterion_05_level2_spectrum(graphs, oracle_decomps):
    s3, s7 = math.sqrt(3.0), math.sqrt(7.0)
    expected = sorted(
        [(3 - s7, 1), (3 - s3, 3), (4.0, 2), (3 + s3, 3), (3 + s7, 1), (6.0, 6), (8.0, 14)]
    )
    dense = eigenvalue_multiset(oracle_decomps(2))
    table = enumerate_spectrum(2)
    dec = [(r.value, r.multiplicity) for r in table.records]
    ok = (
        table.total_multiplicity == 30
        and len(dense) == 7
        and all(
            abs(gv - ev) < 1e-9 and gm == em
            for (gv, gm), (ev, em) in zip(dense, expected)
        )
        and all(
            abs(gv - ev) < 1e-9 and gm == em
            for (gv, gm), (ev, em) in zip(dec, expected)
        )
    )
    _report(5, ok, f"total={table.total_multiplicity}, 7 values matched by both routes")


def test_criterion_06_level3_arbitration(graphs):
    t0 = time.perf_counter()
    decomp = jacobi_eigen(assemble(3, graph=graphs(3)))
    k6 = len(born_eigenbasis(3, 6.0, graph=graphs(3), decomposition=decomp))
    k8 = len(born_eigenbasis(3, 8.0, graph=graphs(3), decomposition=decomp))
    table = enumerate_spectrum(3)
    dec = _expand(table)
    dev = float(np.max(np.abs(decomp.values - dec)))
    born = born_multiplicities(3)
    elapsed = time.perf_counter() - t0
    ok = (
        k6 == 18
        and k8 == 62
        and table.total_multiplicity == 126
        and born == {2: 0, 6: 18, 8: 62}
        and dev < 1e-8
        and elapsed < 60.0
    )
    _report(6, ok, f"kernel dims 6->{k6}, 8->{k8}, multiset dev={dev:.2e}, {elapsed:.1f}s")


def test_criterion_07_gauss_green(graphs):
    rng = np.random.default_rng(102)
    worst = 0.0
    for m in range(1, 5):
        g = graphs(m)
        for _ in range(100):
            u = VertexFunction(g, rng.normal(size=g.n_vertices))
            v = VertexFunction(g, rng.normal(size=g.n_vertices))
            scale = max(1.0, abs(1.5 ** m * energy_bilinear(u, v)))
            worst = max(worst, abs(gauss_green_residual(u, v)) / scale)
    ok = worst < 1e-10
    _report(7, ok, f"max relative residual={worst:.2e} over 400 pairs")


def test_criterion_08_normal_derivatives():
    fam = harmonic_family((1, 0, 0, 0))
    values = [normal_derivative(fam, Address((), 0), k).value for k in range(6)]
    dev_const = max(abs(v - 3.0) for v in values)
    rng = np.random.default_rng(103)
    dev_sum = 0.0
    for _ in range(20):
        f = harmonic_family(rng.normal(scale=2.0, size=4))
        total = sum(normal_derivative(f, Address((), i), 4).value for i in range(4))
        dev_sum = max(dev_sum, abs(total))
    ok = dev_const < 1e-12 and dev_sum < 1e-12
    _report(8, ok, f"P0 estimates dev={dev_const:.2e}, flux-sum dev={dev_sum:.2e}")


@pytest.mark.slow
def test_criterion_09_eigenfunction_residuals(graphs, oracle_decomps):
    lookup = {m: graphs(m) for m in range(5)}
    decomps = {m: oracle_decomps(m) for m in range(1, 5)}
    worst, checked = 0.0, 0
    for m in range(1, 5):
        for rec in enumerate_spectrum(m).records:
            fam = eigenfunction_family(rec.lineage, graphs=lookup, decompositions=decomps)
            u = fam(rec.lineage.level)
            res = -interior_laplacian(u) - rec.value * u.values[list(u.graph.interior)]
            rel = float(np.max(np.abs(res))) / float(np.max(np.abs(u.values)))
            worst = max(worst, rel)
            checked += 1
    ok = worst <= 1e-9
    _report(9, ok, f"max residual={worst:.2e} over {checked} lineages (m<=4)")


def test_criterion_10_weyl_exponent():
    t0 = time.perf_counter()
    table = enumerate_spectrum(8)
    limits = limit_spectrum(8, len(table.records))
    alpha_hat, diag = weyl_fit(limits)
    target = DIMENSION_CONSTANTS.weyl_alpha
    elapsed = time.perf_counter() - t0
    ok = abs(alpha_hat - target) < 0.05 and elapsed < 120.0
    _report(
        10,
        ok,
        f"alpha_hat={alpha_hat:.4f} vs ln4/ln6={target:.4f} "
        f"({diag.n_used}/{diag.n_total} records), {elapsed:.1f}s",
    )


def test_criterion_11_pointwise_laplacian_consistency(graphs, oracle_decomps):
    lookup = {m: graphs(m) for m in range(6)}
    decomps = {1: oracle_decomps(1), 2: oracle_decomps(2)}
    candidates = [
        r for r in enumerate_spectrum(3).records if r.lineage.birth_level <= 2
    ][:6]
    assert len(candidates) >= 5
    all_monotone = True
    details = []
    for rec in candidates:
        fam = eigenfunction_family(rec.lineage, graphs=lookup, decompositions=decomps)
        lam = limit_eigenvalue(rec).value
        u3 = fam(3)
        interior = list(u3.graph.interior)
        x_idx = interior[int(np.argmax(np.abs(u3.values[interior])))]
        target = -lam * u3.values[x_idx]
        errs = []
        for m in (3, 4, 5):
            um = fam(m)
            estimate = renormalized_laplacian(um, um.graph.indices_of(u3.graph)[x_idx])
            errs.append(abs(estimate - target) / abs(target))
        monotone = errs[0] > errs[1] > errs[2]
        all_monotone = all_monotone and monotone
        details.append(f"{errs[0]:.1e}>{errs[1]:.1e}>{errs[2]:.1e}")
    _report(11, all_monotone, f"rel errors per lineage: {'; '.join(details)}")
