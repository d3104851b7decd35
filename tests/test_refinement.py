"""The array refinement step against per-address references.

Each reference walks the cells and places every value through
``index_of(Address(...))``, the canonical-address lookup; the library
routes the same step through the cell tables.  The two must agree bit
for bit.  The extension's midpoint values are also held to the
decimation formula, written out on its own here.
"""

import functools

import numpy as np
import pytest

from tetralap import (
    CELL_MIDPOINT_PAIRS,
    CHILD_CORNERS,
    Address,
    Lineage,
    VertexFunction,
    assemble,
    born_eigenbasis,
    cell_restriction,
    eigenfunction_extend,
    eigenfunction_family,
    extension_cell,
    harmonize,
    vertex_coords,
)
from test_fractal_graph import _reference_build

LEVELS = range(0, 5)


def _reference_extend(u, target, midpoints):
    g = u.graph
    vertices, words = _reference_build(g.level)[:2]
    vals = np.full(target.n_vertices, np.nan)
    for a, x in zip(vertices, u.values):
        vals[target.index_of(a)] = x
    for word, cell in zip(words, g.cells):
        mids = midpoints(*u.values[list(cell)])
        for (i, j), x in zip(CELL_MIDPOINT_PAIRS, mids):
            vals[target.index_of(Address(word + (i,), j))] = x
    return vals


def _eigen_midpoints(lam, f=lambda x: x):
    """The decimation formula per midpoint; with f=abs, the scale of its rounding error."""
    denom = f((2.0 - lam) * (6.0 - lam))

    def mids(*cv):
        cv = [f(x) for x in cv]
        out = []
        for i, j in CELL_MIDPOINT_PAIRS:
            k, l = (x for x in range(4) if x not in (i, j))
            out.append((f(4.0 - lam) * (cv[i] + cv[j]) + 2.0 * (cv[k] + cv[l])) / denom)
        return out

    return mids


def _random_function(g, seed):
    return VertexFunction(g, np.random.default_rng(seed).normal(size=g.n_vertices))


@pytest.mark.parametrize("m", LEVELS)
@pytest.mark.parametrize("lam", [0.0, 0.37, 3.5, 7.25])
def test_eigenfunction_extend_matches_address_reference(graphs, m, lam):
    u = _random_function(graphs(m), 10 + m)
    ext = eigenfunction_extend(u, lam, target=graphs(m + 1))
    ref = _reference_extend(u, graphs(m + 1), functools.partial(extension_cell, lam))
    assert ext.values.tobytes() == ref.tobytes()
    # extension_cell halves the formula's numerator and denominator, which
    # moves the last bits; the largest error seen, over 68 values of lam
    # and 20 000 random cells each, is 2.82 eps times the scale
    formula = _reference_extend(u, graphs(m + 1), _eigen_midpoints(lam))
    scale = np.abs(_reference_extend(u, graphs(m + 1), _eigen_midpoints(lam, abs)))
    assert np.all(np.abs(ext.values - formula) <= 8 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("m", range(1, 8))
def test_child_corners_place_each_parent_vertex(graphs, m):
    # entry n is where the parent cell's n-th vertex sits among its children:
    # its corners P_0..P_3, then the midpoints x_1..x_6 of its edges
    parent, child = graphs(m - 1), graphs(m)
    corners = vertex_coords(parent)[parent.cells]
    ten = [*corners.transpose(1, 0, 2),
           *((corners[:, i] + corners[:, j]) / 2.0 for i, j in CELL_MIDPOINT_PAIRS)]
    at = vertex_coords(child)[child.cells.reshape(-1, 4, 4)]
    assert len(CHILD_CORNERS) == len(ten)
    for (i, j), want in zip(CHILD_CORNERS, ten):
        assert np.allclose(at[:, i, j], want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("m", LEVELS)
def test_cell_restriction_matches_address_reference(graphs, m):
    u = _random_function(graphs(m + 1), 20 + m)
    g, target = graphs(m + 1), graphs(m)
    for letter in range(4):
        sub = cell_restriction(u, letter, target=target)
        ref = np.array(
            [u.values[g.index_of(Address((letter,) + a.word, a.base))]
             for a in _reference_build(m)[0]]
        )
        assert sub.values.tobytes() == ref.tobytes()


def test_refinement_rejects_wrong_target(graphs):
    u = _random_function(graphs(1), 0)
    with pytest.raises(ValueError, match="target level"):
        eigenfunction_extend(u, 0.0, target=graphs(3))
    with pytest.raises(ValueError, match="target level"):
        eigenfunction_extend(u, 1.0, target=graphs(1))
    with pytest.raises(ValueError, match="target level"):
        cell_restriction(_random_function(graphs(2), 0), 0, target=graphs(0))
    with pytest.raises(ValueError):
        cell_restriction(u, 4)


# every way a caller can hand in a prebuilt level graph or decomposition,
# each given one of the wrong level, and the words that name the level wanted
@pytest.mark.parametrize("call, names", [
    pytest.param(lambda g, d: harmonize((1, 0, 0, 0), 2, graphs={0: g(1)}), r"is not 0\b",
                 id="harmonize-level0"),
    pytest.param(lambda g, d: harmonize((1, 0, 0, 0), 2, graphs={2: g(3)}), r"is not 2\b",
                 id="harmonize"),
    pytest.param(lambda g, d: cell_restriction(VertexFunction(g(2), np.zeros(34)), 0, target=g(2)),
                 r"is not 1\b", id="cell_restriction"),
    pytest.param(lambda g, d: eigenfunction_extend(VertexFunction(g(1), np.zeros(10)), 1.0,
                                                   target=g(3)),
                 r"is not 2\b", id="eigenfunction_extend"),
    pytest.param(lambda g, d: assemble(2, graph=g(3)), r"is not 2\b", id="assemble"),
    pytest.param(lambda g, d: born_eigenbasis(2, 6.0, graph=g(3)), r"is not 2\b",
                 id="born_eigenbasis-graph"),
    pytest.param(lambda g, d: born_eigenbasis(2, 6.0, graph=g(2), decomposition=d(1)),
                 r"level 2\b", id="born_eigenbasis-decomposition"),
    pytest.param(lambda g, d: eigenfunction_family(Lineage(2, 6.0), graphs={2: g(3)}),
                 r"is not 2\b", id="eigenfunction_family-graphs"),
    pytest.param(lambda g, d: eigenfunction_family(Lineage(2, 6.0), decompositions={2: d(1)}),
                 r"level 2\b", id="eigenfunction_family-decompositions"),
    pytest.param(lambda g, d: eigenfunction_family(Lineage(2, 6.0), graphs={3: g(2)},
                                                   decompositions={2: d(2)})(3),
                 r"is not 3\b", id="eigenfunction_family-extension"),
])
def test_prebuilt_input_of_wrong_level_rejected(graphs, oracle_decomps, call, names):
    with pytest.raises(ValueError, match=names):
        call(graphs, oracle_decomps)
