"""Graph construction: counts, adjacency, canonical addresses, embedding.

Core claims:
    - N_m follows 4 N_{m-1} - 6 exactly; edge count is 6 * 4^m
    - degrees are 6 interior / 3 boundary for m >= 1
    - canonicalization is idempotent and embeds invariantly
    - canonical addresses biject with geometric points (m <= 4, exhaustive)
    - V_{m-1} sits inside V_m as the shorter-word addresses
    - the edge and neighbor tables are built once, on first read, and
      extension, restriction and address export never build them
"""

import hashlib
import itertools
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from tetralap import (
    Address,
    CORNER_COORDS,
    LevelCapError,
    address_strings,
    build_level,
    canonicalize,
    cell_restriction,
    harmonic_family,
    harmonize,
    vertex_coords,
)
from tetralap import cli, fractal_graph


def neighbors(g, v: int) -> list[int]:
    """The neighbors of vertex v: the entries of row v of the neighbor table
    other than v itself, which pads a corner's row; IndexError past the last
    vertex, which has no row."""
    row = g.neighbors[v]
    return row[row != v].tolist()


def embed_address(a: Address) -> np.ndarray:
    """3D position of a vertex, by composing the midpoint maps.

    The computation commutes bitwise with canonicalization: both
    rewrites (collapse and swap) leave the float arithmetic unchanged,
    so equal addresses embed to identical coordinates.
    """
    x = CORNER_COORDS[a.base].copy()
    for letter in reversed(a.word):
        x = (x + CORNER_COORDS[letter]) / 2.0
    return x


def test_vertex_counts_follow_recursion(graphs):
    counts = [graphs(m).n_vertices for m in range(7)]
    assert counts[0] == 4
    for m in range(1, 7):
        assert counts[m] == 4 * counts[m - 1] - 6
    assert counts[:4] == [4, 10, 34, 130]
    assert [2 * (4 ** m + 1) for m in range(7)] == counts


def test_level1_shape(graphs):
    g = graphs(1)
    assert g.n_vertices == 10
    assert len(g.edges) == 24
    assert len(list(g.interior)) == 6


def test_level2_interior_count(graphs):
    g = graphs(2)
    assert g.n_vertices == 34
    assert len(list(g.interior)) == 30  # 2(4^2 - 1)


def test_edge_count_and_degrees(graphs):
    for m in range(1, 7):
        g = graphs(m)
        assert len(g.edges) == 6 * 4 ** m
        degrees = Counter()
        for u, v in g.edges:
            degrees[u] += 1
            degrees[v] += 1
        hist = Counter(degrees.values())
        assert hist == {3: 4, 6: g.n_vertices - 4}


def test_interior_vertex_set_size(graphs):
    for m in range(1, 6):
        assert len(list(graphs(m).interior)) == 2 * (4 ** m - 1)


def test_level0_is_complete_graph(graphs):
    g = graphs(0)
    assert g.n_vertices == 4
    assert len(g.edges) == 6
    for v in range(4):
        assert sorted(neighbors(g, v)) == [u for u in range(4) if u != v]


def test_adjacency_is_symmetric(graphs):
    g = graphs(3)
    for v in range(g.n_vertices):
        for u in neighbors(g, v):
            assert v in neighbors(g, u)


def test_boundary_neighbors_at_level1(graphs):
    g = graphs(1)
    # P_0 touches the midpoints toward P_1, P_2, P_3
    expected = {
        g.index_of(Address((0,), 1)),
        g.index_of(Address((0,), 2)),
        g.index_of(Address((0,), 3)),
    }
    assert set(neighbors(g, 0)) == expected


def test_interior_v1_vertex_has_three_neighbors_per_cell(graphs):
    g = graphs(2)
    v = g.index_of(Address((0,), 1))
    nbrs = set(neighbors(g, v))
    assert len(nbrs) == 6
    touching = [cell for cell in g.cells if v in cell]
    assert len(touching) == 2
    for cell in touching:
        assert len(nbrs & (set(cell) - {v})) == 3


def test_cells_share_vertices_never_edges(graphs):
    g = graphs(2)
    seen = set()
    for cell in g.cells:
        for i in range(4):
            for j in range(i + 1, 4):
                e = tuple(sorted((cell[i], cell[j])))
                assert e not in seen
                seen.add(e)
    assert seen == set(map(tuple, g.edges.tolist()))


def test_invalid_vertex_index_raises(graphs):
    with pytest.raises(IndexError):
        neighbors(graphs(1), 10)


def test_level_cap():
    with pytest.raises(LevelCapError):
        build_level(13)
    with pytest.raises(ValueError):
        build_level(-1)


# --- canonical addresses -------------------------------------------------


def test_canonicalize_spec_cases():
    assert canonicalize(Address((0,), 1)) == Address((0,), 1)
    assert canonicalize(Address((1,), 0)) == Address((0,), 1)
    assert canonicalize(Address((2, 3), 1)) == Address((2, 1), 3)


def test_canonicalize_idempotent():
    import itertools

    for m in range(4):
        for word in itertools.product(range(4), repeat=m):
            for base in range(4):
                once = canonicalize(Address(word, base))
                assert canonicalize(once) == once


def test_canonicalize_preserves_embedding():
    import itertools

    for m in range(4):
        for word in itertools.product(range(4), repeat=m):
            for base in range(4):
                a = Address(word, base)
                # bitwise equality: both rewrites commute with the float ops
                assert np.array_equal(embed_address(a), embed_address(canonicalize(a)))


def test_trailing_collapse():
    # f_j(P_j) = P_j shortens the word; pure letter-sorting would miss this
    assert canonicalize(Address((0, 1), 1)) == Address((0,), 1)
    assert canonicalize(Address((1, 0), 0)) == Address((0,), 1)
    assert canonicalize(Address((2, 2, 2), 2)) == Address((), 2)


def test_canonical_addresses_biject_with_points(graphs):
    for m in range(5):
        g = graphs(m)
        points = {tuple(np.round(embed_address(a), 12)) for a in _reference_build(m)[0]}
        assert len(points) == g.n_vertices


def test_vertex_sets_nest(graphs):
    for m in range(1, 5):
        small = {graphs(m).index_of(a) for a in _reference_build(m - 1)[0]}
        large = {graphs(m).index_of(a) for a in _reference_build(m)[0] if len(a.word) < m}
        assert small == large


def test_vertex_order_deterministic(graphs):
    g1, g2 = graphs(2), build_level(2)
    assert np.array_equal(g1.keys, g2.keys)
    assert np.array_equal(g1.cells, g2.cells)


def test_array_tables_mirror_tuples_and_are_read_only(graphs):
    for m in range(4):
        g = graphs(m)
        pairs = {
            (min(c[i], c[j]), max(c[i], c[j]))
            for c in g.cells.tolist()
            for i in range(4)
            for j in range(i + 1, 4)
        }
        assert g.edges.tolist() == [list(e) for e in sorted(pairs)]
        for table in (g.edges, g.cells):
            with pytest.raises(ValueError):
                table[0, 0] = -1


def _reference_build(m):
    """The per-address construction: canonicalize each cell corner, number
    the fresh addresses in sorted order after the corners, then collect the
    edge set and the sorted adjacency from the cells."""
    index = {Address((), i): i for i in range(4)}
    words = list(itertools.product(range(4), repeat=m))
    cells_addr = [[canonicalize(Address(word, j)) for j in range(4)] for word in words]
    fresh = {a for cell in cells_addr for a in cell if a not in index}
    for a in sorted(fresh, key=lambda a: (a.word, a.base)):
        index[a] = len(index)
    cells = [[index[a] for a in cell] for cell in cells_addr]
    edges, adjacency = set(), [set() for _ in index]
    for cell in cells:
        for i in range(4):
            for j in range(i + 1, 4):
                u, v = cell[i], cell[j]
                edges.add((min(u, v), max(u, v)))
                adjacency[u].add(v)
                adjacency[v].add(u)
    return list(index), words, cells, sorted(edges), [sorted(s) for s in adjacency]


@pytest.mark.parametrize("m", range(7))
def test_array_tables_match_address_reference(graphs, m):
    vertices, words, cells, edges, adjacency = _reference_build(m)
    g = graphs(m)
    assert address_strings(g).tolist() == list(map(str, vertices))
    assert g.cells.tolist() == cells
    assert list(map(tuple, g.edges.tolist())) == edges
    assert [neighbors(g, v) for v in range(g.n_vertices)] == adjacency
    assert [g.index_of(a) for a in vertices] == list(range(len(vertices)))
    with pytest.raises(KeyError):
        g.index_of(Address((0,) * m + (1,), 2))  # born at level m + 1


@pytest.mark.parametrize("m", range(1, 6))
def test_indices_of_matches_index_of(graphs, m):
    g = graphs(m)
    for level in range(m):
        coarse = _reference_build(level)[0]
        assert g.indices_of(graphs(level)).tolist() == [g.index_of(a) for a in coarse]
    assert g.indices_of(g).tolist() == list(range(g.n_vertices))
    with pytest.raises(ValueError):
        graphs(m - 1).indices_of(g)


#: sha256 of keys, cells, edges, the cumulative degrees and the real entries of
#: the neighbor rows, in that order (the five tables of a layout that kept the
#: neighbors as one flat array of rows and their offsets), measured on the
#: earlier build that canonicalized every cell corner and ran np.unique
LEVEL_TABLE_DIGESTS = {
    6: "81d643c88b7b5c9ba67007b42c16371c242ee0f5e40ba7aff4304413bb64f90d",
    7: "250f9b5e3a863f7f11e51cf2fc9eac6de7c9c8f5489d43d991d3563aeeeedc07",
    8: "08da06eabb85781e1c50430c8669400a10da322fd34b3bc502d905b7da4e4285",
    9: "12b67317bc84e747d40f17980981eda2a7b0d021a70e01add2adc3c080aa4002",
    10: "ecd893e7a3cafb971abbccf31345394e6b0d8beed41482647de46da28f582eff",
}


@pytest.mark.parametrize("m", sorted(LEVEL_TABLE_DIGESTS))
def test_level_tables_are_pinned(m):
    g = build_level(m)  # not the session fixture: level 10 holds 270 MB of tables
    n, cells = 2 * (4 ** m + 1), 4 ** m
    shapes = {"keys": (n,), "cells": (cells, 4), "edges": (6 * cells, 2), "neighbors": (n, 6)}
    for name, shape in shapes.items():
        table = getattr(g, name)
        assert (table.dtype, table.shape) == (np.int64, shape), name
    degrees = np.full(n, 6)
    degrees[:4] = 3
    rows = g.neighbors
    sha = hashlib.sha256()
    for table in (g.keys, g.cells, g.edges, np.cumsum(np.r_[0, degrees]), rows[:4, :3], rows[4:]):
        sha.update(table.tobytes())
    assert sha.hexdigest() == LEVEL_TABLE_DIGESTS[m]


def test_neighbor_tables_are_built_once_and_read_only():
    g = build_level(3)
    for name in ("edges", "neighbors"):
        table = getattr(g, name)
        assert getattr(g, name) is table, name
        with pytest.raises(ValueError):
            table[0] = -1


@pytest.mark.parametrize("m", range(9))
def test_neighbor_row_layout(m):
    g = build_level(m)
    rows = g.neighbors
    own = rows == np.arange(g.n_vertices)[:, None]
    assert own[:4].tolist() == [[False] * 3 + [True] * 3] * 4
    assert not own[4:].any()
    assert (np.diff(rows[:4, :3]) > 0).all() and (np.diff(rows[4:]) > 0).all()
    degrees = np.count_nonzero(~own, axis=1)
    assert (degrees[:4] == 3).all() and (degrees[4:] == 6).all()


def test_extension_restriction_and_export_build_no_neighbor_table(monkeypatch):
    def refuse(m):
        raise AssertionError(f"built the level-{m} neighbor rows")

    monkeypatch.setattr(fractal_graph, "_neighbor_rows", refuse)
    b = (1.0, -0.5, 0.25, 2.0)
    u = harmonize(b, 7)
    assert harmonic_family(b)(6).values.tobytes() == u.values[u.graph.indices_of(build_level(6))].tobytes()
    assert cell_restriction(u, 2).graph.level == 6
    assert len(address_strings(u.graph)) == len(vertex_coords(u.graph)) == u.graph.n_vertices
    with pytest.raises(AssertionError, match="level-7 neighbor rows"):
        u.graph.edges


def test_address_string_round_trip():
    for a in (Address((), 2), Address((0, 1), 3), Address((2, 1), 3)):
        assert Address.from_string(str(a)) == a
    # only [0-3]*:[0-3] parses: int() would take the spaces, signs,
    # newlines and non-ASCII digits in the last five
    for text in ("012", "0:", "0:4", "0: 1", "0:+1", "0:-0", "00:1\n", "\u0660:\u0661"):
        with pytest.raises(ValueError, match="malformed address"):
            Address.from_string(text)
    with pytest.raises(ValueError):
        Address((5,), 0)


# --- embedding ------------------------------------------------------------


def test_embed_level0_corners():
    assert np.array_equal(embed_address(Address((), 1)), CORNER_COORDS[1])


def test_embed_midpoint_relation_exact(graphs):
    g = graphs(1)
    mid = embed_address(Address((0,), 1))
    p0 = embed_address(Address((), 0))
    p1 = embed_address(Address((), 1))
    assert np.array_equal(mid, (p0 + p1) / 2.0)


def test_embed_level2_composition():
    a = Address((2, 0), 3)
    direct = embed_address(a)
    composed = (CORNER_COORDS[3] + CORNER_COORDS[0]) / 2.0
    composed = (composed + CORNER_COORDS[2]) / 2.0
    assert np.array_equal(direct, composed)


@pytest.mark.parametrize("m", range(6))
def test_vertex_coords_match_embed_address(graphs, m):
    g = graphs(m)
    reference = np.array([embed_address(a) for a in _reference_build(m)[0]])
    assert vertex_coords(g).shape == (g.n_vertices, 3)
    assert np.array_equal(vertex_coords(g), reference)


def test_cell_midpoint_relation_all_edges(graphs):
    g = graphs(2)
    vertices, words = _reference_build(2)[:2]
    for word, cell in zip(words, g.cells):
        coords = [embed_address(vertices[v]) for v in cell]
        for i in range(4):
            for j in range(i + 1, 4):
                mid = embed_address(Address(word + (i,), j))
                assert np.allclose(mid, (coords[i] + coords[j]) / 2.0, atol=1e-15)


# --- exports ---------------------------------------------------------------


def graph_json(capsys, m: int) -> dict:
    """The build-graph JSON document of level m, read back."""
    assert cli.main(["build-graph", "--level", str(m), "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_graph_json_schema(capsys):
    doc = graph_json(capsys, 1)
    assert doc["level"] == 1
    assert len(doc["vertices"]) == 10
    assert len(doc["edges"]) == 24
    first = doc["vertices"][0]
    assert set(first) == {"id", "word", "base", "xyz"}
    assert all(i < j for i, j in doc["edges"])


@pytest.mark.parametrize("m", range(8))
def test_address_strings_match_str_address(graphs, m):
    g = graphs(m)
    names = address_strings(g)
    assert names.dtype == f"<U{m + 2}"
    assert names.tolist() == [str(a) for a in _reference_build(m)[0]]


def test_address_strings_peak_is_near_their_result():
    # one uint8 character matrix, filled a digit column at a time: 1.85 times
    # the 5.2 MB result at level 8 (Python 3.11, numpy 2.4), against 5.25 for
    # the (N, m) int64 digit matrices it replaced
    g = build_level(8)
    tracemalloc.start()
    try:
        names = address_strings(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * names.nbytes


def test_vertex_coords_peak_is_near_their_result():
    # the (N, 3) result is updated in place, one axis at a time: 2.38 times the
    # 3.1 MB result at level 8 (Python 3.11, numpy 2.4), against 3.71 for the
    # np.where over whole (N, 3) arrays it replaced
    g = build_level(8)
    tracemalloc.start()
    try:
        xyz = vertex_coords(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.6 * xyz.nbytes


@pytest.mark.parametrize("m", range(5))
def test_graph_json_words_and_bases_match_addresses(graphs, capsys, m):
    g = graphs(m)
    doc = graph_json(capsys, m)
    assert [v["id"] for v in doc["vertices"]] == list(range(g.n_vertices))
    assert [(v["word"], v["base"]) for v in doc["vertices"]] == [
        (list(a.word), a.base) for a in _reference_build(m)[0]
    ]
    assert all(type(d) is int for v in doc["vertices"] for d in v["word"] + [v["base"]])
