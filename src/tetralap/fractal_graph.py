"""Level graphs of the Sierpinski tetrahedron.

The tetrahedron is the attractor of four midpoint contractions
f_i(X) = (X + P_i)/2 of a regular 3-simplex with corners P_0..P_3.
The level-m graph has vertex set V_m = union of f_i(V_{m-1}), one cell
f_W(V_0) per word W of length m over {0,1,2,3}, and an edge between two
vertices exactly when they share a cell.

Vertices are identified by canonical addresses, not coordinates, so
construction is exact at any depth.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

LETTERS = (0, 1, 2, 3)

#: Midpoint slots of a cell, in the fixed labeling x_1..x_6:
#: x_1 on (P0,P1), x_2 on (P1,P2), x_3 on (P0,P2),
#: x_4 on (P0,P3), x_5 on (P1,P3), x_6 on (P2,P3).
CELL_MIDPOINT_PAIRS = ((0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3))

#: Regular tetrahedron with unit edge length. The spectrum and all
#: energies are embedding-independent; coordinates feed exports only.
CORNER_COORDS = np.array(
    [
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.5, math.sqrt(3.0) / 2.0, 0.0],
        [0.5, math.sqrt(3.0) / 6.0, math.sqrt(6.0) / 3.0],
    ]
)

#: Default construction cap. N_12 is about 3.4e7 vertices; beyond that
#: memory use stops being predictable.
DEFAULT_LEVEL_CAP = 12


class LevelCapError(RuntimeError):
    """Requested level exceeds the configured resource cap."""


@dataclass(frozen=True)
class Address:
    """Identity of a vertex: the point f_{word}(P_base).

    The canonical form drops trailing word letters equal to the base
    (f_j(P_j) = P_j) and then sorts the final letter against the base
    (f_Wi(P_j) = f_Wj(P_i)), so each geometric vertex has exactly one
    canonical address.  Corners P_i carry the empty word; the word
    length of a canonical address is the level at which the vertex
    first appears.
    """

    word: tuple[int, ...]
    base: int

    def __post_init__(self):
        if self.base not in LETTERS or any(c not in LETTERS for c in self.word):
            raise ValueError(f"address letters must lie in 0..3: {self}")

    def __str__(self):
        return "".join(str(c) for c in self.word) + f":{self.base}"

    @classmethod
    def from_string(cls, text: str) -> "Address":
        word_part, _, base_part = text.partition(":")
        if not base_part:
            raise ValueError(f"malformed address {text!r}; expected 'word:base'")
        return cls(tuple(int(c) for c in word_part), int(base_part))

    @property
    def is_boundary(self) -> bool:
        return not self.word

    def sort_key(self):
        return (self.word, self.base)


def canonicalize(a: Address) -> Address:
    """Reduce an address to its unique canonical representative.

    Idempotent; the result embeds to the same point as the input.
    """
    return _canon(a.word, a.base)


def _canon(word: tuple[int, ...], base: int) -> Address:
    w = list(word)
    while w and w[-1] == base:
        w.pop()
    if w and w[-1] > base:
        w[-1], base = base, w[-1]
    return Address(tuple(w), base)


@dataclass(frozen=True)
class EmbeddedVertex:
    address: Address
    coords: tuple[float, float, float]


@dataclass(frozen=True, eq=False)
class LevelGraph:
    """The graph on V_m: immutable after construction.

    ``cells[k]`` lists the vertex indices of the four corners of the
    cell with word ``cell_words[k]``, in corner order j = 0..3.
    """

    level: int
    vertices: tuple[Address, ...]
    edges: frozenset[tuple[int, int]] = field(repr=False)
    boundary: tuple[int, int, int, int]
    cells: tuple[tuple[int, int, int, int], ...] = field(repr=False)
    cell_words: tuple[tuple[int, ...], ...] = field(repr=False)
    _index: dict[Address, int] = field(repr=False)
    _adjacency: tuple[tuple[int, ...], ...] = field(repr=False)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @functools.cached_property
    def edge_array(self) -> np.ndarray:
        """``sorted(edges)`` as a read-only (E, 2) int array, built once."""
        e = np.array(sorted(self.edges), dtype=int)
        e.flags.writeable = False
        return e

    @functools.cached_property
    def cell_array(self) -> np.ndarray:
        """``cells`` as a read-only (4^m, 4) int array, built once."""
        c = np.array(self.cells, dtype=int)
        c.flags.writeable = False
        return c

    @property
    def interior(self) -> range:
        """Indices of V_m minus the four corners (boundary comes first)."""
        return range(4, len(self.vertices))

    def index_of(self, a: Address) -> int:
        """Vertex index of an address (canonicalized first)."""
        try:
            return self._index[canonicalize(a)]
        except KeyError:
            raise KeyError(f"{a} is not a vertex of the level-{self.level} graph") from None

    def __contains__(self, a: Address) -> bool:
        return canonicalize(a) in self._index

    def neighbors(self, v: int) -> list[int]:
        """Adjacent vertex indices: 6 for interior, 3 for boundary (m >= 1)."""
        if not 0 <= v < len(self.vertices):
            raise IndexError(f"vertex index {v} out of range for level {self.level}")
        return list(self._adjacency[v])


def neighbors(g: LevelGraph, v: int) -> list[int]:
    return g.neighbors(v)


def build_level(m: int, *, level_cap: int = DEFAULT_LEVEL_CAP) -> LevelGraph:
    """Construct the level-m graph.

    Vertices are ordered boundary-first, then by sorted canonical
    address, so the layout is deterministic.  Raises LevelCapError
    beyond ``level_cap``.
    """
    if m < 0:
        raise ValueError(f"level must be nonnegative, got {m}")
    if m > level_cap:
        raise LevelCapError(
            f"level {m} exceeds cap {level_cap} "
            f"(~{2 * 4 ** m} vertices); raise level_cap explicitly to force"
        )

    index: dict[Address, int] = {Address((), i): i for i in LETTERS}
    cell_words = tuple(itertools.product(LETTERS, repeat=m))
    cells_addr = []
    fresh: set[Address] = set()
    for word in cell_words:
        cell = tuple(_canon(word, j) for j in LETTERS)
        cells_addr.append(cell)
        for a in cell:
            if a not in index:
                fresh.add(a)
    for a in sorted(fresh, key=Address.sort_key):
        index[a] = len(index)

    vertices = tuple(index)  # insertion order: boundary first, then sorted
    cells = tuple(tuple(index[a] for a in cell) for cell in cells_addr)

    edges: set[tuple[int, int]] = set()
    adjacency: list[set[int]] = [set() for _ in vertices]
    for cell in cells:
        for i in range(4):
            for j in range(i + 1, 4):
                u, v = cell[i], cell[j]
                edges.add((u, v) if u < v else (v, u))
                adjacency[u].add(v)
                adjacency[v].add(u)

    return LevelGraph(
        level=m,
        vertices=vertices,
        edges=frozenset(edges),
        boundary=(0, 1, 2, 3),
        cells=cells,
        cell_words=cell_words,
        _index=index,
        _adjacency=tuple(tuple(sorted(s)) for s in adjacency),
    )


def refine(parent: LevelGraph, target: LevelGraph, values: np.ndarray, midpoints) -> np.ndarray:
    """Values on the level-(m+1) graph from values on the level-m graph.

    Parent vertices keep their values.  ``midpoints(a, b, c, d)`` maps
    the corner-value columns of the parent cells to the six midpoint
    columns, in CELL_MIDPOINT_PAIRS order.  Because cell words are in
    product order, child cell 4k+i of parent cell k has corner j at
    parent corner j when i == j and at the midpoint of parent edge
    (i, j) otherwise.
    """
    if target.level != parent.level + 1:
        raise ValueError(f"target level {target.level} is not {parent.level + 1}")
    child = target.cell_array.reshape(-1, 4, 4)
    corners = values[parent.cell_array]
    out = np.empty(target.n_vertices)
    for j in LETTERS:
        out[child[:, j, j]] = corners[:, j]
    for (i, j), column in zip(CELL_MIDPOINT_PAIRS, midpoints(*corners.T)):
        out[child[:, i, j]] = column
    return out


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


def embed(g: LevelGraph) -> list[EmbeddedVertex]:
    return [
        EmbeddedVertex(a, tuple(float(c) for c in embed_address(a))) for a in g.vertices
    ]


def expected_vertex_count(m: int) -> int:
    """N_m = 2(4^m + 1), the closed form of N_0 = 4, N_m = 4 N_{m-1} - 6."""
    return 2 * (4 ** m + 1)


def graph_json(g: LevelGraph) -> dict:
    """JSON-ready structure: {level, vertices:[{id, word, base, xyz}], edges:[[i,j]]}."""
    return {
        "level": g.level,
        "vertices": [
            {
                "id": i,
                "word": list(a.word),
                "base": a.base,
                "xyz": [float(c) for c in embed_address(a)],
            }
            for i, a in enumerate(g.vertices)
        ],
        "edges": g.edge_array.tolist(),
    }


def graph_obj(g: LevelGraph) -> str:
    """Wireframe OBJ: one ``v`` per vertex, one ``l`` per edge (1-indexed)."""
    lines = [f"# sierpinski tetrahedron level {g.level}"]
    for a in g.vertices:
        x, y, z = (float(c) for c in embed_address(a))
        lines.append(f"v {x!r} {y!r} {z!r}")
    for u, v in g.edge_array.tolist():
        lines.append(f"l {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"
