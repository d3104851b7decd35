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
import re
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

#: Default construction cap.  build_level peaks at 340-380 bytes per
#: vertex (levels 8-10, each in a fresh process, by resource.getrusage),
#: so N_11 = 8.4e6 vertices take about 3 GB and N_12 = 3.4e7 about 12 GB.
DEFAULT_LEVEL_CAP = 11


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
        if not re.fullmatch(r"[0-3]*:[0-3]", text):
            raise ValueError(f"malformed address {text!r}; expected 'word:base'")
        return cls(tuple(int(c) for c in text[:-2]), int(text[-1]))

    @property
    def is_boundary(self) -> bool:
        return not self.word


def canonicalize(a: Address) -> Address:
    """Reduce an address to its unique canonical representative.

    Idempotent; the result embeds to the same point as the input.
    """
    w, base = list(a.word), a.base
    while w and w[-1] == base:
        w.pop()
    if w and w[-1] > base:
        w[-1], base = base, w[-1]
    return Address(tuple(w), base)


@dataclass(frozen=True, eq=False)
class LevelGraph:
    """The graph on V_m, as read-only int arrays.

    ``keys`` are the ascending _address_keys of the vertices, corners
    first.  ``cells[k]`` holds the corners j = 0..3 of the cell with word
    ``cell_words[k]``; ``edges`` the sorted (i, j) pairs with i < j; and
    ``neighbor_idx[neighbor_ptr[v]:neighbor_ptr[v + 1]]`` the neighbors of v.
    """

    level: int
    keys: np.ndarray = field(repr=False)
    cells: np.ndarray = field(repr=False)
    edges: np.ndarray = field(repr=False)
    neighbor_ptr: np.ndarray = field(repr=False)
    neighbor_idx: np.ndarray = field(repr=False)
    boundary = (0, 1, 2, 3)

    def __post_init__(self):
        for table in (self.keys, self.cells, self.edges, self.neighbor_ptr, self.neighbor_idx):
            table.flags.writeable = False

    @property
    def n_vertices(self) -> int:
        return len(self.keys)

    @property
    def interior(self) -> range:
        """Indices of V_m minus the four corners (boundary comes first)."""
        return range(4, len(self.keys))

    @functools.cached_property
    def vertices(self) -> tuple[Address, ...]:
        """The canonical addresses, decoded from ``keys`` on first use."""
        digits = self.keys[:, None] // 4 // 5 ** np.arange(self.level - 1, -1, -1) % 5
        return tuple(
            Address(tuple(d - 1 for d in row if d), base)
            for row, base in zip(digits.tolist(), (self.keys % 4).tolist())
        )

    @functools.cached_property
    def cell_words(self) -> tuple[tuple[int, ...], ...]:
        return tuple(itertools.product(LETTERS, repeat=self.level))

    def index_of(self, a: Address) -> int:
        """Vertex index of an address (canonicalized first)."""
        c = canonicalize(a)
        if len(c.word) <= self.level:
            key = _address_keys(np.array(c.word + (-1,) * (self.level - len(c.word))) + 1, c.base)
            v = int(np.searchsorted(self.keys, key))
            if v < len(self.keys) and self.keys[v] == key:
                return v
        raise KeyError(f"{a} is not a vertex of the level-{self.level} graph")

    def neighbors(self, v: int) -> list[int]:
        """Adjacent vertex indices: 6 for interior, 3 for boundary (m >= 1)."""
        if not 0 <= v < len(self.keys):
            raise IndexError(f"vertex index {v} out of range for level {self.level}")
        return self.neighbor_idx[self.neighbor_ptr[v]:self.neighbor_ptr[v + 1]].tolist()


def _address_keys(digits: np.ndarray, base):
    """Int64 keys that sort canonical addresses as (word, base) tuples do: the
    ``digits`` (each word letter plus 1, then 0s) read in base 5, then the base."""
    key = np.zeros(np.shape(base), dtype=np.int64)
    for i in range(digits.shape[-1]):
        key = key * 5 + digits[..., i]
    return key * 4 + base


def build_level(m: int) -> LevelGraph:
    """Construct the level-m graph.

    Vertices are ordered by canonical address, which puts the boundary
    first, so the layout is deterministic.  Raises LevelCapError beyond
    DEFAULT_LEVEL_CAP.
    """
    if m < 0:
        raise ValueError(f"level must be nonnegative, got {m}")
    if m > DEFAULT_LEVEL_CAP:
        raise LevelCapError(f"level {m} exceeds cap {DEFAULT_LEVEL_CAP} (~{2 * 4 ** m} vertices)")

    # canonicalize corner j of every cell at once: the cell words are the
    # base-4 digits of their index, in product order
    k = np.arange(4 ** m)[:, None]
    words = ((k[..., None] >> 2 * np.arange(m - 1, -1, -1)) & 3).astype(np.uint8)
    base = np.arange(4)
    trailing = np.logical_and.accumulate(words[..., ::-1] == base[:, None], axis=2).sum(axis=2)
    digits = np.where(np.arange(m) < (m - trailing)[..., None], words + 1, 0)
    last = (k >> 2 * trailing) & 3  # last letter after the drop; 0 if none is left
    swap = last > base
    c, j = np.nonzero(swap)
    digits[c, j, m - trailing[c, j] - 1] = j + 1
    keys, inverse = np.unique(_address_keys(digits, np.where(swap, last, base)), return_inverse=True)
    cells = inverse.reshape(-1, 4)

    # cells share no edges, so the six corner pairs of every cell are the edge set
    n = len(keys)
    a, b = cells[:, [0, 0, 0, 1, 1, 2]], cells[:, [1, 2, 3, 2, 3, 3]]
    pairs = np.sort((np.minimum(a, b) * n + np.maximum(a, b)).ravel())
    both = np.sort(np.concatenate([pairs, pairs % n * n + pairs // n]))  # (v, w) and (w, v)
    return LevelGraph(
        level=m,
        keys=keys,
        cells=cells,
        edges=np.stack([pairs // n, pairs % n], axis=1),
        neighbor_ptr=np.searchsorted(both, np.arange(n + 1) * n),
        neighbor_idx=both % n,
    )


def level_graph(m: int, given: LevelGraph | None = None) -> LevelGraph:
    """The caller's prebuilt graph once it is checked to be level m, else level m built."""
    if given is None:
        return build_level(m)
    if given.level != m:
        raise ValueError(f"target level {given.level} is not {m}")
    return given


def refine(parent: LevelGraph, target: LevelGraph, values: np.ndarray, midpoints) -> np.ndarray:
    """Values on the level-(m+1) graph from values on the level-m graph.

    Parent vertices keep their values.  ``midpoints(a, b, c, d)`` maps
    the corner-value columns of the parent cells to the six midpoint
    columns, in CELL_MIDPOINT_PAIRS order.  Because cell words are in
    product order, child cell 4k+i of parent cell k has corner j at
    parent corner j when i == j and at the midpoint of parent edge
    (i, j) otherwise.
    """
    target = level_graph(parent.level + 1, target)
    child = target.cells.reshape(-1, 4, 4)
    corners = values[parent.cells]
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


def vertex_coords(g: LevelGraph) -> np.ndarray:
    """(N, 3) positions of all vertices, equal bit for bit to embed_address of each."""
    x = CORNER_COORDS[g.keys % 4]
    word = g.keys // 4
    for _ in range(g.level):  # the key's base-5 word digits, last letter first
        word, d = np.divmod(word, 5)
        x = np.where(d[:, None] > 0, (x + CORNER_COORDS[d - 1]) / 2.0, x)
    return x


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
                "xyz": xyz,
            }
            for i, (a, xyz) in enumerate(zip(g.vertices, vertex_coords(g).tolist()))
        ],
        "edges": g.edges.tolist(),
    }
