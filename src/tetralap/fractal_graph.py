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
import math
import numbers
import re
from dataclasses import dataclass, field

import numpy as np

LETTERS = (0, 1, 2, 3)

#: Midpoint slots of a cell, in the fixed labeling x_1..x_6:
#: x_1 on (P0,P1), x_2 on (P1,P2), x_3 on (P0,P2),
#: x_4 on (P0,P3), x_5 on (P1,P3), x_6 on (P2,P3).
CELL_MIDPOINT_PAIRS = ((0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3))

#: Entry n is the (child i, corner j) at which a cell's n-th level-(m+1)
#: vertex sits: first its corners P_0..P_3, then x_1..x_6.  Cell words are in
#: product order, so child cell 4k+i of cell k has corner j at parent corner
#: j when i == j and at the midpoint of parent edge (i, j) otherwise.
CHILD_CORNERS = tuple((j, j) for j in LETTERS) + CELL_MIDPOINT_PAIRS

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

#: Default construction cap.  With all four tables read, a level graph peaks
#: at 173, 173 and 182 bytes per vertex at levels 8 to 10 (each in a fresh
#: process, by resource.getrusage, above the RSS after import; the edge build
#: sets the peak), so N_11 = 8.4e6 vertices take about 1.5 GB.  N_12 = 3.4e7
#: would take about 6 GB, most of a 7.5 GB machine; its int64 tables alone
#: hold 4.0 GB.
DEFAULT_LEVEL_CAP = 11


class LevelCapError(RuntimeError):
    """Requested level exceeds the configured resource cap."""


def is_integer(x) -> bool:
    """Whether x is an integer, not a bool or a float (plain ints skip the ABC check)."""
    return type(x) is int or isinstance(x, numbers.Integral) and not isinstance(x, bool)


def is_letter(x) -> bool:
    """Whether x is an integer in 0..3, not a bool or a float."""
    return x in LETTERS and is_integer(x)


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


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
        if not (is_letter(self.base) and all(map(is_letter, self.word))):
            raise ValueError(f"address letters must be integers in 0..3, got {self!r}")

    def __str__(self):
        return "".join(str(c) for c in self.word) + f":{self.base}"

    @classmethod
    def from_string(cls, text: str) -> "Address":
        if not re.fullmatch(r"[0-3]*:[0-3]", text):
            raise ValueError(f"malformed address {text!r}; expected 'word:base'")
        return cls(tuple(int(c) for c in text[:-2]), int(text[-1]))


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

    ``keys`` are the ascending _address_key values of the vertices, corners
    first.  ``cells[k]`` holds the corners j = 0..3 of the cell whose word is
    the k-th word of length m in product order; ``edges`` the sorted (i, j)
    pairs with i < j; and ``neighbors[v]`` the ascending neighbors of v, six
    of them, or a corner's three and then the corner itself three times, so
    that a sum of u(w) - u(v) over a row adds nothing for the repeats.
    ``keys`` and ``cells`` are built with the graph; the edge and neighbor
    tables are built on first read, since most graphs are only read through
    their cells, and each read returns that one array.
    """

    level: int
    keys: np.ndarray = field(repr=False)
    cells: np.ndarray = field(repr=False)
    boundary = (0, 1, 2, 3)

    def __post_init__(self):
        if not is_integer(self.level):
            raise TypeError(f"level must be an integer, got {self.level!r}")
        object.__setattr__(self, "level", int(self.level))
        _read_only(self.keys)
        _read_only(self.cells)

    @functools.cached_property
    def neighbors(self) -> np.ndarray:
        return _read_only(_neighbor_rows(self.level))

    @functools.cached_property
    def edges(self) -> np.ndarray:
        """The entries w > v of every neighbor row v, as (v, w), row by row."""
        rows = self.neighbors
        edges = np.empty((3 * self.n_vertices - 6, 2), np.int64)
        at = (rows > np.arange(len(rows))[:, None]).ravel().nonzero()[0]
        edges[:, 1] = rows.ravel()[at]
        at //= 6
        edges[:, 0] = at
        return _read_only(edges)

    @property
    def n_vertices(self) -> int:
        return len(self.keys)

    @property
    def interior(self) -> range:
        """Indices of V_m minus the four corners (boundary comes first)."""
        return range(4, len(self.keys))

    def index_of(self, a: Address) -> int:
        """Vertex index of an address (canonicalized first)."""
        c = canonicalize(a)
        if len(c.word) <= self.level:
            key = _address_key(c, self.level)
            v = int(np.searchsorted(self.keys, key))
            if v < len(self.keys) and self.keys[v] == key:
                return v
        raise KeyError(f"{a} is not a vertex of the level-{self.level} graph")

    def indices_of(self, coarse: LevelGraph) -> np.ndarray:
        """Index in this graph of every vertex of a graph of no higher level, in
        that graph's vertex order: a key's word, padded with zero digits to this
        level, is the same vertex's key here."""
        if coarse.level > self.level:
            raise ValueError(f"a level-{coarse.level} graph is not inside level {self.level}")
        shift = 5 ** (self.level - coarse.level)
        return np.searchsorted(self.keys, coarse.keys // 4 * shift * 4 + coarse.keys % 4)


def _address_key(a: Address, m: int) -> int:
    """The level-m key of a canonical address, which sorts as (word, base) tuples
    do: each word letter plus 1, zero-padded to m digits, read in base 5, then
    times 4 plus the base."""
    key = 0
    for letter in a.word:
        key = key * 5 + letter + 1
    return key * 5 ** (m - len(a.word)) * 4 + a.base


#: The six junctions lo:hi, lo < hi, one (lo, hi) pair per row.
_PAIRS = np.array(CELL_MIDPOINT_PAIRS)
_LO, _HI = _PAIRS.T
_DIAGONAL = np.arange(4)


def _copy_maps(m: int):
    """For k = 1..m, the (4, N_{k-1}) map of copy i's level-(k-1) vertex indices
    to level-k indices.

    V_k is the four copies f_i(V_{k-1}): f_i(W:b) = iW:b stays canonical
    for a nonempty W and adds 4(i+1)5^(k-1) to the key, while the corner
    i:b is P_i for b == i and else the junction min(i,b):max(i,b), kept in
    the block of copy min(i,b).  So copy i's block is level k-1's vertices
    i+1.. in order, and the blocks follow the corners.  Each map ascends
    except at corner i, which is P_i = i, below every junction.
    """
    n = 4
    for _ in range(m):
        # vertex v > i of copy i follows the corners and blocks of n-1, .., n-i vertices
        copy = np.array([[3], [n + 1], [2 * n - 2], [3 * n - 6]]) + np.arange(n)
        copy[_HI, _LO] = copy[_LO, _HI]  # junction lo:hi is also corner lo of copy hi
        copy[_DIAGONAL, _DIAGONAL] = _DIAGONAL  # corner i of copy i is P_i
        yield copy
        n = 4 * n - 6


def _four_copies(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The ascending vertex keys and the product-order cells of level m: the
    corners, then copy i's keys of vertices i+1.. shifted, block by block;
    the cells of word iW are copy i's map applied to the cells of W."""
    keys, cells = np.arange(4), np.arange(4)[None, :]
    for k, copy in enumerate(_copy_maps(m), 1):
        keys = np.concatenate([keys[:4]] + [4 * 5 ** (k - 1) * (i + 1) + keys[i + 1:] for i in LETTERS])
        cells = copy[:, cells].reshape(-1, 4)
    return keys, cells


def _neighbor_rows(m: int) -> np.ndarray:
    """The (N_m, 6) neighbor table of level m, built from level m-1's: each
    row ascends, and a corner's three neighbors fill slots 0-2 and the
    corner itself slots 3-5.

    A vertex of copy i other than its corners keeps its row, mapped by copy
    i; that keeps it ascending except in the three rows next to corner i,
    where P_i moves first.  Corner P_i's row is copy i's map of corner i's
    row, which holds no P_i, and junction lo:hi joins corner hi's row in
    copy lo with corner lo's row in copy hi.  Only the 12 rows next to a
    corner and the 6 junction rows are sorted.
    """
    rows = np.array([[j for j in LETTERS if j != i] + [i] * 3 for i in LETTERS])
    for copy in _copy_maps(m):
        corner, inner = rows[:4, :3], rows[4:]
        rows = np.empty((4 * copy.shape[1] - 6, 6), np.int64)
        mapped = copy[:, corner]  # mapped[i, b] is corner b's row in copy i
        near = mapped[_DIAGONAL, _DIAGONAL]
        rows[:4, :3] = near
        rows[:4, 3:] = _DIAGONAL[:, None]
        if len(inner):
            for i in LETTERS:  # copy i's vertices 4.. are one ascending block
                first = copy[i, 4]
                # every index is in range; "clip" writes to out unbuffered, "raise" would not
                copy[i].take(inner, out=rows[first:first + len(inner)], mode="clip")
            nearby = rows[near]
            nearby.sort(axis=-1)
            rows[near] = nearby
        junctions = mapped[_PAIRS, _PAIRS[:, ::-1]].reshape(6, 6)
        junctions.sort(axis=1)
        rows[copy[_LO, _HI]] = junctions
    return rows


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

    keys, cells = _four_copies(m)
    return LevelGraph(level=m, keys=keys, cells=cells)


def level_graph(m: int, given: LevelGraph | None = None) -> LevelGraph:
    """The caller's prebuilt graph once it is checked to be level m, else level m built."""
    if given is None:
        return build_level(m)
    if given.level != m:
        raise ValueError(f"target level {given.level} is not {m}")
    return given


def vertex_coords(g: LevelGraph) -> np.ndarray:
    """(N, 3) positions of all vertices: each key digit d > 0, last letter first,
    moves x to (x + P_{d-1}) / 2, the midpoint map f_{d-1}, in place per axis."""
    x = CORNER_COORDS[g.keys % 4]
    word = g.keys // 4
    steps = np.vstack([np.zeros(3), CORNER_COORDS])  # row d is P_{d-1}
    for _ in range(g.level):  # the key's base-5 word digits, last letter first
        word, d = np.divmod(word, 5)
        moved = d > 0
        for a, column in enumerate(x.T):
            np.add(column, steps[d, a], out=column, where=moved)
            np.divide(column, 2.0, out=column, where=moved)
    return x


def address_strings(g: LevelGraph) -> np.ndarray:
    """str(a) of every vertex a, in vertex order."""
    return spell_keys(g.keys, g.level)


def spell_keys(keys: np.ndarray, m: int) -> np.ndarray:
    """str(a) of the vertex a of each level-m key, spelled from the key digits
    without building an Address."""
    chars = np.zeros((len(keys), m + 2), np.uint8)
    word = keys // 4
    for j in reversed(range(m)):  # the key's base-5 word digits: each letter plus 1, then 0s
        word, chars[:, j] = np.divmod(word, 5)
    letters = chars[:, :m]
    rows, length = np.arange(len(chars)), np.count_nonzero(letters, axis=1)  # letters come first
    np.add(letters, ord("0") - 1, out=letters, where=letters > 0)
    chars[rows, length] = ord(":")
    chars[rows, length + 1] = keys % 4 + ord("0")
    return chars.astype(np.uint32).view(f"U{m + 2}")[:, 0]  # numpy strips the NULs
