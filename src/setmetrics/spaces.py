"""Bounded metric ground spaces.

Three families are supported, each with an exact distance, an exact
diameter, and an exact per-element eccentricity (the largest distance
from a point to anywhere in the space):

* fixed-length words over a finite alphabet with the Hamming distance,
* points of an axis-aligned box in R^n with the Euclidean distance,
* vertices of a finite connected graph with positive edge weights and
  the shortest-path distance.

Elements are plain values: a word is a ``str``, a point is a tuple of
floats, a vertex is an ``int``.  Spaces validate and canonicalize
elements on entry: ``validate_element`` one at a time, or
``validate_elements`` a whole list, with the same results and errors.
Words and vertices check a list in a few passes over it: words by one
join (which refuses anything but a str), a length pass and one
translate; vertices by a type pass and one lookup each in the vertex
set.  Each space writes its metric once, as the numpy kernel
``pairwise`` over canonical elements (not validated again); ``distance``
returns its entry for one pair, so every path reads the same floats.
Eccentricity follows the same pattern: the kernel ``eccentricities``
over canonical elements, read by ``eccentricity``.
All operations are pure; instances are immutable after construction and
safe to share across threads.

Hamming words compare as position-major codes: both word lists of a
``pairwise`` call become one length x (s + t) array of alphabet indices,
one byte each for up to 256 symbols (code points for more), and each
side is a block of its columns, so each position's compare runs along a
whole row.  Mismatches add in the narrowest unsigned integer that holds
the length; each count is exact, and so is its float.

The graph's Floyd-Warshall runs over blocks of rows sized to a private
byte budget, so that the rows a step sweeps stay in a core's cache.
Each cell takes the same operations with the same operands as in one
sweep over all rows, so blocking changes no bit of any distance.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections.abc import Iterable, Iterator, Sequence
from typing import Optional, Union

import numpy as np

from .errors import ParseError, ValidationError

#: Canonical element forms: word, coordinate tuple, or vertex id.
Element = Union[str, tuple, int]

#: Absolute tolerance for all real-valued comparisons in validity checks.
REAL_TOL = 1e-9

#: Bytes of distance table one block of rows may take in
#: ``_shortest_paths``: a block and its temporary fit a 2 MB L2 cache.
_BLOCK_BYTES = 512 * 1024


def finite_real(value, what: str) -> float:
    """``value`` as a float if it is a finite real number (numpy scalars
    included; bools, strings and None are not); ValidationError otherwise."""
    # float and int come first: they skip the slower abstract-class check.
    # An int beyond the float range makes isfinite raise OverflowError.
    try:
        if not isinstance(value, bool) \
                and isinstance(value, (float, int, numbers.Real)) \
                and math.isfinite(value):
            return float(value)
    except OverflowError:
        pass
    raise ValidationError(f"{what} must be a finite number, got {value!r}")


def _entries(item, message: str, size: Optional[int] = None) -> tuple:
    """``item`` as a tuple (of ``size`` entries, when given); ValidationError
    with ``message`` otherwise."""
    if isinstance(item, str) or not isinstance(item, Sequence) \
            or (size is not None and len(item) != size):
        raise ValidationError(message)
    return tuple(item)


class Space:
    """Common interface of the ground-space kinds."""

    kind: str = ""

    @property
    def diameter(self) -> float:
        """Largest distance between any two elements of the space."""
        raise NotImplementedError

    def validate_element(self, x) -> Element:
        """Return the canonical form of ``x``; raise ValidationError if it
        does not belong to this space."""
        raise NotImplementedError

    def validate_elements(self, items: Iterable) -> list:
        """``validate_element`` of each item, in order, as a list; the
        first bad item raises.  A space may check a whole list in a few
        passes instead, with the same results and the same errors."""
        return [self.validate_element(x) for x in items]

    def distance(self, a, b) -> float:
        """Metric distance between two elements: their ``pairwise`` entry."""
        return float(self.pairwise([self.validate_element(a)],
                                   [self.validate_element(b)])[0, 0])

    def pairwise(self, xs: Sequence[Element], ys: Sequence[Element]) -> np.ndarray:
        """float64 matrix of d(x, y), shape ``(len(xs), len(ys))``: the
        space's one distance kernel.  ``xs`` and ``ys`` must already be
        canonical (as held by a PointSet) and are not validated; each entry
        depends only on its own pair, not on the shape of the matrix.
        """
        raise NotImplementedError

    def eccentricity(self, x) -> float:
        """Largest distance from ``x`` to any element of the space: its
        ``eccentricities`` entry."""
        return float(self.eccentricities([self.validate_element(x)])[0])

    def eccentricities(self, xs: Sequence[Element]) -> np.ndarray:
        """float64 vector of eccentricities, shape ``(len(xs),)``: the
        space's one eccentricity kernel.  ``xs`` must already be canonical
        and are not validated; each entry depends only on its own element.
        """
        raise NotImplementedError

    def sample_element(self, rng: np.random.Generator) -> Element:
        """Draw a uniform-ish random element (used by checks and the CLI)."""
        raise NotImplementedError

    def element_count(self) -> Optional[int]:
        """Number of elements for finite kinds, None for a continuum."""
        return None

    def elements(self) -> Iterator[Element]:
        """Iterate all elements; only available when element_count() is set."""
        raise ValidationError(f"{self.kind} space is not finitely enumerable")

    def to_json(self) -> dict:
        raise NotImplementedError

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Space)
                                 and self._key() == other._key())

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return _json_repr(self)


class HammingSpace(Space):
    """Words of a fixed length over a finite alphabet, Hamming distance."""

    kind = "hamming"

    def __init__(self, alphabet: str, length: int):
        if not isinstance(alphabet, str) or not alphabet:
            raise ValidationError("alphabet must be a non-empty string")
        if len(set(alphabet)) != len(alphabet):
            raise ValidationError("alphabet must not repeat symbols")
        if not isinstance(length, int) or isinstance(length, bool) or length < 1:
            raise ValidationError("word length must be a positive integer")
        self.alphabet = "".join(sorted(alphabet))
        self.length = length
        # str.translate under this table deletes every symbol of the alphabet
        self._deletions = str.maketrans("", "", alphabet)
        # and under this one maps each symbol to its index, when that fits
        # a byte (see _codes)
        self._indices = {ord(c): i for i, c in enumerate(self.alphabet)} \
            if len(self.alphabet) <= 256 else None

    @property
    def diameter(self) -> float:
        # A longest pair differs in every coordinate; with a single symbol
        # the space has one word and the diameter collapses to 0.
        return float(self.length) if len(self.alphabet) >= 2 else 0.0

    def validate_element(self, x) -> str:
        if not isinstance(x, str):
            raise ValidationError(f"expected a word (str), got {type(x).__name__}")
        if len(x) != self.length:
            raise ValidationError(
                f"word {x!r} has length {len(x)}, space requires {self.length}")
        bad = set(x.translate(self._deletions))
        if bad:
            raise ValidationError(
                f"word {x!r} uses symbols {sorted(bad)} outside alphabet {self.alphabet!r}")
        return x

    def validate_elements(self, items: Iterable) -> list:
        # Words of the right length over the alphabet are their own
        # canonical form.  The join is the type check: it refuses any item
        # that is not a str.  Anything else takes the per-element loop,
        # which raises its error for the first bad item.
        items = list(items)
        try:
            text = "".join(items)
        except TypeError:
            return super().validate_elements(items)
        if set(map(len, items)) <= {self.length} \
                and not text.translate(self._deletions):
            return items
        return super().validate_elements(items)

    def _codes(self, words: Sequence[str]) -> np.ndarray:
        """The words' symbols as a C-contiguous ``length`` x ``len(words)``
        array: alphabet indices in one byte for up to 256 symbols, code
        points otherwise (lone surrogates included)."""
        text = "".join(words)
        if self._indices is not None:
            codes = np.frombuffer(text.translate(self._indices).encode("latin-1"),
                                  dtype=np.uint8)
        else:
            codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"),
                                  dtype="<u4")
        return np.ascontiguousarray(codes.reshape(len(words), self.length).T)

    def pairwise(self, xs: Sequence[str], ys: Sequence[str]) -> np.ndarray:
        # Both lists are coded at once: xs are the first s columns, ys the
        # rest.  One compare per position, each along a whole row of the
        # other side's codes.  The 0/1 mismatch bytes add into the narrowest
        # unsigned count that holds the length (no cast up to 255), and
        # every count is an integer, so its float is exact.  In one
        # expression, the mismatches are freed before the floats exist.
        codes, s = self._codes([*xs, *ys]), len(xs)
        return np.add.reduce(
            (codes[:, :s, None] != codes[:, None, s:]).view(np.uint8),
            axis=0, dtype=np.min_scalar_type(self.length)).astype(float)

    def eccentricities(self, xs: Sequence[str]) -> np.ndarray:
        # With >= 2 symbols a word differing in every coordinate exists.
        return np.full(len(xs), self.diameter)

    def sample_element(self, rng) -> str:
        picks = rng.integers(0, len(self.alphabet), size=self.length)
        return "".join(self.alphabet[i] for i in picks)

    def element_count(self) -> int:
        return len(self.alphabet) ** self.length

    def elements(self) -> Iterator[str]:
        for word in itertools.product(self.alphabet, repeat=self.length):
            yield "".join(word)

    def to_json(self) -> dict:
        return {"kind": self.kind, "alphabet": self.alphabet, "length": self.length}

    def _key(self) -> tuple:
        return (self.kind, self.alphabet, self.length)


class EuclideanBoxSpace(Space):
    """Points of an axis-aligned closed box in R^n, Euclidean distance."""

    kind = "euclidean_box"

    def __init__(self, bounds: Sequence[Sequence[float]]):
        cleaned = []
        for i, pair in enumerate(_entries(
                bounds, "box bounds must be a list of [low, high] pairs")):
            what = f"bounds for coordinate {i}"
            lo, hi = (finite_real(v, what) for v in _entries(
                pair, f"{what} must be a [low, high] pair", 2))
            if lo > hi:
                raise ValidationError(
                    f"bounds for coordinate {i} are inverted: [{lo}, {hi}]")
            cleaned.append((lo, hi))
        if not cleaned:
            raise ValidationError("box must have at least one dimension")
        self.bounds = tuple(cleaned)
        self.dimension = len(cleaned)

    @property
    def diameter(self) -> float:
        """The distance between far corners, bit for bit; inf on overflow."""
        squares = 0.0
        for lo, hi in self.bounds:
            squares += (hi - lo) * (hi - lo)
        return math.sqrt(squares)

    def validate_element(self, x) -> tuple:
        if isinstance(x, str) or not isinstance(x, Sequence):
            raise ValidationError(
                f"expected a coordinate sequence, got {type(x).__name__}")
        if len(x) != self.dimension:
            raise ValidationError(
                f"point has {len(x)} coordinates, space requires {self.dimension}")
        point = []
        for i, (value, (lo, hi)) in enumerate(zip(x, self.bounds)):
            v = finite_real(value, f"coordinate {i}")
            if v < lo - REAL_TOL or v > hi + REAL_TOL:
                raise ValidationError(
                    f"coordinate {i} = {v} outside bounds [{lo}, {hi}]")
            point.append(min(max(v, lo), hi))
        return tuple(point)

    def pairwise(self, xs: Sequence[tuple], ys: Sequence[tuple]) -> np.ndarray:
        # Squares summed one coordinate at a time, in a fixed order: within
        # a few ulp of math.dist, and the same float whatever the shape.
        p, q = (np.array(v, dtype=float).reshape(len(v), self.dimension)
                for v in (xs, ys))
        squares = np.zeros((len(xs), len(ys)))
        for k in range(self.dimension):
            squares += (p[:, k, None] - q[None, :, k]) ** 2
        return np.sqrt(squares)

    def eccentricities(self, xs: Sequence[tuple]) -> np.ndarray:
        # The squared distance to a corner separates per coordinate, so the
        # farthest corner takes the farther bound in each coordinate; the
        # squares are added in a fixed order, as in ``pairwise``.
        p = np.array(xs, dtype=float).reshape(len(xs), self.dimension)
        squares = np.zeros(len(xs))
        for k, (lo, hi) in enumerate(self.bounds):
            squares += np.maximum(p[:, k] - lo, hi - p[:, k]) ** 2
        return np.sqrt(squares)

    def sample_element(self, rng: np.random.Generator) -> tuple:
        return tuple(float(rng.uniform(lo, hi)) for lo, hi in self.bounds)

    def to_json(self) -> dict:
        return {"kind": self.kind, "bounds": [list(pair) for pair in self.bounds]}

    def _key(self) -> tuple:
        return (self.kind, self.bounds)


_NOT_CONNECTED = ("graph is not connected; shortest-path distances are "
                  "unbounded")


class GraphSpace(Space):
    """Vertices of a finite connected weighted graph, shortest-path distance.

    Vertices are integers 0..n-1.  Edges are undirected with strictly
    positive finite weights; zero-weight edges would collapse distinct
    vertices to distance 0 and are rejected.  All-pairs distances are
    precomputed with Floyd-Warshall at construction, and with them each
    vertex's eccentricity and the diameter.  Above 256 vertices the
    table is swept in cache-sized blocks of rows (see
    ``_shortest_paths``); every entry is the float the plain loop gives,
    so the table stays exactly symmetric.
    """

    kind = "graph"

    def __init__(self, edges: Sequence[Sequence[float]],
                 vertex_count: Optional[int] = None):
        cleaned = []
        max_id = -1
        for e in _entries(edges, "graph edges must be a list of [u, v, weight]"):
            u, v, w = _entries(e, f"edge {e!r} must be [u, v, weight]", 3)
            if isinstance(u, bool) or isinstance(v, bool) \
                    or not isinstance(u, int) or not isinstance(v, int):
                raise ValidationError(f"edge {e!r} endpoints must be integers")
            if u < 0 or v < 0:
                raise ValidationError(f"edge {e!r} has a negative vertex id")
            if u == v:
                raise ValidationError(f"edge {e!r} is a self-loop")
            w = finite_real(w, f"edge ({u}, {v}) weight")
            if w <= 0:
                raise ValidationError(
                    f"edge ({u}, {v}) weight must be positive and finite, got {w}")
            cleaned.append((min(u, v), max(u, v), w))
            max_id = max(max_id, u, v)

        n = vertex_count if vertex_count is not None else max_id + 1
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValidationError("graph must have at least one vertex")
        if max_id >= n:
            raise ValidationError(
                f"edge endpoint {max_id} exceeds declared vertex count {n}")
        self.vertex_count = n
        self.edges = tuple(sorted(set(cleaned)))
        # Connecting n vertices takes at least n - 1 distinct edges; fewer
        # are refused before the n x n matrices, whatever the size of n.
        if n > len({(u, v) for u, v, _ in self.edges}) + 1:
            raise ValidationError(_NOT_CONNECTED)

        adjacency = np.full((n, n), np.inf)
        np.fill_diagonal(adjacency, 0.0)
        for u, v, w in self.edges:
            if w < adjacency[u, v]:  # parallel edges: keep the cheapest
                adjacency[u, v] = adjacency[v, u] = w
        dm = _shortest_paths(adjacency.copy())
        if not np.isfinite(dm).all():
            # An inf is a vertex out of reach or a path too long for a
            # float; with every edge weighing 0 nothing overflows.
            reach = np.where(adjacency < np.inf, 0.0, np.inf)
            if np.isfinite(_shortest_paths(reach)).all():
                raise ValidationError(
                    "graph is too wide: its shortest-path distances overflow")
            raise ValidationError(_NOT_CONNECTED)
        self._dist = dm
        self._dist.setflags(write=False)
        self._ecc = dm.max(axis=1)
        self._ecc.setflags(write=False)
        self._diameter = float(self._ecc.max())
        # Made only now, so that a graph refused above allocates nothing
        # for its vertex count.
        self._vertices = frozenset(range(n))

    @property
    def diameter(self) -> float:
        return self._diameter

    def validate_element(self, x) -> int:
        if isinstance(x, bool) or not isinstance(x, int):
            raise ValidationError(f"expected a vertex id (int), got {type(x).__name__}")
        if not 0 <= x < self.vertex_count:
            raise ValidationError(
                f"vertex {x} outside range 0..{self.vertex_count - 1}")
        return x

    def validate_elements(self, items: Iterable) -> list:
        # Plain ints in range are their own canonical form: one type pass,
        # then one lookup each in the vertex set.  The type pass keeps out
        # bools, floats and numpy integers, which equal vertices as keys;
        # they and bad items take the per-element loop.
        items = list(items)
        if set(map(type, items)) <= {int} and self._vertices.issuperset(items):
            return items
        return super().validate_elements(items)

    def pairwise(self, xs: Sequence[int], ys: Sequence[int]) -> np.ndarray:
        return _take_block(self._dist, xs, ys)

    def eccentricities(self, xs: Sequence[int]) -> np.ndarray:
        return self._ecc[np.array(xs, dtype=np.intp)]

    def sample_element(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.vertex_count))

    def element_count(self) -> int:
        return self.vertex_count

    def elements(self) -> Iterator[int]:
        return iter(range(self.vertex_count))

    def to_json(self) -> dict:
        return {"kind": self.kind,
                "vertices": self.vertex_count,
                "edges": [[u, v, w] for u, v, w in self.edges]}

    def _key(self) -> tuple:
        return (self.kind, self.vertex_count, self.edges)


def _take_block(table: np.ndarray, rows: Sequence[int],
                cols: Sequence[int]) -> np.ndarray:
    """The block of ``table`` at the index lists ``rows`` and ``cols``:
    what np.ix_ indexing gathers, with less overhead.  The lists go in as
    intp arrays, so that empty ones keep the block's shape."""
    return (table.take(np.array(rows, dtype=np.intp), axis=0)
            .take(np.array(cols, dtype=np.intp), axis=1))


def _shortest_paths(dm: np.ndarray) -> np.ndarray:
    """Floyd-Warshall over the symmetric edge-weight matrix ``dm``, in
    place; a path length that overflows a float becomes inf.

    Step k sets every cell to min(d_ij, d_ik + d_kj), for k = 0..n-1 in
    order.  Up to 256 vertices (one block: as many rows as fit in
    ``_BLOCK_BYTES``) each step sweeps the whole table.  Larger tables go
    in blocks of rows, so that the rows a step sweeps and its temporary
    stay in cache: for each block K of pivot rows, K's own steps run on
    rows K, each pivot row kept as it stood at its step; then every other
    block takes the same steps, in k order.  Every step keeps d exactly
    symmetric (IEEE addition commutes), so a row's d_ik before step k is
    entry i of the kept row k, and another block updates only its cells
    right of its first column: the cells left of it mirror cells of
    earlier rows, copied in before the block's own steps and at the end.
    So each cell takes the same steps with the operands of the whole-table
    sweep: the same floats, bit for bit.
    """
    n = len(dm)
    height = max(1, _BLOCK_BYTES // (n * dm.itemsize or 1))
    starts = range(0, n, height)
    kept = np.empty((height, n), dm.dtype) if height < n else None
    with np.errstate(over="ignore"):
        for k0 in starts:
            pivots = dm[k0:k0 + height]
            pivots[:, :k0] = dm[:k0, k0:k0 + height].T
            for j in range(len(pivots)):
                if kept is not None:
                    kept[j] = pivots[j]
                np.minimum(pivots, pivots[:, k0 + j, None] + pivots[None, j],
                           out=pivots)
            for i0 in starts:
                if i0 != k0:
                    rows = dm[i0:i0 + height, i0:]
                    for j in range(len(pivots)):
                        np.minimum(rows, kept[j, i0:i0 + height, None]
                                   + kept[j, None, i0:], out=rows)
    for i0 in starts:
        dm[i0:i0 + height, :i0] = dm[:i0, i0:i0 + height].T
    return dm


def space_from_json(obj: dict) -> Space:
    """Build a space from its JSON descriptor (see the CLI file format).

    Any defect in the descriptor, including one the space constructor
    itself would reject, is reported as a ParseError: at this layer the
    input is an untrusted document, not a programming mistake.
    """
    if not isinstance(obj, dict):
        raise ParseError("space descriptor must be a JSON object")
    kind = obj.get("kind")
    what = f"{kind} space descriptor"
    try:
        if kind == "hamming":
            _require_keys(obj, what, ("kind", "alphabet", "length"))
            return HammingSpace(obj["alphabet"], obj["length"])
        if kind == "euclidean_box":
            _require_keys(obj, what, ("kind", "bounds"))
            box = EuclideanBoxSpace(obj["bounds"])
            if box.diameter == math.inf:  # distances of far points overflow too
                raise ValidationError("box is too wide: its diameter overflows")
            return box
        if kind == "graph":
            _require_keys(obj, what, ("kind", "edges"), optional=("vertices",))
            return GraphSpace(obj["edges"], obj.get("vertices"))
    except ValidationError as exc:
        raise ParseError(f"bad {what}: {exc}") from exc
    raise ParseError(f"unknown space kind {kind!r}")


def _require_keys(obj: dict, what: str, required: tuple,
                  optional: tuple = ()):
    """ParseError unless the JSON object ``obj``, described as ``what``, has
    every key of ``required`` and no key outside ``required`` and
    ``optional``; unexpected keys are reported first, then the first
    missing key in the order given."""
    extra = set(obj).difference(required, optional)
    if extra:
        raise ParseError(f"unexpected keys in {what}: {sorted(extra)}")
    for key in required:
        if key not in obj:
            raise ParseError(f"{what} needs {key!r}")


def _json_repr(obj) -> str:
    """``Kind(<to_json form>)``; ``Kind()`` if a user class defines none."""
    try:
        form = obj.to_json()
    except NotImplementedError:
        form = ""
    return f"{type(obj).__name__}({form})"


def element_to_json(x: Element):
    """JSON form of an element: vectors become lists, the rest map as-is."""
    return list(x) if isinstance(x, tuple) else x
