"""The row-blocked Floyd-Warshall of ``spaces`` gives the floats of one
sweep over all rows, bit for bit."""

import numpy as np
import pytest

from setmetrics import GraphSpace, ValidationError
from setmetrics import spaces


def plain_floyd_warshall(dm):
    """The reference: one sweep over all rows per pivot, in place."""
    with np.errstate(over="ignore"):
        for k in range(len(dm)):
            np.minimum(dm, dm[:, k, None] + dm[None, k, :], out=dm)
    return dm


def adjacency(n, weights, seed=0):
    """Edge-weight matrix of a path through all n vertices plus 2n random
    chords, as GraphSpace builds it; "disconnected" cuts it in two."""
    rng = np.random.default_rng(seed)
    dm = np.full((n, n), np.inf)
    np.fill_diagonal(dm, 0.0)
    edges = [(v - 1, v) for v in range(1, n)]
    edges += [tuple(rng.integers(0, n, size=2)) for _ in range(2 * n)]
    for u, v in edges:
        if u == v or (weights == "disconnected" and (u < n // 2) != (v < n // 2)):
            continue
        w = {"integer": float(rng.integers(1, 20)),
             "real": float(rng.uniform(0.1, 3.0)),
             "overflowing": 1e307 * float(rng.uniform(1.0, 9.0)),
             "disconnected": float(rng.integers(1, 20))}[weights]
        dm[u, v] = dm[v, u] = min(dm[u, v], w)
    return dm


WEIGHTS = ("integer", "real", "overflowing", "disconnected")


def block_height(n):
    """Rows per block of an n-vertex table: as many as fit in the budget."""
    return max(1, spaces._BLOCK_BYTES // (8 * n))


def assert_table_is_the_plain_one(dm):
    table = spaces._shortest_paths(dm.copy())
    assert table.tobytes() == plain_floyd_warshall(dm.copy()).tobytes()
    assert np.array_equal(table, table.T)
    return table


@pytest.mark.parametrize("weights", WEIGHTS)
@pytest.mark.parametrize("height", (7, 16))
@pytest.mark.parametrize("size", ("1", "2", "B-1", "B", "B+1", "2B+3"))
def test_blocked_table_is_the_plain_one_at_every_block_edge(
        monkeypatch, weights, height, size):
    n = {"1": 1, "2": 2, "B-1": height - 1, "B": height, "B+1": height + 1,
         "2B+3": 2 * height + 3}[size]
    monkeypatch.setattr(spaces, "_BLOCK_BYTES", height * n * 8)
    assert_table_is_the_plain_one(adjacency(n, weights, seed=n))


@pytest.mark.parametrize("weights", WEIGHTS)
@pytest.mark.parametrize("n, blocks", [(1, 1), (2, 1), (255, 1), (256, 1),
                                       (257, 2), (515, 5)])
def test_blocked_table_is_the_plain_one_under_the_module_budget(
        weights, n, blocks):
    height = block_height(n)
    assert -(-n // height) == blocks
    table = assert_table_is_the_plain_one(adjacency(n, weights, seed=n))
    if n > 2:  # the last two inputs reach inf, by overflow or by a cut
        assert np.isfinite(table).all() == (weights in ("integer", "real"))


def test_graph_space_table_is_the_plain_one_at_444_vertices():
    rng = np.random.default_rng(7)
    n = 444
    edges = [(v - 1, v, float(rng.integers(1, 10))) for v in range(1, n)]
    edges += [(int(u), int(v), float(rng.uniform(0.5, 5.0)))
              for u, v in rng.integers(0, n, size=(n, 2)) if u != v]
    graph = GraphSpace(edges, n)
    dm = np.full((n, n), np.inf)
    np.fill_diagonal(dm, 0.0)
    for u, v, w in graph.edges:
        dm[u, v] = dm[v, u] = min(dm[u, v], w)
    assert block_height(n) < n
    assert graph._dist.tobytes() == plain_floyd_warshall(dm).tobytes()
    assert np.array_equal(graph._dist, graph._dist.T)


def test_graphs_of_several_blocks_are_refused_as_before():
    n = 300
    assert block_height(n) < n
    path = [(v - 1, v, 1e307) for v in range(1, n)]
    with pytest.raises(ValidationError, match="too wide"):
        GraphSpace(path, n)
    # two paths of n/2 vertices and a chord: n - 1 distinct edges
    halves = [(u, u + 1, 1.0) for u in range(n - 1) if u != n // 2 - 1]
    with pytest.raises(ValidationError, match="not connected"):
        GraphSpace(halves + [(0, 2, 1.0)], n)
