"""The two forms of the solver core return the same columns.

``_shortest_augmenting_paths`` runs matrices at most
``LIST_CORE_MAX_COLS`` wide over Python lists (``_paths_over_lists``) and
wider ones over numpy arrays (``_paths_over_arrays``).  Both follow the
same rules with the same float operations, so on every matrix of finite
entries they pick the same columns.  These tests call both forms
directly, on either side of the cut-over, so neither the golden files nor
any witness depends on which form ran.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import setmetrics.assignment as assignment
from setmetrics.assignment import (LIST_CORE_MAX_COLS, _paths_over_arrays,
                                   _paths_over_lists)
from test_solver_golden import cases, matrix

WIDTH = LIST_CORE_MAX_COLS


def assert_twins_agree(c):
    lists = _paths_over_lists(c)
    assert lists == _paths_over_arrays(c)
    return lists


@pytest.mark.parametrize("name", sorted(name for name, (_, _, t, _)
                                        in cases().items() if t <= WIDTH))
def test_twins_agree_on_golden_cases_within_the_cut_over(name):
    assert_twins_agree(matrix(*cases()[name]))


def seeded_matrix(rng, kind, shape):
    if kind == "int3":
        return rng.integers(0, 3, size=shape).astype(float)
    if kind == "int21":
        return rng.integers(0, 21, size=shape).astype(float)
    if kind == "uniform":
        return rng.random(shape)
    return rng.random(shape) * 10.0 ** rng.integers(-6, 10, size=shape)


#: Row counts per width: every height at the cut-over, and the few rows
#: of the lopsided subset distances, 1-8 against 100-148, which read
#: their cheapest columns from one argmin until the first tree.
SEEDED_ROWS = {t: (1, 2, t // 4, t // 2, t - 1, t)
               for t in (WIDTH, WIDTH + 1)} | {100: (1, 4, 8), 148: (1, 4, 8)}


@pytest.mark.parametrize("t", SEEDED_ROWS)
@pytest.mark.parametrize("kind", ("int3", "int21", "uniform", "spread"))
def test_twins_agree_on_seeded_matrices_at_the_cut_over(kind, t):
    rng = np.random.default_rng([t, len(kind)])
    for s in SEEDED_ROWS[t]:
        for _ in range(4):
            assert_twins_agree(seeded_matrix(rng, kind, (s, t)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("t", (WIDTH, WIDTH + 1))
def test_twins_agree_on_costs_up_to_the_largest_float(t):
    # Path costs overflow to inf at this scale, which numpy warns of and
    # Python floats do not; both forms still pick the same columns.
    rng = np.random.default_rng([t, 308])
    for s in (1, 2, t // 4, t // 2, t - 1, t):
        for _ in range(4):
            huge = rng.random((s, t)) * 1.7e308
            small = rng.integers(0, 3, size=(s, t)).astype(float)
            assert_twins_agree(huge)
            assert_twins_agree(np.where(rng.random((s, t)) < 0.5, huge, small))


#: Tenths on which a tree finalizes a column at a path cost above the one
#: it ends at, by rounding: that column's potential rises, not falls.
RISING_POTENTIAL = np.array([[19, 29, 9, 26, 9, 29, 9],
                             [5, 23, 30, 18, 0, 2, 1],
                             [7, 20, 3, 20, 18, 26, 23],
                             [27, 28, 2, 12, 10, 6, 14],
                             [15, 1, 19, 13, 8, 3, 13],
                             [4, 27, 25, 24, 2, 21, 18]]) / 10


def test_twins_round_alike_on_decimal_fractions():
    assert assert_twins_agree(RISING_POTENTIAL) == (6, 5, 0, 2, 1, 4)
    # Tenths are inexact in binary: path costs added in another order round
    # apart and, on about one near-square matrix in ten, pick other columns.
    rng = np.random.default_rng(10)
    for _ in range(200):
        t = int(rng.integers(8, WIDTH + 1))
        s = int(rng.integers(t - 3, t + 1))
        assert_twins_agree(rng.integers(0, 31, size=(s, t)) / 10)


def test_a_column_reached_twice_at_its_cost_takes_the_first_row():
    # Row 0 takes column 0 by one edge.  Row 1's tree finalizes column 0 at
    # cost 1, then reaches column 1 at cost 2 twice: from row 1 itself and
    # through row 0.  Its parent is the first of the two, row 1, so row 0
    # keeps column 0.  Through row 0 the columns would be (1, 0), of the
    # same total.
    c = np.full((2, WIDTH + 1), 9.0)
    c[:, :2] = [[0.0, 1.0], [1.0, 2.0]]
    assert assert_twins_agree(c) == (0, 1)


def test_the_cut_over_is_on_width(monkeypatch):
    ran = []
    monkeypatch.setattr(assignment, "_paths_over_lists",
                        lambda c: ran.append("lists"))
    monkeypatch.setattr(assignment, "_paths_over_arrays",
                        lambda c: ran.append("arrays"))
    for shape in ((1, WIDTH), (WIDTH, WIDTH), (1, WIDTH + 1)):
        assignment._shortest_augmenting_paths(np.zeros(shape))
    assert ran == ["lists", "lists", "arrays"]


ENTRIES = {
    "integers 0-2": st.integers(0, 2).map(float),
    "integers 0-20": st.integers(0, 20).map(float),
    "uniform reals": st.floats(0.0, 1.0),
    "1e-6 to 1e9": st.floats(1e-6, 1e9),
}


@st.composite
def cost_matrices(draw):
    """s x t with 1 <= s <= t <= the cut-over: all-equal costs, or
    entries of one of ``ENTRIES``."""
    t = draw(st.integers(1, WIDTH))
    s = draw(st.integers(1, t))
    kind = draw(st.sampled_from(["all equal", *ENTRIES]))
    if kind == "all equal":
        return np.full((s, t), draw(st.floats(0.0, 1e9)))
    return draw(arrays(float, (s, t), elements=ENTRIES[kind]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cost_matrices())
def test_twins_agree_on_generated_matrices(c):
    columns = assert_twins_agree(c)
    assert sorted(set(columns)) == sorted(columns)


def words(rng, count, length=12):
    return ["".join(w) for w in rng.choice(list("ACGT"), size=(count, length))]


def swap(word, i):
    """``word`` with the letter at ``i`` replaced: one letter off."""
    return word[:i] + ("A" if word[i] != "A" else "C") + word[i + 1:]


def hamming_costs(rng, s, t, length=12):
    """Costs d - L of s ACGT words of length L against t distinct ones,
    the lopsided shapes the numpy form runs.  Copies of targets take their
    columns by one edge.  With s >= 2, row ``w`` takes column a by one edge
    although it ties column k > a, and a later row ``x`` finds its first
    cheapest column a taken and ties it with a free column b > k: Crouse's
    rule takes b, while a tree from x would reach k through w at the same
    cost and end there.  Any other rows are drawn at random."""
    targets = sorted(set(words(rng, t, length)))
    while len(targets) < t:
        targets = sorted(set(targets + words(rng, 1, length)))
    sources = []
    if s >= 2:
        a, k, b = sorted(int(i) for i in rng.choice(t, size=3, replace=False))
        w = words(rng, 1, length)[0]
        x = swap(swap(w, 0), length - 1)
        targets[a], targets[k], targets[b] = swap(w, 0), swap(w, 1), swap(x, 2)
        others = [i for i in rng.permutation(t) if i not in (a, k, b)]
        copies = [targets[i] for i in others[:int(rng.integers(0, s - 1))]]
        half = int(rng.integers(0, len(copies) + 1))
        sources = copies[:half] + [w] + copies[half:] + [x]
    sources += words(rng, s - len(sources), length)
    return np.array([[sum(p != q for p, q in zip(y, z)) - length
                      for z in targets] for y in sources], dtype=float)


@pytest.mark.parametrize("t", (100, 113, 148))
def test_twins_agree_above_the_cut_over(t):
    # The numpy form's lazy tie lookup, behind runs of one-edge rows, and
    # its level scan on tie-heavy integers, against the list form.
    rng = np.random.default_rng([t, 19])
    for s in range(1, 9):
        for _ in range(4):
            assert_twins_agree(hamming_costs(rng, s, t))
    for s in (1, 8, t // 2, t):
        assert_twins_agree(rng.integers(0, 3, size=(s, t)).astype(float))
    t = int(rng.integers(64, 100))
    assert_twins_agree(rng.integers(0, 3, size=(t // 2, t)).astype(float))


def first_collision(t, after_tree):
    """8 x t costs on which row 3 takes column t - 1 by one edge: its
    cheapest column 5 is row 0's and ties the free column t - 1 (Crouse's
    rule), where a tree from row 3 would reach column 8 through row 0 at
    the same cost and end there.  Without ``after_tree``, rows 0-2 take
    their cheapest columns at v = 0 by one edge, in the numpy form's first
    argmin, and row 3 is the first whose cheapest column is taken, before
    any tree.  With it, row 2's cheapest column is row 1's, and the tree
    it grows moves row 1 to column 9 and lowers v[7]; row 3's cheapest
    column at v = 0, 7, is then no longer its cheapest.  Rows 4-7 take
    columns of their own."""
    c = np.zeros((8, t))
    c[0, 5] = c[0, 8] = c[3, 5] = c[3, t - 1] = -3.0
    c[1, 7] = -2.0
    if after_tree:
        c[1, 9] = -1.0
        c[2, 7] = -2.0
        c[3, 7] = -3.5
    else:
        c[2, 11] = -2.0
    for r in range(4, 8):
        c[r, 20 + r] = -1.0
    return c


@pytest.mark.parametrize("t", (100, 148))
@pytest.mark.parametrize("after_tree", (False, True),
                         ids=("before any tree", "after a tree"))
def test_twins_agree_on_a_first_collision_at_lopsided_widths(t, after_tree):
    c = first_collision(t, after_tree)
    columns = assert_twins_agree(c)
    assert columns[:4] == ((5, 9, 7, t - 1) if after_tree
                           else (5, 7, 11, t - 1))
    for s in (1, 4):
        assert assert_twins_agree(c[:s]) == columns[:s]
