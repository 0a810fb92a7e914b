"""Seeded workloads of the setmetrics benchmark.

Each workload builds its inputs from a seed in ``setup``, times one
operation per call of ``run`` and checks one answer per call of
``check``.  Checks run outside operation timing and compare against
references computed independently of the package's own cost build and
solver: numpy kernels for the ground distances, scipy's
``shortest_path`` for graph distances and scipy's
``linear_sum_assignment`` on the rectangular cost d(x, y) - M(y).

Set sizes follow a fixed schedule, so the work per operation does not
depend on the seed; the seed chooses the elements.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import setmetrics as sm
import setmetrics.cli as sm_cli

#: Absolute tolerance of the optimality check on real-valued instances.
REAL_TOL = 1e-9
#: Library operations at these positions of the first pass also solve
#: d(B, A), which must equal d(A, B) bit for bit.  5 is coprime to every
#: cycle length here, so every instance kind gets its share.
SYMMETRY_EVERY = 5


def round9(x: float) -> float:
    """A value as the CLI prints it: 9 significant digits."""
    return float(format(float(x), ".9g"))


def check_deps():
    """Import what the checks need, so the first check does not pay it."""
    import scipy.optimize  # noqa: F401
    import scipy.sparse.csgraph  # noqa: F401


def _permuted(rng, items: list) -> list:
    return [items[i] for i in rng.permutation(len(items))]


# -- ground spaces: generators and independent references ----------------

class HammingRef:
    """Words of one length; distances by comparing byte codes."""

    def __init__(self, alphabet: str, length: int, penalty: float):
        self.alphabet, self.length, self.penalty_value = alphabet, length, penalty

    def draw(self, rng, count: int) -> list:
        words = {}
        while len(words) < count:
            for row in rng.integers(0, len(self.alphabet), size=(count, self.length)):
                words.setdefault("".join(self.alphabet[i] for i in row))
                if len(words) == count:
                    break
        return list(words)

    def _codes(self, words) -> np.ndarray:
        return np.frombuffer("".join(words).encode("ascii"),
                             dtype=np.uint8).reshape(len(words), self.length)

    def dist(self, xs, ys) -> np.ndarray:
        return (self._codes(xs)[:, None, :] != self._codes(ys)[None, :, :]) \
            .sum(axis=2).astype(float)

    def penalty(self, ys) -> np.ndarray:
        return np.full(len(ys), self.penalty_value)


class BoxRef:
    """Points of an axis-aligned box with the eccentricity penalty."""

    def __init__(self, bounds):
        self.bounds = np.asarray(bounds, dtype=float)

    def draw(self, rng, count: int) -> list:
        lo, hi = self.bounds[:, 0], self.bounds[:, 1]
        return rng.uniform(lo, hi, size=(count, len(lo))).tolist()

    def dist(self, xs, ys) -> np.ndarray:
        diff = np.asarray(xs)[:, None, :] - np.asarray(ys)[None, :, :]
        return np.sqrt((diff ** 2).sum(axis=2))

    def penalty(self, ys) -> np.ndarray:
        p = np.asarray(ys, dtype=float)
        far = np.maximum(p - self.bounds[:, 0], self.bounds[:, 1] - p)
        return np.sqrt((far ** 2).sum(axis=1))


class GraphRef:
    """Vertices of a weighted graph with the eccentricity penalty."""

    def __init__(self, vertex_count: int, edges: list):
        self.vertex_count, self.edges = vertex_count, edges
        self._all = None

    def draw(self, rng, count: int) -> list:
        return rng.choice(self.vertex_count, size=count, replace=False).tolist()

    def all_pairs(self) -> np.ndarray:
        if self._all is None:
            from scipy.sparse import coo_matrix
            from scipy.sparse.csgraph import shortest_path
            u, v, w = (np.array(col) for col in zip(*self.edges))
            n = self.vertex_count
            graph = coo_matrix((w.astype(float), (u, v)), shape=(n, n)).tocsr()
            self._all = shortest_path(graph, directed=False)
        return self._all

    def dist(self, xs, ys) -> np.ndarray:
        return self.all_pairs()[np.ix_(xs, ys)]

    def penalty(self, ys) -> np.ndarray:
        return self.all_pairs().max(axis=1)[ys]


def random_graph(rng, vertex_count: int) -> list:
    """A connected graph: a random spanning tree plus as many random edges
    again, integer weights 1..9, no parallel edges."""
    weights = {}

    def add(u, v):
        if u != v:
            key = (min(u, v), max(u, v))
            w = int(rng.integers(1, 10))
            weights[key] = min(weights.get(key, w), w)

    order = rng.permutation(vertex_count).tolist()
    for i in range(1, vertex_count):
        add(order[i], order[int(rng.integers(i))])
    for u, v in rng.integers(vertex_count, size=(vertex_count, 2)).tolist():
        add(u, v)
    return [[u, v, w] for (u, v), w in sorted(weights.items())]


@dataclass
class Kind:
    """One ground space with its penalty, generator and reference."""

    name: str
    space: sm.Space
    penalty: sm.PenaltyFunction
    ref: object
    integer: bool   # integer-valued costs: answers must match exactly


def hamming_kind(name, alphabet, length, penalty_of):
    """Words under a penalty equal to the word length."""
    space = sm.HammingSpace(alphabet, length)
    return Kind(name, space, penalty_of(space),
                HammingRef(alphabet, length, float(length)), integer=True)


def box_kind(name, dimension):
    bounds = [(0.0, 1.0)] * dimension
    space = sm.EuclideanBoxSpace(bounds)
    return Kind(name, space, sm.EccentricityPenalty(space), BoxRef(bounds),
                integer=False)


def graph_kind(name, rng, vertex_count):
    edges = random_graph(rng, vertex_count)
    space = sm.GraphSpace(edges, vertex_count)
    return Kind(name, space, sm.EccentricityPenalty(space),
                GraphRef(vertex_count, edges), integer=True)


# -- plans ---------------------------------------------------------------

@dataclass
class Plan:
    """The inputs of one run.  An end-to-end run times passes over the
    distinct operations ``ops``; a traced run times the first
    ``trace_ops``, one rotation of every instance kind and size.  The first
    ``warmup`` operations cover every operation kind once."""

    ops: list
    warmup: int
    trace_ops: int
    sizes: str
    data: dict = field(default_factory=dict)


@dataclass
class Instance:
    kind: Kind
    raw_a: list
    raw_b: list
    reference: float | None = None

    @property
    def label(self) -> str:
        return self.kind.name


class LibraryWorkload:
    """Library operations: canonicalize two raw element lists into point
    sets and call ``subset_distance``."""

    def run(self, inst: Instance):
        a = sm.PointSet(inst.kind.space, inst.raw_a)
        b = sm.PointSet(inst.kind.space, inst.raw_b)
        return sm.subset_distance(inst.kind.space, inst.kind.penalty, a, b)

    @staticmethod
    def fingerprint(result):
        """What a repeat of a checked operation must reproduce exactly."""
        return (result.value.hex(), result.witness_from_a,
                result.full_witness.pairs)

    def check(self, plan: Plan, inst: Instance, result, position: int) -> list:
        kind = inst.kind
        space, penalty = kind.space, kind.penalty
        problems = []
        a = sm.PointSet(space, inst.raw_a)
        b = sm.PointSet(space, inst.raw_b)
        src, tgt = (a, b) if result.witness_from_a else (b, a)
        chi = sm.chi_distance(space, penalty, src, tgt, result.full_witness)
        if chi != result.value:
            problems.append(f"value {result.value!r} != chi_distance of its "
                            f"witness {chi!r}")
        if inst.reference is None:
            inst.reference = reference_distance(kind.ref, inst.raw_a, inst.raw_b)
        if kind.integer:
            if result.value != inst.reference:
                problems.append(f"{kind.name}: value {result.value!r} != "
                                f"reference {inst.reference!r}")
        elif not abs(result.value - inst.reference) <= REAL_TOL:
            problems.append(f"{kind.name}: value {result.value!r} differs from "
                            f"reference {inst.reference!r} by more than {REAL_TOL}")
        if position < len(plan.ops) and position % SYMMETRY_EVERY == 0:
            back = sm.subset_distance(space, penalty, b, a).value
            if back.hex() != result.value.hex():
                problems.append(f"d(A,B) = {result.value!r} but d(B,A) = {back!r}")
        return problems


def reference_distance(ref, raw_a: list, raw_b: list) -> float:
    """Optimal injection cost by scipy on the rectangular cost
    d(x, y) - M(y), smaller side as rows, with no intersection reduction."""
    from scipy.optimize import linear_sum_assignment
    src, tgt = (raw_a, raw_b) if len(raw_a) <= len(raw_b) else (raw_b, raw_a)
    m = ref.penalty(tgt)
    total = float(m.sum())
    if src:
        cost = ref.dist(src, tgt) - m[None, :]
        rows, cols = linear_sum_assignment(cost)
        total += float(cost[rows, cols].sum())
    return total


class Balanced(LibraryWorkload):
    """Equal sides with a quarter shared; the cost build dominates."""

    def setup(self, seed: int, workdir: Path, smoke: bool) -> Plan:
        rng = np.random.default_rng(seed)
        sizes = (6, 10) if smoke else (100, 115, 130, 145)
        rounds = 1 if smoke else 7
        kinds = [
            hamming_kind("hamming_acgt20", "ACGT", 20,
                         lambda s: sm.ConstantPenalty(s, 20.0)),
            hamming_kind("hamming_01_10", "01", 10, sm.DiameterPenalty),
            box_kind("box_r3", 3),
            graph_kind("graph", rng, 3 * max(sizes)),
        ]
        ops = []
        for _ in range(rounds):
            for n in sizes:
                shared = n // 4
                for kind in kinds:
                    pool = kind.ref.draw(rng, 2 * n - shared)
                    ops.append(Instance(kind, _permuted(rng, pool[:n]),
                                        _permuted(rng, pool[:shared] + pool[n:])))
        cycle = len(sizes) * len(kinds)
        return Plan(ops, warmup=len(kinds), trace_ops=cycle,
                    sizes=(f"|A|=|B| in {sizes}, {len(kinds)} kinds "
                           f"({', '.join(k.name for k in kinds)}), "
                           f"graph of {3 * max(sizes)} vertices, "
                           f"n//4 shared, {len(ops)} distinct instances"))


class Lopsided(LibraryWorkload):
    """A small side against a large one; the padded square solve dominates.
    The large side takes every third size from 100 to 148, one instance
    each, so op times spread evenly and no gap between size clusters sits
    at a reported percentile."""

    def setup(self, seed: int, workdir: Path, smoke: bool) -> Plan:
        rng = np.random.default_rng(seed)
        larges = (12,) if smoke else tuple(range(100, 151, 3))
        smalls = (1, 3) if smoke else (1, 4, 8)
        kinds = [
            hamming_kind("hamming_acgt12", "ACGT", 12,
                         lambda s: sm.ConstantPenalty(s, 12.0)),
            graph_kind("graph", rng, 3 * max(larges)),
        ]
        ops = []
        for large in larges:
            for small in smalls:
                for kind in kinds:
                    pool = kind.ref.draw(rng, small + large)
                    a, b = pool[:small], _permuted(rng, pool[small:])
                    if len(ops) // len(kinds) % 2:
                        a, b = b, a
                    ops.append(Instance(kind, a, b))
        return Plan(ops, warmup=len(kinds), trace_ops=len(ops),
                    sizes=(f"small side in {smalls} vs large side in "
                           f"{larges[0]}..{larges[-1]} step 3, "
                           f"{', '.join(k.name for k in kinds)}, graph of "
                           f"{3 * max(larges)} vertices, no shared elements, "
                           f"{len(ops)} distinct instances"))


# -- the command-line workload -------------------------------------------

#: Files of each workspace kind that a traced CLI run covers.
TRACE_VARIANTS = 3


@dataclass(frozen=True)
class Command:
    argv: tuple
    kind: str        # "matrix", "validate" or "dist"
    workspace: str   # "graph", "box" or "dna"
    variant: int     # which file of that workspace kind, or which DNA pair
    metric: str = "subset"

    @property
    def label(self) -> str:
        return f"{self.kind} {self.workspace} {self.metric}"


class Cli:
    """In-process ``setmetrics.cli.main`` over workspace files written
    during set-up, in a fixed rotation of commands.  Each command runs on
    many generated files in turn, so no single random file sets its cost;
    a traced run uses the first TRACE_VARIANTS of them."""

    def setup(self, seed: int, workdir: Path, smoke: bool) -> Plan:
        rng = np.random.default_rng(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        variants = 1 if smoke else 15
        set_count = 4 if smoke else 10
        vertex_count = 10 if smoke else 32
        dna_words = 8 if smoke else 150
        workspaces = {}
        commands = []
        for v in range(variants):
            edges = random_graph(rng, vertex_count)
            graph = sm.GraphSpace(edges, vertex_count)
            table = [[x, graph.eccentricity(x)] for x in range(vertex_count)]
            graph_sets = {f"g{i:02d}": rng.choice(vertex_count, size=3 + i % 8,
                                                  replace=False).tolist()
                          for i in range(set_count)}
            box = sm.EuclideanBoxSpace([(0.0, 1.0)] * 3)
            box_sets = {f"r{i:02d}": rng.uniform(0.0, 1.0, size=(6 + i % 8, 3)).tolist()
                        for i in range(set_count)}
            workspaces["graph", v] = (graph, sm.TablePenalty(graph, table), graph_sets)
            workspaces["box", v] = (box, sm.EccentricityPenalty(box), box_sets)
            g, r = workdir / f"graph{v}.json", workdir / f"box{v}.json"
            g.write_text(json.dumps({
                "space": {"kind": "graph", "vertices": vertex_count, "edges": edges},
                "m_function": {"variant": "table", "entries": table},
                "sets": graph_sets}))
            r.write_text(json.dumps({
                "space": box.to_json(), "m_function": {"variant": "eccentricity"},
                "sets": box_sets}))
            commands += [
                Command(("matrix", str(g), "--format", "json"), "matrix", "graph", v),
                Command(("matrix", str(r)), "matrix", "box", v),
                Command(("matrix", str(g), "--metric", "hausdorff", "--format", "json"),
                        "matrix", "graph", v, "hausdorff"),
                Command(("matrix", str(r), "--metric", "link", "--format", "json"),
                        "matrix", "box", v, "link"),
                Command(("validate", str(g), "--samples", "3"), "validate", "graph", v),
                Command(("dist", "--text", str(workdir / "dna.txt"),
                         f"set_{2 * v + 1}", f"set_{2 * v + 2}"), "dist", "dna", v),
                Command(("matrix", str(g), "--metric", "link", "--format", "json"),
                        "matrix", "graph", v, "link"),
            ]

        # One text file with a pair of blocks per variant, a quarter shared.
        dna = HammingRef("ACGT", 20, 20.0)
        shared = dna_words // 4
        blocks = []
        for v in range(variants):
            pool = dna.draw(rng, 2 * dna_words - shared)
            blocks += [pool[:dna_words], pool[:shared] + pool[dna_words:]]
            workspaces["dna", v] = (blocks[-2], blocks[-1])
        (workdir / "dna.txt").write_text(
            "# generated DNA reads\n"
            + "\n\n".join("\n".join(b) for b in blocks) + "\n")

        kinds = len(commands) // variants
        return Plan(commands, warmup=kinds,
                    trace_ops=kinds * min(variants, TRACE_VARIANTS),
                    data={"workspaces": workspaces, "references": {},
                          "dna_alphabet": "".join(sorted(
                              {ch for block in blocks for word in block for ch in word}))},
                    sizes=(f"7 commands x {variants} files; {set_count} sets per "
                           f"workspace; graphs of {vertex_count} vertices with "
                           f"a table penalty, sets of 3-10; R^3 sets of 6-13; "
                           f"{variants} pairs of {dna_words} DNA words of "
                           f"length 20, a quarter shared"))

    def run(self, command: Command):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sm_cli.main(list(command.argv))
        return code, out.getvalue()

    @staticmethod
    def fingerprint(output):
        """What a repeat of a checked command must reproduce exactly."""
        return output

    def check(self, plan: Plan, command: Command, output, position: int) -> list:
        code, text = output
        if code != 0:
            return [f"{' '.join(command.argv)} exited with {code}"]
        if command.kind == "validate":
            report = json.loads(text)
            if report.get("ok") is not True or not report.get("pairs_checked"):
                return [f"validate reported {report.get('ok')!r}"]
            return []
        if command.kind == "dist":
            return self._check_dist(plan, command, json.loads(text))
        return self._check_matrix(plan, command, text)

    def _check_matrix(self, plan, command, text) -> list:
        if "--format" in command.argv:
            doc = json.loads(text)
            names, values = doc["names"], doc["values"]
        else:
            rows = list(csv.reader(io.StringIO(text)))
            names = rows[0][1:]
            values = [[float(v) for v in row[1:]] for row in rows[1:]]
        n = len(names)
        problems = []
        if any(values[i][i] != 0.0 for i in range(n)):
            problems.append("matrix diagonal is not zero")
        if any(values[i][j] != values[j][i] for i in range(n) for j in range(n)):
            problems.append("matrix is not symmetric")
        expected = self._matrix_reference(plan, command, names)
        if values != expected:
            problems.append(f"{command.metric} matrix on {command.workspace} "
                            "differs from library values at 9 digits")
        return problems

    def _matrix_reference(self, plan, command, names) -> list:
        key = (command.workspace, command.variant, command.metric)
        cache = plan.data["references"]
        if key not in cache:
            space, penalty, raw = plan.data["workspaces"][command.workspace,
                                                          command.variant]
            sets = [sm.PointSet(space, raw[name]) for name in names]

            def distance(a, b):
                if command.metric == "subset":
                    return sm.subset_distance(space, penalty, a, b).value
                if command.metric == "hausdorff":
                    return sm.hausdorff_distance(space, a, b)
                return sm.link_distance(space, a, b)

            cache[key] = [[round9(distance(a, b)) for b in sets] for a in sets]
        return cache[key]

    def _check_dist(self, plan, command, report) -> list:
        first, second = plan.data["workspaces"]["dna", command.variant]
        key = ("dna", command.variant)
        cache = plan.data["references"]
        if key not in cache:
            alphabet = plan.data["dna_alphabet"]
            cache[key] = round9(sm.sequence_subset_distance(alphabet, 20, first, second))
        problems = []
        if report["value"] != cache[key]:
            problems.append(f"dist value {report['value']!r} != library "
                            f"{cache[key]!r}")
        # Cost of the printed witness, summed independently of the package.
        pairs = report["witness"]["pairs"]
        source, target = (set(first), set(second))
        if report["witness"]["from"] == command.argv[-1]:
            source, target = target, source
        targets = {y for _, y in pairs}
        if {x for x, _ in pairs} != source or len(pairs) != len(source) \
                or not targets <= target or len(targets) != len(pairs):
            problems.append("dist witness is not an injection of the smaller set")
        else:
            cost = sum(sum(p != q for p, q in zip(x, y)) for x, y in pairs)
            cost += 20 * (len(target) - len(targets))
            if cost != report["value"]:
                problems.append(f"dist witness costs {cost}, not {report['value']}")
        return problems


WORKLOADS = {
    "balanced": Balanced,
    "lopsided": Lopsided,
    "cli": Cli,
}
