"""Command-line interface.

Four subcommands over workspace files:

  dist    distance between two named sets, optionally oracle-checked
  matrix  all-pairs distance matrix as CSV or JSON
  validate  penalty admissibility plus metric-axiom checks
  demo-incompleteness  show that finite subsets of [0,1] do not form a
      complete space: the sets {0, 1/n} get arbitrarily close to each
      other yet stay boundedly far from every fixed candidate limit

``matrix``, for every metric, and ``validate`` gather the distances of
their pool's pairs from one numpy table of the pool's elements, for a
union of up to ``POOL_TABLE_MAX_ELEMENTS`` elements: ``pool_distances``
for the subset metric, whose costs d - M it also prepares once per pool,
and ``pool_comparison_distances`` for the others.  Each prepares its
tables before the first pair.  Larger pools run ``subset_distance`` or
``comparison_distance`` per pair.  Either way each value is the one
those give, bit for bit.

``validate`` checks every triangle of its pool: every ordered triple of
the file's sets and its sampled ones.

Exit codes: 0 success, 1 validation or axiom failure or a closed output
pipe, 2 parse or usage error.  Real numbers are printed with 9
significant digits and '.' as the decimal separator.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from .comparisons import (ComparisonKind, brute_force_link_distance,
                          comparison_distance, pool_comparison_distances)
from .errors import DomainError, ParseError, SizeLimitError, ValidationError
from .penalties import EccentricityPenalty, TablePenalty, parse_penalty_spec
from .penalties import _admissibility_report as validate_penalty
from .spaces import EuclideanBoxSpace, element_to_json
from .subset_distance import (PointSet, brute_force_subset_distance,
                              pool_distances, subset_distance)
from .workspace import (Workspace, certify_penalty, load_sequence_sets,
                        load_workspace, uncovered_elements)

#: CLI metric names for the non-subset comparison distances.
_COMPARISONS = {
    "hausdorff": ComparisonKind.HAUSDORFF,
    "md": ComparisonKind.SUM_MIN,
    "surjective": ComparisonKind.SURJECTIVE,
    "fair": ComparisonKind.FAIR_SURJECTIVE,
    "link": ComparisonKind.LINK,
}
METRIC_NAMES = ("subset",) + tuple(_COMPARISONS)

AXIOM_TOL = 1e-9
DEMO_TOL = 1e-12
_SHOWN = 5  # violations that validate lists per axiom


def fmt_real(x: float) -> str:
    return format(float(x), ".9g")


def _finite(x: float) -> float:
    """A distance, refused when it overflowed a float."""
    if not math.isfinite(x):
        raise DomainError(f"distance {x} is not finite: it overflows a float")
    return x


def round_real(x: float) -> float:
    """Value as printed: 9 significant digits, and finite, as JSON is."""
    return float(fmt_real(_finite(x)))


def _load(args) -> Workspace:
    if getattr(args, "text", False):
        ws = load_sequence_sets(args.file)
    else:
        ws = load_workspace(args.file)
    if getattr(args, "m_spec", None):
        ws.penalty = parse_penalty_spec(ws.space, args.m_spec)
    for note in ws.notices:
        print(f"note: {note}", file=sys.stderr)
    return ws


def cmd_dist(args) -> int:
    ws = _load(args)
    a = ws.get_set(args.set_a)
    b = ws.get_set(args.set_b)
    report = {"metric": args.metric, "sets": [args.set_a, args.set_b]}

    if args.metric == "subset":
        certify_penalty(ws)
        result = subset_distance(ws.space, ws.penalty, a, b)
        value = result.value
        witness = result.full_witness
        report["witness"] = {
            "from": args.set_a if result.witness_from_a else args.set_b,
            "pairs": [[element_to_json(x), element_to_json(y)]
                      for x, y in witness.pairs],
        }
    else:
        value = comparison_distance(_COMPARISONS[args.metric], ws.space, a, b)
    report["value"] = round_real(value)

    if args.oracle:
        if args.metric == "subset":
            oracle = brute_force_subset_distance(ws.space, ws.penalty, a, b).value
        elif args.metric == "link":
            oracle = brute_force_link_distance(ws.space, a, b)
        else:
            raise ParseError(
                f"--oracle supports the subset and link metrics, not {args.metric}")
        report["oracle_value"] = round_real(oracle)
        report["agree"] = bool(abs(value - oracle) <= AXIOM_TOL)

    print(json.dumps(report, indent=2))
    return 0


def cmd_matrix(args) -> int:
    ws = _load(args)
    names = ws.set_names()
    n = len(names)
    pool = [ws.sets[name] for name in names]
    if args.metric == "subset":
        if n:
            certify_penalty(ws)
        distance = pool_distances(ws.space, ws.penalty, pool)
    else:
        distance = pool_comparison_distances(_COMPARISONS[args.metric],
                                             ws.space, pool)
    values = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            values[i][j] = values[j][i] = round_real(distance(i, j))

    if args.format == "json":
        print(json.dumps({"metric": args.metric, "names": names,
                          "values": values}, indent=2))
    else:
        out = csv.writer(sys.stdout, lineterminator="\n")
        out.writerow(["", *names])
        for name, row in zip(names, values):
            out.writerow([name, *(fmt_real(v) for v in row)])
    return 0


def _sample_sets(ws: Workspace, rng: np.random.Generator, count: int):
    if isinstance(ws.penalty, TablePenalty):
        # A table only defines M on its own domain; draw from exactly that.
        domain = ws.penalty.domain()

        def draw():
            return domain[int(rng.integers(len(domain)))]
    else:
        def draw():
            return ws.space.sample_element(rng)
    sets = []
    for _ in range(count):
        size = int(rng.integers(0, 5))
        sets.append(PointSet._from_valid(
            ws.space, list({draw() for _ in range(size)})))
    return sets


def _penalty_sample(ws: Workspace, rng: np.random.Generator, samples: int):
    if isinstance(ws.penalty, TablePenalty):
        # A table only defines M on its own domain; check exactly that.
        return list(ws.penalty.domain())
    count = ws.space.element_count()
    if count is not None and count <= 64:
        return list(ws.space.elements())
    # Each distinct element once, in order of first appearance.
    elems = [x for ps in ws.sets.values() for x in ps]
    elems.extend(ws.space.sample_element(rng) for _ in range(samples))
    return list(dict.fromkeys(elems))


def _triangle_violations(dist: np.ndarray) -> list:
    """(i, j, k) of the first ``_SHOWN`` triples, in that order, where
    d(i, k) > d(i, j) + d(j, k) + AXIOM_TOL in the pool's distance matrix:
    every triple checked, in one comparison per middle index j."""
    found = []
    # a sum past the largest float is inf, as in Python
    with np.errstate(over="ignore"):
        for j in range(len(dist)):
            bad = dist > dist[:, j, None] + dist[None, j, :] + AXIOM_TOL
            if bad.any():
                # row-major, so the first few of each j hold the first overall
                found += [(i, j, k)
                          for i, k in np.argwhere(bad)[:_SHOWN].tolist()]
    return sorted(found)[:_SHOWN]


def cmd_validate(args) -> int:
    ws = _load(args)
    rng = np.random.default_rng(args.seed)
    report = {}
    ok = True

    if isinstance(ws.penalty, TablePenalty):
        uncovered = [f"set {name!r} element {x!r} has no table entry"
                     for name, x in uncovered_elements(ws)]
        if uncovered:
            ok = False
            report["coverage"] = {"ok": False, "violations": uncovered}

    sample = _penalty_sample(ws, rng, args.samples)
    pen_report = validate_penalty(ws.space, ws.penalty, sample)
    report["penalty"] = pen_report.to_json()
    ok = ok and pen_report.ok

    axioms = {name: {"ok": True, "violations": []}
              for name in ("nonnegativity", "identity", "symmetry", "triangle")}

    def fail(axiom: str, message: str):
        nonlocal ok
        ok = False
        axioms[axiom]["ok"] = False
        if len(axioms[axiom]["violations"]) < _SHOWN:
            axioms[axiom]["violations"].append(message)

    pool = list(ws.sets.values())
    pairs_checked = 0
    if pen_report.ok and not report.get("coverage", {}).get("violations"):
        pool = pool + _sample_sets(ws, rng, max(args.samples, 12))
        n = len(pool)
        distance = pool_distances(ws.space, ws.penalty, pool)
        dist = [[0.0] * n for _ in range(n)]
        for i, A in enumerate(pool):
            for j in range(i, n):
                B = pool[j]
                dab = _finite(distance(i, j))
                dba = distance(j, i)
                dist[i][j] = dist[j][i] = dab
                pairs_checked += 1
                if dab < 0:
                    fail("nonnegativity", f"d({A!r},{B!r}) = {dab}")
                if dba != dab:
                    fail("symmetry", f"d({A!r},{B!r}) = {dab} != {dba}")
                if (A == B) != (dab == 0.0):
                    fail("identity", f"d({A!r},{B!r}) = {dab}")
        for i, j, k in _triangle_violations(np.array(dist)):
            lhs = dist[i][k]
            rhs = dist[i][j] + dist[j][k]
            fail("triangle",
                 f"d(#{i},#{k}) = {lhs} > {rhs} = d(#{i},#{j}) + d(#{j},#{k})")
        report["axioms"] = axioms
        report["pairs_checked"] = pairs_checked
        report["triples_checked"] = n ** 3
    else:
        # An inadmissible penalty voids the metric guarantees; skip axioms.
        report["axioms"] = None

    report["ok"] = ok
    print(json.dumps(report, indent=2))
    return 0 if ok else 1


def cmd_demo(args) -> int:
    space = EuclideanBoxSpace([(0.0, 1.0)])
    penalty = EccentricityPenalty(space)
    P = lambda *xs: PointSet(space, [(float(v),) for v in xs])

    def d(a, b):
        return subset_distance(space, penalty, a, b).value

    mismatches = 0

    def show(label, computed, expected):
        nonlocal mismatches
        bad = abs(computed - expected) > DEMO_TOL
        mismatches += bad
        print(f"  {label}: computed={fmt_real(computed)} "
              f"expected={fmt_real(expected)}" + ("  MISMATCH" if bad else ""))

    ns = range(2, args.n_max + 1)
    print(f"ground space [0,1], penalty M(y) = max(y, 1-y); A_k = {{0, 1/k}}")
    print(f"pairwise distances d(A_n, A_m), expected |1/n - 1/m|:")
    for n in ns:
        for m in ns:
            if m <= n:
                continue
            show(f"n={n} m={m}", d(P(0, 1 / n), P(0, 1 / m)), abs(1 / n - 1 / m))
    print("the A_n bunch up: beyond any tail the pairwise distances shrink")

    print(f"distances to the candidate limit {{0}}, expected max(1/n, 1-1/n):")
    for n in ns:
        show(f"n={n}", d(P(0, 1 / n), P(0)), max(1 / n, 1 - 1 / n))
    print("-> approaches 1, so {0} is not the limit")

    for a in args.grid:
        print(f"distances to {{0, {fmt_real(a)}}}, expected |a - 1/n|:")
        for n in ns:
            show(f"n={n}", d(P(0, 1 / n), P(0, a)), abs(a - 1 / n))
        print(f"-> approaches {fmt_real(a)}, so {{0, {fmt_real(a)}}} is not "
              f"the limit either")

    print("no finite subset works as a limit: the space is incomplete")
    if mismatches:
        print(f"{mismatches} value(s) off by more than {DEMO_TOL}")
        return 1
    return 0


def _int_at_least(minimum: int):
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}")
        return value
    return convert


def _grid(text: str):
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated "
                                         "list of numbers")
    if not values or any(not 0.0 < a <= 1.0 for a in values):
        raise argparse.ArgumentTypeError("grid values must lie in (0, 1]")
    return values


def _add_common(sub, with_metric=True):
    sub.add_argument("file", help="workspace file (JSON, or text with --text)")
    sub.add_argument("--text", action="store_true",
                     help="read blank-line-separated blocks of equal-length "
                          "words instead of JSON")
    sub.add_argument("--m", dest="m_spec", metavar="SPEC",
                     help="override the penalty: constant:<v> | diameter | "
                          "eccentricity")
    if with_metric:
        sub.add_argument("--metric", choices=METRIC_NAMES, default="subset")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setmetrics",
        description="Distances between finite subsets of a bounded metric "
                    "space: an injection-based set metric plus classical "
                    "comparison distances.")
    commands = parser.add_subparsers(dest="command", required=True)

    dist = commands.add_parser(
        "dist", help="distance between two named sets")
    _add_common(dist)
    dist.add_argument("set_a", help="name of the first set")
    dist.add_argument("set_b", help="name of the second set")
    dist.add_argument("--oracle", action="store_true",
                      help="also run the brute-force oracle and report "
                           "agreement (subset and link metrics)")
    dist.set_defaults(func=cmd_dist)

    matrix = commands.add_parser(
        "matrix", help="all-pairs distance matrix over the named sets")
    _add_common(matrix)
    matrix.add_argument("--format", choices=("csv", "json"), default="csv")
    matrix.set_defaults(func=cmd_matrix)

    validate = commands.add_parser(
        "validate", help="check penalty admissibility and metric axioms")
    _add_common(validate, with_metric=False)
    validate.add_argument("--samples", type=_int_at_least(1), default=100,
                          help="random elements / sets per check "
                               "(default 100)")
    validate.add_argument("--seed", type=int, default=0,
                          help="seed for the sampled checks (default 0)")
    validate.set_defaults(func=cmd_validate)

    demo = commands.add_parser(
        "demo-incompleteness",
        help="numeric demonstration that the subset metric over [0,1] has "
             "non-convergent Cauchy sequences")
    demo.add_argument("--n-max", type=_int_at_least(2), default=8,
                      help="largest n for the sets {0, 1/n} (default 8)")
    demo.add_argument("--grid", type=_grid, default=[0.5],
                      help="comma-separated candidate values a in (0,1] for "
                           "limit sets {0, a} (default 0.5)")
    demo.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except (ParseError, SizeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader of stdout went away.  Output still buffered goes to
        # devnull, so that the flush at exit raises no second error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
