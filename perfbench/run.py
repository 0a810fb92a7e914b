"""Benchmark of the setmetrics package.

    python3 perfbench/run.py --workload lopsided --seed 1 --seconds 50 --trace 0

Run from the repository root; the package is imported from ``src/``.
Each workload is a closed loop: one client in one process and thread
issues an operation only after the previous one returned, so no layer
ever waits for another.  numpy and BLAS are pinned to one thread.

``--trace 0`` times operations with no tracing and prints the end-to-end
metrics, with times scaled to a reference speed of the machine so that
load from other tenants of a shared host cancels out (see ``speed``).
``--trace 1`` runs a fixed list of operations twice, untraced and traced
in alternation, and prints the per-layer metrics; fixing the list makes
every per-layer count repeat exactly for a given seed.  Every answer is
checked outside operation timing in both modes.  ``--smoke`` shrinks every
input for the benchmark's own tests.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it give the
machine, the inputs and every metric by name and unit, including
``failed_frac``.  A record of the run, with the spans of a traced run, is
written under ``perfbench/_out/``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "_out"

#: Passes over the operation list in an end-to-end run, at least.
MIN_PASSES = 5
#: Set-ups per end-to-end run; setup_s takes their median.
SETUP_REPEATS = 9
#: After one full pass, no operation starts after this long.
MAX_LOOP_S = 120.0
#: Largest difference allowed between an operation's traced duration and
#: the sum of the self times recorded inside it.
RECONCILE_TOL_S = 1e-6


class NoPackage(Exception):
    """The checkout holds no importable setmetrics source."""


def import_package():
    """Import numpy, setmetrics from ``src/`` and the workloads."""
    src = ROOT / "src"
    if not (src / "setmetrics" / "__init__.py").is_file():
        raise NoPackage(f"no setmetrics package under {src}")
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import setmetrics
    import setmetrics.cli  # noqa: F401
    if Path(setmetrics.__file__).resolve().parent != src / "setmetrics":
        raise NoPackage(f"setmetrics was imported from {setmetrics.__file__}")
    import workloads
    return setmetrics, workloads


def machine_info(seed: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "seed": seed}


def run_checked(workload, op, position, failures, run=None):
    """Run one op, return its duration; record a failure for an exception."""
    start = time.perf_counter()
    try:
        output = (run or workload.run)(op)
    except Exception:
        duration = time.perf_counter() - start
        failures.append((position, traceback.format_exc(limit=3)))
        return duration, None
    return time.perf_counter() - start, output


def check_output(workload, plan, op, output, position, failures):
    try:
        problems = workload.check(plan, op, output, position)
    except Exception:
        problems = [traceback.format_exc(limit=3)]
    if problems:
        failures.append((position, "; ".join(problems)))


def quantile_ms(latencies, q: int) -> float:
    return 1000.0 * statistics.quantiles(latencies, n=100, method="inclusive")[q - 1]


def measure_end_to_end(sm, workloads, workload, args, workdir):
    """Time passes over one list of distinct operations until ``--seconds``
    have gone by and at least MIN_PASSES passes are complete.

    Other tenants of the machine slow it by up to 2x, in stretches from
    under a second to minutes (see ``speed``).  So the reference kernel
    runs after every operation, each operation's time is scaled to the
    reference speed by the median kernel time around it, and an
    operation's latency is the median of its scaled runs.  Set-up times
    are scaled by the kernel times just before and after them.  The
    metrics are milliseconds and seconds at the reference speed: they move
    in full with the package's speed and not with the load from other
    tenants.

    Every output is checked outside op timing: in full the first time an
    operation succeeds, and on later passes by comparing it with that
    checked output, which the deterministic package must repeat exactly."""
    setup_times = [speed.scaled_seconds(
        lambda: workload.setup(args.seed, workdir, args.smoke))
        for _ in range(1 if args.smoke else SETUP_REPEATS)]
    plan = workload.setup(args.seed, workdir, args.smoke)
    import_s = fresh_import_seconds(1 if args.smoke else SETUP_REPEATS)
    workloads.check_deps()
    for op in plan.ops[:plan.warmup]:
        workload.run(op)

    ops = plan.ops
    runs = []           # (op index, seconds, kernel seconds after it)
    checked = [None] * len(ops)
    failures = []
    position = 0
    gc.collect()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if position >= MIN_PASSES * len(ops) and elapsed >= args.seconds \
                or position >= len(ops) and elapsed >= MAX_LOOP_S:
            break
        i = position % len(ops)
        failed_before = len(failures)
        duration, output = run_checked(workload, ops[i], position, failures)
        runs.append((i, duration, speed.kernel_seconds()))
        if len(failures) == failed_before:
            if checked[i] is None:
                check_output(workload, plan, ops[i], output, position, failures)
                if len(failures) == failed_before:
                    checked[i] = workload.fingerprint(output)
            elif workload.fingerprint(output) != checked[i]:
                failures.append((position, "output differs from the checked "
                                           "output of the same operation"))
        position += 1
    loop_s = time.perf_counter() - start
    passes = position / len(ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    slowdowns = speed.slowdowns([kernel for _, _, kernel in runs])
    scaled = [[] for _ in ops]
    for (i, duration, _), slowdown in zip(runs, slowdowns):
        scaled[i].append(duration / slowdown)
    latencies = [statistics.median(times) for times in scaled]
    n = len(latencies)
    p90 = quantile_ms(latencies, 90)
    metrics = {
        "setup_s": (statistics.median(import_s) + statistics.median(setup_times), "s"),
        "ops_per_s": (n / sum(latencies), "1/s"),
        "op_p50_ms": (quantile_ms(latencies, 50), "ms"),
        "op_p90_ms": (p90, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    quartiles = statistics.quantiles(slowdowns, n=4)
    sample = (f"{n} distinct ops, each the median of its runs in "
              f"{passes:.2f} passes over {loop_s:.1f} s, scaled to the "
              f"reference speed; machine slowdown quartiles "
              f"{quartiles[0]:.2f}/{quartiles[1]:.2f}/{quartiles[2]:.2f}")
    notes = {
        "setup_s": (f"median fresh import {[round(t, 3) for t in import_s]} s "
                    f"+ median set-up {[round(t, 3) for t in setup_times]} s, "
                    f"scaled to the reference speed"),
        "ops_per_s": sample,
        "op_p50_ms": sample,
        "op_p90_ms": f"{sample}; {sum(1000 * t > p90 for t in latencies)} beyond p90",
    }
    return plan, metrics, notes, position, failures, {"passes": passes}, []


def fresh_import_seconds(repeats: int) -> list:
    """Wall time of a new interpreter importing the package, as a user
    starting the CLI pays it, scaled to the reference speed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, "-c", "import setmetrics.cli"]
    return [speed.scaled_seconds(
        lambda: subprocess.run(command, env=env, check=True, timeout=60))
        for _ in range(repeats)]


def measure_traced(sm, workloads, workload, args, workdir):
    """Run each listed operation once untraced and once traced, on two
    plans set up from the same seed.  The two runs of an operation are
    adjacent and alternate in order, so the tracing overhead compares them
    under the same load from the rest of the machine."""
    from tracing import Tracer
    plan = workload.setup(args.seed, workdir / "untraced", args.smoke)
    tracer = Tracer()
    tracer.install(sm)
    try:
        traced_plan = workload.setup(args.seed, workdir / "traced", args.smoke)
    finally:
        tracer.uninstall()
    setup_build_s = tracer.busy["spaces.build"]
    tracer.clear()
    workloads.check_deps()
    for op in plan.ops[:plan.warmup]:
        workload.run(op)
    ops = [plan.ops[i % len(plan.ops)] for i in range(plan.trace_ops)]
    traced_ops = [traced_plan.ops[i % len(traced_plan.ops)]
                  for i in range(traced_plan.trace_ops)]
    failures, outputs = [], []
    untraced_s = 0.0
    gc.collect()
    for i, (op, traced_op) in enumerate(zip(ops, traced_ops)):
        for traced in (i % 2 == 1, i % 2 == 0):
            if not traced:
                duration, output = run_checked(workload, op, i, failures)
                untraced_s += duration
                outputs.append((plan, op, output, i))
                continue
            tracer.install(sm)
            try:
                _, output = run_checked(
                    workload, traced_op, len(ops) + i, failures,
                    run=lambda o: tracer.run_op(workload.run, o))
            finally:
                tracer.uninstall()
            outputs.append((traced_plan, traced_op, output, len(ops) + i))

    for p, op, output, i in outputs:
        if output is not None:
            check_output(workload, p, op, output, i, failures)
    if tracer.max_reconcile_error > RECONCILE_TOL_S:
        failures.append((-1, f"self times miss the traced op time by "
                             f"{tracer.max_reconcile_error:.3g} s"))

    from scipy.optimize import linear_sum_assignment
    scipy_s = 0.0
    for matrix in tracer.matrices:
        start = time.perf_counter()
        linear_sum_assignment(matrix)
        scipy_s += time.perf_counter() - start

    traced_s = sum(tracer.op_durations)
    metrics = layer_metrics(tracer, setup_build_s, traced_s, untraced_s, scipy_s)
    shares = {layer: s / traced_s for layer, s in
              sorted(tracer.self_s.items(), key=lambda kv: -kv[1])}
    by_label = span_shares(tracer, [op.label for op in traced_ops])
    notes = {"trace_overhead_frac": (f"traced {traced_s:.3f} s / untraced "
                                     f"{untraced_s:.3f} s over {len(ops)} ops"),
             "subset_distance.reduced_frac": "base: input elements of both sides",
             "assignment.useful_row_frac": "base: rows handed to the solver"}
    lines = ["# self-time share of traced op time: "
             + ", ".join(f"{k} {v:.1%}" for k, v in shares.items())]
    lines += [f"# {label}: {row['ops']} ops, mean {row['mean_ms']:.1f} ms; "
              + ", ".join(f"{k} {v:.1%}" for k, v in row["shares"].items())
              for label, row in by_label.items()]
    extra = {"self_time_share_of_traced_ops": shares,
             "span_share_by_op_kind": by_label,
             "max_reconcile_error_s": tracer.max_reconcile_error,
             "spans": tracer.spans}
    return plan, metrics, notes, 2 * len(ops), failures, extra, lines


def span_shares(tracer, labels) -> dict:
    """Per kind of operation: mean traced duration, and the share of it
    spent inside each kept span key (outermost spans of a key only)."""
    spans = [s for s in tracer.spans if s is not None]
    by_id = {s[0]: s for s in spans}
    inside = defaultdict(float)
    for span_id, parent, op, key, start, end in spans:
        if key == "op":
            continue
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[3] != key:
            ancestor = by_id.get(ancestor[1])
        if ancestor is None:
            inside[labels[op], key] += end - start
    rows = {}
    for label, duration in zip(labels, tracer.op_durations):
        row = rows.setdefault(label, {"ops": 0, "total_s": 0.0})
        row["ops"] += 1
        row["total_s"] += duration
    for label, row in rows.items():
        row["mean_ms"] = 1000.0 * row["total_s"] / row["ops"]
        row["shares"] = {key: s / row["total_s"] for (lab, key), s in
                         sorted(inside.items(), key=lambda kv: -kv[1])
                         if lab == label}
    return rows


def layer_metrics(tr, setup_build_s, traced_s, untraced_s, scipy_s) -> dict:
    calls, busy, extra = tr.calls, tr.busy, tr.extra

    def ratio(num, den):
        return extra[num] / extra[den] if extra[den] else 0.0

    return {
        "workspace.load_calls": (calls["workspace.load"], "count"),
        "workspace.load_s": (busy["workspace.load"], "s"),
        "workspace.bytes": (int(extra["workspace.bytes"]), "bytes"),
        "workspace.certify_calls": (calls["workspace.certify"], "count"),
        "workspace.certify_s": (busy["workspace.certify"], "s"),
        "subset_distance.calls": (calls["subset_distance"], "count"),
        "subset_distance.s": (busy["subset_distance"], "s"),
        "subset_distance.self_s": (tr.self_s["subset_distance"], "s"),
        "subset_distance.pointset_elems": (int(extra["pointset.elems"]), "count"),
        "subset_distance.pointset_s": (busy["pointset"], "s"),
        "subset_distance.reduced_frac": (
            ratio("subset.reduced_elems", "subset.input_elems"), "ratio"),
        "spaces.distance_calls": (calls["spaces.distance"], "count"),
        "spaces.distance_s": (busy["spaces.distance"], "s"),
        "spaces.validate_calls": (calls["spaces.validate"], "count"),
        "spaces.build_s": (setup_build_s + busy["spaces.build"], "s"),
        "penalties.value_calls": (calls["penalties.value"], "count"),
        "penalties.value_s": (busy["penalties.value"], "s"),
        "penalties.validate_pairs": (int(extra["penalties.validate_pairs"]), "count"),
        "penalties.validate_s": (busy["penalties.validate"], "s"),
        "assignment.solve_calls": (calls["assignment.solve"], "count"),
        "assignment.solve_s": (busy["assignment.solve"], "s"),
        "assignment.cells": (int(extra["assignment.cells"]), "count"),
        "assignment.useful_row_frac": (
            ratio("assignment.useful_rows", "assignment.rows"), "ratio"),
        "assignment.scipy_ref_s": (scipy_s, "s"),
        "comparisons.calls": (calls["comparisons"], "count"),
        "comparisons.s": (busy["comparisons"], "s"),
        "cli.commands": (calls["cli"], "count"),
        "cli.s": (busy["cli"], "s"),
        "cli.self_s": (tr.self_s["cli"], "s"),
        "cli.nonzero_exits": (int(extra["cli.nonzero_exits"]), "count"),
        "trace.ops": (len(tr.op_durations), "count"),
        "trace.op_s": (traced_s, "s"),
        "trace_overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("balanced", "lopsided", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement time of an end-to-end run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        sm, workloads = import_package()
    except (NoPackage, ImportError) as exc:
        print(f"error: cannot import the package: {exc}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    measure = measure_traced if args.trace else measure_end_to_end
    try:
        plan, metrics, notes, attempted, failures, extra, lines = measure(
            sm, workloads, workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = machine_info(args.seed)
    failed_ops = len({position for position, _ in failures})
    print(f"# setmetrics benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}"
          + (" smoke" if args.smoke else ""))
    print("# machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"# inputs: {plan.sizes}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    print(f"failed_frac = {failed_ops / attempted:.6g} ratio  "
          f"({failed_ops} of {attempted} ops failed)")
    for line in lines:
        print(line)
    for position, message in failures[:5]:
        print(f"# failure at op {position}: {message}", file=sys.stderr)

    record = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "machine": info,
              "inputs": plan.sizes, "attempted": attempted, "failed": failed_ops,
              "failures": [[p, m] for p, m in failures[:20]],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              **extra}
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record))

    result = {"correct": not failures, "attempted": attempted,
              "failed": failed_ops, "metrics": record["metrics"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
