"""Per-layer tracing of setmetrics from outside the package.

The tracer replaces the public functions and methods the benchmark's
operations reach with timing wrappers, and puts the originals back on
``uninstall``.  The package itself carries no tracing code.

Each wrapped call opens a frame on one stack.  When it returns, its
duration is added to its parent's child time, and duration minus child
time is added to its layer's self time, so the self times of all layers
inside one operation sum to the operation's duration.  Calls at coarse
boundaries (commands, loads, solves, subset distances) are also kept as
spans in memory.  The hot leaf calls (``Space.distance``,
``validate_element``, ``PenaltyFunction.value``) are too many to keep one
record each, so they are only counted and timed.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Spans, per-key call counts and busy times, and per-layer self times."""

    def __init__(self):
        self.calls = defaultdict(int)      # key -> calls
        self.busy = defaultdict(float)     # key -> inclusive seconds
        self.self_s = defaultdict(float)   # layer -> seconds not spent in children
        self.extra = defaultdict(float)    # named work counters
        self.spans = []                    # (id, parent, op, key, start, end)
        self.matrices = []                 # every cost matrix handed to the solver
        self.op_durations = []
        self.op_index = -1
        self.max_reconcile_error = 0.0
        self._stack = [[0.0, -1]]          # frames: [child seconds, span id]
        self._patched = []
        self._t0 = time.perf_counter()

    def clear(self):
        """Forget everything recorded so far.  The containers are emptied in
        place, because the installed wrappers hold on to them."""
        for container in (self.calls, self.busy, self.self_s, self.extra,
                          self.spans, self.matrices, self.op_durations):
            container.clear()
        self.op_index = -1
        self.max_reconcile_error = 0.0

    # -- wrappers -------------------------------------------------------

    def _wrap(self, fn, layer, key, keep, after=None):
        stack, calls, busy, self_s = self._stack, self.calls, self.busy, self.self_s
        spans, clock = self.spans, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            span_id = len(spans) if keep else parent[1]
            if keep:
                spans.append(None)   # reserve the id; filled in on exit
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, *args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                self_s[layer] += duration - frame[0]
                busy[key] += duration
                calls[key] += 1
                if keep:
                    spans[span_id] = (span_id, parent[1], tracer.op_index, key,
                                      start - tracer._t0, end - tracer._t0)

        return traced

    def _patch(self, owner, name, layer, key, keep=True, after=None):
        if name not in vars(owner):
            raise AttributeError(f"{owner!r} does not define {name} itself")
        original = vars(owner)[name]
        self._patched.append((owner, name, original))
        setattr(owner, name, self._wrap(original, layer, key, keep, after))

    def install(self, sm):
        """Wrap the functions the workloads reach, by the names they are
        looked up under: the package namespace for library operations and
        each importing module's namespace for the calls made inside it."""
        cli, comparisons, workspace, subset = (
            _module(sm, name) for name in
            ("cli", "comparisons", "workspace", "subset_distance"))
        extra = self.extra

        def after_load(ws, path, *_, **__):
            extra["workspace.bytes"] += os.path.getsize(path)

        def after_pointset(_none, ps, *_, **__):
            extra["pointset.elems"] += len(ps)

        def after_subset(result, space, penalty, a, b):
            extra["subset.input_elems"] += len(a) + len(b)
            extra["subset.reduced_elems"] += (len(result.reduced_a)
                                              + len(result.reduced_b))
            if result.reduced_a or result.reduced_b:
                extra["assignment.useful_rows"] += len(result.witness.pairs)

        def after_solve(_result, cost):
            matrix = np.asarray(cost, dtype=float)
            extra["assignment.cells"] += matrix.size
            extra["assignment.rows"] += matrix.shape[0]
            self.matrices.append(matrix)

        def after_comparison(_value, kind, space, a, b):
            # The link distance pads the smaller side of its matrix.
            if sm.ComparisonKind(kind) is sm.ComparisonKind.LINK:
                extra["assignment.useful_rows"] += min(len(a), len(b))

        def after_validate_penalty(report, *_, **__):
            extra["penalties.validate_pairs"] += report.sample_size ** 2

        def after_main(code, *_, **__):
            extra["cli.nonzero_exits"] += code != 0

        self._patch(cli, "main", "cli", "cli", after=after_main)
        for name in ("load_workspace", "load_sequence_sets"):
            self._patch(cli, name, "workspace", "workspace.load", after=after_load)
        self._patch(cli, "certify_penalty", "workspace", "workspace.certify")
        self._patch(cli, "comparison_distance", "comparisons", "comparisons",
                    after=after_comparison)
        for owner in (sm, cli):
            self._patch(owner, "subset_distance", "subset_distance",
                        "subset_distance", after=after_subset)
        for owner in (subset, comparisons):
            self._patch(owner, "solve_assignment", "assignment",
                        "assignment.solve", after=after_solve)
        for owner in (workspace, cli):
            self._patch(owner, "validate_penalty", "penalties",
                        "penalties.validate", after=after_validate_penalty)
        self._patch(sm.PointSet, "__init__", "pointset", "pointset",
                    after=after_pointset)
        self._patch(sm.Space, "distance", "spaces", "spaces.distance", keep=False)
        for cls in (sm.HammingSpace, sm.EuclideanBoxSpace, sm.GraphSpace):
            self._patch(cls, "__init__", "spaces", "spaces.build")
            self._patch(cls, "validate_element", "spaces", "spaces.validate",
                        keep=False)
        for cls in (sm.ConstantPenalty, sm.DiameterPenalty,
                    sm.EccentricityPenalty, sm.TablePenalty):
            self._patch(cls, "value", "penalties", "penalties.value", keep=False)

    def uninstall(self):
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # -- operations -----------------------------------------------------

    def run_op(self, fn, *args):
        """Run one operation as a root span and check that the self times
        recorded inside it add up to its duration."""
        self.op_index += 1
        before = sum(self.self_s.values())
        frame = [0.0, len(self.spans)]
        self.spans.append(None)
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.self_s["bench"] += duration - frame[0]
            self.op_durations.append(duration)
            self.spans[frame[1]] = (frame[1], -1, self.op_index, "op",
                                    start - self._t0, end - self._t0)
            recorded = sum(self.self_s.values()) - before
            self.max_reconcile_error = max(self.max_reconcile_error,
                                           abs(recorded - duration))


def _module(sm, name):
    return importlib.import_module(f"{sm.__name__}.{name}")
