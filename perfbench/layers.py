"""Per-layer metrics of a traced run, one layer per brainpbpk module.

A traced run runs one workload only, so every figure belongs to that
workload. Times are means over the calls made by its traced operations (its
reference operation and its traced turns; the checks that follow an
operation are left out), each span scaled by the host speed measured around
its operation (see run.py). Counts and the ratios built from them are taken
over the reference operation only (run at the gate's pinned seed, identical
in every run of a commit), so they repeat exactly between traced runs and
can be compared across commits as counts.

Every traced result line carries every metric. For a layer the workload
never calls, its calls, counts and times read 0, and so does a ratio whose
denominator is 0.
"""
from __future__ import annotations

from collections import Counter

import numpy as np

from spans import Tracer

TRACED = (
    "params.substitute",
    "model.assemble_matrix",
    "solvers.expm",  # scipy.linalg.expm as bound inside solvers
    "solvers.expm_propagate",
    "solvers.synthesize_dataset",
    "dataio.linear_interp",
    "dataio.write_series",
    "dataio.read_series",
    "metrics.summarize",
    "defit.sse_objective",
    "defit.differential_evolution",
    "network.forward_dual_tape",
    "network.forward",
    "autodiff.grad",
    "training.AdamState.step",
    "training.train",
    "training.build_problem",
    "training.lbfgs_refine",
)

# the counts that must repeat exactly between traced runs of one commit
EXACT = ("solvers.expm_per_solve", "autodiff.tape_nodes", "autodiff.const_nodes",
         "defit.sse_objective.calls", "training.lbfgs.evals_per_iter")

# (metric name, unit) in the order they are reported
METRICS = (
    ("params.substitute.calls", "count"), ("params.substitute.us", "us"),
    ("model.assemble_matrix.calls", "count"), ("model.assemble_matrix.us", "us"),
    ("solvers.expm.calls", "count"), ("solvers.expm.us", "us"),
    ("solvers.expm_per_solve", "count"),
    ("solvers.expm_propagate.calls", "count"), ("solvers.expm_propagate.ms", "ms"),
    ("solvers.expm_propagate.self_ms", "ms"), ("solvers.synthesize_dataset.ms", "ms"),
    ("dataio.linear_interp.calls", "count"), ("dataio.linear_interp.us", "us"),
    ("dataio.write_series.ms", "ms"), ("dataio.read_series.ms", "ms"),
    ("metrics.summarize.ms", "ms"),
    ("defit.sse_objective.calls", "count"), ("defit.sse_objective.ms", "ms"),
    ("defit.inf_fraction", "ratio"), ("defit.generations", "count"),
    ("defit.differential_evolution.self_ms_per_gen", "ms"),
    ("network.forward_dual_tape.calls", "count"),
    ("network.forward_dual_tape.ms", "ms"), ("network.forward.ms", "ms"),
    ("autodiff.grad.calls", "count"), ("autodiff.grad.ms", "ms"),
    ("autodiff.tape_nodes", "count"), ("autodiff.const_nodes", "count"),
    ("training.AdamState.step.ms", "ms"), ("training.train.self_ms", "ms"),
    ("training.build_problem.ms", "ms"), ("training.lbfgs_refine.iterations", "count"),
    ("training.lbfgs.ms_per_iter", "ms"), ("training.lbfgs.evals_per_iter", "count"),
    ("training.lbfgs.line_search_failed", "count"),
    ("trace.overhead_pct", "%"),
)


def _graph_size(loss, leaves):
    """(nodes, constant nodes) reachable from ``loss``; a constant is a
    parentless node that is not one of the differentiated leaves."""
    leaf_ids = {id(v) for v in leaves}
    seen, stack, consts = set(), [loss], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if not node.parents and id(node) not in leaf_ids:
            consts += 1
        stack.extend(node.parents)
    return len(seen), consts


class LayerTrace:
    """A Tracer over the TRACED functions plus the counters the per-layer
    metrics need that a span cannot give (return values, graph sizes)."""

    def __init__(self, package):
        self.package = package
        self.installed = False
        self.tracer = Tracer()
        self.reference_ops: set[int] = set()
        self.measured_ops: set[int] = set()   # ops whose spans give the times
        self.speed: dict[int, float] = {}     # op index -> host speed factor
        self._unscaled: list[int] = []
        self.counts: Counter = Counter()      # (op index, key) -> count
        self._walked: set[int] = set()        # train spans whose graph was walked
        t = self.tracer
        t.before["autodiff.grad"] = self._before_grad
        t.after["defit.sse_objective"] = self._after_sse
        t.after["defit.differential_evolution"] = self._after_de
        t.after["training.lbfgs_refine"] = self._after_lbfgs

    def enable(self, on: bool) -> None:
        """Wrap (or restore) the traced functions."""
        if on and not self.installed:
            self.tracer.install(self.package, TRACED)
        elif not on and self.installed:
            self.tracer.uninstall()
        self.installed = on

    def begin_op(self, op_id: str, reference: bool, measured: bool = True) -> None:
        self.tracer.begin_op(op_id)
        self._unscaled.append(self.tracer.op)
        if reference:
            self.reference_ops.add(self.tracer.op)
        if measured:
            self.measured_ops.add(self.tracer.op)

    def end_op(self, speed: float) -> None:
        """Host speed factor for the spans recorded since the last call."""
        self.speed.update((op, speed) for op in self._unscaled)
        self._unscaled.clear()

    def _count(self, key: str, n=1) -> None:
        self.counts[(self.tracer.op, key)] += n

    def _before_grad(self, args, kwargs):
        t = self.tracer
        if t.innermost("training.lbfgs_refine") >= 0:
            self._count("lbfgs_grads")
        train_span = t.innermost("training.train")
        if t.op in self.reference_ops and train_span not in self._walked:
            self._walked.add(train_span)
            loss = args[0]
            leaves = args[1] if len(args) > 1 else kwargs["leaves"]
            nodes, consts = _graph_size(loss, leaves)
            self._count("graphs")
            self._count("tape_nodes", nodes)
            self._count("const_nodes", consts)

    def _after_sse(self, value):
        if not np.isfinite(value):
            self._count("sse_inf")

    def _after_de(self, result):
        self._count("generations", result[2])

    def _after_lbfgs(self, result):
        self._count("lbfgs_iters", result.iterations)
        self._count("lbfgs_failed", int(result.line_search_failed))

    def metrics(self, overhead_pct: float | None) -> dict[str, float]:
        name, op, dur, self_t = self.tracer.arrays()
        speed = np.array([self.speed[o] for o in range(len(self.tracer.op_ids))])[op]
        dur, self_t = dur * speed, self_t * speed
        ref = np.isin(op, sorted(self.reference_ops))
        measured = np.isin(op, sorted(self.measured_ops))
        idx = {n: i for i, n in enumerate(self.tracer.names)}

        def sel(n):
            return (name == idx[n]) & measured

        def calls(n):
            return int(np.count_nonzero((name == idx[n]) & ref))

        def mean(n, arr=dur, scale=1e3):
            picked = arr[sel(n)]
            return float(np.mean(picked)) * scale if picked.size else 0.0

        def total(key, reference_only=True):
            ops = self.reference_ops if reference_only else self.measured_ops
            return sum(v for (o, k), v in self.counts.items() if k == key and o in ops)

        def ratio(num, den):
            return num / den if den else 0.0

        m = {}
        for n in ("params.substitute", "model.assemble_matrix", "solvers.expm",
                  "dataio.linear_interp"):
            m[f"{n}.calls"] = calls(n)
            m[f"{n}.us"] = mean(n, scale=1e6)
        for n in ("solvers.expm_propagate", "defit.sse_objective",
                  "network.forward_dual_tape", "autodiff.grad"):
            m[f"{n}.calls"] = calls(n)
            m[f"{n}.ms"] = mean(n)
        for n in ("solvers.synthesize_dataset", "dataio.write_series",
                  "dataio.read_series", "metrics.summarize",
                  "network.forward", "training.AdamState.step",
                  "training.build_problem"):
            m[f"{n}.ms"] = mean(n)
        m["solvers.expm_per_solve"] = ratio(calls("solvers.expm"),
                                            calls("solvers.expm_propagate"))
        m["solvers.expm_propagate.self_ms"] = mean("solvers.expm_propagate", self_t)
        m["training.train.self_ms"] = mean("training.train", self_t)
        m["defit.inf_fraction"] = ratio(total("sse_inf"), calls("defit.sse_objective"))
        m["defit.generations"] = total("generations")
        m["defit.differential_evolution.self_ms_per_gen"] = ratio(
            float(np.sum(self_t[sel("defit.differential_evolution")])) * 1e3,
            total("generations", reference_only=False))
        m["autodiff.tape_nodes"] = ratio(total("tape_nodes"), total("graphs"))
        m["autodiff.const_nodes"] = ratio(total("const_nodes"), total("graphs"))
        m["training.lbfgs_refine.iterations"] = total("lbfgs_iters")
        m["training.lbfgs.ms_per_iter"] = ratio(
            float(np.sum(dur[sel("training.lbfgs_refine")])) * 1e3,
            total("lbfgs_iters", reference_only=False))
        m["training.lbfgs.evals_per_iter"] = ratio(total("lbfgs_grads"),
                                                   total("lbfgs_iters"))
        m["training.lbfgs.line_search_failed"] = total("lbfgs_failed")
        m["trace.overhead_pct"] = overhead_pct
        return m
