"""brainpbpk benchmark: four workloads, end-to-end metrics, a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload de_fit --seed 3 --seconds 27 --trace 0

A run is one process, a closed loop with one client. It starts with a
reference round -- one fixed-budget operation of each workload at the
acceptance gate's pinned seeds -- and then cycles through the workloads,
the selected one first, each operation with a seed drawn from ``--seed``,
until ``--seconds`` have passed since the reference round began. Every
untraced run measures every workload because its result line carries
every end-to-end metric. Quality figures come from the reference round, so
they are deterministic at a commit and any change in them is a change in
the answer.

Timings, set-up time included, are host-speed normalised. The machines
this runs on are shared, and other tenants slow every operation by up to 60%
for seconds to tens of seconds at a time, so even the fastest of a run's
samples moves by 20% from run to run. While an operation runs, a timer
signal therefore runs a fixed sub-millisecond probe every TICK_PERIOD
seconds (about 1% of the time), and a timing is reported as the median over
the run of (operation time / mean probe time during it) x PROBE_S: the time
the operation takes on a host where the probe takes PROBE_S. Raw wall times
and probe times are kept in the run record. Neither ``probe`` nor PROBE_S
nor TICK_PERIOD may change without measuring the baseline again.

``--trace 1`` runs only the selected workload: its reference operation
traced, then alternately untraced and traced (for the tracing overhead). It
prints the per-layer metrics of that workload (see layers.py), normalised
the same way. Its exact counts are stored per source hash and workload and
must repeat in every later traced run of the same code.

An operation whose check fails, or that raises, counts as failed; the result
line then reads ``"correct": false``, and a metric that no operation could
measure is reported as null.

The last line of standard output is the JSON result; the line before it is
the environment. Spans and a full run record go to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One thread: with two, OpenBLAS spin-waits on the second core through the
# many tiny products of the DE objective (CPU time twice the wall time, wall
# time 30% slower) and the figures get noisier.
BLAS_THREADS = 1
SETUP_REPEATS = 3
# the probe's time on a 2-core Xeon host at 2.1 GHz (it sets the scale of
# every timing), how often it runs while an operation is timed, and how many
# times it runs back to back before and after
PROBE_S = 0.0003
TICK_PERIOD = 0.025
BRACKET_PROBES = 10

# set-up as a user pays it: import, the 200-point reference set, the spec
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import brainpbpk
from brainpbpk.solvers import synthesize_dataset
from brainpbpk.params import SystemParams, DrugParams
from brainpbpk.training import default_estimation_spec
synthesize_dataset(SystemParams(), DrugParams(), n_points=200, horizon=48.0)
default_estimation_spec()
print(time.perf_counter() - t0)
"""

END_TO_END = (
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("simulate.solve_ms", "ms"), ("simulate.io_pk_ms", "ms"),
    ("de.gen_ms", "ms"), ("de.param_rel_err", "ratio"),
    ("pinn.train_s", "s"), ("pinn.data_rel_rmse", "ratio"),
    ("pinn.param_rel_err", "ratio"),
    ("sweep.adam_step_ms", "ms"), ("sweep.data_rel_rmse", "ratio"),
)


@dataclass
class Op:
    workload: str
    seed: int
    reference: bool
    traced: bool
    speed: float = 1.0       # PROBE_S over the mean probe time during the op
    probes: int = 0
    outcome: object = None   # workloads.Outcome, None when the operation raised

    @property
    def failed(self) -> bool:
        return self.outcome is None or bool(self.outcome.problems)


class SpeedMeter:
    """Host speed while an operation runs: ``probe`` BRACKET_PROBES times at
    the start and at the end and, from a SIGALRM handler, every TICK_PERIOD
    seconds in between. The handler runs between bytecodes of the main
    thread, so it never interrupts a numpy call, only delays itself until
    the call returns."""

    def __init__(self, np):
        self.np = np
        self.a = np.linspace(0.0, 1.0, 200)
        self.phi = np.full((4, 4), 0.2)
        self.times: list[float] = []
        signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())

    def probe(self) -> None:
        """A fixed mix of interpreter work and numpy calls on tiny and small
        arrays, the kinds of work brainpbpk's hot paths do."""
        np = self.np
        t0 = time.perf_counter()
        s = 0
        for i in range(1500):
            s += i * i
        y = np.zeros(4)
        for _ in range(20):
            y = self.phi @ y + 1.0
        a = self.a
        for _ in range(30):
            a = np.sqrt(a * a + 1.0)
        self.times.append(time.perf_counter() - t0)

    def start(self) -> None:
        self.times = []
        for _ in range(BRACKET_PROBES):
            self.probe()
        signal.setitimer(signal.ITIMER_REAL, TICK_PERIOD, TICK_PERIOD)

    def stop(self) -> tuple[float, int]:
        """(speed factor PROBE_S / mean probe time, number of probes)."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        for _ in range(BRACKET_PROBES):
            self.probe()
        return PROBE_S / statistics.fmean(self.times), len(self.times)


def pin_blas() -> int:
    """Pin BLAS threads before numpy is imported; returns the core count."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0))


def blas_threads() -> dict[str, int]:
    """Thread count reported by each OpenBLAS loaded in this process."""
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def setup_seconds() -> float:
    """Set-up time of one fresh interpreter, waited for."""
    done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "brainpbpk").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_exact(workload: str, counts: dict) -> list[str]:
    """Compare the exact counts with those of earlier traced runs of the same
    code and workload; the first traced run records them."""
    path = OUT / f"exact-{source_hash()}-{workload}.json"
    if not path.exists():
        path.write_text(json.dumps(counts, indent=1, sort_keys=True))
        return []
    seen = json.loads(path.read_text())
    return [f"exact count {k} is {counts[k]!r}, earlier traced run saw {seen.get(k)!r}"
            for k in counts if seen.get(k) != counts[k]]


def schedule(selected: str, reference_seeds: dict, repeats: dict, rng, trace: bool):
    """Yield (workload, seed, reference, traced) forever: the reference
    round, then cycles over the workloads (selected first), each run
    ``repeats[workload]`` times per cycle; or in a traced run
    the selected workload alone, its reference operation traced, then
    alternately untraced and traced."""
    if trace:
        yield selected, reference_seeds[selected], True, True
        for traced in itertools.cycle((False, True)):
            yield selected, int(rng.integers(2**31)), False, traced
    for workload, seed in reference_seeds.items():
        yield workload, seed, True, False
    order = [selected] + [w for w in reference_seeds if w != selected]
    cycle = [w for turn in range(max(repeats.values()))
             for w in order if repeats[w] > turn]
    for workload in itertools.cycle(cycle):
        yield workload, int(rng.integers(2**31)), False, False


def normalised(ops: list[Op]) -> dict[str, float]:
    """Per timing: median over the run of sample x host speed."""
    samples: dict[str, list[float]] = {}
    for op in ops:
        if op.outcome is not None:
            for k, v in op.outcome.samples.items():
                samples.setdefault(k, []).append(v * op.speed)
    return {k: statistics.median(v) for k, v in samples.items()}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("simulate_pk", "de_fit", "pinn_train", "pinn_sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "brainpbpk" / "__init__.py").is_file():
        print(f"error: no brainpbpk sources under {SRC}", file=sys.stderr)
        return 2
    nproc = pin_blas()

    import numpy as np
    import scipy

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import brainpbpk
    import brainpbpk.metrics  # noqa: F401  (the package does not import it)
    if Path(brainpbpk.__file__).resolve().parent != SRC / "brainpbpk":
        print(f"error: imported brainpbpk from {brainpbpk.__file__}", file=sys.stderr)
        return 2
    from layers import EXACT, METRICS, LayerTrace
    from workloads import CYCLE_REPEATS, REFERENCE_SEED, RUN_CHECKS, WORKLOADS, Context

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        ctx = Context(brainpbpk, workdir)
        env = {"python": sys.version.split()[0], "numpy": np.__version__,
               "scipy": scipy.__version__, "nproc": nproc,
               "blas_threads": blas_threads(),
               "blas_env": {v: os.environ[v] for v in BLAS_VARS}}
        run_problems = {}
        for workload, run_check in RUN_CHECKS.items():
            if args.trace and workload != args.workload:
                continue
            try:
                run_problems[workload] = run_check(ctx)
            except Exception:
                run_problems[workload] = [f"raised:\n{traceback.format_exc()}"]
        trace = LayerTrace(brainpbpk) if args.trace else None

        ops: list[Op] = []
        setup_times: list[float] = []   # raw seconds
        meter = SpeedMeter(np)
        start = time.perf_counter()
        for workload, seed, reference, traced in schedule(
                args.workload, REFERENCE_SEED, CYCLE_REPEATS,
                np.random.default_rng(args.seed),
                bool(args.trace)):
            # a traced run needs an untraced and a traced turn after its
            # reference operation
            first_turns = 3 if args.trace else len(REFERENCE_SEED)
            if (not reference and len(ops) >= first_turns
                    and time.perf_counter() - start >= args.seconds):
                break
            op = Op(workload, seed, reference, traced)
            op_id = f"{workload}/{seed}/{len(ops)}"
            check = lambda: None  # noqa: E731
            if trace is not None:
                trace.enable(traced)
                trace.begin_op(op_id, reference)
                check = lambda: trace.begin_op(op_id + "/check", False,  # noqa: E731
                                               measured=False)
            meter.start()
            try:
                op.outcome = WORKLOADS[workload](ctx, seed, check)
            except Exception:
                print(f"operation {op_id} raised:\n{traceback.format_exc()}",
                      file=sys.stderr)
            op.speed, op.probes = meter.stop()
            if trace is not None:
                trace.enable(False)
                trace.end_op(op.speed)
            if reference and op.outcome is not None:
                op.outcome.problems += run_problems.get(workload, [])
            ops.append(op)
            # set-up probes are spread over the run
            if not args.trace and len(ops) % 3 == 0 and len(setup_times) < SETUP_REPEATS:
                setup_times.append(setup_seconds())
        while not args.trace and len(setup_times) < SETUP_REPEATS:
            setup_times.append(setup_seconds())

        failed = sum(op.failed for op in ops)
        for op in ops:
            for msg in (op.outcome.problems if op.outcome else []):
                print(f"check failed ({op.workload}, seed {op.seed}): {msg}",
                      file=sys.stderr)
        if trace is not None:
            walls = {flag: [op.outcome.wall * op.speed for op in ops
                            if not op.reference and not op.failed and op.traced == flag]
                     for flag in (True, False)}
            overhead = (statistics.median(walls[True]) / statistics.median(walls[False])
                        - 1.0) * 100.0 if all(walls.values()) else None
            values = trace.metrics(overhead)
            mismatches = check_exact(args.workload, {k: values[k] for k in EXACT})
            for msg in mismatches:
                print(f"check failed: {msg}", file=sys.stderr)
            failed += bool(mismatches)
            trace.tracer.write(OUT / f"spans-{args.workload}-{args.seed}.npz")
            wanted = METRICS
        else:
            values = normalised(ops)
            for op in ops:
                if op.reference and op.outcome is not None:
                    values.update(op.outcome.quality)
            # set-up runs in child processes, where no probe can tick, so it
            # is scaled by the run's median host speed
            values["setup_s"] = (statistics.median(setup_times)
                                 * statistics.median(op.speed for op in ops))
            values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                     / 1024.0)
            wanted = END_TO_END
        missing = [n for n, _ in wanted if values.get(n) is None]
        if missing:
            print(f"error: no successful operation measured {missing}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": failed == 0 and not missing, "attempted": len(ops),
              "failed": failed,
              "metrics": {n: {"value": values.get(n), "unit": u} for n, u in wanted}}
    record = {"env": env, "args": vars(args), "result": result,
              "setup_s": setup_times,
              "operations": [{"workload": op.workload, "seed": op.seed,
                              "reference": op.reference, "traced": op.traced,
                              "speed": op.speed, "probes": op.probes,
                              "wall_s": op.outcome.wall if op.outcome else None,
                              "samples": op.outcome.samples if op.outcome else None,
                              "problems": op.outcome.problems if op.outcome else ["raised"]}
                             for op in ops]}
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
