"""The four workloads: one fixed-budget operation each, with its checks.

An operation returns an ``Outcome``: its timed wall, the end-to-end
samples it yields, its quality figures and the problems its correctness
check found. Every brainpbpk function is looked up through its module at
call time, so a traced run sees the wrapped version.

Budgets are fixed here and must stay fixed across commits: the benchmark
compares the same amount of work per operation. They are small so that
every workload yields several samples in every run, but they keep the mix
of work of the CLI defaults: 100 Adam iterations per L-BFGS iteration, as
in ``train --iters 50000 --lbfgs-iters 500``, and DE generations timed
apart from the initial population, which 500 generations make negligible.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# dense noisy forward simulate: one long recurrence, ~2 expm calls in total
SIM_POINTS = 20_000
SIM_NOISE_SD = 1e-4
HORIZON = 48.0
# write, read-back and summaries repeated per operation: their time varies
# more from call to call than the solve's, so each sample averages two
IO_ROUNDS = 2
# DE on the 200-point reference set: population 60, budget never cut short
DE_POPULATION = 60
DE_GENERATIONS = 3
# pinned criterion-4 network (6x50 tanh) on a short Adam + L-BFGS budget,
# 100 Adam iterations per L-BFGS iteration like the CLI defaults
PINN_ADAM = 200
PINN_LBFGS = 2
# criterion-5 sweep cells (1x50, tanh and relu), Adam only
SWEEP_ITERS = 40
SWEEP_ACTIVATIONS = ("tanh", "relu")
LOG_STRIDE = 5

# the acceptance gate's pinned seeds, used by the reference operations
REFERENCE_SEED = {"simulate_pk": 0, "de_fit": 1, "pinn_train": 0, "pinn_sweep": 0}
# operations per cycle of an untraced run, so that every timing gets enough
# samples for a steady median: the short operations run more often, and
# de_fit twice because its cost varies with the seed
CYCLE_REPEATS = {"simulate_pk": 2, "de_fit": 2, "pinn_train": 1, "pinn_sweep": 3}

COMPARTMENTS = ("Cbb", "Cbm", "Cccsf", "Cscsf")


@dataclass
class Outcome:
    wall: float = 0.0
    samples: dict[str, float] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


class Context:
    """Set-up shared by every operation: the 200-point reference dataset
    and the default estimation spec."""

    def __init__(self, bp, workdir: Path):
        self.bp = bp
        self.workdir = workdir
        self.sys = bp.params.SystemParams()
        self.drug = bp.params.DrugParams()
        self.ref = bp.solvers.synthesize_dataset(self.sys, self.drug,
                                                 n_points=200, horizon=HORIZON)
        self.spec = bp.training.default_estimation_spec()
        self.reference = {n: bp.params.reference_value(n) for n in self.spec.names}

    def param_rel_err(self, values: dict) -> float:
        return max(abs(values[n] - r) / r for n, r in self.reference.items())

    def data_rel_rmse(self, net) -> float:
        """Worst compartment's RMSE of the network prediction at the data
        times, relative to that compartment's peak."""
        obs = self.ref.concentrations()
        pred = self.bp.network.forward(net, self.ref.times / self.ref.times[-1])
        rmse = np.sqrt(np.mean((pred - obs) ** 2, axis=1))
        return float(np.max(rmse / np.max(obs, axis=1)))


def oracle_check(ctx: Context) -> list[str]:
    """Exact solve against DOPRI5(4) on the reference grid, at the gate's
    tolerances; run once per run and never timed."""
    bp = ctx.bp
    cfg = bp.solvers.SolveConfig(method=bp.solvers.Method.DOPRI45, rtol=1e-10,
                                 atol=1e-14, grid=ctx.ref.times)
    dopri = bp.solvers.solve(ctx.sys, ctx.drug, ctx.ref.plasma_profile(),
                             bp.params.ModelVariant.PAPER_LITERAL,
                             bp.solvers.InitialState(), cfg)
    exact = ctx.ref.concentrations()
    err = float(np.max(np.abs(dopri.concentrations() - exact)
                       / np.max(exact, axis=1, keepdims=True)))
    return [] if err < 1e-8 else [f"exact vs DOPRI45 rel err {err:.2e} (>=1e-8)"]


def gradient_check(ctx: Context, net_cfg) -> list[str]:
    """The PINN loss gradient against central differences, at the network's
    initial point, on the largest-gradient weights, the first weight and
    every raw free parameter; run once per run and never timed.

    The loss and gradient are the ones ``train`` hands to ``lbfgs_refine``,
    captured by a one-iteration L-BFGS run."""
    bp = ctx.bp
    refine, captured = bp.training.lbfgs_refine, []

    def capture(loss_and_grad, x0, *args, **kwargs):
        captured.append((loss_and_grad, np.array(x0)))
        return refine(loss_and_grad, x0, *args, **kwargs)

    bp.training.lbfgs_refine = capture
    try:
        bp.training.train(ctx.ref, ctx.spec, net_cfg,
                          bp.training.TrainConfig(iterations=0, lbfgs_iters=1))
    finally:
        bp.training.lbfgs_refine = refine
    loss_and_grad, x0 = captured[0]
    _, g = loss_and_grad(x0)
    n_raw = len(ctx.spec.free)
    coords = sorted({0, *np.argsort(-np.abs(g[:-n_raw]))[:3].tolist(),
                     *range(x0.size - n_raw, x0.size)})
    scale = float(np.max(np.abs(g)))
    problems = []
    for i in coords:
        h = 1e-6 * max(1.0, abs(x0[i]))
        up, down = x0.copy(), x0.copy()
        up[i] += h
        down[i] -= h
        fd = (loss_and_grad(up)[0] - loss_and_grad(down)[0]) / (2 * h)
        # 1e-4: central differences across a relu kink are good to ~1e-5
        if not abs(fd - g[i]) <= 1e-4 * abs(g[i]) + 1e-8 * scale:
            problems.append(f"{net_cfg.activation} {net_cfg.hidden_layers}x"
                            f"{net_cfg.neurons} gradient[{i}] = {g[i]!r}, "
                            f"central difference {fd!r}")
    return problems


def pinn_net(bp, hidden_layers: int, activation: str, seed: int):
    return bp.network.NetworkConfig(hidden_layers=hidden_layers, neurons=50,
                                    activation=activation,
                                    initializer="glorot-normal", seed=seed)


def simulate_pk(ctx: Context, seed: int, check) -> Outcome:
    bp = ctx.bp
    path = ctx.workdir / "simulate.csv"
    t0 = time.perf_counter()
    series = bp.solvers.synthesize_dataset(ctx.sys, ctx.drug, n_points=SIM_POINTS,
                                           horizon=HORIZON, noise_sd=SIM_NOISE_SD,
                                           seed=seed)
    t1 = time.perf_counter()
    rounds = []
    for _ in range(IO_ROUNDS):
        bp.dataio.write_series(series, path)
        back = bp.dataio.read_series(path)
        rounds.append((back, [bp.metrics.summarize(back, c) for c in COMPARTMENTS]))
    t2 = time.perf_counter()
    out = Outcome(wall=t2 - t0,
                  samples={"simulate.solve_ms": (t1 - t0) * 1e3,
                           "simulate.io_pk_ms": (t2 - t1) * 1e3 / IO_ROUNDS})
    check()
    for col in COMPARTMENTS + ("Time", "Cplasma"):
        if not all(np.array_equal(series.column(col), back.column(col))
                   for back, _ in rounds):
            out.problems.append(f"read-back of {col} differs from what was written")
    for s in rounds[-1][1]:
        if not (s.auc > 0 and s.cmax > 0 and np.isfinite([s.auc, s.cmax, s.tmax]).all()):
            out.problems.append(f"bad PK summary for {s.compartment}: {s}")
    if any(summaries != rounds[0][1] for _, summaries in rounds):
        out.problems.append("PK summaries differ between rounds")
    path.unlink()
    return out


def de_fit(ctx: Context, seed: int, check) -> Outcome:
    bp = ctx.bp
    walls = []
    # generations=0 evaluates the same initial population and stops, so the
    # difference of the two walls is the generations' time alone
    for generations in (0, DE_GENERATIONS):
        cfg = bp.defit.DEConfig(population=DE_POPULATION, generations=generations,
                                stagnation_window=DE_GENERATIONS + 1, seed=seed)
        t0 = time.perf_counter()
        result = bp.defit.fit_de(ctx.ref, ctx.spec, cfg)
        walls.append(time.perf_counter() - t0)
    out = Outcome(wall=sum(walls),
                  samples={"de.gen_ms": (walls[1] - walls[0]) * 1e3 / DE_GENERATIONS},
                  quality={"de.param_rel_err":
                           ctx.param_rel_err(dict(zip(result.names, result.values)))})
    check()
    if result.generations != DE_GENERATIONS:
        out.problems.append(f"DE ran {result.generations} of {DE_GENERATIONS} generations")
    again = bp.defit.sse_objective(result.values, ctx.spec, ctx.ref)
    if not abs(again - result.objective) <= 1e-9 * abs(result.objective):
        out.problems.append(f"objective {result.objective!r} not reproduced ({again!r})")
    return out


def _train(ctx: Context, net_cfg, train_cfg, out: Outcome):
    """One train call with the criterion-6 checks and a check that the loss
    went down; returns (net, final spec, wall), with net None when training
    diverged."""
    bp = ctx.bp
    t0 = time.perf_counter()
    try:
        net, final_spec, art = bp.training.train(ctx.ref, ctx.spec, net_cfg, train_cfg)
    except bp.training.TrainingDiverged as err:
        out.problems.append(f"{net_cfg.activation} {net_cfg.hidden_layers}x"
                            f"{net_cfg.neurons} diverged: {err}")
        return None, None, time.perf_counter() - t0
    wall = time.perf_counter() - t0
    total = np.array(art.loss_total)
    parts = np.array(art.loss_data) + np.array(art.loss_ode) + np.array(art.loss_ic)
    worst = float(np.max(np.abs(total - parts) / np.maximum(np.abs(total), 1e-300)))
    if worst > 1e-12:
        out.problems.append(f"logged total != data + ode + ic (rel {worst:.2e})")
    if not total[-1] < total[0]:
        out.problems.append(f"final loss {total[-1]!r} not below initial {total[0]!r}")
    rows = np.array(art.trajectory + [list(final_spec.constrained_values().values())])
    lo = np.array([p.lo for p in ctx.spec.free])
    hi = np.array([p.hi for p in ctx.spec.free])
    if not np.all((rows > lo - 1e-12) & (rows < hi + 1e-12)):
        out.problems.append("a free parameter left its bounds")
    return net, final_spec, wall


def pinn_train(ctx: Context, seed: int, check) -> Outcome:
    bp = ctx.bp
    net_cfg = pinn_net(bp, 6, "tanh", seed)
    train_cfg = bp.training.TrainConfig(lr=1e-4, iterations=PINN_ADAM,
                                        lbfgs_iters=PINN_LBFGS,
                                        log_stride=LOG_STRIDE, seed=seed)
    out = Outcome()
    net, final_spec, out.wall = _train(ctx, net_cfg, train_cfg, out)
    if net is not None:
        out.samples["pinn.train_s"] = out.wall
        out.quality["pinn.data_rel_rmse"] = ctx.data_rel_rmse(net)
        out.quality["pinn.param_rel_err"] = ctx.param_rel_err(
            final_spec.constrained_values())
    check()
    return out


def pinn_sweep(ctx: Context, seed: int, check) -> Outcome:
    bp = ctx.bp
    out = Outcome()
    nets = []
    for act in SWEEP_ACTIVATIONS:
        net_cfg = pinn_net(bp, 1, act, seed)
        train_cfg = bp.training.TrainConfig(lr=1e-4, iterations=SWEEP_ITERS,
                                            lbfgs_iters=0, log_stride=LOG_STRIDE,
                                            seed=seed)
        net, _, wall = _train(ctx, net_cfg, train_cfg, out)
        out.wall += wall
        nets.append(net)
    if all(net is not None for net in nets):
        out.samples["sweep.adam_step_ms"] = (
            out.wall * 1e3 / (SWEEP_ITERS * len(SWEEP_ACTIVATIONS)))
        out.quality["sweep.data_rel_rmse"] = max(ctx.data_rel_rmse(n) for n in nets)
    check()
    return out


WORKLOADS = {"simulate_pk": simulate_pk, "de_fit": de_fit,
             "pinn_train": pinn_train, "pinn_sweep": pinn_sweep}

# untimed checks run once per run for a workload, at its reference seed
RUN_CHECKS = {
    "simulate_pk": oracle_check,
    "pinn_train": lambda ctx: gradient_check(
        ctx, pinn_net(ctx.bp, 6, "tanh", REFERENCE_SEED["pinn_train"])),
    "pinn_sweep": lambda ctx: gradient_check(
        ctx, pinn_net(ctx.bp, 1, "relu", REFERENCE_SEED["pinn_sweep"])),
}
