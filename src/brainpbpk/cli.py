"""Command-line front end.

Subcommands:
  simulate   synthesize a reference concentration-time dataset
  train      inverse-PINN parameter estimation on a dataset
  fit-de     differential-evolution baseline fit
  sweep      activation/layers/neurons hyperparameter sweep
  metrics    PK summary metrics (AUC, Cmax, Tmax, half-life)
  compare    side-by-side table + overlay plots of result summaries

File outputs are deterministic for identical flags and seed (17
significant digits, no timestamps or wall times inside artifact contents),
except ``sweep.csv``, whose cells carry each cell's training seconds.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import network as nn
from .dataio import (ConcentrationSeries, DataIOError, emit_plot,
                     linear_interp, read_series, write_rows, write_series)
from .defit import DEConfig, fit_de
from .metrics import summarize
from .model import COMPARTMENTS
from .params import (ALL_PARAM_NAMES, DrugParams, ModelVariant, SystemParams,
                     reference_value, substitute)
from .solvers import (PLASMA_INPUT, InitialState, SolveConfig, SolverError,
                      solve, synthesize_dataset)
from .training import (DEFAULT_FREE, EstimationSpec, LossWeights, TrainConfig,
                       TrainingDiverged, default_estimation_spec, train)


def _outdir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_free(arg: str) -> list[str]:
    names = [n.strip() for n in arg.split(",") if n.strip()]
    if not names:
        raise SystemExit("error: --free must name at least one parameter")
    unknown = sorted(set(names) - set(ALL_PARAM_NAMES))
    if unknown:
        raise SystemExit("error: --free names unknown parameter(s): "
                         f"{', '.join(unknown)}")
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise SystemExit(f"error: --free repeats {', '.join(repeated)}")
    zero = [n for n in names if reference_value(n) == 0]
    if zero:
        raise SystemExit(f"error: --free {', '.join(zero)}: the reference "
                         "value is 0, which no --bounds-scale box can hold")
    return names


def _estimation_spec(args) -> EstimationSpec:
    """The --free parameters boxed by --bounds-scale; every box must lie in
    its parameter's valid range."""
    try:
        lo, hi = (float(x) for x in args.bounds_scale.split(","))
    except ValueError:
        raise SystemExit("error: --bounds-scale expects LO,HI") from None
    if not 0 < lo < hi:
        raise SystemExit("error: --bounds-scale requires 0 < LO < HI")
    try:
        spec = default_estimation_spec(_parse_free(args.free), (lo, hi))
        spec.check_bounds()
    except ValueError as err:
        raise SystemExit(f"error: --bounds-scale {args.bounds_scale}: {err}") \
            from None
    return spec


def _config(make, **kwargs):
    """The config ``make(**kwargs)``; invalid values exit with an error."""
    try:
        return make(**kwargs)
    except ValueError as err:
        raise SystemExit(f"error: {err}") from None


def _read_dataset(path, need_plasma: bool = False) -> ConcentrationSeries:
    """The dataset at ``path``; an unreadable file, a non-finite cell, fewer
    than 2 rows or, for a dataset to fit (``need_plasma``), a bad Cplasma
    column or a row before the dose at t=0 exit with an error."""
    try:
        dataset = read_series(path)
        if len(dataset) < 2:
            raise ValueError("dataset needs at least 2 rows")
        if need_plasma:
            dataset.plasma_profile()  # raises MissingColumn without one
            if dataset.times[0] < 0:
                raise ValueError("times must start at or after the dose "
                                 "at t=0")
    except OSError as err:
        raise SystemExit(f"error: {err}") from None
    except (DataIOError, ValueError) as err:
        raise SystemExit(f"error: {path}: {err}") from None
    return dataset


def _maps_to_numbers(obj) -> bool:
    """Whether ``obj`` maps names to numbers that are finite as floats (not
    NaN, Infinity or an integer too large for a float)."""
    return isinstance(obj, dict) and all(
        type(v) in (int, float) and abs(v) <= sys.float_info.max
        for v in obj.values())


def _reference_from_manifest(data_path: str,
                             free: list[str]) -> dict[str, float]:
    """The parameters of the ``manifest.json`` next to the dataset, or the
    reference values if it has none. A manifest that is not an object, whose
    ``parameters`` do not map names to finite numbers or that lacks one of
    the ``free`` names exits with an error."""
    path = Path(data_path).with_name("manifest.json")
    if not path.exists():
        return {name: reference_value(name) for name in ALL_PARAM_NAMES}
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise SystemExit(f"error: {path}: {err}") from None
    if not isinstance(manifest, dict):
        raise SystemExit(f"error: {path}: not a JSON object")
    params = manifest.get("parameters", {})
    if not _maps_to_numbers(params):
        raise SystemExit(f"error: {path}: parameters must map names to "
                         f"numbers")
    missing = [name for name in free if name not in params]
    if missing:
        raise SystemExit(f"error: {path}: parameters lack "
                         f"{', '.join(missing)}")
    return dict(params)


# -- simulate ----------------------------------------------------------------

def cmd_simulate(args) -> int:
    series = _config(synthesize_dataset, sys=SystemParams(),
                     drug=DrugParams(), n_points=args.points,
                     horizon=args.horizon, noise_sd=args.noise_sd,
                     seed=args.seed)
    out = _outdir(args.out)
    write_series(series, out / "dataset.csv")
    manifest = {
        "parameters": {name: reference_value(name) for name in ALL_PARAM_NAMES},
        "points": args.points,
        "horizon": args.horizon,
        "noise_sd": args.noise_sd,
        "seed": args.seed,
        "plasma": PLASMA_INPUT,
        "variant": ModelVariant.PAPER_LITERAL.value,
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    print(f"wrote {out / 'dataset.csv'} ({args.points} rows, "
          f"{args.horizon} h horizon)")
    return 0


# -- train -------------------------------------------------------------------

def _write_summary(out: Path, label: str, values: dict, abs_errors: dict,
                   objective: float, prediction: str) -> None:
    summary = {
        "label": label,
        "free": list(values),
        "values": values,
        "abs_errors": abs_errors,
        "objective": objective,
        "prediction": prediction,
    }
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)


def cmd_train(args) -> int:
    spec = _estimation_spec(args)
    net_cfg = _config(nn.NetworkConfig, hidden_layers=args.layers,
                      neurons=args.neurons, activation=args.activation,
                      initializer=args.init, seed=args.seed)
    train_cfg = _config(
        TrainConfig, lr=args.lr, iterations=args.iters,
        lbfgs_iters=args.lbfgs_iters,
        weights=_config(LossWeights, ic=args.weights_ic, ode=args.weights_ode,
                        data=args.weights_data),
        log_stride=args.log_stride, seed=args.seed)
    if args.prediction_points < 2:
        raise SystemExit("error: --prediction-points must be >= 2")
    dataset = _read_dataset(args.data, need_plasma=True)
    reference = _reference_from_manifest(args.data, spec.names)
    out = _outdir(args.out)

    try:
        net, final_spec, artifacts = train(dataset, spec, net_cfg, train_cfg)
    except TrainingDiverged as err:
        err.artifacts.write_loss_history(out / "loss_history.csv")
        err.artifacts.write_trajectory(out / "trajectory.csv")
        print(f"error: training aborted: {err}", file=sys.stderr)
        return 1

    artifacts.write_loss_history(out / "loss_history.csv")
    artifacts.write_trajectory(out / "trajectory.csv")
    nn.save_network(net, out / "network.npz")

    horizon = float(dataset.times[-1])
    dense = np.linspace(0.0, horizon, args.prediction_points)
    pred = nn.forward(net, dense / horizon)
    plasma = dataset.plasma_profile()
    write_series(ConcentrationSeries(dense, pred, linear_interp(plasma, dense)),
                 out / "prediction.csv")

    values = final_spec.constrained_values()
    errors = {n: abs(reference[n] - v) for n, v in values.items()}
    _write_summary(out, "PINN", values, errors, artifacts.loss_total[-1],
                   "prediction.csv")
    for name, value in values.items():
        print(f"{name}: {value:.9g} (reference {reference[name]:.9g})")
    if args.lbfgs_iters > 0:
        if artifacts.lbfgs_line_search_failed:
            stop = "a failed line search"
        elif artifacts.lbfgs_iterations < args.lbfgs_iters:
            stop = "gradient tolerance"
        else:
            stop = "budget"
        print(f"L-BFGS: {artifacts.lbfgs_iterations} iterations "
              f"(stopped on {stop})")
    print(f"final total loss: {artifacts.loss_total[-1]:.6e} "
          f"({artifacts.wall_seconds:.1f}s)")
    return 0


# -- fit-de ------------------------------------------------------------------

def cmd_fit_de(args) -> int:
    spec = _estimation_spec(args)
    cfg = _config(DEConfig, population=args.population,
                  generations=args.generations, seed=args.seed)
    dataset = _read_dataset(args.data, need_plasma=True)
    reference = _reference_from_manifest(args.data, spec.names)
    out = _outdir(args.out)
    result = fit_de(dataset, spec, cfg)
    values = dict(zip(result.names, result.values))
    errors = {n: abs(reference[n] - v) for n, v in values.items()}
    write_rows(out / "de_result.csv",
               ["parameter", "value", "abs_error", "objective"],
               [[n, v, errors[n], result.objective if i == 0 else None]
                for i, (n, v) in enumerate(values.items())])

    sys_c, drug_c = substitute(spec.base_sys, spec.base_drug, values)
    try:
        pred = solve(sys_c, drug_c, dataset.plasma_profile(),
                     ModelVariant.PAPER_LITERAL, InitialState(),
                     SolveConfig(grid=dataset.times))
    except SolverError as err:
        raise SystemExit(f"error: {err}") from None
    write_series(pred, out / "prediction.csv")
    _write_summary(out, "DE", values, errors, result.objective,
                   "prediction.csv")
    for name, value in values.items():
        print(f"{name}: {value:.9g} (abs error {errors[name]:.3e})")
    print(f"objective: {result.objective:.6e}, generations: "
          f"{result.generations} (stopped on {result.stop_reason}), "
          f"inf candidates: {result.inf_candidates}, "
          f"{result.wall_seconds:.1f}s")
    return 0


# -- sweep -------------------------------------------------------------------

def _sweep_cell(payload):
    """One sweep cell; returns (final loss or None if training diverged,
    seconds)."""
    dataset, net_cfg, train_cfg = payload
    start = time.perf_counter()
    try:
        _, _, artifacts = train(dataset, default_estimation_spec(), net_cfg,
                                train_cfg)
        loss = artifacts.loss_total[-1]
    except TrainingDiverged:
        loss = None
    return loss, time.perf_counter() - start


def _parse_counts(flag: str, arg: str) -> list[int]:
    try:
        return [int(x) for x in arg.split(",") if x.strip()]
    except ValueError:
        raise SystemExit(f"error: {flag} expects comma-separated integers, "
                         f"got {arg!r}") from None


def cmd_sweep(args) -> int:
    activations = [a.strip() for a in args.activations.split(",") if a.strip()]
    layer_counts = _parse_counts("--layers", args.layers)
    neuron_counts = _parse_counts("--neurons", args.neurons)
    if not activations or not layer_counts or not neuron_counts:
        raise SystemExit("error: empty sweep grid")
    if args.jobs < 1:
        raise SystemExit("error: --jobs must be >= 1")
    train_cfg = _config(TrainConfig, iterations=args.iters, lbfgs_iters=0,
                        log_stride=max(1, args.iters // 10), seed=args.seed)
    dataset = _read_dataset(args.data, need_plasma=True)
    rows = [[L, act] for L in layer_counts for act in activations]
    cells = [(dataset,
              _config(nn.NetworkConfig, hidden_layers=L, neurons=N,
                      activation=act, seed=args.seed,
                      initializer="glorot-uniform"),
              train_cfg)
             for L, act in rows for N in neuron_counts]
    out = _outdir(args.out)
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(args.jobs) as pool:
            results = list(pool.map(_sweep_cell, cells))
    else:
        results = [_sweep_cell(c) for c in cells]

    # results come in the order of cells: one row's cells are consecutive
    text = ["diverged" if loss is None else f"{loss:.2e} ({secs:.0f})"
            for loss, secs in results]
    n = len(neuron_counts)
    write_rows(out / "sweep.csv",
               ["layers", "activation"] + [f"N={N}" for N in neuron_counts],
               [row + text[k * n:(k + 1) * n] for k, row in enumerate(rows)])
    print(f"wrote {out / 'sweep.csv'} ({len(cells)} cells)")
    return 0


# -- metrics -----------------------------------------------------------------

def cmd_metrics(args) -> int:
    dataset = _read_dataset(args.data)
    summaries = [_config(summarize, series=dataset, compartment=comp,
                         tail_fraction=args.tail_fraction)
                 for comp in COMPARTMENTS]
    out = _outdir(args.out)
    write_rows(out / "pk_summary.csv",
               ["compartment", "auc", "cmax", "tmax", "half_life"],
               [[s.compartment, s.auc, s.cmax, s.tmax, s.half_life]
                for s in summaries])
    print(f"wrote {out / 'pk_summary.csv'}")
    return 0


# -- compare -----------------------------------------------------------------

def _read_summary(path: str) -> dict:
    """A ``summary.json`` as ``train`` and ``fit-de`` write it; any other
    shape or type exits with an error."""
    try:
        with open(path, encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise SystemExit(f"error: {err}") from None
    if not isinstance(summary, dict):
        raise SystemExit(f"error: {path}: not a result summary")
    missing = [k for k in ("label", "free", "values", "abs_errors", "prediction")
               if k not in summary]
    if missing:
        raise SystemExit(f"error: {path}: summary lacks {', '.join(missing)}")
    if not all(_maps_to_numbers(summary[k]) for k in ("values", "abs_errors")):
        raise SystemExit(f"error: {path}: values and abs_errors must map "
                         f"names to numbers")
    free = summary["free"]
    if not (isinstance(free, list) and all(n in ALL_PARAM_NAMES for n in free)):
        raise SystemExit(f"error: {path}: free must be a list of parameter "
                         f"names, not {free!r}")
    if not (isinstance(summary["label"], str)
            and isinstance(summary["prediction"], str)):
        raise SystemExit(f"error: {path}: label and prediction must be "
                         f"strings")
    return summary


def cmd_compare(args) -> int:
    if len(args.results) < 2:
        raise SystemExit("error: compare needs at least two result summaries")
    summaries = [(Path(path), _read_summary(path)) for path in args.results]
    labeled = [("observed", _read_dataset(args.data))] if args.data else []
    for path, s in summaries:
        pred_path = path.parent / s["prediction"]
        if pred_path.exists():
            labeled.append((s["label"], _read_dataset(pred_path)))
    out = _outdir(args.out)

    names = list(dict.fromkeys(n for _, s in summaries for n in s["free"]))
    header = ["parameter", "reference"] + [
        h for _, s in summaries for h in (s["label"], f"|{s['label']}_err|")]
    write_rows(out / "compare.csv", header,
               [[name, reference_value(name)]
                + [s[k].get(name) for _, s in summaries
                   for k in ("values", "abs_errors")]
                for name in names])

    if labeled:
        for comp in COMPARTMENTS:
            emit_plot(labeled, comp, out / f"compare_{comp}.svg")
    print(f"wrote {out / 'compare.csv'} and overlay plots")
    return 0


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brainpbpk",
        description="4-compartment brain PBPK simulation and parameter "
                    "estimation (inverse PINN + differential evolution)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a reference dataset")
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--horizon", type=float, default=48.0)
    p.add_argument("--noise-sd", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="inverse-PINN parameter estimation")
    p.add_argument("--data", required=True)
    p.add_argument("--free", default=",".join(DEFAULT_FREE))
    p.add_argument("--bounds-scale", default="0.5,2.0")
    p.add_argument("--layers", type=int, default=6)
    p.add_argument("--neurons", type=int, default=50)
    p.add_argument("--activation", default="tanh",
                   choices=nn.ACTIVATIONS)
    p.add_argument("--init", default="glorot-normal",
                   choices=nn.INITIALIZERS)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--iters", type=int, default=50_000)
    p.add_argument("--lbfgs-iters", type=int, default=500)
    p.add_argument("--weights-ic", type=float, default=1.0)
    p.add_argument("--weights-ode", type=float, default=2.0)
    p.add_argument("--weights-data", type=float, default=3.0)
    p.add_argument("--log-stride", type=int, default=100)
    p.add_argument("--prediction-points", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("fit-de", help="differential-evolution baseline fit")
    p.add_argument("--data", required=True)
    p.add_argument("--free", default=",".join(DEFAULT_FREE))
    p.add_argument("--bounds-scale", default="0.5,2.0")
    p.add_argument("--population", type=int, default=0,
                   help="0 selects 10 x dimension")
    p.add_argument("--generations", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_fit_de)

    p = sub.add_parser("sweep", help="hyperparameter sweep")
    p.add_argument("--data", required=True)
    p.add_argument("--activations", default="relu,tanh,sigmoid,sin")
    p.add_argument("--layers", default="1,2,6")
    p.add_argument("--neurons", default="9,18,27,50")
    p.add_argument("--iters", type=int, default=10_000)
    p.add_argument("--jobs", type=int, default=1, help="worker pool size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("metrics", help="PK summary metrics")
    p.add_argument("--data", required=True)
    p.add_argument("--tail-fraction", type=float, default=0.25)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("compare", help="compare estimation results")
    p.add_argument("--results", nargs="+", required=True,
                   help="two or more summary.json files")
    p.add_argument("--data", default=None,
                   help="observed dataset to overlay in plots")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
