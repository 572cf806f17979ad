"""End-to-end acceptance gate.

One test per criterion; each prints a single PASS/FAIL line. Heavy runs
(the full estimation training, the DE fit) execute once in module-scoped
fixtures and are shared by the criteria that inspect them.
"""
import time

import numpy as np
import pytest

from brainpbpk import network as nn
from brainpbpk.autodiff import Var, grad
from brainpbpk.dataio import ConcentrationSeries, PlasmaProfile, linear_interp
from brainpbpk.defit import DEConfig, differential_evolution, fit_de
from brainpbpk.metrics import auc_trapezoid, half_life
from brainpbpk.model import assemble_matrix, rhs_terms
from brainpbpk.params import (DrugParams, ModelVariant, SystemParams,
                              reference_value)
from brainpbpk.solvers import (InitialState, Method, SolveConfig,
                               plasma_input, synthesize_dataset, solve)
from brainpbpk.training import (TrainConfig, build_problem, _composite_loss,
                                default_estimation_spec, train)

SYS = SystemParams()
DRUG = DrugParams()

# seeds for the stochastic criteria; fixed here, never tuned inside a test
DE_SEED = 1
TRAIN_SEED = 0
ACTIVATION_SEED = 0


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def dataset():
    return synthesize_dataset(SYS, DRUG, n_points=200, horizon=48.0)


@pytest.fixture(scope="module")
def training_run(dataset):
    """The pinned estimation run: tanh 6x50, glorot-normal, lr 1e-4,
    weights (1,2,3), 50k Adam + 500 L-BFGS."""
    spec = default_estimation_spec()
    net_cfg = nn.NetworkConfig(hidden_layers=6, neurons=50, activation="tanh",
                               initializer="glorot-normal", seed=TRAIN_SEED)
    train_cfg = TrainConfig(lr=1e-4, iterations=50_000, lbfgs_iters=500,
                            log_stride=100, seed=TRAIN_SEED)
    start = time.perf_counter()
    net, final_spec, artifacts = train(dataset, spec, net_cfg, train_cfg)
    return net, spec, final_spec, artifacts, time.perf_counter() - start


def test_criterion_1_solver_oracle_equivalence():
    grid = np.linspace(0.0, 48.0, 200)
    plasma = plasma_input(grid)
    init = InitialState()
    start = time.perf_counter()
    oracle = solve(SYS, DRUG, plasma, ModelVariant.PAPER_LITERAL, init,
                   SolveConfig(method=Method.EXPM_ORACLE, grid=grid))
    rk4 = solve(SYS, DRUG, plasma, ModelVariant.PAPER_LITERAL, init,
                SolveConfig(method=Method.RK4, h=0.001, grid=grid))
    dopri = solve(SYS, DRUG, plasma, ModelVariant.PAPER_LITERAL, init,
                  SolveConfig(method=Method.DOPRI45, rtol=1e-10, atol=1e-14,
                              grid=grid))
    elapsed = time.perf_counter() - start
    ref = oracle.concentrations()
    # relative to each compartment's peak; every curve starts at zero
    scale = np.max(ref, axis=1, keepdims=True)
    err_rk4 = float(np.max(np.abs(rk4.concentrations() - ref) / scale))
    err_dp = float(np.max(np.abs(dopri.concentrations() - ref) / scale))
    ok = err_rk4 < 1e-6 and err_dp < 1e-8 and elapsed < 10.0
    report(1, ok, f"RK4 err {err_rk4:.2e} (<1e-6), DOPRI err {err_dp:.2e} "
                  f"(<1e-8), {elapsed:.1f}s (<10s)")


def test_criterion_2_gradient_correctness():
    rng = np.random.default_rng(7)
    activations = ["tanh", "sigmoid", "relu", "sin"] * 5
    start = time.perf_counter()
    worst = 0.0
    for k, act in enumerate(activations):
        n_pts = int(rng.integers(5, 9))
        ds = synthesize_dataset(SYS, DRUG, n_points=n_pts, horizon=48.0)
        spec = default_estimation_spec()
        cfg = nn.NetworkConfig(hidden_layers=int(rng.integers(1, 3)),
                               neurons=int(rng.integers(3, 7)),
                               activation=act, seed=int(rng.integers(1000)))
        prob = build_problem(ds, spec, cfg, TrainConfig())
        net = nn.init_network(cfg)
        theta = np.concatenate(net.parameter_arrays() +
                               [[rng.normal(0, 0.5) for _ in spec.free]],
                               axis=None)
        raw_at = theta.size - len(spec.free)

        def loss_of(x):
            leaves = Var(x[:raw_at]), Var(x[raw_at:])
            total, _ = _composite_loss(prob, *leaves)
            return total, leaves

        total, leaves = loss_of(theta)
        g = np.concatenate(grad(total, leaves))

        # every raw parameter plus five random weight coordinates, as
        # positions in theta: the layer views of an index vector
        coords = [theta.size - 1 - i for i in range(len(spec.free))]
        weights, _ = nn.layer_views(cfg, np.arange(raw_at))
        for _ in range(5):
            W = weights[int(rng.integers(len(weights)))]
            coords.append(int(W[tuple(int(rng.integers(s)) for s in W.shape)]))
        for k in coords:
            # the loss is O(100); eps 1e-6 would leave ~1e-8 roundoff in
            # the central difference, swamping the smallest gradients
            eps = 1e-4
            pert = theta.copy()
            pert[k] += eps
            up, _ = loss_of(pert)
            pert = theta.copy()
            pert[k] -= eps
            down, _ = loss_of(pert)
            fd = (up.item() - down.item()) / (2 * eps)
            rel = abs(g[k] - fd) / max(abs(fd), 1e-8)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 60.0
    report(2, ok, f"20 configs, all activations: worst rel err {worst:.2e} "
                  f"(<1e-4), {elapsed:.1f}s (<60s)")


def test_criterion_3_de_recovery(dataset):
    spec = default_estimation_spec()
    start = time.perf_counter()
    result = fit_de(dataset, spec, DEConfig(seed=DE_SEED))
    elapsed = time.perf_counter() - start
    errs = {n: abs(reference_value(n) - v)
            for n, v in zip(result.names, result.values)}
    ok = errs["Vbb"] <= 2e-5 and errs["Vscsf"] <= 1e-5 and elapsed < 600.0
    report(3, ok, f"Vbb abs err {errs['Vbb']:.2e} (<=2e-5), Vscsf abs err "
                  f"{errs['Vscsf']:.2e} (<=1e-5), {elapsed:.0f}s (<600s)")


@pytest.mark.slow
def test_criterion_4_estimation_recovery(training_run):
    _, spec, final_spec, artifacts, elapsed = training_run
    values = final_spec.constrained_values()
    rel = {n: abs(values[n] - reference_value(n)) / reference_value(n)
           for n in ("Vbb", "Vbm", "Vccsf", "Vscsf")}
    in_bounds = all(p.lo < values[p.name] < p.hi
                    for p in final_spec.free if p.name in ("fubb", "lam_ccsf"))

    # best-loss monotone improvement across the budget checkpoints
    best_at = {}
    for cp in (10_000, 25_000, 50_000):
        mask = [i for i, it in enumerate(artifacts.loss_iters) if it <= cp]
        best_at[cp] = min(artifacts.loss_total[i] for i in mask)
    monotone = best_at[50_000] < best_at[25_000] < best_at[10_000]

    volumes_ok = all(r < 0.05 for r in rel.values())
    ok = volumes_ok and in_bounds and monotone and elapsed < 2700.0
    detail = (", ".join(f"{n} {r * 100:.1f}%" for n, r in rel.items()) +
              f" (<5%), bounds {'ok' if in_bounds else 'violated'}, "
              f"best-loss 10k/25k/50k {best_at[10_000]:.2e}/"
              f"{best_at[25_000]:.2e}/{best_at[50_000]:.2e}, "
              f"{elapsed:.0f}s (<2700s)")
    report(4, ok, detail)


@pytest.mark.slow
def test_criterion_5_activation_ordering(dataset):
    start = time.perf_counter()
    finals = {}
    for act in ("tanh", "relu"):
        cfg = nn.NetworkConfig(hidden_layers=1, neurons=50, activation=act,
                               initializer="glorot-normal",
                               seed=ACTIVATION_SEED)
        tc = TrainConfig(lr=1e-4, iterations=10_000, lbfgs_iters=0,
                         log_stride=1000, seed=ACTIVATION_SEED)
        _, _, art = train(dataset, default_estimation_spec(), cfg, tc)
        finals[act] = art.loss_total[-1]
    elapsed = time.perf_counter() - start
    ratio = finals["relu"] / finals["tanh"]
    ok = ratio >= 100.0 and elapsed < 900.0
    report(5, ok, f"tanh {finals['tanh']:.2e}, relu {finals['relu']:.2e}, "
                  f"ratio {ratio:.1f} (>=100), {elapsed:.0f}s (<900s)")


@pytest.mark.slow
def test_criterion_6_loss_identity_and_bounds(training_run):
    _, spec, _, artifacts, _ = training_run
    worst_rel = 0.0
    for i in range(len(artifacts.loss_iters)):
        total = artifacts.loss_total[i]
        parts = (artifacts.loss_data[i] + artifacts.loss_ode[i] +
                 artifacts.loss_ic[i])
        worst_rel = max(worst_rel, abs(total - parts) / max(abs(total), 1e-300))
    in_bounds = all(
        p.lo - 1e-12 < v < p.hi + 1e-12
        for row in artifacts.trajectory for p, v in zip(spec.free, row))
    ok = worst_rel <= 1e-12 and in_bounds
    report(6, ok, f"decomposition worst rel dev {worst_rel:.2e} (<=1e-12), "
                  f"bounds {'held' if in_bounds else 'violated'} at all "
                  f"{len(artifacts.loss_iters)} logged iterations")


def test_criterion_7_property_bundle(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(11)

    # RHS term-vs-matrix equivalence
    A = assemble_matrix(SYS, DRUG)
    for _ in range(100):
        y = rng.uniform(0, 1, size=4)
        cart = rng.uniform(0, 1)
        via_matrix = A @ y
        via_matrix[0] += SYS.Qbrain * cart / SYS.Vbb
        via_terms = np.array(rhs_terms(y, cart, SYS, DRUG))
        assert np.max(np.abs(via_terms - via_matrix) /
                      np.maximum(np.abs(via_matrix), 1.0)) < 1e-12

    # spinal flow-balance matrix identity
    assert abs(A[3, 2] + A[3, 3]) < 1e-12

    # interpolation exactness on knots and between them
    p = PlasmaProfile(np.array([0.0, 1.0, 3.0]), np.array([0.0, 2.0, 1.0]))
    assert linear_interp(p, 1.0) == 2.0
    assert linear_interp(p, 0.5) == 1.0
    assert linear_interp(p, 2.0) == 1.5

    # AUC additivity and scaling
    t = np.linspace(0.0, 10.0, 101)
    c = np.exp(-0.3 * t)

    def series(vals):
        z = np.zeros_like(t)
        return ConcentrationSeries(t, [vals, z, z, z])

    whole = auc_trapezoid(series(c), "Cbb")
    k = 50
    left = np.trapezoid(c[:k + 1], t[:k + 1])
    right = np.trapezoid(c[k:], t[k:])
    assert whole == pytest.approx(left + right, rel=1e-12)
    assert auc_trapezoid(series(3.0 * c), "Cbb") == \
        pytest.approx(3.0 * whole, rel=1e-12)

    # DE monotone best objective: longer budget never worse, same seed
    obj = lambda X: np.sum((X - 0.3) ** 2, axis=1)
    bounds = [(-1.0, 1.0)] * 2
    short = differential_evolution(obj, bounds,
                                   DEConfig(generations=10, seed=3,
                                            stagnation_window=999))
    long = differential_evolution(obj, bounds,
                                  DEConfig(generations=40, seed=3,
                                           stagnation_window=999))
    assert long[1] <= short[1]

    # read/write round-trip
    from brainpbpk.dataio import read_series, write_series
    ds = synthesize_dataset(SYS, DRUG, n_points=30)
    path = tmp_path / "rt.csv"
    write_series(ds, path)
    back = read_series(path)
    assert np.array_equal(back.concentrations(), ds.concentrations())

    elapsed = time.perf_counter() - start
    report(7, elapsed < 60.0, f"property bundle complete in {elapsed:.1f}s "
                              f"(<60s)")


def test_criterion_8_pk_metrics():
    start = time.perf_counter()
    t = np.linspace(0.0, 48.0, 500)
    c = np.exp(-0.1 * t)
    z = np.zeros_like(t)
    s = ConcentrationSeries(t, [c, z, z, z])
    hl = half_life(s, "Cbb")
    auc = auc_trapezoid(s, "Cbb")
    analytic_auc = (1.0 - np.exp(-0.1 * 48.0)) / 0.1
    elapsed = time.perf_counter() - start
    hl_ok = abs(hl - np.log(2.0) / 0.1) <= 1e-6
    auc_ok = abs(auc - analytic_auc) / analytic_auc <= 1e-3
    ok = hl_ok and auc_ok and elapsed < 1.0
    report(8, ok, f"half-life {hl:.8f} vs {np.log(2.0) / 0.1:.8f} (+-1e-6), "
                  f"AUC rel dev {abs(auc - analytic_auc) / analytic_auc:.2e} "
                  f"(<=1e-3), {elapsed:.2f}s (<1s)")
