"""Inverse-PINN training: composite loss, bounded parameters, Adam, L-BFGS.

Free physical parameters are trained through a sigmoid bounding transform
(value = lo + (hi - lo) * sigmoid(raw)), so they stay strictly inside their
bounds at every iteration. Network weights, biases, and the raw parameter
values are updated jointly by full-batch Adam, optionally followed by an
L-BFGS refinement stage.

The loss is nondimensionalized with scales fixed once per problem by
``build_problem``, from the dataset and the bound midpoints only:

* ``peak_k``, the largest observed |C_k| of compartment k;
* ``ode_scale_k = peak_k * CL_k``, where CL_k is the total outflow
  clearance of compartment k (L/h, minus V_k times the diagonal of the
  rate matrix) with every free parameter at its bound midpoint.

The trained network sees time t in hours and emits u_k = C_k / peak_k.
With per-compartment weights w, the three loss components are

    data = sum_k w_data_k * mean_i (u_k(t_i) - C_k,obs(t_i) / peak_k)^2
    ic   = sum_k w_ic_k   * (u_k(0) - C_k,obs(0) / peak_k)^2
    ode  = sum_k w_ode_k  * mean_j (r_k(t_j) / ode_scale_k)^2,
           r_k = V_k * dC_k/dt - net influx_k(C, Cart)   (amount form, mg/h)

at the data times t_i, which are also the collocation times t_j. The
amount form keeps a misfit from getting cheaper as a trainable volume
grows, which the rate form dC_k/dt - influx_k / V_k does. ``train`` folds
both scales into the network it returns (``network.fold_scales``), so that
network maps normalized time t / horizon to concentrations in mg/L.

The tape evaluates all four residuals at once, in matrix form. The net
influx is linear in (C, Cart), so influx(C, Cart) = M C + q Cart, with the
amount-rate matrix M = diag(V) A (A from ``model.assemble_matrix``) and the
forcing coefficient q; with U the (4, N) network output and P = diag(peak),

    R = diag(V) P dU/dt - M P U - q Cart(t)^T.

One tape node (``_rate_node``) maps the raw free parameters to V, M and q,
evaluating ``model.influx_terms`` on the identity basis of (C, Cart) and
back-propagating through its exact Jacobian; ``influx_terms`` stays the one
source of the equations.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import network as nn
from .autodiff import NonFiniteGradient, Var, grad
from .dataio import ConcentrationSeries, PlasmaProfile, RunArtifacts, linear_interp
from .model import assemble_matrix, influx_terms, volumes
from .params import (ALL_PARAM_NAMES, DrugParams, SystemParams,
                     reference_value, substitute)


class TrainingDiverged(Exception):
    def __init__(self, iteration: int, artifacts: RunArtifacts, message: str):
        self.iteration = iteration
        self.artifacts = artifacts
        super().__init__(f"iteration {iteration}: {message}")


@dataclass
class BoundedParam:
    """A free physical parameter with box bounds and an unconstrained raw
    trainable value (raw = 0 maps to the bound midpoint)."""

    name: str
    lo: float
    hi: float
    raw: float = 0.0

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"{self.name}: lower bound must be below upper")


def constrain(p: BoundedParam):
    """lo + (hi - lo) * sigmoid(raw); strictly inside (lo, hi)."""
    return p.lo + (p.hi - p.lo) / (1.0 + math.exp(-p.raw))


@dataclass
class EstimationSpec:
    """Free parameters plus the fixed values for everything else."""

    free: list[BoundedParam]
    base_sys: SystemParams = field(default_factory=SystemParams)
    base_drug: DrugParams = field(default_factory=DrugParams)

    def __post_init__(self):
        names = [p.name for p in self.free]
        unknown = set(names) - set(ALL_PARAM_NAMES)
        if unknown:
            raise ValueError(f"unknown model parameters: {sorted(unknown)}")
        if len(names) != len(set(names)):
            raise ValueError("duplicate free parameter names")

    @property
    def names(self) -> list[str]:
        return [p.name for p in self.free]

    def constrained_values(self) -> dict[str, float]:
        return {p.name: constrain(p) for p in self.free}

    def realized(self):
        """(SystemParams, DrugParams) with constrained free values applied."""
        return substitute(self.base_sys, self.base_drug, self.constrained_values())


DEFAULT_FREE = ("Vbb", "Vbm", "Vccsf", "Vscsf", "fubb", "lam_ccsf")


def default_estimation_spec(free_names=DEFAULT_FREE,
                            bounds_scale=(0.5, 2.0)) -> EstimationSpec:
    """Bounds = reference value x [lo_scale, hi_scale] for each free name."""
    lo_s, hi_s = bounds_scale
    free = [BoundedParam(n, reference_value(n) * lo_s, reference_value(n) * hi_s)
            for n in free_names]
    return EstimationSpec(free=free)


@dataclass(frozen=True)
class LossWeights:
    ic: np.ndarray = field(default_factory=lambda: np.ones(4))
    ode: np.ndarray = field(default_factory=lambda: np.full(4, 2.0))
    data: np.ndarray = field(default_factory=lambda: np.full(4, 3.0))

    def __post_init__(self):
        for name in ("ic", "ode", "data"):
            v = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, v)
            if v.shape != (4,) or np.any(v < 0):
                raise ValueError(f"{name} weights must be 4 non-negative values")
        if not (np.any(self.ic > 0) or np.any(self.ode > 0) or np.any(self.data > 0)):
            raise ValueError("at least one loss weight must be positive")


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-4
    iterations: int = 50_000
    lbfgs_iters: int = 500
    weights: LossWeights = field(default_factory=LossWeights)
    log_stride: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if self.iterations < 0 or self.lbfgs_iters < 0:
            raise ValueError("iteration counts must be non-negative")
        if self.log_stride < 1:
            raise ValueError("log stride must be >= 1")


# -- individual losses (numpy reference versions used in tests) --------------

def _scaled_mse(resid: np.ndarray, weights: np.ndarray, scale) -> float:
    """sum_k w_k * mean((resid_k / scale_k)^2); scale None means 1."""
    scale = np.ones(len(weights)) if scale is None else scale
    return float(sum(w * np.mean((resid[k] / scale[k]) ** 2)
                     for k, w in enumerate(weights)))


def data_loss(pred: np.ndarray, obs: np.ndarray, weights: np.ndarray,
              scale=None) -> float:
    """Sum over compartments of per-compartment weighted MSE over points,
    of the misfit divided by that compartment's scale (the peak)."""
    return _scaled_mse(pred - obs, weights, scale)


def ic_loss(pred0: np.ndarray, y0: np.ndarray, weights: np.ndarray,
            scale=None) -> float:
    """Weighted squared initial-condition misfit, divided by the scale."""
    return _scaled_mse((pred0 - y0)[:, None], weights, scale)


def ode_loss(net: nn.Network, spec: EstimationSpec, plasma: PlasmaProfile,
             collocation_times: np.ndarray, horizon: float,
             weights: np.ndarray, scale=None) -> float:
    """Mean squared amount-form ODE residual V_k * dC_k/dt - influx_k per
    equation, divided by ``scale`` (the ODE scale), lambda-weighted. ``net``
    maps t / horizon to concentrations, as ``train`` returns it (numpy
    path)."""
    t = np.asarray(collocation_times, dtype=float)
    Y, Ydot_hat = nn.forward_with_time_derivative(net, t / horizon)
    dYdt = Ydot_hat / horizon
    cart = linear_interp(plasma, t)
    sys_r, drug_r = spec.realized()
    J = influx_terms((Y[0], Y[1], Y[2], Y[3]), cart, sys_r, drug_r)
    resid = np.array([v * dYdt[k] - J[k]
                      for k, v in enumerate(volumes(sys_r))])
    return _scaled_mse(resid, weights, scale)


# -- composite tape loss -----------------------------------------------------

@dataclass
class _Problem:
    """Precomputed constants shared by every loss evaluation. ``times``
    (hours) are both the data and the collocation times; observations are
    divided by ``peak``. ``w_data``, ``w_ic`` and ``w_ode`` are the (4, 1)
    weight columns of the three terms: w_data / N, w_ic and
    w_ode / (N * ode_scale^2)."""

    cfg: nn.NetworkConfig
    spec: EstimationSpec
    horizon: float
    times: np.ndarray
    obs_u: np.ndarray
    y0_u: np.ndarray
    cart: np.ndarray
    peak: np.ndarray
    ode_scale: np.ndarray
    w_data: np.ndarray
    w_ic: np.ndarray
    w_ode: np.ndarray


# the influx is linear in (C, Cart): evaluated at C = e_j, Cart = 0 (column
# j < 4) and at C = 0, Cart = 1 (column 4), it gives the columns of [M | q]
_BASIS_C = tuple(np.eye(5)[:4])
_BASIS_CART = np.eye(5)[4]
# imaginary step of the complex-step derivative in ``_rate_node``
_COMPLEX_STEP = 1e-30


def _rate_node(spec: EstimationSpec, raw_vars) -> Var:
    """One tape node from the raw free parameters to the (4, 6) array
    G = [M | q | V]: the amount-rate matrix M = diag(V) A, the forcing
    coefficient q and the volumes V, so that V * dC/dt = M C + q Cart.

    G comes from ``influx_terms`` (and ``volumes``) evaluated on the basis
    above, in one complex batch: row 0 holds the constrained parameter
    values and row 1 + i adds an imaginary step to free parameter i, whose
    imaginary part is then the exact derivative (complex-step
    differentiation takes no difference, so nothing cancels). The chain
    through the sigmoid bound is applied analytically."""
    free, n = spec.free, len(spec.free)
    lo = np.array([p.lo for p in free])
    span = np.array([p.hi for p in free]) - lo
    s = 1.0 / (1.0 + np.exp(-np.array([r.item() for r in raw_vars])))
    # (1 + n, n): row 0 the values, row 1 + i steps parameter i
    batch = (lo + span * s) + 1j * _COMPLEX_STEP * np.eye(1 + n, n, -1)
    sys_c, drug_c = substitute(
        spec.base_sys, spec.base_drug,
        {p.name: batch[:, i, None] for i, p in enumerate(free)})
    G = np.empty((1 + n, 4, 6), dtype=complex)
    for k, (j, v) in enumerate(zip(influx_terms(_BASIS_C, _BASIS_CART,
                                                sys_c, drug_c),
                                   volumes(sys_c))):
        G[:, k, :5] = j
        G[:, k, 5:] = v
    # d G / d raw_i, flattened to (n, 24)
    jac = (G[1:].imag / _COMPLEX_STEP).reshape(n, 24) \
        * (span * s * (1.0 - s))[:, None]

    def back(g):
        return tuple(jac @ np.ravel(g))
    return Var(G[0].real, tuple(raw_vars), back, op="rates")


def _composite_loss(prob: _Problem, weight_vars, bias_vars, raw_vars):
    """Build the full loss graph in scaled coordinates (see the module
    docstring); returns (total Var, component floats). One dual forward
    pass gives the network values for the data and IC terms and the time
    derivatives for the ODE residual, which is skipped when every ODE
    weight is zero. Each term is one weighted sum over a (4, N) array, the
    weights and the 1/N of the means folded into (4, 1) vectors."""
    U, Udot = nn.forward_dual_tape(prob.cfg, weight_vars, bias_vars, prob.times)
    l_data = (prob.w_data * (U - prob.obs_u) ** 2).sum()
    l_ic = (prob.w_ic * (U[:, :1] - prob.y0_u) ** 2).sum()
    l_ode = 0.0
    if np.any(prob.w_ode):
        G = _rate_node(prob.spec, raw_vars)
        # one constant node for both products
        peak = Var(prob.peak[:, None], op="const")
        resid = (G[:, 5:] * (Udot * peak) - G[:, :4] @ (U * peak)
                 - G[:, 4:5] * prob.cart)
        l_ode = (prob.w_ode * resid ** 2).sum()

    total = l_data + l_ode + l_ic
    comp = tuple(x.item() if isinstance(x, Var) else float(x)
                 for x in (l_data, l_ode, l_ic))
    return total, comp


def _positive_or_one(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, 1.0)


def build_problem(dataset: ConcentrationSeries, spec: EstimationSpec,
                  net_cfg: nn.NetworkConfig, train_cfg: TrainConfig) -> _Problem:
    """Loss constants, including the peak and ODE scales of the module
    docstring. A scale that would be zero (a compartment never observed
    above zero, or one without outflow) is replaced by 1."""
    plasma = dataset.plasma_profile()
    times = dataset.times
    obs = dataset.concentrations()
    peak = _positive_or_one(np.max(np.abs(obs), axis=1))
    mid = {p.name: 0.5 * (p.lo + p.hi) for p in spec.free}
    sys_m, drug_m = substitute(spec.base_sys, spec.base_drug, mid)
    outflow = -np.diag(assemble_matrix(sys_m, drug_m)) * volumes(sys_m)
    ode_scale = peak * _positive_or_one(outflow)
    w, n = train_cfg.weights, len(times)
    return _Problem(
        cfg=net_cfg, spec=spec, horizon=float(times[-1]), times=times,
        obs_u=obs / peak[:, None], y0_u=(obs[:, 0] / peak)[:, None],
        cart=linear_interp(plasma, times), peak=peak, ode_scale=ode_scale,
        w_data=(w.data / n)[:, None], w_ic=w.ic[:, None],
        w_ode=(w.ode / (n * ode_scale ** 2))[:, None])


# -- optimizers --------------------------------------------------------------

class AdamState:
    """Standard Adam (beta1=0.9, beta2=0.999, eps=1e-8), bias-corrected."""

    def __init__(self, arrays, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]

    def step(self, arrays, grads, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for a, g, m, v in zip(arrays, grads, self.m, self.v):
            if not np.all(np.isfinite(g)):
                raise NonFiniteGradient("adam-step")
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            a -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


@dataclass
class LBFGSResult:
    x: np.ndarray
    fval: float
    iterations: int
    line_search_failed: bool = False


def lbfgs_refine(loss_and_grad, x0: np.ndarray, max_iters: int,
                 tolerance: float = 1e-12, history: int = 10,
                 callback=None) -> LBFGSResult:
    """Two-loop-recursion L-BFGS with Armijo backtracking; returns the best
    point ever seen, so the loss never increases relative to the start."""
    x = np.asarray(x0, dtype=float).copy()
    f, g = loss_and_grad(x)
    best_x, best_f = x.copy(), f
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    failed = False
    it = 0
    while it < max_iters:
        if np.linalg.norm(g) <= tolerance:
            break
        q = g.copy()
        alphas = []
        for s, y in zip(reversed(s_hist), reversed(y_hist)):
            rho = 1.0 / (y @ s)
            a = rho * (s @ q)
            alphas.append((a, rho, s, y))
            q -= a * y
        if y_hist:
            y_last, s_last = y_hist[-1], s_hist[-1]
            q *= (s_last @ y_last) / (y_last @ y_last)
        for a, rho, s, y in reversed(alphas):
            b = rho * (y @ q)
            q += (a - b) * s
        d = -q
        if d @ g >= 0:  # not a descent direction; reset to steepest descent
            d = -g
            s_hist.clear()
            y_hist.clear()

        step = 1.0
        gd = g @ d
        accepted = False
        for _ in range(30):
            x_new = x + step * d
            f_new, g_new = loss_and_grad(x_new)
            if np.isfinite(f_new) and f_new <= f + 1e-4 * step * gd:
                accepted = True
                break
            step *= 0.5
        it += 1
        if not accepted:
            failed = True
            break
        s_vec = x_new - x
        y_vec = g_new - g
        if s_vec @ y_vec > 1e-16:
            s_hist.append(s_vec)
            y_hist.append(y_vec)
            if len(s_hist) > history:
                s_hist.pop(0)
                y_hist.pop(0)
        x, f, g = x_new, f_new, g_new
        if f < best_f:
            best_f, best_x = f, x.copy()
        if callback is not None:
            callback(it, f, x)
    return LBFGSResult(best_x, best_f, it, failed)


# -- training loop -----------------------------------------------------------

# Adam stops with TrainingDiverged once the loss exceeds this multiple of
# its starting value (or is not finite). The loss is nondimensional, but its
# starting size still depends on the network and the data.
_DIVERGENCE_FACTOR = 1e3


def _pack(arrays) -> np.ndarray:
    return np.concatenate([a.ravel() for a in arrays])


def _unpack(flat: np.ndarray, templates) -> list[np.ndarray]:
    out, i = [], 0
    for t in templates:
        out.append(flat[i:i + t.size].reshape(t.shape))
        i += t.size
    return out


def train(dataset: ConcentrationSeries, spec: EstimationSpec,
          net_cfg: nn.NetworkConfig, train_cfg: TrainConfig):
    """Adam on the composite loss, then optional L-BFGS refinement.

    Returns (trained Network, EstimationSpec with final raw values,
    RunArtifacts); the artifacts record how many L-BFGS iterations ran and
    whether the stage stopped on a failed line search. The network is
    trained in scaled coordinates and returned with the scales folded in:
    it maps t / horizon to concentrations. Deterministic under the
    configured seeds.
    """
    t_start = time.perf_counter()
    prob = build_problem(dataset, spec, net_cfg, train_cfg)
    net = nn.init_network(net_cfg)
    arrays = net.parameter_arrays()
    raws = [np.asarray(float(p.raw)) for p in spec.free]
    all_arrays = arrays + raws
    n_wb = len(arrays)

    artifacts = RunArtifacts(param_names=spec.names)

    def eval_loss(arrs):
        leaves = [Var(a, op=f"param{i}") for i, a in enumerate(arrs)]
        total, comp = _composite_loss(prob, leaves[:len(net.weights)],
                                      leaves[len(net.weights):n_wb],
                                      leaves[n_wb:])
        return total, comp, leaves

    def current_spec(arrs) -> EstimationSpec:
        free = [replace(p, raw=float(r)) for p, r in zip(spec.free, arrs[n_wb:])]
        return EstimationSpec(free=free, base_sys=spec.base_sys,
                              base_drug=spec.base_drug)

    def log(iteration, comp, arrs):
        ld, lo, li = comp
        values = list(current_spec(arrs).constrained_values().values())
        artifacts.log(iteration, ld, lo, li, ld + lo + li, values)

    adam = AdamState(all_arrays)
    try:
        total, comp, leaves = eval_loss(all_arrays)
        log(0, comp, all_arrays)
        cap = _DIVERGENCE_FACTOR * total.item()
        for it in range(1, train_cfg.iterations + 1):
            if not np.isfinite(total.value) or total.item() > cap:
                raise TrainingDiverged(it - 1, artifacts, "loss diverged")
            grads = grad(total, leaves)
            adam.step(all_arrays, grads, train_cfg.lr)
            total, comp, leaves = eval_loss(all_arrays)
            if it % train_cfg.log_stride == 0 or it == train_cfg.iterations:
                log(it, comp, all_arrays)
    except NonFiniteGradient as err:
        raise TrainingDiverged(adam.t, artifacts, str(err)) from err

    base_iter = train_cfg.iterations
    if train_cfg.lbfgs_iters > 0:
        templates = all_arrays

        done = 0  # L-BFGS iterations completed

        def loss_and_grad(flat):
            total, _, leaves = eval_loss(_unpack(flat, templates))
            if not np.isfinite(total.value):
                # an infinite trial loss makes the line search back off
                return math.inf, np.zeros_like(flat)
            try:
                return total.item(), _pack(grad(total, leaves))
            except NonFiniteGradient as err:
                raise TrainingDiverged(base_iter + done, artifacts,
                                       str(err)) from err

        def cb(it, f, x):
            nonlocal done
            done = it
            if it % train_cfg.log_stride == 0:
                arrs = _unpack(x, templates)
                log(base_iter + it, eval_loss(arrs)[1], arrs)

        result = lbfgs_refine(loss_and_grad, _pack(all_arrays),
                              train_cfg.lbfgs_iters, callback=cb)
        artifacts.lbfgs_iterations = result.iterations
        artifacts.lbfgs_line_search_failed = result.line_search_failed
        all_arrays = _unpack(result.x, templates)
        _, comp, _ = eval_loss(all_arrays)
        if not artifacts.loss_iters or \
                artifacts.loss_iters[-1] < base_iter + result.iterations + 1:
            log(base_iter + result.iterations + 1, comp, all_arrays)

    final_net = nn.fold_scales(
        nn.Network(net_cfg, [np.asarray(a) for a in all_arrays[:len(net.weights)]],
                   [np.asarray(a) for a in all_arrays[len(net.weights):n_wb]]),
        prob.horizon, prob.peak)
    final_spec = current_spec(all_arrays)
    artifacts.wall_seconds = time.perf_counter() - t_start
    return final_net, final_spec, artifacts
