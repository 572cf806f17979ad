"""Inverse-PINN training: composite loss, bounded parameters, Adam, L-BFGS.

Free physical parameters are trained through a sigmoid bounding transform
(value = lo + (hi - lo) * sigmoid(raw)), so they stay inside their bounds
at every iteration. Network weights, biases, and the raw parameter values
are updated jointly by full-batch Adam, optionally followed by an L-BFGS
refinement stage. Both work on one flat float64 vector theta: the weight
matrices in layer order, then the bias columns, then the raw values in the
order of ``EstimationSpec.free``, each array flattened in C order. The tape
leaves are views of theta (or of an L-BFGS trial point).

The loss is nondimensionalized with scales fixed once per problem by
``build_problem``, from the dataset and the bound midpoints only:

* ``peak_k``, the largest observed |C_k| of compartment k;
* ``ode_scale_k = peak_k * CL_k``, where CL_k is the total outflow
  clearance of compartment k (L/h, minus the diagonal of the amount-rate
  matrix M below) with every free parameter at its bound midpoint.

The trained network sees time t in hours and emits u_k = C_k / peak_k.
With one weight w per component, the three loss components are

    data = w_data * sum_k mean_i (u_k(t_i) - C_k,obs(t_i) / peak_k)^2
    ic   = w_ic   * sum_k (u_k(0) - C_k,obs(0) / peak_k)^2
    ode  = w_ode  * sum_k mean_j (r_k(t_j) / ode_scale_k)^2,
           r_k = V_k * dC_k/dt - net influx_k(C, Cart)   (amount form, mg/h)

at the data times t_i, which are also the collocation times t_j. The
amount form keeps a misfit from getting cheaper as a trainable volume
grows, which the rate form dC_k/dt - influx_k / V_k does. ``train`` folds
both scales into the network it returns (``network.fold_scales``), so that
network maps normalized time t / horizon to concentrations in mg/L.

The tape evaluates all four residuals at once, in matrix form. The net
influx is linear in (C, Cart), so influx(C, Cart) = M C + q Cart, with the
amount-rate matrix M and the forcing coefficients q of ``model.rates``;
with V the volumes, U the (4, N) network output and P = diag(peak),

    R = diag(V) P dU/dt - M P U - q Cart(t)^T.

One tape node (``_rate_node``) maps the raw free parameters to V, M and q
through ``model.rates`` and back-propagates through its exact Jacobian.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import network as nn
from .autodiff import NonFiniteGradient, Var, grad
from .dataio import ConcentrationSeries, RunArtifacts
from .model import rates
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
        if not -math.inf < self.lo < self.hi < math.inf:
            raise ValueError(f"{self.name}: bounds must be finite, lo < hi")


def _sigmoid_bound(free, raw):
    """(values, d values / d raw) of lo + (hi - lo) * sigmoid(raw) for the
    bounded parameters ``free`` at the raw values ``raw``, elementwise. A
    raw value below about -709 gives lo instead of overflowing."""
    lo = np.array([p.lo for p in free])
    span = np.array([p.hi for p in free]) - lo
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-np.asarray(raw, dtype=float)))
    return lo + span * s, span * s * (1.0 - s)


def constrain(p: BoundedParam) -> float:
    """lo + (hi - lo) * sigmoid(raw), in [lo, hi]."""
    return _sigmoid_bound([p], [p.raw])[0].item()


@dataclass
class EstimationSpec:
    """Free parameters plus the fixed values for everything else."""

    free: list[BoundedParam]
    base_sys: SystemParams = field(default_factory=SystemParams)
    base_drug: DrugParams = field(default_factory=DrugParams)

    def __post_init__(self):
        names = [p.name for p in self.free]
        if not names:
            raise ValueError("need at least one free parameter")
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

    def check_bounds(self) -> None:
        """Raise ValueError unless every box [lo, hi] is in its parameter's
        valid range."""
        for end in ("lo", "hi"):
            substitute(self.base_sys, self.base_drug,
                       {p.name: getattr(p, end) for p in self.free})


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
    ic: float = 1.0
    ode: float = 2.0
    data: float = 3.0

    def __post_init__(self):
        for name in ("ic", "ode", "data"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} weight must be finite and >= 0")
        if not (self.ic > 0 or self.ode > 0 or self.data > 0):
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
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError("learning rate must be finite and positive")
        if self.iterations < 0 or self.lbfgs_iters < 0:
            raise ValueError("iteration counts must be non-negative")
        if self.log_stride < 1:
            raise ValueError("log stride must be >= 1")


# -- composite tape loss -----------------------------------------------------

@dataclass
class _Problem:
    """Precomputed constants shared by every loss evaluation. ``times``
    (hours) are both the data and the collocation times; observations are
    divided by ``peak``. ``w_data`` = w_data / N and ``w_ic`` = w_ic are
    the weights of the data and IC terms, and ``w_ode`` is the (4, 1)
    column w_ode / (N * ode_scale^2)."""

    cfg: nn.NetworkConfig
    spec: EstimationSpec
    horizon: float
    times: np.ndarray
    obs_u: np.ndarray
    y0_u: np.ndarray
    cart: np.ndarray
    peak: np.ndarray
    ode_scale: np.ndarray
    w_data: float
    w_ic: float
    w_ode: np.ndarray


# imaginary step of the complex-step derivative in ``_rate_node``
_COMPLEX_STEP = 1e-30


def _rate_node(spec: EstimationSpec, raw_vars) -> Var:
    """One tape node from the raw free parameters to the (4, 6) array
    G = [M | q | V] of ``model.rates``: the amount-rate matrix M, the
    forcing coefficients q and the volumes V, so that
    V * dC/dt = M C + q Cart.

    G comes from one ``rates`` call on a complex batch: row 0 holds the
    constrained parameter values and row 1 + i adds an imaginary step to
    free parameter i, whose imaginary part is then the exact derivative
    (complex-step differentiation takes no difference, so nothing
    cancels). The chain through the sigmoid bound is applied
    analytically."""
    free, n = spec.free, len(spec.free)
    values, slopes = _sigmoid_bound(free, [r.item() for r in raw_vars])
    # (1 + n, n): row 0 the values, row 1 + i steps parameter i
    batch = values + 1j * _COMPLEX_STEP * np.eye(1 + n, n, -1)
    M, q, V = rates(*substitute(
        spec.base_sys, spec.base_drug,
        {p.name: batch[:, i, None] for i, p in enumerate(free)}))
    G = np.concatenate([M, q[..., None], V[..., None]], axis=-1)
    # d G / d raw_i, flattened to (n, 24)
    jac = (G[1:].imag / _COMPLEX_STEP).reshape(n, 24) * slopes[:, None]

    def back(g):
        return tuple(jac @ np.ravel(g))
    return Var(G[0].real, tuple(raw_vars), back, op="rates")


def _composite_loss(prob: _Problem, weight_vars, bias_vars, raw_vars):
    """Build the full loss graph in scaled coordinates (see the module
    docstring); returns (total Var, component floats). One dual forward
    pass gives the network values for the data and IC terms and the time
    derivatives for the ODE residual, which is skipped when the ODE weight
    is zero. Each term is one weighted sum over a (4, N) array, with the
    1/N of the means (and the ODE scales) folded into the weights."""
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
    above zero, or one without outflow) is replaced by 1. Raises
    ValueError if a free parameter's box leaves its valid range, which the
    sigmoid bound would otherwise let training reach."""
    spec.check_bounds()
    plasma = dataset.plasma_profile()
    times = dataset.times
    obs = dataset.concentrations()
    peak = _positive_or_one(np.max(np.abs(obs), axis=1))
    mid = {p.name: 0.5 * (p.lo + p.hi) for p in spec.free}
    M, _, _ = rates(*substitute(spec.base_sys, spec.base_drug, mid))
    outflow = -np.diag(M)
    ode_scale = peak * _positive_or_one(outflow)
    w, n = train_cfg.weights, len(times)
    return _Problem(
        cfg=net_cfg, spec=spec, horizon=float(times[-1]), times=times,
        obs_u=obs / peak[:, None], y0_u=(obs[:, 0] / peak)[:, None],
        cart=plasma.values, peak=peak, ode_scale=ode_scale,
        w_data=w.data / n, w_ic=w.ic,
        w_ode=(w.ode / (n * ode_scale ** 2))[:, None])


# -- optimizers --------------------------------------------------------------

class AdamState:
    """Standard bias-corrected Adam with the usual constants, on one flat
    parameter vector that ``step`` updates in place."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, theta: np.ndarray):
        self.t = 0
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)

    def step(self, theta: np.ndarray, g: np.ndarray, lr: float) -> None:
        self.t += 1
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient("adam-step")
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * g
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * (g * g)
        theta -= lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + self.eps)


@dataclass
class LBFGSResult:
    x: np.ndarray
    fval: float
    iterations: int
    line_search_failed: bool = False


def lbfgs_refine(loss_and_grad, x0: np.ndarray, max_iters: int,
                 callback=None) -> LBFGSResult:
    """Two-loop-recursion L-BFGS with Armijo backtracking; returns the best
    point ever seen, so the loss never increases relative to the start."""
    tolerance, history = 1e-12, 10  # gradient-norm stop, curvature pairs kept
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


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of the flat vector ``flat`` in the given shapes."""
    out, i = [], 0
    for shape in shapes:
        n = math.prod(shape)
        out.append(flat[i:i + n].reshape(shape))
        i += n
    return out


def train(dataset: ConcentrationSeries, spec: EstimationSpec,
          net_cfg: nn.NetworkConfig, train_cfg: TrainConfig):
    """Adam on the composite loss, then optional L-BFGS refinement, both on
    the flat vector theta of the module docstring.

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
    theta = np.concatenate(arrays + [[p.raw for p in spec.free]], axis=None)
    shapes = [a.shape for a in arrays] + [()] * len(spec.free)
    n_w, n_wb = len(net.weights), len(arrays)
    raw_at = theta.size - len(spec.free)  # where the raw tail starts
    base_iter = train_cfg.iterations
    done = 0  # optimizer iterations completed, Adam's then L-BFGS's
    artifacts = RunArtifacts(param_names=spec.names)

    def evaluate(x):
        """The loss graph at the flat point x: (total, components, leaves)."""
        leaves = [Var(a, op=f"param{i}") for i, a in enumerate(_views(x, shapes))]
        total, comp = _composite_loss(prob, leaves[:n_w], leaves[n_w:n_wb],
                                      leaves[n_wb:])
        return total, comp, leaves

    def gradient(total, leaves) -> np.ndarray:
        return np.concatenate(grad(total, leaves), axis=None)

    def log(iteration, comp, x):
        values = _sigmoid_bound(spec.free, x[raw_at:])[0].tolist()
        artifacts.log(iteration, *comp, sum(comp), values)

    def loss_and_grad(x):
        total, _, leaves = evaluate(x)
        if not np.isfinite(total.value):
            # an infinite trial loss makes the line search back off
            return math.inf, np.zeros_like(x)
        return total.item(), gradient(total, leaves)

    def cb(it, f, x):
        nonlocal done
        done = base_iter + it
        if it % train_cfg.log_stride == 0:
            log(done, evaluate(x)[1], x)

    adam = AdamState(theta)
    # an overflow is named by the loss cap, the line search's inf or
    # NonFiniteGradient below, not by a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            total, comp, leaves = evaluate(theta)
            cap = _DIVERGENCE_FACTOR * total.item()
            for it in range(base_iter + 1):
                if it > 0:
                    adam.step(theta, gradient(total, leaves), train_cfg.lr)
                    done = it
                    total, comp, leaves = evaluate(theta)
                # checked before logging: the log refuses a non-finite loss
                if not np.isfinite(total.value) or total.item() > cap:
                    raise TrainingDiverged(it, artifacts, "loss diverged")
                if it % train_cfg.log_stride == 0 or it == base_iter:
                    log(it, comp, theta)
            if train_cfg.lbfgs_iters > 0:
                result = lbfgs_refine(loss_and_grad, theta, train_cfg.lbfgs_iters,
                                      callback=cb)
                artifacts.lbfgs_iterations = result.iterations
                artifacts.lbfgs_line_search_failed = result.line_search_failed
                theta = result.x
                log(base_iter + result.iterations + 1, evaluate(theta)[1], theta)
        except NonFiniteGradient as err:
            raise TrainingDiverged(done, artifacts, str(err)) from err

    params = _views(theta, shapes)
    final_net = nn.fold_scales(
        nn.Network(net_cfg, params[:n_w], params[n_w:n_wb]),
        prob.horizon, prob.peak)
    final_spec = replace(spec, free=[replace(p, raw=float(r))
                                     for p, r in zip(spec.free, theta[raw_at:])])
    artifacts.wall_seconds = time.perf_counter() - t_start
    return final_net, final_spec, artifacts
