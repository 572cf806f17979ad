"""Inverse-PINN training: composite loss, bounded parameters, Adam, L-BFGS.

Free physical parameters are trained through a sigmoid bounding transform
(value = lo + (hi - lo) * sigmoid(raw)), so they stay inside their bounds
at every iteration. Network weights, biases, and the raw parameter values
are updated jointly by full-batch Adam, optionally followed by an L-BFGS
refinement stage. Both work on one flat float64 vector theta: the
network's flat parameter vector (``network.layer_views``), then the raw
values in the order of ``EstimationSpec.free``. The tape has two leaves,
views of those two parts of theta (or of an L-BFGS trial point).

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

The whole loss is one tape node (op ``"loss"``) whose parents are the
network's dual-pass node (over the network's leaf) and the raw leaf, at
every ODE weight (a zero weight makes the term and the raw adjoint zero);
its reverse pass is written out in the order a tape of one node per
operation would take, so every gradient keeps its bits. G = [M | q | V]
and its exact Jacobian dG/dv come from one ``model.rates`` call on a
complex-step batch (``_complex_step``), the trainer's only call into the
model. ``build_problem`` takes one batch at each corner of the box: when
their Jacobians agree, G is affine in the free values v (true of the
default set), so it keeps G at the ``lo`` corner as well, and each
evaluation forms

    G = G(lo) + sum_i (v_i - lo_i) dG/dv_i

with no ``rates`` call; otherwise every evaluation takes G and dG/dv from
one complex-step batch. The chain through the sigmoid bound is applied
analytically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import network as nn
from .autodiff import NonFiniteGradient, Var, grad
from .dataio import ConcentrationSeries, RunArtifacts
from .model import rates
from .params import ALL_PARAM_NAMES, reference_value, substitute


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


def _sigmoid_bound(lo, span, raw):
    """(values, d values / d raw) of lo + span * sigmoid(raw) for the boxes
    [lo, lo + span] at the raw values ``raw``, elementwise. A raw value
    below about -709 gives lo instead of overflowing."""
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-np.asarray(raw, dtype=float)))
    return lo + span * s, span * s * (1.0 - s)


def constrain(p: BoundedParam) -> float:
    """lo + (hi - lo) * sigmoid(raw), in [lo, hi]."""
    return _sigmoid_bound(p.lo, p.hi - p.lo, [p.raw])[0].item()


@dataclass
class EstimationSpec:
    """The free parameters; every other parameter keeps its reference
    value (``params.substitute``)."""

    free: list[BoundedParam]

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
            substitute({p.name: getattr(p, end) for p in self.free})


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
    column w_ode / (N * ode_scale^2). The boxes are [lo, lo + span].
    When G of ``_complex_step`` is affine in the free values, ``G_lo`` is G
    at ``lo``, flattened to (24,), and ``dG_dv`` its constant (n, 24)
    Jacobian; otherwise both are None."""

    cfg: nn.NetworkConfig
    spec: EstimationSpec
    horizon: float
    times: np.ndarray
    obs_u: np.ndarray
    cart: np.ndarray
    peak: np.ndarray
    ode_scale: np.ndarray
    w_data: float
    w_ic: float
    w_ode: np.ndarray
    lo: np.ndarray
    span: np.ndarray
    G_lo: np.ndarray | None
    dG_dv: np.ndarray | None


# imaginary step of the complex-step derivative in ``_complex_step``
_COMPLEX_STEP = 1e-30


def _complex_step(spec: EstimationSpec, values: np.ndarray):
    """(G, dG/dv) at the free values ``values``: the (4, 6) array
    G = [M | q | V] of ``model.rates`` (the amount-rate matrix M, the
    forcing coefficients q and the volumes V, so that
    V * dC/dt = M C + q Cart) and its exact Jacobian, flattened to (n, 24),
    from one ``rates`` call on a complex batch. Row 0 of the batch holds
    the values, so G has the bits of a real ``rates`` call; row 1 + i adds
    an imaginary step to free parameter i, whose imaginary part is then the
    derivative (complex-step differentiation takes no difference, so
    nothing cancels). A free parameter that enters no equation (QbulkCB)
    gets a zero row. The batch skips the range checks of ``substitute``,
    as the sigmoid bound keeps training inside the box."""
    n = len(values)
    batch = values + 1j * _COMPLEX_STEP * np.eye(1 + n, n, -1)
    M, q, V = rates(*substitute(dict(zip(spec.names, batch.T[..., None]))))
    G = np.concatenate([M, q[..., None], V[..., None]], axis=-1)
    # rates adds a batch axis only where some free value enters it
    G = np.broadcast_to(G, (1 + n, 4, 6))
    return G[0].real, (G[1:].imag / _COMPLEX_STEP).reshape(n, 24)


def _rate_terms(prob: _Problem, raw: np.ndarray):
    """(G, dG/draw) at the raw free values ``raw``: the chain through the
    sigmoid bound is applied to dG/dv analytically. A free set whose G is
    affine in the values (``prob.dG_dv`` set) takes G from ``prob.G_lo``
    and the offsets of the values from ``lo``, as a product summed over
    the free axis (elementwise, so no BLAS build changes its bits); any
    other takes the complex-step batch."""
    values, slopes = _sigmoid_bound(prob.lo, prob.span, raw)
    if prob.dG_dv is None:
        G, dG_dv = _complex_step(prob.spec, values)
    else:
        dG_dv = prob.dG_dv
        G = prob.G_lo + ((values - prob.lo)[:, None] * dG_dv).sum(axis=0)
        G = G.reshape(4, 6)
    return G, dG_dv * slopes[:, None]


def _composite_loss(prob: _Problem, params: Var, raw: Var):
    """The full loss in scaled coordinates (see the module docstring) as
    one tape node (op ``"loss"``) over the network node on the leaf
    ``params`` and the leaf ``raw`` of the raw values; returns (total Var,
    component floats). Each term is one weighted sum over a (4, N) array,
    with the 1/N of the means (and the ODE scales) in the weights; a zero
    ODE weight makes the ODE term 0 and the adjoint of ``raw`` zeros."""
    net = nn.forward_dual_tape(prob.cfg, params, prob.times)
    U, Udot = net.value[:4], net.value[4:]
    d_data = U - prob.obs_u
    d_ic = U[:, :1] - prob.obs_u[:, :1]
    l_data = (prob.w_data * d_data ** 2).sum()
    l_ic = (prob.w_ic * d_ic ** 2).sum()
    G, jac = _rate_terms(prob, raw.value)
    peak = prob.peak[:, None]
    G4, UP, UdP = G[:, :4], U * peak, Udot * peak
    resid = G[:, 5:] * UdP - G4 @ UP - G[:, 4:5] * prob.cart
    l_ode = (prob.w_ode * resid ** 2).sum()

    def back(g):
        # the per-op tape's order of operations, so every bit is kept
        g_U = g * prob.w_data * 2 * d_data
        g_r = g * prob.w_ode * 2 * resid
        neg = -g_r
        g_G = np.empty((4, 6))
        g_G[:, 5:] = (g_r * UdP).sum(axis=1, keepdims=True)
        g_G[:, :4] = neg @ UP.T
        g_G[:, 4:5] = (neg * prob.cart).sum(axis=1, keepdims=True)
        g_U += (G4.T @ neg) * peak
        g_Udot = (g_r * G[:, 5:]) * peak
        g_U[:, :1] += g * prob.w_ic * 2 * d_ic
        return np.concatenate([g_U, g_Udot]), jac @ g_G.ravel()

    total = Var(l_data + l_ode + l_ic, (net, raw), back, op="loss")
    return total, (float(l_data), float(l_ode), float(l_ic))


def _positive_or_one(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, 1.0)


def build_problem(dataset: ConcentrationSeries, spec: EstimationSpec,
                  net_cfg: nn.NetworkConfig, train_cfg: TrainConfig) -> _Problem:
    """Loss constants, including the peak and ODE scales of the module
    docstring. A scale that would be zero (a compartment never observed
    above zero, or one without outflow) is replaced by 1. Raises
    ValueError if a free parameter's box leaves its valid range, which the
    sigmoid bound would otherwise let training reach.

    Three ``_complex_step`` batches give every model term: G at the box
    midpoint (the outflow scales), and (G, dG/dv) at the all-lo and the
    all-hi corner. When the two Jacobians agree bit for bit, G is affine in
    the free values, and the Jacobian and G at the all-lo corner are kept
    for every step."""
    spec.check_bounds()
    plasma = dataset.plasma_profile()
    times = dataset.times
    obs = dataset.concentrations()
    peak = _positive_or_one(np.max(np.abs(obs), axis=1))
    box = np.array([[p.lo, p.hi] for p in spec.free])
    G_mid, _ = _complex_step(spec, 0.5 * (box[:, 0] + box[:, 1]))
    outflow = -np.diag(G_mid[:, :4])
    ode_scale = peak * _positive_or_one(outflow)
    w, n = train_cfg.weights, len(times)
    (G_lo, jac_lo), (_, jac_hi) = (_complex_step(spec, end) for end in box.T)
    affine = jac_lo.tobytes() == jac_hi.tobytes()
    return _Problem(
        cfg=net_cfg, spec=spec, horizon=float(times[-1]), times=times,
        obs_u=obs / peak[:, None], cart=plasma.values, peak=peak,
        ode_scale=ode_scale, w_data=w.data / n, w_ic=w.ic,
        w_ode=(w.ode / (n * ode_scale ** 2))[:, None],
        lo=box[:, 0], span=box[:, 1] - box[:, 0],
        G_lo=G_lo.ravel() if affine else None,
        dG_dv=jac_lo if affine else None)


# -- optimizers --------------------------------------------------------------

class AdamState:
    """Standard bias-corrected Adam with the usual constants, on one flat
    parameter vector that ``step`` updates in place. The gradient comes
    from ``autodiff.grad``, whose sweep has checked that it is finite."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, theta: np.ndarray):
        self.t = 0
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)

    def step(self, theta: np.ndarray, g: np.ndarray, lr: float) -> None:
        self.t += 1
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


def train(dataset: ConcentrationSeries, spec: EstimationSpec,
          net_cfg: nn.NetworkConfig, train_cfg: TrainConfig):
    """Adam on the composite loss, then optional L-BFGS refinement, both on
    the flat vector theta of the module docstring.

    Returns (trained Network, EstimationSpec with final raw values,
    RunArtifacts); the artifacts record how many L-BFGS iterations ran and
    whether the stage stopped on a failed line search. The network is
    trained in scaled coordinates and returned with the scales folded in:
    it maps t / horizon to concentrations. Deterministic under the
    configured seeds: no clock is read, so equal inputs give equal
    artifacts; the caller times the run.
    """
    prob = build_problem(dataset, spec, net_cfg, train_cfg)
    theta = np.concatenate(nn.init_network(net_cfg).parameter_arrays()
                           + [[p.raw for p in spec.free]], axis=None)
    raw_at = theta.size - len(spec.free)  # where the raw tail starts
    base_iter = train_cfg.iterations
    done = 0  # optimizer iterations completed, Adam's then L-BFGS's
    last_comp = ()  # loss components at the last point loss_and_grad scored
    artifacts = RunArtifacts(param_names=spec.names)

    def evaluate(x):
        """The loss graph at the flat point x: (total, components, leaves)."""
        leaves = Var(x[:raw_at]), Var(x[raw_at:])
        return (*_composite_loss(prob, *leaves), leaves)

    def gradient(total, leaves) -> np.ndarray:
        return np.concatenate(grad(total, leaves))

    def log(iteration, comp, x):
        values = _sigmoid_bound(prob.lo, prob.span, x[raw_at:])[0].tolist()
        artifacts.log(iteration, *comp, sum(comp), values)

    def loss_and_grad(x):
        nonlocal last_comp
        total, last_comp, leaves = evaluate(x)
        if not np.isfinite(total.value):
            # an infinite trial loss makes the line search back off
            return math.inf, np.zeros_like(x)
        return total.item(), gradient(total, leaves)

    def cb(it, f, x):
        nonlocal done
        done = base_iter + it
        if it % train_cfg.log_stride == 0:
            # x is the accepted trial point, the last one loss_and_grad scored
            log(done, last_comp, x)

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

    final_net = nn.fold_scales(
        nn.Network(net_cfg, *nn.layer_views(net_cfg, theta[:raw_at])),
        prob.horizon, prob.peak)
    final_spec = replace(spec, free=[replace(p, raw=float(r))
                                     for p, r in zip(spec.free, theta[raw_at:])])
    return final_net, final_spec, artifacts
