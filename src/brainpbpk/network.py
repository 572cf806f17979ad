"""Fully-connected surrogate network Y(t_hat) with exact time derivatives.

The network maps normalized time (shape (1, N)) to the four compartment
concentrations (shape (4, N)). Hidden layers are affine + activation, the
output layer is affine. Each activation is written once, in
``activation``, as its value and its first two derivatives (computed only
on request), and both evaluation paths read it:

* plain numpy (``forward`` / ``forward_with_time_derivative``) for
  prediction and testing, and
* tape-recorded (``forward_dual_tape``) for training, where weights and
  biases are autodiff ``Var`` leaves and a layer's activation is two
  nodes: the value f(z), and the tangent f'(z) zdot, whose adjoint to z
  is where f''(z) enters.

Both paths compute the same values in the same order, so Y and dY/dt
agree bit for bit.

Training works in scaled coordinates: the trained network sees time in
hours and emits concentrations divided by each compartment's observed
peak. ``fold_scales`` moves both scales into the first and last layers, so
the network that training returns (and that ``network.npz`` holds) maps
normalized time to concentrations in mg/L.

Checkpoint format (.npz): key ``config`` holds the JSON-encoded
NetworkConfig (older ones also hold ``input_dim`` = 1, ``output_dim`` = 4
and the sin frequency ``omega`` = 1, which ``load_network`` checks and
drops); keys ``W0..Wk`` / ``b0..bk`` hold the layer arrays.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import Var

ACTIVATIONS = ("tanh", "sigmoid", "relu", "sin")
INITIALIZERS = ("glorot-uniform", "glorot-normal")


@dataclass(frozen=True)
class NetworkConfig:
    hidden_layers: int = 6
    neurons: int = 50
    activation: str = "tanh"
    initializer: str = "glorot-normal"
    seed: int = 0

    def __post_init__(self):
        if self.hidden_layers < 1 or self.neurons < 1:
            raise ValueError("need at least one hidden layer and one neuron")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        if self.initializer not in INITIALIZERS:
            raise ValueError(f"initializer must be one of {INITIALIZERS}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass
class Network:
    config: NetworkConfig
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def parameter_arrays(self) -> list[np.ndarray]:
        return list(self.weights) + list(self.biases)

    def copy(self) -> "Network":
        return Network(self.config, [w.copy() for w in self.weights],
                       [b.copy() for b in self.biases])


def init_network(cfg: NetworkConfig) -> Network:
    """Glorot-initialized weights, zero biases, deterministic under seed."""
    rng = np.random.default_rng(cfg.seed)
    dims = [1] + [cfg.neurons] * cfg.hidden_layers + [4]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        if cfg.initializer == "glorot-uniform":
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            W = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        else:
            sd = np.sqrt(2.0 / (fan_in + fan_out))
            W = rng.normal(0.0, sd, size=(fan_out, fan_in))
        weights.append(W)
        biases.append(np.zeros((fan_out, 1)))
    return Network(cfg, weights, biases)


# -- the activation table ----------------------------------------------------

def activation(name: str, z: np.ndarray):
    """(f(z), f', f'') of the hidden-layer activation ``name``,
    elementwise. The one place each activation's
    calculus is written: the numpy passes and the tape read it. f' comes
    as a function of no arguments and f'' as a function of f', so each is
    computed only by a pass that needs it."""
    if name == "tanh":
        a = np.tanh(z)
        return a, lambda: 1.0 - a * a, lambda d1: -2.0 * a * d1
    if name == "sigmoid":
        with np.errstate(over="ignore"):  # exp(1000) = inf gives f = 0
            a = 1.0 / (1.0 + np.exp(-z))
        return a, lambda: a * (1.0 - a), lambda d1: d1 * (1.0 - 2.0 * a)
    if name == "relu":
        # subgradient 0 at exactly z = 0; f'' is 0 and broadcasts
        mask = z > 0
        return np.where(mask, z, 0.0), lambda: mask.astype(float), lambda d1: 0.0
    a = np.sin(z)
    return a, lambda: np.cos(z), lambda d1: -a


# -- numpy evaluation --------------------------------------------------------

def _as_input(t_hat) -> np.ndarray:
    x = np.atleast_1d(np.asarray(t_hat, dtype=float))
    return x.reshape(1, -1)


def forward(net: Network, t_hat) -> np.ndarray:
    """Network output, shape (4, N) for N input times."""
    cfg = net.config
    x = _as_input(t_hat)
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        x = activation(cfg.activation, W @ x + b)[0]
    return net.weights[-1] @ x + net.biases[-1]


def forward_with_time_derivative(net: Network, t_hat):
    """(Y, dY/dt_hat), both shape (4, N); derivative by dual propagation."""
    cfg = net.config
    x = _as_input(t_hat)
    xdot = np.ones_like(x)
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        x, d1, _ = activation(cfg.activation, W @ x + b)
        xdot = d1() * (W @ xdot)
    return net.weights[-1] @ x + net.biases[-1], net.weights[-1] @ xdot


# -- tape evaluation ---------------------------------------------------------

def _act_tape_dual(name: str, z: Var, zdot: Var):
    """A layer's activation as two tape nodes with analytic adjoints: the
    value a = f(z), and the tangent f'(z) zdot, whose adjoints to z and
    zdot are g f''(z) zdot and g f'(z)."""
    a, f1, f2 = activation(name, z.value)
    d1, zd = f1(), zdot.value
    value = Var(a, (z,), lambda g: (g * d1,), op=name)
    tangent = Var(d1 * zd, (z, zdot), lambda g: (g * f2(d1) * zd, g * d1),
                  op=f"{name}-tangent")
    return value, tangent


def forward_dual_tape(cfg: NetworkConfig, weights: list[Var],
                      biases: list[Var], t_hat):
    """Tape version of the dual forward pass: returns (Y, dY/dt_hat) as Vars
    so the reverse sweep differentiates through the time derivative."""
    x = Var(_as_input(t_hat), op="input")
    xdot = Var(np.ones_like(x.value), op="input-tangent")
    for W, b in zip(weights[:-1], biases[:-1]):
        x, xdot = _act_tape_dual(cfg.activation, W @ x + b, W @ xdot)
    return weights[-1] @ x + biases[-1], weights[-1] @ xdot


def fold_scales(net: Network, input_scale: float, output_scale) -> Network:
    """The network x -> diag(output_scale) * net(input_scale * x), with the
    scales folded into the parameters: W0 <- input_scale * W0 and the last
    layer (W, b) <- diag(output_scale) * (W, b)."""
    out = np.asarray(output_scale, dtype=float).reshape(-1, 1)
    folded = net.copy()
    folded.weights[0] *= input_scale
    folded.weights[-1] *= out
    folded.biases[-1] *= out
    return folded


# -- checkpointing -----------------------------------------------------------

def save_network(net: Network, path) -> None:
    arrays = {f"W{i}": w for i, w in enumerate(net.weights)}
    arrays.update({f"b{i}": b for i, b in enumerate(net.biases)})
    np.savez(path, config=json.dumps(asdict(net.config)), **arrays)


def load_network(path) -> Network:
    with np.load(path, allow_pickle=False) as data:
        fields = json.loads(str(data["config"]))
        omega = fields.pop("omega", 1.0)
        if omega != 1.0:
            raise ValueError(f"{path}: sin frequency omega {omega!r} is not 1")
        cfg = NetworkConfig(**{k: v for k, v in fields.items()
                               if k not in ("input_dim", "output_dim")})
        n_layers = cfg.hidden_layers + 1
        weights = [data[f"W{i}"] for i in range(n_layers)]
        biases = [data[f"b{i}"] for i in range(n_layers)]
    return Network(cfg, weights, biases)
