"""Fully-connected surrogate network Y(t_hat) with exact time derivatives.

The network maps normalized time (shape (1, N)) to the four compartment
concentrations (shape (4, N)). Hidden layers are affine + activation, the
output layer is affine. Two evaluation paths exist:

* plain numpy (``forward`` / ``forward_with_time_derivative``) for
  prediction and testing, and
* tape-recorded (``forward_dual_tape``) for training, where weights and
  biases are autodiff ``Var`` leaves.

Both paths execute the same operations in the same order, so their value
outputs agree bit for bit.

Training works in scaled coordinates: the trained network sees time in
hours and emits concentrations divided by each compartment's observed
peak. ``fold_scales`` moves both scales into the first and last layers, so
the network that training returns (and that ``network.npz`` holds) maps
normalized time to concentrations in mg/L.

Checkpoint format (.npz): key ``config`` holds the JSON-encoded
NetworkConfig; keys ``W0..Wk`` / ``b0..bk`` hold the layer arrays.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Var

ACTIVATIONS = ("tanh", "sigmoid", "relu", "sin")
INITIALIZERS = ("glorot-uniform", "glorot-normal")


@dataclass(frozen=True)
class NetworkConfig:
    hidden_layers: int = 6
    neurons: int = 50
    activation: str = "tanh"
    initializer: str = "glorot-normal"
    omega: float = 1.0
    seed: int = 0
    input_dim: int = 1
    output_dim: int = 4

    def __post_init__(self):
        if self.hidden_layers < 1 or self.neurons < 1:
            raise ValueError("need at least one hidden layer and one neuron")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        if self.initializer not in INITIALIZERS:
            raise ValueError(f"initializer must be one of {INITIALIZERS}")
        if self.omega <= 0:
            raise ValueError("sin frequency must be positive")


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
    dims = [cfg.input_dim] + [cfg.neurons] * cfg.hidden_layers + [cfg.output_dim]
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


# -- numpy evaluation --------------------------------------------------------

def _act(name: str, omega: float, z: np.ndarray) -> np.ndarray:
    if name == "tanh":
        return np.tanh(z)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    if name == "relu":
        return np.where(z > 0, z, 0.0)
    return np.sin(omega * z)


def _act_dual(name: str, omega: float, z: np.ndarray, zdot: np.ndarray):
    if name == "tanh":
        a = np.tanh(z)
        return a, (1.0 - a * a) * zdot
    if name == "sigmoid":
        a = 1.0 / (1.0 + np.exp(-z))
        return a, a * (1.0 - a) * zdot
    if name == "relu":
        mask = z > 0
        return np.where(mask, z, 0.0), mask * zdot
    a = np.sin(omega * z)
    return a, omega * np.cos(omega * z) * zdot


def _as_input(t_hat) -> np.ndarray:
    x = np.atleast_1d(np.asarray(t_hat, dtype=float))
    return x.reshape(1, -1)


def forward(net: Network, t_hat) -> np.ndarray:
    """Network output, shape (4, N) for N input times."""
    cfg = net.config
    x = _as_input(t_hat)
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        x = _act(cfg.activation, cfg.omega, W @ x + b)
    return net.weights[-1] @ x + net.biases[-1]


def forward_with_time_derivative(net: Network, t_hat):
    """(Y, dY/dt_hat), both shape (4, N); derivative by dual propagation."""
    cfg = net.config
    x = _as_input(t_hat)
    xdot = np.ones_like(x)
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        x, xdot = _act_dual(cfg.activation, cfg.omega, W @ x + b, W @ xdot)
    return net.weights[-1] @ x + net.biases[-1], net.weights[-1] @ xdot


# -- tape evaluation ---------------------------------------------------------

def _act_tape_dual(name: str, omega: float, z: Var, zdot: Var):
    if name == "tanh":
        a = ad.tanh(z)
        return a, (1.0 - a * a) * zdot
    if name == "sigmoid":
        a = ad.sigmoid(z)
        return a, a * (1.0 - a) * zdot
    if name == "relu":
        mask = Var(z.value > 0, op="relu-mask")
        return ad.relu(z), mask * zdot
    a = ad.sin(omega * z)
    return a, omega * ad.cos(omega * z) * zdot


def forward_dual_tape(cfg: NetworkConfig, weights: list[Var],
                      biases: list[Var], t_hat):
    """Tape version of the dual forward pass: returns (Y, dY/dt_hat) as Vars
    so the reverse sweep differentiates through the time derivative."""
    x = Var(_as_input(t_hat), op="input")
    xdot = Var(np.ones_like(x.value), op="input-tangent")
    for W, b in zip(weights[:-1], biases[:-1]):
        x, xdot = _act_tape_dual(cfg.activation, cfg.omega, W @ x + b, W @ xdot)
    return weights[-1] @ x + biases[-1], weights[-1] @ xdot


def fold_scales(net: Network, input_scale: float, output_scale) -> Network:
    """The network x -> diag(output_scale) * net(input_scale * x), with the
    scales folded into the parameters: W0 <- input_scale * W0 and the last
    layer (W, b) <- diag(output_scale) * (W, b)."""
    out = np.asarray(output_scale, dtype=float).reshape(-1, 1)
    weights = [w.copy() for w in net.weights]
    biases = [b.copy() for b in net.biases]
    weights[0] = weights[0] * input_scale
    weights[-1] = out * weights[-1]
    biases[-1] = out * biases[-1]
    return Network(net.config, weights, biases)


# -- checkpointing -----------------------------------------------------------

def save_network(net: Network, path) -> None:
    arrays = {f"W{i}": w for i, w in enumerate(net.weights)}
    arrays.update({f"b{i}": b for i, b in enumerate(net.biases)})
    np.savez(path, config=json.dumps(asdict(net.config)), **arrays)


def load_network(path) -> Network:
    with np.load(path, allow_pickle=False) as data:
        cfg = NetworkConfig(**json.loads(str(data["config"])))
        n_layers = cfg.hidden_layers + 1
        weights = [data[f"W{i}"] for i in range(n_layers)]
        biases = [data[f"b{i}"] for i in range(n_layers)]
    return Network(cfg, weights, biases)
