"""Fully-connected surrogate network Y(t_hat) with exact time derivatives.

The network maps normalized time (shape (1, N)) to the four compartment
concentrations (shape (4, N)). Hidden layers are affine + activation, the
output layer is affine. Each activation is written once, in
``activation``, as its value and its first two derivatives.

The network has one pass, ``_dual_pass`` on plain arrays, which carries
each layer's value and its time tangent (value, d/dt_hat) forward
together. Two paths call it:

* ``forward_with_time_derivative`` for prediction and testing
  (``forward`` is its Y), and
* ``forward_dual_tape`` for training, where the whole pass is one autodiff
  node (op ``"network"``) whose parent is the flat parameter leaf (see
  ``layer_views``). Its reverse pass reads the one record per layer that
  ``_dual_pass`` saved, and gives no adjoint to the constant input time.

So Y and dY/dt agree bit for bit between the two paths, and the node's
parameter adjoints are those of a tape that records every matmul, add and
activation as its own node.

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
from dataclasses import asdict, dataclass, fields
from itertools import accumulate

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


def layer_views(cfg: NetworkConfig, flat: np.ndarray | None = None):
    """(weights, biases) of the network ``cfg``, views of its flat parameter
    vector ``flat`` (new zeros if None) in ``Network.parameter_arrays``
    order: the (fan_out, fan_in) weights, then the biases, each in C order."""
    dims = [1] + [cfg.neurons] * cfg.hidden_layers + [4]
    shapes = [*zip(dims[1:], dims[:-1])] + [(m, 1) for m in dims[1:]]
    ends = list(accumulate(m * n for m, n in shapes))
    flat = np.zeros(ends[-1]) if flat is None else flat
    if ends[-1] != flat.size:
        raise ValueError(f"{flat.size} parameters for a network of {ends[-1]}")
    views = [flat[e - m * n:e].reshape(m, n) for (m, n), e in zip(shapes, ends)]
    return views[:len(dims) - 1], views[len(dims) - 1:]


def init_network(cfg: NetworkConfig) -> Network:
    """Glorot-initialized weights, zero biases, deterministic under seed."""
    rng = np.random.default_rng(cfg.seed)
    weights, biases = layer_views(cfg)
    for W in weights:
        fan_out, fan_in = W.shape
        if cfg.initializer == "glorot-uniform":
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            W[...] = rng.uniform(-limit, limit, size=W.shape)
        else:
            sd = np.sqrt(2.0 / (fan_in + fan_out))
            W[...] = rng.normal(0.0, sd, size=W.shape)
    return Network(cfg, weights, biases)


# -- the activation table ----------------------------------------------------

def activation(name: str, z: np.ndarray):
    """(f(z), f'(z), f'') of the hidden-layer activation ``name``,
    elementwise: f and f' as arrays, f'' as a function of f'. The one place
    each activation's calculus is written; the dual pass reads it. Only the
    reverse pass of ``forward_dual_tape`` calls f'': computed in the forward
    pass, it would keep one more (neurons, N) array per layer alive until
    the sweep, which slows a training step."""
    if name == "tanh":
        a = np.tanh(z)
        return a, 1.0 - a * a, lambda d1: -2.0 * a * d1
    if name == "sigmoid":
        with np.errstate(over="ignore"):  # exp(1000) = inf gives f = 0
            a = 1.0 / (1.0 + np.exp(-z))
        return a, a * (1.0 - a), lambda d1: d1 * (1.0 - 2.0 * a)
    if name == "relu":
        # subgradient 0 at exactly z = 0; f'' is 0 and broadcasts
        mask = z > 0
        return np.where(mask, z, 0.0), mask.astype(float), lambda d1: 0.0
    a = np.sin(z)
    return a, np.cos(z), lambda d1: -a


# -- numpy evaluation --------------------------------------------------------

def forward(net: Network, t_hat) -> np.ndarray:
    """Network output, shape (4, N) for N input times: the Y of
    ``forward_with_time_derivative``."""
    return forward_with_time_derivative(net, t_hat)[0]


def _dual_pass(name: str, weights, biases, t_hat):
    """(Y, dY/dt_hat, saved) of the network with activation ``name`` and
    the layer arrays ``weights``, ``biases`` at the times ``t_hat``, by
    dual propagation. ``saved`` holds one record per layer, what the
    reverse pass of ``forward_dual_tape`` reads: the input x and its
    tangent xdot that the layer saw and, for every layer but the first,
    the (zdot, f'(z), f'') of the activation x = f(z) that produced them."""
    x = np.asarray(t_hat, dtype=float).reshape(1, -1)
    xdot = np.ones_like(x)
    saved = [(x, xdot)]
    for W, b in zip(weights[:-1], biases[:-1]):
        x, d1, f2 = activation(name, W @ x + b)
        zdot = W @ xdot
        xdot = d1 * zdot
        saved.append((x, xdot, zdot, d1, f2))
    return weights[-1] @ x + biases[-1], weights[-1] @ xdot, saved


def forward_with_time_derivative(net: Network, t_hat):
    """(Y, dY/dt_hat), both shape (4, N); derivative by dual propagation."""
    return _dual_pass(net.config.activation, net.weights, net.biases,
                      t_hat)[:2]


# -- tape evaluation ---------------------------------------------------------

def forward_dual_tape(cfg: NetworkConfig, params: Var, t_hat):
    """Tape version of the dual forward pass: one node (op ``"network"``)
    over the flat parameter leaf ``params``, whose value stacks Y over
    dY/dt_hat, shape (8, N), so the sweep differentiates through dY/dt.

    From the adjoints of a layer's z and zdot, its reverse pass forms
    gW = g_z x^T + g_zd xdot^T (x, xdot the layer's input) and gb = sum of
    g_z over the times, then the adjoints gx = W^T g_z and gxd = W^T g_zd
    of the layer below, whose z and zdot get g_z = gx f' + gxd f''(f') zdot
    and g_zd = gxd f'. The adjoint of ``params`` is every gW, then every gb,
    in layer order. The first layer's input is the constant time, which gets
    no adjoint."""
    Ws, bs = layer_views(cfg, params.value)
    y, ydot, saved = _dual_pass(cfg.activation, Ws, bs, t_hat)

    def back(g):
        # from the output layer down, one saved record per layer
        g_z, g_zd = g[:4], g[4:]
        gW, gb = [], []
        for W, (x, xdot, *below) in zip(Ws[::-1], saved[::-1]):
            gW.append(g_z @ x.T + g_zd @ xdot.T)
            gb.append(g_z.sum(axis=1, keepdims=True))
            if below:
                zdot, d1, f2 = below
                gx, gxd = W.T @ g_z, W.T @ g_zd
                g_zd = gxd * d1
                g_z = gx * d1 + gxd * f2(d1) * zdot
        # the flat adjoint is made last: one taken before the layers' arrays
        # makes glibc shrink and regrow the heap at every training step
        return (np.concatenate(gW[::-1] + gb[::-1], axis=None),)

    return Var(np.concatenate([y, ydot]), (params,), back, op="network")


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
        if "config" not in data:
            raise ValueError(f"{path}: no config")
        config = {k: v for k, v in json.loads(str(data["config"])).items()
                  if k not in ("input_dim", "output_dim")}
        omega = config.pop("omega", 1.0)
        if omega != 1.0:
            raise ValueError(f"{path}: sin frequency omega {omega!r} is not 1")
        unknown = sorted(set(config) - {f.name for f in fields(NetworkConfig)})
        if unknown:
            raise ValueError(f"{path}: unknown config keys {unknown}")
        cfg = NetworkConfig(**config)
        weights, biases = layer_views(cfg)
        keys = [f"{k}{i}" for k in "Wb" for i in range(len(weights))]
        for key, view in zip(keys, weights + biases):
            if key not in data:
                raise ValueError(f"{path}: no array {key}")
            array = data[key]
            if array.shape != view.shape:
                raise ValueError(f"{path}: {key} has shape {array.shape}, "
                                 f"not {view.shape}")
            view[...] = array
    return Network(cfg, weights, biases)
