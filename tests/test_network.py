import hashlib
import json
import re
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from brainpbpk.autodiff import NonFiniteGradient, Var, backward, grad
from brainpbpk.network import (ACTIVATIONS, Network, NetworkConfig,
                               activation, fold_scales, forward,
                               forward_dual_tape, forward_with_time_derivative,
                               init_network, layer_views, load_network,
                               save_network)
from brainpbpk.params import DrugParams, SystemParams
from brainpbpk.solvers import synthesize_dataset


def wrap(net):
    """The tape leaf of the network's flat parameter vector."""
    return Var(np.concatenate(net.parameter_arrays(), axis=None))


def split(node):
    """(Y, dY/dt_hat) of the (8, N) network node, as two index nodes."""
    return node[:4], node[4:]


# -- the dual pass recorded op by op: the oracle of the one network node -----

def _act_tape_dual(name, z, zdot):
    """A layer's activation as two tape nodes with analytic adjoints: the
    value a = f(z), and the tangent f'(z) zdot, whose adjoints to z and
    zdot are g f''(z) zdot and g f'(z)."""
    a, d1, f2 = activation(name, z.value)
    zd = zdot.value
    value = Var(a, (z,), lambda g: (g * d1,), op=name)
    tangent = Var(d1 * zd, (z, zdot), lambda g: (g * f2(d1) * zd, g * d1),
                  op=f"{name}-tangent")
    return value, tangent


def oracle_dual_tape(cfg, weights, biases, t_hat):
    """(Y, dY/dt_hat) with every matmul, add and activation its own tape
    node, the input time and its unit tangent included."""
    x = Var(np.asarray(t_hat, dtype=float).reshape(1, -1), op="input")
    xdot = Var(np.ones_like(x.value), op="input-tangent")
    for W, b in zip(weights[:-1], biases[:-1]):
        x, xdot = _act_tape_dual(cfg.activation, W @ x + b, W @ xdot)
    return weights[-1] @ x + biases[-1], weights[-1] @ xdot


class TestInit:
    def test_shapes(self):
        net = init_network(NetworkConfig(hidden_layers=3, neurons=7))
        assert [w.shape for w in net.weights] == \
            [(7, 1), (7, 7), (7, 7), (4, 7)]
        assert all(b.shape == (w.shape[0], 1)
                   for w, b in zip(net.weights, net.biases))

    def test_biases_zero(self):
        net = init_network(NetworkConfig())
        assert all(np.all(b == 0.0) for b in net.biases)

    def test_seed_determinism(self):
        a = init_network(NetworkConfig(seed=3))
        b = init_network(NetworkConfig(seed=3))
        c = init_network(NetworkConfig(seed=4))
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
        assert not all(np.array_equal(x, y)
                       for x, y in zip(a.weights, c.weights))

    def test_glorot_uniform_bounds(self):
        cfg = NetworkConfig(hidden_layers=2, neurons=50,
                            initializer="glorot-uniform", seed=0)
        net = init_network(cfg)
        W = net.weights[1]  # 50 x 50
        limit = np.sqrt(6.0 / 100)
        assert np.all(np.abs(W) <= limit)
        assert np.std(W) == pytest.approx(limit / np.sqrt(3), rel=0.1)

    def test_glorot_normal_spread(self):
        cfg = NetworkConfig(hidden_layers=2, neurons=50,
                            initializer="glorot-normal", seed=0)
        W = init_network(cfg).weights[1]
        assert np.std(W) == pytest.approx(np.sqrt(2.0 / 100), rel=0.1)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            NetworkConfig(hidden_layers=0)
        with pytest.raises(ValueError):
            NetworkConfig(activation="cosine")
        with pytest.raises(ValueError):
            NetworkConfig(initializer="he")
        with pytest.raises(ValueError, match="seed must be non-negative"):
            NetworkConfig(seed=-1)


class TestForward:
    def test_output_shape(self):
        net = init_network(NetworkConfig(hidden_layers=2, neurons=5))
        assert forward(net, np.linspace(0, 1, 9)).shape == (4, 9)
        assert forward(net, 0.5).shape == (4, 1)

    def test_linear_by_hand(self):
        # one hidden relu neuron with hand-set weights: y = 2*relu(3t+1) + 4
        cfg = NetworkConfig(hidden_layers=1, neurons=1, activation="relu")
        net = Network(cfg, [np.array([[3.0]]),
                            np.full((4, 1), 2.0)],
                      [np.array([[1.0]]), np.full((4, 1), 4.0)])
        t = np.array([-1.0, 0.0, 1.0])
        expected = 2.0 * np.maximum(3.0 * t + 1.0, 0.0) + 4.0
        assert np.allclose(forward(net, t), expected)

    @pytest.mark.parametrize("act, digest", [
        ("tanh",
         "c3416b446b7cabadc573781f64b2ecaad1234b81d37c8a38c266f943c816c7b2"),
        ("sigmoid",
         "462f3cbecabd1d5381acb67cbffa9d02d0cc07d06749590f477a85964490da8f"),
        ("relu",
         "3620cc8d01e2cc1b476b240a84589449b0c6d3924c5b8823de343b30a2679904"),
        ("sin",
         "ea8cc35a1c1e738342cfd86fb37f4184e43e61af9f73e823b7e7c063505237bc")])
    def test_output_bits(self, act, digest):
        # the prediction.csv path, pinned to the bit: SHA-256 of the output
        # of a 2x50 network with random biases at the 200 reference times
        # over their 48 h horizon, as C-order float64 bytes
        times = synthesize_dataset(SystemParams(), DrugParams(),
                                   n_points=200).times
        net = init_network(NetworkConfig(hidden_layers=2, neurons=50,
                                         activation=act, seed=0))
        rng = np.random.default_rng(3)
        for b in net.biases:
            b += rng.normal(0.0, 0.3, b.shape)
        y = forward(net, times / 48.0)
        assert hashlib.sha256(y.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("act", ACTIVATIONS)
    def test_dual_tape_matches_numpy_bitwise(self, act):
        net = init_network(NetworkConfig(hidden_layers=2, neurons=6,
                                         activation=act, seed=2))
        t = np.linspace(0, 1, 7)
        y_np, dy_np = forward_with_time_derivative(net, t)
        out = forward_dual_tape(net.config, wrap(net), t)
        assert np.array_equal(out.value, np.concatenate([y_np, dy_np]))


class TestTimeDerivative:
    @pytest.mark.parametrize("act", ["tanh", "sigmoid", "sin"])
    def test_matches_finite_differences(self, act):
        net = init_network(NetworkConfig(hidden_layers=3, neurons=10,
                                         activation=act, seed=0))
        t = np.linspace(0.05, 0.95, 9)
        _, dy = forward_with_time_derivative(net, t)
        eps = 1e-6
        fd = (forward(net, t + eps) - forward(net, t - eps)) / (2 * eps)
        assert np.max(np.abs(dy - fd)) < 1e-7

    def test_relu_derivative_piecewise(self):
        net = init_network(NetworkConfig(hidden_layers=2, neurons=10,
                                         activation="relu", seed=3))
        t = np.linspace(0.1, 0.9, 5)
        _, dy = forward_with_time_derivative(net, t)
        eps = 1e-7
        fd = (forward(net, t + eps) - forward(net, t - eps)) / (2 * eps)
        assert np.max(np.abs(dy - fd)) < 1e-5

    @pytest.mark.parametrize("act", ACTIVATIONS)
    def test_gradient_through_derivative(self, act):
        # a loss on both Y and dY/dt reaches both halves of the network
        # node's adjoint; every weight and bias entry is checked
        cfg = NetworkConfig(hidden_layers=2, neurons=4, activation=act,
                            seed=5)
        net = init_network(cfg)
        rng = np.random.default_rng(1)
        for b in net.biases:
            b += rng.normal(0.0, 0.3, b.shape)
        t = np.linspace(0.05, 0.95, 6)

        def loss_value(nets):
            y, dy = forward_with_time_derivative(nets, t)
            return float(np.sum(y * dy) + np.sum(dy ** 2))

        params = wrap(net)
        y, dy = split(forward_dual_tape(cfg, params, t))
        backward((y * dy).sum() + (dy * dy).sum())

        eps = 1e-6
        for kind, grads in zip(("weights", "biases"),
                               layer_views(cfg, params.grad)):
            for li, g in enumerate(grads):
                for idx in np.ndindex(g.shape):
                    pert = net.copy()
                    getattr(pert, kind)[li][idx] += eps
                    up = loss_value(pert)
                    pert = net.copy()
                    getattr(pert, kind)[li][idx] -= eps
                    down = loss_value(pert)
                    fd = (up - down) / (2 * eps)
                    assert g[idx] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_relu_subgradient_zero_at_zero(self):
        # one relu neuron, z = 3t + 0: at t = 0 it sits on the kink, where
        # f' is 0, so only t = 1 reaches the gradient and dY/dt is 0 at t = 0
        cfg = NetworkConfig(hidden_layers=1, neurons=1, activation="relu")
        params = wrap(Network(cfg, [np.array([[3.0]]), np.full((4, 1), 2.0)],
                              [np.array([[0.0]]), np.zeros((4, 1))]))
        y, dy = split(forward_dual_tape(cfg, params, [0.0, 1.0]))
        assert np.array_equal(dy.value, np.tile([0.0, 6.0], (4, 1)))
        backward((y + dy).sum())
        gws, gbs = layer_views(cfg, params.grad)
        # d/db0 = 4 rows x 2 (via Y); d/dW0 = that x t + 4 x 2 (via dY/dt)
        assert gbs[0][0, 0] == 8.0
        assert gws[0][0, 0] == 16.0


class TestNetworkNode:
    # a loss on Y only or on dY/dt only leaves one half of the node's
    # (8, N) adjoint zero
    LOSSES = {
        "value": lambda w, y, dy: (w * y ** 2).sum(),
        "tangent": lambda w, y, dy: (w * dy ** 2).sum(),
        "both": lambda w, y, dy: (w * (y - 0.5) ** 2).sum()
        + (w * (y * dy)).sum() + y[:, :1].sum(),
    }

    @pytest.mark.parametrize("loss", sorted(LOSSES))
    @pytest.mark.parametrize("layers", [1, 3])
    @pytest.mark.parametrize("act", ACTIVATIONS)
    def test_matches_per_op_tape_bitwise(self, act, layers, loss):
        cfg = NetworkConfig(hidden_layers=layers, neurons=6, activation=act,
                            seed=layers)
        net = init_network(cfg)
        rng = np.random.default_rng(7)
        for b in net.biases:
            b += rng.normal(0.0, 0.3, b.shape)
        t = np.linspace(0.0, 1.0, 11)
        w = rng.uniform(0.5, 2.0, (4, t.size))
        # the flat adjoint against the oracle's per-array adjoints, laid
        # out in the network's flat order
        params = wrap(net)
        y, dy = split(forward_dual_tape(cfg, params, t))
        got = [y.value, dy.value, *grad(self.LOSSES[loss](w, y, dy), [params])]
        ws = [Var(a) for a in net.weights]
        bs = [Var(a) for a in net.biases]
        y, dy = oracle_dual_tape(cfg, ws, bs, t)
        want = [y.value, dy.value, np.concatenate(
            grad(self.LOSSES[loss](w, y, dy), ws + bs), axis=None)]
        assert got[2].shape == (params.value.size,)
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a, b)

    def test_one_node_over_the_parameters(self):
        net = init_network(NetworkConfig(hidden_layers=3, neurons=4))
        params = wrap(net)
        node = forward_dual_tape(net.config, params, np.linspace(0, 1, 5))
        assert node.op == "network" and node.shape == (8, 5)
        # no adjoint goes to the input time: it is not on the tape
        assert node.parents == (params,)

    def test_layer_views_in_parameter_order(self):
        # the flat layout is Network.parameter_arrays, flattened in C order,
        # and every layer array is a view of the flat vector
        cfg = NetworkConfig(hidden_layers=3, neurons=4, seed=1)
        net = init_network(cfg)
        flat = np.concatenate(net.parameter_arrays(), axis=None)
        ws, bs = layer_views(cfg, flat)
        assert len(ws) == len(bs) == 4
        for view, array in zip(ws + bs, net.parameter_arrays(), strict=True):
            assert view.shape == array.shape and np.array_equal(view, array)
            assert np.shares_memory(view, flat)
        with pytest.raises(ValueError, match="^69 parameters for a network "
                                             "of 68$"):
            layer_views(cfg, np.zeros(flat.size + 1))

    def test_reverse_only_overflow_names_the_node(self):
        # sin keeps every forward value finite, but the adjoint of the first
        # layer's output, W1^T g_z = 1e304 * 4e5 cos(z), overflows
        cfg = NetworkConfig(hidden_layers=2, neurons=1, activation="sin")
        net = Network(cfg, [np.array([[1e-3]]), np.array([[1e304]]),
                            np.full((4, 1), 1e5)],
                      [np.array([[0.3]]), np.array([[0.0]]), np.zeros((4, 1))])
        node = forward_dual_tape(cfg, wrap(net), [0.2, 0.7])
        assert np.all(np.isfinite(node.value))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteGradient) as err:
            backward(node[:4].sum())
        assert err.value.op == "network"


class TestActivationTable:
    @pytest.mark.parametrize("act", ACTIVATIONS)
    def test_derivatives_match_finite_differences(self, act):
        z = np.linspace(-2.0, 2.0, 9) + 0.05   # clear of relu's kink
        _, d1, f2 = activation(act, z)
        eps = 1e-5
        up, down = activation(act, z + eps), activation(act, z - eps)
        assert np.allclose(d1, (up[0] - down[0]) / (2 * eps), atol=1e-8)
        assert np.allclose(f2(d1), (up[1] - down[1]) / (2 * eps), atol=1e-8)

    def test_sigmoid_saturates_without_warning(self):
        # exp(1000) overflows to inf; f is still exactly 0 there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a, d1, _ = activation("sigmoid", np.array([-1000.0, 1000.0]))
        assert a.tolist() == [0.0, 1.0]
        assert d1.tolist() == [0.0, 0.0]


class TestFoldScales:
    @pytest.mark.parametrize("act", ACTIVATIONS)
    def test_folded_equals_scaled_composition(self, act):
        net = init_network(NetworkConfig(hidden_layers=2, neurons=5,
                                         activation=act, seed=4))
        scale = np.array([2.0, 0.5, 3.0, 1e-3])
        folded = fold_scales(net, 48.0, scale)
        t = np.linspace(0.0, 48.0, 13)
        Y, dY = forward_with_time_derivative(folded, t / 48.0)
        U, dU = forward_with_time_derivative(net, t)
        # relative to each row's largest entry: the sums over hidden units
        # cancel, so single entries may carry a larger relative rounding
        for got, want in ((Y, scale[:, None] * U),
                          (dY, 48.0 * scale[:, None] * dU)):
            err = np.max(np.abs(got - want), axis=1)
            assert np.all(err <= 1e-12 * np.max(np.abs(want), axis=1))

    def test_leaves_original_untouched(self):
        net = init_network(NetworkConfig(hidden_layers=1, neurons=3, seed=1))
        before = net.copy()
        fold_scales(net, 10.0, np.full(4, 2.0))
        assert all(np.array_equal(a, b) for a, b in
                   zip(net.parameter_arrays(), before.parameter_arrays()))


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        net = init_network(NetworkConfig(hidden_layers=2, neurons=9,
                                         activation="sin", seed=7))
        path = tmp_path / "net.npz"
        save_network(net, path)
        back = load_network(path)
        assert back.config == net.config
        t = np.linspace(0, 1, 5)
        assert np.array_equal(forward(back, t), forward(net, t))

    @staticmethod
    def save_old(net, path, **recorded):
        """``net`` saved with ``recorded`` added to its config, as older
        versions wrote it."""
        config = {**asdict(net.config), **recorded}
        arrays = {f"W{i}": w for i, w in enumerate(net.weights)}
        arrays.update({f"b{i}": b for i, b in enumerate(net.biases)})
        np.savez(path, config=json.dumps(config), **arrays)

    def assert_loads_unchanged(self, net, tmp_path, **recorded):
        self.save_old(net, tmp_path / "old.npz", **recorded)
        back = load_network(tmp_path / "old.npz")
        assert back.config == net.config
        t = np.linspace(0, 1, 5)
        assert np.array_equal(forward(back, t), forward(net, t))

    def test_config_with_io_sizes_loads(self, tmp_path):
        # older checkpoints also record input_dim = 1 and output_dim = 4
        net = init_network(NetworkConfig(hidden_layers=2, neurons=3, seed=7))
        self.assert_loads_unchanged(net, tmp_path, input_dim=1, output_dim=4)

    def test_config_with_omega_one_loads(self, tmp_path):
        # older checkpoints also record the sin frequency omega, 1 by default
        net = init_network(NetworkConfig(hidden_layers=2, neurons=3,
                                         activation="sin", seed=7))
        self.assert_loads_unchanged(net, tmp_path, omega=1.0)

    def test_other_omega_names_the_file(self, tmp_path):
        net = init_network(NetworkConfig(hidden_layers=1, neurons=3,
                                         activation="sin"))
        path = tmp_path / "omega2.npz"
        self.save_old(net, path, omega=2.0)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "
                                             "sin frequency omega 2.0"):
            load_network(path)

    def test_wrong_shape_names_the_file_and_array(self, tmp_path):
        net = init_network(NetworkConfig(hidden_layers=2, neurons=5))
        net.weights[1] = np.zeros((5, 4))
        path = tmp_path / "shape.npz"
        save_network(net, path)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: W1 "
                                             r"has shape \(5, 4\), not "
                                             r"\(5, 5\)$"):
            load_network(path)

    def test_missing_array_names_the_file_and_array(self, tmp_path):
        net = init_network(NetworkConfig(hidden_layers=2, neurons=5))
        path = tmp_path / "partial.npz"
        arrays = {f"W{i}": w for i, w in enumerate(net.weights)}
        arrays.update({f"b{i}": b for i, b in enumerate(net.biases[:2])})
        np.savez(path, config=json.dumps(asdict(net.config)), **arrays)
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(path))}: no array b2$"):
            load_network(path)

    def test_unknown_config_key_names_the_file(self, tmp_path):
        net = init_network(NetworkConfig(hidden_layers=1, neurons=3))
        path = tmp_path / "dropout.npz"
        self.save_old(net, path, dropout=0.1)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "
                           r"unknown config keys \['dropout'\]$"):
            load_network(path)

    def test_missing_config_names_the_file(self, tmp_path):
        net = init_network(NetworkConfig(hidden_layers=1, neurons=3))
        path = tmp_path / "no-config.npz"
        np.savez(path, **{f"W{i}": w for i, w in enumerate(net.weights)})
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(path))}: no config$"):
            load_network(path)
