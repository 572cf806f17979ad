import json
from dataclasses import asdict

import numpy as np
import pytest

from brainpbpk.autodiff import Var, backward
from brainpbpk.network import (ACTIVATIONS, Network, NetworkConfig,
                               activation, fold_scales, forward,
                               forward_dual_tape, forward_with_time_derivative,
                               init_network, load_network, save_network)


def wrap(net):
    ws = [Var(w) for w in net.weights]
    bs = [Var(b) for b in net.biases]
    return ws, bs


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
        with pytest.raises(ValueError):
            NetworkConfig(omega=0.0)


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

    @pytest.mark.parametrize("act", ACTIVATIONS)
    def test_dual_tape_matches_numpy_bitwise(self, act):
        net = init_network(NetworkConfig(hidden_layers=2, neurons=6,
                                         activation=act, seed=2))
        t = np.linspace(0, 1, 7)
        y_np, dy_np = forward_with_time_derivative(net, t)
        ws, bs = wrap(net)
        y_tp, dy_tp = forward_dual_tape(net.config, ws, bs, t)
        assert np.array_equal(y_tp.value, y_np)
        assert np.array_equal(dy_tp.value, dy_np)


class TestTimeDerivative:
    @pytest.mark.parametrize("act", ["tanh", "sigmoid", "sin"])
    def test_matches_finite_differences(self, act):
        net = init_network(NetworkConfig(hidden_layers=3, neurons=10,
                                         activation=act, omega=2.0, seed=0))
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
        # a loss on both Y and dY/dt reaches both adjoints of both of a
        # layer's activation nodes; every weight and bias entry is checked
        cfg = NetworkConfig(hidden_layers=2, neurons=4, activation=act,
                            omega=2.0, seed=5)
        net = init_network(cfg)
        rng = np.random.default_rng(1)
        for b in net.biases:
            b += rng.normal(0.0, 0.3, b.shape)
        t = np.linspace(0.05, 0.95, 6)

        def loss_value(nets):
            y, dy = forward_with_time_derivative(nets, t)
            return float(np.sum(y * dy) + np.sum(dy ** 2))

        ws, bs = wrap(net)
        y, dy = forward_dual_tape(cfg, ws, bs, t)
        backward((y * dy).sum() + (dy * dy).sum())

        eps = 1e-6
        for kind, leaves in (("weights", ws), ("biases", bs)):
            for li, leaf in enumerate(leaves):
                for idx in np.ndindex(leaf.shape):
                    pert = net.copy()
                    getattr(pert, kind)[li][idx] += eps
                    up = loss_value(pert)
                    pert = net.copy()
                    getattr(pert, kind)[li][idx] -= eps
                    down = loss_value(pert)
                    fd = (up - down) / (2 * eps)
                    assert leaf.grad[idx] == pytest.approx(fd, rel=1e-5,
                                                           abs=1e-9)

    def test_relu_subgradient_zero_at_zero(self):
        # one relu neuron, z = 3t + 0: at t = 0 it sits on the kink, where
        # f' is 0, so only t = 1 reaches the gradient and dY/dt is 0 at t = 0
        cfg = NetworkConfig(hidden_layers=1, neurons=1, activation="relu")
        ws = [Var(np.array([[3.0]])), Var(np.full((4, 1), 2.0))]
        bs = [Var(np.array([[0.0]])), Var(np.zeros((4, 1)))]
        y, dy = forward_dual_tape(cfg, ws, bs, [0.0, 1.0])
        assert np.array_equal(dy.value, np.tile([0.0, 6.0], (4, 1)))
        backward((y + dy).sum())
        # d/db0 = 4 rows x 2 (via Y); d/dW0 = that x t + 4 x 2 (via dY/dt)
        assert bs[0].grad[0, 0] == 8.0
        assert ws[0].grad[0, 0] == 16.0


class TestActivationTable:
    @pytest.mark.parametrize("act", ACTIVATIONS)
    def test_derivatives_match_finite_differences(self, act):
        z = np.linspace(-2.0, 2.0, 9) + 0.05   # clear of relu's kink
        _, f1, f2 = activation(act, 2.0, z)
        d1 = f1()
        eps = 1e-5
        up, down = activation(act, 2.0, z + eps), activation(act, 2.0, z - eps)
        assert np.allclose(d1, (up[0] - down[0]) / (2 * eps), atol=1e-8)
        assert np.allclose(f2(d1), (up[1]() - down[1]()) / (2 * eps),
                           atol=1e-8)


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
                                         activation="sin", omega=3.0, seed=7))
        path = tmp_path / "net.npz"
        save_network(net, path)
        back = load_network(path)
        assert back.config == net.config
        t = np.linspace(0, 1, 5)
        assert np.array_equal(forward(back, t), forward(net, t))

    def test_config_with_io_sizes_loads(self, tmp_path):
        # older checkpoints also record input_dim = 1 and output_dim = 4
        net = init_network(NetworkConfig(hidden_layers=2, neurons=3, seed=7))
        config = {**asdict(net.config), "input_dim": 1, "output_dim": 4}
        arrays = {f"W{i}": w for i, w in enumerate(net.weights)}
        arrays.update({f"b{i}": b for i, b in enumerate(net.biases)})
        np.savez(tmp_path / "old.npz", config=json.dumps(config), **arrays)
        back = load_network(tmp_path / "old.npz")
        assert back.config == net.config
        t = np.linspace(0, 1, 5)
        assert np.array_equal(forward(back, t), forward(net, t))
