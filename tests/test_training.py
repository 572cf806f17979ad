import dataclasses
import hashlib

import numpy as np
import pytest

from brainpbpk import network as nn
from brainpbpk import training
from brainpbpk.autodiff import Var, _topological_order, grad
from brainpbpk.dataio import linear_interp
from brainpbpk.defit import DEConfig, fit_de
from brainpbpk.model import influx_terms, rates, volumes
from brainpbpk.params import (DrugParams, SystemParams, reference_value,
                              substitute)
from brainpbpk.solvers import synthesize_dataset
from brainpbpk.training import (DEFAULT_FREE, AdamState, BoundedParam,
                                EstimationSpec, LossWeights, TrainConfig,
                                TrainingDiverged, _composite_loss,
                                build_problem, constrain,
                                default_estimation_spec, lbfgs_refine, train)


def small_dataset(n=20):
    return synthesize_dataset(SystemParams(), DrugParams(), n_points=n,
                              horizon=48.0)


class TestBoundedParam:
    def test_midpoint_at_zero_raw(self):
        p = BoundedParam("Vbb", 1.0, 3.0)
        assert constrain(p) == pytest.approx(2.0)

    def test_strictly_inside_bounds(self):
        p = BoundedParam("Vbb", 1.0, 3.0)
        for raw in (-30.0, -5.0, 0.0, 5.0, 30.0):
            v = constrain(BoundedParam("Vbb", 1.0, 3.0, raw=raw))
            assert 1.0 < v < 3.0

    def test_monotone_in_raw(self):
        vals = [constrain(BoundedParam("x", 0.0, 1.0, raw=r))
                for r in np.linspace(-4, 4, 9)]
        assert np.all(np.diff(vals) > 0)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            BoundedParam("Vbb", 2.0, 2.0)

    @pytest.mark.parametrize("lo,hi", [(0.5, np.inf), (-np.inf, 1.0),
                                       (np.nan, 1.0), (0.5, np.nan)])
    def test_non_finite_bounds_rejected(self, lo, hi):
        # an infinite box sends the sigmoid bound and DE's reflection to inf
        with pytest.raises(ValueError, match="Vbb: bounds must be finite"):
            BoundedParam("Vbb", lo, hi)

    def test_far_raw_gives_the_bound_without_overflow(self):
        # exp(1000) overflows a float; the bound saturates instead
        assert constrain(BoundedParam("x", 0.0, 1.0, raw=-1000.0)) == 0.0
        assert constrain(BoundedParam("x", 0.0, 1.0, raw=1000.0)) == 1.0


class TestEstimationSpec:
    def test_default_free_set_and_bounds(self):
        spec = default_estimation_spec()
        assert spec.names == ["Vbb", "Vbm", "Vccsf", "Vscsf", "fubb",
                              "lam_ccsf"]
        for p in spec.free:
            ref = reference_value(p.name)
            assert p.lo == pytest.approx(0.5 * ref)
            assert p.hi == pytest.approx(2.0 * ref)
            assert p.raw == 0.0

    def test_realized_substitutes_free_values(self):
        spec = default_estimation_spec(free_names=("Vbb",))
        s, d = substitute(spec.constrained_values())
        assert s.Vbb == pytest.approx(constrain(spec.free[0]))
        assert s.Vbm == SystemParams().Vbm

    def test_unknown_or_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            EstimationSpec(free=[BoundedParam("bogus", 0, 1)])
        with pytest.raises(ValueError):
            EstimationSpec(free=[BoundedParam("Vbb", 0, 1),
                                 BoundedParam("Vbb", 0, 2)])

    # the spec refuses an empty free set before either engine sees it
    @pytest.mark.parametrize("engine", [
        pytest.param(lambda ds, spec: fit_de(ds, spec,
                                             DEConfig(generations=1)),
                     id="fit_de"),
        pytest.param(lambda ds, spec: train(
            ds, spec, nn.NetworkConfig(hidden_layers=1, neurons=2),
            TrainConfig(iterations=1, lbfgs_iters=0)), id="train")])
    def test_no_free_parameter_rejected(self, engine):
        with pytest.raises(ValueError,
                           match="^need at least one free parameter$"):
            engine(small_dataset(5), EstimationSpec(free=[]))


class TestLossWeights:
    def test_defaults(self):
        w = LossWeights()
        assert (w.ic, w.ode, w.data) == (1.0, 2.0, 3.0)

    def test_rejects_negative_and_all_zero(self):
        with pytest.raises(ValueError):
            LossWeights(ic=-1.0)
        with pytest.raises(ValueError):
            LossWeights(ic=0.0, ode=0.0, data=0.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                LossWeights(ode=bad)


# -- numpy references of the three loss components ---------------------------

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


def ode_loss(net: nn.Network, spec: EstimationSpec, plasma,
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
    sys_r, drug_r = substitute(spec.constrained_values())
    J = influx_terms((Y[0], Y[1], Y[2], Y[3]), cart, sys_r, drug_r)
    resid = np.array([v * dYdt[k] - J[k]
                      for k, v in enumerate(volumes(sys_r))])
    return _scaled_mse(resid, weights, scale)


class TestReferenceLosses:
    def test_data_loss_by_hand(self):
        pred = np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        obs = np.zeros((4, 2))
        # MSE of row 0 is (1+4)/2 = 2.5, weight 3 -> 7.5
        w = np.array([3.0, 0.0, 0.0, 0.0])
        assert data_loss(pred, obs, w) == pytest.approx(7.5)

    def test_ic_loss_by_hand(self):
        pred0 = np.array([0.1, 0.0, 0.0, 0.0])
        y0 = np.zeros(4)
        assert ic_loss(pred0, y0, np.array([2.0, 1, 1, 1])) == \
            pytest.approx(0.02)

    def test_ode_loss_zero_for_exact_derivative(self):
        # hand-built network emitting constants has dY/dt = 0; with the
        # zero state and zero plasma the residual vanishes exactly
        cfg = nn.NetworkConfig(hidden_layers=1, neurons=1, activation="tanh")
        net = nn.Network(cfg, [np.zeros((1, 1)), np.zeros((4, 1))],
                         [np.zeros((1, 1)), np.zeros((4, 1))])
        spec = default_estimation_spec()
        ds = small_dataset()
        zero_plasma = ds.plasma_profile()
        zero_plasma = type(zero_plasma)(zero_plasma.times,
                                        np.zeros_like(zero_plasma.values))
        out = ode_loss(net, spec, zero_plasma, ds.times, 48.0, np.ones(4))
        assert out == 0.0


# free parameter sets of the loss tests: the default one, and one whose
# rate terms hold the forcing (Qbrain), products of two free parameters
# (PSB, lam_bb, fubb, CLCin) and a volume outside the default set (Vscsf)
FREE_SETS = [DEFAULT_FREE, ("Qbrain", "PSB", "lam_bb", "fubb", "CLCin", "Vscsf")]


# raw values away from 0, where a Jacobian cached for a free set that is not
# affine in its values would be wrong (at raw = 0 it is still exact)
RAW_OFF_CENTRE = (0.7, -1.1, 0.9, 1.3, -0.4, 0.5)


# -- the loss recorded op by op: the oracle of the one loss node -------------

def _oracle_rate_node(spec, raw):
    """One tape node from the leaf ``raw`` of the raw free values to
    G = [M | q | V] of ``model.rates``, with its Jacobian from a
    complex-step batch at every call."""
    free, n, step = spec.free, len(spec.free), 1e-30
    lo = np.array([p.lo for p in free])
    values, slopes = training._sigmoid_bound(
        lo, np.array([p.hi for p in free]) - lo, raw.value)
    batch = values + 1j * step * np.eye(1 + n, n, -1)
    M, q, V = rates(*substitute(
        {p.name: batch[:, i, None] for i, p in enumerate(free)}))
    G = np.concatenate([M, q[..., None], V[..., None]], axis=-1)
    jac = (G[1:].imag / step).reshape(n, 24) * slopes[:, None]
    return Var(G[0].real, (raw,), lambda g: (jac @ np.ravel(g),), op="rates")


def oracle_loss(prob, params, raw):
    """(total Var, component floats) of ``_composite_loss`` with every
    subtraction, square, product and sum its own tape node."""
    out = nn.forward_dual_tape(prob.cfg, params, prob.times)
    U, Udot = out[:4], out[4:]
    l_data = (prob.w_data * (U - prob.obs_u) ** 2).sum()
    l_ic = (prob.w_ic * (U[:, :1] - prob.obs_u[:, :1]) ** 2).sum()
    l_ode = 0.0
    if np.any(prob.w_ode):
        G = _oracle_rate_node(prob.spec, raw)
        peak = Var(prob.peak[:, None], op="const")
        resid = (G[:, 5:] * (Udot * peak) - G[:, :4] @ (U * peak)
                 - G[:, 4:5] * prob.cart)
        l_ode = (prob.w_ode * resid ** 2).sum()
    total = l_data + l_ode + l_ic
    comp = tuple(x.item() if isinstance(x, Var) else float(x)
                 for x in (l_data, l_ode, l_ic))
    return total, comp


class TestCompositeLoss:
    def build(self, weights=None, n=10, free_names=DEFAULT_FREE,
              activation="tanh", raw=None):
        ds = small_dataset(n)
        spec = default_estimation_spec(free_names)
        cfg = nn.NetworkConfig(hidden_layers=2, neurons=6,
                               activation=activation, seed=0)
        tc = TrainConfig(weights=weights or LossWeights())
        prob = build_problem(ds, spec, cfg, tc)
        net = nn.init_network(cfg)
        params = Var(np.concatenate(net.parameter_arrays(), axis=None))
        raw_leaf = Var(np.array(raw or [0.0] * len(spec.free)))
        return prob, net, spec, ds, params, raw_leaf

    @staticmethod
    def references(prob, net, spec, ds, w):
        """(data, ode, ic) from the numpy references. The tape works in
        scaled coordinates; the references see the network as train returns
        it, with the scales folded in."""
        folded = nn.fold_scales(net, 48.0, prob.peak)
        pred = nn.forward(folded, ds.times / 48.0)
        obs = ds.concentrations()
        w_data, w_ode, w_ic = (np.full(4, x) for x in (w.data, w.ode, w.ic))
        return (data_loss(pred, obs, w_data, prob.peak),
                ode_loss(folded, spec, ds.plasma_profile(), ds.times, 48.0,
                         w_ode, scale=prob.ode_scale),
                ic_loss(pred[:, 0], obs[:, 0], w_ic, prob.peak))

    def test_total_is_sum_of_components(self):
        prob, _, _, _, params, raw = self.build()
        total, (ld, lo, li) = _composite_loss(prob, params, raw)
        assert total.item() == pytest.approx(ld + lo + li, rel=1e-12)

    def test_components_match_numpy_references(self):
        for free_names in FREE_SETS:
            prob, net, spec, ds, params, raw = self.build(free_names=free_names)
            _, comp = _composite_loss(prob, params, raw)
            assert comp == pytest.approx(
                self.references(prob, net, spec, ds, LossWeights()), rel=1e-12)

    def test_mixed_weights_and_exact_zeros(self):
        # the t = 0 observations (read by the IC and data terms) with
        # w_ic = 0, and the later ones (read by the data term only) with
        # w_data = 0: moving them moves the data term if its weight is not
        # zero, and nothing else
        for w, moved in ((LossWeights(ic=0.0, ode=0.5, data=1.5), 0),
                         (LossWeights(ic=2.0, ode=0.5, data=0.0),
                          slice(1, None))):
            prob, net, spec, ds, params, raw = self.build(weights=w)
            _, comp = _composite_loss(prob, params, raw)
            assert comp == pytest.approx(
                self.references(prob, net, spec, ds, w), rel=1e-12)
            obs_u = prob.obs_u.copy()
            obs_u[:, moved] += 1.0
            shifted = dataclasses.replace(prob, obs_u=obs_u)
            got = _composite_loss(shifted, params, raw)[1]
            assert got[1:] == comp[1:]
            assert (got[0] == comp[0]) == (w.data == 0)

    def test_scales_from_data_and_bound_midpoints(self):
        prob, _, spec, ds, _, _ = self.build()
        assert np.array_equal(prob.peak, np.max(ds.concentrations(), axis=1))
        # ODE scale = peak x total outflow clearance, with the free
        # parameters at their bound midpoints (fubb enters brain blood's)
        s, d = SystemParams(), DrugParams()
        fubb = 0.5 * (0.5 + 2.0) * d.fubb
        outflow = {
            0: s.Qbrain + (s.PSB + s.PSC) * d.lam_bb * fubb + d.CLCin * fubb,
            1: (s.PSB + s.PSE) * d.lam_bm * d.fubm + d.CLBout * d.fubm
               + s.QbulkBC + d.CLmet,
            3: s.Qsout + s.Qssink}
        for k, cl in outflow.items():
            assert prob.ode_scale[k] == pytest.approx(prob.peak[k] * cl,
                                                      rel=1e-12)

    def test_zero_scales_replaced_by_one(self):
        # brain blood never observed above zero, and without outflow: at
        # the box midpoint CLBin = 500 L/h its outflow is about -22 L/h
        ds = small_dataset(10)
        conc = ds.concentrations().copy()
        conc[0] = 0.0
        ds = dataclasses.replace(ds, conc=conc)
        spec = EstimationSpec(free=[BoundedParam("CLBin", 0.0, 1000.0)])
        prob = build_problem(ds, spec, nn.NetworkConfig(hidden_layers=1,
                                                        neurons=3),
                             TrainConfig())
        assert prob.peak[0] == prob.ode_scale[0] == 1.0
        assert np.all(np.isfinite(prob.obs_u))

    def test_box_outside_valid_range_rejected(self):
        # the midpoint 0.85 is valid, but the sigmoid bound could reach 1.2
        spec = EstimationSpec(free=[BoundedParam("fuccsf", 0.5, 1.2)])
        with pytest.raises(ValueError, match=r"fuccsf must lie in \[0, 1\]"):
            build_problem(small_dataset(10), spec,
                          nn.NetworkConfig(hidden_layers=1, neurons=3),
                          TrainConfig())

    def test_gradient_matches_finite_differences(self):
        # the second free set is not affine in its values, so its rate
        # Jacobian moves with raw: it is checked away from raw = 0 too
        for free_names, raw in ((FREE_SETS[0], None), (FREE_SETS[1], None),
                                (FREE_SETS[1], RAW_OFF_CENTRE)):
            prob, _, _, _, params, raw_leaf = self.build(
                n=8, free_names=free_names, raw=raw)
            total, _ = _composite_loss(prob, params, raw_leaf)
            g_raw = grad(total, [params, raw_leaf])[1]

            def value(raw_shift, which):
                shifted = raw_leaf.value.copy()
                shifted[which] += raw_shift
                t2, _ = _composite_loss(prob, Var(params.value), Var(shifted))
                return t2.item()

            eps = 1e-6
            for i in range(g_raw.size):
                fd = (value(eps, i) - value(-eps, i)) / (2 * eps)
                # central differences lose accuracy when the component is
                # tiny relative to the total loss, hence the absolute floor
                assert g_raw[i] == \
                    pytest.approx(fd, rel=1e-4, abs=1e-6), (free_names, raw, i)

    @pytest.mark.parametrize("raw", [None, RAW_OFF_CENTRE],
                             ids=["raw0", "raw-off-centre"])
    @pytest.mark.parametrize("weights", [
        LossWeights(), LossWeights(ode=0.0), LossWeights(ic=0.0),
        LossWeights(data=0.0)], ids=["default", "ode0", "ic0", "data0"])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("free_set", [0, 1])
    def test_matches_per_op_oracle_bitwise(self, free_set, activation,
                                           weights, raw):
        got, want = [], []
        for loss, out in ((_composite_loss, got), (oracle_loss, want)):
            prob, _, _, _, params, raw_leaf = self.build(
                weights=weights, free_names=FREE_SETS[free_set],
                activation=activation, raw=raw)
            # with zero biases U(0) is the observed 0 and the IC term sends
            # no adjoint; these make the order of the sums show in the bits
            rng = np.random.default_rng(7)
            for b in nn.layer_views(prob.cfg, params.value)[1]:
                b += rng.normal(0.0, 0.3, b.shape)
            total, comp = loss(prob, params, raw_leaf)
            out += [total.value, *comp, *grad(total, [params, raw_leaf])]
        assert len(got) == len(want) == 4 + 2
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_one_node_over_the_network_and_raw_values(self):
        prob, _, _, _, params, raw = self.build()
        node, _ = _composite_loss(prob, params, raw)
        assert node.op == "loss" and node.parents[0].op == "network"
        assert node.parents[0].parents == (params,)
        assert node.parents[1:] == (raw,)

    @pytest.mark.parametrize("ode", [True, False], ids=["default", "ode0"])
    def test_graph_is_two_leaves_and_two_nodes(self, ode):
        # the parameter leaf, the raw leaf, the network and the loss; with
        # no ODE term the raw leaf is off the graph and its gradient is 0
        weights = LossWeights() if ode else LossWeights(ode=0.0)
        prob, _, _, _, params, raw = self.build(weights=weights)
        total, _ = _composite_loss(prob, params, raw)
        nodes = _topological_order(total)
        assert len(nodes) == 3 + ode
        assert sorted(n.op for n in nodes) == sorted(
            ["leaf", "network", "loss"] + ["leaf"] * ode)
        assert any(n is raw for n in nodes) == ode
        g_params, g_raw = grad(total, [params, raw])
        assert g_params.shape == params.shape and np.any(g_params)
        assert g_raw.shape == (6,) and np.any(g_raw) == ode

    def test_rate_jacobian_kept_only_when_constant(self):
        # every rate term of the default set is linear in its free values;
        # the second set multiplies PSB, lam_bb and fubb together
        for free_names, constant in zip(FREE_SETS, (True, False)):
            prob = self.build(free_names=free_names)[0]
            assert (prob.dG_dv is not None) == constant

    def test_zero_ode_weight_skips_residual(self):
        w = LossWeights(ode=0.0)
        prob, _, _, _, params, raw = self.build(weights=w)
        _, (ld, lo, li) = _composite_loss(prob, params, raw)
        assert lo == 0.0 and ld > 0.0


class TestAdam:
    def test_quadratic_convergence(self):
        x = np.array([5.0])
        state = AdamState(x)
        for _ in range(2000):
            state.step(x, 2.0 * x, lr=0.05)
        assert abs(x[0]) < 1e-3

    def test_first_step_size_is_lr(self):
        # bias correction makes the very first update ~lr in magnitude
        x = np.array([1.0])
        AdamState(x).step(x, np.array([123.0]), lr=0.01)
        assert x[0] == pytest.approx(1.0 - 0.01, abs=1e-6)

    def test_in_place_update(self):
        # train's tape leaves are views of the vector; they must see the step
        x = np.array([1.0, 2.0])
        view = x[1:]
        AdamState(x).step(x, np.ones(2), lr=0.1)
        assert view[0] == x[1] == pytest.approx(1.9)


class TestLbfgs:
    def test_rosenbrock(self):
        def fg(x):
            a, b = x
            f = (1 - a) ** 2 + 100 * (b - a * a) ** 2
            g = np.array([-2 * (1 - a) - 400 * a * (b - a * a),
                          200 * (b - a * a)])
            return f, g
        res = lbfgs_refine(fg, np.array([-1.2, 1.0]), max_iters=1000)
        assert np.allclose(res.x, [1.0, 1.0], atol=1e-5)

    def test_quadratic_exact_in_few_iters(self):
        H = np.diag([1.0, 10.0, 100.0])

        def fg(x):
            return 0.5 * x @ H @ x, H @ x
        res = lbfgs_refine(fg, np.ones(3), max_iters=50)
        assert res.fval < 1e-15

    def test_never_worse_than_start(self):
        def fg(x):
            return float(np.sin(5 * x[0]) + x[0] ** 2), \
                np.array([5 * np.cos(5 * x[0]) + 2 * x[0]])
        start_f = fg(np.array([2.0]))[0]
        res = lbfgs_refine(fg, np.array([2.0]), max_iters=20)
        assert res.fval <= start_f


class TestTrain:
    def test_short_run_decreases_loss_and_logs(self):
        ds = small_dataset(15)
        spec = default_estimation_spec()
        cfg = nn.NetworkConfig(hidden_layers=2, neurons=8, seed=0)
        tc = TrainConfig(lr=1e-3, iterations=60, lbfgs_iters=0, log_stride=20)
        net, fspec, art = train(ds, spec, cfg, tc)
        assert art.loss_iters[0] == 0 and art.loss_iters[-1] == 60
        assert art.loss_total[-1] < art.loss_total[0]
        # parameters stayed strictly inside their boxes
        for row in art.trajectory:
            for p, v in zip(spec.free, row):
                assert p.lo < v < p.hi

    def test_logged_total_equals_component_sum(self):
        ds = small_dataset(12)
        spec = default_estimation_spec()
        cfg = nn.NetworkConfig(hidden_layers=1, neurons=5, seed=1)
        tc = TrainConfig(lr=1e-3, iterations=30, lbfgs_iters=5, log_stride=10)
        _, _, art = train(ds, spec, cfg, tc)
        for i in range(len(art.loss_iters)):
            assert art.loss_total[i] == pytest.approx(
                art.loss_data[i] + art.loss_ode[i] + art.loss_ic[i], rel=1e-12)

    def test_deterministic_under_seed(self):
        # the run's record holds no wall time, so two runs' RunArtifacts
        # compare equal as whole dataclasses, L-BFGS counters included
        ds = small_dataset(10)
        cfg = nn.NetworkConfig(hidden_layers=1, neurons=4, seed=2)
        tc = TrainConfig(lr=1e-3, iterations=25, lbfgs_iters=3, log_stride=5)
        out1 = train(ds, default_estimation_spec(), cfg, tc)
        out2 = train(ds, default_estimation_spec(), cfg, tc)
        assert out1[2] == out2[2]
        assert out1[2].lbfgs_iterations == 3
        assert np.array_equal(out1[0].weights[0], out2[0].weights[0])

    def test_divergence_raises_with_artifacts(self):
        ds = small_dataset(10)
        spec = default_estimation_spec()
        cfg = nn.NetworkConfig(hidden_layers=2, neurons=8, seed=0)
        tc = TrainConfig(lr=50.0, iterations=3000, lbfgs_iters=0,
                         log_stride=1)
        with pytest.raises(TrainingDiverged) as err:
            train(ds, spec, cfg, tc)
        assert len(err.value.artifacts.loss_iters) > 0

    def test_flat_vector_layout(self, monkeypatch):
        # theta = every weight, then every bias, then the raw free values;
        # the L-BFGS tests below and the benchmark's gradient check index
        # it in this order
        refine, captured = training.lbfgs_refine, []

        def capture(loss_and_grad, x0, max_iters, **kwargs):
            captured.append(np.array(x0))
            return refine(loss_and_grad, x0, 0, **kwargs)
        monkeypatch.setattr(training, "lbfgs_refine", capture)
        spec = default_estimation_spec()
        for i, p in enumerate(spec.free):
            p.raw = 0.25 * (i + 1)
        cfg = nn.NetworkConfig(hidden_layers=2, neurons=3, seed=4)
        train(small_dataset(10), spec, cfg,
              TrainConfig(iterations=0, lbfgs_iters=1))
        net = nn.init_network(cfg)
        expected = np.concatenate([w.ravel() for w in net.weights]
                                  + [b.ravel() for b in net.biases]
                                  + [[p.raw for p in spec.free]])
        assert np.array_equal(captured[0], expected)

    def test_two_tape_leaves_per_evaluation(self, monkeypatch):
        # every gradient train takes, Adam's and L-BFGS's, is over two
        # leaves (the network's flat parameters and the raw values) of a
        # four-node graph
        seen = []

        def recording(loss, leaves):
            seen.append((len(leaves), len(_topological_order(loss))))
            return grad(loss, leaves)
        monkeypatch.setattr(training, "grad", recording)
        train(small_dataset(10), default_estimation_spec(),
              nn.NetworkConfig(hidden_layers=2, neurons=3),
              TrainConfig(iterations=3, lbfgs_iters=2))
        assert len(seen) >= 6 and set(seen) == {(2, 4)}

    @pytest.mark.parametrize("lr", [1e30, 1e200])
    def test_huge_step_ends_as_divergence(self, lr):
        # one step puts some raw values near -lr, where exp(-raw) overflows,
        # and the loss far above the divergence cap (non-finite at 1e200)
        cfg = nn.NetworkConfig(hidden_layers=1, neurons=3, seed=0)
        tc = TrainConfig(lr=lr, iterations=5, lbfgs_iters=0, log_stride=1)
        with pytest.raises(TrainingDiverged, match="iteration 1: loss diverged"):
            train(small_dataset(20), default_estimation_spec(), cfg, tc)

    @pytest.mark.parametrize("layers, act, digest", [
        (3, "tanh",
         "ba15da98ba8274ae70cdaa9a3451672580e089f0d6f1a85b6f40a774b4506c25"),
        (2, "relu",
         "7d76f30e87ffdf9bad4364372a7b279d738dcb679e7a916fb757bc479b3664aa"),
        (2, "sigmoid",
         "9d5162b0543342e57d267d1f07faa0c7eaba1b46f4db3266e9abc2ac358b4625"),
        (2, "sin",
         "16d73d6dfd2973cd2410c22c260716bc6bd7c8f99fd5d5a6deb9b06571e07756")])
    def test_training_bits(self, layers, act, digest):
        # 30 Adam + 2 L-BFGS steps on the 200-point reference set, pinned
        # to the bit: SHA-256 of the final weights and biases, the logged
        # total losses and the final raw values, as C-order float64 bytes
        ds = synthesize_dataset(SystemParams(), DrugParams(), n_points=200)
        cfg = nn.NetworkConfig(hidden_layers=layers, neurons=50,
                               activation=act, seed=0)
        tc = TrainConfig(lr=1e-3, iterations=30, lbfgs_iters=2, log_stride=10)
        net, fspec, art = train(ds, default_estimation_spec(), cfg, tc)
        assert art.lbfgs_iterations == 2
        h = hashlib.sha256()
        for a in net.parameter_arrays():
            h.update(a.tobytes())
        h.update(np.array(art.loss_total).tobytes())
        h.update(np.array([p.raw for p in fspec.free]).tobytes())
        assert h.hexdigest() == digest

    def test_lbfgs_stage_extends_iteration_numbers(self):
        ds = small_dataset(10)
        cfg = nn.NetworkConfig(hidden_layers=1, neurons=4, seed=0)
        tc = TrainConfig(lr=1e-3, iterations=20, lbfgs_iters=10, log_stride=5)
        _, _, art = train(ds, default_estimation_spec(), cfg, tc)
        assert art.loss_iters[-1] > 20
        assert np.all(np.diff(art.loss_iters) > 0)

    def test_lbfgs_stop_recorded(self, monkeypatch):
        # a sign-flipped gradient makes every trial step go uphill, so the
        # first line search fails after all its backtracks
        refine = training.lbfgs_refine

        def uphill(loss_and_grad, x0, max_iters, **kwargs):
            def flipped(x):
                f, g = loss_and_grad(x)
                return f, -g
            return refine(flipped, x0, max_iters, **kwargs)
        monkeypatch.setattr(training, "lbfgs_refine", uphill)
        ds = small_dataset(10)
        cfg = nn.NetworkConfig(hidden_layers=1, neurons=4, seed=0)
        tc = TrainConfig(lr=1e-3, iterations=5, lbfgs_iters=10, log_stride=5)
        _, _, art = train(ds, default_estimation_spec(), cfg, tc)
        assert art.lbfgs_line_search_failed
        assert art.lbfgs_iterations == 1

    def test_lbfgs_backs_off_from_nonfinite_trial(self, monkeypatch):
        # a gradient scaled by 1e200 puts every trial point of the first
        # line search (steps down to 2^-29) at weights of 1e190 and more,
        # where the loss overflows; the search must back off and fail, not
        # raise
        refine = training.lbfgs_refine

        def far(loss_and_grad, x0, max_iters, **kwargs):
            def scaled(x):
                f, g = loss_and_grad(x)
                return f, 1e200 * g
            return refine(scaled, x0, max_iters, **kwargs)
        monkeypatch.setattr(training, "lbfgs_refine", far)
        ds = small_dataset(10)
        cfg = nn.NetworkConfig(hidden_layers=1, neurons=4, activation="relu",
                               seed=0)
        tc = TrainConfig(lr=1e-3, iterations=5, lbfgs_iters=10, log_stride=5)
        _, _, art = train(ds, default_estimation_spec(), cfg, tc)
        assert art.lbfgs_line_search_failed
        assert art.lbfgs_iterations == 1

    def test_lbfgs_nonfinite_gradient_raises_diverged(self, monkeypatch):
        # after two L-BFGS iterations, evaluate a point where tiny
        # first-layer weights (x0[:4]) under huge output weights (x0[4:20])
        # keep the loss finite while its gradient overflows
        refine = training.lbfgs_refine

        def overflow(loss_and_grad, x0, max_iters, **kwargs):
            refine(loss_and_grad, x0, 2, **kwargs)
            x = x0.copy()
            x[:4] *= 1e-307
            x[4:20] *= 1e307
            loss_and_grad(x)
        monkeypatch.setattr(training, "lbfgs_refine", overflow)
        cfg = nn.NetworkConfig(hidden_layers=1, neurons=4, activation="relu",
                               seed=0)
        tc = TrainConfig(iterations=0, lbfgs_iters=10, log_stride=1)
        with pytest.raises(TrainingDiverged) as err:
            train(small_dataset(10), default_estimation_spec(), cfg, tc)
        assert err.value.iteration == 2
        assert "non-finite gradient" in str(err.value)
        # the L-BFGS iterations logged before the failure are kept
        assert err.value.artifacts.loss_iters == [0, 1, 2]
