import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brainpbpk.dataio import PlasmaProfile
from brainpbpk.model import assemble_matrix
from brainpbpk.params import DrugParams, ModelVariant, SystemParams
from brainpbpk.solvers import (InitialState, Method, NonFiniteState,
                               PlasmaSpec, SolveConfig, StepSizeUnderflow,
                               dopri45_solve, expm_propagate,
                               propagate_states, rk4_solve, solve,
                               synthesize_dataset)

SYS = SystemParams()
DRUG = DrugParams()


class TestGenericIntegrators:
    """Both steppers against problems with closed-form solutions."""

    def test_rk4_exponential_decay(self):
        grid = np.linspace(0.0, 5.0, 11)
        out = rk4_solve(lambda t, y: -y, np.array([1.0]), 0.0, grid, 0.01)
        assert np.max(np.abs(out[:, 0] - np.exp(-grid))) < 1e-9

    def test_rk4_polynomial_exact(self):
        # RK4 integrates quartics in t exactly up to roundoff
        grid = np.array([0.0, 1.0, 2.0])
        out = rk4_solve(lambda t, y: np.array([4 * t ** 3]),
                        np.array([0.0]), 0.0, grid, 0.25)
        assert np.allclose(out[:, 0], grid ** 4, atol=1e-12)

    def test_rk4_lands_on_grid_regardless_of_h(self):
        grid = np.array([0.0, 0.3, 1.0])
        out = rk4_solve(lambda t, y: -y, np.array([1.0]), 0.0, grid, 0.07)
        assert np.max(np.abs(out[:, 0] - np.exp(-grid))) < 1e-7

    def test_dopri_exponential_decay(self):
        grid = np.linspace(0.0, 5.0, 11)
        out = dopri45_solve(lambda t, y: -y, np.array([1.0]), 0.0, grid,
                            rtol=1e-10, atol=1e-12)
        assert np.max(np.abs(out[:, 0] - np.exp(-grid))) < 1e-8

    def test_dopri_harmonic_oscillator(self):
        def f(t, y):
            return np.array([y[1], -y[0]])
        grid = np.linspace(0.0, 2 * math.pi, 9)
        out = dopri45_solve(f, np.array([1.0, 0.0]), 0.0, grid,
                            rtol=1e-10, atol=1e-12)
        assert np.max(np.abs(out[:, 0] - np.cos(grid))) < 1e-7

    def test_rk4_nonfinite_raises(self):
        with pytest.raises(NonFiniteState):
            rk4_solve(lambda t, y: y ** 2, np.array([1.0]), 0.0,
                      np.array([0.0, 10.0]), 0.01)

    def test_dopri_underflow_raises(self):
        # derivative blows up before the endpoint, forcing tiny steps
        def f(t, y):
            return np.array([1.0 / (1.0 - t)])
        with pytest.raises((StepSizeUnderflow, NonFiniteState)):
            dopri45_solve(f, np.array([0.0]), 0.0, np.array([0.0, 2.0]),
                          rtol=1e-8, atol=1e-10)


def constant_plasma(value, horizon=48.0):
    return PlasmaProfile(np.array([0.0, horizon]), np.array([value, value]))


class TestExpmPropagate:
    def test_decoupled_constant_forcing_analytic(self):
        # A diagonal, constant forcing on component 1:
        # y0(t) = (f/|a|)(1 - e^{-|a| t}), others stay zero.
        s = SystemParams(Vbb=2.0, Qbrain=4.0)
        A = np.diag([-3.0, -1.0, -2.0, -0.5])
        grid = np.linspace(0.0, 4.0, 9)
        series = expm_propagate(A, np.zeros(4), constant_plasma(1.0, 4.0),
                                s, grid)
        f = 4.0 / 2.0
        expected = (f / 3.0) * (1.0 - np.exp(-3.0 * grid))
        assert np.max(np.abs(series.Cbb - expected)) < 1e-13
        assert np.max(np.abs(series.Cbm)) == 0.0

    def test_ramp_forcing_analytic(self):
        # y' = -y + t  has solution  t - 1 + e^{-t} from y(0)=0
        s = SystemParams(Vbb=1.0, Qbrain=1.0)
        A = np.diag([-1.0, -1.0, -1.0, -1.0])
        horizon = 3.0
        plasma = PlasmaProfile(np.array([0.0, horizon]),
                               np.array([0.0, horizon]))
        grid = np.linspace(0.0, horizon, 7)
        series = expm_propagate(A, np.zeros(4), plasma, s, grid)
        expected = grid - 1.0 + np.exp(-grid)
        assert np.max(np.abs(series.Cbb - expected)) < 1e-13

    def test_no_forcing_matches_matrix_exponential(self):
        rng = np.random.default_rng(3)
        A = assemble_matrix(SYS, DRUG)
        y0 = rng.uniform(0, 0.1, size=4)
        grid = np.array([0.0, 1.5])
        series = expm_propagate(A, y0, constant_plasma(0.0), SYS, grid)
        from scipy.linalg import expm
        expected = expm(A * 1.5) @ y0
        assert np.max(np.abs(series.concentrations()[:, 1] - expected)) < 1e-14

    def test_initial_state_echoed_at_t0(self):
        A = assemble_matrix(SYS, DRUG)
        y0 = np.array([0.01, 0.02, 0.03, 0.04])
        grid = np.linspace(0.0, 1.0, 5)
        series = expm_propagate(A, y0, constant_plasma(0.05), SYS, grid)
        assert np.array_equal(series.concentrations()[:, 0], y0)


    def test_blow_up_raises_nonfinite_state(self):
        # y' = 50 y overflows once 50 t passes log(max float) ~ 709.8
        grid = np.linspace(0.0, 48.0, 49)
        with pytest.raises(NonFiniteState, match=r"t=15\b"):
            expm_propagate(50.0 * np.eye(4), np.ones(4), constant_plasma(0.0),
                           SYS, grid)


class TestPropagateStates:
    def test_batched_rows_match_single_solves(self):
        grid = np.linspace(0.0, 48.0, 60)
        plasma = PlasmaSpec().sample(np.linspace(0.0, 48.0, 25))
        systems = [SystemParams(Vbb=v) for v in (0.03, SYS.Vbb, 0.2)]
        A = np.stack([assemble_matrix(s, DRUG) for s in systems])
        b = np.array([s.Qbrain / s.Vbb for s in systems])
        batched = propagate_states(A, b, np.zeros(4), plasma, grid)
        assert batched.shape == (3, 4, grid.size)
        for row, s, Ai in zip(batched, systems, A):
            single = expm_propagate(Ai, np.zeros(4), plasma, s,
                                    grid).concentrations()
            scale = np.maximum(np.abs(single), 1e-300)
            assert np.max(np.abs(row - single) / scale) <= 1e-14

    def test_nonuniform_grid_knots_off_grid_match_dopri(self):
        grid = np.array([0.0, 0.05, 0.3, 0.31, 1.7, 2.9, 6.0, 11.5, 24.0,
                         47.2])
        plasma = PlasmaSpec().sample(np.linspace(0.0, 48.0, 37))
        exact = solve(SYS, DRUG, plasma, ModelVariant.PAPER_LITERAL,
                      InitialState(), SolveConfig(grid=grid))
        dopri = solve(SYS, DRUG, plasma, ModelVariant.PAPER_LITERAL,
                      InitialState(), SolveConfig(method=Method.DOPRI45,
                                                  rtol=1e-10, atol=1e-14,
                                                  grid=grid))
        peak = np.max(exact.concentrations(), axis=1, keepdims=True)
        err = np.abs(exact.concentrations() - dopri.concentrations()) / peak
        assert np.max(err) < 1e-8


class TestSolveDispatch:
    def make(self, method, **kw):
        grid = np.linspace(0.0, 48.0, 50)
        plasma = PlasmaSpec().sample(grid)
        cfg = SolveConfig(method=method, grid=grid, **kw)
        return solve(SYS, DRUG, plasma, ModelVariant.PAPER_LITERAL,
                     InitialState(), cfg)

    def test_rk4_close_to_oracle(self):
        ref = self.make(Method.EXPM_ORACLE)
        # the fastest mode has rate ~620/h, so RK4 needs h below ~0.0045
        got = self.make(Method.RK4, h=0.002)
        scale = np.max(ref.concentrations(), axis=1, keepdims=True)
        err = np.abs(got.concentrations() - ref.concentrations()) / scale
        assert np.max(err) < 1e-8

    def test_dopri_close_to_oracle(self):
        ref = self.make(Method.EXPM_ORACLE)
        got = self.make(Method.DOPRI45, rtol=1e-8, atol=1e-12)
        scale = np.max(ref.concentrations(), axis=1, keepdims=True)
        err = np.abs(got.concentrations() - ref.concentrations()) / scale
        assert np.max(err) < 1e-6

    def test_grid_before_t0_rejected(self):
        grid = np.linspace(0.0, 1.0, 3)
        plasma = PlasmaSpec().sample(np.linspace(0, 2, 5))
        cfg = SolveConfig(grid=grid)
        with pytest.raises(ValueError):
            solve(SYS, DRUG, plasma, ModelVariant.PAPER_LITERAL,
                  InitialState(t0=0.5), cfg)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SolveConfig(h=0.0)
        with pytest.raises(ValueError):
            SolveConfig(grid=np.array([0.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            InitialState(Y0=np.array([0.0, -1.0, 0.0, 0.0]))


class TestPlasmaSpec:
    def test_peak_value_attained(self):
        spec = PlasmaSpec(ka=1.0, ke=0.1, peak=0.06)
        tmax = math.log(1.0 / 0.1) / (1.0 - 0.1)
        prof = spec.sample(np.array([0.0, tmax, 48.0]))
        assert prof.values[1] == pytest.approx(0.06, rel=1e-12)
        assert np.all(prof.values <= 0.06 + 1e-15)

    def test_starts_at_zero(self):
        prof = PlasmaSpec().sample(np.linspace(0, 48, 10))
        assert prof.values[0] == 0.0

    def test_zero_peak_all_zero(self):
        prof = PlasmaSpec(peak=0.0).sample(np.linspace(0, 48, 10))
        assert np.all(prof.values == 0.0)


class TestSynthesizeDataset:
    def test_shape_and_zero_start(self):
        ds = synthesize_dataset(SYS, DRUG, n_points=50, horizon=48.0)
        assert len(ds) == 50
        assert ds.times[0] == 0.0 and ds.times[-1] == 48.0
        assert np.all(ds.concentrations()[:, 0] == 0.0)
        assert ds.plasma is not None

    def test_noise_free_deterministic(self):
        a = synthesize_dataset(SYS, DRUG, n_points=40)
        b = synthesize_dataset(SYS, DRUG, n_points=40)
        assert np.array_equal(a.concentrations(), b.concentrations())

    def test_noise_seeded_and_truncated(self):
        a = synthesize_dataset(SYS, DRUG, n_points=40, noise_sd=0.01, seed=5)
        b = synthesize_dataset(SYS, DRUG, n_points=40, noise_sd=0.01, seed=5)
        c = synthesize_dataset(SYS, DRUG, n_points=40, noise_sd=0.01, seed=6)
        assert np.array_equal(a.concentrations(), b.concentrations())
        assert not np.array_equal(a.concentrations(), c.concentrations())
        assert np.all(a.concentrations() >= 0.0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            synthesize_dataset(SYS, DRUG, n_points=1)
        with pytest.raises(ValueError):
            synthesize_dataset(SYS, DRUG, horizon=0.0)
        with pytest.raises(ValueError):
            synthesize_dataset(SYS, DRUG, noise_sd=-1.0)

    def test_concentrations_stay_bounded(self):
        # linear stable system driven by plasma <= peak keeps all
        # compartments within the same order of magnitude
        ds = synthesize_dataset(SYS, DRUG, n_points=200)
        assert np.all(ds.concentrations() >= -1e-12)
        assert np.max(ds.concentrations()) < 0.1


@given(st.integers(0, 2**31))
@settings(max_examples=10, deadline=None)
def test_expm_matches_dopri_randomized(seed):
    rng = np.random.default_rng(seed)
    s = SystemParams(Vbb=rng.uniform(0.05, 0.5), Vbm=rng.uniform(0.5, 2.0),
                     Vccsf=rng.uniform(0.05, 0.5), Vscsf=rng.uniform(0.01, 0.1))
    grid = np.linspace(0.0, 10.0, 12)
    plasma = PlasmaSpec(peak=rng.uniform(0.01, 0.1)).sample(grid)
    cfg_e = SolveConfig(method=Method.EXPM_ORACLE, grid=grid)
    cfg_d = SolveConfig(method=Method.DOPRI45, rtol=1e-9, atol=1e-13, grid=grid)
    a = solve(s, DRUG, plasma, ModelVariant.PAPER_LITERAL, InitialState(), cfg_e)
    b = solve(s, DRUG, plasma, ModelVariant.PAPER_LITERAL, InitialState(), cfg_d)
    scale = max(np.max(a.concentrations()), 1e-9)
    assert np.max(np.abs(a.concentrations() - b.concentrations())) / scale < 1e-7
