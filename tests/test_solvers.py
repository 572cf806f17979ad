import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm

from brainpbpk import solvers
from brainpbpk.dataio import PlasmaProfile
from brainpbpk.defit import population_sse
from brainpbpk.model import assemble_matrix
from brainpbpk.params import DrugParams, ModelVariant, SystemParams
from brainpbpk.solvers import (PLASMA_INPUT, InitialState, Method,
                               NonFiniteState, SolveConfig, StepSizeUnderflow,
                               dopri45_solve, expm_propagate, plasma_input,
                               propagate_states, rk4_solve, solve,
                               synthesize_dataset)
from brainpbpk.training import default_estimation_spec

SYS = SystemParams()
DRUG = DrugParams()
# the plasma enters brain blood alone, at Qbrain / Vbb
E1 = np.array([1.0, 0.0, 0.0, 0.0])
FORCING = SYS.Qbrain / SYS.Vbb * E1


class TestGenericIntegrators:
    """Both steppers against problems with closed-form solutions."""

    def test_rk4_exponential_decay(self):
        grid = np.linspace(0.0, 5.0, 11)
        out = rk4_solve(lambda t, y: -y, np.array([1.0]), grid, 0.01)
        assert np.max(np.abs(out[:, 0] - np.exp(-grid))) < 1e-9

    def test_rk4_polynomial_exact(self):
        # RK4 integrates quartics in t exactly up to roundoff
        grid = np.array([0.0, 1.0, 2.0])
        out = rk4_solve(lambda t, y: np.array([4 * t ** 3]),
                        np.array([0.0]), grid, 0.25)
        assert np.allclose(out[:, 0], grid ** 4, atol=1e-12)

    def test_rk4_lands_on_grid_regardless_of_h(self):
        grid = np.array([0.0, 0.3, 1.0])
        out = rk4_solve(lambda t, y: -y, np.array([1.0]), grid, 0.07)
        assert np.max(np.abs(out[:, 0] - np.exp(-grid))) < 1e-7

    def test_dopri_exponential_decay(self):
        grid = np.linspace(0.0, 5.0, 11)
        out = dopri45_solve(lambda t, y: -y, np.array([1.0]), grid,
                            rtol=1e-10, atol=1e-12)
        assert np.max(np.abs(out[:, 0] - np.exp(-grid))) < 1e-8

    def test_dopri_harmonic_oscillator(self):
        def f(t, y):
            return np.array([y[1], -y[0]])
        grid = np.linspace(0.0, 2 * math.pi, 9)
        out = dopri45_solve(f, np.array([1.0, 0.0]), grid,
                            rtol=1e-10, atol=1e-12)
        assert np.max(np.abs(out[:, 0] - np.cos(grid))) < 1e-7

    def test_rk4_nonfinite_raises(self):
        with pytest.raises(NonFiniteState):
            rk4_solve(lambda t, y: y ** 2, np.array([1.0]),
                      np.array([0.0, 10.0]), 0.01)

    def test_dopri_nonfinite_raises(self):
        # y^2 overflows in the first stage; the error names it, no warning
        with pytest.raises(NonFiniteState):
            dopri45_solve(lambda t, y: y ** 2, np.array([1e200]),
                          np.array([0.0, 1.0]), rtol=1e-8, atol=1e-10)

    def test_dopri_underflow_raises(self):
        # derivative blows up before the endpoint, forcing tiny steps
        def f(t, y):
            return np.array([1.0 / (1.0 - t)])
        with pytest.raises((StepSizeUnderflow, NonFiniteState)):
            dopri45_solve(f, np.array([0.0]), np.array([0.0, 2.0]),
                          rtol=1e-8, atol=1e-10)


def constant_plasma(value, horizon=48.0):
    return PlasmaProfile(np.array([0.0, horizon]), np.array([value, value]))


class TestExpmPropagate:
    def test_decoupled_constant_forcing_analytic(self):
        # A diagonal, constant forcing on component 1:
        # y0(t) = (f/|a|)(1 - e^{-|a| t}), others stay zero.
        A = np.diag([-3.0, -1.0, -2.0, -0.5])
        f = 4.0 / 2.0
        grid = np.linspace(0.0, 4.0, 9)
        series = expm_propagate(A, f * E1, np.zeros(4),
                                constant_plasma(1.0, 4.0), grid)
        expected = (f / 3.0) * (1.0 - np.exp(-3.0 * grid))
        assert np.max(np.abs(series.column("Cbb") - expected)) < 1e-13
        assert np.max(np.abs(series.column("Cbm"))) == 0.0

    def test_ramp_forcing_analytic(self):
        # y' = -y + t  has solution  t - 1 + e^{-t} from y(0)=0
        A = np.diag([-1.0, -1.0, -1.0, -1.0])
        horizon = 3.0
        plasma = PlasmaProfile(np.array([0.0, horizon]),
                               np.array([0.0, horizon]))
        grid = np.linspace(0.0, horizon, 7)
        series = expm_propagate(A, E1, np.zeros(4), plasma, grid)
        expected = grid - 1.0 + np.exp(-grid)
        assert np.max(np.abs(series.column("Cbb") - expected)) < 1e-13

    def test_no_forcing_matches_matrix_exponential(self):
        rng = np.random.default_rng(3)
        A = assemble_matrix(SYS, DRUG)
        y0 = rng.uniform(0, 0.1, size=4)
        grid = np.array([0.0, 1.5])
        series = expm_propagate(A, FORCING, y0, constant_plasma(0.0), grid)
        expected = scipy_expm(A * 1.5) @ y0
        assert np.max(np.abs(series.concentrations()[:, 1] - expected)) < 1e-14

    def test_initial_state_echoed_at_t0(self):
        A = assemble_matrix(SYS, DRUG)
        y0 = np.array([0.01, 0.02, 0.03, 0.04])
        grid = np.linspace(0.0, 1.0, 5)
        series = expm_propagate(A, FORCING, y0, constant_plasma(0.05), grid)
        assert np.array_equal(series.concentrations()[:, 0], y0)


    def test_blow_up_raises_nonfinite_state(self):
        # y' = 50 y overflows once 50 t passes log(max float) ~ 709.8
        grid = np.linspace(0.0, 48.0, 49)
        with pytest.raises(NonFiniteState, match=r"t=15\b"):
            expm_propagate(50.0 * np.eye(4), FORCING, np.ones(4),
                           constant_plasma(0.0), grid)

    def test_blow_up_between_grid_times_names_a_grid_time(self):
        # the state first overflows at the plasma knot t=14.5, which splits
        # a step of the per-step loop; the error names the next grid time
        grid = np.linspace(0.0, 48.0, 49)
        with pytest.raises(NonFiniteState, match=r"t=15\b"):
            expm_propagate(50.0 * np.eye(4), FORCING, np.ones(4),
                           knotted(constant_plasma(0.0), 14.5), grid)

    def test_grid_before_t0_rejected(self):
        grid = np.linspace(-2.0, 1.0, 4)
        with pytest.raises(ValueError, match="start at or after the dose"):
            expm_propagate(assemble_matrix(SYS, DRUG), FORCING, np.zeros(4),
                           constant_plasma(0.05), grid)


def assert_matches_scipy(stack):
    """``solvers.expm`` of every matrix in the stack is scipy's to 1e-13 of
    that matrix's largest entry."""
    stack = np.asarray(stack).reshape((-1,) + np.shape(stack)[-2:])
    ours = solvers.expm(stack)
    for E, M in zip(ours, stack):
        ref = scipy_expm(M)
        assert np.max(np.abs(E - ref)) <= 1e-13 * np.max(np.abs(ref))


def rate_like(rng, norm):
    """An augmented 6x6 transition generator (see ``_transition_ops``) of a
    random 4-compartment system: non-negative transfers, columns that lose
    at least what they pass on, a forcing column and the ramp entry; scaled
    to the given 1-norm."""
    M = np.zeros((6, 6))
    transfers = rng.uniform(0.0, 1.0, (4, 4))
    np.fill_diagonal(transfers, 0.0)
    M[:4, :4] = transfers - np.diag(transfers.sum(axis=0)
                                    + rng.uniform(0.0, 1.0, 4))
    M[:4, 4] = rng.uniform(0.0, 1.0, 4)
    M[4, 5] = 1.0
    return M * norm / np.abs(M).sum(axis=0).max()


def spy_expm(monkeypatch):
    """Record every stack ``solvers.expm`` is called with."""
    stacks, expm = [], solvers.expm

    def spy(M):
        stacks.append(M)
        return expm(M)

    monkeypatch.setattr(solvers, "expm", spy)
    return stacks


class TestExpm:
    """The in-house Pade-13 exponential against scipy's."""

    def test_random_stacks_over_six_decades_of_norm(self):
        rng = np.random.default_rng(11)
        norms = np.logspace(-3.0, 3.0, 25)
        assert_matches_scipy([rate_like(rng, n) for n in norms])
        assert_matches_scipy(np.reshape(
            [rate_like(rng, n) for n in np.repeat(norms, 2)], (5, 10, 6, 6)))

    def test_default_grid_operator(self, monkeypatch):
        stacks = spy_expm(monkeypatch)
        grid = np.linspace(0.0, 48.0, 200)
        propagate_states(assemble_matrix(SYS, DRUG), FORCING, np.zeros(4),
                         plasma_input(grid), grid)
        assert [M.shape for M in stacks] == [(1, 6, 6)]
        assert_matches_scipy(stacks[0])

    def test_de_population_operators(self, monkeypatch):
        spec = default_estimation_spec()
        lo, hi = zip(*[(p.lo, p.hi) for p in spec.free])
        population = np.random.default_rng(5).uniform(lo, hi, (60, len(lo)))
        dataset = synthesize_dataset(SYS, DRUG)
        stacks = spy_expm(monkeypatch)
        assert np.all(np.isfinite(population_sse(population, spec, dataset)))
        assert [M.shape for M in stacks] == [(60, 1, 6, 6)]
        assert_matches_scipy(stacks[0])

    def test_each_matrix_is_scaled_alone(self):
        rng = np.random.default_rng(2)
        big, small = rate_like(rng, 1e3), rate_like(rng, 1e-2)
        both = solvers.expm(np.stack([big, small]))
        assert np.array_equal(both[0], solvers.expm(big))
        assert np.array_equal(both[1], solvers.expm(small))

    def test_zero_matrix_gives_identity_exactly(self):
        assert np.array_equal(solvers.expm(np.zeros((6, 6))), np.eye(6))
        assert np.array_equal(solvers.expm(np.zeros((3, 6, 6))),
                              np.broadcast_to(np.eye(6), (3, 6, 6)))

    def test_non_finite_input_is_quiet(self):
        M = np.stack([rate_like(np.random.default_rng(4), 1.0),
                      np.full((6, 6), np.nan), np.full((6, 6), np.inf),
                      np.full((6, 6), 1e300)])
        with np.errstate(all="raise"):
            E = solvers.expm(M)
        assert np.array_equal(E[0], solvers.expm(M[0]))
        assert not np.isfinite(E[1:]).all(axis=(1, 2)).any()


def knotted(plasma, t):
    """The same piecewise-linear plasma with one more knot, at time t."""
    times = np.insert(plasma.times, np.searchsorted(plasma.times, t), t)
    return PlasmaProfile(times, np.interp(times, plasma.times, plasma.values))


class TestPropagateStates:
    # one system or a stack of 60, each from a zero and a non-zero start
    @pytest.mark.parametrize("rows,y0", [
        pytest.param(rows, y0, id=f"{rows}{tag}")
        for tag, y0 in [("", np.zeros(4)),
                        ("-y0", np.array([0.01, 0.02, 0.03, 0.04]))]
        for rows in (None, 60)])
    def test_doubling_scan_matches_step_loop(self, rows, y0):
        # a plasma knot inside one step splits it, so the knotted solve
        # takes the per-step loop over the same ODE as the uniform scan
        grid = np.linspace(0.0, 48.0, 200)
        plasma = plasma_input(grid)
        rng = np.random.default_rng(7)
        systems = [SYS] if rows is None else [
            SystemParams(Vbb=rng.uniform(0.03, 0.2), Vbm=rng.uniform(0.5, 2.0),
                         Vccsf=rng.uniform(0.05, 0.5),
                         Vscsf=rng.uniform(0.01, 0.1)) for _ in range(rows)]
        A = np.stack([assemble_matrix(s, DRUG) for s in systems])
        f = np.array([s.Qbrain / s.Vbb * E1 for s in systems])
        if rows is None:
            A, f = A[0], f[0]
        scan = propagate_states(A, f, y0, plasma, grid)
        loop = propagate_states(A, f, y0,
                                knotted(plasma, 0.5 * (grid[7] + grid[8])), grid)
        assert scan.shape == loop.shape == A.shape[:-2] + (4, grid.size)
        peak = np.max(np.abs(loop), axis=-1, keepdims=True)
        assert np.max(np.abs(scan - loop) / peak) <= 1e-13

    @pytest.mark.parametrize("rows", [None, 60])
    @pytest.mark.parametrize("grid", [
        np.linspace(0.0, 48.0, 200),
        np.concatenate([[0.0], np.sort(np.random.default_rng(3).uniform(
            0.0, 48.0, 150))])], ids=["uniform", "irregular"])
    def test_on_grid_plasma_matches_merged_knots(self, rows, grid):
        # a knot past the horizon is dropped by the merge, which then runs
        # on the grid as its breakpoints: the same arithmetic, every bit
        plasma = plasma_input(grid)
        past = plasma_input(np.append(grid, grid[-1] + 1.0))
        rng = np.random.default_rng(9)
        A = assemble_matrix(SYS, DRUG)
        f = FORCING
        if rows is not None:
            A = A * rng.uniform(0.5, 2.0, (rows, 1, 1))
            f = f * rng.uniform(0.5, 2.0, (rows, 1))
        on_grid = propagate_states(A, f, np.zeros(4), plasma, grid)
        merged = propagate_states(A, f, np.zeros(4), past, grid)
        assert on_grid.flags.c_contiguous  # returned as computed, no gather
        assert np.array_equal(on_grid, merged)

    def test_uniform_grid_one_expm_slice_per_system(self, monkeypatch):
        stacks = spy_expm(monkeypatch)
        grid = np.linspace(0.0, 48.0, 200)
        plasma = plasma_input(grid)
        A = assemble_matrix(SYS, DRUG)
        propagate_states(A, FORCING, np.zeros(4), plasma, grid)
        propagate_states(np.stack([A] * 3), np.stack([FORCING] * 3),
                         np.zeros(4), plasma, grid)
        assert [M.shape for M in stacks] == [(1, 6, 6), (3, 1, 6, 6)]

    def test_grid_before_t0_rejected(self):
        grid = np.linspace(-0.5, 1.0, 4)
        A = np.stack([assemble_matrix(SYS, DRUG)] * 2)
        with pytest.raises(ValueError, match="start at or after the dose"):
            propagate_states(A, np.stack([FORCING] * 2), np.zeros(4),
                             constant_plasma(0.05), grid)

    def test_batched_rows_match_single_solves(self):
        grid = np.linspace(0.0, 48.0, 60)
        plasma = plasma_input(np.linspace(0.0, 48.0, 25))
        systems = [SystemParams(Vbb=v) for v in (0.03, SYS.Vbb, 0.2)]
        A = np.stack([assemble_matrix(s, DRUG) for s in systems])
        f = np.array([s.Qbrain / s.Vbb * E1 for s in systems])
        batched = propagate_states(A, f, np.zeros(4), plasma, grid)
        assert batched.shape == (3, 4, grid.size)
        for row, Ai, fi in zip(batched, A, f):
            single = expm_propagate(Ai, fi, np.zeros(4), plasma,
                                    grid).concentrations()
            scale = np.maximum(np.abs(single), 1e-300)
            assert np.max(np.abs(row - single) / scale) <= 1e-14

    def test_nonuniform_grid_knots_off_grid_match_dopri(self):
        grid = np.array([0.0, 0.05, 0.3, 0.31, 1.7, 2.9, 6.0, 11.5, 24.0,
                         47.2])
        plasma = plasma_input(np.linspace(0.0, 48.0, 37))
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
        plasma = plasma_input(grid)
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
        # the exact route checks in propagate_states, the steppers in solve
        grid = np.linspace(-0.5, 1.0, 4)
        plasma = plasma_input(np.linspace(0, 2, 5))
        for method in Method:
            with pytest.raises(ValueError, match="start at or after the dose"):
                solve(SYS, DRUG, plasma, ModelVariant.PAPER_LITERAL,
                      InitialState(), SolveConfig(method=method, grid=grid))

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SolveConfig(h=0.0)
        with pytest.raises(ValueError):
            SolveConfig(grid=np.array([0.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            InitialState(Y0=np.array([0.0, -1.0, 0.0, 0.0]))


class TestPlasmaInput:
    def test_peak_value_attained(self):
        assert PLASMA_INPUT == {"ka": 1.0, "ke": 0.1, "peak": 0.06}
        tmax = math.log(1.0 / 0.1) / (1.0 - 0.1)
        prof = plasma_input(np.array([0.0, tmax, 48.0]))
        assert prof.values[1] == pytest.approx(0.06, rel=1e-12)
        assert np.all(prof.values <= 0.06 + 1e-15)

    def test_starts_at_zero(self):
        prof = plasma_input(np.linspace(0, 48, 10))
        assert prof.values[0] == 0.0


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
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="horizon must be finite"):
                synthesize_dataset(SYS, DRUG, horizon=bad)
            with pytest.raises(ValueError, match="noise_sd must be finite"):
                synthesize_dataset(SYS, DRUG, noise_sd=bad)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            synthesize_dataset(SYS, DRUG, noise_sd=1e-4, seed=-1)

    def test_reference_set_bits(self):
        # the 200-point reference set that the DE and PINN fits read,
        # pinned to the bit: SHA-256 of its C-order float64 bytes
        ds = synthesize_dataset(SYS, DRUG, n_points=200)
        digests = [hashlib.sha256(a.tobytes()).hexdigest()
                   for a in (ds.times, ds.concentrations(), ds.plasma)]
        assert digests == [
            "fc321fe73ced037db837a05860dd44df68364dbb7e67725f4309512cf9821922",
            "b09ff0374bd09aa4192abbfc1bc571e91584e610014266af510d2af5cff9d49f",
            "65a79c193d581879033f84070a029bc81d8ddd6d6c631d0a00a4db8431f9541c"]

    def test_noisy_set_bits(self):
        # the noise path pinned the same way: seed 1, sd 1e-4, with six
        # entries truncated at zero
        ds = synthesize_dataset(SYS, DRUG, n_points=200, noise_sd=1e-4, seed=1)
        assert np.count_nonzero(ds.concentrations() == 0.0) == 6
        assert hashlib.sha256(ds.concentrations().tobytes()).hexdigest() == \
            "6701592efbb948b1a939f9292baa66356965f396b78d02c644ea14b31c5595ae"

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
    # the dose's curve at a random peak in [0.01, 0.1]
    scale = rng.uniform(0.01, 0.1) / PLASMA_INPUT["peak"]
    plasma = PlasmaProfile(grid, plasma_input(grid).values * scale)
    cfg_e = SolveConfig(method=Method.EXPM_ORACLE, grid=grid)
    cfg_d = SolveConfig(method=Method.DOPRI45, rtol=1e-9, atol=1e-13, grid=grid)
    a = solve(s, DRUG, plasma, ModelVariant.PAPER_LITERAL, InitialState(), cfg_e)
    b = solve(s, DRUG, plasma, ModelVariant.PAPER_LITERAL, InitialState(), cfg_d)
    scale = max(np.max(a.concentrations()), 1e-9)
    assert np.max(np.abs(a.concentrations() - b.concentrations())) / scale < 1e-7
