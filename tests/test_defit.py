import numpy as np
import pytest

from brainpbpk.dataio import ConcentrationSeries
from brainpbpk.params import (ALL_PARAM_NAMES, DrugParams, ModelVariant,
                              SystemParams, reference_value, substitute)
from brainpbpk.solvers import (InitialState, Method, SolveConfig, solve,
                               synthesize_dataset)
from brainpbpk import defit
from brainpbpk.defit import (DEConfig, _reflect, differential_evolution,
                             fit_de, population_sse, sse_objective)
from brainpbpk.training import (BoundedParam, EstimationSpec,
                                default_estimation_spec)

SYS = SystemParams()
DRUG = DrugParams()


class TestReflect:
    def test_inside_unchanged(self):
        lo, hi = np.zeros(3), np.ones(3)
        x = np.array([0.2, 0.5, 0.9])
        assert np.array_equal(_reflect(x, lo, hi), x)

    def test_reflection_mirror(self):
        lo, hi = np.array([0.0]), np.array([1.0])
        assert _reflect(np.array([1.3]), lo, hi)[0] == pytest.approx(0.7)
        assert _reflect(np.array([-0.2]), lo, hi)[0] == pytest.approx(0.2)

    def test_far_overshoot_stays_in_box(self):
        lo, hi = np.array([1.0]), np.array([2.0])
        for v in (-7.3, 12.6, 1e3):
            out = _reflect(np.array([v]), lo, hi)[0]
            assert 1.0 <= out <= 2.0


class TestDifferentialEvolution:
    def test_sphere_function(self):
        res_x, res_f, _ = differential_evolution(
            lambda X: np.sum(X * X, axis=1),
            [(-5, 5)] * 3, DEConfig(generations=200, seed=0))
        assert res_f < 1e-10
        assert np.max(np.abs(res_x)) < 1e-4

    def test_shifted_optimum(self):
        target = np.array([1.5, -2.0])
        res_x, _, _ = differential_evolution(
            lambda X: np.sum((X - target) ** 2, axis=1),
            [(-5, 5)] * 2, DEConfig(generations=300, seed=1))
        assert np.allclose(res_x, target, atol=1e-4)

    def test_deterministic_under_seed(self):
        obj = lambda X: np.sum(X * X, axis=1)
        bounds = [(-1, 1)] * 2
        a = differential_evolution(obj, bounds, DEConfig(generations=30, seed=7))
        b = differential_evolution(obj, bounds, DEConfig(generations=30, seed=7))
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]

    def test_stagnation_stops_early(self):
        # constant objective stalls immediately
        _, _, gens = differential_evolution(
            lambda X: np.ones(len(X)), [(-1, 1)] * 2,
            DEConfig(generations=500, stagnation_window=10, seed=0))
        assert gens <= 11

    def test_population_default_is_ten_per_dim(self):
        calls = []

        def obj(X):
            calls.append(len(X))
            return np.sum(X * X, axis=1)
        differential_evolution(obj, [(-1, 1)] * 3,
                               DEConfig(generations=1, stagnation_window=99,
                                        seed=0))
        # 30 initial evaluations plus 30 trials in the single generation
        assert sum(calls) == 60

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            DEConfig(population=2)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            DEConfig(seed=-1)
        with pytest.raises(ValueError):
            DEConfig(generations=-1)
        with pytest.raises(ValueError):
            DEConfig(stagnation_window=0)

    # an empty interval, an infinite or NaN end, or no coordinate at all
    # has no box to sample
    @pytest.mark.parametrize("bounds", [
        pytest.param([(1.0, 1.0)], id="lo-equals-hi"),
        pytest.param([(0.5, np.inf)], id="inf-hi"),
        pytest.param([(-np.inf, 1.0)], id="inf-lo"),
        pytest.param([(0.0, 1.0), (np.nan, 1.0)], id="nan"),
        pytest.param([], id="empty")])
    def test_invalid_bounds_rejected(self, bounds):
        with pytest.raises(ValueError, match="^invalid bounds$"):
            differential_evolution(lambda X: np.zeros(len(X)), bounds,
                                   DEConfig(generations=2))

    def test_scalar_objective_rejected(self):
        with pytest.raises(ValueError):
            differential_evolution(lambda X: float(np.sum(X * X)),
                                   [(-1, 1)] * 2, DEConfig(generations=1))


def _row_loop_de(objective, bounds, cfg):
    """Independent oracle of ``differential_evolution``: rand/1/bin with
    the mutation and crossover done one row at a time. Also returns how
    many mutant coordinates left the box and were reflected."""
    lo, hi = (np.array(side, dtype=float) for side in zip(*bounds))
    dim = lo.size
    npop = cfg.population or 10 * dim
    rng = np.random.default_rng(cfg.seed)
    pop = lo + rng.uniform(size=(npop, dim)) * (hi - lo)
    fitness = objective(pop)
    best_idx = int(np.argmin(fitness))
    best_x, best_f = pop[best_idx].copy(), float(fitness[best_idx])
    stagnant = gen = reflected = 0
    for gen in range(1, cfg.generations + 1):
        prev_best = best_f
        trials = np.empty_like(pop)
        for i in range(npop):
            choices = [j for j in rng.permutation(npop) if j != i][:3]
            a, b, c = pop[choices[0]], pop[choices[1]], pop[choices[2]]
            raw = a + defit.MUTATION * (b - c)
            reflected += int(np.count_nonzero((raw < lo) | (raw > hi)))
            mutant = _reflect(raw, lo, hi)
            cross = rng.uniform(size=dim) < defit.CROSSOVER
            cross[rng.integers(dim)] = True
            trials[i] = np.where(cross, mutant, pop[i])
        trial_fitness = objective(trials)
        improved = trial_fitness <= fitness
        pop[improved] = trials[improved]
        fitness[improved] = trial_fitness[improved]
        gen_best = int(np.argmin(fitness))
        if fitness[gen_best] < best_f:
            best_f = float(fitness[gen_best])
            best_x = pop[gen_best].copy()
        stagnant = (stagnant + 1 if prev_best - best_f <= defit.STAGNATION_TOL
                    else 0)
        if stagnant >= cfg.stagnation_window:
            break
    return best_x, best_f, gen, reflected


class TestDrawOrder:
    """``differential_evolution`` draws, per row, the same random numbers
    in the same order as the row-at-a-time oracle, so every population it
    scores and every result keep every bit."""

    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("dim", [1, 2, 6])
    @pytest.mark.parametrize("npop", [4, 5, 60])
    def test_matches_row_loop_oracle(self, npop, dim, seed):
        # a narrow box with its optimum beyond the upper corner: the
        # population presses against a wall and mutants leave the box
        bounds = [(0.1 * k, 0.1 * k + 1e-3 * (k + 1)) for k in range(dim)]
        target = np.array([hi for _, hi in bounds]) + 0.05

        def recorder(seen):
            def objective(X):
                seen.append(np.array(X))
                return np.sum((X - target) ** 2, axis=1)
            return objective

        cfg = DEConfig(population=npop, generations=25, stagnation_window=8,
                       seed=seed)
        got_seen, want_seen = [], []
        best_x, best_f, gens = differential_evolution(recorder(got_seen),
                                                      bounds, cfg)
        *want, reflected = _row_loop_de(recorder(want_seen), bounds, cfg)
        assert reflected > 0
        assert len(got_seen) == len(want_seen) == gens + 1
        for got, expected in zip(got_seen, want_seen):
            assert np.array_equal(got, expected)
        assert np.array_equal(best_x, want[0])
        assert best_f == want[1] and gens == want[2]


def test_reference_fit_digits():
    """The benchmark's reference DE operation: the 200-point reference set,
    seed 1, population 60, 3 generations; every bit of the fit is pinned."""
    ds = synthesize_dataset(SYS, DRUG, n_points=200)
    res = fit_de(ds, default_estimation_spec(),
                 DEConfig(population=60, generations=3, seed=1))
    assert res.generations == 3
    assert res.objective.hex() == "0x1.cdb8b4745f174p-14"
    assert [float(v).hex() for v in res.values] == [
        "0x1.7bd0713d598bap-4", "0x1.e769801261396p+0",
        "0x1.1f863755076c1p-4", "0x1.1d7e2950ce264p-5",
        "0x1.04d4a24515cbap-3", "0x1.8edea8f59e71cp-6"]


class TestSseObjective:
    def test_zero_at_truth(self):
        ds = synthesize_dataset(SYS, DRUG, n_points=40)
        spec = default_estimation_spec()
        truth = [SYS.Vbb, SYS.Vbm, SYS.Vccsf, SYS.Vscsf, DRUG.fubb,
                 DRUG.lam_ccsf]
        assert sse_objective(truth, spec, ds) < 1e-22

    def test_positive_away_from_truth(self):
        ds = synthesize_dataset(SYS, DRUG, n_points=40)
        spec = default_estimation_spec()
        shifted = [SYS.Vbb * 1.5, SYS.Vbm, SYS.Vccsf, SYS.Vscsf, DRUG.fubb,
                   DRUG.lam_ccsf]
        assert sse_objective(shifted, spec, ds) > 1e-10

    def test_invalid_candidate_scores_inf(self):
        ds = synthesize_dataset(SYS, DRUG, n_points=10)
        spec = default_estimation_spec()
        bad = [-1.0, SYS.Vbm, SYS.Vccsf, SYS.Vscsf, DRUG.fubb, DRUG.lam_ccsf]
        assert sse_objective(bad, spec, ds) == float("inf")


class TestPopulationSse:
    def test_invalid_row_inf_others_match_scalar(self):
        ds = synthesize_dataset(SYS, DRUG, n_points=40)
        spec = default_estimation_spec()
        truth = [SYS.Vbb, SYS.Vbm, SYS.Vccsf, SYS.Vscsf, DRUG.fubb,
                 DRUG.lam_ccsf]
        # row 2 fails validation; row 4 is valid but its rate matrix
        # overflows to inf
        pop = np.array([np.multiply(truth, 1.2), truth,
                        [-1.0] + truth[1:], np.multiply(truth, 0.7),
                        [1e-320] + truth[1:]])
        sse = population_sse(pop, spec, ds)
        assert sse.shape == (5,)
        assert sse[2] == float("inf") and sse[4] == float("inf")
        for i in (0, 1, 3):
            assert sse[i] == pytest.approx(sse_objective(pop[i], spec, ds),
                                           rel=1e-13, abs=1e-30)

    # values of each kind of parameter that fail validation, and one that
    # passes at or near the edge of the valid range
    BAD = {"volume": (0.0, -1.0, np.nan), "flow": (-1.0, np.nan),
           "clearance": (-1.0, np.nan), "fraction": (-0.1, 1.5, np.nan)}
    EDGE = {"volume": 1e-3, "flow": 0.0, "clearance": 0.0, "fraction": 1.0}

    @staticmethod
    def kind(name):
        if name.startswith("V"):
            return "volume"
        if name.startswith(("Q", "PS")):
            return "flow"
        return "clearance" if name.startswith("CL") else "fraction"

    @staticmethod
    def raises(name, value):
        try:
            substitute(SYS, DRUG, {name: value})
        except ValueError:
            return True
        return False

    def test_validation_parity_across_all_fields(self):
        # each field free alone: the batched range check must score +inf on
        # exactly the rows whose dataclass construction raises
        ds = synthesize_dataset(SYS, DRUG, n_points=20)
        for name in ALL_PARAM_NAMES:
            kind = self.kind(name)
            ref = reference_value(name)
            values = np.array([ref, 0.5 * ref, self.EDGE[kind],
                               *self.BAD[kind]])
            spec = EstimationSpec(free=[BoundedParam(name, -1.0, 2.0)])
            sse = population_sse(values[:, None], spec, ds)
            raises = np.array([self.raises(name, v) for v in values])
            assert raises.sum() == len(self.BAD[kind]), name
            assert np.all(np.isinf(sse[raises])), name
            for v, score in zip(values[~raises], sse[~raises]):
                assert np.isfinite(score), (name, v)
                assert score == pytest.approx(sse_objective([v], spec, ds),
                                              rel=1e-13, abs=1e-30), (name, v)

    def test_late_start_matches_dopri(self):
        # without its t = 0 row the set's plasma knots start after the
        # dose, so the exact solve merges a breakpoint at t = 0 and holds
        # the plasma at its first sample before the first knot, as
        # linear_interp does for the adaptive stepper
        full = synthesize_dataset(SYS, DRUG, n_points=200)
        ds = ConcentrationSeries(full.times[1:], full.conc[:, 1:],
                                 full.plasma[1:])
        spec = default_estimation_spec()
        truth = np.array([SYS.Vbb, SYS.Vbm, SYS.Vccsf, SYS.Vscsf, DRUG.fubb,
                          DRUG.lam_ccsf])
        pop = truth * np.array([[1.0], [1.3], [0.7]])
        cfg = SolveConfig(method=Method.DOPRI45, rtol=1e-10, atol=1e-14,
                          grid=ds.times)
        for row, score in zip(pop, population_sse(pop, spec, ds)):
            sys, drug = substitute(SYS, DRUG, dict(zip(spec.names, row)))
            pred = solve(sys, drug, ds.plasma_profile(),
                         ModelVariant.PAPER_LITERAL, InitialState(), cfg)
            want = np.sum((pred.concentrations() - ds.concentrations()) ** 2)
            assert score == pytest.approx(want, rel=1e-8)


class TestFitDe:
    def test_recovers_two_volumes(self):
        ds = synthesize_dataset(SYS, DRUG, n_points=60)
        spec = default_estimation_spec(free_names=("Vbb", "Vscsf"))
        res = fit_de(ds, spec, DEConfig(generations=150, seed=0))
        assert res.names == ["Vbb", "Vscsf"]
        for name, value in zip(res.names, res.values):
            assert abs(reference_value(name) - value) < 1e-4, name
        assert res.objective < 1e-12

    def test_inf_candidates_and_budget_stop(self, monkeypatch):
        # Vbb bounds straddle zero, so some rows fail validation
        ds = synthesize_dataset(SYS, DRUG, n_points=20)
        spec = EstimationSpec(free=[BoundedParam("Vbb", -0.05, 0.1)])
        seen = []

        def recording(population, *args, **kwargs):
            seen.append(np.array(population))
            return population_sse(population, *args, **kwargs)
        monkeypatch.setattr(defit, "population_sse", recording)
        res = fit_de(ds, spec, DEConfig(population=8, generations=3,
                                        stagnation_window=99, seed=0))
        evaluated = np.concatenate(seen)
        assert len(evaluated) == 8 * 4
        expected = int(np.count_nonzero(evaluated[:, 0] <= 0.0))
        assert expected > 0
        assert res.inf_candidates == expected
        assert res.generations == 3 and res.stop_reason == "budget"

    def test_stagnation_stop_reason(self, monkeypatch):
        # a constant objective never improves, so every generation stagnates
        ds = synthesize_dataset(SYS, DRUG, n_points=20)
        spec = default_estimation_spec(free_names=("Vbb",))
        monkeypatch.setattr(defit, "population_sse",
                            lambda population, *args: np.ones(len(population)))
        res = fit_de(ds, spec, DEConfig(population=6, generations=50,
                                        stagnation_window=2, seed=0))
        assert res.generations == 2 and res.stop_reason == "stagnation"
        assert res.inf_candidates == 0
