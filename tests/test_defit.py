import numpy as np
import pytest

from brainpbpk.params import DrugParams, SystemParams
from brainpbpk.solvers import synthesize_dataset
from brainpbpk import defit
from brainpbpk.defit import (DEConfig, EstimationResult, _reflect,
                             differential_evolution, fit_de, population_sse,
                             sse_objective)
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
        with pytest.raises(ValueError):
            DEConfig(mutation=0.0)
        with pytest.raises(ValueError):
            DEConfig(crossover=1.5)
        with pytest.raises(ValueError):
            differential_evolution(lambda X: np.zeros(len(X)), [(1.0, 1.0)])

    def test_scalar_objective_rejected(self):
        with pytest.raises(ValueError):
            differential_evolution(lambda X: float(np.sum(X * X)),
                                   [(-1, 1)] * 2, DEConfig(generations=1))


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
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
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


class TestFitDe:
    def test_recovers_two_volumes(self):
        ds = synthesize_dataset(SYS, DRUG, n_points=60)
        spec = default_estimation_spec(free_names=("Vbb", "Vscsf"))
        res = fit_de(ds, spec, DEConfig(generations=150, seed=0))
        assert res.names == ["Vbb", "Vscsf"]
        assert res.abs_errors[0] < 1e-4
        assert res.abs_errors[1] < 1e-4
        assert res.objective < 1e-12

    def test_result_csv(self, tmp_path):
        res = EstimationResult(names=["Vbb"], values=np.array([0.065]),
                               abs_errors=[1e-5], objective=1e-9,
                               wall_seconds=2.5)
        path = tmp_path / "fit.csv"
        res.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "parameter,value,abs_error,objective"
        assert lines[1].startswith("Vbb,0.065")

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

    def test_stagnation_stop_reason(self):
        ds = synthesize_dataset(SYS, DRUG, n_points=20)
        spec = default_estimation_spec(free_names=("Vbb",))
        res = fit_de(ds, spec, DEConfig(population=6, generations=50,
                                        stagnation_tol=np.inf,
                                        stagnation_window=2, seed=0))
        assert res.generations == 2 and res.stop_reason == "stagnation"
        assert res.inf_candidates == 0
