"""Differential Evolution baseline: global least-squares parameter fit.

Classic rand/1/bin: mutant v = a + F*(b - c) over three distinct random
members, binomial crossover with a guaranteed mutated coordinate, greedy
selection. Out-of-bounds coordinates are reflected back into the box.

The objective scores a whole population at once, ``(P, d) -> (P,)``: each
candidate is validated and turned into its rate matrix on its own, then
all of them are forward-solved together on the dataset's time grid by one
batched exact propagation, and each scores the sum of squared residuals
over all compartments. A candidate that fails validation or whose solve
is not finite scores +inf without affecting the others.
"""
from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import numpy as np

from .dataio import ConcentrationSeries
from .model import assemble_matrix
from .params import reference_value, substitute
from .solvers import propagate_states
from .training import EstimationSpec


@dataclass(frozen=True)
class DEConfig:
    population: int = 0        # 0 -> 10 x dimension
    mutation: float = 0.8
    crossover: float = 0.9
    generations: int = 500
    stagnation_tol: float = 1e-12
    stagnation_window: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.population and self.population < 4:
            raise ValueError("population must be >= 4")
        if not 0.0 < self.mutation <= 2.0:
            raise ValueError("mutation factor must be in (0, 2]")
        if not 0.0 <= self.crossover <= 1.0:
            raise ValueError("crossover rate must be in [0, 1]")


@dataclass
class EstimationResult:
    names: list[str]
    values: np.ndarray
    abs_errors: list[float | None]
    objective: float
    wall_seconds: float
    generations: int = 0
    stop_reason: str = "budget"     # "stagnation" or "budget"
    inf_candidates: int = 0         # rows scored +inf over the run

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["parameter", "value", "abs_error", "objective"])
            for i, name in enumerate(self.names):
                err = self.abs_errors[i]
                writer.writerow([
                    name, f"{self.values[i]:.17g}",
                    "" if err is None else f"{err:.17g}",
                    f"{self.objective:.17g}" if i == 0 else ""])


def population_sse(population, spec: EstimationSpec,
                   dataset: ConcentrationSeries, plasma=None) -> np.ndarray:
    """Sum of squared residuals over all compartments and time points for
    each row of a ``(P, d)`` population of free-parameter vectors; rows
    that fail validation or solve to non-finite states score +inf."""
    if plasma is None:
        plasma = dataset.plasma_profile()
    population = np.asarray(population, dtype=float)
    sse = np.full(len(population), np.inf)
    rows, mats, scales = [], [], []
    for i, x in enumerate(population):
        try:
            sys_c, drug_c = substitute(spec.base_sys, spec.base_drug,
                                       dict(zip(spec.names, x)))
            mats.append(assemble_matrix(sys_c, drug_c))
            scales.append(sys_c.Qbrain / sys_c.Vbb)
        except (ValueError, OverflowError):
            continue
        rows.append(i)
    A, b = np.array(mats).reshape(-1, 4, 4), np.array(scales)
    finite = np.all(np.isfinite(A), axis=(1, 2)) & np.isfinite(b)
    rows = np.array(rows, dtype=int)[finite]
    if rows.size:
        pred = propagate_states(A[finite], b[finite], np.zeros(4), plasma,
                                dataset.times)
        with np.errstate(over="ignore", invalid="ignore"):
            resid = pred - dataset.concentrations()
            scores = np.sum(resid * resid, axis=(1, 2))
        sse[rows] = np.where(np.isfinite(scores), scores, np.inf)
    return sse


def sse_objective(free_values, spec: EstimationSpec,
                  dataset: ConcentrationSeries, plasma=None) -> float:
    """``population_sse`` for a single candidate free-parameter vector."""
    return float(population_sse([free_values], spec, dataset, plasma)[0])


def _reflect(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Reflect out-of-bounds coordinates back into [lo, hi]."""
    span = hi - lo
    y = (x - lo) % (2.0 * span)
    y = np.where(y > span, 2.0 * span - y, y)
    return lo + y


def _score(objective, population: np.ndarray) -> np.ndarray:
    fitness = np.asarray(objective(population), dtype=float)
    if fitness.shape != (len(population),):
        raise ValueError(f"objective must map a ({len(population)}, d) "
                         f"population to shape ({len(population)},), "
                         f"got {fitness.shape}")
    return fitness


def differential_evolution(objective, bounds, cfg: DEConfig = DEConfig()):
    """rand/1/bin DE over a box; returns (best point, best value,
    generations used). ``objective`` scores a whole population, mapping
    ``(P, d)`` to ``(P,)``. Deterministic under seed; best objective is
    non-increasing across generations."""
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    if np.any(lo >= hi):
        raise ValueError("invalid bounds")
    dim = lo.size
    npop = cfg.population or 10 * dim
    rng = np.random.default_rng(cfg.seed)

    pop = lo + rng.uniform(size=(npop, dim)) * (hi - lo)
    fitness = _score(objective, pop)
    best_idx = int(np.argmin(fitness))
    best_x, best_f = pop[best_idx].copy(), float(fitness[best_idx])

    stagnant = 0
    gen = 0
    for gen in range(1, cfg.generations + 1):
        prev_best = best_f
        trials = np.empty_like(pop)
        for i in range(npop):
            choices = [j for j in (rng.permutation(npop)) if j != i][:3]
            a, b, c = pop[choices[0]], pop[choices[1]], pop[choices[2]]
            mutant = _reflect(a + cfg.mutation * (b - c), lo, hi)
            cross = rng.uniform(size=dim) < cfg.crossover
            cross[rng.integers(dim)] = True
            trials[i] = np.where(cross, mutant, pop[i])
        trial_fitness = _score(objective, trials)
        improved = trial_fitness <= fitness
        pop[improved] = trials[improved]
        fitness[improved] = trial_fitness[improved]
        gen_best = int(np.argmin(fitness))
        if fitness[gen_best] < best_f:
            best_f = float(fitness[gen_best])
            best_x = pop[gen_best].copy()
        stagnant = stagnant + 1 if prev_best - best_f <= cfg.stagnation_tol else 0
        if stagnant >= cfg.stagnation_window:
            break
    return best_x, best_f, gen


def fit_de(dataset: ConcentrationSeries, spec: EstimationSpec,
           cfg: DEConfig = DEConfig(),
           reference: dict | None = None) -> EstimationResult:
    """DE fit of the free parameters; absolute errors are reported against
    the built-in reference values (or an explicit reference mapping)."""
    t0 = time.perf_counter()
    plasma = dataset.plasma_profile()
    bounds = [(p.lo, p.hi) for p in spec.free]
    inf_candidates = 0

    def objective(population):
        nonlocal inf_candidates
        sse = population_sse(population, spec, dataset, plasma)
        inf_candidates += int(np.count_nonzero(np.isinf(sse)))
        return sse

    best_x, best_f, gens = differential_evolution(objective, bounds, cfg)

    errors: list[float | None] = []
    for name, value in zip(spec.names, best_x):
        if reference is not None:
            ref = reference.get(name)
        else:
            ref = reference_value(name)
        errors.append(None if ref is None else abs(ref - value))
    return EstimationResult(names=spec.names, values=best_x,
                            abs_errors=errors, objective=best_f,
                            wall_seconds=time.perf_counter() - t0,
                            generations=gens,
                            stop_reason=("stagnation" if gens < cfg.generations
                                         else "budget"),
                            inf_candidates=inf_candidates)
