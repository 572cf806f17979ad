"""Differential Evolution baseline: global least-squares parameter fit.

Classic rand/1/bin: mutant v = a + F*(b - c) over three distinct random
members, binomial crossover with a guaranteed mutated coordinate, greedy
selection. Out-of-bounds coordinates are reflected back into the box.
``fit_de`` returns the best values, their objective and why the run
stopped; how far the values land from the true parameters, and how long
the run took, are the caller's to judge, as the CLI does for both engines.

Seed contract: after the initial population, each generation draws, row by
row, a permutation of the population (its first three members other than
the row are the donors a, b, c), then ``d`` crossover uniforms, then the
forced coordinate. Only these draws run per row; the mutation, reflection
and crossover are whole-population array operations, elementwise, so a
trial's bits do not depend on how the rows are batched.

The objective scores a whole population at once, ``(P, d) -> (P,)``: one
``model.rates`` call and one elementwise range check cover every candidate,
one batched exact propagation solves the valid ones on the dataset's time
grid, and each scores the sum of squared residuals over all compartments.
A candidate that fails validation or whose rates or solve are not finite
scores +inf without affecting the others.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import ConcentrationSeries
from .model import rates
from .params import in_range, substitute
from .solvers import propagate_states
from .training import EstimationSpec


# mutation factor F, crossover rate CR, and the least fall of the best
# objective that counts as progress for the stagnation stop
MUTATION, CROSSOVER, STAGNATION_TOL = 0.8, 0.9, 1e-12


@dataclass(frozen=True)
class DEConfig:
    population: int = 0        # 0 -> 10 x dimension
    generations: int = 500
    stagnation_window: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.population and self.population < 4:
            raise ValueError("population must be >= 4")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if self.stagnation_window < 1:
            raise ValueError("stagnation window must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass
class EstimationResult:
    names: list[str]
    values: np.ndarray
    objective: float
    generations: int = 0
    stop_reason: str = "budget"     # "stagnation" or "budget"
    inf_candidates: int = 0         # rows scored +inf over the run


def population_sse(population, spec: EstimationSpec,
                   dataset: ConcentrationSeries) -> np.ndarray:
    """Sum of squared residuals over all compartments and time points for
    each row of a ``(P, d)`` population of free-parameter vectors, driven
    by the dataset's plasma column; rows that fail validation or solve to
    non-finite states score +inf."""
    plasma = dataset.plasma_profile()
    population = np.asarray(population, dtype=float)
    n = len(population)
    valid = np.ones(n, dtype=bool)
    for name, column in zip(spec.names, population.T):
        valid &= in_range(name, column)
    columns = dict(zip(spec.names, population.T[..., None]))
    # rows out of range or with tiny volumes may divide by zero or
    # overflow; they score +inf below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        M, q, V = rates(*substitute(columns))
        A = np.broadcast_to(M / V[..., None], (n, 4, 4))
        f = np.broadcast_to(q / V, (n, 4))
    valid &= np.isfinite(A).all(axis=(1, 2)) & np.isfinite(f).all(axis=1)
    sse = np.full(n, np.inf)
    if valid.any():
        pred = propagate_states(A[valid], f[valid], np.zeros(4), plasma,
                                dataset.times)
        with np.errstate(over="ignore", invalid="ignore"):
            resid = pred - dataset.concentrations()
            scores = np.sum(resid * resid, axis=(1, 2))
        sse[valid] = np.where(np.isfinite(scores), scores, np.inf)
    return sse


def sse_objective(free_values, spec: EstimationSpec,
                  dataset: ConcentrationSeries) -> float:
    """``population_sse`` for a single candidate free-parameter vector."""
    return float(population_sse([free_values], spec, dataset)[0])


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
    non-increasing across generations.

    Per row and generation the random stream gives, in this order, the
    permutation that picks the donors, the ``d`` uniforms compared with CR
    and the forced coordinate; the trial population is then built in one
    array pass."""
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    if not (lo.size and np.isfinite([lo, hi]).all() and np.all(lo < hi)):
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
        donors = np.empty((npop, 3), dtype=np.intp)
        cross = np.empty((npop, dim), dtype=bool)
        for i in range(npop):
            # the first three entries that are not i lie in the first four
            head = rng.permutation(npop)[:4].tolist()
            if i in head:
                head.remove(i)
            donors[i] = head[:3]
            cross[i] = rng.random(dim) < CROSSOVER
            cross[i, rng.integers(dim)] = True
        a, b, c = pop[donors.T]
        trials = np.where(cross, _reflect(a + MUTATION * (b - c), lo, hi), pop)
        trial_fitness = _score(objective, trials)
        improved = trial_fitness <= fitness
        pop[improved] = trials[improved]
        fitness[improved] = trial_fitness[improved]
        gen_best = int(np.argmin(fitness))
        if fitness[gen_best] < best_f:
            best_f = float(fitness[gen_best])
            best_x = pop[gen_best].copy()
        stagnant = stagnant + 1 if prev_best - best_f <= STAGNATION_TOL else 0
        if stagnant >= cfg.stagnation_window:
            break
    return best_x, best_f, gen


def fit_de(dataset: ConcentrationSeries, spec: EstimationSpec,
           cfg: DEConfig = DEConfig()) -> EstimationResult:
    """DE fit of the free parameters to the dataset: the best values, their
    objective and how the run stopped; the caller grades the values and
    times the run."""
    bounds = [(p.lo, p.hi) for p in spec.free]
    inf_candidates = 0

    def objective(population):
        nonlocal inf_candidates
        sse = population_sse(population, spec, dataset)
        inf_candidates += int(np.count_nonzero(np.isinf(sse)))
        return sse

    best_x, best_f, gens = differential_evolution(objective, bounds, cfg)
    return EstimationResult(names=spec.names, values=best_x, objective=best_f,
                            generations=gens,
                            stop_reason=("stagnation" if gens < cfg.generations
                                         else "budget"),
                            inf_candidates=inf_candidates)
