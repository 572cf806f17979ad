"""Forward solution of the brain model.

Three routes: classic fixed-step RK4, adaptive Dormand-Prince 5(4), and an
exact matrix-exponential propagator that exploits the linearity of the
system with piecewise-linear forcing (used as the ground-truth oracle).

The exact propagator works on a stack of rate matrices at once
(``propagate_states``), so the DE objective scores a whole population in
one solve. It computes the transition operators once per distinct step
length with one batched ``expm`` call, then runs a single array recurrence
over the breakpoints; ``expm_propagate`` is its one-matrix form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.linalg import expm

from .dataio import ConcentrationSeries, PlasmaProfile, linear_interp
from .model import assemble_matrix
from .params import DrugParams, ModelVariant, SystemParams


class SolverError(Exception):
    pass


class StepSizeUnderflow(SolverError):
    pass


class NonFiniteState(SolverError):
    pass


class Method(Enum):
    RK4 = "rk4"
    DOPRI45 = "dopri45"
    EXPM_ORACLE = "expm"


@dataclass(frozen=True)
class SolveConfig:
    method: Method = Method.EXPM_ORACLE
    h: float = 0.001
    rtol: float = 1e-8
    atol: float = 1e-12
    grid: np.ndarray = field(default_factory=lambda: np.linspace(0.0, 48.0, 200))

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        object.__setattr__(self, "grid", g)
        if self.h <= 0 or self.rtol <= 0 or self.atol <= 0:
            raise ValueError("step size and tolerances must be positive")
        if g.size < 1 or (g.size > 1 and np.any(np.diff(g) <= 0)):
            raise ValueError("output grid must be strictly increasing")


@dataclass(frozen=True)
class InitialState:
    Y0: np.ndarray = field(default_factory=lambda: np.zeros(4))
    t0: float = 0.0

    def __post_init__(self):
        y = np.asarray(self.Y0, dtype=float)
        object.__setattr__(self, "Y0", y)
        if not np.all(np.isfinite(y)) or np.any(y < 0):
            raise ValueError("initial state must be finite and non-negative")


# --- generic integrators ----------------------------------------------------

def rk4_solve(f, y0, t0: float, grid, h: float) -> np.ndarray:
    """Classic 4-stage RK with fixed step h, landing exactly on grid points."""
    grid = np.asarray(grid, dtype=float)
    y = np.asarray(y0, dtype=float).copy()
    t = t0
    out = np.empty((grid.size,) + y.shape)
    for i, tg in enumerate(grid):
        while t < tg - 1e-14:
            step = min(h, tg - t)
            k1 = f(t, y)
            k2 = f(t + 0.5 * step, y + 0.5 * step * k1)
            k3 = f(t + 0.5 * step, y + 0.5 * step * k2)
            k4 = f(t + step, y + step * k3)
            y = y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += step
        if not np.all(np.isfinite(y)):
            raise NonFiniteState(f"non-finite state at t={t:.6g}")
        out[i] = y
    return out


# Dormand-Prince 5(4) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])

_MIN_STEP = 1e-12


def dopri45_solve(f, y0, t0: float, grid, rtol: float, atol: float) -> np.ndarray:
    """Embedded 5(4) pair with step rejection; steps are clipped to land on
    each output grid point."""
    grid = np.asarray(grid, dtype=float)
    y = np.asarray(y0, dtype=float).copy()
    t = t0
    h = min(1e-4, (grid[-1] - t0) / 10 if grid[-1] > t0 else 1e-4)
    out = np.empty((grid.size,) + y.shape)
    ks = [None] * 7
    for i, tg in enumerate(grid):
        while t < tg - 1e-14:
            h = min(h, tg - t)
            if h < _MIN_STEP:
                raise StepSizeUnderflow(f"adaptive step underflow at t={t:.6g}")
            for s in range(7):
                ts = t + _DP_C[s] * h
                ys = y
                if s:
                    ys = y + h * sum(a * ks[j] for j, a in enumerate(_DP_A[s]))
                ks[s] = f(ts, ys)
            y5 = y + h * sum(b * k for b, k in zip(_DP_B5, ks))
            y4 = y + h * sum(b * k for b, k in zip(_DP_B4, ks))
            if not np.all(np.isfinite(y5)):
                raise NonFiniteState(f"non-finite state at t={t:.6g}")
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
            err = np.sqrt(np.mean(((y5 - y4) / scale) ** 2))
            if err <= 1.0:
                t += h
                y = y5
            factor = 0.9 * (1.0 / err) ** 0.2 if err > 0 else 5.0
            h *= min(5.0, max(0.2, factor))
        out[i] = y
    return out


# --- PBPK-specific solves ---------------------------------------------------

def _series_from(grid, states, plasma) -> ConcentrationSeries:
    return ConcentrationSeries(
        times=grid, Cbb=states[:, 0], Cbm=states[:, 1],
        Cccsf=states[:, 2], Cscsf=states[:, 3],
        plasma=linear_interp(plasma, np.asarray(grid, dtype=float)))


def solve(sys: SystemParams, drug: DrugParams, plasma: PlasmaProfile,
          variant: ModelVariant, init: InitialState,
          cfg: SolveConfig) -> ConcentrationSeries:
    """Forward-solve the brain model on cfg.grid with the configured method.
    ``variant`` names the sign convention; ``ModelVariant`` has one member,
    ``PAPER_LITERAL``."""
    grid = cfg.grid
    if grid[0] < init.t0 - 1e-12:
        raise ValueError("output grid must start at or after t0")
    A = assemble_matrix(sys, drug)
    scale = sys.Qbrain / sys.Vbb
    e1 = np.array([1.0, 0.0, 0.0, 0.0])

    if cfg.method is Method.EXPM_ORACLE:
        return expm_propagate(A, init.Y0, plasma, sys, grid, t0=init.t0)

    def f(t, y):
        return A @ y + (scale * linear_interp(plasma, t)) * e1

    if cfg.method is Method.RK4:
        states = rk4_solve(f, init.Y0, init.t0, grid, cfg.h)
    else:
        states = dopri45_solve(f, init.Y0, init.t0, grid, cfg.rtol, cfg.atol)
    return _series_from(grid, states, plasma)


def _transition_ops(A: np.ndarray, b: np.ndarray, dts: np.ndarray):
    """State transitions Phi plus forcing responses Psi0, Psi1 per step length.

    Over a step of length dt with plasma Cart(s) = c0 + c1*s, the forcing
    b * Cart(s) enters component 1 and the exact update is
    y+ = Phi y + c0*Psi0 + c1*Psi1. All three come from one augmented 6x6
    matrix exponential whose constant-forcing column carries b, so every
    matrix of the stack ``A (..., 4, 4)`` with scale ``b (...)`` gets its own
    exponential. One batched ``expm`` call covers every matrix and every
    step length; the step-length axis comes first in the results.
    """
    M = np.zeros(A.shape[:-2] + (dts.size, 6, 6))
    M[..., :4, :4] = A[..., None, :, :]
    M[..., 0, 4] = b[..., None]  # constant-forcing column (component 1)
    M[..., 4, 5] = 1.0  # d/ds of the ramp weight
    E = np.moveaxis(expm(M * dts[:, None, None]), -3, 0)
    return (np.ascontiguousarray(E[..., :4, :4]), E[..., :4, 4:5],
            E[..., :4, 5:6])


def _propagate(A, b, y0, plasma: PlasmaProfile, grid: np.ndarray, t0: float):
    """Breakpoints and the states at each of them, shape (n, ..., 4).

    Intervals are split at plasma knots so the forcing is affine on each
    piece. Transition operators are computed once per distinct step length
    (to 14 decimals), so a uniform grid costs a few 6x6 exponentials per
    matrix, not one per step. Non-finite states are left in place for the
    caller to judge.
    """
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    knots = plasma.times[(plasma.times > t0) & (plasma.times < grid[-1])]
    breakpoints = np.unique(np.concatenate([[t0], grid, knots]))
    breakpoints = breakpoints[breakpoints >= t0 - 1e-15]

    dts = np.diff(breakpoints)
    _, first, step_op = np.unique(np.round(dts, 14), return_index=True,
                                  return_inverse=True)
    Phi, Psi0, Psi1 = _transition_ops(A, b, dts[first])
    cart = np.interp(breakpoints, plasma.times, plasma.values)
    c0, c1 = cart[:-1], np.diff(cart) / dts
    per_step = (-1,) + (1,) * (Psi0.ndim - 1)
    drive = c0.reshape(per_step) * Psi0[step_op]
    drive += c1.reshape(per_step) * Psi1[step_op]

    states = np.empty((breakpoints.size,) + Psi0.shape[1:])
    states[0] = np.asarray(y0, dtype=float)[:, None]
    y = states[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for i, k in enumerate(step_op.tolist()):
            y = Phi[k] @ y + drive[i]
            states[i + 1] = y
    return breakpoints, states[..., 0]


def propagate_states(A, b, y0, plasma: PlasmaProfile, grid,
                     t0: float = 0.0) -> np.ndarray:
    """Exact propagation of Y' = A Y + b Cart(t) e1 for a stack of systems.

    ``A`` is ``(..., 4, 4)`` and ``b`` the matching ``(...)`` forcing scales
    (Qbrain/Vbb); every system starts from ``y0``. Returns the states on the
    grid as ``(..., 4, len(grid))``, the layout of
    ``ConcentrationSeries.concentrations``. A system that blows up yields
    non-finite entries rather than an exception.
    """
    grid = np.asarray(grid, dtype=float)
    breakpoints, states = _propagate(A, b, y0, plasma, grid, t0)
    return np.moveaxis(states[np.searchsorted(breakpoints, grid)], 0, -1)


def expm_propagate(A: np.ndarray, y0, plasma: PlasmaProfile, sys: SystemParams,
                   grid, t0: float = 0.0) -> ConcentrationSeries:
    """Exact propagation of Y' = A Y + (Qbrain/Vbb) Cart(t) e1 on the grid,
    for one rate matrix; raises NonFiniteState at the first breakpoint
    where the state is not finite."""
    grid = np.asarray(grid, dtype=float)
    breakpoints, states = _propagate(A, sys.Qbrain / sys.Vbb, y0, plasma,
                                     grid, t0)
    bad = ~np.all(np.isfinite(states), axis=1)
    if bad.any():
        raise NonFiniteState(
            f"non-finite state at t={breakpoints[np.argmax(bad)]:.6g}")
    return _series_from(grid, states[np.searchsorted(breakpoints, grid)],
                        plasma)


# --- synthetic datasets -----------------------------------------------------

@dataclass(frozen=True)
class PlasmaSpec:
    """First-order absorption/elimination arterial profile
    Cart(t) = D (e^{-ke t} - e^{-ka t}), with D scaled to the given peak."""

    ka: float = 1.0
    ke: float = 0.1
    peak: float = 0.06

    def sample(self, times) -> PlasmaProfile:
        times = np.asarray(times, dtype=float)
        if self.peak == 0.0:
            return PlasmaProfile(times, np.zeros_like(times))
        tmax = math.log(self.ka / self.ke) / (self.ka - self.ke)
        unit_peak = math.exp(-self.ke * tmax) - math.exp(-self.ka * tmax)
        D = self.peak / unit_peak
        vals = D * (np.exp(-self.ke * times) - np.exp(-self.ka * times))
        return PlasmaProfile(times, np.maximum(vals, 0.0))


def synthesize_dataset(sys: SystemParams, drug: DrugParams,
                       plasma_spec: PlasmaSpec = PlasmaSpec(),
                       n_points: int = 200, horizon: float = 48.0,
                       noise_sd: float = 0.0, seed: int = 0) -> ConcentrationSeries:
    """Exact forward solve on a uniform grid from zero initial state, with
    optional zero-truncated Gaussian noise; plasma column embedded."""
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if noise_sd < 0:
        raise ValueError("noise_sd must be non-negative")

    grid = np.linspace(0.0, horizon, n_points)
    plasma = plasma_spec.sample(grid)
    A = assemble_matrix(sys, drug)
    series = expm_propagate(A, np.zeros(4), plasma, sys, grid)
    if noise_sd == 0.0:
        return series

    rng = np.random.default_rng(seed)
    conc = series.concentrations()
    noisy = np.maximum(conc + rng.normal(0.0, noise_sd, size=conc.shape), 0.0)
    return ConcentrationSeries(times=grid, Cbb=noisy[0], Cbm=noisy[1],
                               Cccsf=noisy[2], Cscsf=noisy[3],
                               plasma=plasma.values)
