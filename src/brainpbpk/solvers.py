"""Forward solution of the brain model.

Every route solves Y' = A Y + f Cart(t), with the state matrix A = M / V
and the forcing vector f = q / V from ``model.rates``, from the dose at
t = 0; a grid that starts earlier is a ValueError. Three routes:
classic fixed-step RK4, adaptive Dormand-Prince 5(4), and an exact
matrix-exponential propagator that exploits the linearity of the system
with piecewise-linear forcing (used as the ground-truth oracle). The
synthetic datasets are driven by ``plasma_input``, the curve that
``PLASMA_INPUT`` fixes.

The exact propagator has one implementation, ``propagate_states``, which
works on a stack of rate matrices at once, so the DE objective scores a
whole population in one solve; ``expm_propagate`` calls it for one matrix
and checks that the states are finite. Each step is an affine map
y+ = Phi y + d whose operators, one per distinct step length, come from
one call of ``expm``, this module's batched Pade-13 scaling-and-squaring
exponential. On a uniform grid (every ``np.linspace`` grid) there is one
step length, so one 6x6 exponential per matrix, and the states are found
by a doubling scan in ceil(log2 n) array operations. Any other grid, e.g.
data sampled at irregular times, takes a recurrence over the breakpoints,
which also serves as the test oracle of the scan. Forcing sampled on a
grid that starts at the dose (every caller in the package: the synthetic
sets and each dataset's own plasma column) uses that grid as the
breakpoints; only plasma knots off the grid are merged into it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .dataio import ConcentrationSeries, PlasmaProfile, linear_interp
from .model import rates
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

    def __post_init__(self):
        y = np.asarray(self.Y0, dtype=float)
        object.__setattr__(self, "Y0", y)
        if not np.all(np.isfinite(y)) or np.any(y < 0):
            raise ValueError("initial state must be finite and non-negative")


# --- generic integrators ----------------------------------------------------

def rk4_solve(f, y0, grid, h: float) -> np.ndarray:
    """Classic 4-stage RK from t = 0, fixed step h, landing on grid points.
    A blow-up raises NonFiniteState, without a numpy overflow warning."""
    grid = np.asarray(grid, dtype=float)
    y = np.asarray(y0, dtype=float).copy()
    t = 0.0
    out = np.empty((grid.size,) + y.shape)
    with np.errstate(over="ignore", invalid="ignore"):
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


def dopri45_solve(f, y0, grid, rtol: float, atol: float) -> np.ndarray:
    """Embedded 5(4) pair from t = 0 with step rejection; steps are clipped
    to land on each output grid point. A blow-up raises NonFiniteState,
    without a numpy overflow warning."""
    grid = np.asarray(grid, dtype=float)
    y = np.asarray(y0, dtype=float).copy()
    t = 0.0
    h = min(1e-4, grid[-1] / 10)  # no step is taken unless grid[-1] > 0
    out = np.empty((grid.size,) + y.shape)
    ks = [None] * 7
    with np.errstate(over="ignore", invalid="ignore"):
        for i, tg in enumerate(grid):
            while t < tg - 1e-14:
                h = min(h, tg - t)
                if h < _MIN_STEP:
                    raise StepSizeUnderflow(
                        f"adaptive step underflow at t={t:.6g}")
                for s in range(7):
                    ts = t + _DP_C[s] * h
                    ys = y
                    if s:
                        ys = y + h * sum(a * ks[j]
                                         for j, a in enumerate(_DP_A[s]))
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

def solve(sys: SystemParams, drug: DrugParams, plasma: PlasmaProfile,
          variant: ModelVariant, init: InitialState,
          cfg: SolveConfig) -> ConcentrationSeries:
    """Forward-solve the brain model on cfg.grid with the configured method.
    ``variant`` names the sign convention; ``ModelVariant`` has one member,
    ``PAPER_LITERAL``."""
    grid = cfg.grid
    M, q, V = rates(sys, drug)
    A, forcing = M / V[:, None], q / V

    if cfg.method is Method.EXPM_ORACLE:
        return expm_propagate(A, forcing, init.Y0, plasma, grid)
    if grid[0] < -1e-12:
        raise ValueError("output grid must start at or after the dose at t=0")

    def f(t, y):
        return A @ y + linear_interp(plasma, t) * forcing

    if cfg.method is Method.RK4:
        states = rk4_solve(f, init.Y0, grid, cfg.h)
    else:
        states = dopri45_solve(f, init.Y0, grid, cfg.rtol, cfg.atol)
    return ConcentrationSeries(grid, states.T, linear_interp(plasma, grid))


# Pade-13 numerator coefficients b0..b13 and theta13, the 1-norm up to
# which the unscaled approximant is accurate to double precision (Higham
# 2005, SIAM J. Matrix Anal. Appl. 26:1179)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential of every matrix in a ``(..., n, n)`` stack.

    Scaling and squaring with the degree-13 Pade approximant. Each matrix
    is scaled by its own 2**-s, the least s >= 0 that brings its 1-norm
    under theta13, and only the matrices with s > j are squared at level j,
    so one matrix with a huge norm neither over-scales nor slows the rest.
    A matrix with a non-finite norm gets s = 0; overflow is left in place.
    """
    M = np.asarray(M, dtype=float)
    X = M.reshape((-1,) + M.shape[-2:])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = np.ceil(np.log2(np.abs(X).sum(axis=-2).max(axis=-1) / _THETA13))
        s = np.where(np.isfinite(s) & (s > 0), s, 0).astype(int)
        A = np.ldexp(X, -s[:, None, None])
        b, ident = _PADE13, np.eye(M.shape[-1])
        A2 = A @ A
        A4 = A2 @ A2
        A6 = A4 @ A2
        U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
                 + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
        V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
             + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
        # (V - U)^-1 (V + U), written so that A = 0 gives I exactly
        R = ident + 2.0 * np.linalg.solve(V - U, U)
        for j in range(s.max(initial=0)):
            rows = np.flatnonzero(s > j)
            R[rows] = R[rows] @ R[rows]
    return R.reshape(M.shape)


def _transition_ops(A: np.ndarray, f: np.ndarray, dts: np.ndarray):
    """State transitions Phi plus forcing responses Psi0, Psi1 per step length.

    Over a step of length dt with plasma Cart(s) = c0 + c1*s, the forcing
    is f * Cart(s) and the exact update is y+ = Phi y + c0*Psi0 + c1*Psi1.
    All three come from one augmented 6x6 matrix exponential whose
    constant-forcing column carries f, so every matrix of the stack
    ``A (..., 4, 4)`` with forcing ``f (..., 4)`` gets its own exponential.
    One call of the batched Pade-13 ``expm`` above covers every matrix and
    every step length. Phi is ``(k, ..., 4, 4)`` for k step lengths; Psi0
    and Psi1 are ``(..., 4, k)``, the step axis last like the states.
    """
    M = np.zeros(A.shape[:-2] + (dts.size, 6, 6))
    M[..., :4, :4] = A[..., None, :, :]
    M[..., :4, 4] = f[..., None, :]  # constant-forcing column
    M[..., 4, 5] = 1.0  # d/ds of the ramp weight
    E = expm(M * dts[:, None, None])
    return (np.ascontiguousarray(np.moveaxis(E[..., :4, :4], -3, 0)),
            np.swapaxes(E[..., :4, 4], -1, -2), np.swapaxes(E[..., :4, 5], -1, -2))


def propagate_states(A, f, y0, plasma: PlasmaProfile, grid) -> np.ndarray:
    """Exact propagation of Y' = A Y + f Cart(t) for a stack of systems.

    ``A`` is ``(..., 4, 4)`` and ``f`` the matching ``(..., 4)`` forcing
    vectors; every system starts from ``y0`` at the dose, t = 0. Returns
    the states on the grid as ``(..., 4, len(grid))``, the layout of
    ``ConcentrationSeries.concentrations``. A system that blows up yields
    non-finite entries rather than an exception; a grid that starts before
    the dose raises ValueError.

    The breakpoints are the grid itself when the grid starts at t = 0 and
    ``plasma.times`` equals it: the samples are then the forcing and the
    breakpoint states are returned as computed. Otherwise t = 0, the grid
    and the plasma knots inside it are merged and sorted, the plasma is
    interpolated there and the grid states are gathered back. Either way
    the forcing is affine between breakpoints; column 0 of the breakpoint
    states holds y0 and column k+1 the drive c0*Psi0 + c1*Psi1 of step k
    (see ``_transition_ops``), to which Phi times column k is then added.
    A uniform grid (every step equal to within a few ulps of its largest
    time, as ``np.linspace`` makes them) needs one operator per matrix,
    and ceil(log2 n) doubling levels ``v[k] += P v[k - s]; P = P @ P`` (a
    Hillis-Steele scan) replace the per-step recurrence; the drive's
    second term and each level's product go through one preallocated
    workspace. Any other grid takes one operator per distinct step length
    (to 14 decimals) and that recurrence over the breakpoints.
    """
    grid = np.asarray(grid, dtype=float)
    if grid[0] < -1e-12:
        raise ValueError("output grid must start at or after the dose at t=0")
    A, f = np.asarray(A, dtype=float), np.asarray(f, dtype=float)
    on_grid = grid[0] == 0 and np.array_equal(plasma.times, grid)
    if on_grid:  # the grid is the breakpoint set, the samples the forcing
        breakpoints, cart = grid, plasma.values
    else:
        knots = plasma.times[(plasma.times > 0) & (plasma.times < grid[-1])]
        breakpoints = np.unique(np.concatenate([[0.0], grid, knots]))
        cart = np.interp(breakpoints, plasma.times, plasma.values)
    dts = np.diff(breakpoints)
    c0, c1 = cart[:-1], np.diff(cart) / dts
    uniform = dts.size > 0 and (np.ptp(dts) <= 4 * np.finfo(float).eps
                                * np.max(np.abs(breakpoints[[0, -1]])))
    if uniform:  # one operator, broadcast over every step
        first, step_op = [0], slice(None)
    else:
        _, first, step_op = np.unique(np.round(dts, 14), return_index=True,
                                      return_inverse=True)
    Phi, Psi0, Psi1 = _transition_ops(A, f, dts[first])
    n = breakpoints.size
    states = np.empty(Psi0.shape[:-1] + (n,))
    work = np.empty(Psi0.shape[:-1] + (n - 1,))
    states[..., 0] = y0
    np.multiply(c0, Psi0[..., step_op], out=states[..., 1:])
    states[..., 1:] += np.multiply(c1, Psi1[..., step_op], out=work)
    with np.errstate(over="ignore", invalid="ignore"):
        if uniform:
            shift, P = 1, Phi[0]
            while shift < n:
                states[..., shift:] += np.matmul(P, states[..., :-shift],
                                                 out=work[..., :n - shift])
                shift *= 2
                if shift < n:
                    P = P @ P
        else:
            for k, op in enumerate(step_op.tolist()):
                states[..., k + 1:k + 2] += Phi[op] @ states[..., k:k + 1]
    return states if on_grid else states[..., np.searchsorted(breakpoints, grid)]


def expm_propagate(A: np.ndarray, f: np.ndarray, y0, plasma: PlasmaProfile,
                   grid) -> ConcentrationSeries:
    """``propagate_states`` for one state matrix ``A (4, 4)`` and forcing
    vector ``f (4,)``, as a series; raises NonFiniteState at the first grid
    time where the state is not finite. Plasma sampled on the grid is the
    forcing as it stands; knots off the grid are merged into it."""
    grid = np.asarray(grid, dtype=float)
    # states gathered from merged breakpoints are time-major in memory; the
    # C-order copy (no copy for on-grid plasma) that the series keeps lets
    # the check below reduce whole rows
    states = np.ascontiguousarray(propagate_states(A, f, y0, plasma, grid))
    bad = ~np.all(np.isfinite(states), axis=0)
    if bad.any():
        raise NonFiniteState(f"non-finite state at t={grid[np.argmax(bad)]:.6g}")
    return ConcentrationSeries(grid, states, linear_interp(plasma, grid))


# --- synthetic datasets -----------------------------------------------------

# the arterial plasma input of the dose: Cart(t) = D (e^{-ke t} - e^{-ka t})
PLASMA_INPUT = {"ka": 1.0, "ke": 0.1, "peak": 0.06}


def plasma_input(times) -> PlasmaProfile:
    """``PLASMA_INPUT``'s curve at ``times``, with D scaled to the peak."""
    times = np.asarray(times, dtype=float)
    ka, ke, peak = (PLASMA_INPUT[k] for k in ("ka", "ke", "peak"))
    tmax = math.log(ka / ke) / (ka - ke)
    D = peak / (math.exp(-ke * tmax) - math.exp(-ka * tmax))
    vals = D * (np.exp(-ke * times) - np.exp(-ka * times))
    return PlasmaProfile(times, np.maximum(vals, 0.0))


def synthesize_dataset(sys: SystemParams, drug: DrugParams,
                       n_points: int = 200, horizon: float = 48.0,
                       noise_sd: float = 0.0, seed: int = 0) -> ConcentrationSeries:
    """Exact forward solve of ``plasma_input`` on a uniform grid from zero
    state, with optional zero-truncated Gaussian noise; plasma embedded."""
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    if not 0 < horizon < math.inf:
        raise ValueError("horizon must be finite and positive")
    if not 0 <= noise_sd < math.inf:
        raise ValueError("noise_sd must be finite and non-negative")
    if seed < 0:
        raise ValueError("seed must be non-negative")

    grid = np.linspace(0.0, horizon, n_points)
    plasma = plasma_input(grid)
    series = solve(sys, drug, plasma, ModelVariant.PAPER_LITERAL,
                   InitialState(), SolveConfig(grid=grid))
    if noise_sd == 0.0:
        return series

    conc = series.concentrations()
    # the solution is added to the noise in place: the same sums as
    # conc + noise, without two more (4, n) temporaries
    noisy = np.random.default_rng(seed).normal(0.0, noise_sd, size=conc.shape)
    noisy += conc
    np.maximum(noisy, 0.0, out=noisy)
    return ConcentrationSeries(grid, noisy, plasma.values)
