"""Concentration-time CSV schema, run artifacts, interpolation, SVG plots.

File formats
------------
Data CSV          header ``Time,Cbb,Cbm,Cccsf,Cscsf,Cplasma`` (plasma column
                  optional), UTF-8, decimal point, values at 17 significant
                  digits.
Loss-history CSV  header ``iter,loss_data,loss_ode,loss_ic,loss_total``.
Trajectory CSV    header ``iter,<param1>,<param2>,...``.
SVG plots         standalone, 1000x700 viewBox, no external assets.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .model import COMPARTMENTS


class DataIOError(Exception):
    pass


class MissingColumn(DataIOError):
    def __init__(self, column: str):
        self.column = column
        super().__init__(f"missing required column: {column}")


class NonMonotonicTime(DataIOError):
    def __init__(self, row: int):
        self.row = row
        super().__init__(f"time values must be strictly increasing (row {row})")


class NonNumericCell(DataIOError):
    def __init__(self, column: str, row: int):
        self.column = column
        self.row = row
        super().__init__(f"non-numeric value in column {column}, row {row}")


class EmptyPlot(DataIOError):
    pass


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


@dataclass(frozen=True)
class PlasmaProfile:
    """Discrete arterial plasma samples defining the forcing Cart(t)."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if t.size < 2 or t.size != v.size:
            raise ValueError("plasma profile needs >= 2 equal-length samples")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("plasma profile must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValueError("plasma times must be strictly increasing")
        if np.any(v < 0):
            raise ValueError("plasma concentrations must be non-negative")


def linear_interp(profile: PlasmaProfile, t):
    """Piecewise-linear interpolation with clamped (constant) extrapolation.

    Accepts scalar or array ``t``; exact on knots, affine between them.
    """
    out = np.interp(t, profile.times, profile.values)
    return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out


@dataclass(frozen=True)
class ConcentrationSeries:
    """Time grid with per-compartment concentrations, optional plasma column."""

    times: np.ndarray
    Cbb: np.ndarray
    Cbm: np.ndarray
    Cccsf: np.ndarray
    Cscsf: np.ndarray
    plasma: np.ndarray | None = None

    def __post_init__(self):
        cols = {"Time": self.times, "Cbb": self.Cbb, "Cbm": self.Cbm,
                "Cccsf": self.Cccsf, "Cscsf": self.Cscsf}
        if self.plasma is not None:
            cols["Cplasma"] = self.plasma
        n = None
        for name, c in cols.items():
            arr = np.asarray(c, dtype=float)
            field_name = {"Time": "times", "Cplasma": "plasma"}.get(name, name)
            object.__setattr__(self, field_name, arr)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"column {name} contains non-finite values")
            if n is None:
                n = arr.size
            elif arr.size != n:
                raise ValueError("all columns must have the same length")
        if self.times.size > 1 and np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    def __len__(self) -> int:
        return int(self.times.size)

    def column(self, name: str) -> np.ndarray:
        if name == "Time":
            return self.times
        if name == "Cplasma":
            if self.plasma is None:
                raise MissingColumn("Cplasma")
            return self.plasma
        if name in COMPARTMENTS:
            return getattr(self, name)
        raise KeyError(name)

    def concentrations(self) -> np.ndarray:
        """(4, N) array in compartment order."""
        return np.stack([self.Cbb, self.Cbm, self.Cccsf, self.Cscsf])

    def plasma_profile(self) -> PlasmaProfile:
        if self.plasma is None:
            raise MissingColumn("Cplasma")
        return PlasmaProfile(self.times, self.plasma)


_REQUIRED = ("Time",) + COMPARTMENTS


def read_series(path) -> ConcentrationSeries:
    """Parse the data CSV; header names are matched case-insensitively."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumn("Time") from None
        rows = [r for r in reader if r and any(cell.strip() for cell in r)]

    lookup = {h.strip().lower(): i for i, h in enumerate(header)}
    indices = {}
    for name in _REQUIRED:
        if name.lower() not in lookup:
            raise MissingColumn(name)
        indices[name] = lookup[name.lower()]
    has_plasma = "cplasma" in lookup
    if has_plasma:
        indices["Cplasma"] = lookup["cplasma"]

    data = {name: [] for name in indices}
    for rownum, row in enumerate(rows, start=1):
        for name, idx in indices.items():
            try:
                data[name].append(float(row[idx]))
            except (ValueError, IndexError):
                raise NonNumericCell(name, rownum) from None

    times = np.asarray(data["Time"], dtype=float)
    bad = np.nonzero(np.diff(times) <= 0)[0]
    if bad.size:
        raise NonMonotonicTime(int(bad[0]) + 2)

    return ConcentrationSeries(
        times=times, Cbb=data["Cbb"], Cbm=data["Cbm"],
        Cccsf=data["Cccsf"], Cscsf=data["Cscsf"],
        plasma=data["Cplasma"] if has_plasma else None)


def write_series(series: ConcentrationSeries, path) -> None:
    cols = list(_REQUIRED)
    if series.plasma is not None:
        cols.append("Cplasma")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        writer.writerows(zip(*(map(_fmt, series.column(c).tolist())
                               for c in cols)))


@dataclass
class RunArtifacts:
    """Everything a training run leaves behind besides the network itself."""

    param_names: list[str] = field(default_factory=list)
    loss_iters: list[int] = field(default_factory=list)
    loss_data: list[float] = field(default_factory=list)
    loss_ode: list[float] = field(default_factory=list)
    loss_ic: list[float] = field(default_factory=list)
    loss_total: list[float] = field(default_factory=list)
    trajectory: list[list[float]] = field(default_factory=list)
    wall_seconds: float = 0.0
    lbfgs_iterations: int = 0
    lbfgs_line_search_failed: bool = False

    def log(self, iteration: int, ld: float, lo: float, li: float,
            total: float, values: list[float]) -> None:
        if self.loss_iters and iteration <= self.loss_iters[-1]:
            raise ValueError("iteration indices must be strictly increasing")
        if not all(np.isfinite([ld, lo, li, total])):
            raise ValueError(f"non-finite loss at iteration {iteration}")
        self.loss_iters.append(iteration)
        self.loss_data.append(ld)
        self.loss_ode.append(lo)
        self.loss_ic.append(li)
        self.loss_total.append(total)
        self.trajectory.append(list(values))

    def write_loss_history(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "loss_data", "loss_ode", "loss_ic", "loss_total"])
            for i, it in enumerate(self.loss_iters):
                writer.writerow([it, _fmt(self.loss_data[i]), _fmt(self.loss_ode[i]),
                                 _fmt(self.loss_ic[i]), _fmt(self.loss_total[i])])

    def write_trajectory(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter"] + list(self.param_names))
            for it, values in zip(self.loss_iters, self.trajectory):
                writer.writerow([it] + [_fmt(v) for v in values])


def read_loss_history(path):
    """Loss-history CSV back as a dict of numpy arrays."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    out = {}
    for key in ("iter", "loss_data", "loss_ode", "loss_ic", "loss_total"):
        out[key] = np.array([float(r[key]) for r in rows])
    return out


# --- SVG line plots ---------------------------------------------------------

_SVG_W, _SVG_H = 1000, 700
_MARGIN = 70
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def emit_plot(labeled_series, compartment: str, path) -> None:
    """Write a standalone SVG overlaying one polyline per labeled series.

    ``labeled_series`` is a sequence of (label, ConcentrationSeries) pairs.
    """
    labeled_series = list(labeled_series)
    if not labeled_series:
        raise EmptyPlot("no series to plot")

    xs_all = np.concatenate([s.times for _, s in labeled_series])
    ys_all = np.concatenate([s.column(compartment) for _, s in labeled_series])
    x0, x1 = float(xs_all.min()), float(xs_all.max())
    y0, y1 = float(ys_all.min()), float(ys_all.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return _MARGIN + (x - x0) / (x1 - x0) * (_SVG_W - 2 * _MARGIN)

    def sy(y):
        return _SVG_H - _MARGIN - (y - y0) / (y1 - y0) * (_SVG_H - 2 * _MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_SVG_H - _MARGIN}" x2="{_SVG_W - _MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black"/>',
        f'<text x="{_SVG_W // 2}" y="{_SVG_H - 20}" text-anchor="middle" '
        f'font-size="18">Time (h)</text>',
        f'<text x="22" y="{_SVG_H // 2}" text-anchor="middle" font-size="18" '
        f'transform="rotate(-90 22 {_SVG_H // 2})">Concentration (mg/L)</text>',
        f'<text x="{_SVG_W // 2}" y="34" text-anchor="middle" '
        f'font-size="20">{compartment}</text>',
    ]
    for k, (label, series) in enumerate(labeled_series):
        color = _COLORS[k % len(_COLORS)]
        pts = " ".join(f"{sx(t):.2f},{sy(v):.2f}"
                       for t, v in zip(series.times, series.column(compartment)))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        ly = _MARGIN + 22 * k
        parts.append(f'<line x1="{_SVG_W - 230}" y1="{ly}" x2="{_SVG_W - 200}" '
                     f'y2="{ly}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_SVG_W - 192}" y="{ly + 5}" '
                     f'font-size="15">{label}</text>')
    parts.append("</svg>")

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
