"""Concentration-time CSV schema, run artifacts, interpolation, SVG plots.

File formats
------------
Data CSV          header ``Time,Cbb,Cbm,Cccsf,Cscsf,Cplasma`` (plasma column
                  optional).
Loss-history CSV  header ``iter,loss_data,loss_ode,loss_ic,loss_total``.
Trajectory CSV    header ``iter,<param1>,<param2>,...``.
SVG plots         standalone, 1000x700 viewBox, no external assets.

Every CSV is UTF-8 with CRLF line ends, every number at ``%.17g`` and an
empty cell for a missing value, from one of two writers. ``_write_table``
writes the three all-float tables above, ``Time`` and ``iter`` included,
in whole-array blocks. ``write_rows`` writes the tables of mixed cells
that the CLI lays out (``de_result.csv``, ``pk_summary.csv``,
``sweep.csv``, whose loss cells are text, and ``compare.csv``) through the
csv module, which quotes a cell only where it needs it. ``read_series``
takes the data CSV's header through the csv module and its non-blank rows
in one ``np.loadtxt`` parse.
"""
from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from functools import cached_property
from html import escape
from itertools import filterfalse

import numpy as np

from .model import COMPARTMENTS


class DataIOError(Exception):
    pass


class MissingColumn(DataIOError):
    def __init__(self, column: str):
        self.column = column
        super().__init__(f"missing required column: {column}")


class DuplicateColumn(DataIOError):
    pass


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
    """``times (N,)``, concentrations ``conc (4, N)`` with one row per
    compartment in ``model.COMPARTMENTS`` order, optional ``plasma (N,)``."""

    times: np.ndarray
    conc: np.ndarray
    plasma: np.ndarray | None = None

    def __post_init__(self):
        # C order: the DE residual sum over ``conc`` rounds by memory layout
        for name in ("times", "conc") + ("plasma",) * (self.plasma is not None):
            object.__setattr__(self, name, np.ascontiguousarray(
                getattr(self, name), dtype=float))
        n = self.times.size
        if (self.times.ndim != 1 or self.conc.shape != (len(COMPARTMENTS), n)
                or self.plasma is not None and self.plasma.shape != (n,)):
            raise ValueError("all columns must have the same length: times "
                             "(N,), conc (4, N), plasma (N,)")
        header, blocks = self._columns()
        finite = np.concatenate([np.isfinite(b).all(axis=1) for b in blocks])
        if not finite.all():
            raise ValueError(f"column {header[np.argmin(finite)]} contains "
                             f"non-finite values")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    def __len__(self) -> int:
        return int(self.times.size)

    def _columns(self):
        """The CSV header and its columns, as ``(1 or 4, N)`` blocks."""
        blocks = [self.times[None], self.conc]
        if self.plasma is None:
            return _REQUIRED, blocks
        return _REQUIRED + ("Cplasma",), blocks + [self.plasma[None]]

    def column(self, name: str) -> np.ndarray:
        if name == "Time":
            return self.times
        if name == "Cplasma":
            if self.plasma is None:
                raise MissingColumn("Cplasma")
            return self.plasma
        if name in COMPARTMENTS:
            return self.conc[COMPARTMENTS.index(name)]
        raise KeyError(name)

    def concentrations(self) -> np.ndarray:
        """The stored (4, N) array in compartment order."""
        return self.conc

    def plasma_profile(self) -> PlasmaProfile:
        """The plasma column as the forcing profile, checked and built on
        the first call and kept for the next; a bad column raises on
        every call."""
        return self._plasma_profile

    @cached_property
    def _plasma_profile(self) -> PlasmaProfile:
        if self.plasma is None:
            raise MissingColumn("Cplasma")
        return PlasmaProfile(self.times, self.plasma)


_REQUIRED = ("Time",) + COMPARTMENTS


def _write_table(path, header, table) -> None:
    """``header``, then each row of the ``(rows, len(header))`` table with
    every cell ``%.17g``, CRLF line ends; formatted 4096 rows at a time so
    that memory stays bounded on long tables."""
    table = np.asarray(table, dtype=float).reshape(-1, len(header))
    line = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(table), 4096):
            block = table[start:start + 4096]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def write_rows(path, header, rows) -> None:
    """``header``, then each row of ``rows``: a number at ``%.17g``,
    ``None`` as an empty cell and a string as it is."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(["" if c is None else c if isinstance(c, str)
                          else "%.17g" % c for c in row] for row in rows)


def _parse(rows, usecols) -> np.ndarray:
    """The ``usecols`` cells of CSV lines ``rows`` as one ``(rows,
    len(usecols))`` float table, in one C-level parse."""
    return np.loadtxt(rows, delimiter=",", usecols=usecols, ndmin=2,
                      quotechar='"', comments=None)


def _raise_bad_cell(rows, indices, names) -> None:
    """Raise ``NonNumericCell`` for the first cell of ``rows`` that
    ``_parse`` rejects, one row and then one cell at a time; rows count
    from 1. Called only after ``_parse`` failed on the whole table."""
    for row, line in enumerate(rows, 1):
        try:
            _parse([line], indices)
        except ValueError:
            for i, name in zip(indices, names):
                try:
                    _parse([line], [i])
                except ValueError:
                    raise NonNumericCell(name, row) from None


_BLANK_ROW = re.compile(r'[\s,"]*')


def read_series(path) -> ConcentrationSeries:
    """Parse the data CSV; header names are matched case-insensitively and
    a column read twice is an error, rows of only whitespace, commas and
    quotes are skipped and extra columns ignored."""
    with open(path, encoding="utf-8-sig") as fh:
        header = next(csv.reader([fh.readline()]))
        rows = list(filterfalse(_BLANK_ROW.fullmatch, fh))
    keys = [h.strip().lower() for h in header]
    has_plasma = "cplasma" in keys
    names = _REQUIRED + ("Cplasma",) * has_plasma
    for name in names:
        if name.lower() not in keys:
            raise MissingColumn(name)
        if keys.count(name.lower()) > 1:
            raise DuplicateColumn(f"column {name} appears more than once")
    indices = [keys.index(name.lower()) for name in names]
    try:
        # no rows: loadtxt would warn "input contained no data"
        table = _parse(rows, indices).T if rows else np.empty((len(names), 0))
    except ValueError:
        _raise_bad_cell(rows, indices, names)
        raise

    bad = np.nonzero(np.diff(table[0]) <= 0)[0]
    if bad.size:
        raise NonMonotonicTime(int(bad[0]) + 2)
    return ConcentrationSeries(table[0], table[1:len(_REQUIRED)],
                               table[-1] if has_plasma else None)


def write_series(series: ConcentrationSeries, path) -> None:
    header, blocks = series._columns()
    _write_table(path, header, np.vstack(blocks).T)


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
        columns = [self.loss_iters, self.loss_data, self.loss_ode,
                   self.loss_ic, self.loss_total]
        _write_table(path, ["iter", "loss_data", "loss_ode", "loss_ic",
                            "loss_total"], np.transpose(columns))

    def write_trajectory(self, path) -> None:
        values = np.reshape(self.trajectory, (len(self.loss_iters),
                                              len(self.param_names)))
        _write_table(path, ["iter", *self.param_names],
                     np.column_stack([self.loss_iters, values]))


# --- SVG line plots ---------------------------------------------------------

_SVG_W, _SVG_H = 1000, 700
_MARGIN = 70
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def emit_plot(labeled_series, compartment: str, path) -> None:
    """Write a standalone SVG overlaying one polyline per labeled series.

    ``labeled_series`` is a sequence of (label, ConcentrationSeries) pairs;
    labels are written as XML text, escaped.
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
                     f'font-size="15">{escape(label, quote=False)}</text>')
    parts.append("</svg>")

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
