"""Pharmacokinetic summary quantities: AUC, Cmax, Tmax, half-life."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import ConcentrationSeries


class TooFewPoints(Exception):
    pass


@dataclass(frozen=True)
class PkSummary:
    compartment: str
    auc: float          # mg*h/L
    cmax: float         # mg/L
    tmax: float         # h
    half_life: float | None  # h; None when undeterminable


def auc_trapezoid(series: ConcentrationSeries, compartment: str) -> float:
    """Linear trapezoid rule over the full time grid."""
    if len(series) < 2:
        raise TooFewPoints("AUC needs at least 2 points")
    return float(np.trapezoid(series.column(compartment), series.times))


def cmax_tmax(series: ConcentrationSeries, compartment: str):
    """Peak value and the earliest time attaining it."""
    c = series.column(compartment)
    i = int(np.argmax(c))  # argmax returns the first maximum
    return float(c[i]), float(series.times[i])


def half_life(series: ConcentrationSeries, compartment: str,
              tail_fraction: float = 0.25) -> float | None:
    """Terminal half-life from a log-linear fit of the series tail.

    Regresses ln(C) on t over the last ceil(tail_fraction * N) strictly
    positive points; returns ln2 / (-slope), or None when the slope is
    non-negative or fewer than 3 usable points remain.
    """
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must be in (0, 1]")
    n = len(series)
    k = int(np.ceil(tail_fraction * n))
    t = series.times[n - k:]
    c = series.column(compartment)[n - k:]
    mask = c > 0
    if mask.sum() < 3:
        return None
    slope = np.polyfit(t[mask], np.log(c[mask]), 1)[0]
    if slope >= 0:
        return None
    return float(np.log(2.0) / -slope)


def summarize(series: ConcentrationSeries, compartment: str,
              tail_fraction: float = 0.25) -> PkSummary:
    cmax, tmax = cmax_tmax(series, compartment)
    return PkSummary(compartment=compartment,
                     auc=auc_trapezoid(series, compartment),
                     cmax=cmax, tmax=tmax,
                     half_life=half_life(series, compartment, tail_fraction))

