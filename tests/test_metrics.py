import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brainpbpk.dataio import ConcentrationSeries
from brainpbpk.metrics import (PkSummary, TooFewPoints, auc_trapezoid,
                               cmax_tmax, half_life, summarize)


def series_from(times, cbb, **kw):
    times = np.asarray(times, dtype=float)
    cbb = np.asarray(cbb, dtype=float)
    zero = np.zeros_like(times)
    return ConcentrationSeries(times, [cbb, kw.get("Cbm", zero), zero, zero])


class TestAuc:
    def test_rectangle(self):
        s = series_from([0.0, 2.0], [3.0, 3.0])
        assert auc_trapezoid(s, "Cbb") == pytest.approx(6.0)

    def test_triangle(self):
        s = series_from([0.0, 4.0], [0.0, 2.0])
        assert auc_trapezoid(s, "Cbb") == pytest.approx(4.0)

    def test_exponential_dense_grid(self):
        # AUC of e^{-t} over [0, 20] is 1 - e^{-20}
        t = np.linspace(0, 20, 20001)
        s = series_from(t, np.exp(-t))
        assert auc_trapezoid(s, "Cbb") == pytest.approx(1.0 - np.exp(-20),
                                                        rel=1e-7)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            auc_trapezoid(series_from([1.0], [1.0]), "Cbb")


class TestCmaxTmax:
    def test_interior_peak(self):
        s = series_from([0, 1, 2, 3], [0.0, 5.0, 2.0, 1.0])
        cmax, tmax = cmax_tmax(s, "Cbb")
        assert cmax == 5.0 and tmax == 1.0

    def test_tie_takes_earliest(self):
        s = series_from([0, 1, 2], [4.0, 4.0, 1.0])
        assert cmax_tmax(s, "Cbb")[1] == 0.0

    def test_per_compartment(self):
        s = series_from([0, 1], [1.0, 0.0], Cbm=np.array([0.0, 9.0]))
        assert cmax_tmax(s, "Cbm") == (9.0, 1.0)


class TestHalfLife:
    def test_pure_exponential_recovered(self):
        # C = e^{-0.1 t}: half-life ln2 / 0.1
        t = np.linspace(0, 48, 200)
        s = series_from(t, np.exp(-0.1 * t))
        assert half_life(s, "Cbb") == pytest.approx(np.log(2) / 0.1, abs=1e-9)

    def test_tail_fraction_ignores_absorption_phase(self):
        t = np.linspace(0, 48, 200)
        c = np.exp(-0.1 * t) - np.exp(-1.0 * t)
        s = series_from(t, c)
        assert half_life(s, "Cbb", 0.25) == pytest.approx(np.log(2) / 0.1,
                                                          rel=1e-6)

    def test_rising_series_gives_none(self):
        t = np.linspace(0, 10, 50)
        s = series_from(t, t + 1.0)
        assert half_life(s, "Cbb") is None

    def test_all_zero_tail_gives_none(self):
        s = series_from(np.arange(10.0), [1, 1, 1, 1, 1, 1, 0, 0, 0, 0])
        assert half_life(s, "Cbb") is None

    def test_bad_tail_fraction(self):
        s = series_from([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            half_life(s, "Cbb", 0.0)
        with pytest.raises(ValueError):
            half_life(s, "Cbb", 1.5)

    @given(st.floats(0.02, 0.5), st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_rate_recovery_property(self, ke, seed):
        rng = np.random.default_rng(seed)
        scale = rng.uniform(0.01, 10.0)
        t = np.linspace(0, 48, 150)
        s = series_from(t, scale * np.exp(-ke * t))
        hl = half_life(s, "Cbb")
        assert hl == pytest.approx(np.log(2) / ke, rel=1e-6)


class TestSummaries:
    def test_summarize_fields(self):
        t = np.linspace(0, 48, 100)
        s = series_from(t, np.exp(-0.1 * t))
        out = summarize(s, "Cbb")
        assert isinstance(out, PkSummary)
        assert out.compartment == "Cbb"
        assert out.tmax == 0.0
        assert out.half_life == pytest.approx(np.log(2) / 0.1, rel=1e-9)
