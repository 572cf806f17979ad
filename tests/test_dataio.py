import csv
import pathlib
import tempfile
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brainpbpk.dataio import (ConcentrationSeries, DuplicateColumn, EmptyPlot,
                              MissingColumn, NonMonotonicTime, NonNumericCell,
                              PlasmaProfile, RunArtifacts, emit_plot,
                              linear_interp, read_series, write_rows,
                              write_series)
from brainpbpk.model import COMPARTMENTS
from brainpbpk.params import DrugParams, SystemParams
from brainpbpk.solvers import synthesize_dataset


def make_series(n=5, with_plasma=True, seed=0):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0, 48, size=n))
    while np.any(np.diff(times) <= 0):
        times = np.sort(rng.uniform(0, 48, size=n))
    cols = rng.uniform(0, 0.1, size=(5, n))
    return ConcentrationSeries(times, cols[:4],
                               cols[4] if with_plasma else None)


class TestReadWrite:
    def test_basic_roundtrip(self, tmp_path):
        s = make_series(3)
        path = tmp_path / "d.csv"
        write_series(s, path)
        first_line = path.read_text().splitlines()[0]
        assert first_line == "Time,Cbb,Cbm,Cccsf,Cscsf,Cplasma"
        back = read_series(path)
        assert len(back) == 3 and back.plasma is not None

    def test_roundtrip_exact_200_points(self, tmp_path):
        s = make_series(200, seed=7)
        path = tmp_path / "d.csv"
        write_series(s, path)
        back = read_series(path)
        assert np.array_equal(back.times, s.times)
        assert np.array_equal(back.concentrations(), s.concentrations())
        assert np.array_equal(back.plasma, s.plasma)

    def test_plasma_column_omitted_when_absent(self, tmp_path):
        s = make_series(3, with_plasma=False)
        path = tmp_path / "d.csv"
        write_series(s, path)
        assert path.read_text().splitlines()[0] == "Time,Cbb,Cbm,Cccsf,Cscsf"
        assert read_series(path).plasma is None

    def test_empty_series_writes_header_only(self, tmp_path):
        s = ConcentrationSeries([], np.empty((4, 0)))
        path = tmp_path / "d.csv"
        write_series(s, path)
        assert path.read_text().strip() == "Time,Cbb,Cbm,Cccsf,Cscsf"
        assert len(read_series(path)) == 0

    def test_missing_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("Time,Cbb,Cccsf,Cscsf\n0,1,2,3\n")
        with pytest.raises(MissingColumn) as err:
            read_series(path)
        assert err.value.column == "Cbm"

    def test_non_monotonic_time(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("Time,Cbb,Cbm,Cccsf,Cscsf\n0,0,0,0,0\n"
                        "1,0,0,0,0\n1,0,0,0,0\n")
        with pytest.raises(NonMonotonicTime) as err:
            read_series(path)
        assert err.value.row == 3

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("Time,Cbb,Cbm,Cccsf,Cscsf\n0,0,oops,0,0\n")
        with pytest.raises(NonNumericCell) as err:
            read_series(path)
        assert err.value.column == "Cbm" and err.value.row == 1

    def test_roundtrip_longer_than_one_write_block(self, tmp_path):
        s = make_series(10_000, seed=3)
        path = tmp_path / "d.csv"
        write_series(s, path)
        assert len(path.read_bytes().split(b"\r\n")) == 10_002
        back = read_series(path)
        assert np.array_equal(back.times, s.times)
        assert np.array_equal(back.concentrations(), s.concentrations())
        assert np.array_equal(back.plasma, s.plasma)

    def test_blank_rows_skipped_and_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("Note,Time,Cbb,Cbm,Cccsf,Cscsf\nx,0,1,2,3,4\n\n"
                        " , \ny,1,5,6,7,8\n")
        s = read_series(path)
        assert np.array_equal(s.times, [0.0, 1.0]) and s.plasma is None
        assert np.array_equal(s.concentrations(),
                              [[1.0, 5.0], [2.0, 6.0], [3.0, 7.0], [4.0, 8.0]])

    @pytest.mark.parametrize("header,column", [
        ("Time,Cbb,Cbm,Cccsf,Cscsf,cbb", "Cbb"),
        ("time,Cbb,Cbm,Cccsf,Cscsf,TIME", "Time"),
        ("Time,Cbb,Cbm,Cccsf,Cscsf,Cplasma, cplasma ", "Cplasma")])
    def test_repeated_column_is_an_error(self, tmp_path, header, column):
        # matched case-insensitively, a second copy of a column that is
        # read would leave it unclear which one counts
        path = tmp_path / "d.csv"
        path.write_text(header + "\n"
                        + ",".join(["0"] * (header.count(",") + 1)) + "\n")
        with pytest.raises(DuplicateColumn,
                           match=f"^column {column} appears more than once$"):
            read_series(path)

    def test_repeated_extra_column_is_ignored(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("Note,Time,Cbb,Cbm,Cccsf,Cscsf,note\nx,0,1,2,3,4,y\n")
        assert read_series(path).column("Cbb")[0] == 1.0

    def test_header_case_insensitive(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,cbb,CBM,Cccsf,cSCSF,cplasma\n0,1,2,3,4,5\n")
        s = read_series(path)
        assert s.column("Cbm")[0] == 2.0 and s.plasma[0] == 5.0

    def test_quoted_and_padded_cells(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('Time,Cbb,Cbm,Cccsf,Cscsf\n"0", 1 ,"2",3 , 4\n'
                        '1,"5",  6,"7" ,8\n')
        s = read_series(path)
        assert np.array_equal(s.times, [0.0, 1.0])
        assert np.array_equal(s.concentrations(),
                              [[1.0, 5.0], [2.0, 6.0], [3.0, 7.0], [4.0, 8.0]])

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("final", [True, False],
                             ids=["final-newline", "no-final-newline"])
    def test_line_ends(self, tmp_path, end, final):
        path = tmp_path / "d.csv"
        lines = ["Time,Cbb,Cbm,Cccsf,Cscsf", "0,1,2,3,4", "1,5,6,7,8"]
        path.write_bytes((end.join(lines) + end * final).encode())
        s = read_series(path)
        assert np.array_equal(s.times, [0.0, 1.0])
        assert np.array_equal(s.column("Cscsf"), [4.0, 8.0])

    def test_comma_and_quote_only_rows_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('Time,Cbb,Cbm,Cccsf,Cscsf\n,,,,\n0,1,2,3,4\n , \n'
                        '"",""\n\t\n1,5,6,7,8\n,\n')
        s = read_series(path)
        assert np.array_equal(s.times, [0.0, 1.0])
        assert np.array_equal(s.column("Cbb"), [1.0, 5.0])

    def test_short_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("Time,Cbb,Cbm,Cccsf,Cscsf\n0,1,2,3,4\n1,5,6\n")
        with pytest.raises(NonNumericCell) as err:
            read_series(path)
        assert err.value.column == "Cccsf" and err.value.row == 2

    def test_bad_cell_row_counts_data_rows_only(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("Time,Cbb,Cbm,Cccsf,Cscsf\n\n0,1,2,3,4\n , \n\n"
                        "1,5,6,7,x\n")
        with pytest.raises(NonNumericCell) as err:
            read_series(path)
        assert err.value.column == "Cscsf" and err.value.row == 2

    @pytest.mark.parametrize("line,column", [("# note", "Time"),
                                             ("1,5,6,7,8 # note", "Cscsf")],
                             ids=["whole-row", "end-of-row"])
    def test_hash_starts_no_comment(self, tmp_path, line, column):
        path = tmp_path / "d.csv"
        path.write_text(f"Time,Cbb,Cbm,Cccsf,Cscsf\n0,1,2,3,4\n{line}\n")
        with pytest.raises(NonNumericCell) as err:
            read_series(path)
        assert err.value.column == column and err.value.row == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(MissingColumn) as err:
            read_series(path)
        assert err.value.column == "Time"

    def test_header_only_gives_no_rows_and_no_warning(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("Time,Cbb,Cbm,Cccsf,Cscsf,Cplasma\n\n,,\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = read_series(path)
        assert len(s) == 0 and s.concentrations().shape == (4, 0)
        assert s.plasma is not None and s.plasma.shape == (0,)

    def test_nan_cell_names_its_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("Time,Cbb,Cbm,Cccsf,Cscsf\n0,1,2,3,4\n1,5,nan,7,8\n")
        with pytest.raises(ValueError, match="^column Cbm contains non-finite"):
            read_series(path)

    @pytest.mark.parametrize("cell", ["1_0", "\u0661"],
                             ids=["underscore", "non-ascii-digit"])
    def test_cell_only_python_float_accepts(self, tmp_path, cell):
        # float() reads both cells; the reader's parser rejects them
        path = tmp_path / "d.csv"
        path.write_text(f"Time,Cbb,Cbm,Cccsf,Cscsf\n0,1,2,3,4\n1,5,6,{cell},8\n",
                        encoding="utf-8")
        with pytest.raises(NonNumericCell) as err:
            read_series(path)
        assert err.value.column == "Cccsf" and err.value.row == 2

    def test_utf8_bom(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("Time,Cbb,Cbm,Cccsf,Cscsf\n0,1,2,3,4\n",
                        encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbfTime,")
        assert np.array_equal(read_series(path).column("Cscsf"), [4.0])

    def test_roundtrip_exact_20000_noisy_rows(self, tmp_path):
        s = synthesize_dataset(SystemParams(), DrugParams(), n_points=20_000,
                               noise_sd=1e-4, seed=5)
        path = tmp_path / "d.csv"
        write_series(s, path)
        back = read_series(path)
        for name in ("Time",) + COMPARTMENTS + ("Cplasma",):
            assert np.array_equal(back.column(name), s.column(name)), name
        assert back.conc.flags.c_contiguous

    @given(st.integers(min_value=0, max_value=50), st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, n, seed):
        rng = np.random.default_rng(seed)
        times = np.unique(rng.uniform(0, 100, size=n + 2))
        m = times.size
        cols = rng.uniform(0, 10, size=(4, m))
        s = ConcentrationSeries(times, cols)
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "d.csv"
            write_series(s, path)
            back = read_series(path)
        assert np.array_equal(back.times, s.times)
        assert np.array_equal(back.concentrations(), s.concentrations())


class TestExactBytes:
    """The CSVs pinned byte for byte: a header row, CRLF line ends and
    every number at %.17g, ``Time`` and ``iter`` included; ``write_rows``
    also writes ``None`` as an empty cell and quotes only where needed."""

    DATA = ("Time,Cbb,Cbm,Cccsf,Cscsf,Cplasma\n0,0,0.3,1e-20,0,0\n"
            "0.1,0.2,0.3333333333333333,2.5,1e+300,0.06\n"
            "2,1e-05,-0,3,7,0.1\n")

    def rewrite(self, tmp_path, text):
        src, out = tmp_path / "in.csv", tmp_path / "out.csv"
        src.write_text(text)
        write_series(read_series(src), out)
        return out.read_bytes()

    def test_series_with_plasma(self, tmp_path):
        assert self.rewrite(tmp_path, self.DATA) == (
            b"Time,Cbb,Cbm,Cccsf,Cscsf,Cplasma\r\n"
            b"0,0,0.29999999999999999,9.9999999999999995e-21,0,0\r\n"
            b"0.10000000000000001,0.20000000000000001,0.33333333333333331,"
            b"2.5,1.0000000000000001e+300,0.059999999999999998\r\n"
            b"2,1.0000000000000001e-05,-0,3,7,0.10000000000000001\r\n")

    def test_series_without_plasma(self, tmp_path):
        text = "".join(line.rsplit(",", 1)[0] + "\n"
                       for line in self.DATA.splitlines()[:3])
        assert self.rewrite(tmp_path, text) == (
            b"Time,Cbb,Cbm,Cccsf,Cscsf\r\n"
            b"0,0,0.29999999999999999,9.9999999999999995e-21,0\r\n"
            b"0.10000000000000001,0.20000000000000001,0.33333333333333331,"
            b"2.5,1.0000000000000001e+300\r\n")

    def test_empty_series(self, tmp_path):
        assert self.rewrite(tmp_path, "Time,Cbb,Cbm,Cccsf,Cscsf\n") == \
            b"Time,Cbb,Cbm,Cccsf,Cscsf\r\n"

    def test_loss_history_and_trajectory(self, tmp_path):
        art = RunArtifacts(param_names=["Vbb", "fubb"])
        art.log(0, 0.1, 2.0, 1e-07, 2.1000001, [0.064952435, 0.125])
        art.log(50500, 1 / 3, 0.5, 0.0, 5 / 6, [0.07, 0.1])
        art.write_loss_history(tmp_path / "loss.csv")
        assert (tmp_path / "loss.csv").read_bytes() == (
            b"iter,loss_data,loss_ode,loss_ic,loss_total\r\n"
            b"0,0.10000000000000001,2,9.9999999999999995e-08,"
            b"2.1000000999999999\r\n"
            b"50500,0.33333333333333331,0.5,0,0.83333333333333337\r\n")
        art.write_trajectory(tmp_path / "traj.csv")
        assert (tmp_path / "traj.csv").read_bytes() == (
            b"iter,Vbb,fubb\r\n"
            b"0,0.064952435000000003,0.125\r\n"
            b"50500,0.070000000000000007,0.10000000000000001\r\n")

    def test_mixed_rows(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_rows(path, ["name", "value", "note"],
                   [["Vbb", 0.1, None], ["n", 7, 'a, "b"'],
                    ["big", np.float64(1e300), "-"]])
        assert path.read_bytes() == (
            b"name,value,note\r\n"
            b"Vbb,0.10000000000000001,\r\n"
            b'n,7,"a, ""b"""\r\n'
            b"big,1.0000000000000001e+300,-\r\n")
        with open(path, newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh))[2] == ["n", "7", 'a, "b"']


class TestLinearInterp:
    def test_midpoint(self):
        p = PlasmaProfile(np.array([0.0, 1.0]), np.array([1.0, 3.0]))
        assert linear_interp(p, 0.5) == 2.0

    def test_exact_on_knots(self):
        p = PlasmaProfile(np.array([0.0, 0.3, 1.7]), np.array([1.0, 5.0, 2.0]))
        for t, v in zip(p.times, p.values):
            assert linear_interp(p, t) == v

    def test_clamped_extrapolation(self):
        p = PlasmaProfile(np.array([0.0, 1.0]), np.array([1.0, 3.0]))
        assert linear_interp(p, -5.0) == 1.0
        assert linear_interp(p, 99.0) == 3.0

    @given(st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_affine_between_knots(self, seed):
        rng = np.random.default_rng(seed)
        times = np.unique(rng.uniform(0, 48, size=6))
        if times.size < 2:
            return
        values = rng.uniform(0, 1, size=times.size)
        p = PlasmaProfile(times, values)
        i = rng.integers(times.size - 1)
        t = rng.uniform(times[i], times[i + 1])
        t0, t1 = times[i], times[i + 1]
        expected = values[i] + (values[i + 1] - values[i]) * (t - t0) / (t1 - t0)
        assert linear_interp(p, t) == pytest.approx(expected, rel=1e-15, abs=1e-15)

    def test_vectorized(self):
        p = PlasmaProfile(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        out = linear_interp(p, np.array([0.25, 0.5, 2.0]))
        assert np.allclose(out, [0.5, 1.0, 2.0])


class TestValidation:
    def test_plasma_profile_rejects_bad(self):
        with pytest.raises(ValueError):
            PlasmaProfile(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            PlasmaProfile(np.array([0.0, 1.0]), np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            PlasmaProfile(np.array([0.0]), np.array([1.0]))

    def test_series_plasma_profile_built_once_and_checked(self):
        conc = np.zeros((4, 2))
        series = ConcentrationSeries([0.0, 1.0], conc, plasma=[1.0, 2.0])
        assert series.plasma_profile() is series.plasma_profile()
        # a negative value raises on every call, as nothing is kept
        bad = ConcentrationSeries([0.0, 1.0], conc, plasma=[1.0, -1.0])
        for _ in range(2):
            with pytest.raises(ValueError, match="must be non-negative"):
                bad.plasma_profile()

    def test_series_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ConcentrationSeries([0, 1], [[0, np.nan], [0, 0], [0, 0], [0, 0]])

    def test_series_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            ConcentrationSeries([0, 1], np.zeros((4, 1)))


class TestRunArtifacts:
    def test_logging_and_roundtrip(self, tmp_path):
        art = RunArtifacts(param_names=["Vbb", "fubb"])
        art.log(0, 1.0, 2.0, 3.0, 6.0, [0.05, 0.1])
        art.log(100, 0.5, 1.0, 1.5, 3.0, [0.06, 0.12])
        loss_path = tmp_path / "loss.csv"
        art.write_loss_history(loss_path)
        back = np.loadtxt(loss_path, delimiter=",", skiprows=1)
        assert np.array_equal(back[:, 0], [0, 100])
        assert np.array_equal(back[:, 4], [6.0, 3.0])
        assert loss_path.read_text().splitlines()[0] == \
            "iter,loss_data,loss_ode,loss_ic,loss_total"

        traj_path = tmp_path / "traj.csv"
        art.write_trajectory(traj_path)
        assert traj_path.read_text().splitlines()[0] == "iter,Vbb,fubb"

    def test_iteration_indices_must_increase(self):
        art = RunArtifacts()
        art.log(5, 1, 1, 1, 3, [])
        with pytest.raises(ValueError):
            art.log(5, 1, 1, 1, 3, [])

    def test_nonfinite_loss_rejected(self):
        art = RunArtifacts()
        with pytest.raises(ValueError):
            art.log(0, np.nan, 1, 1, 1, [])


class TestEmitPlot:
    def test_single_series_one_polyline(self, tmp_path):
        path = tmp_path / "p.svg"
        emit_plot([("ref", make_series(20))], "Cbb", path)
        text = path.read_text()
        assert text.count("<polyline") == 1
        assert "Time (h)" in text and "Concentration (mg/L)" in text

    def test_two_series_two_polylines_and_legend(self, tmp_path):
        path = tmp_path / "p.svg"
        emit_plot([("a", make_series(20)), ("b", make_series(20, seed=1))],
                  "Cbm", path)
        text = path.read_text()
        assert text.count("<polyline") == 2
        assert ">a</text>" in text and ">b</text>" in text

    def test_label_is_escaped(self, tmp_path):
        path = tmp_path / "p.svg"
        emit_plot([("PINN & <DE>", make_series(20))], "Cbb", path)
        texts = [t.text for t in ET.parse(path).getroot()
                 if t.tag == "{http://www.w3.org/2000/svg}text"]
        assert "PINN & <DE>" in texts

    def test_empty_list_raises(self, tmp_path):
        with pytest.raises(EmptyPlot):
            emit_plot([], "Cbb", tmp_path / "p.svg")
