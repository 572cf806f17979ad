import csv
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import brainpbpk

from brainpbpk.cli import main
from brainpbpk.dataio import ConcentrationSeries, read_series, write_series


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert main(["simulate", "--points", "40", "--horizon", "48",
                 "--out", str(out)]) == 0
    return out


def artifact_bytes(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def bad_manifest_copy(dataset_dir, tmp_path, text="{not json"):
    """The dataset next to a manifest.json holding ``text``; by default
    that is not valid JSON."""
    data = tmp_path / "data"
    data.mkdir()
    shutil.copy(dataset_dir / "dataset.csv", data / "dataset.csv")
    (data / "manifest.json").write_text(text, encoding="utf-8")
    return data / "dataset.csv"


BAD_MANIFEST_PARAMETERS = [
    pytest.param('{"parameters": [1, 2]}', id="list"),
    pytest.param('{"parameters": {"Vbb": "x"}}', id="string-value"),
    pytest.param('{"parameters": {"Vbb": NaN}}', id="nan"),
    pytest.param('{"parameters": {"Vbb": -Infinity}}', id="infinity"),
    pytest.param('{"parameters": {"Vbb": 1%s}}' % ("0" * 400), id="huge-int")]
BAD_MANIFEST_MESSAGE = \
    "^error: .*manifest.json: parameters must map names to numbers$"
# a manifest that is not an object, or that lacks a free parameter (here
# Vbb, free in every case below); the message ends with what is wrong
BAD_MANIFEST_SHAPES = [
    pytest.param("[1, 2]", "not a JSON object", id="list"),
    pytest.param('{"parameters": {"Vbm": 1.0}}', "parameters lack Vbb",
                 id="lacks-free")]


def test_import_loads_neither_scipy_nor_urllib_request():
    # numpy is the one runtime dependency; a fresh interpreter sees every
    # module the package pulls in
    code = ("import sys, brainpbpk, brainpbpk.cli, brainpbpk.metrics; "
            "print(sorted(m for m in sys.modules if m == 'urllib.request' "
            "or m.split('.')[0] == 'scipy'))")
    env = dict(os.environ,
               PYTHONPATH=str(Path(brainpbpk.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# the smallest run of each command; all but simulate also need --data
COMMANDS = {
    "simulate": ["simulate", "--points", "10", "--noise-sd", "1e-4"],
    "train": ["train", "--layers", "1", "--neurons", "2", "--iters", "1",
              "--lbfgs-iters", "0"],
    "fit-de": ["fit-de", "--free", "Vbb", "--generations", "1"],
    "sweep": ["sweep", "--activations", "tanh", "--layers", "1",
              "--neurons", "2", "--iters", "1"],
    "metrics": ["metrics"],
}


@pytest.mark.parametrize("command", ["simulate", "train", "fit-de", "sweep"])
def test_negative_seed_is_an_error(dataset_dir, tmp_path, command):
    data = [] if command == "simulate" else \
        ["--data", str(dataset_dir / "dataset.csv")]
    with pytest.raises(SystemExit, match="^error: seed must be non-negative$"):
        main([*COMMANDS[command], *data, "--seed", "-1",
              "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "fit-de"])
def test_repeated_free_name_is_an_error(dataset_dir, tmp_path, command):
    with pytest.raises(SystemExit, match="^error: --free repeats Vbb$"):
        main([*COMMANDS[command], "--data", str(dataset_dir / "dataset.csv"),
              "--free", "Vbb,Vbm,Vbb", "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "fit-de"])
def test_unknown_free_name_is_an_error(dataset_dir, tmp_path, command):
    with pytest.raises(SystemExit, match=r"^error: --free names unknown "
                                         r"parameter\(s\): bogus, zeta$"):
        main([*COMMANDS[command], "--data", str(dataset_dir / "dataset.csv"),
              "--free", "zeta,Vbb,bogus", "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "fit-de"])
def test_zero_reference_free_name_is_an_error(dataset_dir, tmp_path,
                                              command):
    # CLBin and CLCout have reference value 0: every scaled box is [0, 0]
    with pytest.raises(SystemExit, match="^error: --free CLBin, CLCout: the "
                                         "reference value is 0"):
        main([*COMMANDS[command], "--data", str(dataset_dir / "dataset.csv"),
              "--free", "Vbb,CLBin,CLCout", "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "fit-de"])
def test_infinite_box_is_an_error(dataset_dir, tmp_path, command):
    with pytest.raises(SystemExit, match=r"^error: --bounds-scale 0\.5,inf: "
                                         "Vbb: bounds must be finite"):
        main([*COMMANDS[command], "--data", str(dataset_dir / "dataset.csv"),
              "--free", "Vbb", "--bounds-scale", "0.5,inf",
              "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


class TestSimulate:
    def test_outputs(self, dataset_dir):
        ds = read_series(dataset_dir / "dataset.csv")
        assert len(ds) == 40 and ds.plasma is not None
        manifest = json.loads((dataset_dir / "manifest.json").read_text())
        assert manifest["parameters"]["Vbb"] == 0.064952435
        assert manifest["points"] == 40
        assert manifest["plasma"] == {"ka": 1.0, "ke": 0.1, "peak": 0.06}

    def test_deterministic(self, dataset_dir, tmp_path):
        assert main(["simulate", "--points", "40", "--horizon", "48",
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "dataset.csv").read_text() == \
            (dataset_dir / "dataset.csv").read_text()

    def test_bad_flags(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["simulate", "--points", "1", "--out", str(tmp_path)])
        with pytest.raises(SystemExit):
            main(["simulate", "--noise-sd", "-1", "--out", str(tmp_path)])

    @pytest.mark.parametrize("flag", ["--horizon", "--noise-sd"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_flag_is_an_error(self, tmp_path, flag, value):
        name = flag[2:].replace("-", "_")
        with pytest.raises(SystemExit, match=f"^error: {name} must be finite"):
            main(["simulate", "--points", "10", flag, value,
                  "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()


class TestTrain:
    def test_short_run_artifacts(self, dataset_dir, tmp_path):
        rc = main(["train", "--data", str(dataset_dir / "dataset.csv"),
                   "--layers", "1", "--neurons", "4", "--iters", "30",
                   "--lbfgs-iters", "0", "--lr", "1e-3",
                   "--log-stride", "10", "--out", str(tmp_path)])
        assert rc == 0
        for name in ("loss_history.csv", "trajectory.csv", "network.npz",
                     "prediction.csv", "summary.json"):
            assert (tmp_path / name).exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["label"] == "PINN"
        assert set(summary["free"]) == {"Vbb", "Vbm", "Vccsf", "Vscsf",
                                        "fubb", "lam_ccsf"}
        assert all(e >= 0 for e in summary["abs_errors"].values())

    def test_artifacts_bit_reproducible(self, dataset_dir, tmp_path):
        runs = []
        for name in ("a", "b"):
            assert main(["train", "--data", str(dataset_dir / "dataset.csv"),
                         "--layers", "1", "--neurons", "4", "--iters", "20",
                         "--lbfgs-iters", "2", "--out",
                         str(tmp_path / name)]) == 0
            runs.append(artifact_bytes(tmp_path / name))
        assert len(runs[0]) == 5
        assert runs[0] == runs[1]

    def test_reports_lbfgs_stop(self, dataset_dir, tmp_path, capsys):
        assert main(["train", "--data", str(dataset_dir / "dataset.csv"),
                     "--layers", "1", "--neurons", "4", "--iters", "5",
                     "--lbfgs-iters", "2", "--out", str(tmp_path)]) == 0
        assert "L-BFGS: 2 iterations (stopped on budget)" in \
            capsys.readouterr().out

    def test_invalid_manifest_is_an_error(self, dataset_dir, tmp_path):
        data = bad_manifest_copy(dataset_dir, tmp_path)
        with pytest.raises(SystemExit, match="^error: .*manifest.json"):
            main(["train", "--data", str(data), "--layers", "1",
                  "--neurons", "4", "--iters", "1", "--lbfgs-iters", "0",
                  "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("text,message", BAD_MANIFEST_SHAPES)
    def test_manifest_without_free_parameters_is_an_error(
            self, dataset_dir, tmp_path, text, message):
        data = bad_manifest_copy(dataset_dir, tmp_path, text)
        with pytest.raises(SystemExit,
                           match=f"^error: .*manifest.json: {message}"):
            main(["train", "--data", str(data), "--layers", "1",
                  "--neurons", "4", "--iters", "1", "--lbfgs-iters", "0",
                  "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", BAD_MANIFEST_PARAMETERS)
    def test_bad_manifest_parameters_are_an_error(self, dataset_dir, tmp_path,
                                                  text):
        data = bad_manifest_copy(dataset_dir, tmp_path, text)
        with pytest.raises(SystemExit, match=BAD_MANIFEST_MESSAGE):
            main(["train", "--data", str(data), "--layers", "1",
                  "--neurons", "4", "--iters", "1", "--lbfgs-iters", "0",
                  "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    def test_missing_data_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["train", "--data", str(tmp_path / "nope.csv"),
                  "--out", str(tmp_path)])

    @pytest.mark.parametrize("flags", [
        ["--lr", "-1"], ["--lr", "nan"], ["--lr", "inf"], ["--layers", "0"],
        ["--iters", "-1"], ["--log-stride", "0"], ["--weights-ic", "-1"],
        ["--weights-ode", "nan"], ["--weights-data", "inf"],
        ["--prediction-points", "1"], ["--prediction-points", "0"],
        ["--prediction-points", "-3"]])
    def test_bad_config_is_an_error(self, dataset_dir, tmp_path, flags):
        with pytest.raises(SystemExit, match="^error: "):
            main(["train", "--data", str(dataset_dir / "dataset.csv"),
                  "--layers", "1", "--neurons", "4", "--iters", "2",
                  "--lbfgs-iters", "0", *flags, "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    def test_box_outside_valid_range_is_an_error(self, dataset_dir, tmp_path):
        # fuccsf (reference 1) boxed in [0.5, 2]: the sigmoid bound would
        # let training reach fractions above 1
        with pytest.raises(SystemExit, match=r"^error: .*fuccsf"):
            main(["train", "--data", str(dataset_dir / "dataset.csv"),
                  "--free", "fuccsf", "--layers", "1", "--neurons", "4",
                  "--iters", "1", "--lbfgs-iters", "0",
                  "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()


class TestFitDe:
    def test_two_parameter_fit(self, dataset_dir, tmp_path):
        rc = main(["fit-de", "--data", str(dataset_dir / "dataset.csv"),
                   "--free", "Vbb,Vscsf", "--generations", "60",
                   "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "de_result.csv").read_bytes().split(b"\r\n")
        assert lines[0] == b"parameter,value,abs_error,objective"
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["label"] == "DE"
        # every number at 17 significant digits; the objective only once
        assert lines[1].decode() == "Vbb,%.17g,%.17g,%.17g" % (
            summary["values"]["Vbb"], summary["abs_errors"]["Vbb"],
            summary["objective"])
        assert lines[2].startswith(b"Vscsf,") and lines[2].endswith(b",")
        assert lines[3:] == [b""]
        assert (tmp_path / "prediction.csv").exists()

    def test_artifacts_bit_reproducible(self, dataset_dir, tmp_path):
        runs = []
        for name in ("a", "b"):
            assert main(["fit-de", "--data", str(dataset_dir / "dataset.csv"),
                         "--free", "Vbb,Vscsf", "--generations", "5",
                         "--out", str(tmp_path / name)]) == 0
            runs.append(artifact_bytes(tmp_path / name))
        assert sorted(runs[0]) == ["de_result.csv", "prediction.csv",
                                   "summary.json"]
        assert runs[0] == runs[1]

    def test_dataset_with_utf8_bom(self, dataset_dir, tmp_path):
        # spreadsheet exports start with a BOM; the fit is the same as
        # without it
        bom = tmp_path / "bom"
        shutil.copytree(dataset_dir, bom)
        (bom / "dataset.csv").write_bytes(
            b"\xef\xbb\xbf" + (dataset_dir / "dataset.csv").read_bytes())
        runs = []
        for data, out in ((dataset_dir, "plain"), (bom, "with-bom")):
            assert main(["fit-de", "--data", str(data / "dataset.csv"),
                         "--free", "Vbb", "--generations", "2",
                         "--out", str(tmp_path / out)]) == 0
            runs.append(artifact_bytes(tmp_path / out))
        assert runs[0] == runs[1]

    def test_invalid_manifest_is_an_error(self, dataset_dir, tmp_path):
        data = bad_manifest_copy(dataset_dir, tmp_path)
        with pytest.raises(SystemExit, match="^error: .*manifest.json"):
            main(["fit-de", "--data", str(data), "--free", "Vbb",
                  "--generations", "1", "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("text,message", BAD_MANIFEST_SHAPES)
    def test_manifest_without_free_parameters_is_an_error(
            self, dataset_dir, tmp_path, text, message):
        data = bad_manifest_copy(dataset_dir, tmp_path, text)
        with pytest.raises(SystemExit,
                           match=f"^error: .*manifest.json: {message}$"):
            main(["fit-de", "--data", str(data), "--free", "Vbb",
                  "--generations", "1", "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", BAD_MANIFEST_PARAMETERS)
    def test_bad_manifest_parameters_are_an_error(self, dataset_dir, tmp_path,
                                                  text):
        data = bad_manifest_copy(dataset_dir, tmp_path, text)
        with pytest.raises(SystemExit, match=BAD_MANIFEST_MESSAGE):
            main(["fit-de", "--data", str(data), "--free", "Vbb",
                  "--generations", "1", "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag,value", [
        pytest.param("--population", "2", id="2"),
        pytest.param("--population", "-1", id="-1"),
        pytest.param("--generations", "-1", id="generations=-1")])
    def test_bad_config_is_an_error(self, dataset_dir, tmp_path, flag, value):
        with pytest.raises(SystemExit, match=f"^error: {flag[2:]}"):
            main(["fit-de", "--data", str(dataset_dir / "dataset.csv"),
                  "--free", "Vbb", "--generations", "1",
                  flag, value, "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    def test_box_outside_valid_range_is_an_error(self, dataset_dir, tmp_path):
        # no candidate in [1.5, 2] x fuccsf is a valid fraction
        with pytest.raises(SystemExit, match=r"^error: .*fuccsf"):
            main(["fit-de", "--data", str(dataset_dir / "dataset.csv"),
                  "--free", "fuccsf", "--bounds-scale", "1.5,2",
                  "--generations", "1", "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()


class TestSweep:
    def test_tiny_grid(self, dataset_dir, tmp_path):
        rc = main(["sweep", "--data", str(dataset_dir / "dataset.csv"),
                   "--activations", "tanh,relu", "--layers", "1",
                   "--neurons", "3", "--iters", "20", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "layers,activation,N=3"
        assert len(lines) == 3
        for line in lines[1:]:
            cell = line.split(",")[2]
            assert cell == "diverged" or "(" in cell

    def test_malformed_dataset_is_an_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")
        with pytest.raises(SystemExit, match=f"^error: {re.escape(str(bad))}: "
                                             "missing required column"):
            main(["sweep", "--data", str(bad), "--layers", "1",
                  "--neurons", "2", "--iters", "1", "--out", str(tmp_path)])

    # the bad value sits in the last cell: no cell may run before the check
    @pytest.mark.parametrize("flags", [
        ["--layers", "1,0"], ["--neurons", "2,0"],
        ["--activations", "tanh,foo"], ["--iters", "-1"], ["--jobs", "0"],
        ["--jobs", "-3"]])
    def test_bad_config_is_an_error(self, dataset_dir, tmp_path, flags):
        with pytest.raises(SystemExit, match="^error: "):
            main(["sweep", "--data", str(dataset_dir / "dataset.csv"),
                  "--activations", "tanh", "--layers", "1", "--neurons", "2",
                  "--iters", "1", *flags, "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    def test_non_integer_layers_is_an_error(self, dataset_dir, tmp_path):
        with pytest.raises(SystemExit, match="^error: --layers"):
            main(["sweep", "--data", str(dataset_dir / "dataset.csv"),
                  "--layers", "x", "--out", str(tmp_path)])


class TestMetrics:
    def test_summary_csv(self, tmp_path):
        # Cbb decays; the other compartments stay 0 and have no half-life
        t = np.linspace(0, 48, 100)
        conc = np.zeros((4, t.size))
        conc[0] = np.exp(-0.1 * t)
        write_series(ConcentrationSeries(t, conc), tmp_path / "data.csv")
        rc = main(["metrics", "--data", str(tmp_path / "data.csv"),
                   "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "pk_summary.csv").read_text().splitlines()
        assert lines[0] == "compartment,auc,cmax,tmax,half_life"
        assert len(lines) == 5
        assert lines[1].startswith("Cbb,") and not lines[1].endswith(",")
        assert lines[2] == "Cbm,0,0,0,"

    def test_bad_tail_fraction(self, dataset_dir, tmp_path):
        with pytest.raises(SystemExit):
            main(["metrics", "--data", str(dataset_dir / "dataset.csv"),
                  "--tail-fraction", "0", "--out", str(tmp_path)])


class TestCompare:
    def test_table_and_plots(self, dataset_dir, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert main(["fit-de", "--data", str(dataset_dir / "dataset.csv"),
                         "--free", "Vbb", "--generations", "5",
                         "--seed", "1" if out is a else "2",
                         "--out", str(out)]) == 0
        comp = tmp_path / "cmp"
        rc = main(["compare", "--results", str(a / "summary.json"),
                   str(b / "summary.json"),
                   "--data", str(dataset_dir / "dataset.csv"),
                   "--out", str(comp)])
        assert rc == 0
        lines = (comp / "compare.csv").read_text().splitlines()
        assert lines[0].startswith("parameter,reference,DE,")
        assert lines[1].startswith("Vbb,0.064952435")
        for c in ("Cbb", "Cbm", "Cccsf", "Cscsf"):
            assert (comp / f"compare_{c}.svg").exists()

    def test_label_with_comma_and_quote(self, tmp_path):
        # a label is a cell of its own, quoted; a missing value is empty
        paths = []
        for label, values in (('a, "b"', {"Vbb": 0.06, "fubb": 0.1}),
                              ("c", {"Vbb": 0.07})):
            path = tmp_path / f"{label[0]}.json"
            path.write_text(json.dumps({
                "label": label, "free": list(values), "values": values,
                "abs_errors": {}, "prediction": "none.csv"}))
            paths.append(str(path))
        for order, out in ((paths, "cmp"), (paths[::-1], "cmp-reversed")):
            assert main(["compare", "--results", *order,
                         "--out", str(tmp_path / out)]) == 0
        text = (tmp_path / "cmp" / "compare.csv").read_text(encoding="utf-8")
        assert text.startswith(
            'parameter,reference,"a, ""b""","|a, ""b""_err|",c,|c_err|\n')
        with open(tmp_path / "cmp" / "compare.csv", newline="",
                  encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][2:4] == ['a, "b"', '|a, "b"_err|']
        assert rows[1] == ["Vbb", "0.064952435000000003",
                           "0.059999999999999998", "", "0.070000000000000007",
                           ""]
        assert rows[2] == ["fubb", "0.125", "0.10000000000000001", "", "", ""]
        # the rows are every summary's free names in first-seen order, so
        # fubb stays when the summary without it comes first
        with open(tmp_path / "cmp-reversed" / "compare.csv", newline="",
                  encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows == [
            ["parameter", "reference", "c", "|c_err|", 'a, "b"',
             '|a, "b"_err|'],
            ["Vbb", "0.064952435000000003", "0.070000000000000007", "",
             "0.059999999999999998", ""],
            ["fubb", "0.125", "", "", "0.10000000000000001", ""]]

    def test_incomplete_summary_is_an_error(self, dataset_dir, tmp_path):
        good = tmp_path / "good"
        assert main(["fit-de", "--data", str(dataset_dir / "dataset.csv"),
                     "--free", "Vbb", "--generations", "1",
                     "--out", str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"label": "X", "objective": 1.0}))
        with pytest.raises(SystemExit, match="^error: .*bad.json.*values"):
            main(["compare", "--results", str(good / "summary.json"),
                  str(bad), "--out", str(tmp_path / "cmp")])

    def test_malformed_prediction_is_an_error(self, dataset_dir, tmp_path):
        for name in ("a", "b"):
            assert main(["fit-de", "--data", str(dataset_dir / "dataset.csv"),
                         "--free", "Vbb", "--generations", "1",
                         "--out", str(tmp_path / name)]) == 0
        bad = tmp_path / "b" / "prediction.csv"
        bad.write_text("garbage\n")
        with pytest.raises(SystemExit, match=f"^error: {re.escape(str(bad))}: "
                                             "missing required column"):
            main(["compare", "--results", str(tmp_path / "a" / "summary.json"),
                  str(tmp_path / "b" / "summary.json"),
                  "--out", str(tmp_path / "cmp")])

    # the bad summary comes first: compare takes its parameter list from
    # the first one
    @pytest.mark.parametrize("change,message", [
        pytest.param({"free": ["Vbb", "bogus"]},
                     r"free must be a list of parameter names, not "
                     r"\['Vbb', 'bogus'\]", id="unknown-name"),
        pytest.param({"free": "Vbb"}, "free must be a list of parameter "
                     "names, not 'Vbb'", id="free-string"),
        pytest.param({"values": {"Vbb": "0.06"}},
                     "values and abs_errors must map names to numbers",
                     id="string-value"),
        pytest.param({"abs_errors": {"Vbb": True}},
                     "values and abs_errors must map names to numbers",
                     id="bool-error"),
        pytest.param({"values": {"Vbb": float("nan")}},
                     "values and abs_errors must map names to numbers",
                     id="nan-value"),
        pytest.param({"abs_errors": {"Vbb": float("inf")}},
                     "values and abs_errors must map names to numbers",
                     id="infinity-error"),
        pytest.param({"label": 1}, "label and prediction must be strings",
                     id="number-label")])
    def test_bad_summary_contents_are_an_error(self, tmp_path, change,
                                               message):
        paths = []
        for name, extra in (("bad", change), ("good", {})):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({
                "label": name, "free": ["Vbb"], "values": {"Vbb": 0.06},
                "abs_errors": {"Vbb": 0.005}, "prediction": "none.csv",
                **extra}))
            paths.append(str(path))
        with pytest.raises(SystemExit, match=f"^error: "
                                             f"{re.escape(paths[0])}: "
                                             f"{message}$"):
            main(["compare", "--results", *paths,
                  "--out", str(tmp_path / "cmp")])
        assert not (tmp_path / "cmp").exists()

    def test_requires_two_results(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["compare", "--results", "one.json",
                  "--out", str(tmp_path)])


def bad_dataset(dataset_dir, tmp_path, kind):
    """A copy of the dataset with one defect, alone in a new directory:
    a NaN or inf concentration, a negative plasma value, one row, or every
    row moved earlier so that the last one is at the dose (t=0)."""
    lines = (dataset_dir / "dataset.csv").read_text().splitlines()
    header, rows = lines[0], [r.split(",") for r in lines[1:]]
    if kind == "nan":
        rows[3][1] = "nan"
    elif kind == "inf":
        rows[3][2] = "inf"
    elif kind == "negative-plasma":
        rows[3][5] = "-1"
    elif kind == "before-dose":
        # the model starts from zero states at t=0, so no row may come earlier
        end = float(rows[-1][0])
        for row in rows:
            row[0] = repr(float(row[0]) - end)
    else:
        rows = rows[:1]
    path = tmp_path / "bad" / "dataset.csv"
    path.parent.mkdir()
    path.write_text("\n".join([header] + [",".join(r) for r in rows]) + "\n")
    return str(path)


class TestBadDataset:
    """Every command that reads a dataset turns a defect in it into an
    ``error:`` exit before it makes the output directory."""

    MESSAGES = {
        "nan": "column Cbb contains non-finite values",
        "inf": "column Cbm contains non-finite values",
        "negative-plasma": "plasma concentrations must be non-negative",
        "one-row": "dataset needs at least 2 rows",
        "before-dose": "times must start at or after the dose at t=0$",
    }

    @pytest.mark.parametrize("command,kind", [
        (command, kind) for command in ("train", "fit-de", "sweep")
        for kind in ("nan", "inf", "negative-plasma", "one-row",
                     "before-dose")] + [
        ("metrics", kind) for kind in ("nan", "inf", "one-row")])
    def test_defect_is_an_error(self, dataset_dir, tmp_path, command, kind):
        data = bad_dataset(dataset_dir, tmp_path, kind)
        with pytest.raises(SystemExit, match=f"^error: {re.escape(data)}: "
                                             f"{self.MESSAGES[kind]}"):
            main([*COMMANDS[command], "--data", data,
                  "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["nan", "inf"])
    def test_compare_data_defect_is_an_error(self, dataset_dir, tmp_path,
                                             kind):
        results = []
        for label in ("A", "B"):
            path = tmp_path / f"{label}.json"
            path.write_text(json.dumps({
                "label": label, "free": ["Vbb"], "values": {"Vbb": 0.06},
                "abs_errors": {}, "prediction": "none.csv"}))
            results.append(str(path))
        data = bad_dataset(dataset_dir, tmp_path, kind)
        with pytest.raises(SystemExit, match=f"^error: {re.escape(data)}: "
                                             f"{self.MESSAGES[kind]}"):
            main(["compare", "--results", *results, "--data", data,
                  "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()
