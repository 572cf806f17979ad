import json
import shutil

import pytest

from brainpbpk.cli import main
from brainpbpk.dataio import read_series


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert main(["simulate", "--points", "40", "--horizon", "48",
                 "--out", str(out)]) == 0
    return out


def artifact_bytes(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def bad_manifest_copy(dataset_dir, tmp_path):
    """The dataset next to a manifest.json that is not valid JSON."""
    data = tmp_path / "data"
    data.mkdir()
    shutil.copy(dataset_dir / "dataset.csv", data / "dataset.csv")
    (data / "manifest.json").write_text("{not json", encoding="utf-8")
    return data / "dataset.csv"


class TestSimulate:
    def test_outputs(self, dataset_dir):
        ds = read_series(dataset_dir / "dataset.csv")
        assert len(ds) == 40 and ds.plasma is not None
        manifest = json.loads((dataset_dir / "manifest.json").read_text())
        assert manifest["parameters"]["Vbb"] == 0.064952435
        assert manifest["points"] == 40

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

    def test_unknown_free_name_rejected(self, dataset_dir, tmp_path):
        with pytest.raises(SystemExit):
            main(["train", "--data", str(dataset_dir / "dataset.csv"),
                  "--free", "bogus", "--out", str(tmp_path)])

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
        lines = (tmp_path / "de_result.csv").read_text().splitlines()
        assert lines[0] == "parameter,value,abs_error,objective"
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["label"] == "DE"
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

    def test_invalid_manifest_is_an_error(self, dataset_dir, tmp_path):
        data = bad_manifest_copy(dataset_dir, tmp_path)
        with pytest.raises(SystemExit, match="^error: .*manifest.json"):
            main(["fit-de", "--data", str(data), "--free", "Vbb",
                  "--generations", "1", "--out", str(tmp_path / "out")])

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
        with pytest.raises(SystemExit, match="^error: missing required column"):
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
    def test_summary_csv(self, dataset_dir, tmp_path):
        rc = main(["metrics", "--data", str(dataset_dir / "dataset.csv"),
                   "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "pk_summary.csv").read_text().splitlines()
        assert lines[0] == "compartment,auc,cmax,tmax,half_life"
        assert len(lines) == 5

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
        (tmp_path / "b" / "prediction.csv").write_text("garbage\n")
        with pytest.raises(SystemExit, match="^error: missing required column"):
            main(["compare", "--results", str(tmp_path / "a" / "summary.json"),
                  str(tmp_path / "b" / "summary.json"),
                  "--out", str(tmp_path / "cmp")])

    def test_requires_two_results(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["compare", "--results", "one.json",
                  "--out", str(tmp_path)])


def bad_dataset(dataset_dir, tmp_path, kind):
    """A copy of the dataset with one defect, alone in a new directory:
    a NaN or inf concentration, a negative plasma value, or one row."""
    lines = (dataset_dir / "dataset.csv").read_text().splitlines()
    header, rows = lines[0], [r.split(",") for r in lines[1:]]
    if kind == "nan":
        rows[3][1] = "nan"
    elif kind == "inf":
        rows[3][2] = "inf"
    elif kind == "negative-plasma":
        rows[3][5] = "-1"
    else:
        rows = rows[:1]
    path = tmp_path / "bad" / "dataset.csv"
    path.parent.mkdir()
    path.write_text("\n".join([header] + [",".join(r) for r in rows]) + "\n")
    return str(path)


class TestBadDataset:
    """Every command that reads a dataset turns a defect in it into an
    ``error:`` exit before it makes the output directory."""

    COMMANDS = {
        "train": ["train", "--layers", "1", "--neurons", "2", "--iters", "1",
                  "--lbfgs-iters", "0"],
        "fit-de": ["fit-de", "--free", "Vbb", "--generations", "1"],
        "sweep": ["sweep", "--activations", "tanh", "--layers", "1",
                  "--neurons", "2", "--iters", "1"],
        "metrics": ["metrics"],
    }
    MESSAGES = {
        "nan": "column Cbb contains non-finite values",
        "inf": "column Cbm contains non-finite values",
        "negative-plasma": "plasma concentrations must be non-negative",
        "one-row": "dataset needs at least 2 rows",
    }

    @pytest.mark.parametrize("command,kind", [
        (command, kind) for command in ("train", "fit-de", "sweep")
        for kind in ("nan", "inf", "negative-plasma", "one-row")] + [
        ("metrics", kind) for kind in ("nan", "inf", "one-row")])
    def test_defect_is_an_error(self, dataset_dir, tmp_path, command, kind):
        data = bad_dataset(dataset_dir, tmp_path, kind)
        with pytest.raises(SystemExit, match=f"^error: {self.MESSAGES[kind]}"):
            main([*self.COMMANDS[command], "--data", data,
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
        with pytest.raises(SystemExit, match=f"^error: {self.MESSAGES[kind]}"):
            main(["compare", "--results", *results, "--data", data,
                  "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()
