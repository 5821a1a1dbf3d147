"""End-to-end tests of the command-line surface."""

import json

import numpy as np
import pytest

from entflda import labels
from entflda.cli import _parse_table_ids, main
from entflda.experiments import load_dataset, product_params, sample_family_params
from entflda.flda import classify, load_model
from entflda.states import FAMILIES, from_family


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def werner2_dataset(tmp_path):
    path = tmp_path / "train.csv"
    code = run_cli(
        "gen", "--family", "werner2", "--overlap", "low", "--n", "200", "--seed", "7", "--out", str(path)
    )
    assert code == 0
    return path


class TestGen:
    def test_dataset_shape(self, werner2_dataset):
        lines = werner2_dataset.read_text().splitlines()
        assert len(lines) == 201  # header + 200 rows
        assert len(lines[0].split(",")) == 16  # 15 features + label

    def test_three_qubit_column_count(self, tmp_path):
        path = tmp_path / "w3.csv"
        assert run_cli("gen", "--family", "werner3", "--overlap", "high", "--n", "40",
                       "--shots", "8", "--seed", "3", "--out", str(path)) == 0
        assert len(path.read_text().splitlines()[0].split(",")) == 64

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["gen", "--family", "concurrence", "--overlap", "medium", "--n", "30", "--shots", "8", "--seed", "5"]
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_family_exits_one(self, tmp_path, capsys):
        code = run_cli("gen", "--family", "w-state", "--n", "40", "--out", str(tmp_path / "x.csv"))
        capsys.readouterr()
        assert code == 1

    def test_unwritable_path_exits_two(self, capsys):
        code = run_cli("gen", "--family", "werner2", "--n", "20", "--seed", "1",
                       "--out", "/nonexistent-dir/x.csv")
        capsys.readouterr()
        assert code == 2

    def test_stale_temp_directory_does_not_block_write(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        (tmp_path / "out.csv.tmp").mkdir()
        assert run_cli("gen", "--family", "werner2", "--n", "20", "--shots", "2", "--seed", "1",
                       "--out", str(out)) == 0
        capsys.readouterr()
        assert len(out.read_text().splitlines()) == 21

    def test_failed_write_leaves_no_temp_file(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        out.mkdir()  # a file cannot be renamed over a directory
        assert run_cli("gen", "--family", "werner2", "--n", "20", "--shots", "2", "--seed", "1",
                       "--out", str(out)) == 2
        capsys.readouterr()
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_prints_class_counts(self, tmp_path, capsys):
        assert run_cli("gen", "--family", "werner2", "--n", "24", "--shots", "2", "--seed", "2",
                       "--out", str(tmp_path / "c.csv")) == 0
        out = capsys.readouterr().out
        assert "entangled(-1)=12" in out and "separable(+1)=12" in out


class TestFit:
    def test_fit_low_overlap_accuracy(self, werner2_dataset, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert run_cli("fit", "--train", str(werner2_dataset), "--model-out", str(model_path)) == 0
        out = capsys.readouterr().out
        train_acc = float(out.split("train accuracy: ")[1].splitlines()[0])
        assert train_acc >= 0.99

    def test_single_row_per_class_with_epsilon(self, tmp_path):
        train = tmp_path / "tiny.csv"
        train.write_text("X,Z,label\n0.0,1.0,-1\n1.0,0.0,1\n")
        model_path = tmp_path / "tiny-model.json"
        assert run_cli("fit", "--train", str(train), "--epsilon", "1e-6",
                       "--standardizer", "none", "--model-out", str(model_path)) == 0

    def test_model_file_reproduces_decisions(self, werner2_dataset, tmp_path):
        model_path = tmp_path / "model.json"
        assert run_cli("fit", "--train", str(werner2_dataset), "--model-out", str(model_path)) == 0
        ds = load_dataset(str(werner2_dataset))
        model = load_model(str(model_path))
        preds = classify(model, ds.features)
        again = classify(load_model(str(model_path)), ds.features)
        np.testing.assert_array_equal(preds, again)

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = run_cli("fit", "--train", str(tmp_path / "none.csv"), "--model-out", str(tmp_path / "m.json"))
        capsys.readouterr()
        assert code == 2


class TestEval:
    def test_eval_on_training_set_matches_fit(self, werner2_dataset, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        run_cli("fit", "--train", str(werner2_dataset), "--model-out", str(model_path))
        fit_out = capsys.readouterr().out
        fit_train_acc = fit_out.split("train accuracy: ")[1].splitlines()[0]
        assert run_cli("eval", "--model", str(model_path), "--test", str(werner2_dataset)) == 0
        eval_out = capsys.readouterr().out
        assert f"test accuracy: {fit_train_acc}" in eval_out

    def test_holdout_accuracy(self, werner2_dataset, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        run_cli("fit", "--train", str(werner2_dataset), "--model-out", str(model_path))
        holdout = tmp_path / "holdout.csv"
        run_cli("gen", "--family", "werner2", "--overlap", "low", "--n", "200", "--seed", "8",
                "--out", str(holdout))
        report = tmp_path / "report.json"
        assert run_cli("eval", "--model", str(model_path), "--test", str(holdout),
                       "--report-out", str(report), "--format", "json") == 0
        out = capsys.readouterr().out
        acc = float(out.split("test accuracy: ")[1].splitlines()[0])
        assert acc >= 0.99
        assert report.exists()

    def test_empty_dataset_exits_one(self, werner2_dataset, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        run_cli("fit", "--train", str(werner2_dataset), "--model-out", str(model_path))
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code = run_cli("eval", "--model", str(model_path), "--test", str(empty))
        capsys.readouterr()
        assert code == 1

    def test_feature_mismatch_exits_one(self, werner2_dataset, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        run_cli("fit", "--train", str(werner2_dataset), "--model-out", str(model_path))
        other = tmp_path / "w3.csv"
        run_cli("gen", "--family", "werner3", "--n", "30", "--shots", "2", "--seed", "2", "--out", str(other))
        capsys.readouterr()
        code = run_cli("eval", "--model", str(model_path), "--test", str(other))
        err = capsys.readouterr().err
        assert code == 1
        assert "feature names" in err


class TestBadDataset:
    """A malformed dataset exits 1, naming the file, line and column."""

    @staticmethod
    def corrupt(path, line, edit):
        lines = path.read_text().splitlines()
        cells = lines[line - 1].split(",")
        lines[line - 1] = ",".join(edit(cells))
        path.write_text("\n".join(lines) + "\n")

    @pytest.fixture()
    def model_path(self, werner2_dataset, tmp_path):
        path = tmp_path / "model.json"
        assert run_cli("fit", "--train", str(werner2_dataset), "--model-out", str(path)) == 0
        return path

    def test_label_outside_classes(self, werner2_dataset, model_path, capsys):
        self.corrupt(werner2_dataset, 5, lambda cells: cells[:-1] + ["7"])
        capsys.readouterr()
        assert run_cli("eval", "--model", str(model_path), "--test", str(werner2_dataset)) == 1
        err = capsys.readouterr().err
        assert f"{werner2_dataset}, line 5, column 16 (label): '7' is not -1 or +1" in err

    def test_non_finite_feature(self, werner2_dataset, tmp_path, capsys):
        self.corrupt(werner2_dataset, 3, lambda cells: ["nan"] + cells[1:])
        assert run_cli("fit", "--train", str(werner2_dataset), "--model-out", str(tmp_path / "m.json")) == 1
        err = capsys.readouterr().err
        assert f"{werner2_dataset}, line 3, column 1 (IX): non-finite feature 'nan'" in err

    def test_row_width_differs_from_header(self, werner2_dataset, model_path, capsys):
        self.corrupt(werner2_dataset, 4, lambda cells: cells[1:])
        capsys.readouterr()
        assert run_cli("eval", "--model", str(model_path), "--test", str(werner2_dataset)) == 1
        err = capsys.readouterr().err
        assert f"{werner2_dataset}, line 4: 15 columns, the header has 16" in err

    def test_non_numeric_feature(self, werner2_dataset, tmp_path, capsys):
        self.corrupt(werner2_dataset, 3, lambda cells: cells[:1] + ["abc"] + cells[2:])
        assert run_cli("fit", "--train", str(werner2_dataset), "--model-out", str(tmp_path / "m.json")) == 1
        err = capsys.readouterr().err
        assert f"{werner2_dataset}, line 3, column 2 (IY): 'abc' is not a number" in err

    @pytest.mark.parametrize(
        "word, message",
        [
            ("IX", "duplicate Pauli word 'IX'"),
            ("QQ", "bad Pauli word 'QQ' for 2 qubits"),
            ("II", "identity string"),
            ("XYZ", "bad Pauli word 'XYZ' for 2 qubits"),
        ],
        ids=["repeated", "malformed", "identity", "mixed-length"],
    )
    def test_bad_header_word(self, werner2_dataset, tmp_path, capsys, word, message):
        self.corrupt(werner2_dataset, 1, lambda cells: cells[:1] + [word] + cells[2:])
        assert run_cli("fit", "--train", str(werner2_dataset), "--model-out", str(tmp_path / "m.json")) == 1
        err = capsys.readouterr().err
        assert f"dataset file {werner2_dataset}, line 1: {message}" in err


def _edit_w(doc, edit):
    doc["w"] = edit(doc["w"])


class TestBadModel:
    """A malformed model document exits 1, naming the file and the key."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.pop("w"), "key 'w': missing"),
            (lambda doc: _edit_w(doc, lambda w: w[:-1]), "key 'standardizer.shift': has 15 entries, 'w' has 14"),
            (lambda doc: doc.update(threshold="0.5"), "key 'threshold': expected a finite number"),
            (lambda doc: _edit_w(doc, lambda w: [float("nan")] + w[1:]), "key 'w': expected a nonempty list of finite"),
            (lambda doc: doc["standardizer"].update(mode="robust"), "key 'standardizer.mode': 'robust' is not one of"),
            (lambda doc: doc.update(feature_names=["IX"]), "key 'feature_names': expected a list of 15 names"),
            (lambda doc: doc.update(projected_means=[0.1]), "key 'projected_means': expected two finite numbers"),
        ],
        ids=["missing-w", "short-w", "string-threshold", "nan-in-w", "unknown-mode", "short-names", "one-mean"],
    )
    def test_bad_document(self, werner2_dataset, tmp_path, capsys, edit, message):
        model_path = tmp_path / "model.json"
        assert run_cli("fit", "--train", str(werner2_dataset), "--model-out", str(model_path)) == 0
        doc = json.loads(model_path.read_text())
        edit(doc)
        model_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("eval", "--model", str(model_path), "--test", str(werner2_dataset)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"model file {model_path}, {message}" in captured.err

    def test_top_level_list(self, werner2_dataset, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text("[1, 2, 3]\n")
        assert run_cli("eval", "--model", str(model_path), "--test", str(werner2_dataset)) == 1
        assert f"model file {model_path}: expected a JSON object, got list" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_every_registered_family(name, capsys):
    """Each registry record builds its state, labels it under both
    conventions and can be inspected from the command line."""
    spec = FAMILIES[name]
    rng = np.random.default_rng(0)
    if spec.fixed_label == labels.SEPARABLE:
        params = product_params(spec.n_qubits, rng, 1)
    else:
        build_family, params = sample_family_params(name, labels.ENTANGLED, "high", rng)
        assert build_family == name
    rho = from_family(name, params)
    assert rho.num_qubits == spec.n_qubits
    for convention in labels.LABEL_CONVENTIONS:
        label = labels.assign_label(name, params, rho, convention)
        assert label in (-1, 1)
        assert spec.fixed_label in (None, label)
    flags = [arg for key in spec.params for arg in (f"--{key}", repr(params[key]))]
    assert run_cli("inspect", "--family", name, "--seed", "0", *flags) == 0
    assert f"family: {name}\n" in capsys.readouterr().out


class TestInspect:
    def test_werner2_critical_eigenvalue(self, capsys):
        assert run_cli("inspect", "--family", "werner2", "--p", "0.5") == 0
        out = capsys.readouterr().out
        assert "min PT eigenvalue 0|1: -0.125" in out
        assert "label (paper): -1" in out

    def test_ppt_alt_divergent_labels(self, capsys):
        assert run_cli("inspect", "--family", "ppt-alt") == 0
        out = capsys.readouterr().out
        assert "PPT under all cuts: True" in out
        assert "label (paper): -1" in out
        assert "label (ppt-oracle): +1" in out

    def test_acin_symmetric_point(self, capsys):
        assert run_cli("inspect", "--family", "pptes-acin", "--a", "1", "--b", "1", "--c", "1") == 0
        out = capsys.readouterr().out
        assert "PPT under all cuts: True" in out

    def test_concurrence_reports_measure(self, capsys):
        assert run_cli("inspect", "--family", "concurrence", "--theta0", "1.5707963267948966",
                       "--theta1", "3.141592653589793") == 0
        out = capsys.readouterr().out
        assert "concurrence: 1.000000" in out

    def test_empty_product_exits_one(self, capsys):
        assert run_cli("inspect", "--family", "product-sep", "--n-qubits", "0") == 1
        assert "need at least one Bloch vector" in capsys.readouterr().err

    def test_missing_parameter_exits_one(self, capsys):
        code = run_cli("inspect", "--family", "werner2")
        capsys.readouterr()
        assert code == 1


class TestReproduce:
    def test_single_table_rows_and_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("reproduce", "--tables", "6", "--out", str(a), "--seed", "5") == 0
        assert run_cli("reproduce", "--tables", "6", "--out", str(b), "--seed", "5") == 0
        out = capsys.readouterr().out
        assert "1/1 rows pass their accuracy gate" in out
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) == 2  # header + 1 row

    def test_table_id_parsing(self):
        assert _parse_table_ids("1,3") == [1, 3]
        assert _parse_table_ids("1..4") == [1, 2, 3, 4]
        assert _parse_table_ids("1..2,6") == [1, 2, 6]
        with pytest.raises(ValueError, match="no table ids"):
            _parse_table_ids(",")

    def test_bad_table_exits_one(self, tmp_path, capsys):
        code = run_cli("reproduce", "--tables", "9", "--out", str(tmp_path / "x.csv"))
        capsys.readouterr()
        assert code == 1


class TestParser:
    def test_unknown_flag_exits_one(self, tmp_path, capsys):
        code = run_cli("gen", "--family", "werner2", "--frobnicate", "--out", str(tmp_path / "x.csv"))
        capsys.readouterr()
        assert code == 1

    def test_help_exits_zero(self, capsys):
        assert run_cli("--help") == 0
        out = capsys.readouterr().out
        for sub in ("gen", "fit", "eval", "inspect", "reproduce"):
            assert sub in out

    @pytest.mark.parametrize("value", ["abc", "-1", "2.5"])
    def test_bad_seed_env_exits_one(self, capsys, monkeypatch, value):
        monkeypatch.setenv("ENTFLDA_SEED", value)
        assert run_cli("inspect", "--family", "biseparable") == 1
        assert f"error: ENTFLDA_SEED: expected a non-negative integer, got {value!r}" in capsys.readouterr().err

    def test_negative_seed_flag_exits_one(self, capsys):
        assert run_cli("inspect", "--family", "biseparable", "--seed", "-3") == 1
        assert "argument --seed: expected a non-negative integer, got '-3'" in capsys.readouterr().err

    def test_seed_env_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ENTFLDA_SEED", "11")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli("gen", "--family", "werner2", "--n", "20", "--shots", "2", "--out", str(a)) == 0
        assert run_cli("gen", "--family", "werner2", "--n", "20", "--shots", "2", "--seed", "11", "--out", str(b)) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
