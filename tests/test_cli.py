"""End-to-end tests of the command-line surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entflda import cli, experiments, flda, labels, states
from entflda.cli import _parse_table_ids, main
from entflda.experiments import load_dataset, sample_family_params, save_dataset
from entflda.flda import classify, evaluate, load_model
from entflda.states import FAMILIES, bloch_vectors, from_family

SRC = Path(__file__).resolve().parent.parent / "src"


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
        err = capsys.readouterr().err
        assert code == 2
        assert err.rstrip().endswith("'/nonexistent-dir/x.csv'")
        assert ".tmp" not in err

    def test_shots_beyond_binomial_range_exits_one(self, tmp_path, capsys):
        code = run_cli("gen", "--family", "werner2", "--n", "40", "--shots", "99999999999999999999",
                       "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "error: shots must lie in 0..9223372036854775807, got 99999999999999999999" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

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

    def test_nan_balance_exits_one(self, tmp_path, capsys):
        code = run_cli("gen", "--family", "werner2", "--n", "40", "--balance", "nan", "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "error: balance=nan must lie strictly inside (0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_row_count_beyond_memory_exits_one(self, tmp_path, capsys):
        """A feature matrix of 1.07 PiB, whose allocation fails at once."""
        code = run_cli("gen", "--family", "werner2", "--n", "10000000000000", "--out", str(tmp_path / "x.csv"))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "error: n_samples=10000000000000: a 10000000000000 x 15 feature matrix does not fit in memory\n"
        )
        assert not (tmp_path / "x.csv").exists()

    def test_prints_class_counts(self, tmp_path, capsys):
        assert run_cli("gen", "--family", "werner2", "--n", "24", "--shots", "2", "--seed", "2",
                       "--out", str(tmp_path / "c.csv")) == 0
        out = capsys.readouterr().out
        assert "entangled(-1)=12" in out and "separable(+1)=12" in out

    @pytest.mark.parametrize("family", ["werner4", "biseparable"])
    def test_exact_features_independent_of_blas_threads(self, family, tmp_path):
        """Exact-expectation rows are the same bytes at 1 and 2 BLAS threads
        (600 rows: three chunks)."""
        written = []
        for threads in ("1", "2"):
            out = tmp_path / f"{threads}.csv"
            env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
            argv = ["gen", "--family", family, "--overlap", "low", "--n", "600", "--seed", "5", "--out", str(out)]
            subprocess.run([sys.executable, "-m", "entflda.cli", *argv], check=True, timeout=60, env=env,
                           capture_output=True)
            written.append(out.read_bytes())
        assert written[0] == written[1]


class TestFit:
    def test_fit_low_overlap_accuracy(self, werner2_dataset, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert run_cli("fit", "--train", str(werner2_dataset), "--model-out", str(model_path)) == 0
        out = capsys.readouterr().out
        train_acc = float(out.split("train accuracy: ")[1].splitlines()[0])
        assert train_acc >= 0.99

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_epsilon_exits_one(self, werner2_dataset, tmp_path, capsys, value):
        code = run_cli("fit", "--train", str(werner2_dataset), "--epsilon", value,
                       "--model-out", str(tmp_path / "m.json"))
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: epsilon must be finite and nonnegative, got {value}\n" == err

    @pytest.mark.parametrize("mode", ["none", "zscore"])
    def test_overflowing_features_exit_one_without_model(self, tmp_path, capsys, mode):
        train = tmp_path / "big.csv"
        train.write_text("X,Z,label\n1e200,3e200,-1\n-2e200,1e200,-1\n5e199,-1e200,-1\n1.5e200,2e200,-1\n"
                         "2e200,-3e200,1\n-1e200,-2e200,1\n3e200,1e199,1\n-5e199,2.5e200,1\n")
        code = run_cli("fit", "--train", str(train), "--standardizer", mode, "--model-out", str(tmp_path / "m.json"))
        assert code == 1
        assert capsys.readouterr().err.startswith("error: features overflow float64: ")
        assert [p.name for p in tmp_path.iterdir()] == ["big.csv"]

    def test_solve_not_separating_the_means_exits_one_without_model(self, werner2_dataset, tmp_path, capsys,
                                                                    monkeypatch):
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: -b)
        code = run_cli("fit", "--train", str(werner2_dataset), "--model-out", str(tmp_path / "m.json"))
        assert code == 1
        assert capsys.readouterr().err == "error: within-class scatter is numerically singular; increase epsilon\n"
        assert [p.name for p in tmp_path.iterdir()] == ["train.csv"]

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

    def test_csv_report_without_train_accuracy(self, werner2_dataset, tmp_path, capsys):
        """A model whose train accuracy is null gets an empty report cell;
        stdout is what eval prints without a report, plus the wrote line."""
        model_path, report = tmp_path / "model.json", tmp_path / "report.csv"
        assert run_cli("fit", "--train", str(werner2_dataset), "--model-out", str(model_path)) == 0
        doc = json.loads(model_path.read_text())
        doc["train_accuracy"] = None
        model_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("eval", "--model", str(model_path), "--test", str(werner2_dataset)) == 0
        plain = capsys.readouterr().out
        assert "train accuracy: None\n" in plain
        assert run_cli("eval", "--model", str(model_path), "--test", str(werner2_dataset),
                       "--report-out", str(report)) == 0
        captured = capsys.readouterr()
        assert captured.out == plain + f"wrote report to {report}\n" and captured.err == ""
        ds, model = load_dataset(str(werner2_dataset)), load_model(str(model_path))
        accuracy = evaluate(model, ds.features, ds.labels)["accuracy"]
        assert report.read_bytes() == (
            "fld_threshold,train_accuracy,test_accuracy,fisher_criterion\n"
            f"{model.threshold!r},,{accuracy!r},{model.fisher_j!r}\n"
        ).encode()

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

    def test_cell_beyond_csv_field_limit(self, werner2_dataset, tmp_path, capsys):
        self.corrupt(werner2_dataset, 3, lambda cells: cells[:1] + ["1" * 200_000] + cells[2:])
        assert run_cli("fit", "--train", str(werner2_dataset), "--model-out", str(tmp_path / "m.json")) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert f"dataset file {werner2_dataset}, line 3: field larger than field limit" in captured.err

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


def _edit_scale(doc, edit):
    doc["standardizer"]["scale"] = edit(doc["standardizer"]["scale"])


class TestRoundOffColumns:
    """A model fit on exact data keeps working on shot data, also when the
    training data's constant columns carry round-off."""

    @pytest.mark.parametrize("round_off", [0.0, 1e-17], ids=["as-generated", "round-off"])
    def test_exact_fit_evaluates_shot_data(self, tmp_path, capsys, round_off):
        train, test, model = tmp_path / "train.csv", tmp_path / "test.csv", tmp_path / "model.json"
        gen = ("gen", "--family", "werner2", "--overlap", "low")
        assert run_cli(*gen, "--shots", "0", "--n", "4000", "--seed", "7", "--out", str(train)) == 0
        assert run_cli(*gen, "--shots", "100000", "--n", "1000", "--seed", "8", "--out", str(test)) == 0
        data = load_dataset(str(train))
        constant = np.flatnonzero(np.ptp(data.features, axis=0) == 0)
        assert len(constant) > 0
        noise = round_off * np.random.default_rng(0).standard_normal((len(data.labels), len(constant)))
        data.features[:, constant] += noise
        save_dataset(data, str(train))
        assert run_cli("fit", "--train", str(train), "--model-out", str(model)) == 0
        assert min(json.loads(model.read_text())["standardizer"]["scale"]) >= 1e-12
        capsys.readouterr()
        assert run_cli("eval", "--model", str(model), "--test", str(test)) == 0
        accuracy = float(capsys.readouterr().out.split("test accuracy: ")[1].split()[0])
        assert accuracy >= 0.99, accuracy


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
            (lambda doc: _edit_scale(doc, lambda s: [0] + s[1:]), "key 'standardizer.scale': expected positive"),
            (lambda doc: _edit_w(doc, lambda w: [0.0] * len(w)), "key 'w': is all zeros"),
            (lambda doc: _edit_scale(doc, lambda s: [1.3e-17] + s[1:]),
             "key 'standardizer.scale': expected positive numbers of at least 1e-12 (a smaller spread is round-off)"),
            (lambda doc: doc.update(train_accuracy="abc"), "key 'train_accuracy': expected null or a finite number"),
            (lambda doc: doc.update(train_accuracy=float("nan")), "key 'train_accuracy': expected null or a finite"),
            (lambda doc: doc.update(train_accuracy=7.5), "key 'train_accuracy': expected null or a finite number in"),
            (lambda doc: doc.update(epsilon=float("inf")), "key 'epsilon': expected a finite number of at least 0"),
            (lambda doc: doc.update(epsilon=-1e-3), "key 'epsilon': expected a finite number of at least 0"),
            (lambda doc: doc.update(fisher_j=float("nan")), "key 'fisher_j': expected a finite number"),
            (lambda doc: doc.update(fisher_j=-4.9e16), "key 'fisher_j': expected a number above 0"),
            (lambda doc: doc.update(label_convention="majority"), "key 'label_convention': expected null or one of"),
            (lambda doc: doc.update(standardizer=[0.0]), "key 'standardizer': expected an object"),
            (lambda doc: doc["standardizer"].pop("shift"), "key 'standardizer.shift': missing"),
        ],
        ids=["missing-w", "short-w", "string-threshold", "nan-in-w", "unknown-mode", "short-names", "one-mean",
             "zero-scale", "zero-w", "round-off-scale", "string-train-accuracy", "nan-train-accuracy",
             "train-accuracy-above-one", "infinite-epsilon", "negative-epsilon", "nan-fisher-j", "negative-fisher-j",
             "unknown-label-convention", "list-standardizer", "missing-shift"],
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

    def test_not_json(self, werner2_dataset, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text("{'w': [1.0]}\n")
        assert run_cli("eval", "--model", str(model_path), "--test", str(werner2_dataset)) == 1
        assert capsys.readouterr().err.startswith(f"error: model file {model_path} is not JSON: ")

    def test_top_level_list(self, werner2_dataset, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text("[1, 2, 3]\n")
        assert run_cli("eval", "--model", str(model_path), "--test", str(werner2_dataset)) == 1
        assert f"model file {model_path}: expected a JSON object, got list" in capsys.readouterr().err


# Full ``inspect`` stdout of the rows ``test_every_registered_family`` draws,
# and of a one-qubit product (no cut, so an empty PPT report).
INSPECT_STDOUT = {
    "biseparable": (
        "family: biseparable\n"
        'params: {"components": [{"weight": 0.8681506867177103, "a_bloch": [0.5631048495991696, -0.343828'
        '49087640555, 0.5303857011955266], "bc_p": 0.5167927876527322}, {"weight": 0.13184931328228972, "'
        'a_bloch": [-0.8363467343927091, -0.235165169867133, 0.4488362523363896], "bc_p": 0.8648277232149'
        "72}]}\n"
        "eigenvalues: 0.010623 0.010623 0.010623 0.098706 0.098706 0.098706 0.105220 0.566791\n"
        "min PT eigenvalue 01|2: -0.138345\n"
        "min PT eigenvalue 02|1: -0.138345\n"
        "min PT eigenvalue 0|12: 0.010623\n"
        "PPT under all cuts: False\n"
        "label (paper): -1\n"
        "label (ppt-oracle): -1\n"
    ),
    "concurrence": (
        "family: concurrence\n"
        'params: {"theta0": 2.0010741575072397, "theta1": 0.8475599579967072}\n'
        "eigenvalues: 0.000000 0.000000 0.000000 1.000000\n"
        "min PT eigenvalue 0|1: -0.186864\n"
        "PPT under all cuts: False\n"
        "label (paper): -1\n"
        "label (ppt-oracle): -1\n"
        "concurrence: 0.373727\n"
    ),
    "ppt-alt": (
        "family: ppt-alt\n"
        "params: {}\n"
        "eigenvalues: 0.000000 0.000000 0.000000 0.000000 0.000000 0.000000 0.500000 0.500000\n"
        "min PT eigenvalue 01|2: 0.000000\n"
        "min PT eigenvalue 02|1: 0.000000\n"
        "min PT eigenvalue 0|12: 0.000000\n"
        "PPT under all cuts: True\n"
        "label (paper): -1\n"
        "label (ppt-oracle): +1\n"
    ),
    "pptes-acin": (
        "family: pptes-acin\n"
        'params: {"a": 1.2090914560763366, "b": 0.7267713369512937, "c": 0.5292227726906258}\n'
        "eigenvalues: 0.000000 0.061842 0.084926 0.096646 0.141288 0.160786 0.220804 0.233709\n"
        "min PT eigenvalue 01|2: 0.000000\n"
        "min PT eigenvalue 02|1: 0.000000\n"
        "min PT eigenvalue 0|12: 0.000000\n"
        "PPT under all cuts: True\n"
        "label (paper): -1\n"
        "label (ppt-oracle): -1\n"
    ),
    "product-sep": (
        "family: product-sep\n"
        'params: {"components": [{"weight": 1.0, "blochs": [[-0.041114799918593535, 0.329002350040393, 0.'
        "0944343942990697], [0.0957592303811544, -0.22805524238041477, -0.9379646739118588]]}]}\n"
        "eigenvalues: 0.004910 0.010076 0.322717 0.662298\n"
        "min PT eigenvalue 0|1: 0.004910\n"
        "PPT under all cuts: True\n"
        "label (paper): +1\n"
        "label (ppt-oracle): +1\n"
        "concurrence: 0.000000\n"
    ),
    "werner2": (
        "family: werner2\n"
        'params: {"p": 0.47854865840475164}\n'
        "eigenvalues: 0.130363 0.130363 0.130363 0.608911\n"
        "min PT eigenvalue 0|1: -0.108911\n"
        "PPT under all cuts: False\n"
        "label (paper): -1\n"
        "label (ppt-oracle): -1\n"
        "concurrence: 0.217823\n"
    ),
    "werner3": (
        "family: werner3\n"
        'params: {"p": 0.2726076625357091}\n'
        "eigenvalues: 0.090924 0.090924 0.090924 0.090924 0.090924 0.090924 0.090924 0.363532\n"
        "min PT eigenvalue 01|2: -0.045380\n"
        "min PT eigenvalue 02|1: -0.045380\n"
        "min PT eigenvalue 0|12: -0.045380\n"
        "PPT under all cuts: False\n"
        "label (paper): -1\n"
        "label (ppt-oracle): -1\n"
    ),
    "werner4": (
        "family: werner4\n"
        'params: {"p": 0.19471975895407795}\n'
        "eigenvalues: 0.050330 0.050330 0.050330 0.050330 0.050330 0.050330 0.050330 0.050330 0.050330 0."
        "050330 0.050330 0.050330 0.050330 0.050330 0.050330 0.245050\n"
        "min PT eigenvalue 012|3: -0.047030\n"
        "min PT eigenvalue 013|2: -0.047030\n"
        "min PT eigenvalue 01|23: -0.047030\n"
        "min PT eigenvalue 023|1: -0.047030\n"
        "min PT eigenvalue 02|13: -0.047030\n"
        "min PT eigenvalue 03|12: -0.047030\n"
        "min PT eigenvalue 0|123: -0.047030\n"
        "PPT under all cuts: False\n"
        "label (paper): -1\n"
        "label (ppt-oracle): -1\n"
    ),
    "one-qubit": (
        "family: product-sep\n"
        'params: {"components": [{"weight": 1.0, "blochs": [[-0.041114799918593535, 0.329002350040393, 0.'
        "0944343942990697]]}]}\n"
        "eigenvalues: 0.327626 0.672374\n"
        "PPT under all cuts: True\n"
        "label (paper): +1\n"
        "label (ppt-oracle): +1\n"
    ),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_every_registered_family(name, capsys):
    """Each registry record builds its state, labels it under both
    conventions and can be inspected from the command line, whose stdout
    keeps its bytes."""
    spec = FAMILIES[name]
    rng = np.random.default_rng(0)
    if spec.fixed_label == labels.SEPARABLE:
        row = bloch_vectors(rng.random((spec.n_qubits, 3))).ravel()
    else:
        uniforms = rng.random((1, spec.uniforms))
        build_family, rows = sample_family_params(name, labels.ENTANGLED, "high", uniforms)
        assert build_family == name
        row = rows[0]
    rho = from_family(name, row)
    assert rho.num_qubits == spec.n_qubits
    for convention in labels.LABEL_CONVENTIONS:
        label = labels.assign_label(name, row, rho.matrix, convention)
        assert label in (-1, 1)
        assert spec.fixed_label in (None, label)
    flags = [arg for key, value in zip(spec.params, row.tolist()) for arg in (f"--{key}", repr(value))]
    assert run_cli("inspect", "--family", name, "--seed", "0", *flags) == 0
    assert capsys.readouterr().out == INSPECT_STDOUT[name]
    if name == "product-sep":
        assert run_cli("inspect", "--family", name, "--seed", "0", "--n-qubits", "1") == 0
        assert capsys.readouterr().out == INSPECT_STDOUT["one-qubit"]


@pytest.mark.parametrize("original, flags", [("werner3", ["--p", "0.3"]),
                                             ("pptes-acin", ["--a", "2", "--b", "3", "--c", "0.5"]),
                                             ("concurrence", ["--theta0", "1.1", "--theta1", "2.3"])],
                         ids=["werner3", "pptes-acin", "concurrence"])
def test_record_registered_alone_runs_every_command(original, flags, tmp_path, monkeypatch, capsys):
    """A copy of a registry record under a new name, added to
    ``states.FAMILIES`` and nowhere else, generates the original's bytes at
    the same seed, fits, evaluates and inspects."""
    copy = f"{original}-copy"
    monkeypatch.setitem(states.FAMILIES, copy, states.FAMILIES[original])
    paths = {name: tmp_path / f"{name}.csv" for name in (original, copy)}
    for name, path in paths.items():
        assert run_cli("gen", "--family", name, "--n", "120", "--seed", "4", "--out", str(path)) == 0
    assert paths[copy].read_bytes() == paths[original].read_bytes()
    model = tmp_path / "model.json"
    assert run_cli("fit", "--train", str(paths[copy]), "--model-out", str(model)) == 0
    assert run_cli("eval", "--model", str(model), "--test", str(paths[copy])) == 0
    capsys.readouterr()
    for name in (original, copy):
        assert run_cli("inspect", "--family", name, *flags) == 0
    original_out, copy_out = capsys.readouterr().out.split("family: ")[1:]
    assert copy_out == original_out.replace(original, copy, 1)


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the output directory was checked")


_COMMAND_WORK = pytest.mark.parametrize(
    "argv, work",
    [
        (["gen", "--family", "werner4", "--n", "40000", "--out"], [(experiments, "generate_dataset")]),
        (["fit", "--train", "train.csv", "--model-out"], [(experiments, "load_dataset"), (flda, "fit")]),
        (["eval", "--model", "m.json", "--test", "t.csv", "--report-out"],
         [(flda, "load_model"), (experiments, "load_dataset"), (flda, "evaluate")]),
        (["reproduce", "--out"], [(experiments, "run_experiment")]),
    ],
    ids=["gen", "fit", "eval", "reproduce"],
)


class TestOutputCheckedFirst:
    """A missing output directory, or an output path that is a directory,
    exits 2, with a message naming the path, before any work starts."""

    @_COMMAND_WORK
    def test_command_refuses_before_work(self, monkeypatch, capsys, argv, work):
        for owner, name in work:
            monkeypatch.setattr(owner, name, _no_work)
        assert run_cli(*argv, "/nonexistent-dir/out.x") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "I/O error: [Errno 2] No such file or directory: '/nonexistent-dir/out.x'\n"

    @_COMMAND_WORK
    def test_directory_target_refused_before_work(self, tmp_path, monkeypatch, capsys, argv, work):
        for owner, name in work:
            monkeypatch.setattr(owner, name, _no_work)
        assert run_cli(*argv, str(tmp_path)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and ".tmp" not in captured.err
        assert captured.err == f"I/O error: [Errno 21] Is a directory: '{tmp_path}'\n"
        assert list(tmp_path.iterdir()) == []

    def test_reproduce_tables_refuses_before_any_cell(self, monkeypatch):
        monkeypatch.setattr(experiments, "run_experiment", _no_work)
        with pytest.raises(FileNotFoundError, match="'/nonexistent-dir/r.csv'"):
            experiments.reproduce_tables([1, 7], out_path="/nonexistent-dir/r.csv")

    def test_directory_check_leaves_nothing_behind(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert run_cli("reproduce", "--tables", "6", "--out", str(out)) == 0
        capsys.readouterr()
        assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]


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

    def test_theta0_pi_is_a_separable_product(self, capsys):
        assert run_cli("inspect", "--family", "concurrence", "--theta0", "3.141592653589793", "--theta1", "2") == 0
        out = capsys.readouterr().out
        for line in ("concurrence: 0.000000", "PPT under all cuts: True", "label (paper): +1",
                     "label (ppt-oracle): +1"):
            assert f"{line}\n" in out

    def test_concurrence_reports_measure(self, capsys):
        assert run_cli("inspect", "--family", "concurrence", "--theta0", "1.5707963267948966",
                       "--theta1", "3.141592653589793") == 0
        out = capsys.readouterr().out
        assert "concurrence: 1.000000" in out

    @pytest.mark.parametrize(
        "argv, lines",
        [
            (["concurrence", "--theta0", "1.1", "--theta1", "2.3"], ["eigenvalues: 0.000000 0.000000 0.000000 1.000000"]),
            (["pptes-acin", "--a", "2", "--b", "3", "--c", "0.5"],
             ["eigenvalues: 0.000000 0.032258 0.048387 0.048387 0.193548 0.193548 0.193548 0.290323",
              "min PT eigenvalue 01|2: 0.000000"]),
        ],
        ids=["concurrence", "pptes-acin"],
    )
    def test_round_off_prints_as_unsigned_zero(self, capsys, argv, lines):
        """An eigenvalue that rounds to zero prints without the sign of its
        round-off, so stdout does not depend on the BLAS build."""
        assert run_cli("inspect", "--family", *argv) == 0
        out = capsys.readouterr().out
        assert "-0.000000" not in out
        assert all(f"{line}\n" in out for line in lines)

    @pytest.mark.parametrize("n_qubits", ["0", "7", "-1"])
    def test_register_size_out_of_range_exits_one(self, capsys, n_qubits):
        assert run_cli("inspect", "--family", "product-sep", "--n-qubits", n_qubits) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: --n-qubits must lie in 1..6, got {n_qubits}\n" == captured.err

    @pytest.mark.parametrize(
        "argv, value, valid",
        [
            (["werner2", "--p", "2"], "p=2.0", "[-1/3, 1]"),
            (["werner3", "--p", "-0.5"], "p=-0.5", "[0, 1]"),
            (["werner4", "--p", "1.5"], "werner4 mixing parameter p=1.5", "[0, 1]"),
            (["concurrence", "--theta0", "4", "--theta1", "1"], "(4.0, 1.0)", "[0, pi]"),
            (["pptes-acin", "--a", "0", "--b", "1", "--c", "1"], "a=0.0", "positive"),
        ],
        ids=["werner2", "werner3", "werner4", "concurrence", "pptes-acin"],
    )
    def test_out_of_range_parameter_exits_one(self, capsys, argv, value, valid):
        assert run_cli("inspect", "--family", *argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and value in captured.err and valid in captured.err

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

    def test_round_off_threshold_prints_unsigned(self, tmp_path, capsys):
        """A threshold that rounds to zero prints without the sign of its
        round-off (this row's is negative at seed 7)."""
        assert run_cli("reproduce", "--tables", "6", "--out", str(tmp_path / "r.csv"), "--seed", "7") == 0
        out = capsys.readouterr().out
        assert "-0.000" not in out
        assert "    6 biseparable  high          0.000 " in out

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

    def test_range_end_checked_before_expansion(self, tmp_path, capsys):
        code = run_cli("reproduce", "--tables", "1..3000000", "--out", str(tmp_path / "x.csv"))
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: --tables: unknown table id 3000000; valid ids are 1..7\n"

    @pytest.mark.parametrize("text", ["x", "1..x", "2,x"])
    def test_non_integer_table_names_flag(self, tmp_path, capsys, text):
        code = run_cli("reproduce", "--tables", text, "--out", str(tmp_path / "x.csv"))
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: --tables: 'x' is not a table id\n"


class TestParser:
    def test_unknown_flag_exits_one(self, tmp_path, capsys):
        code = run_cli("gen", "--family", "werner2", "--frobnicate", "--out", str(tmp_path / "x.csv"))
        capsys.readouterr()
        assert code == 1

    def test_key_error_is_a_bug_not_a_refusal(self, monkeypatch):
        """No command lets a KeyError reach ``main``; one that does is a
        traceback, not ``error: 'x'`` under the validation exit code."""
        monkeypatch.setitem(cli._COMMANDS, "inspect", lambda args: {}["x"])
        with pytest.raises(KeyError, match="'x'"):
            run_cli("inspect", "--family", "werner2", "--p", "0.5")

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


def test_import_does_not_load_scipy():
    """scipy is a test and benchmark dependency only; the package runs on numpy."""
    code = "import entflda, entflda.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
