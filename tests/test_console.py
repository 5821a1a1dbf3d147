"""The console-script session of CI, run through ``cli.main`` with tmp
paths: every command's exit code, the byte equality of reruns and the
refusal of bad headers. CI itself runs ``entflda --help``, two ``gen`` and
a ``fit`` and ``eval`` under each standardizer, and the biseparable ``gen``,
``fit`` and ``eval`` below, through the installed script."""

import pytest

from entflda.cli import main


def run(*argv) -> int:
    return main([str(arg) for arg in argv])


@pytest.mark.parametrize(
    "argv",
    [
        ["werner2", "--p", "0.4"],
        ["werner2", "--p", "-0.3333333333333333"],  # rank-deficient, at the edge of the positivity check
        ["biseparable", "--seed", "3"],
        ["concurrence", "--theta0", "1.1", "--theta1", "2.3"],
        ["pptes-acin", "--a", "2", "--b", "3", "--c", "0.5"],
        ["ppt-alt"],
        ["product-sep", "--n-qubits", "1", "--seed", "2"],
        ["werner4", "--p", "0.2"],  # a real-dtype single state
    ],
    ids=["werner2", "werner2-edge", "biseparable", "concurrence", "pptes-acin", "ppt-alt", "product-sep-1q",
         "werner4-real"],
)
def test_inspect(argv, capsys):
    assert run("inspect", "--family", *argv) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"family: {argv[0]}\n") and "label (ppt-oracle): " in out


def test_werner2_gen_fit_eval(tmp_path, capsys):
    train, test, model, report = (tmp_path / name for name in ("train.csv", "test.csv", "model.json", "report.csv"))
    assert run("gen", "--family", "werner2", "--overlap", "low", "--n", "200", "--seed", "7", "--out", train) == 0
    assert run("gen", "--family", "werner2", "--overlap", "low", "--n", "200", "--seed", "8", "--out", test) == 0
    assert run("fit", "--train", train, "--model-out", model) == 0
    assert run("eval", "--model", model, "--test", test, "--report-out", report) == 0
    capsys.readouterr()
    assert report.read_text().startswith("fld_threshold,train_accuracy,test_accuracy,fisher_criterion\n")


@pytest.mark.parametrize("mode", ["minmax", "none"])
def test_werner2_fit_eval_under_other_standardizers(mode, tmp_path, capsys):
    """The session above fits under the default z-score; CI also fits and evaluates under these."""
    train, test, model = tmp_path / "train.csv", tmp_path / "test.csv", tmp_path / f"{mode}.json"
    assert run("gen", "--family", "werner2", "--overlap", "low", "--n", "200", "--seed", "7", "--out", train) == 0
    assert run("gen", "--family", "werner2", "--overlap", "low", "--n", "200", "--seed", "8", "--out", test) == 0
    assert run("fit", "--train", train, "--standardizer", mode, "--model-out", model) == 0
    assert run("eval", "--model", model, "--test", test) == 0
    assert "test accuracy: " in capsys.readouterr().out


def test_concurrence_pure_states_under_the_oracle(tmp_path, capsys):
    """Pure states in every chunk."""
    out = tmp_path / "c.csv"
    assert run("gen", "--family", "concurrence", "--overlap", "low", "--n", "300", "--seed", "3",
               "--label-convention", "ppt-oracle", "--out", out) == 0
    capsys.readouterr()
    assert len(out.read_text().splitlines()) == 301


def test_werner4_rerun_fit_and_reports(tmp_path, capsys):
    a, b, model = tmp_path / "w4a.csv", tmp_path / "w4b.csv", tmp_path / "w4model.json"
    for path in (a, b):
        assert run("gen", "--family", "werner4", "--n", "600", "--seed", "7", "--out", path) == 0
    assert a.read_bytes() == b.read_bytes()
    assert run("fit", "--train", a, "--model-out", model) == 0
    report_json, report_csv = tmp_path / "w4report.json", tmp_path / "w4report.csv"
    assert run("eval", "--model", model, "--test", a, "--report-out", report_json, "--format", "json") == 0
    assert run("eval", "--model", model, "--test", a, "--report-out", report_csv) == 0
    capsys.readouterr()
    assert report_json.read_text().startswith("{")
    assert report_csv.read_text().startswith("fld_threshold,")


def test_biseparable_blocks_ending_mid_chunk(tmp_path, capsys):
    """222 entangled and 379 separable rows under oracle labels; reruns are equal."""
    a, b = tmp_path / "ba.csv", tmp_path / "bb.csv"
    for path in (a, b):
        assert run("gen", "--family", "biseparable", "--balance", "0.37", "--n", "601", "--seed", "4",
                   "--label-convention", "ppt-oracle", "--out", path) == 0
        assert capsys.readouterr().out.endswith("class counts: entangled(-1)=222 separable(+1)=379\n")
    assert a.read_bytes() == b.read_bytes()


def test_biseparable_closed_form_and_stack_paths(tmp_path, capsys):
    """Paper labels read no state (closed-form features only), oracle labels read the block's stack; a model fit
    on one evaluates on the other, whose features are the same."""
    paper, oracle, model = tmp_path / "b.csv", tmp_path / "b-oracle.csv", tmp_path / "b.json"
    assert run("gen", "--family", "biseparable", "--n", "200", "--seed", "3", "--out", paper) == 0
    assert run("gen", "--family", "biseparable", "--n", "200", "--seed", "3", "--label-convention", "ppt-oracle",
               "--out", oracle) == 0
    assert paper.read_bytes() == oracle.read_bytes()  # every biseparable row is NPT under some cut
    assert run("fit", "--train", paper, "--model-out", model) == 0
    assert run("eval", "--model", model, "--test", oracle) == 0
    assert "test accuracy: 1.0\n" in capsys.readouterr().out


def test_reproduce_bytes_do_not_depend_on_cell_threads(tmp_path, capsys):
    """Table cells run on concurrent threads; the report bytes must not depend on it."""
    r1, r2, r_json = tmp_path / "r1.csv", tmp_path / "r2.csv", tmp_path / "r.json"
    assert run("reproduce", "--tables", "1,7", "--out", r1) == 0
    assert run("reproduce", "--tables", "1,7", "--out", r2) == 0
    assert r1.read_bytes() == r2.read_bytes()
    assert run("reproduce", "--tables", "1,7", "--format", "json", "--out", r_json) == 0
    capsys.readouterr()
    assert r_json.read_text().startswith("[")


@pytest.mark.parametrize("header", ["XX,XX", "II,XX"], ids=["repeated", "identity"])
def test_bad_header_exits_one(header, tmp_path, capsys):
    train = tmp_path / "bad.csv"
    train.write_bytes(f"{header},label\r\n0.1,0.2,1\r\n".encode())
    assert run("fit", "--train", train, "--model-out", tmp_path / "x.json") == 1
    assert capsys.readouterr().err.startswith(f"error: dataset file {train}, line 1: ")
    assert not (tmp_path / "x.json").exists()
