"""Byte-identity digest of the command-line surface.

Runs a fixed set of commands through ``entflda.cli.main`` at one BLAS thread,
in a temporary working directory with relative paths, and prints one line per
output (a short sha256 of the exit code, stdout, stderr and every file the
command wrote) and then one sha256 over all of them. Two trees whose outputs
agree print the same final line. The digests depend on the host's BLAS
kernels, so compare two trees on one host only.

Usage, from the root of a checkout:

    PYTHONPATH=src python tests/golden.py            # one line per output + total
    PYTHONPATH=src python tests/golden.py --total    # the total only

pytest does not collect this file; it uses only flags and functions that
have been stable since the command set was first recorded.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"
os.environ["COLUMNS"] = "100"  # argparse wraps --help at the terminal width
os.environ.pop("ENTFLDA_SEED", None)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

from entflda import cli, states  # noqa: E402

HEADS = ("werner2", "concurrence", "werner3", "pptes-acin", "ppt-alt", "biseparable", "werner4")
OVERLAPS = ("high", "medium", "low")
CONVENTIONS = ("paper", "ppt-oracle")


def commands():
    """``(name, argv, files)``: the commands in run order, each with the
    relative paths of the files it writes."""
    for command in ("", "gen", "fit", "eval", "inspect", "reproduce"):
        yield f"help {command}".strip(), [*command.split(), "--help"], []
    for family in HEADS:
        for overlap in OVERLAPS:
            for convention in CONVENTIONS:
                out = f"{family}-{overlap}-{convention}.csv"
                n = "160" if family == "werner4" else "240"
                argv = ["gen", "--family", family, "--overlap", overlap, "--n", n, "--seed", "11",
                        "--label-convention", convention, "--out", out]
                yield f"gen {out}", argv, [out]
    yield "gen shots", ["gen", "--family", "werner3", "--n", "60", "--shots", "8", "--seed", "3",
                        "--out", "w3-shots.csv"], ["w3-shots.csv"]
    # 4,097 shots, one above the largest count drawn from an alias table: every count is binomial.
    yield "gen shots above table", ["gen", "--family", "werner3", "--n", "60", "--shots", "4097", "--seed", "3",
                                    "--out", "w3-above.csv"], ["w3-above.csv"]
    # 600 rows a class at 2,048 shots: the shot draw runs over several chunks of each class.
    yield "gen shots chunks", ["gen", "--family", "werner3", "--overlap", "medium", "--n", "1200", "--seed", "5",
                               "--out", "w3-chunks.csv"], ["w3-chunks.csv"]
    yield "gen balance", ["gen", "--family", "biseparable", "--balance", "0.37", "--n", "601", "--seed", "4",
                          "--label-convention", "ppt-oracle", "--out", "bis.csv"], ["bis.csv"]
    yield "gen refusal balance", ["gen", "--family", "werner2", "--n", "40", "--balance", "nan", "--out", "x.csv"], []
    yield "gen refusal n", ["gen", "--family", "werner2", "--n", "10", "--out", "x.csv"], []
    yield "gen refusal family", ["gen", "--family", "product-sep", "--n", "40", "--out", "x.csv"], []
    yield "gen huge n", ["gen", "--family", "werner2", "--n", "10000000000000", "--out", "x.csv"], []
    # Shapes numpy itself refuses: beyond its array size limit, and beyond its dimension limit.
    for n in ("4611686018427387904", "100000000000000000000"):
        yield f"gen huge n {n}", ["gen", "--family", "werner2", "--n", n, "--out", "x.csv"], []
    yield "gen missing dir", ["gen", "--family", "werner2", "--n", "40", "--out", "missing/x.csv"], []
    for family, data in (("werner2", "werner2-low-paper.csv"), ("concurrence", "concurrence-high-paper.csv"),
                         ("werner4", "werner4-high-paper.csv")):
        test = data.replace("-paper", "-ppt-oracle")
        for standardizer in ("zscore", "minmax", "none"):
            model = f"{family}-{standardizer}.json"
            argv = ["fit", "--train", data, "--standardizer", standardizer, "--model-out", model]
            yield f"fit {model}", argv, [model]
            for fmt in ("csv", "json"):
                report = f"{family}-{standardizer}.{fmt}"
                yield f"eval {report}", ["eval", "--model", model, "--test", test, "--report-out", report,
                                         "--format", fmt], [report]
    argv = ["fit", "--train", "werner2-low-paper.csv", "--epsilon", "0.01", "--model-out", "e.json"]
    yield "fit epsilon", argv, ["e.json"]
    # A ridge at which |w|^2 underflows.
    argv = ["fit", "--train", "werner2-low-paper.csv", "--epsilon", "1e200", "--model-out", "e200.json"]
    yield "fit epsilon 1e200", argv, ["e200.json"]
    yield "fit missing dir", ["fit", "--train", "werner2-low-paper.csv", "--model-out", "missing/m.json"], []
    yield "fit missing file", ["fit", "--train", "absent.csv", "--model-out", "m.json"], []
    yield "eval mismatch", ["eval", "--model", "werner2-zscore.json", "--test", "werner3-high-paper.csv"], []
    yield "eval missing dir", ["eval", "--model", "werner2-zscore.json", "--test", "werner2-low-paper.csv",
                               "--report-out", "missing/r.csv"], []
    yield "eval format without report", ["eval", "--model", "werner2-zscore.json", "--test", "werner2-low-paper.csv",
                                         "--format", "json"], []
    yield from inspect_commands()
    for seed in ("0", "7"):
        out = f"r{seed}.csv"
        yield f"reproduce csv {seed}", ["reproduce", "--tables", "1..7", "--seed", seed, "--out", out], [out]
    argv = ["reproduce", "--tables", "1..7", "--seed", "0", "--format", "json", "--out", "r.json"]
    yield "reproduce json", argv, ["r.json"]
    yield "reproduce missing dir", ["reproduce", "--tables", "6", "--out", "missing/r.csv"], []
    yield "reproduce bad id", ["reproduce", "--tables", "1..9", "--out", "x.csv"], []


def inspect_commands():
    cases = [
        ["werner2", "--p", "0.4"], ["werner2", "--p", "-0.3333333333333333"], ["werner2", "--p", "0.5"],
        ["werner2", "--p", "1"], ["werner3", "--p", "0.2"], ["werner3", "--p", "0.7"], ["werner4", "--p", "0.2"],
        ["werner4", "--p", "0.12"], ["werner2", "--p", "0.3333333333333333"], ["werner3", "--p", "0.1"],
        ["werner4", "--p", "0.1111111111111111"], ["werner4", "--p", "0.14285714285714285"],
        ["pptes-acin", "--a", "0.5", "--b", "2", "--c", "1"], ["concurrence", "--theta0", "1.1", "--theta1", "2.3"],
        ["concurrence", "--theta0", "1.5707963267948966", "--theta1", "3.141592653589793"],
        ["concurrence", "--theta0", "0", "--theta1", "1"],
        ["concurrence", "--theta0", "3.141592653589793", "--theta1", "2"],
        ["pptes-acin", "--a", "2", "--b", "3", "--c", "0.5"], ["pptes-acin", "--a", "1", "--b", "1", "--c", "1"],
        ["ppt-alt"],
    ]
    cases += [["concurrence", "--seed", s] for s in ("0", "5")]
    cases += [["pptes-acin", "--seed", "0"]]
    cases += [["biseparable", "--seed", s] for s in ("0", "1", "2", "3", "4", "5")]
    cases += [["product-sep", "--n-qubits", q, "--seed", s] for q in ("1", "2", "3", "4", "5", "6") for s in ("0", "2")]
    cases += [["product-sep"], ["biseparable"]]
    refusals = [
        ["werner2"], ["werner2", "--p", "2"], ["werner3", "--p", "-0.5"], ["werner4", "--p", "1.5"],
        ["concurrence", "--theta0", "4", "--theta1", "1"], ["concurrence", "--theta0", "1"],
        ["pptes-acin", "--a", "0", "--b", "1", "--c", "1"], ["pptes-acin", "--a", "1"],
        ["product-sep", "--n-qubits", "0"], ["product-sep", "--n-qubits", "7"], ["biseparable", "--seed", "-3"],
        ["w-state"], ["pptes-acin", "--a", "1e-320", "--b", "1", "--c", "1"],
        ["pptes-acin", "--a", "1e308", "--b", "1e308", "--c", "1e-308"],
        # Flags the family does not read.
        ["werner2", "--p", "0.4", "--a", "3", "--theta0", "1", "--n-qubits", "5", "--seed", "3"],
        ["ppt-alt", "--p", "0.4"], ["biseparable", "--n-qubits", "3"],
    ]
    for argv in cases + refusals:
        yield "inspect " + " ".join(argv), ["inspect", "--family", *argv], []


def width_refusals():
    """``from_family``'s messages for rows of the wrong width."""
    rows = {"werner2": [[], [0.1, 0.2]], "concurrence": [[1.0]], "pptes-acin": [[1.0, 1.0]],
            "ppt-alt": [[0.5]], "biseparable": [[1.0] * 14], "product-sep": [[], [0.1, 0.2], [0.0] * 4]}
    lines = []
    for name, cases in rows.items():
        for row in cases:
            try:
                states.from_family(name, row)
                lines.append(f"{name} {row}: built")
            except ValueError as exc:
                lines.append(f"{name} {row}: {exc}")
    return "\n".join(lines)


def run(argv, files) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = repr(cli.main(argv))
        except BaseException as exc:  # a traceback is an output too
            code = f"raised {type(exc).__name__}: {exc}"
    parts = [code, out.getvalue(), err.getvalue()]
    for path in files:
        parts.append(open(path, "rb").read().decode("latin-1") if os.path.exists(path) else "<absent>")
    return "\x00".join(parts).encode()


def main() -> int:
    total = hashlib.sha256()
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, argv, files in commands():
            digest = hashlib.sha256(run(argv, files)).hexdigest()
            total.update(f"{name}\x00{digest}\n".encode())
            lines.append(f"{digest[:16]}  {name}")
        digest = hashlib.sha256(width_refusals().encode()).hexdigest()
        total.update(f"width refusals\x00{digest}\n".encode())
        lines.append(f"{digest[:16]}  width refusals")
    if "--total" not in sys.argv[1:]:
        print("\n".join(lines))
    print(f"{total.hexdigest()}  total of {len(lines)} outputs, numpy {np.__version__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
