"""Command-line surface: gen, fit, eval, inspect, reproduce.

Exit codes: 0 success, 1 validation error (bad flags, bad params,
mismatched files), 2 I/O error. All file writes are atomic. The default
seed can be overridden with the ENTFLDA_SEED environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import experiments, flda, labels, measure, qops, reference, states

SEED_ENV_VAR = "ENTFLDA_SEED"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

# Help text of the family-parameter flags of ``inspect``; the rest have none.
_PARAM_HELP = {"p": "Werner mixing parameter"}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the contract here is exit 1."""

    def error(self, message):
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    """A master seed: a non-negative integer (the type of every --seed flag)."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _default_seed() -> int:
    text = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return _seed(text)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"{SEED_ENV_VAR}: {exc}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="entflda", description="Entanglement classification with Fisher linear discriminants.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a labeled measurement dataset")
    heads = [name for name, spec in states.FAMILIES.items() if spec.fixed_label != labels.SEPARABLE]
    gen.add_argument("--family", required=True, choices=heads)
    gen.add_argument("--overlap", default="high", choices=experiments.OVERLAP_LEVELS)
    gen.add_argument("--n", type=int, default=10000, help="number of samples")
    gen.add_argument("--shots", type=int, default=None, help="shots per observable (0 = exact; default per preset)")
    gen.add_argument("--seed", type=_seed, default=None, help=f"master seed (default ${SEED_ENV_VAR} or 0)")
    gen.add_argument("--label-convention", default="paper", choices=labels.LABEL_CONVENTIONS)
    gen.add_argument("--balance", type=float, default=0.5, help="fraction of entangled samples")
    gen.add_argument("--out", required=True, help="output dataset path (CSV)")

    fit = sub.add_parser("fit", help="fit a discriminant model on a dataset file")
    fit.add_argument("--train", required=True, help="training dataset path")
    fit.add_argument("--epsilon", type=float, default=None,
                     help="scatter regularizer (default: 1e-6 x mean diag(S_W) if n >= 10 d, else 100 x mean diag)")
    fit.add_argument("--standardizer", default="zscore", choices=measure.STANDARDIZER_MODES)
    fit.add_argument("--model-out", required=True, help="output model path (JSON)")

    ev = sub.add_parser("eval", help="evaluate a saved model on a dataset file")
    ev.add_argument("--model", required=True, help="model path")
    ev.add_argument("--test", required=True, help="evaluation dataset path")
    ev.add_argument("--report-out", default=None, help="optional metrics report path")
    ev.add_argument("--format", default="csv", choices=experiments.REPORT_FORMATS)

    ins = sub.add_parser("inspect", help="print spectra, PPT cuts and labels for one state")
    ins.add_argument("--family", required=True, choices=states.FAMILIES)
    for name in dict.fromkeys(key for spec in states.FAMILIES.values() for key in spec.params):
        ins.add_argument(f"--{name}", type=float, default=None, help=_PARAM_HELP.get(name))
    ins.add_argument("--seed", type=_seed, default=None, help="seed for the random families")
    ins.add_argument("--n-qubits", type=int, default=2, help="register size for product-sep")

    rep = sub.add_parser("reproduce", help="re-run the benchmark tables and compare to reference values")
    rep.add_argument("--tables", default="1..7", help="comma list and/or ranges, e.g. 1,3 or 1..7")
    rep.add_argument("--out", required=True, help="output results path")
    rep.add_argument("--seed", type=_seed, default=None)
    rep.add_argument("--profile", default="ci", choices=("ci", "full"))
    rep.add_argument("--format", default="csv", choices=experiments.REPORT_FORMATS)

    return parser


def _table_id(text: str) -> int:
    try:
        table = int(text)
    except ValueError:
        raise ValueError(f"--tables: {text.strip()!r} is not a table id") from None
    if table not in experiments.TABLE_FAMILIES:
        raise ValueError(f"--tables: unknown table id {table}; valid ids are 1..7")
    return table


def _parse_table_ids(text: str) -> list:
    """Table ids from a comma list of ids and ``lo..hi`` ranges; each id and
    range end is checked before a range is expanded."""
    ids = set()
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ".." in chunk:
            lo, hi = chunk.split("..", 1)
            ids.update(range(_table_id(lo), _table_id(hi) + 1))
        else:
            ids.add(_table_id(chunk))
    if not ids:
        raise ValueError(f"no table ids in {text!r}")
    return sorted(ids)


def _cmd_gen(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    config = experiments.ExperimentConfig(
        family=args.family,
        overlap=args.overlap,
        n_samples=args.n,
        balance=args.balance,
        shots=args.shots,
        label_convention=args.label_convention,
        master_seed=seed,
    )
    flda.check_output_dir(args.out)
    dataset = experiments.generate_dataset(config)
    experiments.save_dataset(dataset, args.out)
    n_ent = int(np.sum(dataset.labels == -1))
    n_sep = int(np.sum(dataset.labels == 1))
    print(f"wrote {dataset.features.shape[0]} rows to {args.out}")
    print(f"class counts: entangled(-1)={n_ent} separable(+1)={n_sep}")
    return EXIT_OK


def _cmd_fit(args) -> int:
    flda.check_output_dir(args.model_out)
    dataset = experiments.load_dataset(args.train)
    model = flda.fit(
        dataset.features,
        dataset.labels,
        epsilon=args.epsilon,
        standardizer=args.standardizer,
        feature_names=dataset.feature_names,
    )
    flda.save_model(model, args.model_out)
    print(f"wrote model to {args.model_out}")
    print(f"threshold: {model.threshold!r}")
    print(f"train accuracy: {model.train_accuracy!r}")
    print(f"fisher criterion: {model.fisher_j!r}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    if args.report_out:
        flda.check_output_dir(args.report_out)
    model = flda.load_model(args.model)
    dataset = experiments.load_dataset(args.test)
    if model.feature_names is not None and tuple(model.feature_names) != tuple(dataset.feature_names):
        raise ValueError("feature names in the dataset do not match the model's feature names")
    metrics = flda.evaluate(model, dataset.features, dataset.labels)
    print(f"fld threshold: {model.threshold!r}")
    print(f"train accuracy: {model.train_accuracy!r}")
    print(f"test accuracy: {metrics['accuracy']!r}")
    print(f"fisher criterion: {model.fisher_j!r}")
    print(f"confusion: {metrics['confusion']}")
    if args.report_out:
        payload = {
            "fld_threshold": model.threshold,
            "train_accuracy": model.train_accuracy,
            "test_accuracy": metrics["accuracy"],
            "fisher_criterion": model.fisher_j,
            "confusion": metrics["confusion"],
        }
        if args.format == "json":
            text = json.dumps(payload, indent=2) + "\n"
        else:
            # A model without a train accuracy gets an empty cell, JSON's null.
            keys = [key for key in payload if key != "confusion"]
            cells = ("" if payload[k] is None else repr(float(payload[k])) for k in keys)
            text = ",".join(keys) + "\n" + ",".join(cells) + "\n"
        flda.atomic_write(args.report_out, text)
        print(f"wrote report to {args.report_out}")
    return EXIT_OK


def _inspect_row(args) -> np.ndarray:
    """The family's parameter row, from its flags or, for the families
    without scalar parameters, from the dataset sampler at ``--seed``."""
    spec = states.FAMILIES[args.family]
    if spec.params:
        if any(getattr(args, name) is None for name in spec.params):
            flags = [f"--{name}" for name in spec.params]
            listed = flags[0] if len(flags) == 1 else f"{', '.join(flags[:-1])} and {flags[-1]}"
            raise ValueError(f"{args.family} requires {listed}")
        return np.array([getattr(args, name) for name in spec.params])
    rng = np.random.default_rng(args.seed if args.seed is not None else _default_seed())
    if spec.width is None:  # a Bloch vector per qubit
        if not 1 <= args.n_qubits <= qops.MAX_QUBITS:
            raise ValueError(f"--n-qubits must lie in 1..{qops.MAX_QUBITS}, got {args.n_qubits}")
        return states.bloch_vectors(rng.random((args.n_qubits, 3))).ravel()
    return experiments.sample_family_params(args.family, labels.ENTANGLED, "high", rng.random((1, spec.uniforms)))[1][0]


def _cmd_inspect(args) -> int:
    spec, row = states.FAMILIES[args.family], _inspect_row(args)
    rho = states.from_family(args.family, row).matrix
    print(f"family: {args.family}")
    params = spec.describe(row) if spec.describe else dict(zip(spec.params, row.tolist()))
    print(f"params: {json.dumps(params)}")
    eigs = np.linalg.eigvalsh(rho)
    print("eigenvalues:", " ".join(reference.fixed(v, 6) for v in eigs))
    report = labels.ppt_report(rho)
    for cut, value in sorted(report["min_eigenvalues"].items()):
        print(f"min PT eigenvalue {cut}: {reference.fixed(value, 6)}")
    print(f"PPT under all cuts: {report['is_ppt_all']}")
    for convention in labels.LABEL_CONVENTIONS:
        print(f"label ({convention}): {labels.assign_label(args.family, row, rho, convention):+d}")
    if rho.shape == (4, 4):
        print(f"concurrence: {labels.concurrence_wootters(rho):.6f}")
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    table_ids = _parse_table_ids(args.tables)
    seed = args.seed if args.seed is not None else _default_seed()
    rows = experiments.reproduce_tables(
        table_ids, out_path=args.out, seed=seed, profile=args.profile, fmt=args.format
    )
    print(f"wrote {len(rows)} rows to {args.out}")
    print(reference.render_comparison(rows))
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "fit": _cmd_fit,
    "eval": _cmd_eval,
    "inspect": _cmd_inspect,
    "reproduce": _cmd_reproduce,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
