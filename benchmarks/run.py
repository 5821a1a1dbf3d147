"""Benchmark of entflda: one workload per run, end-to-end or traced.

    python3 benchmarks/run.py --workload tables-ci --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``. The workload runs in this process on one thread with
the BLAS thread count pinned, as a closed loop: one operation at a time,
the next one starting when the previous one ends. It runs at least two
operations (one per phase when traced), and then starts another only while
it is expected, from the median so far, to end within ``--seconds``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` first runs
untraced for half the time, then traced for the other half, and prints the
per-layer metrics; the spans go to ``.bench_out/`` in the checkout. The
last line of stdout is the result object; the line before it records the
environment, source line counts and raw timings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

BLAS_THREADS = 1
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up is repeated and its median reported, so a one-off stall in one
# repetition does not move it.
SETUP_REPS = 3
MIN_UNTRACED_OPS = 2  # the digest check needs a second operation to compare

LAYERS = ("qops", "states", "labels", "measure", "flda", "experiments", "cli", "reference")

# Dataset sizes under ``--tiny``, which the benchmark's self-test uses.
TINY_SAMPLES = {"tables-ci": 400, "oracle-gen": 100, "files": 400}

IMPORT_PROBE = "import time; t = time.perf_counter(); import entflda; print(time.perf_counter() - t); print(entflda.__file__)"


def _pin_environment() -> dict:
    for var in BLAS_ENV_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _check_source(path: str) -> None:
    if Path(path).resolve().parent != SRC / "entflda":
        raise RuntimeError(f"imported entflda from {path}, not from {SRC / 'entflda'}")


def _import_seconds(env: dict) -> float:
    """Cold ``import entflda`` time, measured inside a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True
    )
    seconds, path = proc.stdout.split("\n")[:2]
    _check_source(path)
    return float(seconds)


def _cgroup_cpu_limit() -> str:
    """The CPU quota of this process's cgroup, read-only; "max" when unlimited."""
    candidates = (
        ("/sys/fs/cgroup/cpu.max",),
        ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us"),
    )
    for files in candidates:
        try:
            values = [Path(f).read_text().strip() for f in files]
        except OSError:
            continue
        text = " ".join(values)
        return "max" if text.split()[0] in ("max", "-1") else text
    return "unknown"


def _blas_library() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cgroup_cpu_limit": _cgroup_cpu_limit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_library(),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def source_lines() -> dict:
    package = SRC / "entflda"
    counts = {}
    for path in sorted(package.glob("*.py")):
        with open(path, "rb") as fh:
            counts[path.stem] = sum(1 for _ in fh)
    loc = {f"{layer}.loc": counts.get(layer, 0) for layer in LAYERS}
    loc["src.loc"] = sum(counts.values())
    return loc


def register_sites(tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    import numpy

    from entflda import cli, experiments, flda, labels, measure, qops, states

    for owner, attr, name in (
        (experiments, "reproduce_tables", "experiments.reproduce_tables"),
        (experiments, "run_experiment", "experiments.run_experiment"),
        (experiments, "generate_dataset", "experiments.generate"),
        (experiments, "_sample_rng", "experiments.rng"),
        (experiments, "sample_family_params", "experiments.sample"),
        (experiments, "stratified_split", "experiments.split"),
        (experiments, "save_dataset", "experiments.save"),
        (experiments, "load_dataset", "experiments.load"),
        (states, "from_family", "states.from_family"),
        (qops.DensityOperator, "__init__", "qops.DensityOperator"),
        (experiments, "exact_features", "measure.exact_features"),
        (measure, "exact_features", "measure.exact_features"),
        (experiments, "sampled_features", "measure.sampled_features"),
        (labels, "assign_label", "labels.assign_label"),
        (labels, "ppt_report", "labels.ppt_report"),
        (flda, "fit", "flda.fit"),
        (flda, "evaluate", "flda.evaluate"),
        (flda, "save_model", "flda.model_io"),
        (flda, "load_model", "flda.model_io"),
        (cli, "main", "cli.main"),
    ):
        tracer.span_site(owner, attr, name)
    tracer.event_site(numpy.linalg, "eigvalsh", "numpy.linalg.eigvalsh")
    tracer.event_site(labels, "concurrence_analytic", "labels.concurrence_analytic")


class Loop:
    """Closed-loop operations with the per-operation correctness checks."""

    def __init__(self, workload):
        self.workload = workload
        self.reference_digest = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.test_accuracy = None

    def run(self, budget_s: float, min_ops: int, call) -> list:
        walls = []
        start = time.perf_counter()
        while len(walls) < min_ops or time.perf_counter() - start + statistics.median(walls) <= budget_s:
            t0 = time.perf_counter()
            try:
                output = call()
            except Exception:
                walls.append(time.perf_counter() - t0)
                self._count([traceback.format_exc()])
                continue
            walls.append(time.perf_counter() - t0)
            self._count(self._problems(output))
        return walls

    def _problems(self, output) -> list:
        try:
            problems = list(self.workload.problems(output))
            digest = self.workload.digest(output)
            if self.reference_digest is None:
                self.reference_digest = digest
                self.test_accuracy = self.workload.test_accuracy(output)
        except Exception:
            return [traceback.format_exc()]
        if digest != self.reference_digest:
            problems.append(f"output digest {digest[:16]} differs from the first operation's {self.reference_digest[:16]}")
        return problems

    def _count(self, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            for problem in problems:
                print(f"operation {self.attempted} failed: {problem}", file=sys.stderr)


def end_to_end_metrics(workload, walls: list, setup_s: float, test_accuracy: float) -> dict:
    wall = statistics.median(walls)
    rows = workload.generated_rows + workload.saved_rows + workload.loaded_rows
    return {
        "wall_s": (wall, "s"),
        "rows_per_s": (rows / wall, "rows/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "test_acc_mean": (test_accuracy, "ratio"),
    }


def layer_metrics(summary, workload, n_ops: int) -> dict:
    generated = workload.generated_rows * n_ops

    def us_per_row(names, rows=generated):
        return 1e6 * sum(summary.self_time(n) for n in names) / rows if rows else 0.0

    def per_row(count):
        return count / generated if generated else 0.0

    def ms_per_op(*names):
        return 1e3 * sum(summary.self_time(n) for n in names) / n_ops

    attempts = summary.events_under("labels.concurrence_analytic", "experiments.sample")
    accepts = len(set(attempts.tolist()))
    return {
        "experiments.rng_us_per_row": (us_per_row(["experiments.rng"]), "us/row"),
        "experiments.sample_us_per_row": (us_per_row(["experiments.sample"]), "us/row"),
        "experiments.concurrence_accept_ratio": (accepts / len(attempts) if len(attempts) else 0.0, "accepts/attempts"),
        "experiments.generate_self_us_per_row": (us_per_row(["experiments.generate"]), "us/row"),
        "experiments.split_ms": (ms_per_op("experiments.split"), "ms/op"),
        "experiments.save_us_per_row": (us_per_row(["experiments.save"], workload.saved_rows * n_ops), "us/row"),
        "experiments.load_us_per_row": (us_per_row(["experiments.load"], workload.loaded_rows * n_ops), "us/row"),
        "states.build_us_per_row": (us_per_row(["states.from_family"]), "us/row"),
        "states.builds_per_row": (per_row(summary.span_count("states.from_family")), "count"),
        "qops.validate_us_per_row": (us_per_row(["qops.DensityOperator"]), "us/row"),
        "qops.density_ops_per_row": (per_row(summary.span_count("qops.DensityOperator")), "count"),
        "qops.eigvalsh_per_row": (per_row(summary.event_count("numpy.linalg.eigvalsh")), "count"),
        "measure.exact_us_per_row": (us_per_row(["measure.exact_features"]), "us/row"),
        "measure.shots_us_per_row": (us_per_row(["measure.sampled_features"]), "us/row"),
        "labels.assign_us_per_row": (us_per_row(["labels.assign_label"]), "us/row"),
        "labels.ppt_us_per_row": (us_per_row(["labels.ppt_report"]), "us/row"),
        "labels.ppt_calls_per_row": (per_row(summary.span_count("labels.ppt_report")), "count"),
        "flda.fit_ms": (ms_per_op("flda.fit"), "ms/op"),
        "flda.evaluate_ms": (ms_per_op("flda.evaluate"), "ms/op"),
        "flda.model_io_ms": (ms_per_op("flda.model_io"), "ms/op"),
        "cli.self_ms": (ms_per_op("cli.main"), "ms/op"),
    }


def shares(summary, traced_s: float) -> tuple:
    """Shares of traced operation time: each layer's own code, and each span
    including its children (``labels.assign_label`` with the rebuild it
    triggers, for instance)."""
    by_layer, inclusive = {}, {}
    for name in summary.names:
        if not summary.span_count(name):
            continue  # an event name: its time is inside the enclosing span
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + summary.self_time(name) / traced_s
        inclusive[name] = summary.total_time(name) / traced_s
    return by_layer, inclusive


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple:
    """Set up and run one workload; return (record, result) as printed."""
    env = _pin_environment()
    import entflda
    import spans
    import workloads

    _check_source(entflda.__file__)
    OUT.mkdir(exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "environment": environment(seed)}
    loc = source_lines()
    record["loc"] = loc

    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        setup_times = []
        for _ in range(SETUP_REPS):
            workload = None  # release the previous repetition's fixtures first
            import_s = _import_seconds(env)
            t0 = time.perf_counter()
            workload = workloads.WORKLOADS[name](seed, workdir, **({"samples": TINY_SAMPLES[name]} if tiny else {}))
            workload.setup()
            setup_times.append(import_s + time.perf_counter() - t0)
        record["setup_s_reps"] = setup_times

        loop = Loop(workload)
        if not trace:
            walls = loop.run(seconds, MIN_UNTRACED_OPS, workload.run_once)
            record["op_wall_s"] = walls
            metrics = end_to_end_metrics(workload, walls, statistics.median(setup_times), loop.test_accuracy)
        else:
            walls = loop.run(seconds / 2, 1, workload.run_once)
            tracer = spans.Tracer()
            register_sites(tracer)

            def traced_op():
                with tracer.installed():
                    return tracer.run_span("bench.op", workload.run_once)

            traced_walls = loop.run(seconds / 2, 1, traced_op)
            trace_path = OUT / f"trace-{name}-seed{seed}.npz"
            tracer.write(trace_path)
            summary = spans.Summary(tracer)
            record.update(op_wall_s=walls, traced_op_wall_s=traced_walls, trace_file=str(trace_path.relative_to(ROOT)))
            record["layer_self_share"], record["span_total_share"] = shares(summary, sum(traced_walls))
            metrics = layer_metrics(summary, workload, len(traced_walls))
            metrics["trace.overhead_frac"] = (statistics.median(traced_walls) / statistics.median(walls) - 1, "ratio")
            metrics["failed_ops_frac"] = (loop.failed / loop.attempted, "ratio")
            metrics.update({key: (value, "lines") for key, value in loc.items()})

    record["problems"] = loop.problems[:10]
    record["notes"] = sorted(set(getattr(workload, "notes", ())))
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("tables-ci", "oracle-gen", "files"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="run at a tiny size (the benchmark's self-test)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    if not (SRC / "entflda" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'entflda'}; run the benchmark inside a checkout", file=sys.stderr)
        return 2
    record, result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
