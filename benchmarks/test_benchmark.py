"""Self-test of the benchmark: each workload once at a tiny size.

    python3 -m pytest benchmarks -q

Runs ``run.py --tiny`` untraced and traced (twice, to show the counters
repeat exactly), and checks that every metric ``BENCHMARK.json`` names is
reported with its unit and that no operation fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# oracle-gen is runnable but not in BENCHMARK.json; see README.md.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["oracle-gen"]

# Per-layer metrics that count work rather than time it; they must repeat exactly.
EXACT = {m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "accepts/attempts", "lines")}
GENERATION = {
    "experiments.rng_us_per_row",
    "experiments.sample_us_per_row",
    "experiments.generate_self_us_per_row",
    "states.build_us_per_row",
    "states.builds_per_row",
    "qops.validate_us_per_row",
    "qops.density_ops_per_row",
    "qops.eigvalsh_per_row",
    "measure.exact_us_per_row",
    "measure.shots_us_per_row",
    "labels.assign_us_per_row",
    "labels.ppt_us_per_row",
    "labels.ppt_calls_per_row",
}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(workload: str, trace: int) -> tuple:
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    record, final = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0, record["problems"]
    return record, final


def units(final: dict) -> dict:
    return {name: m["unit"] for name, m in final["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end(workload):
    record, final = result(workload, 0)
    assert final["attempted"] >= 2
    assert units(final) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in final["metrics"].values())
    assert set(record["environment"]) == {
        "nproc", "cgroup_cpu_limit", "python", "numpy", "scipy", "blas", "blas_threads", "seed",
    }
    assert record["environment"]["seed"] == 3
    loc = record["loc"]
    assert loc["src.loc"] >= sum(v for k, v in loc.items() if k != "src.loc") > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer(workload):
    _, first = result(workload, 1)
    _, second = result(workload, 1)
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    values = {name: m["value"] for name, m in first["metrics"].items()}
    assert values["failed_ops_frac"] == 0
    assert {n: values[n] for n in EXACT} == {n: second["metrics"][n]["value"] for n in EXACT}
    if workload == "files":
        assert all(values[n] == 0 for n in GENERATION)
        assert values["experiments.load_us_per_row"] > 0 and values["flda.fit_ms"] > 0
    else:
        assert values["states.builds_per_row"] >= 1 and values["qops.eigvalsh_per_row"] > 0
    if workload == "oracle-gen":
        assert values["states.builds_per_row"] == 1.5 and values["labels.ppt_calls_per_row"] == 0.5
    if workload == "tables-ci":
        assert values["states.builds_per_row"] == 1.0 and values["labels.ppt_calls_per_row"] == 0


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_floor_test_fails_significant_misses():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    try:
        import workloads
        from entflda import experiments, reference
    finally:
        del sys.path[:2]
    tables = workloads.TablesCi(0, str(ROOT))
    rows = [
        {"table": t, "overlap": o, "family": experiments.TABLE_FAMILIES[t], "test_acc": 1.0}
        for t, o in reference.REFERENCE_ROWS
    ]
    assert tables.problems(rows) == []

    def table7(test_acc):
        return [dict(r, test_acc=test_acc) if r["table"] == 7 else r for r in rows]

    # Table 7 has 400 test rows and floor 0.95: 0.9425 is within sampling
    # error and is noted; 0.9025 (a small explicit ridge on the same seed) fails.
    assert tables.problems(table7(0.9425)) == [] and len(tables.notes) == 1
    assert len(tables.problems(table7(0.9025))) == 1
    assert len(tables.problems(rows[:-1])) == 1
