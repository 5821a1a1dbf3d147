"""Smoke test: the narrative demos run to the end and print no negative zero."""

import re
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script", ["01_state_zoo.py", "02_shot_noise.py", "03_werner2_pipeline.py", "04_benchmark_tables.py"]
)
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    """Round-off's sign varies by BLAS, so no demo prints it."""
    monkeypatch.chdir(tmp_path)  # the pipeline demo may write a figure into the working directory
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()
    assert re.findall(r"-0\.0*(?!\d)", out) == []


def test_state_zoo_prints_no_negative_zero(capsys):
    """Round-off's sign varies by BLAS, so the zoo prints its zeros unsigned."""
    runpy.run_path(str(DEMOS / "01_state_zoo.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "eigenvalues: [0. 0. 0. 1.]" in out  # the concurrence state, pure
    assert re.findall(r"-0\.0*(?!\d)", out) == []
