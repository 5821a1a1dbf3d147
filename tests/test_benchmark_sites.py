"""The benchmark's tracer wraps program attributes by name: each must exist.

``benchmarks/run.py`` replaces module attributes (``experiments.sampled_features``,
``states.from_family``, ``qops.DensityOperator.__init__``, ...) for a traced
run, so a renamed or deleted one fails only the traced benchmark step. This
runs its ``register_sites`` with a tracer that only looks each site up.
"""

import importlib.util
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "benchmarks" / "run.py"


class LookupOnly:
    """A tracer that records each site and wraps nothing."""

    def __init__(self):
        self.sites = []

    def span_site(self, owner, attr, name):
        getattr(owner, attr)
        self.sites.append(f"{owner.__name__}.{attr}")

    event_site = span_site


def test_every_traced_site_exists():
    spec = importlib.util.spec_from_file_location("entflda_benchmark_run", RUN_PY)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    tracer = LookupOnly()
    run.register_sites(tracer)
    assert {
        "entflda.experiments.sampled_features",
        "entflda.experiments.exact_features",
        "entflda.experiments.run_experiment",
        "entflda.states.from_family",
        "DensityOperator.__init__",
    } <= set(tracer.sites)
