"""Full two-qubit pipeline: dataset, discriminant fit, projection split.

Generates a medium-overlap Werner dataset, fits the discriminant on the
train split, evaluates the holdout and exports the per-class projection
values (the histogram data behind the separation plots). If matplotlib is
importable the histogram is also written to werner2_projections.png.

    python demos/03_werner2_pipeline.py
"""

import numpy as np

from entflda import (
    ExperimentConfig,
    evaluate,
    fit,
    generate_dataset,
    project,
    stratified_split,
)
from entflda.reference import fixed

config = ExperimentConfig(family="werner2", overlap="medium", n_samples=2000, master_seed=42)
dataset = generate_dataset(config)
train, test = stratified_split(dataset, config.split, config.master_seed)

model = fit(
    dataset.features[train],
    dataset.labels[train],
    feature_names=dataset.feature_names,
    label_convention=config.label_convention,
)
metrics = evaluate(model, dataset.features[test], dataset.labels[test])

print(f"config: {config}")
print(f"threshold:       {fixed(model.threshold, 4)}")
print(f"train accuracy:  {model.train_accuracy:.4f}")
print(f"test accuracy:   {metrics['accuracy']:.4f}")
print(f"fisher value:    {model.fisher_j:.2f}")
print(f"confusion:       {metrics['confusion']}")

weights = sorted(zip(dataset.feature_names, model.w), key=lambda kv: -abs(kv[1]))
print("most informative observables:", ", ".join(f"{name} ({w:+.2f})" for name, w in weights[:5]))

projected = project(model, dataset.features)
groups = {cls: projected[dataset.labels == cls] for cls in (-1, 1)}
print("\nprojection summary (y = w . x):")
for cls, values in groups.items():
    side = "entangled" if cls == -1 else "separable"
    print(f"  class {cls:+d} ({side}): mean {values.mean():+.3f}  std {values.std():.3f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 4))
    bins = np.linspace(min(v.min() for v in groups.values()), max(v.max() for v in groups.values()), 60)
    ax.hist(groups[-1], bins=bins, alpha=0.6, label="entangled (-1)")
    ax.hist(groups[1], bins=bins, alpha=0.6, label="separable (+1)")
    ax.axvline(model.threshold, color="k", linestyle="--", label="threshold")
    ax.set_xlabel("projected value y")
    ax.set_ylabel("count")
    ax.legend()
    fig.tight_layout()
    fig.savefig("werner2_projections.png", dpi=120)
    print("\nwrote werner2_projections.png")
except ImportError:
    print("\nmatplotlib not available; skipped the histogram figure")
