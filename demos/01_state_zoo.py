"""Tour of the state families: spectra, partial-transpose cuts and labels.

Builds one representative of each family and prints what the separability
oracles see. Run from the repository root:

    python demos/01_state_zoo.py
"""

import numpy as np

from entflda import assign_label, concurrence_wootters, from_family, ppt_report

EXAMPLES = [
    ("werner2", {"p": 0.5}),
    ("werner2", {"p": 0.2}),
    ("concurrence", {"theta0": np.pi / 2, "theta1": np.pi / 2}),
    ("werner3", {"p": 0.3}),
    ("pptes-acin", {"a": 2.0, "b": 3.0, "c": 0.5}),
    ("ppt-alt", {}),
    ("biseparable", {"components": [{"weight": 1.0, "a_bloch": [0.0, 0.0, 0.4], "bc_p": 0.9}]}),
    ("product-sep", {"components": [{"weight": 1.0, "blochs": [[0.3, 0.0, 0.4], [0.0, -0.5, 0.1]]}]}),
]

for family, params in EXAMPLES:
    rho = from_family(family, params)
    report = ppt_report(rho)
    print(f"--- {family}  {params}")
    print(f"    eigenvalues: {np.round(np.linalg.eigvalsh(rho.matrix), 4)}")
    for cut, value in sorted(report.min_eigenvalues.items()):
        print(f"    min PT eigenvalue {cut}: {value:+.4f}")
    labels = {conv: assign_label(family, params, rho, conv) for conv in ("paper", "ppt-oracle")}
    print(f"    labels: paper={labels['paper']:+d}  ppt-oracle={labels['ppt-oracle']:+d}")
    if rho.num_qubits == 2:
        print(f"    concurrence: {concurrence_wootters(rho):.4f}")

print()
print("Note the two PPT three-qubit states: the transpose test calls them")
print("separable while the paper-convention label keeps them entangled;")
print("that disagreement is the point of carrying both conventions.")
