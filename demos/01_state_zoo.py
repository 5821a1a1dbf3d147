"""Tour of the state families: spectra, partial-transpose cuts and labels.

Builds one representative of each family and prints what the separability
oracles see. Run from the repository root:

    python demos/01_state_zoo.py
"""

import numpy as np

from entflda import assign_label, concurrence_wootters, from_family, ppt_report

# Each example is one parameter row, the layout the family's ``stack`` takes:
# its scalar parameters in order; for biseparable three component weights,
# their qubit-0 Bloch vectors and their Werner-pair p; for product-sep a
# Bloch vector per qubit.
EXAMPLES = [
    ("werner2", [0.5]),
    ("werner2", [0.2]),
    ("concurrence", [np.pi / 2, np.pi / 2]),
    ("werner3", [0.3]),
    ("pptes-acin", [2.0, 3.0, 0.5]),
    ("ppt-alt", []),
    ("biseparable", [1.0, 0.0, 0.0, 0.0, 0.0, 0.4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.9, 0.0, 0.0]),
    ("product-sep", [0.3, 0.0, 0.4, 0.0, -0.5, 0.1]),
]

# Zeros print unsigned (``+ 0.0`` after rounding): round-off's sign varies by BLAS.
for family, row in EXAMPLES:
    rho = from_family(family, row)
    report = ppt_report(rho)
    print(f"--- {family}  {row}")
    print(f"    eigenvalues: {np.round(np.linalg.eigvalsh(rho.matrix), 4) + 0.0}")
    for cut, value in sorted(report["min_eigenvalues"].items()):
        print(f"    min PT eigenvalue {cut}: {round(value, 4) + 0.0:+.4f}")
    labels = {conv: assign_label(family, row, rho.matrix, conv) for conv in ("paper", "ppt-oracle")}
    print(f"    labels: paper={labels['paper']:+d}  ppt-oracle={labels['ppt-oracle']:+d}")
    if rho.num_qubits == 2:
        print(f"    concurrence: {concurrence_wootters(rho):.4f}")

print()
print("Note the two PPT three-qubit states: the transpose test calls them")
print("separable while the paper-convention label keeps them entangled;")
print("that disagreement is the point of carrying both conventions.")
