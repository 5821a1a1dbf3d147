"""Shot-noise convergence of sampled Pauli features.

Estimates every two-qubit feature of a Werner state at increasing shot
counts and compares against the exact expectations. The error shrinks like
1/sqrt(shots), which is what makes the high/medium/low overlap presets
(512 / 2048 / exact) behave so differently downstream.

    python demos/02_shot_noise.py
"""

import numpy as np

from entflda import exact_features, from_family, sampled_features

rho = from_family("werner2", [0.5]).matrix
exact = exact_features(rho)

print(f"state: two-qubit Werner, p = 0.5; {len(exact)} features")
print(f"{'shots':>8} {'max |error|':>12} {'rms error':>10} {'1/sqrt(shots)':>14}")
for shots in (64, 256, 1024, 4096, 16384, 65536):
    errors = []
    for rep in range(20):
        est = sampled_features(rho, shots, np.random.default_rng([shots, rep]))
        errors.append(est - exact)
    errors = np.array(errors)
    print(
        f"{shots:>8} {np.max(np.abs(errors)):>12.4f} "
        f"{np.sqrt(np.mean(errors**2)):>10.4f} {1 / np.sqrt(shots):>14.4f}"
    )

print()
print("The nonzero features (XX, YY, ZZ = -0.5) carry slightly less noise")
print("than the zero ones because the outcome variance is 1 - <O>^2.")
