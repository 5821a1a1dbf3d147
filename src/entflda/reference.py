"""Bundled reference results for the seven benchmark tables.

Thresholds and Fisher criterion magnitudes depend on unpublished preset
definitions, feature scaling and RNG realizations, so they are reported
for context but never gated. Test accuracy is gated per row: rows whose
reference accuracy is 1.00 get the tight bound used by the acceptance
suite, degraded-overlap rows get a better-than-chance sanity floor.
"""

from __future__ import annotations

# (table, overlap) -> reference columns.
REFERENCE_ROWS = {
    (1, "high"): {"fld_threshold": -0.36, "train_acc": 0.94, "test_acc": 0.89, "fisher_j": 8.41},
    (1, "medium"): {"fld_threshold": 1.13, "train_acc": 0.95, "test_acc": 0.92, "fisher_j": 13.65},
    (1, "low"): {"fld_threshold": 1.86, "train_acc": 1.00, "test_acc": 1.00, "fisher_j": 45.43},
    (2, "high"): {"fld_threshold": 0.41, "train_acc": 0.66, "test_acc": 0.33, "fisher_j": 0.012},
    (2, "medium"): {"fld_threshold": 2.09, "train_acc": 0.95, "test_acc": 0.83, "fisher_j": 7.43},
    (2, "low"): {"fld_threshold": 2.23, "train_acc": 1.00, "test_acc": 1.00, "fisher_j": 44.6},
    (3, "high"): {"fld_threshold": -0.79, "train_acc": 0.93, "test_acc": 0.87, "fisher_j": 14.99},
    (3, "medium"): {"fld_threshold": 3.18, "train_acc": 0.98, "test_acc": 0.96, "fisher_j": 44.24},
    (3, "low"): {"fld_threshold": 4.17, "train_acc": 1.00, "test_acc": 1.00, "fisher_j": 353.08},
    (4, "high"): {"fld_threshold": 0.37, "train_acc": 0.76, "test_acc": 0.65, "fisher_j": 5.4},
    (4, "medium"): {"fld_threshold": 2.9, "train_acc": 0.93, "test_acc": 0.88, "fisher_j": 18.68},
    (4, "low"): {"fld_threshold": 3.56, "train_acc": 1.00, "test_acc": 1.00, "fisher_j": 70.69},
    (5, "high"): {"fld_threshold": -0.98, "train_acc": 0.90, "test_acc": 0.82, "fisher_j": 9.48},
    (5, "medium"): {"fld_threshold": 3.18, "train_acc": 0.89, "test_acc": 0.80, "fisher_j": 15.2},
    (5, "low"): {"fld_threshold": 4.17, "train_acc": 1.00, "test_acc": 1.00, "fisher_j": 69.51},
    (6, "high"): {"fld_threshold": -0.07, "train_acc": 1.00, "test_acc": 1.00, "fisher_j": 45.23},
    (7, "high"): {"fld_threshold": -0.12, "train_acc": 1.00, "test_acc": 1.00, "fisher_j": 45.99},
}

# Minimum acceptable test accuracy per row, taken from the acceptance
# tolerances; rows without an acceptance bound get a better-than-chance
# sanity floor only.
MIN_TEST_ACCURACY = {
    (1, "high"): 0.80,
    (1, "low"): 0.99,
    (2, "low"): 0.99,
    (3, "low"): 0.99,
    (6, "high"): 0.95,
    (7, "high"): 0.95,
}
DEFAULT_MIN_TEST_ACCURACY = 0.5


def compare_row(row: dict) -> dict:
    """Attach reference values and the accuracy gate verdict to one row."""
    key = (row["table"], row["overlap"])
    ref = REFERENCE_ROWS[key]
    floor = MIN_TEST_ACCURACY.get(key, DEFAULT_MIN_TEST_ACCURACY)
    return {
        **row,
        "ref_test_acc": ref["test_acc"],
        "ref_fisher_j": ref["fisher_j"],
        "min_test_acc": floor,
        "passed": row["test_acc"] >= floor,
    }


def fixed(value, digits: int) -> str:
    """``value`` to ``digits`` decimals, unsigned if it rounds to zero (round-off's sign varies by BLAS)."""
    return f"{round(float(value), digits) + 0.0:.{digits}f}"


def render_comparison(rows) -> str:
    """Human-readable comparison table with a pass/fail mark per row."""
    compared = [compare_row(r) for r in rows]
    header = (
        f"{'table':>5} {'family':<12} {'overlap':<8} {'threshold':>10} {'train':>7} "
        f"{'test':>7} {'ref test':>9} {'fisher':>10} {'ref fisher':>11} {'gate':>6} {'result':>7}"
    )
    lines = [header, "-" * len(header)]
    for r in compared:
        lines.append(
            f"{r['table']:>5} {r['family']:<12} {r['overlap']:<8} {fixed(r['fld_threshold'], 3):>10} "
            f"{r['train_acc']:>7.3f} {r['test_acc']:>7.3f} {r['ref_test_acc']:>9.2f} "
            f"{r['fisher_j']:>10.2f} {r['ref_fisher_j']:>11.2f} {r['min_test_acc']:>6.2f} "
            f"{'pass' if r['passed'] else 'FAIL':>7}"
        )
    n_pass = sum(r["passed"] for r in compared)
    lines.append(f"{n_pass}/{len(compared)} rows pass their accuracy gate "
                 "(thresholds and Fisher values are reported, not gated)")
    return "\n".join(lines)
