"""Test-only readers and reference values that the package itself never needs."""

import csv

from scipy.special import gamma


def read_table(path) -> list[dict[str, float | None]]:
    """Parse a CSV written by emit_table back into row dictionaries."""
    with open(path, newline="") as handle:
        return [
            {key: None if raw == "" else float(raw) for key, raw in record.items()}
            for record in csv.DictReader(handle)
        ]


def boundary_profile_constant(alpha: float) -> float:
    """Exact value of (-Delta)^alpha (1-x^2)^alpha on (-1, 1).

    The profile matched to the operator order is mapped to a constant:
    4^a Gamma(1/2+a) Gamma(1+a) / Gamma(1/2).  Used to validate the
    quadrature oracle itself.
    """
    return float(4.0**alpha * gamma(0.5 + alpha) * gamma(1.0 + alpha) / gamma(0.5))
