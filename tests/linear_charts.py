"""The canonical structure in a linear chart, for tests that need a constant
structure whose matrix C (X_f = C df) has inexact entries and whose eta is
not dt."""

import math

import numpy as np

from cosymkit.cosym import CosymplecticStructure, ToleranceConfig, make_canonical
from cosymkit.fields import ChartSpec, OneFormField, TwoFormField

CHART = ChartSpec(("t", "q", "p"), (False, False, False))
BOX = ((0.0, 2 * math.pi), (-2.0, 2.0), (-2.0, 2.0))


def chart_change(seed: int) -> np.ndarray:
    """A seeded 3x3 matrix with entries in [-2, 2] and |det| >= 0.5."""
    rng = np.random.default_rng(seed)
    while True:
        P = rng.uniform(-2.0, 2.0, size=(3, 3))
        if abs(np.linalg.det(P)) >= 0.5:
            return P


def canonical_in_linear_chart(P, varying: bool = False, tol=None) -> CosymplecticStructure:
    """``make_canonical(1)`` pulled back by ``x = P y``: ``Omega' = P^T Omega
    P`` and ``eta' = P^T eta``.  With ``varying`` every component is written
    ``c + 0*q``, the same numbers in a form that is not constant."""
    base = make_canonical(1)
    x0 = np.zeros(3)
    W = P.T @ base.omega.at(x0) @ P
    e = P.T @ base.eta.at(x0)
    term = "{!r} + 0*q" if varying else "{!r}"
    names = CHART.names
    upper = {
        f"{names[i]},{names[j]}": term.format(float(W[i, j]))
        for i in range(3)
        for j in range(i + 1, 3)
    }
    omega = TwoFormField.from_upper_sources(upper, CHART)
    eta = OneFormField.from_sources([term.format(float(v)) for v in e], CHART)
    return CosymplecticStructure(CHART, omega, eta, BOX, None, tol or ToleranceConfig())
