"""Closed forms that tests check the library against."""

import math

from smalldev import spectra


def closed_form_covariance(model: spectra.SpectralModel, t: float) -> float | None:
    """Closed covariance for nu in {1, 2} and the bandlimited family, an
    independent cross-check of the quadrature path; None when no closed form
    is available."""
    t = float(t)
    if model.kind == spectra.CONTINUOUS_NU and model.nu == 1.0:
        return 2.0 / (1.0 + t * t)
    if model.kind == spectra.CONTINUOUS_NU and model.nu == 2.0:
        return math.sqrt(math.pi) * math.exp(-t * t / 4.0)
    if model.kind == spectra.BANDLIMITED:
        c = model.cutoff
        if t == 0.0:
            return 2.0 * c
        return 2.0 * math.sin(c * t) / t
    return None
