"""Trigonometric coefficient fields for tests, built from amplitude dicts
as the spec loader builds them."""

from volcalc.symcore import CoefficientField


def harmonic(dim, freq, amplitude=1.0):
    """amplitude * e^{i<freq, x>}."""
    return CoefficientField(dim, {tuple(freq): amplitude})


def cosine(dim, freq, amplitude=1.0):
    """amplitude * cos(<freq, x>)."""
    minus = tuple(-f for f in freq)
    return CoefficientField(dim, {tuple(freq): amplitude / 2.0, minus: amplitude / 2.0})


def sine(dim, freq, amplitude=1.0):
    """amplitude * sin(<freq, x>)."""
    minus = tuple(-f for f in freq)
    return CoefficientField(dim, {tuple(freq): amplitude / 2.0j, minus: -amplitude / 2.0j})
