"""Short-time diagonal heat expansion from the causal parametrix.

The degree -2-j parametrix piece contributes q_j(x) * t^((j-d)/2) to the
diagonal kernel k(x; 0, t): its causal kernel is evaluated at (zeta, t) =
(0, 1) through closed-form Gaussian moments, and parabolic homogeneity
carries the t-dependence.  For a variable metric this is one batched pass
per piece over the whole sampling grid: the metric is read once as a stack
of matrices, and the moments come from one batched eigvalsh and inv.  Odd-j
coefficients vanish structurally (each odd-degree piece carries an odd
xi-moment), and the pipeline produces pure powers of t: the log slot is
identically zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .moments import gaussian_moment
from .symcore import _METRIC_GRID_N, CoefficientField, DomainError, grid_points
from .volterra import CausalKernel, OperatorSpec, _kernel_terms, operator_symbol, parametrix

__all__ = ["HeatCoefficient", "HeatExpansion", "heat_coefficients"]

MAX_INDEX = 8  # desk scale


@dataclass(frozen=True)
class HeatCoefficient:
    j: int
    exponent: float
    value: CoefficientField


class HeatExpansion:
    """k(x; 0, t) ~ sum_j q_j(x) t^((j-d)/2) with an (identically zero) log slot."""

    def __init__(self, dim, entries, log_coefficient, name):
        self.dim = dim
        self.entries = tuple(entries)
        self.log_coefficient = log_coefficient
        self.name = name
        exps = [e.exponent for e in self.entries]
        if any(b - a != 0.5 for a, b in zip(exps, exps[1:])):
            raise ValueError("exponents must increase in half-integer steps")

    def coefficient(self, j) -> CoefficientField:
        for e in self.entries:
            if e.j == j:
                return e.value
        raise KeyError(f"no coefficient with index {j}")

    def __repr__(self):
        return f"HeatExpansion({self.name}, d={self.dim}, J={self.entries[-1].j})"


def heat_coefficients(op: OperatorSpec, max_index: int) -> HeatExpansion:
    """Diagonal heat coefficients q_0 .. q_max_index of d/dt + A.

    Constant metric: q_j assembled exactly as trig polynomials.  Variable
    metric: the closed-form diagonal (which involves det(g)^{-1/2} and
    inverse metric moments) is evaluated in one batched pass over a
    128-point grid per dimension, one diagonal_value call per graded piece,
    and projected back to a trig polynomial; the coefficients are analytic
    in x, so the projection converges spectrally.
    """
    return _heat_coefficients(op, max_index)[0]


def _heat_coefficients(op, max_index):
    """heat_coefficients, also returning {j: grid samples of q_j} for the
    q_j that were projected from the _METRIC_GRID_N-point grid (none for a
    constant metric).
    """
    if max_index > MAX_INDEX:
        raise DomainError(f"max_index limited to {MAX_INDEX}")
    if max_index < 0:
        raise DomainError("max_index must be >= 0")
    d = op.dim
    res = parametrix(operator_symbol(op), max_index)
    constant_metric = op.metric.is_constant()
    g0 = op.metric.matrix_at((0.0,) * d) if constant_metric else None
    points = None if constant_metric else grid_points(_METRIC_GRID_N, d)
    entries, samples = [], {}
    for j in range(max_index + 1):
        piece = res.symbol.graded_piece(-2 - j)
        if piece.is_zero():
            qj = CoefficientField.zero(d)
        elif constant_metric:
            qj = CoefficientField.zero(d)
            for beta, _, coeff in _kernel_terms(piece):  # the kernel at t = 1
                factor = (2.0 * np.pi) ** (-d) * gaussian_moment(beta, g0)
                qj = qj + coeff.scale(factor)
        else:
            vals = CausalKernel.from_symbol(piece).diagonal_value(points, 1.0)
            samples[j] = vals.reshape((_METRIC_GRID_N,) * d)
            qj = CoefficientField.from_grid(samples[j])
        entries.append(HeatCoefficient(j, (j - d) / 2.0, qj))
    return HeatExpansion(d, entries, CoefficientField.zero(d), op.name), samples


def _projection_certificate(expansion, samples):
    """Report rows (label, value) that bound the grid projection of q_j.

    The tail is the largest amplitude with some |k_i| >= 3n/8 in the FFT of
    the n-point samples, before from_grid prunes; the grid difference is the
    largest coefficient change when q_j is projected from every other
    sample instead.  Those are the samples of an n/2-point grid bit for bit
    (2*pi*2j/n is 2*pi*j/(n/2) in floats), so no second pass is made.
    """
    n = next(iter(samples.values())).shape[0]
    far = 3 * n // 8
    tail = diff = 0.0
    for j, vals in samples.items():
        coef = np.fft.fftshift(np.fft.fftn(vals) / vals.size)
        kmax = np.max(np.abs(np.indices(vals.shape) - n // 2), axis=0)
        tail = max(tail, float(np.max(np.abs(coef[kmax >= far]))))
        coarse = CoefficientField.from_grid(vals[(slice(None, None, 2),) * vals.ndim])
        diff = max(diff, (expansion.coefficient(j) - coarse).norm_inf())
    return [(f"grid tail max|c_k| at max|k_i| >= {far} ({n} points)", tail),
            (f"grid {n // 2} vs {n} points max coefficient difference", diff)]
