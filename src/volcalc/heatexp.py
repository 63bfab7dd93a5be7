"""Short-time diagonal heat expansion from the causal parametrix.

The degree -2-j parametrix piece contributes q_j(x) * t^((j-d)/2) to the
diagonal kernel k(x; 0, t): its causal kernel is evaluated at (zeta, t) =
(0, 1) through closed-form Gaussian moments, and parabolic homogeneity
carries the t-dependence.  Odd-j coefficients vanish structurally (each
odd-degree piece carries an odd xi-moment), and the pipeline produces pure
powers of t: the log slot is identically zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .moments import gaussian_moment
from .symcore import CoefficientField, DomainError
from .volterra import CausalKernel, OperatorSpec, operator_symbol, parametrix

__all__ = ["HeatCoefficient", "HeatExpansion", "heat_coefficients"]

MAX_INDEX = 8  # desk scale

_GRID_N = 128


@dataclass(frozen=True)
class HeatCoefficient:
    j: int
    exponent: float
    value: CoefficientField


class HeatExpansion:
    """k(x; 0, t) ~ sum_j q_j(x) t^((j-d)/2) with an (identically zero) log slot."""

    def __init__(self, dim, entries, log_coefficient=None, name="operator"):
        self.dim = dim
        self.order = 2
        self.entries = tuple(entries)
        self.log_coefficient = log_coefficient or CoefficientField.zero(dim)
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
    inverse metric moments) is sampled on a 128-point grid per dimension and
    projected back to a trig polynomial; the coefficients are analytic in x,
    so the projection converges spectrally.
    """
    if max_index > MAX_INDEX:
        raise DomainError(f"max_index limited to {MAX_INDEX}")
    if max_index < 0:
        raise DomainError("max_index must be >= 0")
    d = op.dim
    res = parametrix(operator_symbol(op), max_index)
    constant_metric = op.metric.is_constant()
    g0 = op.metric.matrix_at((0.0,) * d) if constant_metric else None
    entries = []
    for j in range(max_index + 1):
        piece = res.symbol.graded_piece(-2 - j)
        if piece.is_zero():
            qj = CoefficientField.zero(d)
        elif constant_metric:
            qj = CoefficientField.zero(d)
            for kp in CausalKernel.from_symbol(piece).pieces:
                factor = (2.0 * np.pi) ** (-d) * gaussian_moment(kp.beta, g0)
                qj = qj + kp.coeff.scale(factor)
        else:
            kern = CausalKernel.from_symbol(piece)
            axes = [2.0 * np.pi * np.arange(_GRID_N) / _GRID_N] * d
            mesh = np.meshgrid(*axes, indexing="ij")
            vals = np.zeros(mesh[0].shape, dtype=complex)
            for idx in np.ndindex(mesh[0].shape):
                x = tuple(m[idx] for m in mesh)
                vals[idx] = kern.diagonal_value(x if d > 1 else x[0], 1.0)
            qj = CoefficientField.from_grid(vals)
        entries.append(HeatCoefficient(j, (j - d) / 2.0, qj))
    return HeatExpansion(d, entries, CoefficientField.zero(d), name=op.name)
