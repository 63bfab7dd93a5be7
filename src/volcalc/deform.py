"""Parabolic rescaling family: hbar-scaled symbols, homogeneity defects of
causal kernels and the measure scaling.

The scaling action on space-time chart coordinates is
alpha_lam(x, z, hbar) = (x, delta_lam z, hbar/lam) with the anisotropic
dilation delta_lam(zeta, t) = (lam*zeta, lam^2*t).  The symbol member at
hbar is q(x, hbar*xi, hbar^2*tau); hbar = 1 returns the base symbol and
hbar = 0 its principal piece.  The hbar slot of the action is tracked as
metadata only.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .symcore import DomainError, ParabolicSymbol
from .volterra import CausalKernel

__all__ = [
    "ScaledFamily",
    "rescale_symbol",
    "homogeneity_defect",
    "measure_scaling_check",
]


def rescale_symbol(q: ParabolicSymbol, hbar) -> ParabolicSymbol:
    """q(x, hbar*xi, hbar^2*tau); the hbar = 0 member is the principal piece."""
    hbar = float(hbar)
    if not 0.0 <= hbar <= 1.0:
        raise DomainError("hbar must lie in [0, 1]")
    if hbar == 0.0:
        return q.principal_part()
    return q.dilate(hbar)


class ScaledFamily:
    """A causal kernel and the order m of its family; the hbar = 0 (model)
    member is the kernel of its symbol's principal part."""

    def __init__(self, base: CausalKernel, order):
        self.base = base
        self.order = int(order)


def _dilation(lam, dim):
    """lam as a float, refused unless lam^(d+2) and lam^-(d+2) are normal floats."""
    lam = float(lam)
    if not 0 < lam < np.inf:
        raise DomainError("lam must be positive and finite")
    power = Fraction(lam) ** (int(dim) + 2)
    # the smaller of power and 1/power is the binding one: 1/tiny < float max
    if min(power, 1 / power) < np.finfo(float).tiny:
        raise DomainError(f"lam = {lam:g}: lam^(d+2) or lam^-(d+2) is not a "
                          f"normal float for d = {dim}")
    return lam


def homogeneity_defect(family: ScaledFamily, lam, x, zeta_grid, t_grid, reference):
    """Defect field lam^(-m-d-2) k(x, delta_lam^{-1}(zeta, t)) - ref(x, zeta, t).

    The pushforward under alpha_lam is plain composition with
    delta_lam^{-1}: the lam^(d+2) density factor of the distributional
    definition cancels against the Jacobian of the change of variables.
    reference="self" compares against the base kernel (defect vanishes
    identically for strictly homogeneous kernels and at lam = 1);
    reference="model" compares against the hbar = 0 member (the kernel of
    the symbol's principal part, as in rescale_symbol), under which the
    piece j orders below the top contributes exactly lam^-j, giving the
    lam^-1 decay rate for two-term parametrix families.  Each side is one
    eval_zeta call over the whole grid.

    Returns (field, sup_norm) on the sample grid.
    """
    base = family.base
    if not isinstance(base, CausalKernel):
        raise TypeError("homogeneity_defect operates on kernel families")
    if reference not in ("self", "model"):
        raise DomainError(f"unknown reference {reference!r}")
    d = base.symbol.dim
    lam = _dilation(lam, d)
    ref = base if reference == "self" else \
        CausalKernel.from_symbol(base.symbol.principal_part())
    zeta_grid = np.atleast_2d(np.asarray(zeta_grid, dtype=float))
    t_grid = np.asarray(t_grid, dtype=float).ravel()
    pushed = lam ** (-family.order - d - 2) * base.eval_zeta(x, zeta_grid / lam, t_grid / lam**2)
    field = pushed - ref.eval_zeta(x, zeta_grid, t_grid)
    return field, float(np.max(np.abs(field)))


def measure_scaling_check(lam, dim) -> Fraction:
    """Jacobian determinant of delta_lam on R^d x R, in exact rational
    arithmetic, so it equals lam^(d+2) exactly."""
    lam = Fraction(_dilation(lam, dim))
    return math.prod([lam] * int(dim) + [lam**2])
