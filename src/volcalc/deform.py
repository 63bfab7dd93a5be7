"""Parabolic rescaling family: hbar-scaled symbols and kernels.

The scaling action on space-time chart coordinates is
alpha_lam(x, z, hbar) = (x, delta_lam z, hbar/lam) with the anisotropic
dilation delta_lam(zeta, t) = (lam*zeta, lam^2*t).  The family member at
hbar is hbar^{-d-2} k(x, zeta*hbar, t*hbar^2); hbar = 1 returns the base
object and hbar = 0 the model object built from the principal piece.  The
hbar slot of the action is tracked as metadata only.
"""

from __future__ import annotations

import numpy as np

from .symcore import DomainError, ParabolicSymbol
from .volterra import CausalKernel

__all__ = [
    "ScaledFamily",
    "rescale_symbol",
    "rescale_kernel",
    "model_kernel",
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


def rescale_kernel(k: CausalKernel, hbar) -> CausalKernel:
    """(zeta, t) -> hbar^{-d-2} k(x, zeta*hbar, t*hbar^2), hbar > 0.

    Each closed-form piece is strictly homogeneous: substituting xi -> xi/hbar
    in its Gaussian transform shows the rescale is the scalar factor
    hbar^(2*tpow - |beta| - 2d - 2) on the coefficient (equivalently
    hbar^(-s - 2(d+2)) for a piece of symbol degree s).  Support in {t >= 0}
    is untouched.
    """
    hbar = float(hbar)
    if hbar <= 0.0:
        raise DomainError("hbar must be positive; at hbar = 0 use model_kernel")
    d = k.dim
    out = []
    from .volterra import KernelPiece

    for p in k.pieces:
        factor = hbar ** (2 * p.tpow - sum(p.beta) - 2 * d - 2)
        out.append(KernelPiece(p.coeff.scale(factor), p.beta, p.tpow))
    return CausalKernel(k.form, out)


def model_kernel(k: CausalKernel) -> CausalKernel:
    """hbar = 0 member: the kernel of the principal (top-degree) piece."""
    return k.top_pieces()


class ScaledFamily:
    """hbar in [0, 1] family over a base symbol or causal kernel of known order."""

    def __init__(self, base, order=None):
        self.base = base
        if order is not None:
            self.order = int(order)
        elif isinstance(base, ParabolicSymbol):
            self.order = base.order
        elif isinstance(base, CausalKernel):
            degs = base.degrees()
            self.order = degs[0] if degs else 0
        else:
            raise TypeError("base must be a ParabolicSymbol or CausalKernel")

    def at(self, hbar):
        hbar = float(hbar)
        if not 0.0 <= hbar <= 1.0:
            raise DomainError("hbar must lie in [0, 1]")
        if isinstance(self.base, ParabolicSymbol):
            return rescale_symbol(self.base, hbar)
        if hbar == 0.0:
            return model_kernel(self.base)
        return rescale_kernel(self.base, hbar)

    def model(self):
        return self.at(0.0)


def homogeneity_defect(family: ScaledFamily, lam, x, zeta_grid, t_grid,
                       reference="self"):
    """Defect field lam^(-m-d-2) k(x, delta_lam^{-1}(zeta, t)) - ref(x, zeta, t).

    The pushforward under alpha_lam is plain composition with
    delta_lam^{-1}: the lam^(d+2) density factor of the distributional
    definition cancels against the Jacobian of the change of variables.
    reference="self" compares against the base kernel (defect vanishes
    identically for strictly homogeneous kernels and at lam = 1);
    reference="model" compares against the hbar = 0 member, under which the
    piece j orders below the top contributes exactly lam^-j, giving the
    lam^-1 decay rate for two-term parametrix families.

    Returns (field, sup_norm) on the sample grid.
    """
    lam = float(lam)
    if not 0 < lam < np.inf:
        raise DomainError("lam must be positive and finite")
    base = family.base
    if not isinstance(base, CausalKernel):
        raise TypeError("homogeneity_defect operates on kernel families")
    m = family.order
    d = base.dim
    ref = base if reference == "self" else model_kernel(base)
    if reference not in ("self", "model"):
        raise DomainError(f"unknown reference {reference!r}")
    zeta_grid = np.atleast_2d(np.asarray(zeta_grid, dtype=float))
    t_grid = np.asarray(t_grid, dtype=float)
    field = np.empty((zeta_grid.shape[0], t_grid.size), dtype=complex)
    scale = lam ** (-m - d - 2)
    for i, z in enumerate(zeta_grid):
        for j, t in enumerate(t_grid):
            pushed = scale * base.eval_zeta(x, z / lam, t / lam**2)
            field[i, j] = pushed - ref.eval_zeta(x, z, t)
    return field, float(np.max(np.abs(field)))


def measure_scaling_check(lam, dim) -> float:
    """Jacobian determinant of delta_lam on R^d x R; equals lam^(d+2) exactly."""
    lam = float(lam)
    if not 0 < lam < np.inf:
        raise DomainError("lam must be positive and finite")
    jac = np.diag([lam] * int(dim) + [lam**2])
    return float(np.prod(np.diag(jac)))
