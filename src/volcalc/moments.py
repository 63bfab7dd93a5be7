"""Closed-form Gaussian moment integrals.

gaussian_moment computes int_{R^d} xi^beta exp(-G(xi, xi)) dxi exactly:
zero for odd total degree, otherwise the Wick/Isserlis pairing sum with
covariance (1/2) G^{-1} and normalization pi^(d/2) det(G)^(-1/2).  The
pairing sum is evaluated by the Stein recursion

    E[xi_i * xi^gamma] = sum_j Sigma_ij * gamma_j * E[xi^(gamma - e_j)]

with memoization, which stays polynomial in |beta|.  Sigma may carry
trailing axes (shape (d, d, N)); the moment is then an array over them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["gaussian_moment", "central_moment"]


def central_moment(beta, sigma) -> complex:
    """E[xi^beta] for a centered Gaussian with covariance matrix `sigma`."""
    beta = tuple(int(b) for b in beta)
    if any(b < 0 for b in beta):
        raise ValueError("multi-index must be nonnegative")
    sigma = np.asarray(sigma)
    cache = {}

    def rec(gamma):
        if sum(gamma) == 0:
            return 1.0
        if sum(gamma) % 2 == 1:
            return 0.0
        val = cache.get(gamma)
        if val is not None:
            return val
        i = next(a for a, g in enumerate(gamma) if g > 0)
        rest = list(gamma)
        rest[i] -= 1
        total = 0.0
        for j, gj in enumerate(rest):
            if gj == 0:
                continue
            nxt = list(rest)
            nxt[j] -= 1
            total += sigma[i, j] * gj * rec(tuple(nxt))
        cache[gamma] = total
        return total

    return rec(beta)


def _gaussian_factors(form_matrix):
    """Check G and factorise it: (pi^(d/2) det(G)^(-1/2), Sigma = G^{-1} / 2).

    One batched eigvalsh (determinant and positivity check) and one batched
    inv for a stack of matrices (shape (N, d, d)); the normalisation then has
    shape (N,) and Sigma shape (d, d, N), the layout central_moment takes.
    """
    g = np.atleast_2d(np.asarray(form_matrix, dtype=float))
    d = g.shape[-1]
    if g.ndim > 3 or g.shape[-2] != d:
        raise ValueError("form matrix must be square, or a stack of square matrices")
    asym = np.max(np.abs(g - np.swapaxes(g, -1, -2)), axis=(-2, -1))
    if np.any(asym > 1e-12 * np.maximum(1.0, np.max(np.abs(g), axis=(-2, -1)))):
        raise ValueError("form matrix must be symmetric")
    eigs = np.linalg.eigvalsh(g)
    if eigs.min() <= 0:
        raise ValueError(f"form matrix not positive definite (min eig {eigs.min():.3e})")
    norm = np.pi ** (d / 2.0) / np.sqrt(np.prod(eigs, axis=-1))
    sigma = 0.5 * np.linalg.inv(g)
    return norm, (np.moveaxis(sigma, 0, -1) if g.ndim == 3 else sigma)


def gaussian_moment(beta, form_matrix):
    """int xi^beta exp(-<G xi, xi>) dxi for a positive definite matrix G.

    A stack of matrices (shape (N, d, d)) gives one moment per matrix, from
    one _gaussian_factors call: the Stein recursion only adds and multiplies,
    so it runs once with each Sigma entry an array over the stack.
    """
    beta = tuple(int(b) for b in beta)
    g = np.atleast_2d(np.asarray(form_matrix, dtype=float))
    if len(beta) != g.shape[-1]:
        raise ValueError("shape mismatch between beta and form matrix")
    norm, sigma = _gaussian_factors(g)
    if sum(beta) % 2 == 1:
        return np.zeros(len(g)) if g.ndim == 3 else 0.0
    if g.ndim == 2:
        return float(norm * central_moment(beta, sigma))
    return norm * central_moment(beta, sigma)
