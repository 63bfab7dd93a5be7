"""Causal (Volterra) operator calculus on the flat torus.

Covers the operator-to-symbol map for second-order heat generators,
the # composition with its finite expansion, the recursive parametrix
of d/dt + A, closed-form causal kernels for resolvent powers, and an
FFT-based causality verifier.

Kernel convention: k(zeta, t) = (2*pi)^-(d+1) iint e^{+i(<zeta,xi> + t*tau)}
q(x, xi, tau) dxi dtau, so holomorphy of q in Im tau < 0 forces support in
{t >= 0}, and d/dt maps to i*tau, d/dzeta_j to i*xi_j.  Under this choice
Lambda^{-1} inverts i*tau + G(xi, xi) with the causal kernel
exp(-t*G(xi, xi)) H(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _cartesian
from typing import NamedTuple

import numpy as np

from .moments import _gaussian_factors, central_moment
from .symcore import (
    CoefficientField,
    DomainError,
    ParabolicSymbol,
    QuadraticForm,
    lambda_power,
    multi_indices,
    xi_monomial,
)

__all__ = [
    "OperatorSpec",
    "operator_symbol",
    "sharp_product",
    "sharp_exact",
    "ParametrixResult",
    "parametrix",
    "min_extension_index",
    "KernelPiece",
    "CausalKernel",
    "CausalityGrid",
    "causality_check",
    "anticausal_control",
    "NonIntegrableError",
    "ParametrixShapeError",
    "DegenerateGridError",
]


class NonIntegrableError(ValueError):
    """Term with lpow >= 0 has no integrable tau-decay; no causal extension here."""


class ParametrixShapeError(ValueError):
    """Input symbol is not a heat-operator symbol (principal piece != Lambda)."""


class DegenerateGridError(ValueError):
    """Causality grid is too coarse or empty."""


_SHARP_EXACT_CAP = 64  # sharp_exact stops at this order |alpha| if its sum has not ended


# ---------------------------------------------------------------------------
# operators and their symbols
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorSpec:
    """Second-order operator A = -g^ij(x) d_i d_j + b^j(x) d_j + V(x) on T^d.

    All coefficients are real-valued trig polynomials; the metric g must be
    positive definite (validated by QuadraticForm).
    """

    metric: QuadraticForm
    drift: tuple
    potential: CoefficientField
    name: str = "operator"

    def __post_init__(self):
        d = self.metric.dim
        if len(self.drift) != d:
            raise ValueError("drift must have one component per coordinate")
        for i in range(d):
            for j in range(d):
                if not self.metric.entries[i][j].is_real():
                    raise ValueError("metric coefficients must be real-valued")
        for b in self.drift:
            if b.dim != d or not b.is_real():
                raise ValueError("drift coefficients must be real-valued")
        if self.potential.dim != d or not self.potential.is_real():
            raise ValueError("potential must be real-valued")

    @property
    def dim(self):
        return self.metric.dim

    @classmethod
    def laplacian(cls, dim, name="flat_laplacian"):
        d = dim
        return cls(QuadraticForm.flat(d),
                   tuple(CoefficientField.zero(d) for _ in range(d)),
                   CoefficientField.zero(d), name=name)

    def apply_fd(self, func, x, h=1e-4):
        """Apply A to a scalar callable by central finite differences.

        Independent of the symbol algebra; used as an oracle.
        """
        d = self.dim
        x = np.atleast_1d(np.asarray(x, dtype=float))
        val = 0.0 + 0.0j
        for i in range(d):
            for j in range(d):
                g = self.metric.entries[i][j].evaluate(x)
                if g == 0:
                    continue
                if i == j:
                    ei = np.zeros(d)
                    ei[i] = h
                    dd = (func(x + ei) - 2.0 * func(x) + func(x - ei)) / h**2
                else:
                    ei = np.zeros(d)
                    ej = np.zeros(d)
                    ei[i] = h
                    ej[j] = h
                    dd = (func(x + ei + ej) - func(x + ei - ej)
                          - func(x - ei + ej) + func(x - ei - ej)) / (4.0 * h**2)
                val -= g * dd
        for j in range(d):
            b = self.drift[j].evaluate(x)
            if b != 0:
                ej = np.zeros(d)
                ej[j] = h
                val += b * (func(x + ej) - func(x - ej)) / (2.0 * h)
        val += self.potential.evaluate(x) * func(x)
        return val


def operator_symbol(op: OperatorSpec) -> ParabolicSymbol:
    """Full symbol of d/dt + A: i*tau + G(x)(xi,xi) + i*b(x).xi + V(x).

    In canonical form this is Lambda + i*b(x).xi + V(x) with graded pieces
    of degree 2, 1 and 0.  Exact: differential operators have no remainder.
    """
    d = op.dim
    tmap = {((0,) * d, 1): CoefficientField.constant(d, 1.0)}
    for j in range(d):
        tmap[(tuple(int(i == j) for i in range(d)), 0)] = op.drift[j].scale(1j)
    tmap[((0,) * d, 0)] = op.potential
    return ParabolicSymbol(op.metric, tmap, order=2)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def _derivative_chain(q, cache, alpha, kind):
    """d_kind^alpha q (kind 'xi' or 'x'), from the cached parent one order lower."""
    if alpha in cache:
        return cache[alpha]
    axis = next(a for a, v in enumerate(alpha) if v > 0)
    parent = list(alpha)
    parent[axis] -= 1
    base = _derivative_chain(q, cache, tuple(parent), kind)
    out = base.deriv((kind, axis))
    cache[alpha] = out
    return out


def _sharp_sum(q1, q2, max_order):
    d = q1.dim
    dxi = {(0,) * d: q1}
    dx = {(0,) * d: q2}
    total = ParabolicSymbol.zero(q1.form, order=q1.order + q2.order)
    for order in range(max_order):
        alive = False
        for alpha in multi_indices(d, order):
            da = _derivative_chain(q1, dxi, alpha, "xi")
            if da.is_zero():
                continue
            alive = True
            db = _derivative_chain(q2, dx, alpha, "x")
            if db.is_zero():
                continue
            fact = math.prod(math.factorial(a) for a in alpha)
            coef = (-1j) ** order / fact
            total = total + (da * db).scale(coef)
        if not alive and order > 0:
            break
    return total


def sharp_product(q1: ParabolicSymbol, q2: ParabolicSymbol, depth: int) -> ParabolicSymbol:
    """Composition expansion sum_{|alpha| < depth} (1/alpha!) (d_xi^alpha q1) (D_x^alpha q2).

    D_x = -i d_x acts on the right factor.  The result is truncated to graded
    degrees >= order(q1) + order(q2) - depth + 1.  When q1 is polynomial in
    xi of degree < depth the alpha sum terminates and the product is exact.
    """
    if depth < 1:
        raise DomainError("expansion depth must be >= 1")
    q1._check_form(q2)
    total = _sharp_sum(q1, q2, depth)
    return total.truncate_below(q1.order + q2.order - depth + 1)


def sharp_exact(q1: ParabolicSymbol, q2: ParabolicSymbol) -> ParabolicSymbol:
    """Exact # product; requires q1 polynomial in xi so the sum terminates."""
    if any(l < 0 for (_, l) in q1.term_map()):
        raise DomainError("exact composition needs a polynomial left factor")
    q1._check_form(q2)
    return _sharp_sum(q1, q2, _SHARP_EXACT_CAP)


# ---------------------------------------------------------------------------
# parametrix
# ---------------------------------------------------------------------------


class ParametrixResult(NamedTuple):
    symbol: ParabolicSymbol
    defect: ParabolicSymbol


def parametrix(p: ParabolicSymbol, depth: int) -> ParametrixResult:
    """Approximate inverse of a heat symbol p = Lambda + lower order.

    Returns q with graded pieces q_{-2}, ..., q_{-2-depth}, built by the
    recursion q_{-2} = Lambda^{-1},

        q_{-2-j} = -Lambda^{-1} * [degree -j piece of (p # q_{<j} - 1)],

    and the exact defect p # q - 1, which carries no graded component of
    degree > -depth - 1 (killed components are dropped as symbolic zeros
    after an internal cancellation check).
    """
    if depth < 0:
        raise DomainError("depth must be >= 0")
    principal = p.graded_piece(2)
    expect = lambda_power(p.form, 1)
    if p.order != 2 or not principal.allclose(expect, tol=1e-14):
        raise ParametrixShapeError(
            "principal piece must equal Lambda; build p via operator_symbol")
    lam_inv = lambda_power(p.form, -1)
    one = ParabolicSymbol.constant(p.form, 1.0)
    q = lam_inv
    defect = sharp_exact(p, lam_inv) - one
    for j in range(1, depth + 1):
        comp = defect.graded_piece(-j)
        if comp.is_zero():
            continue
        piece = (lam_inv * comp).scale(-1.0)
        q = q + piece
        defect = defect + sharp_exact(p, piece)
    scale = max(q.coeff_norm(), p.coeff_norm(), 1.0)
    for s in defect.degrees():
        if s > -depth - 1:
            residue = defect.piece_norm(s)
            if residue > 1e-9 * scale:
                raise ArithmeticError(
                    f"parametrix recursion left degree {s} residue {residue:.2e}")
    cleaned = {k: c for k, c in defect.term_map().items()
               if sum(k[0]) + 2 * k[1] <= -depth - 1}
    defect = ParabolicSymbol(p.form, cleaned, order=-depth - 1)
    return ParametrixResult(q, defect)


def min_extension_index(m: int, d: int) -> int:
    """Smallest j >= 0 with m + 2j > -(d + 2).

    d + 2 is the homogeneous dimension of the space-time fiber; below the
    threshold the homogeneous function is not locally integrable and the
    causal extension needs j tau-antiderivatives.
    """
    if d < 1:
        raise DomainError("dimension must be >= 1")
    m = int(m)
    d = int(d)
    if m > -(d + 2):
        return 0
    c = -(d + 2) - m
    return c // 2 + 1


# ---------------------------------------------------------------------------
# causal kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelPiece:
    """coeff(x) * xi^beta * t^tpow * exp(-t*G(x)(xi,xi)) * H(t)."""

    coeff: CoefficientField
    beta: tuple
    tpow: int


class CausalKernel:
    """Closed-form causal kernel: sum of KernelPiece over a shared form.

    Each piece is the exact inverse tau-transform of one canonical symbol
    term with lpow <= -1; the value vanishes identically for t < 0.
    """

    def __init__(self, form: QuadraticForm, pieces):
        self.form = form
        self.pieces = tuple(pieces)

    @property
    def dim(self):
        return self.form.dim

    @classmethod
    def from_symbol(cls, q: ParabolicSymbol):
        pieces = []
        for term in q.terms():
            if term.lpow >= 0:
                raise NonIntegrableError(
                    f"term with lpow={term.lpow} >= 0 has no integrable extension")
            n = -term.lpow
            pieces.append(KernelPiece(term.coeff.scale(1.0 / math.factorial(n - 1)),
                                      term.beta, n - 1))
        return cls(q.form, pieces)

    def degrees(self):
        """Symbol degrees |beta| - 2*tpow - 2 of the underlying terms."""
        return sorted({sum(p.beta) - 2 * p.tpow - 2 for p in self.pieces}, reverse=True)

    def top_pieces(self):
        """Pieces of maximal symbol degree (the model kernel at hbar = 0)."""
        if not self.pieces:
            return CausalKernel(self.form, ())
        top = max(self.degrees())
        return CausalKernel(self.form, [p for p in self.pieces
                                        if sum(p.beta) - 2 * p.tpow - 2 == top])

    def __add__(self, other):
        if self.form != other.form:
            raise ValueError("kernels over different forms")
        return CausalKernel(self.form, self.pieces + other.pieces)

    def eval_xi(self, x, xi, t):
        """Partial-transform value k~(x, xi, t); exactly 0 for t < 0."""
        t = np.asarray(t, dtype=float)
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        a = self.form.value(x, xi)
        out = np.zeros(t.shape, dtype=complex)
        pos = t >= 0
        for p in self.pieces:
            out[pos] += (p.coeff.evaluate(x) * xi_monomial(xi, p.beta)
                         * t[pos] ** p.tpow * np.exp(-t[pos] * a))
        return out if out.ndim else complex(out)

    def eval_zeta(self, x, zeta, t):
        """Full (zeta, t) value at one point, via the Gaussian xi-integral.

        int xi^beta e^{i<zeta,xi>} e^{-t G(xi,xi)} dxi is reduced to central
        moments of the covariance (2 t G)^{-1} after the complex shift
        xi -> xi + i (2t)^{-1} G^{-1} zeta.
        """
        t = float(t)
        if t < 0:
            return 0.0 + 0.0j
        if t == 0.0:
            raise DomainError("closed-form zeta evaluation needs t > 0")
        d = self.dim
        zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
        g = self.form.matrix_at(x)
        ginv = np.linalg.inv(g)
        det = np.linalg.det(g)
        base = (np.pi / t) ** (d / 2.0) / np.sqrt(det) * \
            np.exp(-float(zeta @ ginv @ zeta) / (4.0 * t))
        mu = ginv @ zeta / (2.0 * t)
        sigma = ginv / (2.0 * t)
        total = 0.0 + 0.0j
        for p in self.pieces:
            shift = 0.0 + 0.0j
            ranges = [range(b + 1) for b in p.beta]
            for gamma in _cartesian(*ranges):
                comb = math.prod(math.comb(b, c) for b, c in zip(p.beta, gamma))
                imu = math.prod((1j * mu[ax]) ** (b - c)
                                for ax, (b, c) in enumerate(zip(p.beta, gamma)))
                shift += comb * imu * central_moment(gamma, sigma)
            total += p.coeff.evaluate(x) * t ** p.tpow * shift
        return (2.0 * np.pi) ** (-d) * base * total

    def diagonal_value(self, x, t):
        """k(x; 0, t): the xi-integral collapses to plain Gaussian moments.

        x is one point or an (N, d) batch; t is a scalar or an array.  A batch
        reads the metric once as a stacked (N, d, d) array; its value has
        shape (N,) + t.shape, so a scalar t gives one value per point.  The
        metric is checked and factorised once per call, and pieces of odd
        |beta| (zero moments) are skipped.
        """
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0):
            raise DomainError("diagonal value needs t > 0")
        d = self.dim
        g = self.form.matrix_at(x)
        norm, sigma = _gaussian_factors(g)
        out = np.zeros(g.shape[:-2] + t.shape, dtype=complex)
        for p in self.pieces:
            if sum(p.beta) % 2 == 1:
                continue
            weight = p.coeff.evaluate(x) * (norm * central_moment(p.beta, sigma))
            out += np.multiply.outer(weight, t ** (p.tpow - (d + sum(p.beta)) / 2.0))
        out *= (2.0 * np.pi) ** (-d)
        return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# causality verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CausalityGrid:
    """tau sampling for the FFT support check; by default fine enough that the
    slow t^p kernels of deep parametrix pieces do not wrap around in t."""

    n_tau: int = 16384
    tau_max: float = 200.0

    def __post_init__(self):
        if self.n_tau < 64 or not 0 < self.tau_max < math.inf:
            raise DegenerateGridError("need n_tau >= 64 and a finite tau_max > 0")


# Causal edge window: poles in the upper half-plane only, so it cannot leak
# kernel mass into t < 0; it suppresses the hard cutoff at |tau| = tau_max.
_EDGE_SHARPNESS = 16.0
_EDGE_POWER = 6.0
_NOISE_FLOOR = 1e-12
_REG_EPS = 1e-3
_GUARD_STEPS = 2
_EDGE_FRACTION = 0.05


def _sample_points(dim):
    if dim == 1:
        xs = [0.0, 1.3, 2.9]
        xis = [(1.0,), (-1.4,)]
    else:
        xs = [(0.0,) * dim, tuple(0.9 + 0.4 * i for i in range(dim))]
        xis = [tuple(1.0 if i == 0 else 0.3 for i in range(dim)),
               tuple(-0.8 if i == dim - 1 else 0.6 for i in range(dim))]
    return xs, xis


def causality_check(obj, grid=None, dim=None):
    """Support-in-{t >= 0} verification; returns max_neg |k| / max |k|.

    The symbol is multiplied by the regularizer (1 + i*_REG_EPS*tau)^-(d+3)
    and a causal edge window, sampled on the tau grid, and inverse transformed
    per fixed (x, xi) of _sample_points.  A guard band of _GUARD_STEPS around
    t = 0 and the outer _EDGE_FRACTION of the periodic t-range are excluded
    from the negative-side maximum.  Sample points whose kernel maximum is at
    rounding level (at most _NOISE_FLOOR times the largest over all points)
    are skipped: the symbol vanishes there, and the kernel is rounding noise
    that says nothing about support.  Ratio 0 by convention for an
    identically zero input.
    """
    grid = grid or CausalityGrid()
    if isinstance(obj, ParabolicSymbol):
        d = obj.dim
        evaluate = obj.evaluate
    elif callable(obj):
        if dim is None:
            raise ValueError("callable symbols need an explicit dim")
        d = dim
        evaluate = obj
    else:
        raise TypeError(f"cannot check causality of {type(obj).__name__}")
    xs, xis = _sample_points(d)

    n, T = grid.n_tau, grid.tau_max
    dtau = 2.0 * T / n
    taus = -T + dtau * np.arange(n)
    reg = (1.0 + 1j * _REG_EPS * taus) ** (-float(d + 3))
    window = (1.0 + 1j * _EDGE_SHARPNESS * taus / T) ** (-_EDGE_POWER)
    dt = 2.0 * np.pi / (n * dtau)
    mm = np.arange(n)
    tm = np.where(mm < n // 2, mm * dt, (mm - n) * dt)
    phase = np.exp(-1j * tm * T)
    t_edge = np.pi / dtau
    neg_mask = (tm <= -_GUARD_STEPS * dt) & (tm >= -(1.0 - _EDGE_FRACTION) * t_edge)

    peaks = []
    for x in xs:
        for xi in xis:
            qv = np.asarray(evaluate(x, xi, taus), dtype=complex)
            kv = (n * dtau / (2.0 * np.pi)) * np.fft.ifft(qv * reg * window) * phase
            peaks.append((float(np.max(np.abs(kv))), float(np.max(np.abs(kv[neg_mask])))))
    top = max((mx for mx, _ in peaks), default=0.0)
    return max((neg / mx for mx, neg in peaks if mx > _NOISE_FLOOR * top), default=0.0)


def anticausal_control(form: QuadraticForm):
    """Evaluator for (-i*tau + G(xi,xi))^{-1}: pole in the lower half-plane.

    A correct support check must fail on it; used as the negative control.
    """

    def evaluate(x, xi, taus):
        a = form.value(x, np.atleast_1d(np.asarray(xi, dtype=float)))
        return 1.0 / (-1j * np.asarray(taus) + a)

    return evaluate
