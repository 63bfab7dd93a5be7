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
from typing import NamedTuple

import numpy as np

from .moments import _gaussian_factors, central_moment
from .symcore import (
    CoefficientField,
    DomainError,
    ParabolicSymbol,
    QuadraticForm,
    _centred_sum,
    _product_box,
    _products,
    lambda_power,
    multi_indices,
)

__all__ = [
    "OperatorSpec",
    "operator_symbol",
    "sharp_product",
    "sharp_exact",
    "ParametrixResult",
    "parametrix",
    "min_extension_index",
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


class DegenerateGridError(DomainError):
    """Causality grid is too coarse, too large, empty or not representable in floats."""


# ---------------------------------------------------------------------------
# operators and their symbols
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorSpec:
    """Second-order operator A = -g^ij(x) d_i d_j + b^j(x) d_j + V(x) on T^d.

    All coefficients are real-valued trig polynomials, accepted to 1e-12
    relative and stored exactly real (c_{-k} = conj(c_k)): the metric g by
    QuadraticForm, which also checks that it is positive definite, and the
    drift and potential here.
    """

    metric: QuadraticForm
    drift: tuple
    potential: CoefficientField
    name: str = "operator"

    def __post_init__(self):
        d = self.metric.dim
        if len(self.drift) != d or any(f.dim != d for f in (*self.drift, self.potential)):
            raise ValueError(f"need {d} drift components and every field on T^{d}")
        object.__setattr__(self, "drift", tuple(b.real_part("drift coefficients")
                                                for b in self.drift))
        object.__setattr__(self, "potential", self.potential.real_part("potential"))

    @property
    def dim(self):
        return self.metric.dim


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


def _add_box(sums, key, box):
    """sums[key] += box; a key takes its place at its first nonzero box, as in _merged."""
    acc = sums.get(key)
    if acc is not None or np.count_nonzero(box):
        sums[key] = box if acc is None else _centred_sum(acc, box)


def _sharp_sum(q1, q2, max_order):
    """The # sum over |alpha| < max_order, ending after the first order > 0 at which
    every d_xi^alpha q1 is zero.  Per alpha, each key's product boxes are summed in
    product order and scaled once; per key, those sums are summed in alpha order and
    trimmed once.  That rounds as merging the terms of da * db, each coefficient scaled
    by coef, over alpha does, bit for bit and in key order (trims drop zero borders)."""
    d = q1.dim
    dxi, dx = {(0,) * d: q1}, {(0,) * d: q2}  # the derivative chains
    total = {}  # key: box, keys in the order _merged gives them
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
            sums = {}
            for key, box in _products(da, db, _product_box):
                _add_box(sums, key, box)
            for key, box in sums.items():
                _add_box(total, key, box if coef == 1 else coef * box)
        if not alive and order > 0:
            break
    fields = ((key, CoefficientField._from_box(d, box)) for key, box in total.items())
    return ParabolicSymbol._from_pairs(q1.form, fields, q1.order + q2.order)


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
    """Exact # product; requires q1 polynomial in xi so the sum terminates.

    Every term xi^beta Lambda^l of such a q1 is a polynomial of xi-degree
    |beta| + 2*l <= order(q1), so d_xi^alpha q1 = 0 once |alpha| > order(q1).
    """
    if any(l < 0 for (_, l) in q1.term_map()):
        raise DomainError("exact composition needs a polynomial left factor")
    q1._check_form(q2)
    return _sharp_sum(q1, q2, q1.order + 1)


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
    degree > -depth - 1.  Each step cancels its component exactly: the only
    degree -j part of p # q_{-2-j} is Lambda * q_{-2-j}, which the constant
    coefficient 1 of Lambda makes exactly the component's negative, so the
    sum drops its keys.  That needs a principal piece exactly equal to
    Lambda (operator_symbol writes it so); anything else is refused.
    """
    if depth < 0:
        raise DomainError("depth must be >= 0")
    if p.order != 2 or not p.graded_piece(2).allclose(lambda_power(p.form, 1), tol=0.0):
        raise ParametrixShapeError(
            "principal piece must equal Lambda; build p via operator_symbol")
    q = lambda_power(p.form, -1)
    minus_lam_inv = lambda_power(p.form, -1, -1.0)
    try:
        with np.errstate(over="raise", invalid="raise"):
            defect = sharp_exact(p, q) - lambda_power(p.form, 0)
            for j in range(1, depth + 1):
                comp = defect.graded_piece(-j)
                if comp.is_zero():
                    continue
                piece = minus_lam_inv * comp
                q = q + piece
                defect = defect + sharp_exact(p, piece)
    except FloatingPointError:
        raise DomainError(f"parametrix depth {depth}: its coefficients overflow floats") from None
    top = max(defect.degrees(), default=-depth - 1)
    if top > -depth - 1:
        raise ArithmeticError(f"parametrix recursion left degree {top}")
    # canonical key order: evaluate sums the terms in key order
    defect = ParabolicSymbol._from_pairs(p.form, defect.term_map().items(), -depth - 1)
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


def _kernel_terms(q):
    """(beta, n - 1, c / (n-1)!) per term c(x) xi^beta Lambda^-n of q, in
    canonical order: Lambda^-n is the tau-transform of
    t^(n-1)/(n-1)! exp(-t*G(x)(xi, xi)) H(t)."""
    return [(beta, -l - 1, c.scale(1.0 / math.factorial(-l - 1)))
            for (beta, l), c in q.term_map().items()]


class CausalKernel:
    """Closed-form causal kernel of a symbol whose terms all have l <= -1.

    The kernel is the inverse tau-transform of `symbol`, term by term
    (_kernel_terms), so it holds the symbol and nothing else; its value
    vanishes identically for t < 0.
    """

    __slots__ = ("symbol",)

    @classmethod
    def from_symbol(cls, q: ParabolicSymbol):
        """The kernel of q; NonIntegrableError for a term with l >= 0."""
        for _, lpow in q.term_map():
            if lpow >= 0:
                raise NonIntegrableError(
                    f"term with lpow={lpow} >= 0 has no integrable extension")
        kern = object.__new__(cls)
        kern.symbol = q
        return kern

    def eval_zeta(self, x, zeta, t):
        """Full (zeta, t) value at one point x, via the Gaussian xi-integral.

        zeta is one covector or a (k, d) stack of them and t a scalar or an
        array; the value has shape (k,) + t.shape for a stack, t.shape for
        one covector.  It is exactly 0 where t < 0, and t = 0 raises
        DomainError.  The metric is factorised once per call:
        int xi^beta e^{i<zeta,xi>} e^{-t G(xi,xi)} dxi is a moment of the
        Gaussian of covariance Sigma / t, Sigma = G^{-1} / 2, and complex mean
        i Sigma zeta / t: the shift xi -> xi + i Sigma zeta / t completes the
        square in the exponent.
        """
        t = np.asarray(t, dtype=float)
        if np.any(t == 0.0):
            raise DomainError("closed-form zeta evaluation needs t > 0")
        d = self.symbol.dim
        zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
        norm, sigma = _gaussian_factors(self.symbol.form.matrix_at(x))
        live = ~(t < 0)
        tl, inv = t[live], 1.0 / t[live]
        w = zeta @ sigma  # Sigma zeta, over the stack if there is one
        cov = np.multiply.outer(sigma, inv)  # (d, d, m), central_moment's layout
        mean = np.moveaxis(1j * np.multiply.outer(w, inv), -2, 0)  # (d, ..., m)
        base = norm * tl ** (-d / 2.0) * np.exp(-0.5 * np.multiply.outer((w * zeta).sum(-1), inv))
        total, moments = 0.0, {}  # one moment per distinct beta
        for beta, tpow, coeff in _kernel_terms(self.symbol):
            if beta not in moments:
                moments[beta] = central_moment(beta, cov, mean)
            total = total + coeff.evaluate(x) * tl ** tpow * moments[beta]
        out = np.zeros(zeta.shape[:-1] + t.shape, dtype=complex)
        out[..., live] = (2.0 * np.pi) ** (-d) * base * total
        return out if out.ndim else complex(out)

    def diagonal_value(self, x, t):
        """k(x; 0, t): the xi-integral collapses to plain Gaussian moments.

        x is one point or an (N, d) batch; t is a scalar or an array.  A batch
        reads the metric once as a stacked (N, d, d) array; its value has
        shape (N,) + t.shape, so a scalar t gives one value per point.  The
        metric is checked and factorised once per call, and terms of odd
        |beta| (zero moments) are skipped.
        """
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0):
            raise DomainError("diagonal value needs t > 0")
        d = self.symbol.dim
        g = self.symbol.form.matrix_at(x)
        norm, sigma = _gaussian_factors(g)
        out = np.zeros(g.shape[:-2] + t.shape, dtype=complex)
        moments = {}  # one moment per distinct beta
        for beta, tpow, coeff in _kernel_terms(self.symbol):
            if sum(beta) % 2 == 1:
                continue
            if beta not in moments:
                moments[beta] = norm * central_moment(beta, sigma, None)
            weight = coeff.evaluate(x) * moments[beta]
            out += np.multiply.outer(weight, t ** (tpow - (d + sum(beta)) / 2.0))
        out *= (2.0 * np.pi) ** (-d)
        return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# causality verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CausalityGrid:
    """tau sampling for the FFT support check; by default fine enough that the
    slow t^p kernels of deep parametrix pieces do not wrap around in t.  A
    check holds about 137 bytes per tau sample, so n_tau is capped at 2^20."""

    n_tau: int = 16384
    tau_max: float = 200.0

    def __post_init__(self):
        if not 64 <= self.n_tau <= 2**20 or not 0 < self.tau_max < math.inf:
            raise DegenerateGridError("need 64 <= n_tau <= 2^20 and a finite tau_max > 0")
        step = 2.0 * self.tau_max / self.n_tau
        if not np.finfo(float).tiny <= step < math.inf:
            raise DegenerateGridError(
                f"tau step 2*tau_max/n_tau = {step:.3g} is not a normal float")


# Causal edge window: poles in the upper half-plane only, so it cannot leak
# kernel mass into t < 0; it suppresses the hard cutoff at |tau| = tau_max.
_EDGE_SHARPNESS = 16.0
_EDGE_POWER = 6
_NOISE_FLOOR = 1e-12
_REG_EPS = 1e-3
_GUARD_STEPS = 2
_EDGE_FRACTION = 0.05
# Least window pi/dtau, in decay times 1/min G(xi, xi) of the symbol.  The
# default grid resolves 128.7 of them at unit metric (64 at G = 0.5); below 8
# the leading kernel e^{-tG} still holds e^{-8} = 3e-4 of its peak at the
# window edge, so the support check could only report wrap-around.
_MIN_DECAY_TIMES = 8.0


def _sample_points(dim):
    if dim == 1:
        xs = [0.0, 1.3, 2.9]
        xis = [(1.0,), (-1.4,)]
    else:
        xs = [(0.0,) * dim, tuple(0.9 + 0.4 * i for i in range(dim))]
        xis = [tuple(1.0 if i == 0 else 0.3 for i in range(dim)),
               tuple(-0.8 if i == dim - 1 else 0.6 for i in range(dim))]
    return xs, np.array(xis)


def _reciprocal_power(z, p):
    """z^-p for an int p >= 1, by products of 1/z."""
    r = 1.0 / z
    out = r
    for _ in range(p - 1):
        out = out * r
    return out


def causality_check(obj, grid, dim=None):
    """Support-in-{t >= 0} verification; returns max_neg |k| / max |k|.

    The symbol is multiplied by the regularizer (1 + i*_REG_EPS*tau)^-(d+3)
    and a causal edge window, sampled on the tau grid, and inverse transformed
    per fixed (x, xi) of _sample_points.  A guard band of _GUARD_STEPS around
    t = 0 and the outer _EDGE_FRACTION of the periodic t-range are excluded
    from the negative-side maximum.  A grid whose window pi/dtau holds fewer
    than _MIN_DECAY_TIMES decay times 1/min G(xi, xi) of a ParabolicSymbol
    over the sample points is refused with DegenerateGridError.  Sample
    points whose kernel maximum is at rounding level (at most _NOISE_FLOOR
    times the largest over all points) are skipped: the symbol vanishes
    there, and the kernel is rounding noise that says nothing about support.
    A non-finite kernel maximum is never skipped: the ratio is then inf.
    Ratio 0 by convention for an identically zero input.
    """
    if isinstance(obj, ParabolicSymbol):
        d = obj.dim
    elif callable(obj):
        if dim is None:
            raise ValueError("callable symbols need an explicit dim")
        d = dim
    else:
        raise TypeError(f"cannot check causality of {type(obj).__name__}")
    xs, xis = _sample_points(d)

    n, T = grid.n_tau, grid.tau_max
    dtau = 2.0 * T / n
    taus = -T + dtau * np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):
        weight = _reciprocal_power(1.0 + 1j * _REG_EPS * taus, d + 3)  # the regularizer
        if not (np.isfinite(weight).all() and weight[0] != 0):
            raise DegenerateGridError(
                f"tau_max = {T:.3g} is too large for the regularizer in d = {d}")
        weight *= _reciprocal_power(1.0 + 1j * _EDGE_SHARPNESS * taus / T, _EDGE_POWER)
    t_edge = np.pi / dtau
    if isinstance(obj, ParabolicSymbol):
        metric = obj.form.matrix_at(np.reshape(xs, (len(xs), d)))
        decay = 1.0 / np.einsum("ki,nij,kj->nk", xis, metric, xis).min()
        if t_edge < _MIN_DECAY_TIMES * decay:
            raise DegenerateGridError(
                f"the grid resolves t up to pi/dtau = {t_edge:.3g}, less than "
                f"{_MIN_DECAY_TIMES:g} decay times 1/min G(xi, xi) = {decay:.3g}")
    dt = 2.0 * np.pi / (n * dtau)
    mm = np.arange(n)
    tm = np.where(mm < n // 2, mm * dt, (mm - n) * dt)
    neg_mask = (tm <= -_GUARD_STEPS * dt) & (tm >= -(1.0 - _EDGE_FRACTION) * t_edge)

    def kernel_peaks(qv):
        """(max |k|, negative-side max |k|) per row of tau samples qv (scaled in place).

        |k| only: the phase e^{-i t T} of the shift to tau[0] = -T has unit
        modulus, and the ratio is free of the kernel's factor n*dtau/(2*pi).
        """
        qv *= weight
        kv = np.abs(np.fft.ifft(qv, axis=-1))
        return np.stack([kv.max(axis=-1), kv.max(axis=-1, where=neg_mask, initial=0.0)], -1)

    # One batched ifft per x over its covectors: each coefficient field is
    # evaluated once per x, and only one x's rows of tau samples are live.
    if isinstance(obj, ParabolicSymbol):
        rows = (obj.evaluate(x, xis, taus) for x in xs)
    else:
        rows = (np.array([obj(x, xi, taus) for xi in xis], dtype=complex) for x in xs)
    peak, neg = np.concatenate(list(map(kernel_peaks, rows))).T
    if not (np.isfinite(peak).all() and np.isfinite(neg).all()):
        return math.inf  # a non-finite kernel is no evidence of vanishing
    kept = peak > _NOISE_FLOOR * peak.max()
    return float(np.max(neg[kept] / peak[kept], initial=0.0))


def anticausal_control(form: QuadraticForm):
    """Evaluator for (-i*tau + G(xi,xi))^{-1}: pole in the lower half-plane.

    A correct support check must fail on it; used as the negative control.
    """

    def evaluate(x, xi, taus):
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        a = float(xi @ form.matrix_at(x) @ xi)
        return 1.0 / (-1j * np.asarray(taus) + a)

    return evaluate
