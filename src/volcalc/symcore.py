"""Exact graded symbol algebra over the flat torus.

Coefficients are trigonometric polynomials with complex double amplitudes.
A symbol is a finite sum of terms

    c(x) * xi^beta * Lambda(x, xi, tau)^l,
    Lambda(x, xi, tau) = i*tau + G(x)(xi, xi),

for a fixed positive quadratic form G.  Free tau powers never appear:
i*tau is rewritten as Lambda - G(x)(xi, xi), so every stored term is
parabolically homogeneous of explicit degree |beta| + 2*l under the
anisotropic dilation (xi, tau) -> (s*xi, s^2*tau).  All operations are
pure; values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CoefficientField",
    "QuadraticForm",
    "SymbolTerm",
    "ParabolicSymbol",
    "DomainError",
    "FormMismatchError",
    "NotPositiveDefiniteError",
    "SingularityError",
    "lambda_power",
    "multi_indices",
    "grid_points",
    "xi_monomial",
]


class DomainError(ValueError):
    """Argument outside the mathematically admissible range."""


class FormMismatchError(ValueError):
    """Symbols built over different quadratic forms cannot be combined."""


class NotPositiveDefiniteError(ValueError):
    """Quadratic form fails the positivity floor on the validation grid."""


class SingularityError(ArithmeticError):
    """Evaluation hit a pole (Lambda = 0 with a negative power present)."""


_PRUNE_REL = 1e-13  # from_grid drops amplitudes <= this share of the largest
_REAL_TOL = 1e-12  # relative tolerance of the reality condition
_POSITIVITY_FLOOR = 1e-8  # least metric eigenvalue on the validation grid
_POSITIVITY_GRID_N = 64  # validation grid points per dimension


def multi_indices(dim: int, total: int):
    """All multi-indices of length `dim` with |beta| == total."""
    if dim == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in multi_indices(dim - 1, total - head):
            yield (head,) + rest


def grid_points(n, dim):
    """(n^dim, dim) array of the uniform grid x = 2*pi*j/n, last axis fastest."""
    axes = np.meshgrid(*([2.0 * np.pi * np.arange(n) / n] * dim), indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=-1)


def xi_monomial(xi, beta):
    """xi^beta for a float array xi and a multi-index beta."""
    mono = 1.0
    for a, b in enumerate(beta):
        if b:
            mono *= xi[a] ** b
    return mono


class CoefficientField:
    """Trigonometric polynomial sum_k c_k exp(i<k, x>) on the d-torus.

    Amplitude c_k (k an integer tuple of length d) is stored at index k + K
    of a complex array of shape (2K+1,)*d, a box centred on frequency 0, with
    K the smallest radius that holds every nonzero amplitude.  The zero field
    is a K = 0 box holding 0.
    """

    __slots__ = ("dim", "_box")

    def __init__(self, dim, amplitudes=None):
        self.dim = int(dim)
        if self.dim < 1:
            raise DomainError("dimension must be >= 1")
        amplitudes = amplitudes or {}
        keys = [tuple(int(ki) for ki in (k if isinstance(k, tuple) else (k,)))
                for k in amplitudes]
        for key in keys:
            if len(key) != self.dim:
                raise ValueError(f"frequency {key} has wrong length for d={self.dim}")
        K = max((abs(f) for key in keys for f in key), default=0)
        box = np.zeros((2 * K + 1,) * self.dim, dtype=complex)
        for key, c in zip(keys, amplitudes.values()):
            box[tuple(f + K for f in key)] += complex(c)
        self._box = _trimmed(box)

    @classmethod
    def _from_box(cls, dim, box):
        """Field on a centred box that no caller keeps; trims it."""
        f = object.__new__(cls)
        f.dim = dim
        f._box = _trimmed(box)
        return f

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim):
        return cls(dim, {})

    @classmethod
    def constant(cls, dim, value):
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def harmonic(cls, dim, freq, amplitude=1.0):
        return cls(dim, {tuple(freq): amplitude})

    @classmethod
    def real_cosine(cls, dim, freq, amplitude=1.0):
        """amplitude * cos(<freq, x>)."""
        k = tuple(freq)
        mk = tuple(-f for f in k)
        return cls(dim, {k: amplitude / 2.0, mk: amplitude / 2.0})

    @classmethod
    def real_sine(cls, dim, freq, amplitude=1.0):
        """amplitude * sin(<freq, x>)."""
        k = tuple(freq)
        mk = tuple(-f for f in k)
        return cls(dim, {k: amplitude / 2.0j, mk: -amplitude / 2.0j})

    @classmethod
    def from_grid(cls, values):
        """Project samples on the uniform grid x_j = 2*pi*j/n back to amplitudes."""
        values = np.asarray(values, dtype=complex)
        n = values.shape[0]
        if any(s != n for s in values.shape):
            raise ValueError("grid must be square")
        coef = np.fft.fftshift(np.fft.fftn(values) / values.size)
        if n % 2 == 0:  # -n/2 .. n/2 - 1: Nyquist stays at -n/2; close the box at +n/2
            coef = np.pad(coef, [(0, 1)] * values.ndim)
        cutoff = _PRUNE_REL * max(np.max(np.abs(coef)), 1e-300)
        coef[np.abs(coef) <= cutoff] = 0.0
        return cls._from_box(values.ndim, coef)

    # -- queries -----------------------------------------------------------

    @property
    def amplitudes(self):
        """{frequency tuple: amplitude} of the nonzero amplitudes."""
        nz = np.nonzero(self._box)
        keys = np.transpose(nz) - self.max_freq()
        return dict(zip(map(tuple, keys.tolist()), self._box[nz].tolist()))

    def is_zero(self) -> bool:
        return self._box.size == 1 and self._box.item() == 0

    def norm_inf(self) -> float:
        return float(np.max(np.abs(self._box)))

    def max_freq(self) -> int:
        return self._box.shape[0] // 2

    def is_real(self) -> bool:
        """Check the reality condition c_{-k} = conj(c_k)."""
        scale = max(self.norm_inf(), 1.0)
        mirrored = self._box[(slice(None, None, -1),) * self.dim]
        return bool(np.all(np.abs(mirrored - np.conj(self._box)) <= _REAL_TOL * scale))

    def __eq__(self, other):
        return isinstance(other, CoefficientField) and self.dim == other.dim \
            and np.array_equal(self._box, other._box)

    def __hash__(self):
        # boxes are trimmed and hold no -0.0, so equal fields have equal bytes
        return hash((self.dim, self._box.tobytes()))

    def __repr__(self):
        parts = [f"{c:.6g}*e^(i<{k},x>)" for k, c in self.amplitudes.items()]
        return "CoefficientField(" + (" + ".join(parts) if parts else "0") + ")"

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, CoefficientField):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError(f"cannot add fields of dimensions {self.dim} and {other.dim}")
        small, big = sorted((self._box, other._box), key=len)
        out = big.copy()
        lo = (len(big) - len(small)) // 2
        out[(slice(lo, lo + len(small)),) * self.dim] += small
        return CoefficientField._from_box(self.dim, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return CoefficientField._from_box(self.dim, -self._box)

    def __mul__(self, other):
        """Direct convolution of the amplitudes (no FFT, so dyadic data stays exact)."""
        if not isinstance(other, CoefficientField):
            return self.scale(other)
        if other.dim != self.dim:
            raise ValueError(f"cannot multiply fields of dimensions {self.dim} and {other.dim}")
        width = len(self._box) + len(other._box) - 1
        # with the trailing axes padded to the product's width, one 1-D
        # convolution of the flattened boxes has no wrap-around
        a, b = _padded(self._box, width), _padded(other._box, width)
        out = np.convolve(a.ravel(), b.ravel())[:width ** self.dim]
        return CoefficientField._from_box(self.dim, out.reshape((width,) * self.dim))

    __rmul__ = __mul__

    def scale(self, factor):
        return CoefficientField._from_box(self.dim, complex(factor) * self._box)

    def deriv(self, axis: int):
        """Exact partial derivative along x_axis: c_k -> i*k_axis*c_k."""
        if not 0 <= axis < self.dim:
            raise DomainError(f"axis {axis} out of range for d={self.dim}")
        K = self.max_freq()
        ik = 1j * np.arange(-K, K + 1).reshape((-1,) + (1,) * (self.dim - 1 - axis))
        return CoefficientField._from_box(self.dim, ik * self._box)

    # -- evaluation --------------------------------------------------------

    def _points(self, x):
        a = np.asarray(x, dtype=float)
        if a.ndim == 0:
            if self.dim != 1:
                raise ValueError("scalar point only valid for d=1")
            return a.reshape(1, 1), True
        if a.ndim == 1:
            if a.shape[0] == self.dim:
                return a.reshape(1, self.dim), True
            if self.dim == 1:
                return a.reshape(-1, 1), False
            raise ValueError(f"point of length {a.shape[0]} for d={self.dim}")
        if a.shape[-1] != self.dim:
            raise ValueError("trailing axis must have length d")
        return a.reshape(-1, self.dim), False

    def evaluate(self, x):
        """Evaluate at one point (complex scalar) or a batch (complex array).

        A batch whose distinct coordinates span a tensor grid of at most as
        many points as the batch (a full grid, for one) is summed axis by
        axis on that grid and then read off per point, so each axis builds
        waves only for its distinct coordinates.
        """
        pts, single = self._points(x)
        K = self.max_freq()
        if K == 0:  # a constant: no waves to build
            c = self._box.flat[0]
            return c if single else np.full(len(pts), c)
        freqs = np.arange(-K, K + 1)
        if not single:
            axes = [np.unique(c, return_inverse=True) for c in pts.T]
            if np.prod([len(u) for u, _ in axes]) <= len(pts):
                grid = self._box
                for u, _ in axes:  # contract the leading frequency axis
                    grid = np.tensordot(grid, np.exp(1j * np.outer(freqs, u)), axes=(0, 0))
                return grid[tuple(inv for _, inv in axes)]
        # waves[a, j, p] = exp(i * (j - K) * x_a) at point p, contracted axis by axis
        waves = np.exp(1j * (freqs[:, None] * pts.T[:, None, :]))
        out = self._box @ waves[-1]
        for w in waves[-2::-1]:
            out = (out * w).sum(axis=-2)
        return out[0] if single else out


def _trimmed(box):
    """The smallest centred sub-box holding every nonzero entry of `box`."""
    box += 0.0  # in place: -0.0 becomes 0.0, so equal fields have equal bytes
    nonzero = np.count_nonzero(box)
    if not nonzero:
        K = box.shape[0] // 2
        return box[(slice(K, K + 1),) * box.ndim]
    inner = (slice(1, -1),) * box.ndim
    while len(box) > 1 and np.count_nonzero(box[inner]) == nonzero:
        box = box[inner]
    return box


def _padded(box, width):
    """box zero-padded at the end of every axis but the first to `width`."""
    out = np.zeros((len(box),) + (width,) * (box.ndim - 1), dtype=complex)
    out[(slice(None),) + (slice(0, len(box)),) * (box.ndim - 1)] = box
    return out


class QuadraticForm:
    """Symmetric d x d array of trig-polynomial entries g_ij(x).

    G(x)(xi, xi) = sum_ij g_ij(x) xi_i xi_j.  Positive definiteness is
    checked numerically on a uniform validation grid (64^d points) against
    the floor _POSITIVITY_FLOOR; symbolic positivity is out of reach.
    """

    __slots__ = ("dim", "entries")

    def __init__(self, entries, check_positive=True):
        rows = tuple(tuple(row) for row in entries)
        self.dim = len(rows)
        for i in range(self.dim):
            if len(rows[i]) != self.dim:
                raise ValueError("entries must form a square array")
            for j in range(self.dim):
                if not isinstance(rows[i][j], CoefficientField):
                    raise TypeError("entries must be CoefficientField")
                if rows[i][j].dim != self.dim:
                    raise ValueError("entry dimension mismatch")
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"g[{i}][{j}] != g[{j}][{i}]: form must be symmetric")
        self.entries = rows
        if check_positive:
            floor = self.min_eig_on_grid()
            if not floor >= _POSITIVITY_FLOOR:
                raise NotPositiveDefiniteError(
                    f"min eigenvalue {floor:.3e} below floor {_POSITIVITY_FLOOR:.1e}"
                )

    @classmethod
    def flat(cls, dim):
        ent = [
            [CoefficientField.constant(dim, 1.0 if i == j else 0.0) for j in range(dim)]
            for i in range(dim)
        ]
        return cls(ent)

    @classmethod
    def isotropic(cls, field: CoefficientField):
        """diag(g(x), ..., g(x)) for a scalar coefficient g."""
        d = field.dim
        zero = CoefficientField.zero(d)
        ent = [[field if i == j else zero for j in range(d)] for i in range(d)]
        return cls(ent)

    def __eq__(self, other):
        return isinstance(other, QuadraticForm) and self.entries == other.entries

    def __hash__(self):
        return hash((self.dim, tuple(tuple(e for e in row) for row in self.entries)))

    def is_constant(self) -> bool:
        return all(e.max_freq() == 0 for row in self.entries for e in row)

    def _stacked(self, x):
        """Complex [g_ij(x)]: d x d at one point, (N, d, d) over a batch of N."""
        vals = [[e.evaluate(x) for e in row] for row in self.entries]
        return np.moveaxis(np.array(vals, dtype=complex), (0, 1), (-2, -1))

    def matrix_at(self, x):
        """Real [g_ij(x)]: d x d at one point, (N, d, d) over a batch of N.

        Raises ValueError if any point has a non-real value.
        """
        m = self._stacked(x)
        imag = np.max(np.abs(m.imag), axis=(-2, -1))
        if np.any(imag > 1e-10 * np.maximum(1.0, np.max(np.abs(m.real), axis=(-2, -1)))):
            raise ValueError("quadratic form has a non-real value")
        return m.real

    def value(self, x, xi):
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        m = self.matrix_at(x)
        return float(xi @ m @ xi)

    def deriv(self, axis: int):
        ent = [[self.entries[i][j].deriv(axis) for j in range(self.dim)]
               for i in range(self.dim)]
        return QuadraticForm(ent, check_positive=False)

    def min_eig_on_grid(self):
        mats = self._stacked(grid_points(_POSITIVITY_GRID_N, self.dim))
        return float(np.min(np.linalg.eigvalsh(0.5 * (mats + np.conj(np.swapaxes(mats, 1, 2)))).real))

    def __repr__(self):
        return f"QuadraticForm(d={self.dim}, constant={self.is_constant()})"


@dataclass(frozen=True)
class SymbolTerm:
    """One canonical term c(x) * xi^beta * Lambda^lpow."""

    coeff: CoefficientField
    beta: tuple
    lpow: int

    @property
    def degree(self) -> int:
        return sum(self.beta) + 2 * self.lpow

    def __repr__(self):
        return f"SymbolTerm(beta={self.beta}, lpow={self.lpow}, deg={self.degree})"


class ParabolicSymbol:
    """Finite sum of canonical terms over a shared quadratic form.

    `order` is the nominal top degree (an upper bound; graded pieces of
    lower degree may be the only nonzero ones after cancellation).
    """

    __slots__ = ("form", "_terms", "order")

    def __init__(self, form: QuadraticForm, terms=None, order=None):
        self.form = form
        d = form.dim
        tmap = {}
        for (beta, lpow), coeff in (terms or {}).items():
            beta = tuple(int(b) for b in beta)
            if len(beta) != d or any(b < 0 for b in beta):
                raise ValueError(f"bad multi-index {beta}")
            if coeff.dim != d:
                raise ValueError("coefficient dimension mismatch")
            if coeff.is_zero():
                continue
            key = (beta, int(lpow))
            tmap[key] = tmap[key] + coeff if key in tmap else coeff
        self._terms = {k: c for k, c in tmap.items() if not c.is_zero()}
        top = max((sum(b) + 2 * l for (b, l) in self._terms), default=None)
        if order is None:
            self.order = top if top is not None else 0
        else:
            self.order = int(order)
            if top is not None and top > self.order:
                raise ValueError(f"terms of degree {top} exceed declared order {order}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, form, order=0):
        return cls(form, {}, order=order)

    @classmethod
    def constant(cls, form, value):
        d = form.dim
        return cls(form, {((0,) * d, 0): CoefficientField.constant(d, value)})

    # -- queries -----------------------------------------------------------

    @property
    def dim(self):
        return self.form.dim

    def terms(self):
        """Deterministically ordered list of SymbolTerm."""
        keys = sorted(self._terms, key=lambda k: (-(sum(k[0]) + 2 * k[1]), k[0], k[1]))
        return [SymbolTerm(self._terms[k], k[0], k[1]) for k in keys]

    def term_map(self):
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def degrees(self):
        return sorted({sum(b) + 2 * l for (b, l) in self._terms}, reverse=True)

    def coeff_norm(self) -> float:
        return max((c.norm_inf() for c in self._terms.values()), default=0.0)

    def piece_norm(self, degree: int) -> float:
        return max((c.norm_inf() for (b, l), c in self._terms.items()
                    if sum(b) + 2 * l == degree), default=0.0)

    def top_degree(self, tol=0.0):
        """Highest degree carrying a coefficient above `tol` (None if none)."""
        degs = [sum(b) + 2 * l for (b, l), c in self._terms.items()
                if c.norm_inf() > tol]
        return max(degs, default=None)

    def graded_piece(self, degree: int):
        sub = {k: c for k, c in self._terms.items() if sum(k[0]) + 2 * k[1] == degree}
        return ParabolicSymbol(self.form, sub, order=degree)

    def principal_part(self):
        return self.graded_piece(self.order)

    def truncate_below(self, min_degree: int):
        sub = {k: c for k, c in self._terms.items() if sum(k[0]) + 2 * k[1] >= min_degree}
        return ParabolicSymbol(self.form, sub, order=self.order)

    def allclose(self, other, tol=1e-12):
        if self.form != other.form:
            return False
        scale = max(self.coeff_norm(), other.coeff_norm(), 1.0)
        return (self - other).coeff_norm() <= tol * scale

    def __repr__(self):
        return (f"ParabolicSymbol(order={self.order}, terms={len(self._terms)}, "
                f"degrees={self.degrees()})")

    # -- algebra -----------------------------------------------------------

    def _check_form(self, other):
        if self.form != other.form:
            raise FormMismatchError("symbols come from different calculi (distinct forms)")

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = ParabolicSymbol.constant(self.form, other)
        self._check_form(other)
        tmap = dict(self._terms)
        for k, c in other._terms.items():
            tmap[k] = tmap[k] + c if k in tmap else c
        return ParabolicSymbol(self.form, tmap, order=max(self.order, other.order))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = ParabolicSymbol.constant(self.form, other)
        return self + (-other)

    def __neg__(self):
        return ParabolicSymbol(self.form, {k: -c for k, c in self._terms.items()},
                               order=self.order)

    def scale(self, factor):
        if factor == 0:
            return ParabolicSymbol.zero(self.form, order=self.order)
        return ParabolicSymbol(self.form,
                               {k: c.scale(factor) for k, c in self._terms.items()},
                               order=self.order)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        self._check_form(other)
        tmap = {}
        for (b1, l1), c1 in self._terms.items():
            for (b2, l2), c2 in other._terms.items():
                key = (tuple(a + b for a, b in zip(b1, b2)), l1 + l2)
                prod = c1 * c2
                tmap[key] = tmap[key] + prod if key in tmap else prod
        return ParabolicSymbol(self.form, tmap, order=self.order + other.order)

    __rmul__ = __mul__

    def dilate(self, lam):
        """(x, xi, tau) -> q(x, lam*xi, lam^2*tau); piece of degree s gains lam^s."""
        if not lam > 0:
            raise DomainError("dilation parameter must be positive")
        lam = float(lam)
        tmap = {k: c.scale(lam ** (sum(k[0]) + 2 * k[1])) for k, c in self._terms.items()}
        return ParabolicSymbol(self.form, tmap, order=self.order)

    def deriv(self, var):
        """Exact derivative; var is 'tau', ('xi', i) or ('x', i).

        d/dtau Lambda^l = i*l*Lambda^(l-1)
        d/dxi_i Lambda^l = 2*l*Lambda^(l-1) * sum_j g_ij xi_j
        d/dx_i  Lambda^l = l*Lambda^(l-1) * (d_i G)(xi, xi)
        """
        d = self.dim
        out = {}

        def _acc(key, coeff):
            if coeff.is_zero():
                return
            out[key] = out[key] + coeff if key in out else coeff

        if var == "tau":
            for (beta, l), c in self._terms.items():
                if l != 0:
                    _acc((beta, l - 1), c.scale(1j * l))
            return ParabolicSymbol(self.form, out, order=self.order - 2)

        kind, axis = var
        axis = int(axis)
        if not 0 <= axis < d:
            raise DomainError(f"axis {axis} out of range for d={d}")

        if kind == "xi":
            for (beta, l), c in self._terms.items():
                if beta[axis] > 0:
                    nb = list(beta)
                    nb[axis] -= 1
                    _acc((tuple(nb), l), c.scale(beta[axis]))
                if l != 0:
                    for j in range(d):
                        g = self.form.entries[axis][j]
                        if g.is_zero():
                            continue
                        nb = list(beta)
                        nb[j] += 1
                        _acc((tuple(nb), l - 1), (g * c).scale(2 * l))
            return ParabolicSymbol(self.form, out, order=self.order - 1)

        if kind == "x":
            dg = None
            for (beta, l), c in self._terms.items():
                _acc((beta, l), c.deriv(axis))
                if l != 0:
                    if dg is None:
                        dg = self.form.deriv(axis)
                    for i in range(d):
                        for j in range(i, d):
                            e = dg.entries[i][j]
                            if e.is_zero():
                                continue
                            nb = list(beta)
                            nb[i] += 1
                            nb[j] += 1
                            mult = l if i == j else 2 * l
                            _acc((tuple(nb), l - 1), (e * c).scale(mult))
            return ParabolicSymbol(self.form, out, order=self.order)

        raise DomainError(f"unknown variable kind {kind!r}")

    # -- evaluation --------------------------------------------------------

    def evaluate(self, x, xi, tau):
        """Value at (x, xi) for a scalar tau, or for each entry of an array tau.

        Raises SingularityError at a pole.
        """
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        g = self.form.value(x, xi)
        if np.ndim(tau) == 0:
            # Python complex arithmetic: a scalar routed through 0-d arrays is slower
            lam = 1j * complex(tau) + g
            at_pole = lam == 0
            total = 0.0 + 0.0j
        else:
            lam = 1j * np.asarray(tau) + g
            at_pole = np.any(lam == 0)
            total = np.zeros(lam.shape, dtype=complex)
        if at_pole and any(l < 0 for (_, l) in self._terms):
            raise SingularityError("Lambda = 0 with a negative power present")
        for (beta, l), c in self._terms.items():
            total += c.evaluate(x) * xi_monomial(xi, beta) * lam ** l
        return total


def lambda_power(form: QuadraticForm, lpow: int, scale=1.0) -> ParabolicSymbol:
    """scale * Lambda^lpow as a one-term symbol."""
    d = form.dim
    return ParabolicSymbol(form, {((0,) * d, int(lpow)):
                                  CoefficientField.constant(d, scale)})

