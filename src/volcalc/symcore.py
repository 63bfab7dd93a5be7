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

import numpy as np

__all__ = [
    "CoefficientField",
    "QuadraticForm",
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
    """Input volcalc refuses: an argument or spec file outside what it can carry."""


class FormMismatchError(ValueError):
    """Symbols built over different quadratic forms cannot be combined."""


class NotPositiveDefiniteError(ValueError):
    """Quadratic form below the positivity floor, or too oscillatory to check."""


class SingularityError(ArithmeticError):
    """Evaluation hit a pole (Lambda = 0 with a negative power present)."""


_PRUNE_REL = 1e-13  # from_grid drops amplitudes <= this share of the largest
_REAL_TOL = 1e-12  # relative tolerance of the reality condition
_POSITIVITY_FLOOR = 1e-8  # least metric eigenvalue on the validation grid
_POSITIVITY_GRID_N = 64  # least validation grid points per dimension
_POINTS_PER_PERIOD = 8  # validation grid points per period of the highest metric frequency
_METRIC_GRID_N = 128  # heat_coefficients' grid per dimension: the finest validation grid


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

    def real_part(self, what):
        """The field with c_{-k} = conj(c_k) exactly: self if that holds, else
        c_k -> (c_k + conj(c_{-k})) / 2 if it holds to _REAL_TOL relative."""
        mirrored = np.conj(self._box[(slice(None, None, -1),) * self.dim])
        if np.array_equal(mirrored, self._box):
            return self
        scale = max(self.norm_inf(), 1.0)
        if not np.all(np.abs(mirrored - self._box) <= _REAL_TOL * scale):
            raise ValueError(f"{what} must be real-valued")
        return CoefficientField._from_box(self.dim, 0.5 * (self._box + mirrored))

    def __eq__(self, other):
        return isinstance(other, CoefficientField) and self.dim == other.dim \
            and np.array_equal(self._box, other._box)

    def __repr__(self):
        parts = [f"{c:.6g}*e^(i<{k},x>)" for k, c in self.amplitudes.items()]
        return "CoefficientField(" + (" + ".join(parts) if parts else "0") + ")"

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, CoefficientField):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError(f"cannot add fields of dimensions {self.dim} and {other.dim}")
        return CoefficientField._from_box(self.dim, _centred_sum(self._box, other._box))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return CoefficientField._from_box(self.dim, -self._box)

    def __mul__(self, other):
        """Direct convolution of the amplitudes (no FFT, so dyadic data stays exact)."""
        if not isinstance(other, CoefficientField):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError(f"cannot multiply fields of dimensions {self.dim} and {other.dim}")
        box = _product_box(self, other)
        for field in (self, other):
            if box is field._box:  # a product with the constant 1; fields are immutable
                return field
        return CoefficientField._from_box(self.dim, box)

    def scale(self, factor):
        if factor == 1:  # fields are immutable
            return self
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
        """(N, d) points and whether x is one: a scalar (d = 1), a length-d vector."""
        a = np.atleast_1d(np.asarray(x, dtype=float))
        if a.shape[-1] != self.dim:
            raise ValueError(f"point of length {a.shape[-1]} for d={self.dim}")
        return a.reshape(-1, self.dim), a.ndim == 1

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
    if box.ndim == 1 and (box[0] or box[-1]):
        return box
    nonzero = np.count_nonzero(box)
    if not nonzero:
        K = box.shape[0] // 2
        return box[(slice(K, K + 1),) * box.ndim]
    inner = (slice(1, -1),) * box.ndim
    while len(box) > 1 and np.count_nonzero(box[inner]) == nonzero:
        box = box[inner]
    return box


def _product_box(f, g):
    """Untrimmed amplitude box of the field product f * g.  A constant with a zero
    part is a scale, which rounds as the convolution does (others may not); the
    constant 1 gives the other factor's own box, which callers must not write to."""
    for box, const in ((f._box, g._box), (g._box, f._box)):
        if len(const) == 1:
            c = const.item()
            if c.real == 0 or c.imag == 0:
                return box if c == 1 else c * box
    width = len(f._box) + len(g._box) - 1
    # with the trailing axes padded to the product's width, one 1-D
    # convolution of the flattened boxes has no wrap-around
    out = np.convolve(_padded(f._box, width).ravel(), _padded(g._box, width).ravel())
    return out[:width ** f.dim].reshape((width,) * f.dim)


def _centred_sum(a, b):
    """New array: the sum of two centred boxes, on the larger one's shape."""
    if len(a) < len(b):
        a, b = b, a
    if len(a) == len(b):
        return a + b
    out = a.copy()
    lo = (len(a) - len(b)) // 2
    out[(slice(lo, lo + len(b)),) * a.ndim] += b
    return out


def _padded(box, width):
    """box zero-padded at the end of every axis but the first to `width`."""
    if box.ndim == 1:
        return box
    out = np.zeros((len(box),) + (width,) * (box.ndim - 1), dtype=complex)
    out[(slice(None),) + (slice(0, len(box)),) * (box.ndim - 1)] = box
    return out


class QuadraticForm:
    """Symmetric d x d array of real trig-polynomial entries g_ij(x).

    G(x)(xi, xi) = sum_ij g_ij(x) xi_i xi_j.  Checked once, when built: each
    entry is snapped exactly real (real_part), the array must be symmetric,
    and its least eigenvalue on a uniform n^d grid, n = max(64, 8K) for the
    highest frequency K of the entries (K > 16, past heat_coefficients' 128
    points, is refused), is kept as `min_eig`.  That minimum less
    (h^2 / 8) sum_k ||C_k||_2 |k|^2, h = 2 pi / n and C_k the amplitude
    matrix at frequency k, bounds the least eigenvalue everywhere (see
    _curvature), and must reach the floor _POSITIVITY_FLOOR.
    """

    __slots__ = ("dim", "entries", "min_eig")

    def __init__(self, entries):
        rows = tuple(tuple(row) for row in entries)
        self.dim = len(rows)
        if any(len(row) != self.dim for row in rows):
            raise ValueError("entries must form a square array")
        if not all(isinstance(e, CoefficientField) for row in rows for e in row):
            raise TypeError("entries must be CoefficientField")
        if any(e.dim != self.dim for row in rows for e in row):
            raise ValueError("entry dimension mismatch")
        rows = tuple(tuple(e.real_part("metric coefficients") for e in row) for row in rows)
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"g[{i}][{j}] and g[{j}][{i}] differ: "
                                     "form must be symmetric")
        self.entries = rows
        n = _POINTS_PER_PERIOD * max(e.max_freq() for row in rows for e in row)
        if n > _METRIC_GRID_N:
            raise NotPositiveDefiniteError(f"metric frequency {n // _POINTS_PER_PERIOD} needs a "
                                           f"{n}-point grid; at most {_METRIC_GRID_N} resolve it")
        n = max(_POSITIVITY_GRID_N, n)
        self.min_eig = float(np.min(np.linalg.eigvalsh(self.matrix_at(grid_points(n, self.dim)))))
        certified = self.min_eig - (2.0 * np.pi / n) ** 2 / 8.0 * self._curvature()
        if not certified >= _POSITIVITY_FLOOR:
            raise NotPositiveDefiniteError(
                f"min eigenvalue {self.min_eig:.3e} on the {n}-point grid, certified "
                f"{certified:.3e} between its points, below floor {_POSITIVITY_FLOOR:.1e}")

    def _curvature(self):
        """sum_k ||C_k||_2 |k|^2 over the amplitude matrices C_k of the entries.

        It bounds sum_i ||d_i^2 G||_2, so on a grid of step h the multilinear
        interpolant of G is within (h^2 / 8) times it of G in the spectral
        norm; as lambda_min is concave, the least eigenvalue between the grid
        points is at least the least one on them minus that.
        """
        amps = {}
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                for k, c in e.amplitudes.items():
                    amps.setdefault(k, np.zeros((self.dim, self.dim), dtype=complex))[i, j] = c
        return sum(np.linalg.norm(C, 2) * sum(ki * ki for ki in k) for k, C in amps.items())

    @classmethod
    def flat(cls, dim):
        ent = [
            [CoefficientField.constant(dim, 1.0 if i == j else 0.0) for j in range(dim)]
            for i in range(dim)
        ]
        return cls(ent)

    def __eq__(self, other):
        return isinstance(other, QuadraticForm) and self.entries == other.entries

    def is_constant(self) -> bool:
        return all(e.max_freq() == 0 for row in self.entries for e in row)

    def matrix_at(self, x):
        """Real [g_ij(x)]: d x d at one point, (N, d, d) over a batch of N."""
        # one complex stack, real part last: a float stack built entry by entry
        # made symbol_eval's causality checks 35 % slower (glibc trims its heap sooner)
        vals = [[e.evaluate(x) for e in row] for row in self.entries]
        return np.moveaxis(np.array(vals, dtype=complex), (0, 1), (-2, -1)).real

    def __repr__(self):
        return f"QuadraticForm(d={self.dim}, constant={self.is_constant()})"


def _degree(key):
    """Parabolic degree |beta| + 2*l of the term keyed (beta, l)."""
    beta, lpow = key
    return sum(beta) + 2 * lpow


def _merged(pairs):
    """{key: coefficient}: equal keys summed in the order given, zeros dropped."""
    tmap = {}
    for key, coeff in pairs:
        if not coeff.is_zero():
            tmap[key] = tmap[key] + coeff if key in tmap else coeff
    return {k: c for k, c in tmap.items() if not c.is_zero()}


def _products(q1, q2, mul):
    """((beta1 + beta2, l1 + l2), mul(c1, c2)) for each term of q1 and, inner, of q2."""
    return (((tuple(a + b for a, b in zip(b1, b2)), l1 + l2), mul(c1, c2))
            for (b1, l1), c1 in q1._terms.items() for (b2, l2), c2 in q2._terms.items())


class ParabolicSymbol:
    """Finite sum of canonical terms over a shared quadratic form.

    `terms` is a {(beta, l): CoefficientField} dict or an iterable of
    ((beta, l), coefficient) pairs; coefficients of equal keys are summed in
    the order given.  `order` is the nominal top degree (an upper bound;
    graded pieces of lower degree may be the only nonzero ones after
    cancellation).  The public constructor checks every key and the order;
    the algebra's results skip those checks (_from_pairs), since they are
    built from checked keys and keep their degrees within the order.
    """

    __slots__ = ("form", "_terms", "order")

    def __init__(self, form: QuadraticForm, terms=None, order=None):
        d = form.dim
        pairs = []
        for (beta, lpow), coeff in (terms.items() if isinstance(terms, dict) else terms or ()):
            if coeff.dim != d:
                raise ValueError("coefficient dimension mismatch")
            beta = tuple(int(b) for b in beta)
            if len(beta) != d or any(b < 0 for b in beta):
                raise ValueError(f"bad multi-index {beta}")
            pairs.append(((beta, int(lpow)), coeff))
        self.form, self._terms = form, _merged(pairs)
        top = max(map(_degree, self._terms), default=None)
        if order is None:
            self.order = top if top is not None else 0
        else:
            self.order = int(order)
            if top is not None and top > self.order:
                raise ValueError(f"terms of degree {top} exceed declared order {order}")

    @classmethod
    def _from_pairs(cls, form, pairs, order):
        """Symbol of checked (key, coefficient) pairs of degree <= order."""
        q = object.__new__(cls)
        q.form, q._terms, q.order = form, _merged(pairs), order
        return q

    # -- queries -----------------------------------------------------------

    @property
    def dim(self):
        return self.form.dim

    def term_map(self):
        """{(beta, l): coefficient} in canonical order: degree descending,
        then beta, then l."""
        keys = sorted(self._terms, key=lambda k: (-_degree(k), k))
        return {k: self._terms[k] for k in keys}

    def is_zero(self) -> bool:
        return not self._terms

    def degrees(self):
        return sorted(set(map(_degree, self._terms)), reverse=True)

    def coeff_norm(self) -> float:
        return max((c.norm_inf() for c in self._terms.values()), default=0.0)

    def top_degree(self, tol=0.0):
        """Highest degree carrying a coefficient above `tol` (None if none)."""
        degs = [_degree(k) for k, c in self._terms.items() if c.norm_inf() > tol]
        return max(degs, default=None)

    def graded_piece(self, degree: int):
        sub = ((k, c) for k, c in self._terms.items() if _degree(k) == degree)
        return ParabolicSymbol._from_pairs(self.form, sub, degree)

    def principal_part(self):
        return self.graded_piece(self.order)

    def truncate_below(self, min_degree: int):
        sub = ((k, c) for k, c in self._terms.items() if _degree(k) >= min_degree)
        return ParabolicSymbol._from_pairs(self.form, sub, self.order)

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
            other = lambda_power(self.form, 0, other)
        self._check_form(other)
        pairs = [*self._terms.items(), *other._terms.items()]
        return ParabolicSymbol._from_pairs(self.form, pairs, max(self.order, other.order))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ParabolicSymbol._from_pairs(self.form, ((k, -c) for k, c in self._terms.items()),
                                           self.order)

    def __mul__(self, other):
        if not isinstance(other, ParabolicSymbol):
            return NotImplemented
        self._check_form(other)
        products = _products(self, other, lambda c1, c2: c1 * c2)
        return ParabolicSymbol._from_pairs(self.form, products, self.order + other.order)

    def dilate(self, lam):
        """(x, xi, tau) -> q(x, lam*xi, lam^2*tau); piece of degree s gains lam^s."""
        if not lam > 0:
            raise DomainError("dilation parameter must be positive")
        lam = float(lam)
        tmap = ((k, c.scale(lam ** _degree(k))) for k, c in self._terms.items())
        return ParabolicSymbol._from_pairs(self.form, tmap, self.order)

    def deriv(self, var):
        """Exact derivative; var is ('xi', i) or ('x', i).

        d/dxi_i Lambda^l = 2*l*Lambda^(l-1) * sum_j g_ij xi_j
        d/dx_i  Lambda^l = l*Lambda^(l-1) * (d_i G)(xi, xi)
        """
        d = self.dim
        if not (isinstance(var, tuple) and len(var) == 2 and var[0] in ("xi", "x")):
            raise DomainError(f"unknown derivative variable {var!r}; "
                              "expected ('xi', i) or ('x', i)")
        kind, axis = var
        axis = int(axis)
        if not 0 <= axis < d:
            raise DomainError(f"axis {axis} out of range for d={d}")
        g = self.form.entries  # dform lists d G(xi, xi) = sum m f xi^raised as (f, raised, m)
        if all(l == 0 for _, l in self._terms):  # no power of Lambda to differentiate
            dform = []
        elif kind == "xi":
            dform = [(g[axis][j], (j,), 2) for j in range(d)]
        else:
            dform = [(g[i][j].deriv(axis), (i, j), 1 if i == j else 2)
                     for i in range(d) for j in range(i, d)]
        dform = [entry for entry in dform if not entry[0].is_zero()]
        out = []  # (key, coefficient) pairs; _from_pairs sums equal keys
        for (beta, l), c in self._terms.items():
            if kind == "x":
                out.append(((beta, l), c.deriv(axis)))
            elif beta[axis] > 0:
                nb = list(beta)
                nb[axis] -= 1
                out.append(((tuple(nb), l), c.scale(beta[axis])))
            if l != 0:  # d Lambda^l = l Lambda^(l-1) d G
                for f, raised, m in dform:
                    nb = list(beta)
                    for a in raised:
                        nb[a] += 1
                    out.append(((tuple(nb), l - 1), (f * c).scale(m * l)))
        return ParabolicSymbol._from_pairs(self.form, out,
                                           self.order - 1 if kind == "xi" else self.order)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, x, xi, tau):
        """Value at (x, xi) for a scalar tau, or for each entry of an array tau.

        `xi` is one covector or a (k, d) stack of them; a stack puts a leading
        axis of length k on the value, and each coefficient field is still
        evaluated once.  The terms are summed per power l of
        Lambda = i*tau + G(xi, xi) first, and the sums are combined by
        Horner's rule in Lambda (l >= 0) and in 1/Lambda (l < 0): one array
        update per power, no complex power.  Raises SingularityError at a pole.
        """
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        lead, tail = xi.shape[:-1], (1,) * np.ndim(tau)
        g = (xi @ self.form.matrix_at(x) * xi).sum(axis=-1)
        lam = 1j * np.asarray(tau) + np.reshape(g, lead + tail)
        comps = xi.T  # comps[a]: component a of xi, over the stack if there is one
        sums = {}
        for (beta, l), c in self._terms.items():
            sums[l] = sums.get(l, 0.0) + c.evaluate(x) * xi_monomial(comps, beta)
        if lead:  # a stack's axis goes in front of tau's
            sums = {l: np.reshape(v, np.shape(v) + tail) for l, v in sums.items()}
        lo, hi = min(sums, default=0), max(sums, default=-1)
        if lo < 0 and (lam == 0).any():
            raise SingularityError("Lambda = 0 with a negative power present")
        total = np.zeros(np.shape(lam), dtype=complex)[()]
        if lo < 0:  # the reciprocal only after the pole check
            inv = 1.0 / lam
            for l in range(lo, 0):  # Horner in 1/Lambda, ending on a_-1 / Lambda
                total += sums.get(l, 0.0)
                total *= inv
        if hi >= 0:
            high = 0.0
            for l in range(hi, -1, -1):  # Horner in Lambda, ending on a_0
                high = high * lam + sums.get(l, 0.0)
            total += high
        return total


def lambda_power(form: QuadraticForm, lpow: int, scale=1.0) -> ParabolicSymbol:
    """scale * Lambda^lpow as a one-term symbol."""
    d = form.dim
    return ParabolicSymbol(form, {((0,) * d, int(lpow)):
                                  CoefficientField.constant(d, scale)})

