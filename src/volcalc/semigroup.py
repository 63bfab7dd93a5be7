"""Independent numerical heat-semigroup oracle.

Fourier-Galerkin discretization of the operator, the heat family through
contour quadrature of exp(-tQ) = (1/2*pi*i) int_Gamma e^{-t*lambda}
(Q - lambda)^{-1} d lambda over the wedge contour -1 + s(1 +/- i)
(incoming on the lower ray, outgoing on the upper), bounded resolvent
approximants Q_lam = lam*Id - lam^2 (Q + lam)^{-1}, and weighted
least-squares extraction of the small-time diagonal expansion.

OperatorSpec stores its coefficients exactly real, so every Galerkin matrix
has the exact k -> -k mirror symmetry Q[::-1, ::-1] == conj(Q) in the
lexicographic freqs order, and a self-adjoint one is exactly Hermitian.  A
matrix with neither symmetry is refused.  Either one turns the lower ray's
contour resolvents into the upper ray's, so one ray is solved, without
eigenvalues: an operator stored as its diagonal costs O(n) per node; a
Hermitian matrix is reduced once to a real symmetric tridiagonal T, and the
closed-form inverse of T - lam is evaluated for every node at once on
(n, nodes) arrays; any other is reduced once to its complex Schur form
Z T Z^H and takes one triangular inverse (LAPACK ztrtri) of T - lam per node.

The heat diagonal behind the fits and the log ladder uses real arithmetic
and no eigenvalues: the matrix is taken by indexing to the real basis
{1, sqrt2 cos<k,x>, sqrt2 sin<k,x>} (k over half the lattice), where it is
real, and w^T exp(-tR) w for the grid vectors w is summed as a Chebyshev
series with Bessel coefficients, from sparse products of the real form R
with the grid vectors.  The Galerkin matrix itself, the contour heat and
the reference exponential stay in the exponential basis.

Everything here is independent of the symbol calculus: it only consumes an
OperatorSpec and dense linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import eigvalsh_tridiagonal, expm, hessenberg, schur
from scipy.linalg.lapack import ztrtri

from .symcore import DomainError, grid_points

__all__ = [
    "DiscretizedOperator",
    "ContourQuadrature",
    "default_quadrature",
    "discretize",
    "dunford_heat",
    "matrix_heat_reference",
    "hille_yosida",
    "hy_heat",
    "resolvent_bound_check",
    "FitResult",
    "fit_diagonal_expansion",
    "log_coefficient_estimate",
    "resolution_cutoff",
    "heat_diagonal",
    "SpectrumSampleError",
]


class SpectrumSampleError(ValueError):
    """A requested resolvent point sits (numerically) on the spectrum."""


# Largest Galerkin basis that is stored as a dense matrix.
MAX_DENSE_MODES = 6000

# Rows per block of discretize's Hermitian test and symmetrisation.
_ROW_BLOCK = 64

_NONNEGATIVE_TOL = 1e-8  # least min_sym_eig that counts as nonnegative
CONTOUR_VERTEX = -1.0  # the wedge contour is CONTOUR_VERTEX + s(1 +/- i)
CONTOUR_TOL = 1e-8  # the contour heat's accuracy: against the reference, and the semigroup law
_CONTOUR_REACH = 40.0  # default_quadrature's s_max is _CONTOUR_REACH / t for t < 1
_LADDER_T0 = 0.15
_LADDER_EXTRA = 6
_LADDER_RESOLVE = 36.0
_SERIES_TOL = 1e-16  # heat_diagonal's series stops after a block of terms at most this share
_SERIES_QUIET = 8  # of their partial sums; the block's length


def _require_dense(size):
    """DomainError unless a dense size x size matrix is within MAX_DENSE_MODES."""
    if size > MAX_DENSE_MODES:
        raise DomainError(f"{size} Galerkin modes need a dense {size} x {size} matrix; "
                          f"at most {MAX_DENSE_MODES} modes are supported")


@dataclass
class DiscretizedOperator:
    """Fourier-Galerkin matrix of A on span{exp(i<k,x>) : |k_i| <= n}.

    The matrix is symmetrized when it is Hermitian up to rounding (formally
    self-adjoint operators); genuinely non-self-adjoint operators (drift)
    keep their full matrix.  Constant-coefficient operators are diagonal in
    this basis and are stored as the diagonal alone, which keeps large mode
    cutoffs cheap.  Nonnegativity of the Hermitian part is recorded rather
    than enforced: the semigroup-theoretic checks (contractivity, bounded
    approximants) require it, plain heat diagonals do not.  Its measure,
    min_sym_eig, is computed on first read (a dense eigvalsh) and cached, and
    so is the complex Schur form that dunford_heat's non-Hermitian route sums on.

    `freqs` is the (size, d) int array of the basis frequencies k, in
    lexicographic order (the last coordinate varies fastest); row and column
    i of the matrix belong to freqs[i].
    """

    n: int
    dim: int
    freqs: np.ndarray
    is_hermitian: bool
    _min_sym_eig: float | None = None
    diagonal: np.ndarray | None = None
    _matrix: np.ndarray | None = None
    name: str = "operator"
    _schur: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def size(self):
        return len(self.freqs)

    @property
    def min_sym_eig(self) -> float:
        """Smallest eigenvalue of the Hermitian part (M + M^H) / 2."""
        if self._min_sym_eig is None:
            if self.diagonal is not None:
                self._min_sym_eig = float(self.diagonal.real.min())
            else:
                M = self._matrix
                self._min_sym_eig = float(
                    np.linalg.eigvalsh(0.5 * (M + M.conj().T)).min())
        return self._min_sym_eig

    @property
    def schur_form(self) -> tuple[np.ndarray, np.ndarray]:
        """(T, Z) with matrix = Z T Z^H, T upper triangular and Z unitary (complex Schur)."""
        if self._schur is None:
            self._schur = schur(self.matrix, output="complex")
        return self._schur

    @property
    def matrix(self):
        if self._matrix is None:
            _require_dense(self.size)
            self._matrix = np.diag(self.diagonal).astype(complex)
        return self._matrix

    def is_nonnegative(self) -> bool:
        return self.min_sym_eig >= -_NONNEGATIVE_TOL

    def require_nonnegative(self):
        if not self.is_nonnegative():
            raise DomainError(
                f"{self.name}: Hermitian part has eigenvalue {self.min_sym_eig:.3e} "
                f"< -{_NONNEGATIVE_TOL:.0e}; semigroup bounds need a nonnegative operator")


def discretize(op: OperatorSpec, n: int) -> DiscretizedOperator:
    """Galerkin matrix; multiplication operators become frequency convolutions.

    M[m, k] = sum_ij g^ij_{m-k} k_i k_j + i sum_j b^j_{m-k} k_j + V_{m-k}.
    Variable coefficients need the dense matrix, which is refused above
    MAX_DENSE_MODES basis functions.
    """
    if n < 4:
        raise DomainError("mode cutoff must be >= 4")
    d = op.dim
    shape = (2 * n + 1,) * d
    size = (2 * n + 1) ** d
    freqs = np.indices(shape).reshape(d, size).T - n
    k = freqs.astype(float)
    # each multiplication operator: (coefficient field, weight over columns k)
    terms = [(op.metric.entries[i][j], k[:, i] * k[:, j])
             for i in range(d) for j in range(d)]
    terms += [(op.drift[j], 1j * k[:, j]) for j in range(d)]
    terms.append((op.potential, np.ones(size)))
    if all(f.max_freq() == 0 for f, _ in terms):
        diag = sum(f.amplitudes.get((0,) * d, 0.0) * weight for f, weight in terms)
        # exactly real coefficients: the imaginary part is the drift term alone
        return DiscretizedOperator(n, d, freqs, not np.any(diag.imag), diagonal=diag,
                                   name=op.name)

    _require_dense(size)
    M = np.zeros((size, size), dtype=complex)
    for f, weight in terms:
        for r, c in f.amplitudes.items():
            # amplitude c_r couples column k to row m = k + r
            rows = freqs + r
            cols = np.flatnonzero(np.all(np.abs(rows) <= n, axis=1))
            M[np.ravel_multi_index((rows[cols] + n).T, shape), cols] += c * weight[cols]

    # the Hermitian test and the symmetrisation go block by block, so no
    # temporary is as large as M; the arithmetic is element-wise either way
    blocks = [slice(i, i + _ROW_BLOCK) for i in range(0, size, _ROW_BLOCK)]
    herm_defect = max(np.max(np.abs(M[I] - M[:, I].conj().T)) for I in blocks)
    scale = max(1.0, max(np.max(np.abs(M[I])) for I in blocks))
    is_herm = herm_defect <= 1e-12 * scale
    if is_herm:
        for a, I in enumerate(blocks):
            for J in blocks[a:]:
                upper = 0.5 * (M[I, J] + M[J, I].conj().T)
                M[J, I] = 0.5 * (M[J, I] + M[I, J].conj().T)
                M[I, J] = upper
    return DiscretizedOperator(n, d, freqs, is_herm, _matrix=M, name=op.name)


# ---------------------------------------------------------------------------
# contour quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContourQuadrature:
    """Composite Gauss-Legendre discretization of the wedge contour.

    Both rays -1 + s(1 +/- i) share the node count.  Panels refine
    geometrically in s (resolvent scale) and uniformly in u = t*s
    (oscillation and decay scale).  For spectra with sizable imaginary parts
    (drift) the resolvent feature sits closer to the contour; refine > 1
    subdivides each panel accordingly.  At the default 420 nodes per ray
    with refine 2, and s_max from default_quadrature, accuracy is uniform
    over spectra in [0, 1e3] and t in [5e-3, 10].  The weights reach
    e^{t |CONTOUR_VERTEX|} at the vertex, and that times eps reaches CONTOUR_TOL
    at t = 17.62: such t, and t whose reach 40/t overflows, are refused.
    """

    nodes_per_ray: int = 420
    s_max: float = _CONTOUR_REACH
    refine: int = 2

    def panel_edges(self, t):
        _require_contour_time(t)
        ucut = min(t * self.s_max, t + 45.0)
        s_eff = ucut / t
        edges = {0.0, s_eff}
        s = 0.25
        while s < s_eff:
            edges.add(s)
            s *= 2.0
        u = 4.0
        while u < ucut:
            edges.add(u / t)
            u += 4.0
        base = sorted(edges)
        out = []
        for a, b in zip(base[:-1], base[1:]):
            for i in range(self.refine):
                out.append(a + (b - a) * i / self.refine)
        out.append(base[-1])
        return np.array(out)

    def nodes(self, t):
        """(s nodes, weights) along one ray for time t."""
        edges = self.panel_edges(t)
        npan = len(edges) - 1
        npp = max(6, int(round(self.nodes_per_ray / npan)))
        xs, ws = leggauss(npp)
        s_all, w_all = [], []
        for a, b in zip(edges[:-1], edges[1:]):
            s_all.append(0.5 * (b - a) * xs + 0.5 * (a + b))
            w_all.append(0.5 * (b - a) * ws)
        return np.concatenate(s_all), np.concatenate(w_all)


def _require_contour_time(t):
    """DomainError unless the contour resolves exp(-t lam) to CONTOUR_TOL at time t."""
    t_max = np.log(CONTOUR_TOL / np.finfo(float).eps) / abs(CONTOUR_VERTEX)  # e^t eps = tol
    if not t > 0:
        raise DomainError(f"time {t:g} is not positive")
    if not np.isfinite(_CONTOUR_REACH / float(t)):
        raise DomainError(f"time {t:g}: the contour reach {_CONTOUR_REACH:g}/t is not finite")
    if not t < t_max:
        raise DomainError(f"time {t:g} >= {t_max:.4g}: the rounding e^(t |CONTOUR_VERTEX|) * eps "
                          f"of the contour weights exceeds CONTOUR_TOL = {CONTOUR_TOL:g}")


def default_quadrature(t) -> ContourQuadrature:
    """The contour every caller uses: the default nodes, s_max = max(40, 40/t)."""
    _require_contour_time(t)
    return ContourQuadrature(s_max=max(_CONTOUR_REACH, _CONTOUR_REACH / float(t)))


def _as_matrix(Q):
    if isinstance(Q, DiscretizedOperator):
        return Q.matrix
    return np.atleast_2d(np.asarray(Q, dtype=complex))


def dunford_heat(Q, t, quad: ContourQuadrature | None = None) -> np.ndarray:
    """exp(-tQ) by contour quadrature at the nodes of quad; no eigenvalues.

    Orientation: incoming on the lower ray, outgoing on the upper ray, which
    encloses the right-half-plane spectrum with the sign that reproduces
    scalar exponentials.  The lower ray's nodes and weights are the
    conjugates of the upper ray's, so with X = sum_j c_j R(lam_j) over the
    upper ray, R(lam) = (Q - lam)^{-1}, the routes are told apart by the
    storage of Q and by exact comparisons:

    0. A DiscretizedOperator stored as its diagonal: O(n) per node; a real
       diagonal is Hermitian, a complex one must be mirror-symmetric.
    1. Q Hermitian: Q = Z T Z^H with T real symmetric tridiagonal
       (Hessenberg reduction and a diagonal phase, _real_tridiagonal), the
       closed-form inverses of T - lam for all upper-ray nodes at once
       (_tridiagonal_ray_sum, O(n^2) per node, no pivoting), and
       R(conj lam) = R(lam)^H gives E = Z (X - X^H) Z^H.
    2. Q[::-1, ::-1] == conj(Q), as for every Galerkin matrix of an operator
       with real coefficients (reversing the lexicographic freqs maps k to
       -k): Q = Z T Z^H in complex Schur form (schur_form, cached on a
       DiscretizedOperator), one triangular inverse of T - lam per upper-ray
       node (_triangular_ray_sum, O(n^3 / 3) per node), and R(conj lam) is
       R(lam) conjugated and reversed, so with Y = Z X Z^H,
       E = Y - conj(Y)[::-1, ::-1].

    Any other Q raises DomainError; a matrix Hermitian only up to rounding
    is symmetrised first, 0.5 * (Q + Q^H).  So does a spectrum outside the
    wedge |Im z| < Re z - CONTOUR_VERTEX that the contour encloses, where the
    sum would be exp(-tQ) times a spectral projector.  Each route tests its
    own spectrum exactly: the diagonal's entries, the least eigenvalue of T
    (eigvalsh_tridiagonal), or the diagonal of the Schur factor T.
    """
    _require_contour_time(t)
    quad = quad or default_quadrature(t)
    if quad.s_max < 10.0 / t:
        raise DomainError(f"s_max={quad.s_max} too small for t={t}; need >= {10.0 / t}")
    s, w = quad.nodes(t)
    lams = CONTOUR_VERTEX + s * (1.0 + 1j)
    coefs = w * np.exp(-t * lams) * (1.0 + 1j)
    if isinstance(Q, DiscretizedOperator) and Q.diagonal is not None:
        return _diagonal_heat(Q.diagonal, lams, coefs)
    A = _as_matrix(Q)
    if np.array_equal(A, A.conj().T):
        Z, a, b = _real_tridiagonal(A)
        _require_inside_contour(_least_eigenvalue(a, b))
        X = _tridiagonal_ray_sum(a, b, lams, coefs)
        total = Z @ (X - X.conj().T) @ Z.conj().T
    else:
        _require_mirror_symmetric(A)
        T, Z = Q.schur_form if isinstance(Q, DiscretizedOperator) else schur(A, output="complex")
        _require_inside_contour(T.diagonal())
        Y = Z @ _triangular_ray_sum(T, lams, coefs) @ Z.conj().T
        total = Y - Y[::-1, ::-1].conj()
    return total / (2j * np.pi)


def _diagonal_heat(diag, lams, coefs):
    """The contour sum for D = diag(diag) over one ray: Hermitian if real, else mirrored."""
    _require_dense(diag.size)
    mirrored = np.any(diag.imag)
    if mirrored:
        _require_mirror_symmetric(diag)
    _require_inside_contour(diag)
    x = _diagonal_ray_sum(diag, lams, coefs)
    return np.diag(x - (x[::-1] if mirrored else x).conj()) / (2j * np.pi)


def _require_mirror_symmetric(A):
    """DomainError unless flip(A) == conj(A) exactly (A a matrix or a diagonal)."""
    if not np.array_equal(np.flip(A), A.conj()):
        raise DomainError(
            "matrix is neither exactly Hermitian nor exactly mirror-symmetric "
            "(Q[::-1, ::-1] == conj(Q), as for real coefficients); symmetrise a "
            "matrix that is Hermitian up to rounding: 0.5 * (Q + Q^H)")


def _require_inside_contour(eigs):
    """DomainError unless every eigenvalue z has |Im z| < Re z - CONTOUR_VERTEX."""
    outside = ~(np.abs(eigs.imag) < eigs.real - CONTOUR_VERTEX)
    if outside.any():
        raise DomainError(
            f"eigenvalue {complex(eigs[outside][0]):.4g} lies outside the wedge "
            f"|Im z| < Re z + {-CONTOUR_VERTEX:g} that the contour encloses; "
            "its sum would not be exp(-tQ)")


def _real_form(A):
    """U^H A U for the real basis {1, sqrt2 cos<k,x>, sqrt2 sin<k,x>}, by indexing.

    A is a mirror-symmetric Galerkin matrix on the lexicographic freqs: the
    centre index c = (size - 1) / 2 is k = 0, the indices after it are the
    positive half of the lattice and reversal maps k to -k.  The basis is the
    centre, then the cosines, then the sines over the positive half; under
    the mirror symmetry every entry of U^H A U is the real or imaginary part
    of a sum or difference of two entries of A, so the result is real by
    construction (no dense product, no imaginary rounding to discard).
    """
    c = (A.shape[0] - 1) // 2
    pos = slice(c + 1, None)
    plus = A[pos, pos] + A[pos, :c][:, ::-1]   # A[a, b] + A[a, -b]
    minus = A[pos, pos] - A[pos, :c][:, ::-1]  # A[a, b] - A[a, -b]
    r2 = np.sqrt(2.0)
    row, col = A[c, pos], A[pos, c]
    return np.block([
        [np.array([[A[c, c].real]]), r2 * row.real[None, :], r2 * row.imag[None, :]],
        [r2 * col.real[:, None], plus.real, minus.imag],
        [-r2 * col.imag[:, None], -plus.imag, minus.real],
    ])


def _diagonal_ray_sum(diag, lams, coefs):
    """sum_j c_j (D - lam_j)^{-1} for D = diag(diag), returned as its diagonal."""
    x = np.zeros(diag.size, dtype=complex)
    for lam, c in zip(lams, coefs):
        shifted = diag - lam
        if not np.all(shifted):
            raise SpectrumSampleError(f"resolvent solve failed at {lam}")
        x += c / shifted
    return x


def _triangular_ray_sum(T, lams, coefs):
    """sum_j c_j (T - lam_j)^{-1} for T upper triangular, one LAPACK ztrtri per node.

    Each node inverts a Fortran-ordered copy of T whose diagonal is shifted,
    in place; T itself, a cached Schur factor, is never written.
    """
    n = T.shape[0]
    main = T.diagonal()
    X = np.zeros((n, n), dtype=complex, order="F")
    for lam, c in zip(lams, coefs):
        shifted = np.array(T, dtype=complex, order="F")  # a copy, even of an F-ordered T
        np.fill_diagonal(shifted, main - lam)
        inv, info = ztrtri(shifted, overwrite_c=1)
        if info > 0:  # an exactly zero diagonal entry: lam is an eigenvalue
            raise SpectrumSampleError(f"resolvent solve failed at {lam}")
        if info < 0:
            raise ValueError(f"ztrtri rejected argument {-info}")
        X += c * inv
    return X


def _real_tridiagonal(A):
    """(Z, a, b) with A = Z T Z^H and T real symmetric tridiagonal, for a Hermitian A.

    T has diagonal a and off-diagonal b >= 0.  The Hessenberg form
    H = Z0^H A Z0 of a Hermitian A is tridiagonal with a real diagonal and
    subdiagonal e; the diagonal phase D with D[0] = 1 and
    D[i+1] = D[i] e_i / |e_i| makes D^H H D real, and Z = Z0 D.
    """
    H, Z = hessenberg(A, calc_q=True)
    e = H.diagonal(-1)
    phase = np.cumprod(np.concatenate(([1.0], np.exp(1j * np.angle(e)))))
    return Z * phase, H.diagonal().real, np.abs(e)


def _least_eigenvalue(a, b):
    """Least eigenvalue of tridiag(b, a, b), as a 1-array, by bisection (LAPACK stebz).

    stebz squares the off-diagonal, so T is scaled by a power of two (exact)
    to entries of modulus at most 1 first.
    """
    scale = 2.0 ** np.frexp(max(np.max(np.abs(a)), np.max(b, initial=0.0)))[1]
    return scale * eigvalsh_tridiagonal(a / scale, b / scale, select="i", select_range=(0, 0))


def _tridiagonal_ray_sum(a, b, lams, coefs):
    """sum_j c_j (T - lam_j)^{-1} for T = tridiag(b, a, b) real, every node at once.

    With alpha = a - lam, the forward pivots d_0 = alpha_0,
    d_i = alpha_i - b_{i-1}^2 / d_{i-1} and the backward pivots
    f_{n-1} = alpha_{n-1}, f_i = alpha_i - q_i with q_i = b_i^2 / f_{i+1} give
    the closed-form inverse G = (T - lam)^{-1}: G_ii = 1 / (d_i - q_i), which
    is 1 / (d_i + f_i - alpha_i), and G_ij = (-b_i / d_i) G_{i+1,j} for i < j.
    G is complex symmetric, so only its upper triangle is built, row by row
    from the bottom, each row on an (n, nodes) array and summed over the
    nodes by one matrix-vector product; the sum is mirrored at the end.
    """
    n = a.size
    alpha = a[:, None] - lams[None, :]  # (n, nodes): row i is alpha_i at every node
    d = np.empty_like(alpha)
    q = np.zeros_like(alpha)
    # Every node has Im lam = s > 0, so Im alpha_i = -s, and Im p <= -s gives
    # Im(-b^2 / p) = b^2 Im p / |p|^2 <= 0: by induction Im d_i <= -s,
    # Im f_i <= -s and Im(d_i - q_i) <= -s.  No pivot vanishes, so no
    # pivoting is needed; only an overflow can make a pivot non-finite.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d[0] = alpha[0]
        for i in range(1, n):
            d[i] = alpha[i] - b[i - 1] ** 2 / d[i - 1]
        f = alpha[n - 1]
        for i in range(n - 2, -1, -1):
            q[i] = b[i] ** 2 / f
            f = alpha[i] - q[i]
        denom = d - q  # not finite wherever a pivot d_i or q_i is not
    finite = np.isfinite(denom).all(axis=0)
    if not finite.all():
        raise SpectrumSampleError(f"resolvent solve failed at {lams[np.argmin(finite)]}")
    diag = 1.0 / denom
    ratio = -b[:, None] / d[:-1]
    X = np.zeros((n, n), dtype=complex)
    row = np.empty_like(alpha)  # row[j] = G_ij over the nodes, for j >= i
    for i in range(n - 1, -1, -1):
        if i < n - 1:
            row[i + 1:] *= ratio[i]
        row[i] = diag[i]
        X[i, i:] = row[i:] @ coefs
    return X + np.triu(X, 1).T


def matrix_heat_reference(Q, t) -> np.ndarray:
    """Reference exp(-tQ): eigendecomposition when exactly Hermitian, expm otherwise."""
    A = _as_matrix(Q)
    if np.array_equal(A, A.conj().T):
        w, U = np.linalg.eigh(A)
        return (U * np.exp(-t * w)) @ U.conj().T
    return expm(-t * A)


# ---------------------------------------------------------------------------
# Hille-Yosida approximants
# ---------------------------------------------------------------------------


def hille_yosida(Q, lam) -> np.ndarray:
    """Bounded approximant Q_lam = lam*Id - lam^2 (Q + lam)^{-1} = lam Q (Q + lam)^{-1}.

    Both closed forms are evaluated and must agree to rounding.
    """
    if not lam > 0:
        raise DomainError("lambda must be positive")
    A = _as_matrix(Q)
    size = A.shape[0]
    eye = np.eye(size, dtype=complex)
    inv = np.linalg.solve(A + lam * eye, eye)
    qa = lam * eye - lam**2 * inv
    qb = lam * (A @ inv)
    if np.max(np.abs(qa - qb)) > 1e-8 * max(1.0, np.max(np.abs(qa))):
        raise ArithmeticError("the two approximant forms disagree beyond rounding")
    return qa


def hy_heat(Q, lam, t) -> np.ndarray:
    """Dense exponential exp(-t Q_lam) of the bounded approximant."""
    return expm(-t * hille_yosida(Q, lam))


def resolvent_bound_check(Q, samples) -> float:
    """max over samples of ||(Q - lambda)^{-1}||_2 * (1 + |Im lambda|)."""
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one contour sample")
    if isinstance(Q, DiscretizedOperator) and Q.diagonal is not None:
        _require_dense(Q.size)  # Q - lambda is diagonal, of singular values |d_i - lambda|
        svs = (np.abs(Q.diagonal - complex(lam)) for lam in samples)
    else:
        A = _as_matrix(Q)
        eye = np.eye(A.shape[0], dtype=complex)
        svs = (np.linalg.svd(A - complex(lam) * eye, compute_uv=False) for lam in samples)
    worst = 0.0
    for lam, sv in zip(samples, svs):
        if sv.min() <= 1e-14 * max(1.0, sv.max()):
            raise SpectrumSampleError(f"lambda={lam} is on the spectrum")
        worst = max(worst, (1.0 + abs(complex(lam).imag)) / float(sv.min()))
    return worst


# ---------------------------------------------------------------------------
# diagonal fitting
# ---------------------------------------------------------------------------


@dataclass
class FitResult:
    x_grid: np.ndarray
    exponents: np.ndarray
    coefficients: np.ndarray  # shape (n_x, J+1)
    log_coefficient: np.ndarray | None
    residual: float
    condition: float


def heat_diagonal(disc: DiscretizedOperator, times, n_x):
    """Physical-space diagonal of exp(-tA) at grid points, one row per time.

    K(x, x) = (2*pi)^{-d} v(x)^T exp(-tM) conj(v(x)) with v(x)_k = exp(i<k,x>).
    Times must be positive and finite (DomainError otherwise).  The Galerkin
    matrix has the exact k -> -k mirror symmetry of real coefficients (any
    other is refused with DomainError) and is taken to its real form
    R = U^H M U on the basis {1, sqrt2 cos<k,x>, sqrt2 sin<k,x>}, where the
    grid vectors w(x) = U^T v(x) are real too and
    K(x, x) = (2*pi)^{-d} w^T exp(-tR) w.  No eigenvalue is computed: the
    Chebyshev series of _chebyshev_heat sums w^T exp(-tR) w from sparse
    products of R with the grid vectors, symmetric R or not.
    """
    times = np.asarray(times, dtype=float)
    bad = times[~(np.isfinite(times) & (times > 0))]
    if bad.size:
        raise DomainError(f"heat time {bad[0]:g} is not positive and finite")
    d = disc.dim
    grid = grid_points(n_x, d)
    if disc.diagonal is not None:
        # constant coefficients: diagonal in x, no dense algebra needed
        out = np.empty((times.size, grid.shape[0]))
        for i, t in enumerate(times):
            out[i] = np.sum(np.exp(-t * disc.diagonal)).real
        return out * (2.0 * np.pi) ** (-d), grid
    _require_mirror_symmetric(disc.matrix)
    phase = disc.freqs[(disc.size + 1) // 2:] @ grid.T  # positive half
    W = np.vstack([np.ones(grid.shape[0]), np.sqrt(2.0) * np.cos(phase),
                   np.sqrt(2.0) * np.sin(phase)])  # column x is w(x)
    out = _chebyshev_heat(_real_form(disc.matrix), W, times)
    return out * (2.0 * np.pi) ** (-d), grid


def _chebyshev_coefficients(times, lo, hi, count):
    """c_k(t), k < count, of exp(-tx) = sum_k c_k(t) T_k((x - a) / b) on [lo, hi].

    With a = (hi + lo) / 2, b = (hi - lo) / 2 and z = t b,
    c_k = (2 - delta_k0) (-1)^k e^{-t lo} e^{-z} I_k(z) (Tal-Ezer and Kosloff,
    J. Chem. Phys. 81, 3967, 1984).  The ratios I_k / I_{k-1} come from the
    backward recurrence r_k = 1 / (2k/z + r_{k+1}), started at r_count = 0,
    which is stable in that direction, and e^{-z} I_0 from the normalisation
    e^{-z} (I_0 + 2 sum_k I_k) = 1.  One row per time.
    """
    t = np.asarray(times, dtype=float)[:, None]
    z = t[:, 0] * ((hi - lo) / 2.0)
    ratios = np.ones((z.size, count))
    r = np.zeros_like(z)
    with np.errstate(over="ignore", divide="ignore"):  # 2k/z = inf gives r = 0
        for k in range(count - 1, 0, -1):
            r = 1.0 / (2.0 * k / z + r)
            ratios[:, k] = r
    bessel = np.cumprod(ratios, axis=1)  # I_k / I_0, underflowing to 0
    bessel /= 2.0 * bessel.sum(axis=1, keepdims=True) - 1.0  # e^{-z} I_k
    sign = np.where(np.arange(count) % 2, -2.0, 2.0)
    sign[0] = 1.0
    return sign * np.exp(-t * lo) * bessel


def _chebyshev_heat(R, W, times):
    """w^T exp(-tR) w for every column w of W, one row per time, from sparse products.

    The series runs on [lo, hi]: the Gershgorin interval of R, which holds
    the real parts of the spectrum, with hi raised by max(t) kappa^2 / 4 for
    kappa the largest Gershgorin radius of the skew part (R - R^T) / 2, 0
    when R is symmetric.  An eigenvalue with a large imaginary part near the
    end of the interval makes the terms grow before they cancel; the raised
    end costs a few terms and took a drift-dominated operator at t = 1 from
    6e-12 to 2e-13 relative error against a 40-digit expm.
    T_{k+1} = 2 S T_k - T_{k-1} runs on a CSR copy of S = (R - a) / b
    applied to W, and the moments w^T T_k(S) w of every k serve every time.
    The series stops on measured terms, not on the coefficients alone, since
    T_k(S) w grows with k when R has complex eigenvalues: it is summed in
    blocks of _SERIES_QUIET terms and stops after a block whose every term
    c_k(t) w^T T_k w is at most _SERIES_TOL of its partial sum.
    ArithmeticError if no block has done so by the cap
    k = ceil(2 sqrt(80 z_max)) + 60, z_max = max(t) b.
    """
    from scipy.sparse import csr_matrix  # a module-level import costs every caller

    radius = np.sum(np.abs(R), axis=1) - np.abs(np.diagonal(R))
    kappa = 0.5 * float(np.max(np.sum(np.abs(R - R.T), axis=1)))
    lo = float(np.min(np.diagonal(R) - radius))
    hi = float(np.max(np.diagonal(R) + radius)) + float(np.max(times)) * kappa ** 2 / 4.0
    a, b = (hi + lo) / 2.0, (hi - lo) / 2.0 or 1.0  # b = 0 only for R = aI
    z_max = float(np.max(times)) * b
    q = _SERIES_QUIET
    count = q * ((int(np.ceil(2.0 * np.sqrt(80.0 * z_max))) + 60) // q + 1)
    coefs = _chebyshev_coefficients(times, a - b, a + b, count)
    shifted = R.copy()
    shifted.flat[::len(R) + 1] -= a
    shifted /= b
    vectors = _chebyshev_vectors(csr_matrix(shifted), W)
    moments = np.empty((q, W.shape[1]))
    total = np.zeros((len(times), W.shape[1]))
    for k in range(0, count, q):
        for row, Y in zip(moments, vectors):
            np.einsum("ij,ij->j", W, Y, out=row)
        terms = coefs[:, k:k + q, None] * moments
        partial = total[:, None] + np.cumsum(terms, axis=1)
        total = partial[:, -1]
        if np.all(np.abs(terms) <= _SERIES_TOL * np.abs(partial)):
            return total
    raise ArithmeticError(f"heat series did not settle in {count} terms (z_max = {z_max:.3g})")


def _chebyshev_vectors(S, W):
    """T_0(S) W, T_1(S) W, ... without end, by T_{k+1} = 2 S T_k - T_{k-1}."""
    prev, cur = W, S @ W
    yield prev
    while True:
        yield cur
        nxt = S @ cur
        nxt *= 2.0
        nxt -= prev
        prev, cur = cur, nxt


def resolution_cutoff(op: OperatorSpec, t_min, resolve=18.0) -> int:
    """Mode cutoff resolving the heat kernel at the smallest time.

    The Galerkin tail decays like exp(-t n^2 g_min), so the minimum metric
    eigenvalue enters the rule; with the bare t*n^2 >= 10 a variable metric
    leaves a boundary-layer error near t_min that pollutes the fits.
    """
    gmin = op.metric.min_eig
    return int(np.ceil(np.sqrt(resolve / (float(t_min) * gmin))))


def log_coefficient_estimate(op: OperatorSpec, max_index: int, *, n_x):
    """Coefficient of t^((J-d)/2) log t in the diagonal, per grid point.

    Estimated by a dyadic scale-comparison ladder: the diagonal profile
    f(t) = t^(d/2) diag(x, t) is sampled at t0 * 2^-k and the iterated
    differences seq <- seq[1:] - 2^(-s) seq[:-1] annihilate every power
    t^s through s = (J + extra - 1)/2, with t0 = _LADDER_T0 and extra =
    _LADDER_EXTRA.  The stage s = J/2 converts a log term into a surviving
    pure power, so the ladder output divided by the ladder applied to
    t^(J/2) log t recovers the log coefficient with unit sensitivity.  A
    least-squares reading of an attached log column is not identifiable
    here: on a fixed positive window t^s log t is analytic and the column is
    near-collinear with powers (leakage amplification 50-300x was measured),
    while the ladder is exactly calibrated.
    """
    d = op.dim
    J = int(max_index)
    stages = [j / 2.0 for j in range(J + _LADDER_EXTRA)]
    times = _LADDER_T0 * 2.0 ** (-np.arange(len(stages) + 1.0))
    disc = discretize(op, resolution_cutoff(op, times.min(), _LADDER_RESOLVE))
    diag, grid = heat_diagonal(disc, times, n_x=n_x)
    f = diag * (times ** (d / 2.0))[:, None]
    basis = (times ** (J / 2.0) * np.log(times))[:, None]
    return _ladder(f, stages) / _ladder(basis, stages)[0], grid


def _ladder(seq, stages):
    """Iterated differences seq <- seq[1:] - 2^(-s) seq[:-1] over the stages s, first entry.

    On samples at t0 * 2^-k, stage s annihilates the power t^s.
    """
    for s in stages:
        seq = seq[1:] - 2.0 ** (-s) * seq[:-1]
    return seq[0]


def fit_diagonal_expansion(op: OperatorSpec, times, max_index: int,
                           n=None, *, n_x) -> FitResult:
    """Weighted least squares of the diagonal against {t^((j-d)/2)}.

    Weights t^(d/2) equalize the variance across the geometric time grid.
    Requires times in (0, 0.5], at least 2*(J+2) samples, and a
    discretization fine enough that min(t) * n^2 >= 10.  The fit has no log
    column (log_coefficient is None): log_coefficient_estimate says why one
    is not usable at the required tolerance.
    """
    times = np.sort(np.asarray(times, dtype=float))
    J = int(max_index)
    d = op.dim
    if times.min() <= 0 or times.max() > 0.5:
        raise DomainError("times must lie in (0, 0.5]")
    if times.size < 2 * (J + 2):
        raise DomainError(f"need at least {2 * (J + 2)} time samples")
    if n is None:
        n = resolution_cutoff(op, times.min())
    if times.min() * n**2 < 10.0:
        raise DomainError("mode cutoff too small: need min(t) * n^2 >= 10")
    disc = discretize(op, n)
    diag, grid = heat_diagonal(disc, times, n_x=n_x)

    exps = (np.arange(J + 1) - d) / 2.0
    design = np.stack([times**e for e in exps], axis=-1)
    wts = times ** (d / 2.0)
    dw = design * wts[:, None]
    scales = np.linalg.norm(dw, axis=0)
    dws = dw / scales
    cond = float(np.linalg.cond(dws))
    if cond > 1e10:
        raise ValueError(
            f"design matrix condition {cond:.2e} too large; "
            "use a wider geometric time grid or fewer orders")
    rhs = diag * wts[:, None]
    sol, *_ = np.linalg.lstsq(dws, rhs, rcond=None)
    sol = sol / scales[:, None]
    resid = float(np.max(np.abs(dw @ sol - rhs)))
    return FitResult(grid, exps, sol.T, None, resid, cond)
