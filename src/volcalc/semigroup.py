"""Independent numerical heat-semigroup oracle.

Fourier-Galerkin discretization of the operator, the heat family through
contour quadrature of exp(-tQ) = (1/2*pi*i) int_Gamma e^{-t*lambda}
(Q - lambda)^{-1} d lambda over the wedge contour -1 + s(1 +/- i)
(incoming on the lower ray, outgoing on the upper), bounded resolvent
approximants Q_lam = lam*Id - lam^2 (Q + lam)^{-1}, and weighted
least-squares extraction of the small-time diagonal expansion.

The contour resolvents are solved without eigenvalues.  The exact band
(kl, ku) of the matrix is read once from its nonzero entries: band (0, 0),
a diagonal, costs O(n) per node; a Hermitian matrix is reduced once to
tridiagonal form, whose shifted systems cost O(n^2) each; any other matrix
takes one banded LU solve (LAPACK zgbsv) per node, which is narrow for every
Galerkin matrix of trigonometric coefficients in the lexicographic freqs
order.  A conjugate symmetry of the matrix (Hermitian, or the k -> -k mirror
of a real-coefficient Galerkin matrix) turns the lower ray's resolvents into
the upper ray's, so only one ray is solved.

The heat diagonal behind the fits and the log ladder uses real arithmetic
when the Galerkin matrix has the exact k -> -k mirror symmetry, as it has for
every operator with real coefficients: the matrix is taken by indexing to the
real basis {1, sqrt2 cos<k,x>, sqrt2 sin<k,x>} (k over half the lattice),
where it is real, and real symmetric when it is Hermitian.  A matrix without
the symmetry (an operator with non-real coefficients) keeps the complex
eigen-decomposition.  The Galerkin matrix itself, the contour heat and the
reference exponential stay in the exponential basis.

Everything here is independent of the symbol calculus: it only consumes an
OperatorSpec and dense linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import expm, hessenberg
from scipy.linalg.lapack import zgbsv, zgtsv

from .symcore import DomainError
from .volterra import OperatorSpec

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
_LADDER_T0 = 0.15
_LADDER_EXTRA = 6
_LADDER_RESOLVE = 36.0


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
    min_sym_eig, is computed on first read (a dense eigvalsh) and cached.

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
    def matrix(self):
        if self._matrix is None:
            if self.size > MAX_DENSE_MODES:
                raise MemoryError(
                    f"dense matrix of size {self.size} not materialized; "
                    "use the diagonal")
            self._matrix = np.diag(self.diagonal).astype(complex)
        return self._matrix

    def is_nonnegative(self) -> bool:
        return self.min_sym_eig >= -_NONNEGATIVE_TOL

    def require_nonnegative(self):
        if not self.is_nonnegative():
            raise ValueError(
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
    constant = all(f.max_freq() == 0 for f, _ in terms)
    if not constant and size > MAX_DENSE_MODES:
        raise DomainError(
            f"mode cutoff {n} needs a dense Galerkin matrix of {size} modes; "
            f"at most {MAX_DENSE_MODES} are supported")

    if constant:
        diag = sum(f.amplitudes.get((0,) * d, 0.0) * weight for f, weight in terms)
        is_herm = bool(np.max(np.abs(diag.imag)) <= 1e-12 * max(1.0, np.max(np.abs(diag))))
        if is_herm:
            diag = diag.real.astype(complex)
        return DiscretizedOperator(n, d, freqs, is_herm, diagonal=diag, name=op.name)

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
    over spectra in [0, 1e3] and t in [5e-3, 10].
    """

    nodes_per_ray: int = 420
    s_max: float = 40.0
    refine: int = 2

    def panel_edges(self, t):
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


def default_quadrature(t) -> ContourQuadrature:
    """The contour every caller uses: the default nodes, s_max = max(40, 40/t)."""
    return ContourQuadrature(s_max=max(40.0, 40.0 / float(t)))


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
    upper ray, R(lam) = (Q - lam)^{-1}, the cases are told apart by the exact
    band (kl, ku) of Q, read once from its nonzero entries, and by exact
    comparisons:

    0. Band (0, 0), or a DiscretizedOperator stored as its diagonal: O(n)
       per node; a real diagonal sums one ray as in case 1, a complex one
       sums both.  A 1x1 matrix always lands here.
    1. Q Hermitian: Q = Z T Z^H with T tridiagonal (Hessenberg reduction,
       kept exactly Hermitian), one O(n^2) tridiagonal solve of
       (T - lam) Y = c I per upper-ray node, and R(conj lam) = R(lam)^H
       gives E = Z (X - X^H) Z^H.
    2. Q[::-1, ::-1] == conj(Q), as for every Galerkin matrix of an operator
       with real coefficients (reversing the lexicographic freqs maps k to
       -k): one banded LU solve (LAPACK zgbsv) per upper-ray node, and
       R(conj lam) is R(lam) conjugated and reversed, so
       E = X - conj(X)[::-1, ::-1].
    3. Otherwise one banded LU solve per node on both rays.

    The band of a Galerkin matrix of a trigonometric-coefficient operator is
    narrow (half-width 2 for frequency-two coefficients in 1-D, 10 in 2-D at
    81 modes); a full matrix is simply the full band.
    """
    if not 0 < t < np.inf:
        raise DomainError("time must be positive and finite")
    quad = quad or default_quadrature(t)
    if quad.s_max < 10.0 / t:
        raise ValueError(f"s_max={quad.s_max} too small for t={t}; need >= {10.0 / t}")
    s, w = quad.nodes(t)
    lams = CONTOUR_VERTEX + s * (1.0 + 1j)
    coefs = w * np.exp(-t * lams) * (1.0 + 1j)
    if isinstance(Q, DiscretizedOperator) and Q.diagonal is not None:
        return _diagonal_heat(Q.diagonal, lams, coefs)
    A = _as_matrix(Q)
    kl, ku = _bandwidth(A)
    if kl == ku == 0:
        return _diagonal_heat(A.diagonal(), lams, coefs)
    # band (0, 0) took every 1x1 matrix, so T has the off-diagonals zgtsv needs
    if np.array_equal(A, A.conj().T):
        H, Z = hessenberg(A, calc_q=True)
        X = _tridiagonal_ray_sum(H.diagonal().real, H.diagonal(-1), lams, coefs)
        total = Z @ (X - X.conj().T) @ Z.conj().T
    else:
        band = _band_storage(A, kl, ku)
        X = _ray_sum(band, kl, ku, lams, coefs)
        if _mirror_symmetric(A):
            total = X - X[::-1, ::-1].conj()
        else:
            total = X - _ray_sum(band, kl, ku, lams.conj(), coefs.conj())
    return total / (2j * np.pi)


def _diagonal_heat(diag, lams, coefs):
    """The contour sum for D = diag(diag): O(n) per node, one ray if D is real."""
    if diag.size > MAX_DENSE_MODES:
        raise MemoryError(f"dense matrix of size {diag.size} not materialized")
    x = _diagonal_ray_sum(diag, lams, coefs)
    if np.any(diag.imag):
        return np.diag(x - _diagonal_ray_sum(diag, lams.conj(), coefs.conj())) / (2j * np.pi)
    return np.diag(x - x.conj()) / (2j * np.pi)


def _mirror_symmetric(A):
    """A[::-1, ::-1] == conj(A) exactly: the k -> -k symmetry of real coefficients."""
    return np.array_equal(A[::-1, ::-1], A.conj())


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


def _bandwidth(A):
    """(kl, ku): the lower and upper half-bandwidths of A's nonzero entries."""
    rows, cols = np.nonzero(A)
    return int(np.max(rows - cols, initial=0)), int(np.max(cols - rows, initial=0))


def _band_storage(A, kl, ku):
    """A in LAPACK band storage for zgbsv: A[i, j] at row kl + ku + i - j, column j.

    The first kl rows are left for the fill-in of the LU factors.
    """
    n = A.shape[0]
    band = np.zeros((2 * kl + ku + 1, n), dtype=complex, order="F")
    for k in range(-kl, ku + 1):  # the k-th superdiagonal, A[i, i + k]
        band[kl + ku - k, max(k, 0):n + min(k, 0)] = A.diagonal(k)
    return band


def _scaled_identity(n, c):
    """c I in Fortran order, which zgbsv and zgtsv overwrite with the solution in place."""
    B = np.zeros((n, n), dtype=complex, order="F")
    B.flat[::n + 1] = c
    return B


def _diagonal_ray_sum(diag, lams, coefs):
    """sum_j c_j (D - lam_j)^{-1} for D = diag(diag), returned as its diagonal."""
    x = np.zeros(diag.size, dtype=complex)
    for lam, c in zip(lams, coefs):
        shifted = diag - lam
        if not np.all(shifted):
            raise SpectrumSampleError(f"resolvent solve failed at {lam}")
        x += c / shifted
    return x


def _ray_sum(band, kl, ku, lams, coefs):
    """sum_j c_j (A - lam_j)^{-1}, one banded LU solve of (A - lam_j) Y = c_j I per node.

    band is A in the storage of _band_storage; only its main-diagonal row
    changes from node to node, and zgbsv factors a copy of it.
    """
    n = band.shape[1]
    band = band.copy(order="F")
    main = band[kl + ku].copy()
    X = np.zeros((n, n), dtype=complex, order="F")
    for lam, c in zip(lams, coefs):
        band[kl + ku] = main - lam
        *_, Y, info = zgbsv(kl, ku, band, _scaled_identity(n, c), overwrite_b=1)
        if info > 0:  # an exactly zero pivot: lam is an eigenvalue
            raise SpectrumSampleError(f"resolvent solve failed at {lam}")
        if info < 0:
            raise ValueError(f"zgbsv rejected argument {-info}")
        X += Y
    return X


def _tridiagonal_ray_sum(diag, sub, lams, coefs):
    """sum_j c_j (T - lam_j)^{-1} for T = tridiag(sub, diag, conj(sub))."""
    n = diag.size
    X = np.zeros((n, n), dtype=complex, order="F")
    sup = sub.conj()
    for lam, c in zip(lams, coefs):
        *_, Y, info = zgtsv(sub, diag - lam, sup, _scaled_identity(n, c), overwrite_b=1)
        if info > 0:
            raise SpectrumSampleError(f"resolvent solve failed at {lam}")
        X += Y
    return X


def matrix_heat_reference(Q, t) -> np.ndarray:
    """Reference exp(-tQ): eigendecomposition when Hermitian, expm otherwise."""
    A = _as_matrix(Q)
    herm = isinstance(Q, DiscretizedOperator) and Q.is_hermitian
    if not isinstance(Q, DiscretizedOperator):
        herm = np.max(np.abs(A - A.conj().T)) <= 1e-12 * max(1.0, np.max(np.abs(A)))
    if herm:
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
    A = _as_matrix(Q)
    size = A.shape[0]
    eye = np.eye(size, dtype=complex)
    worst = 0.0
    for lam in samples:
        sv = np.linalg.svd(A - complex(lam) * eye, compute_uv=False)
        if sv[-1] <= 1e-14 * max(1.0, sv[0]):
            raise SpectrumSampleError(f"lambda={lam} is on the spectrum")
        worst = max(worst, (1.0 + abs(complex(lam).imag)) / float(sv[-1]))
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


def heat_diagonal(disc: DiscretizedOperator, times, n_x=128):
    """Physical-space diagonal of exp(-tA) at grid points, one row per time.

    K(x, x) = (2*pi)^{-d} v(x)^T exp(-tM) conj(v(x)) with v(x)_k = exp(i<k,x>).
    A Galerkin matrix with the exact k -> -k mirror symmetry (every operator
    with real coefficients) is eigen-decomposed in its real form R = U^H M U
    on the basis {1, sqrt2 cos<k,x>, sqrt2 sin<k,x>}, where the grid vectors
    w(x) = U^T v(x) are real too and K(x, x) = (2*pi)^{-d} w^T exp(-tR) w.
    A Hermitian M gives a real symmetric R, which takes a real eigh; any
    other R takes a real eig, whose eigenvalues come in conjugate pairs.  A
    matrix without the symmetry keeps the complex eigen-decomposition.
    """
    times = np.asarray(times, dtype=float)
    d = disc.dim
    ax = 2.0 * np.pi * np.arange(n_x) / n_x
    grid = ax[np.indices((n_x,) * d).reshape(d, -1).T]
    if disc.diagonal is not None:
        # constant coefficients: diagonal in x, no dense algebra needed
        out = np.empty((times.size, grid.shape[0]))
        for i, t in enumerate(times):
            out[i] = np.sum(np.exp(-t * disc.diagonal)).real
        return out * (2.0 * np.pi) ** (-d), grid
    A = disc.matrix
    if _mirror_symmetric(A):
        phase = grid @ disc.freqs[(disc.size + 1) // 2:].T  # positive half
        V = np.hstack([np.ones((grid.shape[0], 1)),
                       np.sqrt(2.0) * np.cos(phase), np.sqrt(2.0) * np.sin(phase)])
        A = _real_form(A)
    else:
        V = np.exp(1j * grid @ disc.freqs.T)  # (n_points, size)
    out = np.empty((times.size, V.shape[0]))
    if disc.is_hermitian:
        w, U = np.linalg.eigh(A)
        W = np.abs(V @ U) ** 2
        for i, t in enumerate(times):
            out[i] = W @ np.exp(-t * w)
    else:
        w, S = np.linalg.eig(A)
        P = V @ S
        R = np.linalg.solve(S, V.conj().T)
        for i, t in enumerate(times):
            out[i] = np.einsum("xj,j,jx->x", P, np.exp(-t * w), R).real
    return out * (2.0 * np.pi) ** (-d), grid


def resolution_cutoff(op: OperatorSpec, t_min, resolve=18.0) -> int:
    """Mode cutoff resolving the heat kernel at the smallest time.

    The Galerkin tail decays like exp(-t n^2 g_min), so the minimum metric
    eigenvalue enters the rule; with the bare t*n^2 >= 10 a variable metric
    leaves a boundary-layer error near t_min that pollutes the fits.
    """
    gmin = op.metric.min_eig_on_grid()
    return int(np.ceil(np.sqrt(resolve / (float(t_min) * gmin))))


def log_coefficient_estimate(op: OperatorSpec, max_index: int, n_x=128, _inject=0.0):
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
    if _inject:
        diag = diag + _inject * (times ** ((J - d) / 2.0) * np.log(times))[:, None]
    f = diag * (times ** (d / 2.0))[:, None]
    basis = (times ** (J / 2.0) * np.log(times))[:, None]

    def ladder(seq):
        for s in stages:
            seq = seq[1:] - 2.0 ** (-s) * seq[:-1]
        return seq[0]

    return ladder(f) / ladder(basis)[0], grid


def fit_diagonal_expansion(op: OperatorSpec, times, max_index: int,
                           n=None, n_x=128) -> FitResult:
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
