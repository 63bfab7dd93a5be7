"""Independent numerical heat-semigroup oracle.

Fourier-Galerkin discretization of the operator, the heat family through
contour quadrature of exp(-tQ) = (1/2*pi*i) int_Gamma e^{-t*lambda}
(Q - lambda)^{-1} d lambda over the wedge contour -1 + s(1 +/- i)
(incoming on the lower ray, outgoing on the upper), bounded resolvent
approximants Q_lam = lam*Id - lam^2 (Q + lam)^{-1}, and weighted
least-squares extraction of the small-time diagonal expansion.

Everything here is independent of the symbol calculus: it only consumes an
OperatorSpec and dense linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import expm

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


@dataclass
class DiscretizedOperator:
    """Fourier-Galerkin matrix of A on span{exp(i<k,x>) : |k_i| <= n}.

    The matrix is symmetrized when it is Hermitian up to rounding (formally
    self-adjoint operators); genuinely non-self-adjoint operators (drift)
    keep their full matrix.  Constant-coefficient operators are diagonal in
    this basis and are stored as the diagonal alone, which keeps large mode
    cutoffs cheap.  Nonnegativity of the Hermitian part is recorded rather
    than enforced: the semigroup-theoretic checks (contractivity, bounded
    approximants) require it, plain heat diagonals do not.

    `freqs` is the (size, d) int array of the basis frequencies k, in
    lexicographic order (the last coordinate varies fastest); row and column
    i of the matrix belong to freqs[i].
    """

    n: int
    dim: int
    freqs: np.ndarray
    is_hermitian: bool
    min_sym_eig: float
    diagonal: np.ndarray | None = None
    _matrix: np.ndarray | None = None
    name: str = "operator"

    @property
    def size(self):
        return len(self.freqs)

    @property
    def matrix(self):
        if self._matrix is None:
            if self.size > MAX_DENSE_MODES:
                raise MemoryError(
                    f"dense matrix of size {self.size} not materialized; "
                    "use the diagonal")
            self._matrix = np.diag(self.diagonal).astype(complex)
        return self._matrix

    def is_nonnegative(self, tol=1e-8) -> bool:
        return self.min_sym_eig >= -tol

    def require_nonnegative(self, tol=1e-8):
        if not self.is_nonnegative(tol):
            raise ValueError(
                f"{self.name}: Hermitian part has eigenvalue {self.min_sym_eig:.3e} "
                f"< -{tol:.0e}; semigroup bounds need a nonnegative operator")


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
        sym_min = float(diag.real.min())
        return DiscretizedOperator(n, d, freqs, is_herm, sym_min,
                                   diagonal=diag, name=op.name)

    M = np.zeros((size, size), dtype=complex)
    for f, weight in terms:
        for r, c in f.amplitudes.items():
            # amplitude c_r couples column k to row m = k + r
            rows = freqs + r
            cols = np.flatnonzero(np.all(np.abs(rows) <= n, axis=1))
            M[np.ravel_multi_index((rows[cols] + n).T, shape), cols] += c * weight[cols]

    herm_defect = np.max(np.abs(M - M.conj().T))
    scale = max(1.0, np.max(np.abs(M)))
    is_herm = herm_defect <= 1e-12 * scale
    if is_herm:
        M = 0.5 * (M + M.conj().T)
    sym_min = float(np.linalg.eigvalsh(0.5 * (M + M.conj().T)).min())
    return DiscretizedOperator(n, d, freqs, is_herm, sym_min,
                               _matrix=M, name=op.name)


# ---------------------------------------------------------------------------
# contour quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContourQuadrature:
    """Composite Gauss-Legendre discretization of the wedge contour.

    Both rays -1 + s(1 +/- i) share the node count.  Panels refine
    geometrically in s (resolvent scale) and uniformly in u = t*s
    (oscillation and decay scale), so accuracy is uniform over spectra in
    [0, 1e3] and t in [5e-3, 10] at the default 200 nodes per ray.  For
    spectra with sizable imaginary parts the resolvent feature sits closer
    to the contour; refine > 1 subdivides each panel accordingly.
    """

    nodes_per_ray: int = 200
    s_max: float = 40.0
    vertex: float = -1.0
    refine: int = 1

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
        if self.refine <= 1:
            return np.array(base)
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
    return ContourQuadrature(nodes_per_ray=200, s_max=max(40.0, 40.0 / float(t)))


def _as_matrix(Q):
    if isinstance(Q, DiscretizedOperator):
        return Q.matrix
    return np.atleast_2d(np.asarray(Q, dtype=complex))


def dunford_heat(Q, t, quad: ContourQuadrature | None = None) -> np.ndarray:
    """exp(-tQ) by contour quadrature; one linear solve per node.

    Orientation: incoming on the lower ray, outgoing on the upper ray, which
    encloses the right-half-plane spectrum with the sign that reproduces
    scalar exponentials.
    """
    if not t > 0:
        raise DomainError("time must be positive")
    A = _as_matrix(Q)
    quad = quad or default_quadrature(t)
    if quad.s_max < 10.0 / t:
        raise ValueError(f"s_max={quad.s_max} too small for t={t}; need >= {10.0 / t}")
    size = A.shape[0]
    eye = np.eye(size, dtype=complex)
    s, w = quad.nodes(t)
    total = np.zeros((size, size), dtype=complex)
    for sgn in (+1.0, -1.0):
        for si, wi in zip(s, w):
            lam = quad.vertex + si * (1.0 + sgn * 1j)
            try:
                R = np.linalg.solve(A - lam * eye, eye)
            except np.linalg.LinAlgError as exc:  # cannot happen on Gamma for PSD input
                raise SpectrumSampleError(f"resolvent solve failed at {lam}") from exc
            total += sgn * wi * np.exp(-t * lam) * (1.0 + sgn * 1j) * R
    return total / (2j * np.pi)


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

    K(x, x) = (2*pi)^{-d} v(x)^* exp(-tM) v(x) with v(x)_k = exp(i<k,x>).
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
    V = np.exp(1j * grid @ disc.freqs.T)  # (n_points, size)
    A = disc.matrix
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
    gmin = op.metric.min_eig_on_grid(64)
    return int(np.ceil(np.sqrt(resolve / (float(t_min) * gmin))))


def log_coefficient_estimate(op: OperatorSpec, max_index: int, t0=0.15,
                             extra=6, n_x=128, resolve=36.0, _inject=0.0):
    """Coefficient of t^((J-d)/2) log t in the diagonal, per grid point.

    Estimated by a dyadic scale-comparison ladder: the diagonal profile
    f(t) = t^(d/2) diag(x, t) is sampled at t0 * 2^-k and the iterated
    differences seq <- seq[1:] - 2^(-s) seq[:-1] annihilate every power
    t^s through s = (J + extra - 1)/2.  The stage s = J/2 converts a log
    term into a surviving pure power, so the ladder output divided by the
    ladder applied to t^(J/2) log t recovers the log coefficient with unit
    sensitivity.  A least-squares reading of an attached log column is not
    identifiable here: on a fixed positive window t^s log t is analytic and
    the column is near-collinear with powers (leakage amplification 50-300x
    was measured), while the ladder is exactly calibrated.
    """
    d = op.dim
    J = int(max_index)
    stages = [j / 2.0 for j in range(J + extra)]
    times = t0 * 2.0 ** (-np.arange(len(stages) + 1.0))
    disc = discretize(op, resolution_cutoff(op, times.min(), resolve))
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
                           with_log=False, n=None, n_x=128) -> FitResult:
    """Weighted least squares of the diagonal against {t^((j-d)/2)}.

    Weights t^(d/2) equalize the variance across the geometric time grid.
    Requires times in (0, 0.5], at least 2*(J+2) samples, and a
    discretization fine enough that min(t) * n^2 >= 10.  With with_log the
    log-term coefficient is estimated by the dyadic ladder of
    log_coefficient_estimate (see there for why an attached least-squares
    log column is not usable at the required tolerance).
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
    log_coef = None
    if with_log:
        log_coef, _ = log_coefficient_estimate(op, J, n_x=n_x)
    return FitResult(grid, exps, sol.T, log_coef, resid, cond)
