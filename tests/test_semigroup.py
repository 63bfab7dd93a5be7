"""Spectral discretization, contour heat family, approximants, diagonal fits."""

import ast
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from volcalc import semigroup
from volcalc.semigroup import (
    CONTOUR_TOL,
    CONTOUR_VERTEX,
    ContourQuadrature,
    SpectrumSampleError,
    default_quadrature,
    discretize,
    dunford_heat,
    fit_diagonal_expansion,
    heat_diagonal,
    hille_yosida,
    hy_heat,
    log_coefficient_estimate,
    matrix_heat_reference,
    resolvent_bound_check,
)
from volcalc.specfile import load_corpus, load_operator_spec
from volcalc.symcore import CoefficientField, DomainError, QuadraticForm
from volcalc.volterra import OperatorSpec

from fields import cosine, sine

CORPUS = load_corpus()
Q0 = (4.0 * np.pi) ** -0.5


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------


def test_flat_spectrum_example():
    disc = discretize(CORPUS["flat_laplacian_1d"], 4)
    eigs = np.sort(disc.diagonal.real)[:7]
    assert np.allclose(eigs, [0, 1, 1, 4, 4, 9, 9])


def test_constant_shift_moves_spectrum_exactly():
    base = discretize(CORPUS["flat_laplacian_1d"], 6)
    shifted_op = OperatorSpec(QuadraticForm.flat(1), (CoefficientField.zero(1),),
                              CoefficientField.constant(1, 2.5), "shifted")
    shifted = discretize(shifted_op, 6)
    assert np.allclose(np.sort(shifted.diagonal.real),
                       np.sort(base.diagonal.real) + 2.5)


def test_cosine_off_band_stencil():
    disc = discretize(CORPUS["cosine_potential"], 8)
    M = disc.matrix
    assert disc.is_hermitian
    k1 = disc.freqs[:, 0]
    for k in range(-7, 7):
        row, col = np.flatnonzero(k1 == k + 1)[0], np.flatnonzero(k1 == k)[0]
        assert abs(M[row, col] - 0.5) < 1e-14
    assert disc.min_sym_eig < 0  # Mathieu ground state dips below zero


def test_discretize_2d_variable_coefficients_oracle():
    n = 4
    g11 = CoefficientField.constant(2, 1.0) + cosine(2, (1, 0), 0.4)
    g12 = cosine(2, (0, 1), 0.2)
    g22 = CoefficientField.constant(2, 1.0)
    zero = CoefficientField.zero(2)
    op = OperatorSpec(QuadraticForm([[g11, g12], [g12, g22]]), (zero, zero),
                      cosine(2, (1, 1)), "variable_2d")
    disc = discretize(op, n)
    assert disc.freqs.dtype.kind == "i"
    assert disc.freqs.shape == (81, 2)
    freqs = [tuple(k) for k in disc.freqs.tolist()]
    assert freqs == [(a, b) for a in range(-n, n + 1) for b in range(-n, n + 1)]
    g = [[g11.amplitudes, g12.amplitudes], [g12.amplitudes, g22.amplitudes]]
    v = op.potential.amplitudes
    for row, m in enumerate(freqs):
        for col, k in enumerate(freqs):
            r = (m[0] - k[0], m[1] - k[1])
            expect = sum(g[i][j].get(r, 0.0) * k[i] * k[j]
                         for i in range(2) for j in range(2)) + v.get(r, 0.0)
            assert abs(disc.matrix[row, col] - expect) <= 1e-14


def test_discretize_minimum_cutoff():
    with pytest.raises(DomainError):
        discretize(CORPUS["flat_laplacian_1d"], 3)


def test_discretize_refuses_oversized_dense_matrix():
    # the log ladder's t_min asks for n = 640, a (2n+1)^2-mode dense matrix
    g11 = CoefficientField.constant(2, 1.0) + cosine(2, (1, 0), 0.4)
    one, zero = CoefficientField.constant(2, 1.0), CoefficientField.zero(2)
    op = OperatorSpec(QuadraticForm([[g11, zero], [zero, one]]), (zero, zero), zero,
                      "variable_metric_2d")
    with pytest.raises(DomainError, match="dense"):
        log_coefficient_estimate(op, 4, n_x=16)


def test_min_sym_eig_computed_lazily_once(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    disc = discretize(CORPUS["cosine_potential"], 8)
    assert len(calls) == 0
    assert not disc.is_nonnegative()
    assert len(calls) == 1
    assert isinstance(disc.min_sym_eig, float) and disc.min_sym_eig < 0
    with pytest.raises(ValueError, match="nonnegative"):
        disc.require_nonnegative()
    assert len(calls) == 1


def _trig_2d(terms, constant=0.0):
    """constant + sum a cos<k,x> + b sin<k,x> over terms = [(k, a, b)]."""
    amps = {(0, 0): constant} if constant else {}
    for k, a, b in terms:
        amps[k] = (a - 1j * b) / 2
        amps[tuple(-f for f in k)] = (a + 1j * b) / 2
    return CoefficientField(2, amps)


def test_discretize_peak_memory_near_one_matrix():
    # a divergence-form 2-D operator, -div(g grad) + V with g11 = 1 + 0.3 cos x1:
    # its 961-mode matrix is Hermitian only up to rounding before it is
    # symmetrised, over several row blocks
    g11 = CoefficientField(2, {(0, 0): 1.0, (1, 0): 0.15, (-1, 0): 0.15})
    g12, g22 = CoefficientField.constant(2, 0.1), CoefficientField.constant(2, 1.1)
    drift = (CoefficientField(2, {(1, 0): -0.15j, (-1, 0): 0.15j}), CoefficientField.zero(2))
    potential = _trig_2d([((1, 1), 0.4, 0.2), ((0, 1), 0.6, 0.0)], constant=1.3)
    op = OperatorSpec(QuadraticForm([[g11, g12], [g12, g22]]), drift, potential,
                      "divergence_form_2d")
    tracemalloc.start()
    try:
        disc = discretize(op, 15)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    M = disc.matrix
    assert disc.size == 961 and disc.is_hermitian
    assert np.array_equal(M, M.conj().T)
    assert peak <= 1.25 * M.nbytes


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_discretize_mirror_symmetry(name):
    # real coefficients: reversing the lexicographic freqs maps k to -k and
    # conjugates every entry, which dunford_heat uses to solve one ray only
    M = discretize(CORPUS[name], 8).matrix
    assert np.array_equal(M[::-1, ::-1], M.conj())


def test_nonnegativity_gate():
    disc = discretize(CORPUS["cosine_potential"], 8)
    assert not disc.is_nonnegative()
    with pytest.raises(ValueError, match="nonnegative"):
        disc.require_nonnegative()
    discretize(CORPUS["perturbed_metric"], 8).require_nonnegative()


# ---------------------------------------------------------------------------
# contour heat family
# ---------------------------------------------------------------------------


def test_dunford_scalar_zero():
    E = dunford_heat(np.array([[0.0]]), 0.7)
    assert abs(E[0, 0] - 1.0) < 1e-10


def test_dunford_diag_example():
    E = dunford_heat(np.diag([1.0, 4.0]).astype(complex), 0.5)
    assert np.max(np.abs(E - np.diag(np.exp([-0.5, -2.0])))) < 1e-10


def test_dunford_default_accuracy_wide_spectrum():
    # the default quadrature is built for spectra in [0, 1e3]
    Q = np.diag([0.0, 1.0, 47.0, 256.0, 1000.0]).astype(complex)
    for t in (0.01, 0.1, 1.0, 10.0):
        E = dunford_heat(Q, t)
        assert np.max(np.abs(E - np.diag(np.exp(-t * np.diag(Q).real)))) < 1e-10


def test_dunford_semigroup_identity_random_psd():
    rng = np.random.default_rng(42)
    R = rng.standard_normal((20, 20))
    Q = R @ R.T / 4.0
    E1, E2, E3 = (dunford_heat(Q, t) for t in (0.3, 0.7, 1.0))
    assert np.linalg.norm(E1 @ E2 - E3, 2) <= 1e-8
    assert np.linalg.norm(E3, 2) <= 1.0 + 1e-10


def test_dunford_corpus_consistency_default_quadrature():
    for name in ("flat_laplacian_1d", "cosine_potential", "perturbed_metric"):
        disc = discretize(CORPUS[name], 16)
        for t in (0.01, 0.3, 1.0, 10.0):
            E = dunford_heat(disc, t)
            ref = matrix_heat_reference(disc, t)
            assert np.linalg.norm(E - ref, 2) <= 1e-8, (name, t)


def test_dunford_drift_needs_refined_panels():
    disc = discretize(CORPUS["drift_shift"], 16)
    quad = default_quadrature(0.3)
    E = dunford_heat(disc, 0.3, quad)
    assert np.linalg.norm(E - matrix_heat_reference(disc, 0.3), 2) <= 1e-10


def test_dunford_refuses_a_matrix_without_conjugate_symmetry():
    # neither Hermitian nor mirror-symmetric: no route solves one ray for both
    rng = np.random.default_rng(7)
    N = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    Q = np.diag([0.5, 1.0, 2.0, 3.5, 5.0, 8.0]) + 0.3 * N
    assert not np.array_equal(Q, Q.conj().T)
    assert not np.array_equal(Q[::-1, ::-1], Q.conj())
    with pytest.raises(DomainError, match="neither exactly Hermitian"):
        dunford_heat(Q, 0.3)
    # a complex diagonal without the mirror symmetry, dense or as the
    # diagonal of a hand-built operator
    diag = np.array([1.0 + 1.0j, 2.0, 3.0 - 0.5j])
    disc = semigroup.DiscretizedOperator(1, 1, np.arange(3)[:, None] - 1, False,
                                         diagonal=diag)
    for Q in (np.diag(diag), disc):
        with pytest.raises(DomainError, match="mirror-symmetric"):
            dunford_heat(Q, 0.3)


def test_dunford_refuses_a_matrix_hermitian_only_up_to_rounding():
    # one entry of a Hermitian matrix one ulp off, as a product R R^H can
    # leave it: refused, not solved on both rays
    rng = np.random.default_rng(5)
    R = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    H = R @ R.conj().T
    H = 0.5 * (H + H.conj().T)
    M = H.copy()
    M[0, 1] = complex(np.nextafter(H[0, 1].real, np.inf), H[0, 1].imag)
    assert not np.array_equal(M, M.conj().T)
    assert np.max(np.abs(M - M.conj().T)) <= 1e-12 * np.max(np.abs(M))
    with pytest.raises(DomainError, match="symmetrise"):
        dunford_heat(M, 0.5)
    E = dunford_heat(H, 0.5)
    assert np.linalg.norm(E - matrix_heat_reference(H, 0.5), 2) <= 1e-10


def test_dunford_hermitian_2d_variable_potential():
    # cos(x1 + x2) + sin(x2): complex Hermitian, so T has complex off-diagonals
    zero = CoefficientField.zero(2)
    op = OperatorSpec(QuadraticForm.flat(2), (zero, zero),
                      cosine(2, (1, 1)) + sine(2, (0, 1)), "potential_2d")
    disc = discretize(op, 4)
    assert disc.size == 81 and np.array_equal(disc.matrix, disc.matrix.conj().T)
    assert np.any(disc.matrix.imag != 0)
    for t in (0.3, 1.0):
        quad = default_quadrature(t)
        E = dunford_heat(disc, t, quad)
        assert np.linalg.norm(E - matrix_heat_reference(disc, t), 2) <= 1e-10
        assert np.linalg.norm(E - E.conj().T, 2) <= 1e-13


@pytest.mark.parametrize("name", ["flat_laplacian_2d", "drift_shift"])
def test_dunford_diagonal_input_makes_no_solve(name, monkeypatch):
    # a real diagonal (flat Laplacian) sums one ray, a complex one (drift) both
    disc = discretize(CORPUS[name], 6)
    assert disc.diagonal is not None
    ts = (0.3, 1.0)
    quads = {t: default_quadrature(t) for t in ts}
    refs = {t: matrix_heat_reference(disc, t) for t in ts}

    def refuse(*args, **kwargs):
        raise AssertionError("a diagonal input made a solve")

    monkeypatch.setattr(semigroup, "_tridiagonal_ray_sum", refuse)
    monkeypatch.setattr(semigroup, "zgbsv", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    for t in ts:
        E = dunford_heat(disc, t, quads[t])
        assert np.linalg.norm(E - refs[t], 2) <= 1e-10


def _metric_1d():
    """A variable metric outside divergence form, with drift: not Hermitian."""
    F = CoefficientField
    g = F(1, {(0,): 1.0, (1,): 0.125 - 0.0625j, (-1,): 0.125 + 0.0625j,
              (2,): -0.0625j, (-2,): 0.0625j})
    drift = F(1, {(1,): 0.1875 + 0.125j, (-1,): 0.1875 - 0.125j})
    potential = F(1, {(0,): 0.75, (1,): -0.25, (-1,): -0.25, (2,): 0.125j, (-2,): -0.125j})
    return OperatorSpec(QuadraticForm([[g]]), (drift,), potential, "metric_1d")


def _drift_2d():
    """const2d-like: constant metric, trig drift and potential, not Hermitian."""
    g = [[CoefficientField.constant(2, 1.125), CoefficientField.constant(2, -0.1875)],
         [CoefficientField.constant(2, -0.1875), CoefficientField.constant(2, 1.0625)]]
    drift = (_trig_2d([((1, 0), 0.25, -0.1875)]), _trig_2d([((0, 1), -0.125, 0.3125)]))
    potential = _trig_2d([((1, 0), 0.375, -0.25), ((0, 1), 0.125, 0.5),
                          ((1, 1), -0.3125, 0.1875)])
    return OperatorSpec(QuadraticForm(g), drift, potential, "drift_2d")


@pytest.mark.parametrize("make, n", [(_metric_1d, 16), (_drift_2d, 4)],
                         ids=["metric_1d", "drift_2d"])
def test_dunford_non_hermitian_galerkin_takes_band_route(make, n, monkeypatch):
    # every non-diagonal corpus matrix is Hermitian, so both operators are built here
    disc = discretize(make(), n)
    assert not disc.is_hermitian
    ts = (0.3, 1.0)
    quads = {t: default_quadrature(t) for t in ts}
    refs = {t: matrix_heat_reference(disc, t) for t in ts}
    bands = []
    zgbsv = semigroup.zgbsv

    def recording(kl, ku, *args, **kwargs):
        bands.append((kl, ku))
        return zgbsv(kl, ku, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("a non-Hermitian input left the band route")

    monkeypatch.setattr(semigroup, "zgbsv", recording)
    monkeypatch.setattr(semigroup, "_tridiagonal_ray_sum", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    for t in ts:
        bands.clear()
        E = dunford_heat(disc, t, quads[t])
        assert np.linalg.norm(E - refs[t], 2) <= 1e-10, t
        # mirror-symmetric (real coefficients): one banded solve per upper-ray node
        assert len(bands) == len(quads[t].nodes(t)[0])
        assert set(bands) == {(2, 2) if disc.dim == 1 else (10, 10)}


@pytest.mark.parametrize("name", ["cosine_potential", "perturbed_metric"])
def test_dunford_hermitian_galerkin_takes_closed_form_route(name, monkeypatch):
    # one closed-form pass over the whole ray, and no solver call at any node
    disc = discretize(CORPUS[name], 16)
    assert disc.is_hermitian and disc.diagonal is None
    assert not hasattr(semigroup, "zgtsv")
    ts = (0.3, 1.0)
    quads = {t: default_quadrature(t) for t in ts}
    refs = {t: matrix_heat_reference(disc, t) for t in ts}
    passes = []
    ray_sum = semigroup._tridiagonal_ray_sum

    def recording(a, b, lams, coefs):
        passes.append(lams.size)
        return ray_sum(a, b, lams, coefs)

    def refuse(*args, **kwargs):
        raise AssertionError("a Hermitian input made a per-node solve")

    monkeypatch.setattr(semigroup, "_tridiagonal_ray_sum", recording)
    monkeypatch.setattr(semigroup, "zgbsv", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    for t in ts:
        passes.clear()
        E = dunford_heat(disc, t, quads[t])
        assert np.linalg.norm(E - refs[t], 2) <= 1e-10, t
        assert passes == [len(quads[t].nodes(t)[0])]


def _hermitian(eigs, seed):
    """A complex Hermitian matrix with the given spectrum, exactly Hermitian."""
    rng = np.random.default_rng(seed)
    n = len(eigs)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    A = (U * np.asarray(eigs, dtype=float)) @ U.conj().T
    return 0.5 * (A + A.conj().T)


def _upper_ray(t):
    s, w = default_quadrature(t).nodes(t)
    lams = CONTOUR_VERTEX + s * (1.0 + 1j)
    return lams, w * np.exp(-t * lams) * (1.0 + 1j)


def _vertex_nodes():
    # four nodes with s ~ 1e-4 next to the vertex, where T - lam is worst conditioned
    lams = CONTOUR_VERTEX + 1e-4 * np.array([0.5, 1.0, 2.0, 4.0]) * (1.0 + 1j)
    return lams, np.array([1.0, -2.0j, 0.5 + 1.0j, 3.0])


def _reducible():
    rng = np.random.default_rng(3)
    b = rng.uniform(0.5, 3.0, 9)
    b[4] = 0.0  # T splits into two 5 x 5 blocks
    return np.diag(rng.uniform(0.0, 20.0, 10)) + np.diag(b, 1) + np.diag(b, -1)


@pytest.mark.parametrize("A, nodes", [
    (_hermitian(np.linspace(0.0, 50.0, 12), 1), _upper_ray(0.3)),
    (_reducible(), _upper_ray(0.3)),
    (_hermitian(np.r_[-0.5, np.linspace(0.5, 30.0, 11)], 2), _upper_ray(1.0)),
    (_hermitian(np.r_[-0.9999, -0.5, np.linspace(0.5, 30.0, 10)], 4), _vertex_nodes()),
], ids=["complex_hermitian", "reducible", "indefinite", "near_vertex"])
def test_tridiagonal_ray_sum_matches_dense_solves(A, nodes):
    # Z X Z^H = sum_j c_j (A - lam_j)^{-1}, against one dense solve per node;
    # the tolerance is rounding times the worst condition number over the nodes
    lams, coefs = nodes
    eye = np.eye(A.shape[0])
    Z, a, b = semigroup._real_tridiagonal(A)
    assert np.all(b >= 0)
    T = np.diag(a) + np.diag(b, 1) + np.diag(b, -1)
    assert np.linalg.norm(Z @ T @ Z.conj().T - A, 2) <= 1e-13 * np.linalg.norm(A, 2)
    X = Z @ semigroup._tridiagonal_ray_sum(a, b, lams, coefs) @ Z.conj().T
    ref = sum(c * np.linalg.solve(A - lam * eye, eye) for lam, c in zip(lams, coefs))
    kappa = max(np.linalg.cond(A - lam * eye) for lam in lams)
    assert np.linalg.norm(X - ref, 2) <= 4 * np.finfo(float).eps * kappa * np.linalg.norm(ref, 2)


def test_dunford_hermitian_overflow_raises():
    # eigenvalues 2e200 and 4e200, inside the wedge: the pivot recurrence
    # overflows, and no node is finite
    Q = np.array([[3e200, 1e200], [1e200, 3e200]])
    with pytest.raises(SpectrumSampleError):
        dunford_heat(Q, 0.5)
    # eigenvalues 1 +- 1e200: -1e200 lies outside the wedge, and the least
    # eigenvalue of T is found without overflow
    with pytest.raises(DomainError, match="outside the wedge"):
        dunford_heat(np.array([[1.0, 1e200], [1e200, 1.0]]), 0.5)


@pytest.mark.parametrize("corner", [(7, 0), (8, 0)])
def test_dunford_band_reaches_the_corner(corner):
    # a random mirror-symmetric band of half-width 2, not Hermitian, widened
    # to the full band by the corner (n - 1, 0) and its mirror (0, n - 1);
    # at odd n the centre entry is its own mirror, as in a Galerkin matrix
    rng = np.random.default_rng(11)
    n = corner[0] + 1
    k = np.arange(n) - (n - 1) / 2.0
    Q = np.diag(0.5 + k ** 2 / 4.0 + 0.3j * k)
    for j in (-2, -1, 1):
        Q += 0.3 * np.diag(rng.standard_normal(n - abs(j))
                           + 1j * rng.standard_normal(n - abs(j)), j)
    Q = 0.5 * (Q + Q[::-1, ::-1].conj())
    Q[corner], Q[0, n - 1] = 0.4 - 0.25j, 0.4 + 0.25j
    assert semigroup._bandwidth(Q) == n - 1
    assert np.array_equal(Q[::-1, ::-1], Q.conj())
    assert not np.array_equal(Q, Q.conj().T)
    for t in (0.3, 1.0):
        quad = default_quadrature(t)
        assert np.linalg.norm(dunford_heat(Q, t, quad) - expm(-t * Q), 2) <= 1e-10


def test_dunford_node_on_the_spectrum_raises():
    t = 0.5
    quad = default_quadrature(t)
    s, w = quad.nodes(t)
    lams = CONTOUR_VERTEX + s * (1.0 + 1j)  # the upper ray, formed as dunford_heat does
    lam = lams[7]
    Q = np.array([[lam, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 1.0, np.conj(lam)]])
    assert np.array_equal(Q[::-1, ::-1], Q.conj())  # the banded route
    # an eigenvalue on the contour is not inside the wedge: refused up front
    with pytest.raises(DomainError, match="outside the wedge"):
        dunford_heat(Q, t, quad)
    # the banded solve itself reports the exact zero pivot at that node
    k = semigroup._bandwidth(Q)
    with pytest.raises(SpectrumSampleError):
        semigroup._ray_sum(semigroup._band_storage(Q, k), k, lams, w)


def _potential_ops():
    flat, zero = QuadraticForm.flat(1), CoefficientField.zero(1)
    cos = lambda a: cosine(1, (1,), a)  # noqa: E731
    return {
        # V = -3 cos x: Hermitian, least eigenvalue -1.84
        "hermitian": OperatorSpec(flat, (zero,), cos(-3.0)),
        # b = 0.5 cos x, V = -3 cos x: mirror-symmetric band, eigenvalue -1.81
        "banded": OperatorSpec(flat, (cos(0.5),), cos(-3.0)),
        # V = -2: a real diagonal with entries -2 and -1
        "real_diagonal": OperatorSpec(flat, (zero,), CoefficientField.constant(1, -2.0)),
        # b = 3: a complex diagonal k^2 + 3ik, with 4 - 6i at k = -2
        "complex_diagonal": OperatorSpec(flat, (CoefficientField.constant(1, 3.0),), zero),
        # b = 2 cos x, V = -2 cos x: the numerical range crosses the contour,
        # the spectrum does not
        "accepted": OperatorSpec(flat, (cos(2.0),), cos(-2.0)),
    }


@pytest.mark.parametrize("name", ["hermitian", "banded", "real_diagonal", "complex_diagonal"])
def test_dunford_refuses_a_spectrum_outside_the_wedge(name):
    # the contour encloses |Im z| < Re z + 1 only; at the parent commit these
    # returned exp(-tQ) times a spectral projector, 0.4 to 7.4 off in 2-norm
    disc = discretize(_potential_ops()[name], 16)
    eigs = np.linalg.eigvals(disc.matrix)
    assert not np.all(np.abs(eigs.imag) < eigs.real - CONTOUR_VERTEX)
    with pytest.raises(DomainError, match="outside the wedge"):
        dunford_heat(disc, 0.3)
    with pytest.raises(DomainError, match="outside the wedge"):
        dunford_heat(disc.matrix, 0.3)  # the dense input takes the same route


def test_dunford_accepts_a_numerical_range_across_the_contour():
    # the test is on the spectrum: a numerical range that reaches outside the
    # wedge does not refuse an operator whose eigenvalues lie inside it
    disc = discretize(_potential_ops()["accepted"], 16)
    M = disc.matrix
    assert np.linalg.eigvalsh(0.5 * (M + M.conj().T)).min() < CONTOUR_VERTEX
    eigs = disc.eigenvalues
    assert np.all(np.abs(eigs.imag) < eigs.real - CONTOUR_VERTEX)
    for t in (0.3, 1.0):
        for Q in (disc, M):  # cached eigenvalues, and a raw array's own
            assert np.linalg.norm(dunford_heat(Q, t) - expm(-t * M), 2) <= 1e-12
    assert disc.eigenvalues is eigs  # computed once per operator


def test_dunford_rejects_undersized_contour():
    with pytest.raises(ValueError, match="s_max"):
        dunford_heat(np.array([[1.0]]), 0.01, ContourQuadrature(s_max=40.0))
    with pytest.raises(DomainError):
        dunford_heat(np.array([[1.0]]), 0.0)


def test_contour_refuses_a_time_whose_weights_leave_no_digit():
    # the vertex -1 weighs the integrand by up to e^t, and e^t * eps reaches
    # CONTOUR_TOL at t = ln(1e-8 / 2^-52) = 17.62 (and 1 at 36.04); the panel
    # count also grows like t / 2
    for t in (17.7, 20.0, 40.0, 1e4):
        with pytest.raises(DomainError, match="weights exceeds CONTOUR_TOL"):
            default_quadrature(t).nodes(t)
        with pytest.raises(DomainError, match="weights exceeds CONTOUR_TOL"):
            ContourQuadrature().nodes(t)
    with pytest.raises(DomainError, match="weights exceeds CONTOUR_TOL"):
        dunford_heat(np.array([[1.0]]), 20.0)
    # below the bound the error stays under e^t * eps, so under CONTOUR_TOL
    for t in (5.0, 10.0, 15.0, 17.6):
        E = dunford_heat(np.array([[1.0]]), t)
        assert abs(E[0, 0] - np.exp(-t)) <= np.exp(t) * np.finfo(float).eps < CONTOUR_TOL


@pytest.mark.parametrize("t, message", [
    (0.0, "time 0 is not positive"),
    (-1.0, "time -1 is not positive"),
    (float("nan"), "time nan is not positive"),
    (1e-320, "the contour reach 40/t is not finite"),
], ids=["zero", "negative", "nan", "reach_overflows"])
def test_contour_refuses_a_time_below_its_range(t, message):
    # each entry point reaches the one time check before it divides by t,
    # a quadrature passed in included
    for call in (lambda: dunford_heat(np.array([[1.0]]), t, ContourQuadrature()),
                 lambda: dunford_heat(np.array([[1.0]]), t),
                 lambda: default_quadrature(t),
                 lambda: ContourQuadrature().panel_edges(t)):
        with pytest.raises(DomainError, match=message):
            call()


# ---------------------------------------------------------------------------
# bounded approximants
# ---------------------------------------------------------------------------


def test_hy_scalar_example():
    got = hille_yosida(np.array([[1.0]]), 1.0)
    assert abs(got[0, 0] - 0.5) < 1e-14


def test_hy_contractivity_grid():
    Q = np.diag([0.0, 1.0, 4.0, 9.0]).astype(complex)
    for lam in (1.0, 10.0, 100.0):
        for t in (0.1, 1.0, 10.0):
            assert np.linalg.norm(hy_heat(Q, lam, t), 2) <= 1.0 + 1e-10


def test_hy_convergence_example():
    Q = np.diag([1.0, 4.0]).astype(complex)
    ref = np.diag(np.exp([-1.0, -4.0]))
    errs = [np.linalg.norm(hy_heat(Q, lam, 1.0) - ref, 2)
            for lam in (10.0, 1e2, 1e3, 1e4)]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 1e-3


def test_hy_rejects_nonpositive_lambda():
    with pytest.raises(DomainError):
        hille_yosida(np.array([[1.0]]), 0.0)


# ---------------------------------------------------------------------------
# resolvent bound
# ---------------------------------------------------------------------------


def test_resolvent_bound_scalar_example():
    c = resolvent_bound_check(np.array([[0.0]]), [1j])  # -1 + (1 + i) on the ray
    assert abs(c - 2.0) < 1e-12


def test_resolvent_bound_stable_under_refinement():
    Q = np.diag(np.arange(10, dtype=float))

    def bound(n_nodes):
        s = np.geomspace(0.05, 30.0, n_nodes // 2)
        samples = np.concatenate([-1 + s * (1 + 1j), -1 + s * (1 - 1j)])
        return resolvent_bound_check(Q, samples)

    c50, c100 = bound(50), bound(100)
    assert np.isfinite(c50) and np.isfinite(c100)
    assert abs(c100 - c50) <= 0.1 * c100


def test_resolvent_bound_of_a_diagonal_operator_makes_no_svd(monkeypatch):
    # flat_laplacian_2d is stored as its diagonal: Q - lambda is diagonal too.
    # Both routes run at any size; 169 modes keep the dense reference cheap
    disc = discretize(CORPUS["flat_laplacian_2d"], 6)
    assert disc.diagonal is not None
    s = np.linspace(0.3, 30.0, 25)
    samples = CONTOUR_VERTEX + np.concatenate([s * (1 + 1j), s * (1 - 1j)])
    dense = resolvent_bound_check(disc.matrix, samples)

    def no_svd(*args, **kwargs):
        raise AssertionError("dense SVD on a diagonal operator")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert resolvent_bound_check(disc, samples) == dense
    with pytest.raises(SpectrumSampleError):
        resolvent_bound_check(disc, [disc.diagonal[0]])


def test_resolvent_bound_errors():
    with pytest.raises(ValueError):
        resolvent_bound_check(np.array([[0.0]]), [])
    with pytest.raises(SpectrumSampleError):
        resolvent_bound_check(np.diag([1.0, 2.0]), [1.0])


# ---------------------------------------------------------------------------
# diagonal fits
# ---------------------------------------------------------------------------


def test_fit_flat_laplacian_example():
    times = np.geomspace(0.005, 0.05, 16)
    fit = fit_diagonal_expansion(CORPUS["flat_laplacian_1d"], times, 2, n_x=4)
    c = fit.coefficients[0]
    assert abs(c[0] - Q0) <= 1e-3
    assert abs(c[1]) <= 1e-2 and abs(c[2]) <= 1e-2


def test_fit_constant_potential_c2():
    op = OperatorSpec(QuadraticForm.flat(1), (CoefficientField.zero(1),),
                      CoefficientField.constant(1, 1.0), "shift_one")
    times = np.geomspace(0.02, 0.3, 28)
    fit = fit_diagonal_expansion(op, times, 6, n_x=4)
    assert abs(fit.coefficients[0][2] + Q0) <= 1e-2


def test_fit_log_estimator_clean_and_sensitive(monkeypatch):
    op = CORPUS["flat_laplacian_1d"]
    est, _ = log_coefficient_estimate(op, 4, n_x=4)
    assert np.max(np.abs(est)) <= 1e-5
    heat_diagonal = semigroup.heat_diagonal

    def spiked_diagonal(disc, times, n_x):
        # a planted 1e-3 * t^((J - d)/2) log t term, J = 4 and d = 1
        diag, grid = heat_diagonal(disc, times, n_x=n_x)
        return diag + 1e-3 * (times ** 1.5 * np.log(times))[:, None], grid

    monkeypatch.setattr(semigroup, "heat_diagonal", spiked_diagonal)
    spiked, _ = log_coefficient_estimate(op, 4, n_x=4)
    assert abs(np.max(np.abs(spiked)) - 1e-3) <= 1e-4


def test_fit_preconditions():
    op = CORPUS["flat_laplacian_1d"]
    with pytest.raises(DomainError):
        fit_diagonal_expansion(op, np.geomspace(0.01, 0.6, 24), 2, n_x=4)
    with pytest.raises(DomainError):
        fit_diagonal_expansion(op, np.geomspace(0.01, 0.1, 5), 2, n_x=4)
    with pytest.raises(DomainError):
        fit_diagonal_expansion(op, np.geomspace(0.01, 0.1, 24), 2, n=8, n_x=4)


def test_heat_diagonal_matches_theta_series():
    disc = discretize(CORPUS["flat_laplacian_1d"], 32)
    times = np.array([0.01, 0.1])
    diag, grid = heat_diagonal(disc, times, n_x=4)
    for i, t in enumerate(times):
        theta = sum(np.exp(-t * k**2) for k in range(-32, 33)) / (2 * np.pi)
        assert abs(diag[i, 0] - theta) < 1e-12


def _real_coefficient_op(name):
    """Real-coefficient operators; the sine terms make the cos/sin blocks couple."""
    one1, one2 = CoefficientField.constant(1, 1.0), CoefficientField.constant(2, 1.0)
    zero1, zero2 = CoefficientField.zero(1), CoefficientField.zero(2)
    if name == "hermitian_1d":
        return OperatorSpec(QuadraticForm.flat(1), (zero1,),
                            cosine(1, (1,)) + sine(1, (2,), 0.5), name)
    if name == "drift_metric_1d":
        return OperatorSpec(QuadraticForm([[one1 + cosine(1, (1,), 0.3)]]),
                            (sine(1, (1,), 0.4),), cosine(1, (1,)) + sine(1, (2,), 0.5), name)
    if name == "hermitian_2d":
        return OperatorSpec(QuadraticForm.flat(2), (zero2, zero2),
                            cosine(2, (1, 1)) + sine(2, (0, 1), 0.5), name)
    g11, g12 = one2 + cosine(2, (1, 0), 0.4), cosine(2, (0, 1), 0.2)  # metric_2d
    return OperatorSpec(QuadraticForm([[g11, g12], [g12, one2]]), (zero2, zero2),
                        cosine(2, (1, 1)) + sine(2, (1, 0), 0.3), name)


DENSE_HEAT_CASES = {  # name: (mode cutoff, grid points per axis, Hermitian)
    "hermitian_1d": (12, 8, True),
    "drift_metric_1d": (12, 8, False),
    "hermitian_2d": (4, 4, True),
    "metric_2d": (4, 4, False),
}
DENSE_HEAT_TIMES = np.array([0.05, 0.2])


def _expm_diagonal(disc, times, n_x):
    """(2 pi)^-d v(x)^T expm(-tM) conj(v(x)) on heat_diagonal's grid."""
    d = disc.dim
    ax = 2.0 * np.pi * np.arange(n_x) / n_x
    grid = ax[np.indices((n_x,) * d).reshape(d, -1).T]
    V = np.exp(1j * grid @ disc.freqs.T)
    return np.array([np.einsum("xk,kl,xl->x", V, expm(-t * disc.matrix), V.conj())
                     for t in times]) * (2.0 * np.pi) ** (-d)


def _refuse_complex(eigensolver):
    def real_only(a, *args, **kwargs):
        if np.iscomplexobj(a):
            raise AssertionError(f"complex {eigensolver.__name__} of size {len(a)}")
        return eigensolver(a, *args, **kwargs)
    return real_only


@pytest.mark.parametrize("name", sorted(DENSE_HEAT_CASES))
def test_heat_diagonal_real_basis_matches_expm(name, monkeypatch):
    n, n_x, hermitian = DENSE_HEAT_CASES[name]
    disc = discretize(_real_coefficient_op(name), n)
    assert disc.is_hermitian == hermitian
    assert np.array_equal(disc.matrix[::-1, ::-1], disc.matrix.conj())
    ref = _expm_diagonal(disc, DENSE_HEAT_TIMES, n_x)
    # the real form is eigen-decomposed: no complex eig or eigh is made
    monkeypatch.setattr(np.linalg, "eig", _refuse_complex(np.linalg.eig))
    monkeypatch.setattr(np.linalg, "eigh", _refuse_complex(np.linalg.eigh))
    diag, _ = heat_diagonal(disc, DENSE_HEAT_TIMES, n_x=n_x)
    assert np.max(np.abs(diag - ref) / np.abs(ref)) <= 1e-12


def test_heat_diagonal_refuses_a_matrix_without_mirror_symmetry():
    # the self-adjoint drift term -0.3i d/dx, added by hand, keeps the matrix
    # Hermitian but has no real-basis form
    base = discretize(_real_coefficient_op("hermitian_1d"), 12)
    M = base.matrix + np.diag(0.3 * base.freqs[:, 0])
    disc = semigroup.DiscretizedOperator(base.n, 1, base.freqs, True, _matrix=M)
    with pytest.raises(DomainError, match="mirror-symmetric"):
        heat_diagonal(disc, DENSE_HEAT_TIMES, n_x=8)


def test_heat_diagonal_tests_symmetry_not_the_stored_flag():
    # drift_shift's dense matrix (the drift 2 d/dx) is not Hermitian; flagged
    # Hermitian by hand, it must still not take the symmetric eigensolver
    base = discretize(CORPUS["drift_shift"], 12)
    disc = semigroup.DiscretizedOperator(base.n, 1, base.freqs, True, _matrix=base.matrix)
    times = [0.1, 0.3]
    ref, _ = heat_diagonal(base, times, n_x=8)  # constant coefficients: the diagonal path
    diag, _ = heat_diagonal(disc, times, n_x=8)
    assert np.max(np.abs(diag - ref) / np.abs(ref)) <= 1e-12


def _near_real_drift_doc(eps):
    """1-D drift spec whose c_{-1} of b is eps off conj(c_1)."""
    return {"name": "near_real", "dim": 1,
            "g": [{"i": 0, "j": 0, "freq": [0], "re": 1.0}],
            "b": [[{"freq": [1], "re": 0.25, "im": -0.125},
                   {"freq": [-1], "re": 0.25 + eps, "im": 0.125}]],
            "V": [{"freq": [0], "re": 1.0}, {"freq": [1], "re": 0.5},
                  {"freq": [-1], "re": 0.5}]}


def test_near_real_spec_is_stored_exactly_real(monkeypatch):
    # real to 1e-12 relative loads, and its coefficients are stored exactly
    # real, so the oracle keeps its real-coefficient routes
    exact = discretize(load_operator_spec(_near_real_drift_doc(0.0)), 12)
    disc = discretize(load_operator_spec(_near_real_drift_doc(1e-13)), 12)
    assert not disc.is_hermitian
    assert np.array_equal(disc.matrix[::-1, ::-1], disc.matrix.conj())
    ref, _ = heat_diagonal(exact, DENSE_HEAT_TIMES, n_x=8)
    monkeypatch.setattr(np.linalg, "eig", _refuse_complex(np.linalg.eig))
    diag, _ = heat_diagonal(disc, DENSE_HEAT_TIMES, n_x=8)
    assert np.max(np.abs(diag - ref) / np.abs(ref)) <= 1e-11
    E, E_exact = (dunford_heat(D, 0.3) for D in (disc, exact))
    assert np.linalg.norm(E - E_exact, 2) <= 1e-11


@pytest.mark.parametrize("name", sorted(DENSE_HEAT_CASES))
def test_real_form_is_the_cos_sin_similarity(name):
    A = discretize(_real_coefficient_op(name), DENSE_HEAT_CASES[name][0]).matrix
    size = len(A)
    c = (size - 1) // 2
    half = np.arange(c + 1, size)
    mirror = size - 1 - half  # reversal maps k to -k
    U = np.zeros((size, size), dtype=complex)
    U[c, 0] = 1.0
    cols = np.arange(half.size)
    U[half, 1 + cols] = U[mirror, 1 + cols] = 2.0 ** -0.5
    U[half, 1 + half.size + cols] = -1j * 2.0 ** -0.5
    U[mirror, 1 + half.size + cols] = 1j * 2.0 ** -0.5
    R = semigroup._real_form(A)
    assert R.dtype == np.float64
    assert np.max(np.abs(R - U.conj().T @ A @ U)) <= 1e-14 * np.max(np.abs(A))


def test_corpus_spectral_positivity():
    # all corpus operators are nonnegative except the Mathieu-type potential,
    # whose ground state genuinely dips below zero
    for name, op in CORPUS.items():
        disc = discretize(op, 16 if op.dim == 1 else 6)
        if name == "cosine_potential":
            assert disc.min_sym_eig < -1e-2
        else:
            assert disc.min_sym_eig >= -1e-8, name


def test_oracle_imports_nothing_from_the_symbol_pipeline():
    # the oracle shares only coefficient storage (symcore) with the symbol side
    with open(semigroup.__file__) as fh:
        tree = ast.parse(fh.read())
    pipeline = {"volterra", "heatexp", "deform", "moments"}
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(a.name.split(".")[-1] for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(part for a in node.names for part in a.name.split("."))
    assert not imported & pipeline
