"""Spectral discretization, contour heat family, approximants, diagonal fits."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from volcalc import semigroup
from volcalc.semigroup import (
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
from volcalc.specfile import load_corpus
from volcalc.symcore import CoefficientField, DomainError, QuadraticForm
from volcalc.volterra import OperatorSpec

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
    cos = CoefficientField.real_cosine
    g11 = CoefficientField.constant(2, 1.0) + cos(2, (1, 0), 0.4)
    g12 = cos(2, (0, 1), 0.2)
    g22 = CoefficientField.constant(2, 1.0)
    zero = CoefficientField.zero(2)
    op = OperatorSpec(QuadraticForm([[g11, g12], [g12, g22]]), (zero, zero),
                      cos(2, (1, 1)), "variable_2d")
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
    g11 = CoefficientField.constant(2, 1.0) + CoefficientField.real_cosine(2, (1, 0), 0.4)
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


def test_dunford_general_complex_matrix_matches_expm():
    # neither Hermitian nor mirror-symmetric: both rays are solved
    rng = np.random.default_rng(7)
    N = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    Q = np.diag([0.5, 1.0, 2.0, 3.5, 5.0, 8.0]) + 0.3 * N
    assert not np.array_equal(Q, Q.conj().T)
    assert not np.array_equal(Q[::-1, ::-1], Q.conj())
    for t in (0.3, 1.0):
        quad = default_quadrature(t)
        assert np.linalg.norm(dunford_heat(Q, t, quad) - expm(-t * Q), 2) <= 1e-10


def test_dunford_hermitian_2d_variable_potential():
    # cos(x1 + x2) + sin(x2): complex Hermitian, so T has complex off-diagonals
    sine = CoefficientField(2, {(0, 1): -0.5j, (0, -1): 0.5j})
    zero = CoefficientField.zero(2)
    op = OperatorSpec(QuadraticForm.flat(2), (zero, zero),
                      CoefficientField.real_cosine(2, (1, 1)) + sine, "potential_2d")
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
    dense = disc.matrix.copy()

    def refuse(*args, **kwargs):
        raise AssertionError("a diagonal input made a solve")

    monkeypatch.setattr(semigroup, "zgtsv", refuse)
    monkeypatch.setattr(semigroup, "zgbsv", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    for t in ts:
        E = dunford_heat(disc, t, quads[t])
        assert np.linalg.norm(E - refs[t], 2) <= 1e-10
        # the same operator as a dense matrix with exactly zero off-diagonals
        assert np.array_equal(dunford_heat(dense, t, quads[t]), E)


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
    monkeypatch.setattr(semigroup, "zgtsv", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    for t in ts:
        bands.clear()
        E = dunford_heat(disc, t, quads[t])
        assert np.linalg.norm(E - refs[t], 2) <= 1e-10, t
        # mirror-symmetric (real coefficients): one banded solve per upper-ray node
        assert len(bands) == len(quads[t].nodes(t)[0])
        assert set(bands) == {(2, 2) if disc.dim == 1 else (10, 10)}


@pytest.mark.parametrize("corner", [(7, 0), (0, 7)])
def test_dunford_band_reaches_the_corner(corner):
    # a random band (kl, ku) = (2, 1), neither Hermitian nor mirror-symmetric,
    # widened to the full lower or upper triangle by a single corner entry
    rng = np.random.default_rng(11)
    n = 8
    Q = np.diag(np.linspace(0.5, 6.0, n)).astype(complex)
    for k in (-2, -1, 1):
        Q += 0.3 * np.diag(rng.standard_normal(n - abs(k))
                           + 1j * rng.standard_normal(n - abs(k)), k)
    Q[corner] = 0.4 - 0.25j
    assert semigroup._bandwidth(Q) == ((7, 1) if corner == (7, 0) else (2, 7))
    assert not np.array_equal(Q[::-1, ::-1], Q.conj())
    for t in (0.3, 1.0):
        quad = default_quadrature(t)
        assert np.linalg.norm(dunford_heat(Q, t, quad) - expm(-t * Q), 2) <= 1e-10


def test_dunford_node_on_the_spectrum_raises():
    t = 0.5
    quad = default_quadrature(t)
    s, _ = quad.nodes(t)
    lam = (CONTOUR_VERTEX + s * (1.0 + 1j))[7]  # an upper-ray node, formed as dunford_heat does
    Q = np.array([[lam, 1.0], [0.0, 2.0]])
    with pytest.raises(SpectrumSampleError):
        dunford_heat(Q, t, quad)


def test_dunford_rejects_undersized_contour():
    with pytest.raises(ValueError, match="s_max"):
        dunford_heat(np.array([[1.0]]), 0.01, ContourQuadrature(s_max=40.0))
    with pytest.raises(DomainError):
        dunford_heat(np.array([[1.0]]), 0.0)


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


def test_fit_log_estimator_clean_and_sensitive():
    op = CORPUS["flat_laplacian_1d"]
    est, _ = log_coefficient_estimate(op, 4, n_x=4)
    assert np.max(np.abs(est)) <= 1e-5
    spiked, _ = log_coefficient_estimate(op, 4, n_x=4, _inject=1e-3)
    assert abs(np.max(np.abs(spiked)) - 1e-3) <= 1e-4


def test_fit_preconditions():
    op = CORPUS["flat_laplacian_1d"]
    with pytest.raises(DomainError):
        fit_diagonal_expansion(op, np.geomspace(0.01, 0.6, 24), 2)
    with pytest.raises(DomainError):
        fit_diagonal_expansion(op, np.geomspace(0.01, 0.1, 5), 2)
    with pytest.raises(DomainError):
        fit_diagonal_expansion(op, np.geomspace(0.01, 0.1, 24), 2, n=8)


def test_heat_diagonal_matches_theta_series():
    disc = discretize(CORPUS["flat_laplacian_1d"], 32)
    times = np.array([0.01, 0.1])
    diag, grid = heat_diagonal(disc, times, n_x=4)
    for i, t in enumerate(times):
        theta = sum(np.exp(-t * k**2) for k in range(-32, 33)) / (2 * np.pi)
        assert abs(diag[i, 0] - theta) < 1e-12


def _sine(dim, freq, amplitude=1.0):
    """amplitude * sin(<freq, x>)."""
    k = tuple(freq)
    return CoefficientField(dim, {k: -0.5j * amplitude,
                                  tuple(-f for f in k): 0.5j * amplitude})


def _real_coefficient_op(name):
    """Real-coefficient operators; the sine terms make the cos/sin blocks couple."""
    cos = CoefficientField.real_cosine
    one1, one2 = CoefficientField.constant(1, 1.0), CoefficientField.constant(2, 1.0)
    zero1, zero2 = CoefficientField.zero(1), CoefficientField.zero(2)
    if name == "hermitian_1d":
        return OperatorSpec(QuadraticForm.flat(1), (zero1,),
                            cos(1, (1,)) + _sine(1, (2,), 0.5), name)
    if name == "drift_metric_1d":
        return OperatorSpec(QuadraticForm([[one1 + cos(1, (1,), 0.3)]]),
                            (_sine(1, (1,), 0.4),), cos(1, (1,)) + _sine(1, (2,), 0.5), name)
    if name == "hermitian_2d":
        return OperatorSpec(QuadraticForm.flat(2), (zero2, zero2),
                            cos(2, (1, 1)) + _sine(2, (0, 1), 0.5), name)
    g11, g12 = one2 + cos(2, (1, 0), 0.4), cos(2, (0, 1), 0.2)  # metric_2d
    return OperatorSpec(QuadraticForm([[g11, g12], [g12, one2]]), (zero2, zero2),
                        cos(2, (1, 1)) + _sine(2, (1, 0), 0.3), name)


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
    assert semigroup._mirror_symmetric(disc.matrix)
    ref = _expm_diagonal(disc, DENSE_HEAT_TIMES, n_x)
    # the real form is eigen-decomposed: no complex eig or eigh is made
    monkeypatch.setattr(np.linalg, "eig", _refuse_complex(np.linalg.eig))
    monkeypatch.setattr(np.linalg, "eigh", _refuse_complex(np.linalg.eigh))
    diag, _ = heat_diagonal(disc, DENSE_HEAT_TIMES, n_x=n_x)
    assert np.max(np.abs(diag - ref) / np.abs(ref)) <= 1e-12


@pytest.mark.parametrize("term", ["potential", "drift"])
def test_heat_diagonal_non_real_coefficient_takes_complex_path(term, monkeypatch):
    # potential 0.2 e^{ix} (no -1 mode) or the self-adjoint drift term -0.3i d/dx:
    # either breaks the mirror symmetry, so the complex basis is kept
    base = discretize(_real_coefficient_op("hermitian_1d"), 12)
    k = base.freqs[:, 0]
    if term == "potential":
        M, hermitian, solver = base.matrix + 0.2 * (k[:, None] == k[None, :] + 1), False, "eig"
    else:
        M, hermitian, solver = base.matrix + np.diag(0.3 * k), True, "eigh"
    disc = semigroup.DiscretizedOperator(base.n, 1, base.freqs, hermitian, _matrix=M)
    assert not semigroup._mirror_symmetric(M)
    # heat_diagonal returns the real part of a complex diagonal
    ref = _expm_diagonal(disc, DENSE_HEAT_TIMES, 8).real
    diag, _ = heat_diagonal(disc, DENSE_HEAT_TIMES, n_x=8)
    assert np.max(np.abs(diag - ref) / np.abs(ref)) <= 1e-12
    monkeypatch.setattr(np.linalg, solver, _refuse_complex(getattr(np.linalg, solver)))
    with pytest.raises(AssertionError, match=f"complex {solver} "):
        heat_diagonal(disc, DENSE_HEAT_TIMES, n_x=8)


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
