"""Spectral discretization, contour heat family, approximants, diagonal fits."""

import numpy as np
import pytest
from scipy.linalg import expm

from volcalc import semigroup
from volcalc.semigroup import (
    ContourQuadrature,
    SpectrumSampleError,
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
    quad = ContourQuadrature(nodes_per_ray=420, s_max=max(40.0, 40.0 / 0.3), refine=2)
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
        quad = ContourQuadrature(nodes_per_ray=420, s_max=max(40.0, 40.0 / t), refine=2)
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
        quad = ContourQuadrature(nodes_per_ray=420, s_max=max(40.0, 40.0 / t), refine=2)
        E = dunford_heat(disc, t, quad)
        assert np.linalg.norm(E - matrix_heat_reference(disc, t), 2) <= 1e-10
        assert np.linalg.norm(E - E.conj().T, 2) <= 1e-13


@pytest.mark.parametrize("name", ["flat_laplacian_2d", "drift_shift"])
def test_dunford_diagonal_input_makes_no_solve(name, monkeypatch):
    # a real diagonal (flat Laplacian) sums one ray, a complex one (drift) both
    disc = discretize(CORPUS[name], 6)
    assert disc.diagonal is not None
    ts = (0.3, 1.0)
    quads = {t: ContourQuadrature(nodes_per_ray=420, s_max=max(40.0, 40.0 / t), refine=2)
             for t in ts}
    refs = {t: matrix_heat_reference(disc, t) for t in ts}
    dense = disc.matrix.copy()

    def refuse(*args, **kwargs):
        raise AssertionError("a diagonal input made a solve")

    monkeypatch.setattr(semigroup, "zgtsv", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    for t in ts:
        E = dunford_heat(disc, t, quads[t])
        assert np.linalg.norm(E - refs[t], 2) <= 1e-10
        # the same operator as a dense matrix with exactly zero off-diagonals
        assert np.array_equal(dunford_heat(dense, t, quads[t]), E)


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


def test_corpus_spectral_positivity():
    # all corpus operators are nonnegative except the Mathieu-type potential,
    # whose ground state genuinely dips below zero
    for name, op in CORPUS.items():
        disc = discretize(op, 16 if op.dim == 1 else 6)
        if name == "cosine_potential":
            assert disc.min_sym_eig < -1e-2
        else:
            assert disc.min_sym_eig >= -1e-8, name
