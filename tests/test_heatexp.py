"""Gaussian moments and diagonal heat coefficients."""

import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from scipy.integrate import quad

from volcalc.heatexp import _heat_coefficients, heat_coefficients
from volcalc.moments import central_moment, gaussian_moment
from volcalc.specfile import load_corpus
from volcalc.symcore import CoefficientField, DomainError, QuadraticForm, grid_points
from volcalc.volterra import (
    CausalKernel,
    KernelPiece,
    OperatorSpec,
    operator_symbol,
    parametrix,
)

CORPUS = load_corpus()
Q0 = (4.0 * np.pi) ** -0.5


def _metric_2d_operator():
    """g11 = 1 + 0.4 cos x1, g12 = 0.2 cos x2, g22 = 1, V = cos(x1 + x2)."""
    one = CoefficientField.constant(2, 1.0)
    g11 = one + CoefficientField.real_cosine(2, (1, 0), 0.4)
    g12 = CoefficientField.real_cosine(2, (0, 1), 0.2)
    zero = CoefficientField.zero(2)
    return OperatorSpec(QuadraticForm([[g11, g12], [g12, one]]), (zero, zero),
                        CoefficientField.real_cosine(2, (1, 1)), "perturbed_metric_2d")


METRIC_2D = _metric_2d_operator()


# ---------------------------------------------------------------------------
# gaussian moments
# ---------------------------------------------------------------------------


def test_moment_examples():
    assert abs(gaussian_moment((0,), [[1.0]]) - np.sqrt(np.pi)) < 1e-14
    assert abs(gaussian_moment((2,), [[1.0]]) - np.sqrt(np.pi) / 2.0) < 1e-14
    assert gaussian_moment((3,), [[1.0]]) == 0.0
    assert gaussian_moment((1, 2), [[1.0, 0.2], [0.2, 2.0]]) == 0.0  # odd total
    # odd single component with a decoupled (diagonal) form
    assert gaussian_moment((1, 2), [[1.0, 0.0], [0.0, 2.0]]) == 0.0


def test_moment_quadrature_oracle_1d():
    for b, g in ((0, 1.0), (2, 1.0), (4, 0.7), (6, 2.3)):
        oracle = quad(lambda x: x**b * np.exp(-g * x * x), -np.inf, np.inf)[0]
        assert abs(gaussian_moment((b,), [[g]]) - oracle) <= 1e-10 * abs(oracle)


def test_moment_quadrature_oracle_2d_coupled():
    G = np.array([[1.3, 0.4], [0.4, 0.9]])
    xs, ws = hermgauss(40)  # exact for polynomials after diagonalization
    evals, evecs = np.linalg.eigh(G)

    def oracle(beta):
        total = 0.0
        for i, xi in enumerate(xs):
            for j, xj in enumerate(xs):
                y = np.array([xi / np.sqrt(evals[0]), xj / np.sqrt(evals[1])])
                x = evecs @ y
                total += ws[i] * ws[j] * x[0] ** beta[0] * x[1] ** beta[1]
        return total / np.sqrt(evals[0] * evals[1])

    for beta in ((0, 0), (2, 0), (1, 1), (2, 2), (4, 0), (3, 1)):
        got = gaussian_moment(beta, G)
        assert abs(got - oracle(beta)) <= 1e-10 * max(1.0, abs(oracle(beta)))


def test_moment_rejects_bad_matrix():
    with pytest.raises(ValueError):
        gaussian_moment((0,), [[-1.0]])
    with pytest.raises(ValueError):
        gaussian_moment((0, 0), [[1.0, 0.5], [0.4, 1.0]])


def test_stacked_moment_matches_per_matrix_calls():
    rng = np.random.default_rng(9)
    R = rng.standard_normal((6, 2, 2))
    G = R @ R.transpose(0, 2, 1) + 0.5 * np.eye(2)
    for beta in ((0, 0), (2, 0), (1, 1), (4, 2), (3, 0)):
        got = gaussian_moment(beta, G)
        assert got.shape == (6,)
        expect = np.array([gaussian_moment(beta, g) for g in G])
        assert np.max(np.abs(got - expect)) <= 1e-15 * max(1.0, np.max(np.abs(expect)))
    asym = G.copy()
    asym[3, 0, 1] += 0.1
    with pytest.raises(ValueError, match="symmetric"):
        gaussian_moment((0, 0), asym)
    indefinite = G.copy()
    indefinite[5] = [[1.0, 0.0], [0.0, -1.0]]
    with pytest.raises(ValueError, match="positive definite"):
        gaussian_moment((1, 0), indefinite)


def test_central_moment_isserlis_pairing():
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    # E[x^2 y^2] = s11 s22 + 2 s12^2
    expect = sigma[0, 0] * sigma[1, 1] + 2 * sigma[0, 1] ** 2
    assert abs(central_moment((2, 2), sigma) - expect) < 1e-14


# ---------------------------------------------------------------------------
# heat coefficients
# ---------------------------------------------------------------------------


def test_flat_laplacian_coefficients():
    he = heat_coefficients(CORPUS["flat_laplacian_1d"], 4)
    assert abs(he.coefficient(0).amplitudes[(0,)] - Q0) < 1e-14
    for j in range(1, 5):
        assert he.coefficient(j).is_zero()
    assert he.log_coefficient.is_zero()
    exps = [e.exponent for e in he.entries]
    assert exps == [-0.5, 0.0, 0.5, 1.0, 1.5]


def test_flat_laplacian_2d_leading_coefficient():
    he = heat_coefficients(CORPUS["flat_laplacian_2d"], 2)
    assert abs(he.coefficient(0).amplitudes[(0, 0)] - 1.0 / (4 * np.pi)) < 1e-14
    assert he.entries[0].exponent == -1.0


def test_cosine_potential_q2():
    he = heat_coefficients(CORPUS["cosine_potential"], 4)
    assert he.coefficient(1).is_zero()
    amps = he.coefficient(2).amplitudes
    assert abs(amps[(1,)] + 0.5 * Q0) < 1e-14
    assert abs(amps[(-1,)] + 0.5 * Q0) < 1e-14
    assert set(amps) == {(1,), (-1,)}


def test_odd_coefficients_vanish_structurally():
    for name in ("cosine_potential", "drift_shift", "perturbed_metric"):
        he = heat_coefficients(CORPUS[name], 5)
        for e in he.entries:
            if e.j % 2 == 1:
                assert e.value.is_zero(), (name, e.j)


def test_constant_coefficient_exactness():
    # A = -d^2 + b d + V with constants: diagonal is e^{-t(V + b^2/4)} (4 pi t)^-1/2
    b = CoefficientField.constant(1, 2.0)
    V = CoefficientField.constant(1, 2.0)
    op = OperatorSpec(QuadraticForm.flat(1), (b,), V, "drift")
    he = heat_coefficients(op, 6)
    c = 3.0  # V + b^2 / 4
    for j in (0, 2, 4, 6):
        k = j // 2
        expect = Q0 * (-c) ** k / math.factorial(k)
        got = he.coefficient(j).amplitudes.get((0,), 0.0)
        assert abs(got - expect) <= 1e-12 * max(1.0, abs(expect)), j
    # scaled metric: q_0 = (4 pi)^{-1/2} det(g)^{-1/2}
    g2 = QuadraticForm.isotropic(CoefficientField.constant(1, 2.0))
    op2 = OperatorSpec(g2, (CoefficientField.zero(1),), CoefficientField.zero(1))
    he2 = heat_coefficients(op2, 0)
    assert abs(he2.coefficient(0).amplitudes[(0,)] - Q0 / np.sqrt(2.0)) < 1e-14


def test_variable_metric_q0_closed_form():
    he = heat_coefficients(CORPUS["perturbed_metric"], 2)
    xs = np.linspace(0, 2 * np.pi, 17)
    got = he.coefficient(0).evaluate(xs).real
    expect = Q0 / np.sqrt(1 + 0.5 * np.cos(xs))
    assert np.max(np.abs(got - expect)) < 1e-10


def test_diagonal_scaling_identity():
    # each homogeneous piece satisfies k(x; 0, t) = t^((j-d)/2) k(x; 0, 1)
    res = parametrix(operator_symbol(CORPUS["perturbed_metric"]), 4)
    for j in (0, 2, 4):
        piece = res.symbol.graded_piece(-2 - j)
        if piece.is_zero():
            continue
        kern = CausalKernel.from_symbol(piece)
        for x in (0.0, 1.1):
            base = kern.diagonal_value(x, 1.0)
            for t in (0.25, 1.0, 4.0):
                got = kern.diagonal_value(x, t)
                expect = t ** ((j - 1) / 2.0) * base
                assert abs(got - expect) <= 1e-10 * max(abs(expect), 1e-30)


@pytest.mark.parametrize("op", [CORPUS["perturbed_metric"], METRIC_2D], ids=["1d", "2d"])
def test_batched_diagonal_value_matches_scalar_calls(op):
    res = parametrix(operator_symbol(op), 2)
    kern = CausalKernel.from_symbol(res.symbol.graded_piece(-4))
    pts = np.random.default_rng(5).uniform(0.0, 2 * np.pi, (8, op.dim))
    single = np.array([kern.diagonal_value(p if op.dim > 1 else p[0], 1.0) for p in pts])
    batch = kern.diagonal_value(pts, 1.0)
    assert batch.shape == (8,)
    assert np.max(np.abs(batch - single)) <= 1e-13 * np.max(np.abs(single))
    ts = np.array([0.5, 2.0])
    both = kern.diagonal_value(pts, ts)
    assert both.shape == (8, 2)
    for i, t in enumerate(ts):
        column = kern.diagonal_value(pts, t)
        assert np.max(np.abs(both[:, i] - column)) <= 1e-15 * np.max(np.abs(both))


def test_diagonal_value_factorises_the_metric_once(monkeypatch):
    kern = CausalKernel.from_symbol(parametrix(operator_symbol(METRIC_2D), 3).symbol)
    assert any(sum(p.beta) % 2 for p in kern.pieces)
    pts = grid_points(16, 2)
    ts = np.array([0.5, 2.0])
    # the per-piece route, one gaussian_moment call per piece, is the reference
    g = METRIC_2D.metric.matrix_at(pts)
    expect = np.zeros((len(pts), 2), dtype=complex)
    for p in kern.pieces:
        weight = p.coeff.evaluate(pts) * gaussian_moment(p.beta, g)
        expect += np.multiply.outer(weight, ts ** (p.tpow - (2 + sum(p.beta)) / 2.0))
    expect *= (2.0 * np.pi) ** -2
    calls = []
    for name in ("eigvalsh", "inv"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, _fn=fn, _name=name: calls.append(_name) or _fn(a))
    got = kern.diagonal_value(pts, ts)
    assert sorted(calls) == ["eigvalsh", "inv"]
    assert np.array_equal(got, expect)


def test_batched_diagonal_value_keeps_form_checks():
    piece = [KernelPiece(CoefficientField.constant(1, 1.0), (0,), 0)]
    pts = grid_points(16, 1)
    # 0.2 + cos x is negative near x = pi; the form is built without the floor check
    indefinite = CoefficientField.constant(1, 0.2) + CoefficientField.real_cosine(1, (1,))
    kern = CausalKernel(QuadraticForm([[indefinite]], check_positive=False), piece)
    with pytest.raises(ValueError, match="positive definite"):
        kern.diagonal_value(pts, 1.0)
    # 1 + 0.3 e^{ix} has no mirrored amplitude, so it is not real-valued
    nonreal = CoefficientField(1, {0: 1.0, 1: 0.3})
    kern = CausalKernel(QuadraticForm([[nonreal]], check_positive=False), piece)
    with pytest.raises(ValueError, match="non-real"):
        kern.diagonal_value(pts, 1.0)


def test_variable_metric_2d_heat_coefficients():
    he, samples = _heat_coefficients(METRIC_2D, 2)
    g = METRIC_2D.metric.matrix_at(grid_points(128, 2))
    q0 = (4.0 * np.pi) ** -1 / np.sqrt(np.linalg.det(g))
    assert np.max(np.abs(samples[0].ravel() / q0 - 1.0)) <= 1e-12
    # projected from the grid like q_0, the closed form gives the same field
    expect = CoefficientField.from_grid(q0.reshape(128, 128))
    assert (he.coefficient(0) - expect).norm_inf() <= 1e-12 * expect.norm_inf()
    assert he.coefficient(1).norm_inf() <= 1e-13


def test_heat_coefficients_rejects_large_index():
    with pytest.raises(DomainError):
        heat_coefficients(CORPUS["flat_laplacian_1d"], 9)


def test_fit_oracle_agreement_drift_and_metric():
    # the independent spectral fit reproduces the symbolic coefficients
    from volcalc.semigroup import fit_diagonal_expansion

    # drift series runs in powers of (V + b^2/4) t = 3t: keep t_max small
    heD = heat_coefficients(CORPUS["drift_shift"], 2)
    fitD = fit_diagonal_expansion(CORPUS["drift_shift"],
                                  np.geomspace(0.01, 0.12, 28), 6, n_x=4)
    q2 = heD.coefficient(2).amplitudes[(0,)].real  # -(V + b^2/4)(4 pi)^-1/2
    assert abs(q2 + 3.0 * Q0) < 1e-13
    assert abs(fitD.coefficients[0][2] - q2) <= 0.02 * abs(q2)

    times = np.geomspace(0.02, 0.3, 28)

    heM = heat_coefficients(CORPUS["perturbed_metric"], 2)
    fitM = fit_diagonal_expansion(CORPUS["perturbed_metric"], times, 6, n_x=16)
    xs = fitM.x_grid[:, 0]
    sym = heM.coefficient(0).evaluate(xs).real
    got = fitM.coefficients[:, 0]
    assert np.max(np.abs(got - sym)) <= 0.02 * np.max(np.abs(sym))
