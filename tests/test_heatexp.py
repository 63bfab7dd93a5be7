"""Gaussian moments and diagonal heat coefficients."""

import itertools
import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from scipy.integrate import quad

from volcalc import heatexp, symcore
from volcalc.heatexp import _heat_coefficients, _projection_certificate, heat_coefficients
from volcalc.moments import _gaussian_factors, central_moment, gaussian_moment
from volcalc.specfile import load_corpus
from volcalc.symcore import (
    CoefficientField,
    DomainError,
    NotPositiveDefiniteError,
    QuadraticForm,
    grid_points,
    lambda_power,
)
from volcalc.volterra import (
    CausalKernel,
    OperatorSpec,
    operator_symbol,
    parametrix,
)

from fields import cosine

CORPUS = load_corpus()
Q0 = (4.0 * np.pi) ** -0.5


def _metric_2d_operator():
    """g11 = 1 + 0.4 cos x1, g12 = 0.2 cos x2, g22 = 1, V = cos(x1 + x2)."""
    one = CoefficientField.constant(2, 1.0)
    g11 = one + cosine(2, (1, 0), 0.4)
    g12 = cosine(2, (0, 1), 0.2)
    zero = CoefficientField.zero(2)
    return OperatorSpec(QuadraticForm([[g11, g12], [g12, one]]), (zero, zero),
                        cosine(2, (1, 1)), "perturbed_metric_2d")


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
    # the stacked factors diagonal_value uses: Sigma of shape (d, d, N), one
    # central_moment pass over the stack
    rng = np.random.default_rng(9)
    R = rng.standard_normal((6, 2, 2))
    G = R @ R.transpose(0, 2, 1) + 0.5 * np.eye(2)
    norm, sigma = _gaussian_factors(G)
    assert norm.shape == (6,) and sigma.shape == (2, 2, 6)
    for beta in ((0, 0), (2, 0), (1, 1), (4, 2), (3, 0)):
        got = norm * central_moment(beta, sigma, None)
        expect = np.array([gaussian_moment(beta, g) for g in G])
        assert np.max(np.abs(got - expect)) <= 1e-15 * max(1.0, np.max(np.abs(expect)))
    with pytest.raises(ValueError, match="one form matrix"):
        gaussian_moment((0, 0), G)
    asym = G.copy()
    asym[3, 0, 1] += 0.1
    with pytest.raises(ValueError, match="symmetric"):
        _gaussian_factors(asym)
    indefinite = G.copy()
    indefinite[5] = [[1.0, 0.0], [0.0, -1.0]]
    with pytest.raises(ValueError, match="positive definite"):
        _gaussian_factors(indefinite)


def _hermite_moment(beta, sigma, mean, nodes=10):
    """E[xi^beta] for xi = mean + L z, L L^T = sigma, z standard normal: tensor
    Gauss-Hermite quadrature, exact for |beta| <= 2 * nodes - 1."""
    d = len(beta)
    xs, ws = hermgauss(nodes)
    L = np.linalg.cholesky(sigma)
    total = 0.0
    for idx in itertools.product(range(nodes), repeat=d):
        xi = mean + L @ (np.sqrt(2.0) * xs[list(idx)])
        total += np.prod(ws[list(idx)]) * np.prod(xi ** np.array(beta))
    return total / np.pi ** (d / 2.0)


def _binomial_moment(beta, sigma, mean):
    """E[(eta + mean)^beta], eta centred: the binomial expansion over gamma <= beta."""
    total = 0.0
    for gamma in itertools.product(*(range(b + 1) for b in beta)):
        comb = math.prod(math.comb(b, c) for b, c in zip(beta, gamma))
        shift = math.prod(mean[i] ** (b - c) for i, (b, c) in enumerate(zip(beta, gamma)))
        total = total + comb * shift * central_moment(gamma, sigma, None)
    return total


def test_shifted_moment_matches_quadrature_and_binomial():
    rng = np.random.default_rng(19)
    for d in (1, 2):
        R = rng.standard_normal((d, d))
        sigma = R @ R.T + 0.3 * np.eye(d)
        mean = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        betas = [b for b in itertools.product(range(9), repeat=d) if sum(b) <= 8]
        for beta in betas:
            ref = _hermite_moment(beta, sigma, mean)
            scale = max(1.0, abs(ref))
            assert abs(central_moment(beta, sigma, mean) - ref) <= 1e-13 * scale
            assert abs(_binomial_moment(beta, sigma, mean) - ref) <= 1e-13 * scale
    # the stacked layout of eval_zeta: Sigma (d, d, m), the mean (d, k, m)
    m, k = 3, 4
    R = rng.standard_normal((m, 2, 2))
    sigmas = R @ R.transpose(0, 2, 1) + 0.3 * np.eye(2)
    means = rng.standard_normal((k, m, 2)) + 1j * rng.standard_normal((k, m, 2))
    stack_sigma = np.moveaxis(sigmas, 0, -1)
    stack_mean = np.moveaxis(means, -1, 0)
    for beta in ((0, 0), (1, 0), (2, 1), (3, 3), (5, 3)):
        got = np.broadcast_to(central_moment(beta, stack_sigma, stack_mean), (k, m))
        for a in range(k):
            for b in range(m):
                ref = _hermite_moment(beta, sigmas[b], means[a, b])
                assert abs(got[a, b] - ref) <= 1e-13 * max(1.0, abs(ref))


def test_central_moment_isserlis_pairing():
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    # E[x^2 y^2] = s11 s22 + 2 s12^2
    expect = sigma[0, 0] * sigma[1, 1] + 2 * sigma[0, 1] ** 2
    assert abs(central_moment((2, 2), sigma, None) - expect) < 1e-14


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
    g2 = QuadraticForm([[CoefficientField.constant(1, 2.0)]])
    op2 = OperatorSpec(g2, (CoefficientField.zero(1),), CoefficientField.zero(1))
    he2 = heat_coefficients(op2, 0)
    assert abs(he2.coefficient(0).amplitudes[(0,)] - Q0 / np.sqrt(2.0)) < 1e-14


def test_variable_metric_q0_closed_form():
    he = heat_coefficients(CORPUS["perturbed_metric"], 2)
    xs = np.linspace(0, 2 * np.pi, 17)
    got = he.coefficient(0).evaluate(xs[:, None]).real
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
    terms = kern.symbol.term_map()
    assert any(sum(beta) % 2 for beta, _ in terms)
    pts = grid_points(8, 2)
    ts = np.array([0.5, 2.0])
    # the per-point route, one gaussian_moment call per term and point, is
    # the reference; c xi^beta Lambda^-n has the kernel t^(n-1)/(n-1)! c ...
    g = METRIC_2D.metric.matrix_at(pts)
    expect = np.zeros((len(pts), 2), dtype=complex)
    for (beta, lpow), c in terms.items():
        tpow = -lpow - 1
        moments = np.array([gaussian_moment(beta, gx) for gx in g])
        weight = c.scale(1.0 / math.factorial(tpow)).evaluate(pts) * moments
        expect += np.multiply.outer(weight, ts ** (tpow - (2 + sum(beta)) / 2.0))
    expect *= (2.0 * np.pi) ** -2
    calls = []
    for name in ("eigvalsh", "inv"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, _fn=fn, _name=name: calls.append(_name) or _fn(a))
    got = kern.diagonal_value(pts, ts)
    assert sorted(calls) == ["eigvalsh", "inv"]
    assert np.array_equal(got, expect)


def test_batched_diagonal_value_keeps_form_checks(monkeypatch):
    # g = 1 + 1.05 cos(16x + pi/8) reads 1 - 1.05 cos(pi/8) = 0.030 on its
    # 128-point grid (8 points per period) and -0.05 at x = 7 pi/128, between
    # two grid points; the form's certified bound refuses it, so it is built
    # under a lowered floor to reach diagonal_value's own per-point check
    c = 0.525 * np.exp(1j * np.pi / 8)
    g = CoefficientField(1, {0: 1.0, 16: c, -16: np.conj(c)})
    with pytest.raises(NotPositiveDefiniteError, match="certified -5.104e-02"):
        QuadraticForm([[g]])
    monkeypatch.setattr(symcore, "_POSITIVITY_FLOOR", -1.0)
    form = QuadraticForm([[g]])
    assert form.min_eig == pytest.approx(1.0 - 1.05 * np.cos(np.pi / 8))
    bad = 7 * np.pi / 128
    assert g.evaluate(bad).real == pytest.approx(-0.05)
    kern = CausalKernel.from_symbol(lambda_power(form, -1))
    pts = np.vstack([grid_points(16, 1), [[bad]]])
    kern.diagonal_value(pts[:-1], 1.0)  # every grid point is fine
    with pytest.raises(ValueError, match="positive definite"):
        kern.diagonal_value(pts, 1.0)
    with pytest.raises(ValueError, match="positive definite"):
        kern.eval_zeta(bad, [0.5], 1.0)


def test_variable_metric_2d_heat_coefficients():
    he, samples = _heat_coefficients(METRIC_2D, 2)
    g = METRIC_2D.metric.matrix_at(grid_points(128, 2))
    q0 = (4.0 * np.pi) ** -1 / np.sqrt(np.linalg.det(g))
    assert np.max(np.abs(samples[0].ravel() / q0 - 1.0)) <= 1e-12
    # projected from the grid like q_0, the closed form gives the same field
    expect = CoefficientField.from_grid(q0.reshape(128, 128))
    assert (he.coefficient(0) - expect).norm_inf() <= 1e-12 * expect.norm_inf()
    assert he.coefficient(1).norm_inf() <= 1e-13


@pytest.mark.parametrize("op, max_index", [(CORPUS["perturbed_metric"], 8), (METRIC_2D, 2)],
                         ids=["perturbed_metric", "metric_2d"])
def test_projection_certificate_reads_the_coarse_grid_off_the_fine_samples(
        op, max_index, monkeypatch):
    he, samples = _heat_coefficients(op, max_index)
    rows = _projection_certificate(he, samples)
    monkeypatch.setattr(heatexp, "_METRIC_GRID_N", 64)
    coarse, coarse_samples = _heat_coefficients(op, max_index)
    assert samples.keys() == coarse_samples.keys()
    for j, vals in samples.items():  # every other 128-point sample, bit for bit
        assert np.array_equal(coarse_samples[j], vals[(slice(None, None, 2),) * op.dim])
    diff = max((a.value - b.value).norm_inf() for a, b in zip(he.entries, coarse.entries))
    assert rows[1] == ("grid 64 vs 128 points max coefficient difference", diff)


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
    sym = heM.coefficient(0).evaluate(fitM.x_grid).real
    got = fitM.coefficients[:, 0]
    assert np.max(np.abs(got - sym)) <= 0.02 * np.max(np.abs(sym))


LADDER_GATES = {0: 1e-11, 2: 5e-8}  # relative to max |q_j|


@pytest.mark.parametrize("name", ["cosine_potential", "perturbed_metric"])
def test_dyadic_ladder_reads_q0_and_q2_off_the_oracle_diagonal(name):
    # criterion 3's times and cutoff: the ladder of the spectral diagonal
    # f(t) = t^(d/2) diag(x, t) without the stage s = j/2, divided by the same
    # ladder of t^(j/2), reads q_j; it must match the symbolic coefficients
    from volcalc import semigroup

    op = CORPUS[name]
    J = 4
    stages = [j / 2.0 for j in range(J + semigroup._LADDER_EXTRA)]
    times = semigroup._LADDER_T0 * 2.0 ** (-np.arange(len(stages) + 1.0))
    n = semigroup.resolution_cutoff(op, times.min(), semigroup._LADDER_RESOLVE)
    diag, grid = semigroup.heat_diagonal(semigroup.discretize(op, n), times, n_x=16)
    f = diag * (times ** (op.dim / 2.0))[:, None]
    he = heat_coefficients(op, 8)
    for j, gate in LADDER_GATES.items():
        kept = [s for s in stages if s != j / 2.0]
        got = (semigroup._ladder(f, kept)
               / semigroup._ladder((times ** (j / 2.0))[:, None], kept)[0])
        want = he.coefficient(j).evaluate(grid).real
        assert np.max(np.abs(got - want)) <= gate * np.max(np.abs(want)), j
