"""Symbol algebra: degrees, dilation, products, derivatives, evaluation."""

import numpy as np
import pytest

from volcalc.symcore import (
    CoefficientField,
    DomainError,
    FormMismatchError,
    NotPositiveDefiniteError,
    ParabolicSymbol,
    QuadraticForm,
    SingularityError,
    SymbolTerm,
    lambda_power,
)

FLAT1 = QuadraticForm.flat(1)
FLAT2 = QuadraticForm.flat(2)


def perturbed_form():
    g = CoefficientField.constant(1, 1.0) + CoefficientField.real_cosine(1, (1,), 0.5)
    return QuadraticForm.isotropic(g)


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------


def test_field_arithmetic_and_reality():
    f = CoefficientField.real_cosine(1, (1,)) + CoefficientField.constant(1, 2.0)
    assert f.is_real()
    xs = np.linspace(0, 2 * np.pi, 9)
    vals = f.evaluate(xs)
    assert np.allclose(vals, 2.0 + np.cos(xs))
    g = CoefficientField.harmonic(1, (1,), 1.0)  # e^{ix}: not real-valued
    assert not g.is_real()
    prod = f * g
    assert np.allclose(prod.evaluate(xs), (2.0 + np.cos(xs)) * np.exp(1j * xs))


def test_field_derivative_and_periodicity():
    f = CoefficientField.real_sine(1, (3,), 2.0)
    df = f.deriv(0)
    xs = np.linspace(0, 2 * np.pi, 11)
    assert np.allclose(df.evaluate(xs), 6.0 * np.cos(3 * xs))
    assert abs(f.evaluate(0.3) - f.evaluate(0.3 + 2 * np.pi)) < 1e-12


def test_field_grid_round_trip():
    f = CoefficientField(2, {(1, -2): 0.5 + 0.25j, (-1, 2): 0.5 - 0.25j, (0, 0): 1.5})
    ax = 2 * np.pi * np.arange(16) / 16
    grid = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1)
    back = CoefficientField.from_grid(f.evaluate(grid.reshape(-1, 2)).reshape(16, 16))
    assert set(back.amplitudes) == set(f.amplitudes)
    for k, c in f.amplitudes.items():
        assert abs(back.amplitudes[k] - c) < 1e-12


# ---------------------------------------------------------------------------
# quadratic forms
# ---------------------------------------------------------------------------


def test_form_symmetry_enforced():
    a = CoefficientField.constant(2, 1.0)
    b = CoefficientField.constant(2, 0.3)
    c = CoefficientField.constant(2, 0.2)
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticForm([[a, b], [c, a]])


def test_form_positivity_floor():
    g = CoefficientField.constant(1, 1.0) + CoefficientField.real_cosine(1, (1,), 1.5)
    with pytest.raises(NotPositiveDefiniteError):
        QuadraticForm.isotropic(g)


def test_form_value_and_derivative():
    G = perturbed_form()
    assert abs(G.value(0.0, [2.0]) - 1.5 * 4.0) < 1e-12
    dG = G.deriv(0)
    assert abs(dG.entries[0][0].evaluate(0.7) - (-0.5 * np.sin(0.7))) < 1e-12


# ---------------------------------------------------------------------------
# term degrees  (spec examples, trivial)
# ---------------------------------------------------------------------------


def test_term_degree_examples():
    one = CoefficientField.constant(1, 1.0)
    assert SymbolTerm(one, (2,), 0).degree == 2
    assert SymbolTerm(one, (0,), -1).degree == -2
    assert SymbolTerm(one, (1,), -1).degree == -1


# ---------------------------------------------------------------------------
# dilation
# ---------------------------------------------------------------------------


def test_dilate_homogeneous_examples():
    lam = lambda_power(FLAT1, 1)  # i tau + xi^2
    scaled = lam.dilate(2.0)
    assert scaled.allclose(lam.scale(4.0))
    lam_inv = lambda_power(FLAT1, -1)
    assert lam_inv.dilate(3.0).allclose(lam_inv.scale(1.0 / 9.0))


def test_dilate_three_term_numeric():
    # dilate-then-eval equals the graded-piece sum with lambda powers
    q = ParabolicSymbol(FLAT1, {
        ((0,), -1): CoefficientField.real_cosine(1, (1,)),
        ((1,), -1): CoefficientField.constant(1, 0.75),
        ((0,), -2): CoefficientField.real_sine(1, (2,), 0.5),
    })
    lam = 1.7
    x, xi, tau = 0.3, 1.1, -0.8 - 0.5j
    lhs = q.dilate(lam).evaluate(x, [xi], tau)
    rhs = sum(lam**s * q.graded_piece(s).evaluate(x, [xi], tau) for s in q.degrees())
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_dilate_identity_random_points():
    rng = np.random.default_rng(11)
    q = ParabolicSymbol(perturbed_form(), {
        ((0,), -1): CoefficientField.constant(1, 1.0),
        ((2,), -2): CoefficientField.real_cosine(1, (1,), 0.3),
    })
    for lam in (0.5, 2.0, 1.7):
        for _ in range(20):
            x = rng.uniform(0, 2 * np.pi)
            xi = rng.standard_normal(1) * 1.2
            tau = complex(rng.standard_normal(), -abs(rng.standard_normal()) - 0.2)
            a = q.dilate(lam).evaluate(x, xi, tau)
            b = q.evaluate(x, lam * xi, lam**2 * tau)
            assert abs(a - b) <= 1e-10 * max(abs(b), 1e-30)


def test_dilate_rejects_nonpositive():
    with pytest.raises(DomainError):
        lambda_power(FLAT1, 1).dilate(0.0)
    with pytest.raises(DomainError):
        lambda_power(FLAT1, 1).dilate(-2.0)


def test_graded_piece_strict_homogeneity():
    q = ParabolicSymbol(FLAT1, {
        ((1,), -1): CoefficientField.constant(1, 2.0),
        ((0,), -2): CoefficientField.constant(1, 1.0),
    })
    rng = np.random.default_rng(5)
    for s in q.degrees():
        piece = q.graded_piece(s)
        for _ in range(5):
            xi = rng.standard_normal(1) + 0.4
            tau = complex(rng.standard_normal(), -1.1)
            lam = 1.9
            a = piece.evaluate(0.0, lam * xi, lam**2 * tau)
            b = lam**s * piece.evaluate(0.0, xi, tau)
            assert abs(a - b) <= 1e-10 * max(abs(b), 1e-30)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def test_mul_lambda_powers():
    lam_inv = lambda_power(FLAT1, -1)
    prod = lam_inv * lam_inv
    assert prod.allclose(lambda_power(FLAT1, -2))
    assert prod.degrees() == [-4]


def test_mul_cancellation_to_constant():
    p = lambda_power(FLAT1, 1)  # i tau + |xi|^2 in canonical form
    one = p * lambda_power(FLAT1, -1)
    assert one.allclose(ParabolicSymbol.constant(FLAT1, 1.0))


def test_mul_matches_pointwise_square():
    q = ParabolicSymbol(FLAT1, {((0,), -1): CoefficientField.real_cosine(1, (1,))})
    sq = q * q
    x, xi, tau = 0.9, 1.2, -0.7 - 0.3j
    a = sq.evaluate(x, [xi], tau)
    b = q.evaluate(x, [xi], tau) ** 2
    assert abs(a - b) <= 1e-12 * abs(b)


def test_mul_commutative_associative_dyadic():
    # dyadic amplitudes make products exact, so equality is literal
    rng = np.random.default_rng(3)

    def dyadic_symbol():
        tmap = {}
        for _ in range(2):
            beta = (int(rng.integers(0, 3)),)
            lpow = int(rng.integers(-2, 1))
            k = int(rng.integers(-2, 3))
            amp = complex(int(rng.integers(-8, 9)), int(rng.integers(-8, 9))) / 8.0
            key = (beta, lpow)
            f = CoefficientField(1, {(k,): amp})
            tmap[key] = tmap.get(key, CoefficientField.zero(1)) + f
        return ParabolicSymbol(FLAT1, tmap)

    for _ in range(10):
        a, b, c = dyadic_symbol(), dyadic_symbol(), dyadic_symbol()
        ab, ba = a * b, b * a
        assert ab.term_map() == ba.term_map()
        left = (a * b) * c
        right = a * (b * c)
        assert left.term_map() == right.term_map()


def test_mul_form_mismatch():
    with pytest.raises(FormMismatchError):
        lambda_power(FLAT1, -1) * lambda_power(perturbed_form(), -1)


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------


def test_deriv_xi_of_quadratic():
    q = ParabolicSymbol(FLAT1, {((2,), 0): CoefficientField.constant(1, 1.0)})  # |xi|^2
    dq = q.deriv(("xi", 0))
    expect = ParabolicSymbol(FLAT1, {((1,), 0): CoefficientField.constant(1, 2.0)})
    assert dq.allclose(expect)


def test_deriv_tau_of_lambda_inverse():
    dq = lambda_power(FLAT1, -1).deriv("tau")
    assert dq.allclose(lambda_power(FLAT1, -2).scale(-1j))


def test_deriv_x_perturbed_metric_closed_form():
    # d/dx [cos x * Lambda^-1] = -sin x Lambda^-1 + cos x (1/2 sin x) xi^2 Lambda^-2
    G = perturbed_form()
    q = ParabolicSymbol(G, {((0,), -1): CoefficientField.real_cosine(1, (1,))})
    dq = q.deriv(("x", 0))
    expect = ParabolicSymbol(G, {
        ((0,), -1): CoefficientField.real_sine(1, (1,), -1.0),
        ((2,), -2): CoefficientField.real_cosine(1, (1,)) *
                    CoefficientField.real_sine(1, (1,), 0.5),
    })
    assert dq.allclose(expect)
    # finite-difference oracle at a fixed probe point
    x0, xi0, tau0 = 0.7, 1.3, -1.0 - 1.0j
    h = 1e-5
    fd = (q.evaluate(x0 + h, [xi0], tau0) - q.evaluate(x0 - h, [xi0], tau0)) / (2 * h)
    assert abs(dq.evaluate(x0, [xi0], tau0) - fd) <= 1e-6 * max(1.0, abs(fd))


@pytest.mark.parametrize("var", [("xi", 0), ("x", 0), "tau"])
def test_deriv_finite_difference_all_kinds(var):
    G = perturbed_form()
    q = ParabolicSymbol(G, {
        ((1,), -1): CoefficientField.real_cosine(1, (1,), 0.8),
        ((0,), -2): CoefficientField.constant(1, 1.0),
    })
    dq = q.deriv(var)
    rng = np.random.default_rng(17)
    h = 1e-5
    for _ in range(6):
        x = rng.uniform(0, 2 * np.pi)
        xi = rng.standard_normal() + 1.5
        tau = complex(rng.standard_normal(), -1.2)

        def at(xv, xiv, tauv):
            return q.evaluate(xv, [xiv], tauv)

        if var == "tau":
            fd = (at(x, xi, tau + h) - at(x, xi, tau - h)) / (2 * h)
        elif var[0] == "xi":
            fd = (at(x, xi + h, tau) - at(x, xi - h, tau)) / (2 * h)
        else:
            fd = (at(x + h, xi, tau) - at(x - h, xi, tau)) / (2 * h)
        got = dq.evaluate(x, [xi], tau)
        assert abs(got - fd) <= 1e-5 * max(abs(fd), 1.0)


def test_deriv_degree_shifts():
    G = perturbed_form()
    q = ParabolicSymbol(G, {((1,), -2): CoefficientField.real_cosine(1, (1,))})
    assert q.deriv(("xi", 0)).order == q.order - 1
    assert q.deriv("tau").order == q.order - 2
    assert q.deriv(("x", 0)).order == q.order


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_examples():
    lam_inv = lambda_power(FLAT1, -1)
    assert abs(lam_inv.evaluate(0.0, [0.0], -1j) - 1.0) < 1e-14
    p = lambda_power(FLAT1, 1)
    assert abs(p.evaluate(0.0, [1.0], 2.0) - (1.0 + 2.0j)) < 1e-14
    lam_inv2 = lambda_power(FLAT1, -2)
    assert abs(lam_inv2.evaluate(0.0, [1.0], 0.0) - 1.0) < 1e-14


def test_eval_pole_raises():
    with pytest.raises(SingularityError):
        lambda_power(FLAT1, -1).evaluate(0.0, [0.0], 0.0)
    with pytest.raises(SingularityError):
        lambda_power(FLAT1, -1).evaluate(0.0, [0.0], np.array([1.0, 0.0]))


def test_eval_tau_grid_matches_scalar():
    q = ParabolicSymbol(FLAT1, {
        ((1,), -1): CoefficientField.real_cosine(1, (1,)),
        ((0,), -2): CoefficientField.constant(1, 0.5),
    })
    taus = np.linspace(-30, 30, 7)
    grid = q.evaluate(0.4, [1.2], taus)
    assert grid.shape == taus.shape
    for i, tau in enumerate(taus):
        assert abs(grid[i] - q.evaluate(0.4, [1.2], tau)) < 1e-13


# ---------------------------------------------------------------------------
# anisotropic norm bound
# ---------------------------------------------------------------------------


def test_aniso_norm_bound_on_shell():
    def aniso_norm(xi, tau):
        """(|xi|^2 + |tau|)^(1/2), degree 1 under the parabolic dilation."""
        return float(np.sqrt(np.dot(xi, xi) + abs(tau)))

    rng = np.random.default_rng(23)
    q = ParabolicSymbol(FLAT2, {
        ((1, 1), -1): CoefficientField.constant(2, 0.7),
        ((0, 0), -1): CoefficientField.real_cosine(2, (1, 0), 0.4),
    })

    def shell_samples(n):
        pts = []
        while len(pts) < n:
            xi = rng.standard_normal(2)
            tau = complex(rng.standard_normal(), -abs(rng.standard_normal()) - 0.05)
            nrm = aniso_norm(xi, tau)
            scale = rng.uniform(0.5, 2.0) / nrm
            pts.append((scale * xi, scale**2 * tau))
        return pts

    for s in q.degrees():
        piece = q.graded_piece(s)
        cal = max(abs(piece.evaluate((0.3, 1.2), xi, tau)) / aniso_norm(xi, tau) ** s
                  for xi, tau in shell_samples(200))
        for xi, tau in shell_samples(200):
            val = abs(piece.evaluate((0.3, 1.2), xi, tau))
            assert val <= 1.5 * cal * aniso_norm(xi, tau) ** s
