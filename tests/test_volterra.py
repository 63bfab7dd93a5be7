"""Operator symbols, # composition, parametrices, causal kernels, causality."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from volcalc.semigroup import discretize
from volcalc.specfile import load_corpus
from volcalc.symcore import (
    CoefficientField,
    DomainError,
    ParabolicSymbol,
    QuadraticForm,
    lambda_power,
)
from volcalc.volterra import (
    CausalityGrid,
    CausalKernel,
    DegenerateGridError,
    NonIntegrableError,
    OperatorSpec,
    ParametrixShapeError,
    anticausal_control,
    causality_check,
    min_extension_index,
    operator_symbol,
    parametrix,
    sharp_exact,
    sharp_product,
)

FLAT1 = QuadraticForm.flat(1)
CORPUS = load_corpus()


def cos_potential_op():
    return CORPUS["cosine_potential"]


def drift_op():
    return CORPUS["drift_shift"]


def perturbed_op():
    return CORPUS["perturbed_metric"]


# ---------------------------------------------------------------------------
# operator symbols
# ---------------------------------------------------------------------------


def test_operator_symbol_flat():
    p = operator_symbol(OperatorSpec.laplacian(1))
    assert p.allclose(lambda_power(FLAT1, 1))
    assert p.degrees() == [2]


def test_operator_symbol_potential_pieces():
    p = operator_symbol(cos_potential_op())
    assert p.graded_piece(2).allclose(lambda_power(FLAT1, 1))
    assert p.graded_piece(0).allclose(
        ParabolicSymbol(FLAT1, {((0,), 0): CoefficientField.real_cosine(1, (1,))}))


def test_operator_symbol_plane_wave_oracle():
    # independent oracle: the Galerkin matrix applies A to e^{ikx} exactly
    op = drift_op()
    disc = discretize(op, 8)
    a_sym = operator_symbol(op)  # at tau = 0 the symbol of d/dt + A is that of A
    x0 = 0.4
    for k in (3, -2):
        col = int(np.flatnonzero(disc.freqs[:, 0] == k)[0])
        applied = sum(disc.matrix[row, col] * np.exp(1j * disc.freqs[row, 0] * x0)
                      for row in range(disc.size))
        expect = a_sym.evaluate(x0, [float(k)], 0.0) * np.exp(1j * k * x0)
        assert abs(applied - expect) <= 1e-10 * max(1.0, abs(expect))
    # coarse finite-difference cross-check of the same value
    fd = op.apply_fd(lambda x: np.exp(1j * 3.0 * x[0]), [x0], h=1e-4)
    expect = a_sym.evaluate(x0, [3.0], 0.0) * np.exp(1j * 3.0 * x0)
    assert abs(fd - expect) <= 1e-5 * abs(expect)


def test_operator_spec_rejects_complex_coefficients():
    with pytest.raises(ValueError, match="real"):
        OperatorSpec(FLAT1, (CoefficientField.zero(1),),
                     CoefficientField.harmonic(1, (1,), 1.0))


# ---------------------------------------------------------------------------
# sharp products
# ---------------------------------------------------------------------------


def test_sharp_x_independent_reduces_to_product():
    q1 = lambda_power(FLAT1, 1)
    q2 = lambda_power(FLAT1, -2)
    assert sharp_product(q1, q2, 6).allclose(q1 * q2)


def test_sharp_xi_against_phase_oracle():
    # (-i d/dx) o (mult by e^{ix}) on e^{ix eta} gives e^{ix(eta+1)} (eta+1),
    # whose left symbol is e^{ix} (xi + 1)
    qa = ParabolicSymbol(FLAT1, {((1,), 0): CoefficientField.constant(1, 1.0)})
    qb = ParabolicSymbol(FLAT1, {((0,), 0): CoefficientField.harmonic(1, (1,))})
    got = sharp_product(qa, qb, 5)
    expect = ParabolicSymbol(FLAT1, {
        ((1,), 0): CoefficientField.harmonic(1, (1,)),
        ((0,), 0): CoefficientField.harmonic(1, (1,)),
    })
    assert got.allclose(expect)


def test_sharp_heat_symbol_with_resolvent():
    p = operator_symbol(cos_potential_op())
    got = sharp_exact(p, lambda_power(FLAT1, -1))
    expect = ParabolicSymbol(FLAT1, {
        ((0,), 0): CoefficientField.constant(1, 1.0),
        ((0,), -1): CoefficientField.real_cosine(1, (1,)),
    })
    assert got.allclose(expect)


def test_sharp_depth_validation():
    with pytest.raises(DomainError):
        sharp_product(lambda_power(FLAT1, 1), lambda_power(FLAT1, -1), 0)


def test_principal_multiplicativity():
    p1 = operator_symbol(perturbed_op())
    res = parametrix(p1, 2)
    q = res.symbol
    sharp = sharp_product(p1, q, 4)
    top = sharp.graded_piece(p1.order + q.order)
    direct = p1.principal_part() * q.principal_part()
    assert top.allclose(direct)


# ---------------------------------------------------------------------------
# parametrix
# ---------------------------------------------------------------------------


def test_parametrix_flat_exact():
    for depth in (0, 2, 5):
        res = parametrix(operator_symbol(OperatorSpec.laplacian(1)), depth)
        assert res.symbol.allclose(lambda_power(FLAT1, -1))
        assert res.defect.is_zero()


def test_parametrix_potential_pieces():
    res = parametrix(operator_symbol(cos_potential_op()), 4)
    q = res.symbol
    assert q.graded_piece(-2).allclose(lambda_power(FLAT1, -1))
    assert q.graded_piece(-3).is_zero()
    V = CoefficientField.real_cosine(1, (1,))
    expect_m4 = ParabolicSymbol(FLAT1, {((0,), -2): V.scale(-1.0)})
    assert q.graded_piece(-4).allclose(expect_m4)


def test_parametrix_defect_degrees():
    for name, op in CORPUS.items():
        p = operator_symbol(op)
        for depth in (2, 4):
            res = parametrix(p, depth)
            top = res.defect.top_degree(tol=1e-12 * max(1.0, res.symbol.coeff_norm()))
            assert top is None or top <= -depth - 1


def test_parametrix_ray_decay_perturbed_metric():
    # decay of order -(depth+1) along a parabolic ray
    p = operator_symbol(perturbed_op())
    res = parametrix(p, 2)
    lams = np.geomspace(1, 10, 15)
    vals = np.array([abs(res.defect.evaluate(0.3, [lam * 1.0], lam**2 * (-1.0 - 0.5j)))
                     for lam in lams])
    weighted = lams**3 * vals
    assert np.all(np.isfinite(weighted))
    assert weighted[-1] <= weighted[0] * 1.5


def test_parametrix_two_sided_defect():
    for op in (cos_potential_op(), drift_op(), perturbed_op()):
        p = operator_symbol(op)
        depth = 3
        res = parametrix(p, depth)
        right = sharp_product(res.symbol, p, depth + 3) - 1.0
        scale = max(1.0, right.coeff_norm())
        for s in right.degrees():
            if s > -depth - 1:
                assert right.piece_norm(s) <= 1e-9 * scale


def test_parametrix_shape_guard():
    bad = quadratic_symbol_like = lambda_power(FLAT1, 1) + ParabolicSymbol(
        FLAT1, {((2,), 0): CoefficientField.constant(1, 1.0)})
    with pytest.raises(ParametrixShapeError):
        parametrix(bad, 2)


# ---------------------------------------------------------------------------
# causal kernels
# ---------------------------------------------------------------------------


def regularized_resolvent_kernel(t, a, n, npow, eps):
    """Closed form of (1/2pi) int e^{i t tau} (1+i eps tau)^-npow (i tau + a)^-n dtau.

    Sum of the residues at tau = i a (order n) and tau = i/eps (order npow);
    the second term carries exp(-t/eps) and is dead for t >> eps.  Derived
    independently of the package; verified against adaptive quadrature.
    """
    t = np.asarray(t, dtype=float)
    s1 = 0.0
    for r in range(n):
        rising = math.prod(range(npow, npow + r))
        s1 += (math.comb(n - 1, r) * (1j * t) ** (n - 1 - r) * (-1) ** r
               * (1j * eps) ** r * rising * (1 - eps * a) ** (-npow - r))
    res_ia = (1j) ** (-n) * np.exp(-a * t) / math.factorial(n - 1) * s1
    s2 = 0.0
    for r in range(npow):
        rising = math.prod(range(n, n + r))
        s2 += (math.comb(npow - 1, r) * (1j * t) ** (npow - 1 - r) * (-1) ** r
               * (1j) ** r * rising * (a - 1.0 / eps) ** (-n - r))
    res_ie = (1j * eps) ** (-npow) * np.exp(-t / eps) / math.factorial(npow - 1) * s2
    return 1j * (res_ia + res_ie)


def test_regularized_kernel_formula_against_quadrature():
    a, n, npow, eps = 1.7, 2, 4, 0.05
    for t in (0.15, 0.6):
        f = lambda tau: ((1 + 1j * eps * tau) ** (-npow)
                         * (1j * tau + a) ** (-n) * np.exp(1j * t * tau))
        re = quad(lambda x: f(x).real, -np.inf, np.inf, limit=800)[0]
        im = quad(lambda x: f(x).imag, -np.inf, np.inf, limit=800)[0]
        brute = (re + 1j * im) / (2 * np.pi)
        assert abs(regularized_resolvent_kernel(t, a, n, npow, eps) - brute) < 1e-8


def test_causal_kernel_closed_forms():
    lam_inv = lambda_power(FLAT1, -1)
    k1 = CausalKernel.from_symbol(lam_inv)
    ts = np.array([0.2, 1.0, 3.0])
    a = 1.44  # |xi|^2 at xi = 1.2
    assert np.allclose(k1.eval_xi(0.0, [1.2], ts), np.exp(-ts * a), rtol=1e-12)
    k2 = CausalKernel.from_symbol(lambda_power(FLAT1, -2))
    assert np.allclose(k2.eval_xi(0.0, [1.2], ts), ts * np.exp(-ts * a), rtol=1e-12)


def test_causal_kernel_oracle_qawf():
    # independent oracle: oscillatory-weight quadrature of the inverse transform
    a = 1.3
    for n in (1, 2, 3):
        kern = CausalKernel.from_symbol(lambda_power(FLAT1, -n))
        for t in (0.3, 1.5):
            qr = lambda tau: ((1j * tau + a) ** (-n)).real
            qi = lambda tau: ((1j * tau + a) ** (-n)).imag
            cosr = quad(qr, 0, np.inf, weight="cos", wvar=t)[0]
            sinr = quad(qi, 0, np.inf, weight="sin", wvar=t)[0]
            oracle = (cosr - sinr) / np.pi
            got = kern.eval_xi(0.0, [np.sqrt(a)], np.array([t]))[0].real
            assert abs(got - oracle) <= 1e-8 * max(1.0, abs(oracle))


def test_causal_kernel_fft_agreement_on_causality_grid():
    # regularized symbol FFT vs the two-pole closed form, rel sup <= 1e-4
    # on the default causality grid for t in [0.1, 5]
    a, npow, eps = 1.7, 4, 0.05
    grid = CausalityGrid()
    n, T = grid.n_tau, grid.tau_max
    dtau = 2.0 * T / n
    taus = -T + dtau * np.arange(n)
    dt = 2.0 * np.pi / (n * dtau)
    mm = np.arange(n)
    tm = np.where(mm < n // 2, mm * dt, (mm - n) * dt)
    for lpow in (-1, -2):
        qv = (1j * taus + a) ** lpow * (1 + 1j * eps * taus) ** (-float(npow))
        kv = (n * dtau / (2 * np.pi)) * np.fft.ifft(qv) * np.exp(-1j * tm * T)
        mask = (tm >= 0.1) & (tm <= 5.0)
        closed = regularized_resolvent_kernel(tm[mask], a, -lpow, npow, eps)
        rel = np.max(np.abs(kv[mask] - closed)) / np.max(np.abs(closed))
        assert rel <= 1e-4


def test_causal_kernel_vanishes_for_negative_time():
    res = parametrix(operator_symbol(cos_potential_op()), 3)
    kern = CausalKernel.from_symbol(res.symbol.graded_piece(-4))
    assert kern.eval_xi(0.3, [1.0], np.array([-0.5]))[0] == 0.0
    assert kern.eval_zeta(0.3, [0.7], -0.5) == 0.0


def test_causal_kernel_rejects_nonintegrable():
    with pytest.raises(NonIntegrableError):
        CausalKernel.from_symbol(lambda_power(FLAT1, 1))
    xi_squared = ParabolicSymbol(FLAT1, {((2,), 0): CoefficientField.constant(1, 1.0)})
    with pytest.raises(NonIntegrableError):
        CausalKernel.from_symbol(xi_squared)


def test_causal_kernel_full_diagonal_mode():
    kern = CausalKernel.from_symbol(lambda_power(FLAT1, -1))
    # (2 pi)^-1 int e^{-t xi^2} dxi = (4 pi t)^(-1/2)
    for t in (0.5, 1.0, 2.0):
        assert abs(kern.diagonal_value(0.0, t) - (4 * np.pi * t) ** -0.5) < 1e-12


def test_causal_kernel_zeta_transform_flat_gaussian():
    kern = CausalKernel.from_symbol(lambda_power(FLAT1, -1))
    for zeta, t in ((0.5, 0.2), (1.3, 0.9)):
        expect = (4 * np.pi * t) ** -0.5 * np.exp(-zeta**2 / (4 * t))
        assert abs(kern.eval_zeta(0.0, [zeta], t) - expect) < 1e-12


def test_min_extension_index_examples():
    assert min_extension_index(-2, 1) == 0
    assert min_extension_index(-6, 1) == 2
    assert min_extension_index(0, 3) == 0
    with pytest.raises(DomainError):
        min_extension_index(-2, 0)


# ---------------------------------------------------------------------------
# causality checks
# ---------------------------------------------------------------------------


def test_causality_resolvent_passes_spec_parameters():
    ratio = causality_check(lambda_power(FLAT1, -1),
                            CausalityGrid(n_tau=4096, tau_max=200.0))
    assert ratio <= 1e-6


def test_causality_anticausal_control_fails():
    ratio = causality_check(anticausal_control(FLAT1), dim=1)
    assert ratio >= 0.5


def test_causality_zero_symbol_convention():
    assert causality_check(ParabolicSymbol.zero(FLAT1)) == 0.0


def test_causality_skips_points_where_symbol_vanishes():
    # (c1 xi1 + c2 xi2) Lambda^-2 vanishes up to rounding at the default
    # sample point xi = (0.6, -0.8); its kernel there is rounding noise
    flat2 = QuadraticForm.flat(2)
    q = ParabolicSymbol(flat2, {((1, 0), -2): CoefficientField.constant(2, 0.8 / 3),
                                ((0, 1), -2): CoefficientField.constant(2, 0.2)})
    assert abs(q.evaluate((0.0, 0.0), [0.6, -0.8], -1j)) < 1e-15
    assert causality_check(q) <= 1e-5
    assert causality_check(anticausal_control(flat2), dim=2) >= 0.5


def test_causality_grid_validation():
    with pytest.raises(DegenerateGridError):
        CausalityGrid(n_tau=8)


def test_volterra_closure_products_stay_causal():
    # products of parametrix-shaped symbols keep Lambda-power denominators
    res = parametrix(operator_symbol(cos_potential_op()), 2)
    q = res.symbol
    prod = q * q
    assert all(l < 0 for (_, l) in prod.term_map())
    grid = CausalityGrid()
    for s in prod.degrees()[:3]:
        assert causality_check(prod.graded_piece(s), grid=grid) <= 1e-5

