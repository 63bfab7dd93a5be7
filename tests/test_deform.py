"""Parabolic rescaling family, filtration bookkeeping, measure scaling."""

import numpy as np
import pytest

from volcalc.deform import (
    ScaledFamily,
    homogeneity_defect,
    measure_scaling_check,
    model_kernel,
    rescale_kernel,
    rescale_symbol,
)
from volcalc.specfile import load_corpus
from volcalc.symcore import CoefficientField, DomainError, QuadraticForm, lambda_power
from volcalc.volterra import CausalKernel, min_extension_index, operator_symbol, parametrix

CORPUS = load_corpus()
FLAT1 = QuadraticForm.flat(1)


def test_filtration_bookkeeping():
    # the parabolic filtration (weights 1 on zeta, 2 on t) has homogeneous
    # dimension d + 2, the causal-extension integrability threshold:
    # smallest j with m + 2j > -(d + 2) flips at m = -(d + 2)
    for d in (1, 2):
        assert min_extension_index(-(d + 2), d) == 1
        assert min_extension_index(-(d + 1), d) == 0


# ---------------------------------------------------------------------------
# symbol rescaling
# ---------------------------------------------------------------------------


def test_rescale_symbol_examples():
    p = lambda_power(FLAT1, 1)
    assert rescale_symbol(p, 0.5).allclose(p.scale(0.25))
    q = lambda_power(FLAT1, -1) + lambda_power(FLAT1, -2) * \
        CoefficientField.real_cosine(1, (1,)).evaluate(0.0).real
    q2 = parametrix(operator_symbol(CORPUS["cosine_potential"]), 2).symbol
    assert rescale_symbol(q2, 0.0).allclose(lambda_power(FLAT1, -1))
    assert rescale_symbol(q2, 1.0).allclose(q2)
    with pytest.raises(DomainError):
        rescale_symbol(q2, 1.5)


def test_model_convergence_along_large_dilation():
    # universal principal limit: lam^-m q(lam xi, lam^2 tau) -> q_m at rate
    # 1/lam (equivalently hbar^m dilate(q, 1/hbar) with hbar = 1/lam -> 0);
    # holds for the heat symbol (order 2) and its parametrix (order -2) alike
    p = operator_symbol(CORPUS["drift_shift"])
    q = parametrix(p, 2).symbol
    x, xi, tau = 0.4, [1.1], -0.9 - 0.6j
    for sym in (p, q):
        m = sym.order
        principal = sym.principal_part().evaluate(x, xi, tau)
        errs = []
        for lam in (1.0, 2.0, 4.0, 8.0, 16.0):
            val = sym.dilate(lam).evaluate(x, xi, tau) * lam ** (-m)
            errs.append(abs(val - principal))
        assert errs[-1] <= errs[0] / 8.0
        assert 0.3 <= errs[-1] / errs[-2] <= 0.7


# ---------------------------------------------------------------------------
# kernel rescaling
# ---------------------------------------------------------------------------


def test_rescale_kernel_flat_heat_example():
    kern = CausalKernel.from_symbol(lambda_power(FLAT1, -1))
    hbar = 0.5
    scaled = rescale_kernel(kern, hbar)
    z, t = 0.5, 0.2
    base = kern.eval_zeta(0.0, [z], t)
    assert abs(scaled.eval_zeta(0.0, [z], t) - hbar**-4 * base) <= 1e-12 * abs(base)
    direct = hbar**-3 * kern.eval_zeta(0.0, [z * hbar], t * hbar**2)
    assert abs(scaled.eval_zeta(0.0, [z], t) - direct) <= 1e-12 * abs(direct)


def test_rescale_kernel_identity_at_one():
    kern = CausalKernel.from_symbol(lambda_power(FLAT1, -2))
    scaled = rescale_kernel(kern, 1.0)
    assert abs(scaled.eval_zeta(0.0, [0.3], 0.7) - kern.eval_zeta(0.0, [0.3], 0.7)) < 1e-15


def test_rescale_kernel_zero_hbar_guard():
    kern = CausalKernel.from_symbol(lambda_power(FLAT1, -1))
    with pytest.raises(DomainError, match="model_kernel"):
        rescale_kernel(kern, 0.0)
    assert model_kernel(kern).degrees() == [-2]


def test_kernel_homogeneity_identity():
    # k(delta_h(zeta, t)) = h^{-s-(d+2)} k(zeta, t) for strictly homogeneous pieces
    res = parametrix(operator_symbol(CORPUS["drift_shift"]), 2)
    for s in (-2, -3):
        kern = CausalKernel.from_symbol(res.symbol.graded_piece(s))
        for hbar in (0.5, 0.25):
            for z, t in ((0.6, 0.4), (1.4, 1.1)):
                lhs = kern.eval_zeta(0.0, [hbar * z], hbar**2 * t)
                rhs = hbar ** (-s - 3) * kern.eval_zeta(0.0, [z], t)
                assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1e-30)


# ---------------------------------------------------------------------------
# scaled families and the homogeneity defect
# ---------------------------------------------------------------------------


def test_family_returns_base_at_one():
    q = parametrix(operator_symbol(CORPUS["cosine_potential"]), 2).symbol
    fam = ScaledFamily(q)
    assert fam.at(1.0).allclose(q)
    kern = CausalKernel.from_symbol(q.graded_piece(-2))
    famk = ScaledFamily(kern)
    assert famk.at(1.0).eval_zeta(0.2, [0.5], 0.3) == kern.eval_zeta(0.2, [0.5], 0.3)
    assert famk.order == -2


def test_homogeneity_defect_strict_and_identity():
    res = parametrix(operator_symbol(CORPUS["drift_shift"]), 2)
    strict = ScaledFamily(CausalKernel.from_symbol(res.symbol.graded_piece(-2)),
                          order=-2)
    zg = np.array([[-1.4], [0.3], [1.8]])
    tg = np.array([0.3, 0.9])
    for lam in (1.0, 2.0, 8.0):
        _, sup = homogeneity_defect(strict, lam, 0.5, zg, tg, reference="self")
        assert sup <= 1e-12
    # two-term family: lam = 1 still gives zero defect against itself
    k2 = CausalKernel.from_symbol(res.symbol.graded_piece(-2))
    k3 = CausalKernel.from_symbol(res.symbol.graded_piece(-3))
    fam = ScaledFamily(k2 + k3, order=-2)
    _, sup = homogeneity_defect(fam, 1.0, 0.5, zg, tg, reference="self")
    assert sup <= 1e-14


def test_homogeneity_defect_two_term_rate():
    res = parametrix(operator_symbol(CORPUS["drift_shift"]), 2)
    k2 = CausalKernel.from_symbol(res.symbol.graded_piece(-2))
    k3 = CausalKernel.from_symbol(res.symbol.graded_piece(-3))
    fam = ScaledFamily(k2 + k3, order=-2)
    zg = np.array([[-2.0], [-0.7], [0.6], [1.9]])
    tg = np.array([0.25, 0.8, 1.7])
    sups = [homogeneity_defect(fam, lam, 0.4, zg, tg, reference="model")[1]
            for lam in (2.0, 4.0, 8.0, 16.0)]
    for a, b in zip(sups, sups[1:]):
        assert 0.4 <= b / a <= 0.6


def test_measure_scaling_examples():
    assert measure_scaling_check(2.0, 1) == 8.0
    assert measure_scaling_check(3.0, 2) == 81.0
    assert measure_scaling_check(1.0, 1) == 1.0
    assert measure_scaling_check(0.5, 1) == 0.125
    with pytest.raises(DomainError):
        measure_scaling_check(-1.0, 1)
