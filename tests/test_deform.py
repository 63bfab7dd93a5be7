"""Parabolic rescaling family, filtration bookkeeping, measure scaling."""

from fractions import Fraction

import numpy as np
import pytest

from volcalc.deform import (
    ScaledFamily,
    homogeneity_defect,
    measure_scaling_check,
    rescale_symbol,
)
from volcalc.specfile import load_corpus
from volcalc.symcore import DomainError, QuadraticForm, lambda_power
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
    assert rescale_symbol(p, 0.5).allclose(lambda_power(FLAT1, 1, 0.25))
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
    fam = ScaledFamily(CausalKernel.from_symbol(res.symbol.truncate_below(-3)), order=-2)
    _, sup = homogeneity_defect(fam, 1.0, 0.5, zg, tg, reference="self")
    assert sup <= 1e-14


def test_homogeneity_defect_two_term_rate():
    res = parametrix(operator_symbol(CORPUS["drift_shift"]), 2)
    kern = CausalKernel.from_symbol(res.symbol.truncate_below(-3))
    assert kern.symbol.degrees() == [-2, -3]
    assert kern.symbol.principal_part().degrees() == [-2]  # the model (hbar = 0) member
    fam = ScaledFamily(kern, order=-2)
    zg = np.array([[-2.0], [-0.7], [0.6], [1.9]])
    tg = np.array([0.25, 0.8, 1.7])
    sups = [homogeneity_defect(fam, lam, 0.4, zg, tg, reference="model")[1]
            for lam in (2.0, 4.0, 8.0, 16.0)]
    for a, b in zip(sups, sups[1:]):
        assert 0.4 <= b / a <= 0.6


def test_homogeneity_defect_factorises_the_metric_twice(monkeypatch):
    res = parametrix(operator_symbol(CORPUS["perturbed_metric"]), 2)
    kern = CausalKernel.from_symbol(res.symbol.truncate_below(-3))
    model = CausalKernel.from_symbol(res.symbol.graded_piece(-2))
    fam = ScaledFamily(kern, order=-2)
    zg = np.array([[-2.0], [-0.7], [0.6], [1.9]])
    tg = np.array([0.25, 0.8, 1.7])
    lam = 2.0
    # the per-point route, two scalar eval_zeta calls per sample, is the reference
    expect = np.array([[lam ** -1 * kern.eval_zeta(0.4, z / lam, t / lam**2)
                        - model.eval_zeta(0.4, z, t) for t in tg] for z in zg])
    calls = []
    for name in ("eigvalsh", "inv"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, _fn=fn, _name=name: calls.append(_name) or _fn(a))
    field, sup = homogeneity_defect(fam, lam, 0.4, zg, tg, reference="model")
    assert sorted(calls) == ["eigvalsh", "eigvalsh", "inv", "inv"]
    assert field.shape == (4, 3) and sup == np.max(np.abs(field)) > 1e-3
    assert np.max(np.abs(field - expect)) <= 1e-15 * sup


def test_dilation_refuses_powers_outside_normal_floats():
    fam = ScaledFamily(CausalKernel.from_symbol(lambda_power(FLAT1, -1)), order=-2)
    for lam in (1e200, 1e-200, 1e103, 1e-103):
        with pytest.raises(DomainError, match="normal float"):
            measure_scaling_check(lam, 1)
        with pytest.raises(DomainError, match="normal float"):
            homogeneity_defect(fam, lam, 0.0, [[0.5]], [1.0], reference="self")
    assert measure_scaling_check(1e100, 1) == Fraction(1e100) ** 3


def test_measure_scaling_examples():
    # exact where a float product of the diagonal would round otherwise
    assert measure_scaling_check(0.3, 1) == Fraction(0.3) ** 3
    assert measure_scaling_check(0.7, 2) == Fraction(0.7) ** 4
    assert measure_scaling_check(2.0, 1) == 8.0
    assert measure_scaling_check(3.0, 2) == 81.0
    assert measure_scaling_check(1.0, 1) == 1.0
    assert measure_scaling_check(0.5, 1) == 0.125
    with pytest.raises(DomainError):
        measure_scaling_check(-1.0, 1)
