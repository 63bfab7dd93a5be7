"""Operator symbols, # composition, parametrices, causal kernels, causality."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from volcalc.moments import central_moment
from volcalc.semigroup import discretize, matrix_heat_reference
from volcalc.specfile import load_corpus
from volcalc.symcore import (
    CoefficientField,
    DomainError,
    ParabolicSymbol,
    QuadraticForm,
    lambda_power,
    multi_indices,
)
from volcalc import volterra
from volcalc.volterra import (
    CausalityGrid,
    CausalKernel,
    DegenerateGridError,
    NonIntegrableError,
    OperatorSpec,
    ParametrixShapeError,
    _derivative_chain,
    _kernel_terms,
    anticausal_control,
    causality_check,
    min_extension_index,
    operator_symbol,
    parametrix,
    sharp_exact,
    sharp_product,
)

from fields import cosine, harmonic, sine

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
    p = operator_symbol(CORPUS["flat_laplacian_1d"])
    assert p.allclose(lambda_power(FLAT1, 1))
    assert p.degrees() == [2]


def test_operator_symbol_potential_pieces():
    p = operator_symbol(cos_potential_op())
    assert p.graded_piece(2).allclose(lambda_power(FLAT1, 1))
    assert p.graded_piece(0).allclose(
        ParabolicSymbol(FLAT1, {((0,), 0): cosine(1, (1,))}))


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


def test_operator_spec_rejects_complex_coefficients():
    with pytest.raises(ValueError, match="real"):
        OperatorSpec(FLAT1, (CoefficientField.zero(1),),
                     harmonic(1, (1,), 1.0))


def test_operator_spec_stores_coefficients_exactly_real():
    exact = CoefficientField.constant(1, 1.0) + cosine(1, (1,), 0.25)
    drift = sine(1, (1,), 0.5)
    form = QuadraticForm([[exact]])
    op = OperatorSpec(form, (drift,), exact)
    # exact inputs are kept as they are: no new field, no new form
    assert op.metric is form and op.drift[0] is drift and op.potential is exact
    near = exact + harmonic(1, (1,), 1e-13j)
    op = OperatorSpec(QuadraticForm([[near]]), (drift,), near)
    for field in (op.metric.entries[0][0], op.potential):
        assert field.real_part("snapped") is field
        assert (field - exact).norm_inf() <= 1e-13


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
    qb = ParabolicSymbol(FLAT1, {((0,), 0): harmonic(1, (1,))})
    got = sharp_product(qa, qb, 5)
    expect = ParabolicSymbol(FLAT1, {
        ((1,), 0): harmonic(1, (1,)),
        ((0,), 0): harmonic(1, (1,)),
    })
    assert got.allclose(expect)


def test_sharp_heat_symbol_with_resolvent():
    p = operator_symbol(cos_potential_op())
    got = sharp_exact(p, lambda_power(FLAT1, -1))
    expect = ParabolicSymbol(FLAT1, {
        ((0,), 0): CoefficientField.constant(1, 1.0),
        ((0,), -1): cosine(1, (1,)),
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


def _variable_operators():
    """1-D and 2-D operators with a variable metric, a drift and a potential:
    dyadic amplitudes (exact sums) and non-dyadic ones."""
    for dim in (1, 2):
        for amp in (0.25, 0.3):
            e0, e1 = (1,) + (0,) * (dim - 1), (0,) * (dim - 1) + (1,)
            g = CoefficientField.constant(dim, 1.0) + cosine(dim, e0, amp)
            off = cosine(dim, e1, amp / 4)
            metric = QuadraticForm([[g if i == j else off for j in range(dim)]
                                    for i in range(dim)])
            yield OperatorSpec(metric, tuple(sine(dim, e1, amp) for _ in range(dim)),
                               cosine(dim, e0, amp) + CoefficientField.constant(dim, amp))


def test_internal_results_equal_their_checked_rebuild():
    # the algebra builds its results without the public key and order
    # checks; each result must pass them and come back unchanged
    for op in _variable_operators():
        p = operator_symbol(op)
        res = parametrix(p, 3)
        q = res.symbol
        scaled = [q * lambda_power(q.form, 0, c) for c in (0.3, 1j, 1)]
        results = [p + q, p - q, q - q, -q, *scaled,
                   p * q, q * q, q.dilate(0.5), q.dilate(3.0), q.graded_piece(-3),
                   q.truncate_below(-4), sharp_product(p, q, 3), sharp_exact(p, q),
                   res.symbol, res.defect]
        results += [s.deriv((kind, a)) for s in (p, q) for kind in ("xi", "x")
                    for a in range(op.dim)]
        for r in results:
            rebuilt = ParabolicSymbol(r.form, r.term_map(), order=r.order)
            keys = list(r.term_map())
            assert all(type(v) is int for beta, lpow in keys for v in (*beta, lpow))
            assert type(r.order) is int and rebuilt.order == r.order
            assert list(rebuilt.term_map()) == keys
            assert [c._box.tobytes() for c in rebuilt.term_map().values()] \
                == [c._box.tobytes() for c in r.term_map().values()]


def _sharp_by_fields(q1, q2, max_order):
    """The # sum in the field algebra: per alpha, the terms of da * db with each
    coefficient scaled by coef, and every alpha's terms merged by
    ParabolicSymbol._from_pairs."""
    d = q1.dim
    dxi, dx = {(0,) * d: q1}, {(0,) * d: q2}
    pairs = []
    for order in range(max_order):
        alive = False
        for alpha in multi_indices(d, order):
            da = _derivative_chain(q1, dxi, alpha, "xi")
            if da.is_zero():
                continue
            alive = True
            db = _derivative_chain(q2, dx, alpha, "x")
            coef = (-1j) ** order / math.prod(map(math.factorial, alpha))
            pairs += ((k, c.scale(coef)) for k, c in (da * db)._terms.items())
        if not alive and order > 0:
            break
    return ParabolicSymbol._from_pairs(q1.form, pairs, q1.order + q2.order)


def _sharp_cases():
    """(q1, q2, depth or None for sharp_exact): 1-D and 2-D, dyadic and not, a
    non-polynomial left factor whose 1/alpha! is inexact, and a product that
    underflows to zero before its key's first nonzero one."""
    for op in _variable_operators():
        p = operator_symbol(op)
        q = parametrix(p, 3).symbol
        yield p, q, None
        yield p, p, None
        if op.dim == 1:
            yield p, q, 3
            yield parametrix(p, 4).symbol, p, 7
        else:
            yield q, p, 4
    tiny = CoefficientField.constant(1, 1e-200)
    q1 = ParabolicSymbol(FLAT1, {((0,), 0): tiny, ((1,), 0): cosine(1, (1,), 0.3)})
    q2 = ParabolicSymbol(FLAT1, {((1,), 0): cosine(1, (2,), 1e-200), ((0,), 0): sine(1, (1,))})
    yield q1, q2, None


def _sharp(q1, q2, depth):
    return sharp_exact(q1, q2) if depth is None else sharp_product(q1, q2, depth)


def _layout(q):
    """A symbol's keys in internal order, with their types, and its box bytes."""
    return [(key, [type(v) for v in (*key[0], key[1])], c._box.shape, c._box.tobytes())
            for key, c in q._terms.items()]


def test_sharp_sum_equals_the_field_level_sum_bit_for_bit():
    for q1, q2, depth in _sharp_cases():
        ref = _sharp_by_fields(q1, q2, q1.order + 1 if depth is None else depth)
        if depth is not None:
            ref = ref.truncate_below(q1.order + q2.order - depth + 1)
        got = _sharp(q1, q2, depth)
        assert got.order == ref.order
        assert _layout(got) == _layout(ref)
        assert all(t is int for _, types, _, _ in _layout(got) for t in types)


def test_sharp_exact_keeps_the_last_order_of_a_high_degree_left_factor():
    # d_xi^64 xi^64 = 64! is the last nonzero derivative; its alpha = 64 term
    # is the whole degree-0 piece, cos x
    q1 = ParabolicSymbol(FLAT1, {((64,), 0): CoefficientField.constant(1, 1.0)})
    q2 = ParabolicSymbol(FLAT1, {((0,), 0): cosine(1, (1,))})
    got = sharp_exact(q1, q2)
    assert _layout(got) == _layout(sharp_product(q1, q2, 65))
    amps = got.graded_piece(0).term_map()[((0,), 0)].amplitudes
    assert amps.keys() == {(1,), (-1,)}
    assert all(abs(c - 0.5) <= 1e-12 for c in amps.values())


def test_sharp_sum_leaves_its_inputs_and_their_derivatives_unchanged(monkeypatch):
    # a product with the constant 1 hands the # sum a factor's own box
    seen = {}

    def snapshot(q):
        seen.setdefault(id(q), (q, [c._box.tobytes() for c in q._terms.values()]))

    def recorded(q, cache, alpha, kind):
        out = _derivative_chain(q, cache, alpha, kind)
        snapshot(out)  # before the sum multiplies by it
        return out

    monkeypatch.setattr(volterra, "_derivative_chain", recorded)
    for q1, q2, depth in _sharp_cases():
        seen.clear()
        snapshot(q1)
        snapshot(q2)
        _sharp(q1, q2, depth)
        assert len(seen) > 2
        for q, before in seen.values():
            assert [c._box.tobytes() for c in q._terms.values()] == before


# ---------------------------------------------------------------------------
# parametrix
# ---------------------------------------------------------------------------


def test_parametrix_flat_exact():
    for depth in (0, 2, 5):
        res = parametrix(operator_symbol(CORPUS["flat_laplacian_1d"]), depth)
        assert res.symbol.allclose(lambda_power(FLAT1, -1))
        assert res.defect.is_zero()


def test_parametrix_potential_pieces():
    res = parametrix(operator_symbol(cos_potential_op()), 4)
    q = res.symbol
    assert q.graded_piece(-2).allclose(lambda_power(FLAT1, -1))
    assert q.graded_piece(-3).is_zero()
    V = cosine(1, (1,))
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
                assert right.graded_piece(s).coeff_norm() <= 1e-9 * scale


def test_parametrix_shape_guard():
    bad = quadratic_symbol_like = lambda_power(FLAT1, 1) + ParabolicSymbol(
        FLAT1, {((2,), 0): CoefficientField.constant(1, 1.0)})
    # the recursion cancels exactly only against Lambda itself: one ulp off
    # is refused too
    off = operator_symbol(cos_potential_op()) + lambda_power(FLAT1, 1, 2.0 ** -52)
    assert off.graded_piece(2).term_map() == {
        ((0,), 1): CoefficientField.constant(1, 1.0 + 2.0 ** -52)}
    for p in (bad, off):
        with pytest.raises(ParametrixShapeError):
            parametrix(p, 2)


def test_parametrix_refuses_coefficients_that_overflow():
    # V = 2e200 cos x: q_{-4} carries V and q_{-6} would carry V^2 = 4e400
    op = OperatorSpec(FLAT1, (CoefficientField.zero(1),), cosine(1, (1,), 2e200))
    p = operator_symbol(op)
    assert np.isfinite(parametrix(p, 3).symbol.coeff_norm())
    with pytest.raises(DomainError, match="parametrix depth 4: its coefficients "
                                          "overflow floats"):
        parametrix(p, 4)


def test_parametrix_defect_keys_are_in_canonical_order():
    # evaluate sums a symbol's terms in its internal key order
    for op in CORPUS.values():
        p = operator_symbol(op)
        for depth in range(2, 6):
            defect = parametrix(p, depth).defect
            assert list(defect._terms) == list(defect.term_map())


def test_stacked_defect_value_on_a_ray_matches_per_lambda_calls():
    # criterion 7 reads a defect along a parabolic ray (lam xi, lam^2 tau)
    # as the diagonal of one (xi stack) x (tau array) evaluation
    lams = np.geomspace(1.0, 32.0, 41)
    ops = [op for op in CORPUS.values() if op.dim == 1] + list(_variable_operators())
    for op in ops:
        defect = parametrix(operator_symbol(op), 3).defect
        if defect.is_zero():
            continue
        d = op.dim
        x0 = 1.1 if d == 1 else np.array([1.1, 2.3])
        for xi0, tau0 in ((np.array([0.6, -0.5][:d]), 0.5 * np.exp(-1.2j)),
                          (np.array([-1.3, 0.4][:d]), 0.3 * np.exp(-2.9j))):
            got = np.diagonal(defect.evaluate(x0, np.outer(lams, xi0), lams**2 * tau0))
            ref = np.array([defect.evaluate(x0, lam * xi0, lam**2 * tau0) for lam in lams])
            # relative to the ray's largest value: the stacked and per-point
            # arithmetic differ in the last bits, and where the defect cancels
            # to 1e-8 of that value, this is more than 1e-12 of its own value
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


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
    # xi^beta Lambda^-n on the line: k(zeta, t) = t^(n-1)/(n-1)! (2 pi)^-1 g m_beta
    # with g = sqrt(pi/t) e^{-zeta^2/4t} and m_beta = 1, i zeta/2t,
    # 1/2t - zeta^2/4t^2.  The sign of m_1 pins the convention e^{+i<zeta,xi>}.
    zeta = np.array([[-1.3], [-0.4], [0.0], [0.7], [2.1]])
    t = np.array([0.2, 0.9, 2.5])
    g = np.sqrt(np.pi / t) * np.exp(-zeta**2 / (4 * t))
    moments = (1.0, 1j * zeta / (2 * t), 1 / (2 * t) - zeta**2 / (4 * t**2))
    for n in (1, 2, 3):
        for beta, m in enumerate(moments):
            q = ParabolicSymbol(FLAT1, {((beta,), -n): CoefficientField.constant(1, 1.0)})
            expect = t ** (n - 1) / math.factorial(n - 1) * g * m / (2 * np.pi)
            got = CausalKernel.from_symbol(q).eval_zeta(0.3, zeta, t)
            assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))


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
            # at G(xi, xi) = a the terms give c t^p e^{-ta}
            got = sum(c.evaluate(0.0) * t**tpow * np.exp(-t * a)
                      for _, tpow, c in _kernel_terms(kern.symbol)).real
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
    assert kern.eval_zeta(0.3, [0.7], -0.5) == 0.0


def test_batched_eval_zeta_matches_scalar_calls():
    res = parametrix(operator_symbol(perturbed_op()), 3)
    kern = CausalKernel.from_symbol(res.symbol)
    assert max(sum(beta) for beta, _ in kern.symbol.term_map()) == 9
    zetas = np.array([[-1.7], [0.0], [0.6], [2.3]])
    ts = np.array([[0.05, 0.4, -0.3], [1.1, -2.0, 3.5]])
    got = kern.eval_zeta(0.3, zetas, ts)
    assert got.shape == (4, 2, 3)
    for i, z in enumerate(zetas):
        for j in np.ndindex(ts.shape):
            one = kern.eval_zeta(0.3, z, ts[j])
            assert isinstance(one, complex)
            if ts[j] < 0:
                assert one == 0.0 and got[(i,) + j] == 0.0
            else:
                assert abs(got[(i,) + j] - one) <= 1e-15 * abs(one)
    assert kern.eval_zeta(0.3, zetas[2], ts).shape == ts.shape
    with pytest.raises(DomainError):
        kern.eval_zeta(0.3, zetas, np.array([0.5, 0.0]))
    with pytest.raises(DomainError):
        kern.eval_zeta(0.3, zetas[0], 0.0)


def test_kernel_computes_one_moment_per_distinct_beta(monkeypatch):
    from volcalc import volterra

    kern = CausalKernel.from_symbol(parametrix(operator_symbol(perturbed_op()), 8).symbol)
    betas = [beta for beta, _, _ in _kernel_terms(kern.symbol)]
    assert (len(betas), len(set(betas))) == (57, 24)
    zetas, ts = np.array([[0.4], [-1.1]]), np.array([0.2, 0.7])
    expect = kern.eval_zeta(0.3, zetas, ts), kern.diagonal_value(0.3, ts)
    calls = []

    def counting(beta, sigma, mean):
        calls.append(beta)
        return central_moment(beta, sigma, mean)

    monkeypatch.setattr(volterra, "central_moment", counting)
    assert kern.eval_zeta(0.3, zetas, ts).tobytes() == expect[0].tobytes()
    assert sorted(calls) == sorted(set(betas))
    calls.clear()
    assert kern.diagonal_value(0.3, ts).tobytes() == expect[1].tobytes()
    assert sorted(calls) == sorted({b for b in betas if sum(b) % 2 == 0})


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


@pytest.mark.parametrize("name, smallest_t_error", [
    ("cosine_potential", 3e-6),
    ("perturbed_metric", 3e-7),
    ("drift_shift", 2.5e-5),
], ids=["cosine_potential", "perturbed_metric", "drift_shift"])
def test_off_diagonal_kernel_matches_galerkin_heat(name, smallest_t_error):
    # the periodized depth-6 kernel against (2 pi)^-1 v(x)^T exp(-tM) conj v(y),
    # v(x)_k = e^{ikx}, on 13 points |x - y| <= 3 sqrt(t); the odd-|beta|
    # terms that diagonal_value skips are checked only here.  The error
    # falls like t^((J+1)/2), by 2^3.5 = 11.3 per halving of t (measured
    # 11.4-12.5); 2^3 = 8 would mean an order lost.  The gates on the
    # smallest-t error are about 3 times the measured values (9.3e-7, 8.3e-8
    # and 8.0e-6).
    op = CORPUS[name]
    kern = CausalKernel.from_symbol(parametrix(operator_symbol(op), 6).symbol)
    disc = discretize(op, 48)
    k = disc.freqs[:, 0]
    x, windings = 0.7, 2 * np.pi * np.array([[-1.0], [0.0], [1.0]])
    errs = []
    for t in (0.1, 0.05, 0.025):
        ys = x + np.linspace(-3.0, 3.0, 13) * np.sqrt(t)
        heat = np.exp(1j * k * x) @ matrix_heat_reference(disc, t) \
            @ np.exp(-1j * np.outer(k, ys)) / (2 * np.pi)
        got = np.array([kern.eval_zeta(x, x - y + windings, t).sum() for y in ys])
        errs.append(np.max(np.abs(got - heat)) / np.max(np.abs(heat)))
    assert all(10.0 <= a / b <= 14.0 for a, b in zip(errs, errs[1:])), errs
    assert errs[-1] <= smallest_t_error, errs


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
    ratio = causality_check(anticausal_control(FLAT1), CausalityGrid(), dim=1)
    assert ratio >= 0.5


def test_causality_zero_symbol_convention():
    assert causality_check(ParabolicSymbol(FLAT1), CausalityGrid()) == 0.0


def test_causality_skips_points_where_symbol_vanishes():
    # (c1 xi1 + c2 xi2) Lambda^-2 vanishes up to rounding at the default
    # sample point xi = (0.6, -0.8); its kernel there is rounding noise
    flat2 = QuadraticForm.flat(2)
    q = ParabolicSymbol(flat2, {((1, 0), -2): CoefficientField.constant(2, 0.8 / 3),
                                ((0, 1), -2): CoefficientField.constant(2, 0.2)})
    assert abs(q.evaluate((0.0, 0.0), [0.6, -0.8], -1j)) < 1e-15
    assert causality_check(q, CausalityGrid()) <= 1e-5
    assert causality_check(anticausal_control(flat2), CausalityGrid(), dim=2) >= 0.5


def test_causality_grid_validation():
    with pytest.raises(DegenerateGridError):
        CausalityGrid(n_tau=8)
    # a check holds about 137 bytes per tau sample: 2^20 samples, about 140 MiB
    assert CausalityGrid(n_tau=2**20).n_tau == 2**20
    with pytest.raises(DegenerateGridError, match="2\\^20"):
        CausalityGrid(n_tau=2**20 + 1)


def test_causality_grid_must_be_representable():
    # a subnormal tau step, and a tau_max whose regularizer overflows
    with pytest.raises(DegenerateGridError, match="normal float"):
        CausalityGrid(n_tau=4096, tau_max=1e-310)
    with pytest.raises(DegenerateGridError, match="regularizer"):
        causality_check(lambda_power(FLAT1, -1), grid=CausalityGrid(4096, 1e300))


def test_causality_grid_must_resolve_the_decay():
    # the flat resolvent decays like e^{-t}: min G(xi, xi) = 1 over the sample points
    resolvent = lambda_power(FLAT1, -1)
    window = lambda decay_times: CausalityGrid(4096, np.pi * 4096 / (2.0 * decay_times))
    with pytest.raises(DegenerateGridError, match="decay times"):
        causality_check(resolvent, grid=window(7.9))
    assert causality_check(resolvent, grid=window(8.1)) < 1.0
    # a callable symbol has no metric to read, so no grid is refused for it
    assert causality_check(anticausal_control(FLAT1), grid=window(7.9), dim=1) >= 0.5


def test_causality_nan_sample_fails():
    # a NaN kernel maximum is not a vanishing symbol and must not be skipped
    resolvent = lambda_power(FLAT1, -1)

    def evaluate(x, xi, taus):
        vals = resolvent.evaluate(x, xi, taus)
        if x == 0.0:
            vals[len(vals) // 2] = np.nan
        return vals

    assert causality_check(resolvent, CausalityGrid()) <= 1e-5
    assert causality_check(evaluate, CausalityGrid(), dim=1) == math.inf


def test_volterra_closure_products_stay_causal():
    # products of parametrix-shaped symbols keep Lambda-power denominators
    res = parametrix(operator_symbol(cos_potential_op()), 2)
    q = res.symbol
    prod = q * q
    assert all(l < 0 for (_, l) in prod.term_map())
    grid = CausalityGrid()
    for s in prod.degrees()[:3]:
        assert causality_check(prod.graded_piece(s), grid=grid) <= 1e-5

