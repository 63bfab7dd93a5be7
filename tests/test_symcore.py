"""Symbol algebra: degrees, dilation, products, derivatives, evaluation."""

import warnings

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
    grid_points,
    lambda_power,
)

from fields import cosine, harmonic, sine

FLAT1 = QuadraticForm.flat(1)
FLAT2 = QuadraticForm.flat(2)


def perturbed_form():
    g = CoefficientField.constant(1, 1.0) + cosine(1, (1,), 0.5)
    return QuadraticForm([[g]])


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------


def test_field_arithmetic_and_reality():
    f = cosine(1, (1,)) + CoefficientField.constant(1, 2.0)
    assert f.real_part("f") is f  # exactly real: no new field
    xs = np.linspace(0, 2 * np.pi, 9)
    vals = f.evaluate(xs[:, None])  # a batch of 1-D points is (N, 1)
    assert np.allclose(vals, 2.0 + np.cos(xs))
    # real to 1e-12 relative: snapped to c_{-k} = conj(c_k) exactly
    near = CoefficientField(1, {0: 2.0 + 1e-13j, 1: 0.5 + 1e-13j, -1: 0.5 - 2e-13j})
    snapped = near.real_part("near")
    amp = snapped.amplitudes
    assert amp[(1,)] == np.conj(amp[(-1,)]) and amp[(0,)] == 2.0
    assert snapped.real_part("snapped") is snapped
    assert (snapped - near).norm_inf() <= 1e-12
    g = harmonic(1, (1,), 1.0)  # e^{ix}: not real-valued
    with pytest.raises(ValueError, match="g must be real-valued"):
        g.real_part("g")
    prod = f * g
    assert np.allclose(prod.evaluate(xs[:, None]), (2.0 + np.cos(xs)) * np.exp(1j * xs))


def test_field_derivative_and_periodicity():
    f = sine(1, (3,), 2.0)
    df = f.deriv(0)
    xs = np.linspace(0, 2 * np.pi, 11)
    assert np.allclose(df.evaluate(xs[:, None]), 6.0 * np.cos(3 * xs))
    assert abs(f.evaluate(0.3) - f.evaluate(0.3 + 2 * np.pi)) < 1e-12


def test_field_grid_round_trip():
    f = CoefficientField(2, {(1, -2): 0.5 + 0.25j, (-1, 2): 0.5 - 0.25j, (0, 0): 1.5})
    ax = 2 * np.pi * np.arange(16) / 16
    grid = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1)
    back = CoefficientField.from_grid(f.evaluate(grid.reshape(-1, 2)).reshape(16, 16))
    assert set(back.amplitudes) == set(f.amplitudes)
    for k, c in f.amplitudes.items():
        assert abs(back.amplitudes[k] - c) < 1e-12


def test_field_cancellation_trims_the_box():
    one = CoefficientField.constant(1, 1.0)
    cos3 = cosine(1, (3,))
    f = (cos3 + one) + (-cos3)
    assert f == one
    assert f.max_freq() == 0
    assert f._box.tobytes() == one._box.tobytes()
    assert one - one == CoefficientField.zero(1)


def test_equal_fields_have_equal_bytes_across_signed_zero():
    # scaling by -1.0 turns the zero imaginary parts into -0.0
    a = CoefficientField(1, {1: 1.0, -1: 1.0}).scale(-1.0)
    b = CoefficientField(1, {1: -1.0, -1: -1.0})
    assert a == b and a._box.tobytes() == b._box.tobytes()


def test_fields_are_unhashable_and_take_points_as_rows():
    f = cosine(1, (1,))
    with pytest.raises(TypeError, match="unhashable"):
        hash(f)
    assert f.evaluate(np.array([0.0])) == f.evaluate(0.0)  # one 1-D point
    with pytest.raises(ValueError, match="point of length 2 for d=1"):
        f.evaluate(np.array([0.0, 1.0]))


@pytest.mark.parametrize("dim", [1, 2])
def test_from_grid_keeps_only_negative_nyquist(dim):
    ax = 2 * np.pi * np.arange(8) / 8
    x1 = np.meshgrid(*([ax] * dim), indexing="ij")[0]
    f = CoefficientField.from_grid(np.cos(4 * x1))
    assert f.amplitudes == {(-4,) + (0,) * (dim - 1): 1}


def test_field_evaluate_matches_naive_sum():
    rng = np.random.default_rng(11)
    amp = {(i, j): complex(*rng.standard_normal(2))
           for i in range(-2, 3) for j in range(-3, 2)}
    f = CoefficientField(2, amp)
    assert len(f.amplitudes) == 25

    def naive(x):
        return sum(c * np.exp(1j * (k[0] * x[0] + k[1] * x[1])) for k, c in amp.items())

    x0 = np.array([0.7, -1.9])
    assert abs(f.evaluate(x0) - naive(x0)) <= 1e-13
    pts = rng.uniform(0.0, 2 * np.pi, (50, 2))
    assert np.max(np.abs(f.evaluate(pts) - np.array([naive(p) for p in pts]))) <= 1e-13


@pytest.mark.parametrize("dim", [1, 2])
def test_field_evaluate_on_tensor_grid_matches_pointwise(dim):
    # a full grid is summed axis by axis; the result must match point by point
    rng = np.random.default_rng(12)
    amp = {k: complex(*rng.standard_normal(2))
           for k in np.ndindex(*([5] * dim))}
    f = CoefficientField(dim, {tuple(i - 2 for i in k): c for k, c in amp.items()})
    pts = grid_points(12, dim)
    rng.shuffle(pts)
    expect = np.array([f.evaluate(p if dim > 1 else p[0]) for p in pts])
    assert np.max(np.abs(f.evaluate(pts) - expect)) <= 1e-13


def _convolved(f, g):
    """Box of f * g by one np.convolve of the flattened boxes, the trailing
    axes zero-padded to the product's width (the general product)."""
    dim, width = f.dim, len(f._box) + len(g._box) - 1

    def padded(box):
        out = np.zeros((len(box),) + (width,) * (dim - 1), dtype=complex)
        out[(slice(None),) + (slice(0, len(box)),) * (dim - 1)] = box
        return out.ravel()

    out = np.convolve(padded(f._box), padded(g._box))[:width ** dim]
    return CoefficientField._from_box(dim, out.reshape((width,) * dim))._box


@pytest.mark.parametrize("dim", [1, 2])
def test_constant_factor_product_is_bit_equal_to_the_convolution(dim):
    # a constant with a zero real or imaginary part is applied as a scale;
    # a general complex one still goes through the convolution
    rng = np.random.default_rng(31 + dim)
    for _ in range(200):
        K = int(rng.integers(0, 3))
        box = rng.standard_normal((2 * K + 1,) * dim) + 1j * rng.standard_normal((2 * K + 1,) * dim)
        f = CoefficientField(dim, {tuple(i - K for i in k): box[k] for k in np.ndindex(box.shape)})
        a, b = rng.standard_normal(2)
        for c in (a, 1j * b, a + 1j * b, 1.0, 0.0, -0.0, -1j):
            const = CoefficientField.constant(dim, c)
            expect = _convolved(f, const).tobytes()
            assert (f * const)._box.tobytes() == expect
            assert (const * f)._box.tobytes() == expect


def test_scale_by_one_returns_the_field():
    f = cosine(2, (1, -2), 0.3)
    for one in (1, 1.0, 1 + 0j, np.complex128(1.0)):
        assert f.scale(one) is f
        assert f * CoefficientField.constant(2, one) is f


def test_number_operands_are_refused():
    # a number multiplies through CoefficientField.scale or lambda_power(form, 0, c)
    f = cosine(1, (1,))
    q = lambda_power(FLAT1, -1)
    for product in (lambda: f * 2.0, lambda: 2.0 * f, lambda: 2.0 * q, lambda: q * 2.0):
        with pytest.raises(TypeError):
            product()


@pytest.mark.parametrize("dim", [1, 2])
def test_trimmed_boxes_are_the_least_centred_box(dim):
    rng = np.random.default_rng(40 + dim)
    for n in (1, 3, 5, 7):
        for inner in range(0, n // 2 + 2):  # nonzero entries only within this radius
            box = rng.standard_normal((n,) * dim) + 0j
            K = n // 2
            for axis in range(dim):  # zero every entry outside the radius
                far = np.abs(np.arange(n) - K) >= inner
                box[(slice(None),) * axis + (far,)] = 0.0
            box[box.real < -1.0] = -0.0  # signed zeros among the entries
            nz = np.argwhere(box != 0)
            radius = int(np.max(np.abs(nz - K))) if len(nz) else 0
            expect = box[(slice(K - radius, K + radius + 1),) * dim] + 0.0
            got = CoefficientField._from_box(dim, box.copy())._box
            assert got.shape == (2 * radius + 1,) * dim
            assert got.tobytes() == expect.tobytes()
            assert not np.any(np.signbit(got.real) & (got.real == 0))
            assert not np.any(np.signbit(got.imag) & (got.imag == 0))


# ---------------------------------------------------------------------------
# quadratic forms
# ---------------------------------------------------------------------------


def test_form_symmetry_enforced():
    a = CoefficientField.constant(2, 1.0)
    b = CoefficientField.constant(2, 0.3)
    c = CoefficientField.constant(2, 0.2)
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticForm([[a, b], [c, a]])


def test_form_stores_a_near_real_metric_exactly_real():
    exact = CoefficientField.constant(2, 1.0) + cosine(2, (1, 0), 0.4)
    near = exact + harmonic(2, (1, 0), 1e-13j)
    off = cosine(2, (0, 1), 0.2)
    G = QuadraticForm([[near, off], [off, CoefficientField.constant(2, 1.0)]])
    g = G.entries[0][0]
    assert g.real_part("snapped") is g and (g - exact).norm_inf() <= 1e-13
    pts = grid_points(8, 2)
    for x in ((0.3, 1.1), pts):
        m = G.matrix_at(x)
        assert m.dtype == np.float64
        assert np.array_equal(m, np.swapaxes(m, -1, -2))
    assert G.matrix_at(pts).shape == (64, 2, 2)
    # the derivative of an exactly real entry is exactly real too
    dg = G.entries[0][0].deriv(0)
    assert dg.real_part("derivative") is dg


def test_form_refuses_a_non_real_metric():
    # 1 + 0.3 e^{ix} has no mirrored amplitude, so it is not real-valued
    nonreal = CoefficientField(1, {0: 1.0, 1: 0.3})
    with pytest.raises(ValueError, match="metric coefficients must be real-valued"):
        QuadraticForm([[nonreal]])


def test_form_positivity_floor():
    g = CoefficientField.constant(1, 1.0) + cosine(1, (1,), 1.5)
    with pytest.raises(NotPositiveDefiniteError):
        QuadraticForm([[g]])


def test_form_positivity_grid_follows_the_highest_frequency():
    # n = max(64, 8K) points per axis: 1 + 1.05 cos(16x + pi/4), least value
    # -0.05, reads 0.258 on the 64-point grid and -0.050 on its 128 points
    c = 0.525 * np.exp(1j * np.pi / 4)
    aliased = CoefficientField(1, {0: 1.0, 16: c, -16: np.conj(c)})
    with pytest.raises(NotPositiveDefiniteError, match="min eigenvalue -5.000e-02"):
        QuadraticForm([[aliased]])
    # K = 17 needs more points than heat_coefficients' 128-point grid
    fast = CoefficientField.constant(1, 1.0) + cosine(1, (17,), 0.1)
    with pytest.raises(NotPositiveDefiniteError, match="frequency 17 needs a 136-point grid"):
        QuadraticForm([[fast]])
    # K <= 8 keeps the 64-point grid
    for G in (perturbed_form(), QuadraticForm([[CoefficientField.constant(1, 1.0)
                                                 + cosine(1, (8,), 0.5)]])):
        floor = np.linalg.eigvalsh(G.matrix_at(grid_points(64, 1))).min()
        assert G.min_eig == floor


def test_form_value_and_derivative():
    G = perturbed_form()
    xi = np.array([2.0])
    assert abs(xi @ G.matrix_at(0.0) @ xi - 1.5 * 4.0) < 1e-12
    # d/dx Lambda = (dg/dx) xi^2, read off the one term of the chain rule
    dlam = lambda_power(G, 1).deriv(("x", 0)).term_map()
    assert list(dlam) == [((2,), 0)]
    assert abs(dlam[((2,), 0)].evaluate(0.7) - (-0.5 * np.sin(0.7))) < 1e-12


# ---------------------------------------------------------------------------
# term degrees  (spec examples, trivial)
# ---------------------------------------------------------------------------


def test_term_degree_examples():
    one = CoefficientField.constant(1, 1.0)
    for key, degree in ((((2,), 0), 2), (((0,), -1), -2), (((1,), -1), -1)):
        assert ParabolicSymbol(FLAT1, {key: one}).degrees() == [degree]
    # pairs with equal keys are summed; term_map lists degree descending,
    # then beta, then l, whatever the order the terms came in
    wave = cosine(1, (1,))
    pairs = [(((0,), -1), one), (((2,), -1), wave), (((1,), -1), one),
             (((0,), 0), one), (((0,), -1), wave), (((2,), -2), one)]
    q = ParabolicSymbol(FLAT1, pairs)
    assert list(q.term_map()) == [((0,), 0), ((2,), -1), ((1,), -1), ((0,), -1), ((2,), -2)]
    assert q.term_map()[((0,), -1)] == one + wave


# ---------------------------------------------------------------------------
# dilation
# ---------------------------------------------------------------------------


def test_dilate_homogeneous_examples():
    lam = lambda_power(FLAT1, 1)  # i tau + xi^2
    scaled = lam.dilate(2.0)
    assert scaled.allclose(lambda_power(FLAT1, 1, 4.0))
    lam_inv = lambda_power(FLAT1, -1)
    assert lam_inv.dilate(3.0).allclose(lambda_power(FLAT1, -1, 1.0 / 9.0))


def test_dilate_three_term_numeric():
    # dilate-then-eval equals the graded-piece sum with lambda powers
    q = ParabolicSymbol(FLAT1, {
        ((0,), -1): cosine(1, (1,)),
        ((1,), -1): CoefficientField.constant(1, 0.75),
        ((0,), -2): sine(1, (2,), 0.5),
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
        ((2,), -2): cosine(1, (1,), 0.3),
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
    assert one.allclose(lambda_power(FLAT1, 0))


def test_mul_matches_pointwise_square():
    q = ParabolicSymbol(FLAT1, {((0,), -1): cosine(1, (1,))})
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


def test_deriv_x_perturbed_metric_closed_form():
    # d/dx [cos x * Lambda^-1] = -sin x Lambda^-1 + cos x (1/2 sin x) xi^2 Lambda^-2
    G = perturbed_form()
    q = ParabolicSymbol(G, {((0,), -1): cosine(1, (1,))})
    dq = q.deriv(("x", 0))
    expect = ParabolicSymbol(G, {
        ((0,), -1): sine(1, (1,), -1.0),
        ((2,), -2): cosine(1, (1,)) *
                    sine(1, (1,), 0.5),
    })
    assert dq.allclose(expect)
    # finite-difference oracle at a fixed probe point
    x0, xi0, tau0 = 0.7, 1.3, -1.0 - 1.0j
    h = 1e-5
    fd = (q.evaluate(x0 + h, [xi0], tau0) - q.evaluate(x0 - h, [xi0], tau0)) / (2 * h)
    assert abs(dq.evaluate(x0, [xi0], tau0) - fd) <= 1e-6 * max(1.0, abs(fd))


@pytest.mark.parametrize("var", [("xi", 0), ("x", 0)])
def test_deriv_finite_difference_all_kinds(var):
    G = perturbed_form()
    q = ParabolicSymbol(G, {
        ((1,), -1): cosine(1, (1,), 0.8),
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

        if var[0] == "xi":
            fd = (at(x, xi + h, tau) - at(x, xi - h, tau)) / (2 * h)
        else:
            fd = (at(x + h, xi, tau) - at(x - h, xi, tau)) / (2 * h)
        got = dq.evaluate(x, [xi], tau)
        assert abs(got - fd) <= 1e-5 * max(abs(fd), 1.0)


def test_deriv_degree_shifts():
    G = perturbed_form()
    q = ParabolicSymbol(G, {((1,), -2): cosine(1, (1,))})
    assert q.deriv(("xi", 0)).order == q.order - 1
    assert q.deriv(("x", 0)).order == q.order
    for var in ("tau", ("y", 0)):
        with pytest.raises(DomainError, match="derivative variable"):
            q.deriv(var)


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
        ((1,), -1): cosine(1, (1,)),
        ((0,), -2): CoefficientField.constant(1, 0.5),
    })
    taus = np.linspace(-30, 30, 7)
    grid = q.evaluate(0.4, [1.2], taus)
    assert grid.shape == taus.shape
    for i, tau in enumerate(taus):
        assert abs(grid[i] - q.evaluate(0.4, [1.2], tau)) < 1e-13


def _term_by_term(q, x, xi, tau):
    """sum of c(x) xi^beta Lambda^l with numpy ** per term, and the sum of |terms|."""
    xi = np.asarray(xi, dtype=float)
    lam = 1j * np.asarray(tau, dtype=complex) + xi @ q.form.matrix_at(x) @ xi
    terms = [c.evaluate(x) * np.prod(xi ** np.array(beta)) * lam ** l
             for (beta, l), c in q.term_map().items()]
    return sum(terms, np.zeros_like(lam)), sum(np.abs(terms), np.zeros(lam.shape))


def _mixed_powers(form):
    # powers 2, 0, -1, -2 and -4 (a gap at -3), several terms per power
    d = form.dim
    e = [tuple(int(i == a) for i in range(d)) for a in range(d)]
    two = tuple(2 * b for b in e[0])
    return ParabolicSymbol(form, {
        ((0,) * d, 2): CoefficientField.constant(d, 0.25),
        (e[-1], 0): cosine(d, e[0], -0.8),
        ((0,) * d, 0): CoefficientField.constant(d, 1.5),
        (e[0], -1): sine(d, e[-1], 0.7),
        (two, -2): CoefficientField.constant(d, -1.3),
        ((0,) * d, -2): cosine(d, e[0], 0.4),
        (e[-1], -4): CoefficientField.constant(d, 2.0),
    })


@pytest.mark.parametrize("form", [perturbed_form(), QuadraticForm.flat(2)],
                         ids=["metric1d", "flat2d"])
def test_grouped_evaluation_matches_term_by_term(form):
    q = _mixed_powers(form)
    assert sorted({l for _, l in q.term_map()}) == [-4, -2, -1, 0, 2]
    d = form.dim
    x = (0.7,) * d if d > 1 else 0.7
    xis = np.array([[1.1] * d, [-0.6] + [0.9] * (d - 1)])
    taus = np.linspace(-30.0, 30.0, 101)
    for xi in xis:
        for tau in (taus, 0.4, -2.5 + 0.3j):
            got = q.evaluate(x, xi, tau)
            ref, size = _term_by_term(q, x, xi, tau)
            assert np.shape(got) == np.shape(tau)
            assert np.all(np.abs(got - ref) <= 1e-14 * size)
    # a stack of covectors: one row per covector, each as evaluated alone
    stacked = q.evaluate(x, xis, taus)
    assert stacked.shape == (2, taus.size)
    for row, xi in zip(stacked, xis):
        assert np.array_equal(row, q.evaluate(x, xi, taus))
    assert q.evaluate(x, xis, 0.4).shape == (2,)


def test_zero_symbol_evaluates_to_zero():
    zero = ParabolicSymbol(FLAT1)
    taus = np.linspace(-3.0, 3.0, 5)
    assert np.array_equal(zero.evaluate(0.3, [1.0], taus), np.zeros(5))
    assert zero.evaluate(0.3, [1.0], 0.5) == 0
    assert np.shape(zero.evaluate(0.3, [1.0], 0.5)) == ()
    # Lambda = 0 is no pole without a negative power
    assert zero.evaluate(0.3, [0.0], 0.0) == 0


def test_pole_raises_before_any_reciprocal():
    taus = np.array([-1.0, 0.0, 1.0])
    q = lambda_power(FLAT1, 2) + lambda_power(FLAT1, -3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no divide-by-zero RuntimeWarning
        for tau in (taus, 0.0, 0j):
            with pytest.raises(SingularityError):
                q.evaluate(0.0, [0.0], tau)
        # no negative power: no reciprocal, and Lambda = 0 is an ordinary point
        p = lambda_power(FLAT1, 2) + lambda_power(FLAT1, 0)
        assert np.array_equal(p.evaluate(0.0, [0.0], taus), [0.0, 1.0, 0.0])
        assert p.evaluate(0.0, [0.0], 0.0) == 1.0


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
        ((0, 0), -1): cosine(2, (1, 0), 0.4),
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
