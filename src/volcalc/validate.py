"""Acceptance checks: one function per criterion, shared by CLI and tests.

Each criterion function returns a ReportTable whose rows carry the pinned
tolerances; run_acceptance executes all of them against the bundled corpus
and reports one PASS/FAIL line per criterion.
"""

from __future__ import annotations

import math
import time
from itertools import product as _cartesian

import numpy as np

from .deform import ScaledFamily, homogeneity_defect, measure_scaling_check
from .heatexp import heat_coefficients
from .report import ReportTable
from .semigroup import (
    default_quadrature,
    discretize,
    dunford_heat,
    fit_diagonal_expansion,
    hy_heat,
    log_coefficient_estimate,
    matrix_heat_reference,
)
from .specfile import load_corpus
from .symcore import CoefficientField, ParabolicSymbol, QuadraticForm
from .volterra import (
    CausalKernel,
    CausalityGrid,
    anticausal_control,
    causality_check,
    min_extension_index,
    operator_symbol,
    parametrix,
    sharp_product,
)

__all__ = ["CRITERIA", "run_acceptance", "criterion_summary", "add_fit_diagnostics",
           "window_fit"]

Q0_FLAT_1D = (4.0 * np.pi) ** -0.5

# criterion 4's Galerkin mode cutoffs, and criterion 7's defect rays
_ORACLE_N_1D = 16
_ORACLE_N_2D = 6
_RAY_RADIUS = 16.0
_RAY_COUNT = 10
_RAY_FLOOR = 0.1
_RAY_MAX_TRIES = 200


# ---------------------------------------------------------------------------
# criterion implementations
# ---------------------------------------------------------------------------


def window_fit(op):
    """The diagonal fit of criterion 2 and `heat-coeffs --validate`.

    Two orders past the compared q_0..q_2 keep the truncation bias below the
    tolerances, and 7 powers still resolve e^{-3t} (drift_shift) up to t = 0.1.
    """
    return fit_diagonal_expansion(op, np.geomspace(0.005, 0.1, 28), 6, n_x=32)


def add_fit_diagnostics(table, fit):
    """The fit's least-squares residual and design condition, as report rows."""
    table.add("fit residual", numeric=fit.residual, passed=True)
    table.add("fit design condition", numeric=fit.condition, passed=True)


def criterion_1(corpus, rng):
    """Flat heat coefficient on T^1: q_0 exact, q_1..q_4 vanish, fit agrees."""
    table = ReportTable("criterion 1: flat heat coefficient")
    t_start = time.perf_counter()
    op = corpus["flat_laplacian_1d"]
    he = heat_coefficients(op, 4)
    amp = he.coefficient(0).amplitudes
    sym_err = abs(amp.get((0,), 0.0) - Q0_FLAT_1D) + sum(
        abs(v) for k, v in amp.items() if k != (0,))
    table.add("q_0 symbolic = (4pi)^-1/2", symbolic=Q0_FLAT_1D,
              numeric=amp.get((0,), 0.0).real, error=sym_err, tolerance=1e-14)
    for j in range(1, 5):
        table.add(f"q_{j} symbolic = 0", symbolic=0.0,
                  numeric=he.coefficient(j).norm_inf(),
                  error=he.coefficient(j).norm_inf(), tolerance=1e-14)
    times = np.geomspace(0.005, 0.05, 16)
    fit = fit_diagonal_expansion(op, times, 4, n_x=4)
    c = fit.coefficients[0]
    table.add("fitted c_0", symbolic=Q0_FLAT_1D, numeric=c[0],
              error=abs(c[0] - Q0_FLAT_1D), tolerance=1e-3)
    for j in range(1, 5):
        table.add(f"fitted c_{j}", symbolic=0.0, numeric=c[j],
                  error=abs(c[j]), tolerance=1e-2)
    add_fit_diagnostics(table, fit)
    # the gate carries no number, so that --out stays byte-identical across runs
    table.add("runtime within 30 s", passed=time.perf_counter() - t_start <= 30.0)
    return table


def criterion_2(corpus, rng):
    """Potential coefficient: q_2(x) = -(4pi)^-1/2 cos x, symbolic vs fitted."""
    table = ReportTable("criterion 2: potential coefficient")
    t_start = time.perf_counter()
    op = corpus["cosine_potential"]
    he = heat_coefficients(op, 4)
    amp = he.coefficient(2).amplitudes
    expect = {(1,): -0.5 * Q0_FLAT_1D, (-1,): -0.5 * Q0_FLAT_1D}
    sym_err = max(abs(amp.get(k, 0.0) - v) for k, v in expect.items())
    sym_err = max(sym_err, max((abs(v) for k, v in amp.items() if k not in expect),
                               default=0.0))
    table.add("q_2 symbolic = -(4pi)^-1/2 cos x", symbolic="-0.141047*e^(ix)+c.c.",
              numeric=sym_err, error=sym_err, tolerance=1e-14)
    fit = window_fit(op)
    xs = fit.x_grid[:, 0]
    fitted = fit.coefficients[:, 2]
    truth = -Q0_FLAT_1D * np.cos(xs)
    inner = np.abs(np.cos(xs)) >= 0.2
    rel = np.max(np.abs(fitted[inner] - truth[inner]) / np.abs(truth[inner]))
    table.add("fitted q_2 rel error (|cos x| >= 0.2), 32 pts", numeric=rel,
              error=rel, tolerance=0.02)
    if np.any(~inner):
        abse = np.max(np.abs(fitted[~inner] - truth[~inner]))
        table.add("fitted q_2 abs error (|cos x| < 0.2)", numeric=abse,
                  error=abse, tolerance=1e-2)
    add_fit_diagnostics(table, fit)
    table.add("runtime within 120 s", passed=time.perf_counter() - t_start <= 120.0)
    return table


def criterion_3(corpus, rng):
    """Log-term absence: scale-ladder log coefficient <= 1e-3 on every operator."""
    table = ReportTable("criterion 3: log-term absence")
    for name, op in corpus.items():
        est, _ = log_coefficient_estimate(op, 4, n_x=16)
        worst = float(np.max(np.abs(est)))
        table.add(f"|log coefficient| {name}", numeric=worst, error=worst,
                  tolerance=1e-3)
    return table


def criterion_4(corpus, rng):
    """Dunford quadrature vs eigendecomposition, semigroup law, contractivity."""
    table = ReportTable("criterion 4: semigroup oracle")
    mats = [(name, discretize(op, _ORACLE_N_1D if op.dim == 1 else _ORACLE_N_2D))
            for name, op in corpus.items()]
    R = rng.standard_normal((20, 20))
    rand_psd = R @ R.T
    rand_psd *= 10.0 / np.linalg.eigvalsh(rand_psd).max()
    mats.append(("random_20x20_psd", rand_psd))
    ts = (0.3, 0.7, 1.0)
    for t in ts:
        table.add(f"contour nodes per ray t={t}",
                  numeric=len(default_quadrature(t).nodes(t)[0]), passed=True)
    for name, Q in mats:
        Es = {t: dunford_heat(Q, t) for t in ts}
        err = max(np.linalg.norm(Es[t] - matrix_heat_reference(Q, t), 2)
                  for t in Es)
        table.add(f"dunford vs reference {name}", numeric=err, error=err,
                  tolerance=1e-8)
        semi = np.linalg.norm(Es[0.3] @ Es[0.7] - Es[1.0], 2)
        table.add(f"semigroup identity {name}", numeric=semi, error=semi,
                  tolerance=1e-8)
        nonneg = (isinstance(Q, np.ndarray) or Q.is_nonnegative())
        if nonneg:
            growth = max(np.linalg.norm(E, 2) - 1.0 for E in Es.values())
            table.add(f"contractivity {name}", numeric=1.0 + growth,
                      error=growth, tolerance=1e-10)
        else:
            table.add(f"contractivity {name} skipped (operator not nonnegative)",
                      passed=True)
    return table


def criterion_5(corpus, rng):
    """Bounded-approximant convergence and contractivity on spectra in [0, 50]."""
    table = ReportTable("criterion 5: bounded resolvent approximants")
    chosen = {"flat_laplacian_1d": 7, "drift_shift": 6, "perturbed_metric": 5,
              "flat_laplacian_2d": 4}
    lams = (10.0, 1e2, 1e3, 1e4)
    for name, n in chosen.items():
        disc = discretize(corpus[name], n)
        ref = matrix_heat_reference(disc, 1.0)
        errs = [np.linalg.norm(hy_heat(disc, lam, 1.0) - ref, 2) for lam in lams]
        dec = all(b < a for a, b in zip(errs, errs[1:]))
        table.add(f"approximant error decreasing {name}",
                  numeric="; ".join(f"{e:.2e}" for e in errs), passed=dec)
        table.add(f"approximant error at lam=1e4 {name}", numeric=errs[-1],
                  error=errs[-1], tolerance=1e-3)
        growth = max(np.linalg.norm(hy_heat(disc, lam, t), 2) - 1.0
                     for lam in (1.0, 10.0, 100.0) for t in (0.1, 1.0, 10.0))
        table.add(f"approximant contractivity {name}", numeric=1.0 + growth,
                  error=growth, tolerance=1e-10)
    return table


def criterion_6(corpus, rng):
    """Causality of every parametrix piece; anti-causal control must fail."""
    table = ReportTable("criterion 6: causality")
    grid = CausalityGrid()
    for name, op in corpus.items():
        res = parametrix(operator_symbol(op), 4)
        worst = 0.0
        for s in res.symbol.degrees():
            worst = max(worst, causality_check(res.symbol.graded_piece(s), grid=grid))
        worst = max(worst, causality_check(res.symbol, grid=grid))
        table.add(f"max piece ratio {name}", numeric=worst, error=worst,
                  tolerance=1e-5)
    flat = QuadraticForm.flat(1)
    anti = causality_check(anticausal_control(flat), grid=grid, dim=1)
    table.add("anti-causal control ratio >= 0.5", numeric=anti,
              error=0.5 - anti, tolerance=0.0)
    return table


def _defect_rays(p, depths, rng):
    """Random parabolic rays on the anisotropic shell, screened so each
    depth's leading defect component is actually excited (a ray on which the
    top coefficient interferes to near zero cannot certify the defect order).
    """
    d = p.dim
    tops = []
    for N in depths:
        defect = parametrix(p, N).defect
        td = defect.top_degree(tol=0.0)
        if td is not None:
            tops.append(defect.graded_piece(td))
    rays = []
    tries = 0
    while len(rays) < _RAY_COUNT and tries < _RAY_MAX_TRIES:
        tries += 1
        direction = rng.standard_normal(d)
        direction /= np.linalg.norm(direction)
        split = rng.uniform(0.25, 0.75)
        xi_unit = direction * np.sqrt(split)
        phase = rng.uniform(-np.pi + 0.2, -0.2)
        tau_unit = (1.0 - split) * np.exp(1j * phase)
        x0 = rng.uniform(0.0, 2.0 * np.pi, d)
        x0 = x0 if d > 1 else float(x0[0])
        if any(abs(top.evaluate(x0, xi_unit, tau_unit)) < _RAY_FLOOR * top.coeff_norm()
               for top in tops if not top.is_zero()):
            continue
        rays.append((x0, _RAY_RADIUS * xi_unit, _RAY_RADIUS**2 * tau_unit))
    return rays


def criterion_7(corpus, rng):
    """Defect order: no symbolic component above -N-1; ray sups non-increasing."""
    table = ReportTable("criterion 7: parametrix defect")
    for name, op in corpus.items():
        p = operator_symbol(op)
        rays = _defect_rays(p, range(2, 6), rng)
        lams = np.geomspace(1.0, 32.0, 41)
        sups = {}
        top_ok = True
        for N in range(2, 6):
            res = parametrix(p, N)
            top = res.defect.top_degree(tol=1e-12 * max(1.0, res.symbol.coeff_norm()))
            if top is not None and top > -N - 1:
                top_ok = False
            per_ray = []
            for x0, xi0, tau0 in rays:
                vals = np.array([abs(res.defect.evaluate(x0, lam * xi0,
                                                         lam**2 * tau0))
                                 for lam in lams])
                per_ray.append(float(np.max(lams ** (N + 1) * vals)))
            sups[N] = per_ray
        table.add(f"no symbolic defect component above -N-1 {name}", passed=top_ok)
        finite = all(np.isfinite(v) for vals in sups.values() for v in vals)
        table.add(f"ray sups finite {name}", passed=finite)
        monotone = all(sups[N + 1][r] <= sups[N][r] or sups[N][r] == 0.0
                       for N in range(2, 5) for r in range(len(rays)))
        table.add(f"ray sups non-increasing in N {name}", passed=monotone)
    return table


def _random_diff_op(rng, dim, max_freq=3):
    """Differential operator as [(coeff, alpha)] with dyadic trig coefficients."""
    terms = []
    alphas = [a for a in _cartesian(*([range(3)] * dim)) if sum(a) <= 2]
    for alpha in alphas:
        amp = {}
        for _ in range(2):
            k = tuple(int(rng.integers(-max_freq, max_freq + 1)) for _ in range(dim))
            c = complex(int(rng.integers(-8, 9)), int(rng.integers(-8, 9))) / 8.0
            mk = tuple(-f for f in k)
            amp[k] = amp.get(k, 0.0) + c / 2.0
            amp[mk] = amp.get(mk, 0.0) + np.conj(c) / 2.0
        coeff = CoefficientField(dim, amp)
        if not coeff.is_zero():
            terms.append((coeff, alpha))
    return terms


def _compose_diff_ops(op1, op2, dim):
    """Leibniz composition of [(coeff, alpha)] lists; independent of # machinery."""
    out = []
    for a_coeff, alpha in op1:
        for b_coeff, beta in op2:
            for gamma in _cartesian(*[range(a + 1) for a in alpha]):
                comb = math.prod(math.comb(a, g) for a, g in zip(alpha, gamma))
                db = b_coeff
                for axis, count in enumerate(tuple(a - g for a, g in zip(alpha, gamma))):
                    for _ in range(count):
                        db = db.deriv(axis)
                if db.is_zero():
                    continue
                new_alpha = tuple(g + b for g, b in zip(gamma, beta))
                out.append((db * a_coeff.scale(comb), new_alpha))
    return out


def _diff_op_symbol(terms, form):
    """Left symbol: sum c_alpha(x) (i xi)^alpha, as lpow = 0 canonical terms."""
    tmap = {}
    for coeff, alpha in terms:
        key, scaled = (alpha, 0), coeff.scale(1j ** sum(alpha))
        tmap[key] = tmap[key] + scaled if key in tmap else scaled
    return ParabolicSymbol(form, tmap)


def criterion_8(corpus, rng):
    """Composition: # product equals composed-operator symbol coefficient-exactly."""
    table = ReportTable("criterion 8: composition oracle")
    worst = 0.0
    for pair in range(20):
        dim = 1 if pair < 14 else 2
        form = QuadraticForm.flat(dim)
        t1 = _random_diff_op(rng, dim)
        t2 = _random_diff_op(rng, dim)
        s1 = _diff_op_symbol(t1, form)
        s2 = _diff_op_symbol(t2, form)
        sharp = sharp_product(s1, s2, 8)
        direct = _diff_op_symbol(_compose_diff_ops(t1, t2, dim), form)
        worst = max(worst, (sharp - direct).coeff_norm())
    table.add("20 random pairs, exact coefficient equality", numeric=worst,
              error=worst, tolerance=0.0)
    return table


def criterion_9(corpus, rng):
    """Dilation identities, strict-homogeneity defect, two-term decay rate."""
    table = ReportTable("criterion 9: homogeneity")
    worst = 0.0
    for name, op in corpus.items():
        q = parametrix(operator_symbol(op), 3).symbol
        d = op.dim
        for _ in range(20):
            x = rng.uniform(0, 2 * np.pi, d)
            x = x if d > 1 else float(x[0])
            xi = rng.standard_normal(d) * 1.3
            tau = complex(rng.standard_normal(), -abs(rng.standard_normal()) - 0.3)
            for lam in (0.5, 2.0, 1.7):
                a = q.dilate(lam).evaluate(x, xi, tau)
                b = q.evaluate(x, lam * xi, lam**2 * tau)
                worst = max(worst, abs(a - b) / max(abs(b), 1e-30))
    table.add("dilation identity, 20 points x 3 scales per operator",
              numeric=worst, error=worst, tolerance=1e-10)

    drift = corpus["drift_shift"]
    res = parametrix(operator_symbol(drift), 2)
    k2 = CausalKernel.from_symbol(res.symbol.graded_piece(-2))
    k3 = CausalKernel.from_symbol(res.symbol.graded_piece(-3))
    two_term = ScaledFamily(k2 + k3, order=-2)
    strict = ScaledFamily(k2, order=-2)
    zg = np.array([[-2.0], [-0.7], [0.6], [1.9]])
    tg = np.array([0.25, 0.8, 1.7])
    hom_worst = 0.0
    for lam in (1.0, 2.0, 4.0, 8.0, 16.0):
        _, sup = homogeneity_defect(strict, lam, 0.4, zg, tg, reference="self")
        hom_worst = max(hom_worst, sup)
    table.add("strictly homogeneous defect (incl. lam = 1)", numeric=hom_worst,
              error=hom_worst, tolerance=1e-12)
    sups = [homogeneity_defect(two_term, lam, 0.4, zg, tg, reference="model")[1]
            for lam in (2.0, 4.0, 8.0, 16.0)]
    ratios = [b / a for a, b in zip(sups, sups[1:])]
    ok = all(0.4 <= r <= 0.6 for r in ratios)
    table.add("two-term parametrix decay ratio in [0.4, 0.6]",
              numeric="; ".join(f"{r:.3f}" for r in ratios), passed=ok)
    return table


def criterion_10(corpus, rng):
    table = ReportTable("criterion 10: measure scaling")
    worst = 0.0
    for lam in (0.5, 1.0, 2.0, 3.0):
        for d in (1, 2):
            got = measure_scaling_check(lam, d)
            worst = max(worst, abs(got - lam ** (d + 2)))
    table.add("jacobian = lam^(d+2) exactly, lam in {1/2,1,2,3}, d in {1,2}",
              numeric=worst, error=worst, tolerance=0.0)
    return table


def criterion_11(corpus, rng):
    table = ReportTable("criterion 11: causal extension index")
    bad = 0
    for m in range(-10, 5):
        for d in (1, 2, 3):
            j = min_extension_index(m, d)
            brute = 0
            while m + 2 * brute <= -(d + 2):
                brute += 1
            if j != brute or m + 2 * j <= -(d + 2) or (j > 0 and m + 2 * (j - 1) > -(d + 2)):
                bad += 1
    table.add("exhaustive table m in [-10, 4], d in {1, 2, 3}", numeric=bad,
              error=float(bad), tolerance=0.0)
    return table


CRITERIA = {
    1: ("flat heat coefficient", criterion_1),
    2: ("potential heat coefficient", criterion_2),
    3: ("log-term absence", criterion_3),
    4: ("semigroup oracle", criterion_4),
    5: ("bounded resolvent approximants", criterion_5),
    6: ("causality", criterion_6),
    7: ("parametrix defect order", criterion_7),
    8: ("composition oracle", criterion_8),
    9: ("homogeneity", criterion_9),
    10: ("measure scaling", criterion_10),
    11: ("causal extension index", criterion_11),
}


def criterion_summary(number, table):
    status = "PASS" if table.all_passed else "FAIL"
    return f"{status} criterion {number}: {CRITERIA[number][0]}"


def run_acceptance(corpus_directory=None, seed=2026, numbers=None):
    """Run every acceptance criterion; returns (full table, summary lines)."""
    corpus = load_corpus(corpus_directory)
    numbers = sorted(numbers or CRITERIA)
    full = ReportTable("acceptance suite")
    lines = []
    for num in numbers:
        rng = np.random.default_rng(seed + num)
        table = CRITERIA[num][1](corpus, rng)
        full.extend(table)
        lines.append(criterion_summary(num, table))
    return full, lines
