"""The benchmark's workloads: fixed job lists built from a seed, with checks.

A round is the workload's fixed job list.  Each job is one call sequence
into volcalc's public API (the calls the CLI subcommands make); its output
is checked afterwards, outside the timed region, against refs.py or against
properties the method must have.  Jobs look volcalc functions up at call
time (`vc.name`), so the tracer's wrappers take effect.

Reference values are computed on first use, in a check (`functools.cache`
on a thunk), so that building a job list costs only input generation and
volcalc's own preparation: that is what set-up time measures.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

import volcalc as vc

import gen
import refs

RAY_SCALES = (1.0, 2.0, 4.0, 8.0, 16.0)
# p # q - 1 for a depth-N parametrix has graded pieces of degree -N-1 and
# -N-2 only (p is a differential symbol of degrees 2, 1, 0), so along a
# parabolic ray lam^(N+1) (p # q - 1) is exactly affine in 1/lam.  A fit
# residual above this share of its size means a piece of another degree.
AFFINE_RESIDUAL = 1e-3
CAUSAL_GRID = dict(n_tau=16384, tau_max=200.0)


class Checker:
    """Collects named expectations; a failed one marks the job as failed."""

    def __init__(self):
        self.evaluated = set()
        self.failures = []

    def expect(self, name, ok, detail=""):
        self.evaluated.add(name)
        if not ok:
            self.failures.append(f"{name}: {detail}")


@dataclass
class Job:
    kind: str
    label: str
    call: object            # () -> output, the timed part
    check: object           # (Checker, output, done) -> None
    # () -> [(name, output -> wrong output)], the self-check's wrong answers;
    # built on demand, since some apply only where a reference value says so
    plants: object


def _pt(x, dim):
    return float(x[0]) if dim == 1 else tuple(float(v) for v in x)


def _load(docs, stats):
    """Load every spec document through volcalc; time it as specfile.load_s."""
    t0 = time.perf_counter()
    ops = {name: vc.load_operator_spec(doc) for name, doc in docs.items()}
    stats["load_s"] = stats.get("load_s", 0.0) + time.perf_counter() - t0
    return ops


def _remainder_order(ck, name, values, N):
    lam = np.array(RAY_SCALES)
    f = lam ** (N + 1) * np.asarray(values, dtype=complex)
    A = np.stack([np.ones_like(lam), 1.0 / lam], axis=1).astype(complex)
    coef = np.linalg.lstsq(A, f, rcond=None)[0]
    resid = float(np.max(np.abs(A @ coef - f)))
    size = float(np.max(np.abs(f)))
    ck.expect(name, np.isfinite(size) and resid <= AFFINE_RESIDUAL * size,
              f"lam^(N+1) r off affine in 1/lam by {resid:.2e} of {size:.2e}")


# ---------------------------------------------------------------------------
# symbol_build: parametrices and # products
# ---------------------------------------------------------------------------


def _parametrix_job(doc, op, N, rays):
    p = vc.operator_symbol(op)

    def check(ck, res, done):
        degs = res.symbol.degrees()
        ck.expect("parametrix.degrees", degs and degs[0] == -2 and degs[-1] >= -2 - N,
                  f"degrees {degs}")
        top = res.defect.top_degree()
        ck.expect("parametrix.defect_order", top is None or top <= -N - 1,
                  f"defect top degree {top}")
        terms = {k: c.amplitudes for k, c in res.symbol.term_map().items()}
        defect = refs.sharp_defect(doc, terms)
        for x0, xi0, tau0 in rays:
            vals = [defect(x0, lam * xi0, lam ** 2 * tau0) for lam in RAY_SCALES]
            _remainder_order(ck, "parametrix.remainder_order", vals, N)

    def plant(res):
        wrong = res.symbol + vc.lambda_power(p.form, -2, scale=1e-3)
        return vc.ParametrixResult(wrong, res.defect)

    def extra_degree(res):
        return vc.ParametrixResult(res.symbol + 1e-3, res.defect)

    def defect_too_high(res):
        return vc.ParametrixResult(res.symbol,
                                   res.defect + vc.lambda_power(p.form, -1, scale=1e-3))

    return Job("parametrix", f"parametrix {doc['name']} N={N}",
               lambda: vc.parametrix(p, N), check,
               lambda: [("parametrix piece off by 1e-3 Lambda^-2", plant),
                        ("degree-0 term 1e-3 added", extra_degree),
                        ("defect with a degree -2 piece", defect_too_high)])


def _symbol_of(opmap, form):
    terms = {key: vc.CoefficientField(form.dim, amp)
             for key, amp in refs.operator_symbol_map(opmap).items()}
    return vc.ParabolicSymbol(form, terms)


def _sharp_job(rng, dim, i):
    op1, op2 = gen.diff_operator(rng, dim, 2 * i), gen.diff_operator(rng, dim, 2 * i + 1)
    form = vc.QuadraticForm.flat(dim)
    s1, s2 = _symbol_of(op1, form), _symbol_of(op2, form)
    expect = functools.cache(lambda: refs.operator_symbol_map(refs.compose(op1, op2)))

    def check(ck, out, done):
        got = {k: {f: c for f, c in v.amplitudes.items() if c != 0}
               for k, v in out.term_map().items()}
        got = {k: v for k, v in got.items() if v}
        ck.expect("sharp.exact", got == expect(),
                  "# product differs from the Leibniz composition")

    def plant(out):
        tm = out.term_map()
        key = sorted(tm)[0]
        amp = tm[key].amplitudes
        f = sorted(amp)[0]
        amp[f] += 1.0 / 16.0
        tm[key] = vc.CoefficientField(dim, amp)
        return vc.ParabolicSymbol(out.form, tm, order=out.order)

    return Job("sharp", f"sharp {dim}d #{i}", lambda: vc.sharp_product(s1, s2, 8), check,
               lambda: [("one coefficient changed by 1/16", plant)])


def symbol_build(rng, stats, small=False):
    plan = [("var1d", (4,))] if small else [
        ("var1d", (4, 5, 6, 7, 8)), ("const2d", (4, 5, 6, 7)), ("var2d", (3, 4))]
    docs = {f"{fam}_{i}": gen.operator_doc(rng, fam, f"{fam}_{i}")
            for i, (fam, _) in enumerate(plan)}
    ops = _load(docs, stats)
    jobs = []
    for (name, doc), (_, depths) in zip(docs.items(), plan):
        for N in depths:
            rays = gen.parabolic_rays(rng, doc["dim"], 4)
            jobs.append(_parametrix_job(doc, ops[name], N, rays))
    pairs = [(1, 1)] if small else [(1, 12), (2, 12)]
    for dim, count in pairs:
        for i in range(count):
            jobs.append(_sharp_job(rng, dim, i))
    return jobs


# ---------------------------------------------------------------------------
# symbol_eval: heat coefficients, causality, defect rays, homogeneity
# ---------------------------------------------------------------------------


def _heat_job(doc, op, J):
    d = doc["dim"]
    flat = all(e["freq"] == [0] * d and e["re"] == (1.0 if e["i"] == e["j"] else 0.0)
               for e in doc["g"]) and not any(doc["b"])

    @functools.cache
    def reference():
        pts = refs.grid_points(d, 7)
        return pts, refs.q0_closed_form(doc, pts), refs.trig_values(refs.doc_fields(doc)[2], pts)

    def check(ck, he, done):
        js = [e.j for e in he.entries]
        ck.expect("heat.indices", js == list(range(J + 1)), f"indices {js}")
        if js != list(range(J + 1)):
            return
        pts, q0_ref, V = reference()
        q0 = refs.trig_values(he.coefficient(0).amplitudes, pts)
        err = np.max(np.abs(q0 - q0_ref)) / np.max(np.abs(q0_ref))
        ck.expect("heat.q0_closed_form", err <= 1e-9, f"relative error {err:.2e}")
        for j in range(1, J + 1, 2):
            odd = max(map(abs, he.coefficient(j).amplitudes.values()), default=0.0)
            ck.expect("heat.odd_vanish", odd <= 1e-13 * np.max(q0_ref), f"|q_{j}| = {odd:.2e}")
        if flat and J >= 2:
            q2 = refs.trig_values(he.coefficient(2).amplitudes, pts)
            err = np.max(np.abs(q2 + (4.0 * np.pi) ** (-d / 2.0) * V))
            ck.expect("heat.q2_potential", err <= 1e-12 * max(1.0, np.max(np.abs(V))),
                      f"error {err:.2e}")

    def scale_q0(he):
        entries = list(he.entries)
        e0 = entries[0]
        entries[0] = vc.HeatCoefficient(e0.j, e0.exponent, e0.value.scale(1.0 + 1e-6))
        return vc.HeatExpansion(he.dim, entries, he.log_coefficient, he.name)

    def shift_entry(j, amount):
        def plant(he):
            entries = list(he.entries)
            e = entries[j]
            bump = vc.CoefficientField.constant(he.dim, amount)
            entries[j] = vc.HeatCoefficient(e.j, e.exponent, e.value + bump)
            return vc.HeatExpansion(he.dim, entries, he.log_coefficient, he.name)
        return plant

    def last_index_skipped(he):
        entries = list(he.entries)
        e = entries[-1]
        entries[-1] = vc.HeatCoefficient(e.j + 1, e.exponent, e.value)
        return vc.HeatExpansion(he.dim, entries, he.log_coefficient, he.name)

    def plants():
        out = [("q_0 scaled by 1 + 1e-6", scale_q0), ("last index skipped", last_index_skipped)]
        if J >= 1:
            out.append(("q_1 = 1e-10", shift_entry(1, 1e-10)))
        if flat and J >= 2:
            out.append(("q_2 shifted by 1e-9", shift_entry(2, 1e-9)))
        return out

    return Job("heat_coefficients", f"heat {doc['name']} J={J}",
               lambda: vc.heat_coefficients(op, J), check, plants)


def _causality_jobs(name, q):
    # Partial sums of degree >= s, not single graded pieces: a piece can vanish
    # at one of causality_check's sample points up to rounding, and the check
    # then divides rounding noise by rounding noise (see CHANGES.md).  Every
    # partial sum holds the degree -2 piece, which vanishes nowhere.
    grid = vc.CausalityGrid(**CAUSAL_GRID)

    def check(ck, ratio, done):
        ck.expect("causality.ratio", ratio <= 1e-5, f"ratio {ratio:.2e}")

    def plants():
        return [("ratio 2e-5", lambda r: 2e-5)]

    return [Job("causality", f"causality {name} degrees >= {s}",
                (lambda part=q.truncate_below(s): vc.causality_check(part, grid=grid)),
                check, plants)
            for s in q.degrees()]


def _control_job(dim):
    grid = vc.CausalityGrid(**CAUSAL_GRID)
    form = vc.QuadraticForm.flat(dim)

    def check(ck, ratio, done):
        ck.expect("causality.control", ratio >= 0.5, f"control ratio {ratio:.3f}")

    return Job("causality", f"anti-causal control {dim}d",
               lambda: vc.causality_check(vc.anticausal_control(form), grid=grid, dim=dim),
               check, lambda: [("control ratio 0.4", lambda r: 0.4)])


def _defect_job(doc, res, N, ray, label):
    d = doc["dim"]
    x0, xi0, tau0 = ray
    x = _pt(x0, d)

    @functools.cache
    def expect():
        terms = {k: c.amplitudes for k, c in res.symbol.term_map().items()}
        mine = refs.sharp_defect(doc, terms)
        return [mine(x0, lam * xi0, lam ** 2 * tau0) for lam in RAY_SCALES]

    def call():
        return [res.defect.evaluate(x, lam * xi0, lam ** 2 * tau0) for lam in RAY_SCALES]

    def check(ck, vals, done):
        err = max(abs(a - b) / (1e-6 * max(abs(a), abs(b)) + 1e-13)
                  for a, b in zip(vals, expect()))
        ck.expect("defect.values", err <= 1.0, f"error {err:.2f} x tolerance")
        _remainder_order(ck, "defect.order", vals, N)

    return Job("defect_rays", label, call, check,
               lambda: [("values scaled by 1 + 1e-5", lambda v: [c * (1 + 1e-5) for c in v]),
                        ("remainder one order higher",
                         lambda v: [c * lam for c, lam in zip(v, RAY_SCALES)])])


def _homogeneity_job(name, q, d, rng):
    family = vc.ScaledFamily(vc.CausalKernel.from_symbol(q.graded_piece(-2)), order=-2)
    zg = rng.uniform(-2.0, 2.0, (4, d))
    tg = np.sort(rng.uniform(0.2, 1.8, 3))
    x = _pt(rng.uniform(0.0, 2.0 * np.pi, d), d)

    def call():
        return [vc.homogeneity_defect(family, lam, x, zg, tg, reference="self")[1]
                for lam in (1.0, 2.0, 4.0, 8.0, 16.0)]

    def check(ck, sups, done):
        ck.expect("homogeneity.strict", max(sups) <= 1e-12, f"defect {max(sups):.2e}")

    return Job("homogeneity", f"homogeneity {name}", call, check,
               lambda: [("defect 1e-11", lambda s: [1e-11] + s[1:])])


def symbol_eval(rng, stats, small=False):
    # Eight 1-D variable-metric jobs of like cost make up the top decile
    # below the 2-D one, so job_p90_s is a median over many samples.
    heat_plan = [("metric1d", 2), ("flat1d", 2)] if small else [
        ("var2d", 0)] + [("var1d", 2), ("metric1d", 2)] * 4 + [
        ("metric1d", 0), ("const2d", 4), ("const2d", 2), ("herm2d", 4), ("herm2d", 2),
        ("flat1d", 4), ("flat1d", 2), ("flat2d", 4), ("flat2d", 2)]
    sym_plan = [("var1d", 2)] if small else [("var1d", 4), ("const2d", 4), ("metric1d", 3)]
    docs = {f"{fam}_h{i}": gen.operator_doc(rng, fam, f"{fam}_h{i}")
            for i, (fam, _) in enumerate(heat_plan)}
    docs.update({f"{fam}_s{i}": gen.operator_doc(rng, fam, f"{fam}_s{i}")
                 for i, (fam, _) in enumerate(sym_plan)})
    ops = _load(docs, stats)
    jobs = [_heat_job(docs[f"{fam}_h{i}"], ops[f"{fam}_h{i}"], J)
            for i, (fam, J) in enumerate(heat_plan)]
    for i, (fam, N) in enumerate(sym_plan):
        name = f"{fam}_s{i}"
        doc = docs[name]
        res = vc.parametrix(vc.operator_symbol(ops[name]), N)
        pieces = _causality_jobs(name, res.symbol)
        jobs += pieces[:1] if small else pieces
        for r, ray in enumerate(gen.parabolic_rays(rng, doc["dim"], 1 if small else 3)):
            jobs.append(_defect_job(doc, res, N, ray, f"defect {name} ray {r}"))
        jobs.append(_homogeneity_job(name, res.symbol, doc["dim"], rng))
    jobs += [_control_job(1)] if small else [_control_job(1), _control_job(2)]
    return jobs


# ---------------------------------------------------------------------------
# oracle: Galerkin matrices, contour heat, ladders, fits, approximants
# ---------------------------------------------------------------------------


def _quad(t):
    # the criterion-4 quadrature: 420 nodes per ray, refined panels
    return vc.ContourQuadrature(nodes_per_ray=420, s_max=max(40.0, 40.0 / t), refine=2)


def _norm(A):
    return float(np.linalg.norm(A, 2))


def _discretize_job(name, op, n, ref):
    """ref() is the benchmark's own Galerkin matrix."""
    def check(ck, disc, done):
        M = ref()
        ck.expect("discretize.size", disc.size == len(M), f"size {disc.size}")
        err = float(np.max(np.abs(disc.matrix - M))) if disc.size == len(M) else np.inf
        ck.expect("discretize.matrix", err <= 1e-12 * max(1.0, np.max(np.abs(M))),
                  f"max entry error {err:.2e}")

    def plant(disc):
        A = disc.matrix.copy()
        A[0, -1] += 1e-9
        return vc.DiscretizedOperator(disc.n, disc.dim, disc.freqs, disc.is_hermitian,
                                      disc.min_sym_eig, _matrix=A, name=disc.name)

    return Job("discretize", f"discretize {name} n={n}",
               lambda: vc.discretize(op, n), check,
               lambda: [("one entry off by 1e-9", plant),
                        ("mode cutoff one lower", lambda disc: vc.discretize(op, n - 1))])


def _contour_job(name, disc, ref, t, semigroup_of=None):
    """exp(-t disc) by the contour; semigroup_of names the jobs for t1, t2 = t - t1."""
    nonneg = functools.cache(lambda: refs.min_hermitian_eig(ref()) >= -1e-12)
    expect = functools.cache(lambda: refs.heat_matrix(ref(), t))

    def check(ck, E, done):
        err = _norm(E - expect())
        ck.expect("contour.reference", err <= 1e-8, f"||E - exp(-tM)|| = {err:.2e}")
        if nonneg():
            ck.expect("contour.contraction", _norm(E) <= 1.0 + 1e-10,
                      f"||E|| - 1 = {_norm(E) - 1.0:.2e}")
        if semigroup_of:
            a, b = (done[label] for label in semigroup_of)
            err = _norm(a @ b - E)
            ck.expect("contour.semigroup", err <= 1e-8, f"semigroup defect {err:.2e}")

    def plants():
        out = [("contour result at t + 1e-3",
                lambda E: vc.dunford_heat(disc, t + 1e-3, _quad(t + 1e-3)))]
        if nonneg():
            out.append(("norm raised to 1 + 1e-9", lambda E: E * (1.0 + 1e-9) / _norm(E)))
        if semigroup_of:
            out.append(("every entry shifted by 1e-7", lambda E: E + 1e-7))
        return out

    return Job("contour", f"contour {name} n={disc.n} t={t}",
               lambda: vc.dunford_heat(disc, t, _quad(t)), check, plants)


def _ladder_job(name, op, J):
    def check(ck, out, done):
        est = out[0]
        worst = float(np.max(np.abs(est)))
        ck.expect("ladder.bound", np.isfinite(worst) and worst <= 1e-3,
                  f"|log coefficient| {worst:.2e}")

    return Job("log_ladder", f"log ladder {name} J={J}",
               lambda: vc.log_coefficient_estimate(op, J, n_x=16), check,
               lambda: [("log coefficient 2e-3", lambda out: (out[0] + 2e-3, out[1]))])


FIT_TIMES = np.geomspace(0.005, 0.05, 16)
# a fixed mode cutoff keeps the fit's cost independent of the drawn metric
# (resolution_cutoff would scale it with the metric's minimum eigenvalue)
FIT_MODES = 72


def _fit_job(name, doc, op):
    def check(ck, fit, done):
        q0 = refs.q0_closed_form(doc, fit.x_grid)
        err = float(np.max(np.abs(fit.coefficients[:, 0] - q0) / q0))
        ck.expect("fit.c0", err <= 1e-3, f"relative error {err:.2e}")

    def plant(fit):
        coef = fit.coefficients.copy()
        coef[:, 0] *= 1.01
        return vc.FitResult(fit.x_grid, fit.exponents, coef, fit.log_coefficient,
                            fit.residual, fit.condition)

    return Job("fit", f"fit {name}",
               lambda: vc.fit_diagonal_expansion(op, FIT_TIMES, 4, n=FIT_MODES, n_x=16), check,
               lambda: [("c_0 scaled by 1.01", plant)])


HY_LAMS = (10.0, 1e2, 1e3, 1e4)


def _approximant_job(name, disc, ref):
    nonneg = functools.cache(lambda: refs.min_hermitian_eig(ref()) >= -1e-12)
    heat = functools.cache(lambda: refs.heat_matrix(ref(), 1.0))
    mine = functools.cache(lambda: [refs.approximant_heat(ref(), lam, 1.0) for lam in HY_LAMS])

    def call():
        return (vc.matrix_heat_reference(disc, 1.0),
                [vc.hy_heat(disc, lam, 1.0) for lam in HY_LAMS])

    def check(ck, out, done):
        R, Hs = out
        ck.expect("approximant.reference", _norm(R - heat()) <= 1e-8, "reference heat differs")
        err = max(_norm(H - h) for H, h in zip(Hs, mine()))
        ck.expect("approximant.values", err <= 1e-8, f"error {err:.2e}")
        errs = [_norm(H - heat()) for H in Hs]
        ck.expect("approximant.convergence",
                  all(b < a for a, b in zip(errs, errs[1:])) and errs[-1] <= 1e-3,
                  f"errors {errs}")
        if nonneg():
            ck.expect("approximant.contraction", max(_norm(H) for H in Hs) <= 1.0 + 1e-10,
                      "approximant heat not contractive")

    def plants():
        out = [("approximant at the wrong lambda",
                lambda o: (o[0], [vc.hy_heat(disc, 2 * lam, 1.0) for lam in HY_LAMS])),
               ("reference at t = 1.001",
                lambda o: (vc.matrix_heat_reference(disc, 1.001), o[1])),
               ("approximants frozen at lambda = 10",
                lambda o: (o[0], [o[1][0]] * len(HY_LAMS)))]
        if nonneg():
            out.append(("approximant norm raised to 1 + 1e-9",
                        lambda o: (o[0], [H * (1 + 1e-9) / _norm(H) for H in o[1]])))
        return out

    return Job("approximants", f"approximants {name} n={disc.n}", call, check, plants)


def oracle(rng, stats, small=False):
    fams = ["flat1d", "drift1d", "var1d", "metric1d", "herm2d", "const2d", "var2d"]
    # non-Hermitian 1-D operators of like cost for the fits, which make up
    # the middle of the latency distribution (job_p50_s)
    fit_fams = ["flat1d"] if small else ["var1d", "metric1d", "drift1d"] * 3 + ["var1d"]
    docs = {fam: gen.operator_doc(rng, fam, fam) for fam in fams}
    docs.update({f"{fam}_fit{i}": gen.operator_doc(rng, fam, f"{fam}_fit{i}")
                 for i, fam in enumerate(fit_fams)})
    ops = _load(docs, stats)
    mats = {}

    def disc_of(fam, n):
        """volcalc's discretisation and a thunk for the benchmark's own matrix."""
        if (fam, n) not in mats:
            mats[(fam, n)] = (vc.discretize(ops[fam], n),
                              functools.cache(lambda: refs.galerkin_matrix(docs[fam], n)))
        return mats[(fam, n)]

    jobs = []
    disc_plan = [("var1d", 16)] if small else [
        ("flat1d", 16), ("drift1d", 16), ("var1d", 16), ("metric1d", 16),
        ("herm2d", 4), ("const2d", 4), ("var2d", 4), ("herm2d", 6), ("var2d", 6)]
    for fam, n in disc_plan:
        jobs.append(_discretize_job(fam, ops[fam], n, disc_of(fam, n)[1]))
    triple = (0.3, 0.7, 1.0)
    contour_plan = [("var1d", 16, (0.5,))] if small else [
        ("flat1d", 16, triple), ("drift1d", 16, triple), ("var1d", 16, triple),
        ("metric1d", 16, triple), ("flat1d", 32, (0.5,)), ("drift1d", 32, (0.5,)),
        ("herm2d", 4, (0.5,)), ("const2d", 4, (0.5,)), ("herm2d", 6, (0.3,))]
    for fam, n, times in contour_plan:
        disc, ref = disc_of(fam, n)
        labels = []
        for t in times:
            # the third time of a triple is the sum of the first two
            job = _contour_job(fam, disc, ref, t, tuple(labels) if len(labels) == 2 else None)
            labels.append(job.label)
            jobs.append(job)
    for fam, J in ([("flat1d", 0)] if small else [("flat1d", 2), ("drift1d", 2)]):
        jobs.append(_ladder_job(fam, ops[fam], J))
    for i, fam in enumerate(fit_fams):
        name = f"{fam}_fit{i}"
        jobs.append(_fit_job(name, docs[name], ops[name]))
    approx_plan = [("flat1d", 7)] if small else [
        ("flat1d", 7), ("drift1d", 7), ("var1d", 7), ("metric1d", 7), ("herm2d", 4),
        ("const2d", 4)]
    for fam, n in approx_plan:
        jobs.append(_approximant_job(fam, *disc_of(fam, n)))
    return jobs


BUILDERS = {"symbol_build": symbol_build, "symbol_eval": symbol_eval, "oracle": oracle}
