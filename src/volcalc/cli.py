"""Command-line front end.

Subcommands: parametrix, heat-coeffs, semigroup, causality, deform,
validate.  Human-readable tables go to stdout; --out writes deterministic
JSON (or CSV when the path ends in .csv).  Exit codes: 0 all checks pass,
1 a tolerance failed, 2 input or usage errors.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

import numpy as np

from .deform import (
    ScaledFamily,
    homogeneity_defect,
    measure_scaling_check,
    rescale_symbol,
)
from .heatexp import _heat_coefficients, _projection_certificate
from .report import ReportTable
from .semigroup import (
    CONTOUR_TOL,
    CONTOUR_VERTEX,
    discretize,
    dunford_heat,
    hy_heat,
    matrix_heat_reference,
    resolvent_bound_check,
)
from .specfile import load_operator_spec
from .symcore import DomainError
from .validate import (APPROXIMANT_LAMS, APPROXIMANT_TOL, CAUSALITY_TOL, CONTRACTION_TOL,
                       CRITERIA, HOMOGENEITY_TOL, SEED, add_contour_node_rows,
                       add_fit_diagnostics, defect_top_degree, run_acceptance, window_fit)
from .volterra import (
    CausalKernel,
    CausalityGrid,
    causality_check,
    operator_symbol,
    parametrix,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def _write(table: ReportTable, out_path):
    """Write --out; an unwritable path is an input error, not a failed check."""
    try:
        table.write(out_path)
    except OSError as exc:
        raise DomainError(f"cannot write {out_path}: {exc.strerror or exc}")
    print(f"wrote {out_path}")


def _emit(table: ReportTable, out_path):
    print(table.format_text())
    if out_path:
        _write(table, out_path)
    return EXIT_OK if table.all_passed else EXIT_CHECK_FAILED


def _symbol_summary(table, label, q):
    for s in q.degrees():
        terms = list(q.graded_piece(s).term_map().items())
        desc = "; ".join(f"beta={beta} lpow={lpow} |c|={c.norm_inf():.4g}"
                         for (beta, lpow), c in terms[:4])
        if len(terms) > 4:
            desc += f"; ... ({len(terms)} terms)"
        table.add(f"{label} degree {s}", symbolic=desc, passed=True)


def cmd_parametrix(args):
    op = load_operator_spec(args.op)
    res = parametrix(operator_symbol(op), args.depth)
    table = ReportTable(f"parametrix of d/dt + {op.name}, depth {args.depth}")
    _symbol_summary(table, "q", res.symbol)
    top = defect_top_degree(res)
    table.add("defect top degree", symbolic="none" if top is None else top,
              numeric=float(top) if top is not None else None,
              error=(top if top is not None else -args.depth - 1),
              tolerance=-args.depth - 1)
    return _emit(table, args.out)


def cmd_heat_coeffs(args):
    op = load_operator_spec(args.op)
    he, samples = _heat_coefficients(op, args.J)
    table = ReportTable(f"diagonal heat coefficients of {op.name}")
    for entry in he.entries:
        amps = entry.value.amplitudes
        shown = sorted(amps.items())[:6]
        desc = " + ".join(f"({c.real:.6g}{c.imag:+.2g}i)e^(i<{k},x>)" for k, c in shown)
        table.add(f"q_{entry.j} (t^{entry.exponent:+.1f})",
                  symbolic=desc if desc else "0", passed=True)
    table.add("log coefficient (structural)", symbolic="0", passed=True)
    if samples:  # variable metric: q_j were projected from a grid
        for label, value in _projection_certificate(he, samples):
            table.add(label, numeric=value, passed=True)
    if args.validate:
        # only j <= 2 is identifiable at the fit window
        fit = window_fit(op)
        xs = fit.x_grid
        for entry in he.entries:
            if entry.j > 2:
                continue
            sym = np.array([entry.value.evaluate(x) for x in xs]).real
            got = fit.coefficients[:, entry.j]
            err = float(np.max(np.abs(got - sym)))
            tol = max(1e-2, 0.02 * float(np.max(np.abs(sym))))
            table.add(f"fit check q_{entry.j}", symbolic=float(np.max(np.abs(sym))),
                      numeric=float(np.max(np.abs(got))), error=err, tolerance=tol)
        add_fit_diagnostics(table, fit)
    return _emit(table, args.out)


def cmd_semigroup(args):
    op = load_operator_spec(args.op)
    ts = args.t
    table = ReportTable(f"semigroup checks for {op.name} (n={args.modes})")
    if args.check in ("semigroup", "contraction", "reference"):
        add_contour_node_rows(table, ts)  # refuses a time the contour cannot resolve
    disc = discretize(op, args.modes)
    if args.check == "semigroup":
        if len(ts) != 3 or abs(ts[0] + ts[1] - ts[2]) > 1e-12:
            raise DomainError("--check semigroup needs t1 t2 t3 with t1 + t2 = t3")
        E = {t: dunford_heat(disc, t) for t in ts}
        err = float(np.linalg.norm(E[ts[0]] @ E[ts[1]] - E[ts[2]], 2))
        table.add(f"||E({ts[0]})E({ts[1]}) - E({ts[2]})||_2", numeric=err,
                  error=err, tolerance=CONTOUR_TOL)
    elif args.check == "contraction":
        disc.require_nonnegative()
        for t in ts:
            nrm = float(np.linalg.norm(dunford_heat(disc, t), 2))
            table.add(f"||E({t})||_2", numeric=nrm, error=nrm - 1.0,
                      tolerance=CONTRACTION_TOL)
    elif args.check == "hy":
        ref = matrix_heat_reference(disc, 1.0)
        errs = [float(np.linalg.norm(hy_heat(disc, lam, 1.0) - ref, 2))
                for lam in APPROXIMANT_LAMS]
        table.add("approximant errors over lam = 10..1e4",
                  numeric="; ".join(f"{e:.3e}" for e in errs),
                  passed=all(b < a for a, b in zip(errs, errs[1:])))
        table.add("approximant error at lam = 1e4", numeric=errs[-1],
                  error=errs[-1], tolerance=APPROXIMANT_TOL)
    elif args.check == "resolvent":
        s = np.linspace(0.3, 30.0, 25)
        samples = CONTOUR_VERTEX + np.concatenate([s * (1 + 1j), s * (1 - 1j)])
        c = resolvent_bound_check(disc, samples)
        table.add("max ||(Q - lam)^-1|| (1 + |Im lam|) on the contour",
                  numeric=c, passed=np.isfinite(c))
    else:
        for t in ts:
            E = dunford_heat(disc, t)
            err = float(np.linalg.norm(E - matrix_heat_reference(disc, t), 2))
            table.add(f"dunford vs reference, t={t}", numeric=err, error=err,
                      tolerance=CONTOUR_TOL)
    return _emit(table, args.out)


def cmd_causality(args):
    op = load_operator_spec(args.op)
    grid = CausalityGrid()
    if args.grid:
        try:
            n_tau, tau_max = args.grid.split(",")
            n_tau, tau_max = int(n_tau), float(tau_max)
        except ValueError:
            raise DomainError(f"bad --grid {args.grid!r}; expected NTAU,TAUMAX")
        grid = CausalityGrid(n_tau=n_tau, tau_max=tau_max)  # its own DomainError says why
    res = parametrix(operator_symbol(op), args.depth)
    table = ReportTable(f"causality of the {op.name} parametrix, depth {args.depth}")
    for s in res.symbol.degrees():
        ratio = causality_check(res.symbol.graded_piece(s), grid=grid)
        table.add(f"piece degree {s}", numeric=ratio, error=ratio, tolerance=CAUSALITY_TOL)
    ratio = causality_check(res.symbol, grid=grid)
    table.add("full parametrix symbol", numeric=ratio, error=ratio, tolerance=CAUSALITY_TOL)
    return _emit(table, args.out)


def cmd_deform(args):
    op = load_operator_spec(args.op)
    res = parametrix(operator_symbol(op), 2)
    table = ReportTable(f"parabolic rescaling family of {op.name}")
    for lam in args.lam:
        got = measure_scaling_check(lam, op.dim)
        expect = Fraction(lam) ** (op.dim + 2)
        table.add(f"measure scaling lam={lam}", symbolic=float(expect), numeric=float(got),
                  error=float(abs(got - expect)), tolerance=0.0)
    k2 = CausalKernel.from_symbol(res.symbol.graded_piece(-2))
    strict = ScaledFamily(k2, order=-2)
    zg = np.array([[-1.5], [0.5], [1.2]]) if op.dim == 1 else \
        np.array([[-1.5, 0.3], [0.5, -0.9]])
    tg = np.array([0.3, 1.1])
    x0 = 0.7 if op.dim == 1 else (0.7, 1.9)
    for lam in args.lam:
        _, sup = homogeneity_defect(strict, lam, x0, zg, tg, reference="self")
        table.add(f"principal-piece homogeneity defect lam={lam}", numeric=sup,
                  error=sup, tolerance=HOMOGENEITY_TOL)
    p = operator_symbol(op)
    for hbar in args.hbar:
        sym = rescale_symbol(p, hbar)
        if hbar > 0:
            x = 0.3 if op.dim == 1 else (0.3, 1.1)
            xi = [0.8] * op.dim
            tau = -1.1 - 0.4j
            a = sym.evaluate(x, xi, tau)
            b = p.evaluate(x, hbar * np.asarray(xi), hbar**2 * tau)
            table.add(f"rescaled symbol identity hbar={hbar}",
                      numeric=abs(a - b), error=abs(a - b), tolerance=1e-12)
        else:
            table.add("hbar=0 member is the principal piece",
                      passed=sym.allclose(p.principal_part()))
    return _emit(table, args.out)


def cmd_validate(args):
    table, lines = run_acceptance(corpus_directory=args.corpus, seed=args.seed,
                                  numbers=args.only)
    print(table.format_text())
    print()
    for line in lines:
        print(line)
    if args.out:
        _write(table, args.out)
    return EXIT_OK if table.all_passed else EXIT_CHECK_FAILED


def build_parser():
    ap = argparse.ArgumentParser(
        prog="volcalc",
        description="Causal parabolic symbol calculus and heat-kernel "
                    "expansion engine on the flat torus")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parametrix", help="build the causal parametrix of d/dt + A")
    p.add_argument("--op", required=True, help="operator spec JSON file")
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_parametrix)

    p = sub.add_parser("heat-coeffs", help="diagonal short-time heat coefficients")
    p.add_argument("--op", required=True)
    p.add_argument("--J", type=int, default=4)
    p.add_argument("--validate", action="store_true",
                   help="cross-check against the spectral fit")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_heat_coeffs)

    p = sub.add_parser("semigroup", help="contour-integral heat semigroup checks")
    p.add_argument("--op", required=True)
    p.add_argument("--modes", type=int, default=16)
    p.add_argument("--t", type=float, nargs="+", default=[0.3, 0.7, 1.0])
    p.add_argument("--check", default="reference",
                   choices=["semigroup", "contraction", "hy", "resolvent",
                            "reference"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_semigroup)

    p = sub.add_parser("causality", help="FFT support check of parametrix pieces")
    p.add_argument("--op", required=True)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--grid", default=None, help="NTAU,TAUMAX")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_causality)

    p = sub.add_parser("deform", help="parabolic rescaling family checks")
    p.add_argument("--op", required=True)
    p.add_argument("--lambda", dest="lam", type=float, nargs="+",
                   default=[0.5, 2.0, 4.0])
    p.add_argument("--hbar", type=float, nargs="+", default=[1.0, 0.5, 0.0])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_deform)

    p = sub.add_parser("validate", help="run the full acceptance suite")
    p.add_argument("--corpus", default=None, help="directory of operator specs")
    p.add_argument("--seed", type=int, default=SEED)
    p.add_argument("--only", type=int, nargs="+", default=None,
                   choices=sorted(CRITERIA))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_validate)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
