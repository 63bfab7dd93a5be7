"""Reference computations made apart from volcalc.

Everything here reads the generated spec documents (or plain amplitude
dicts returned by volcalc) and computes with numpy/scipy directly: no
volcalc function is called, so a fault in volcalc cannot hide in its own
reference.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.linalg


def trig_values(amplitudes, pts):
    """sum_k c_k exp(i<k, x>) at points pts of shape (m, d); amplitudes {k: c}."""
    pts = np.asarray(pts, dtype=float)
    if not amplitudes:
        return np.zeros(pts.shape[0], dtype=complex)
    ks = np.array([list(k) for k in amplitudes], dtype=float)
    cs = np.array(list(amplitudes.values()), dtype=complex)
    return np.exp(1j * pts @ ks.T) @ cs


def entry_amplitudes(entries):
    out = {}
    for e in entries:
        k = tuple(int(f) for f in e["freq"])
        out[k] = out.get(k, 0) + complex(e.get("re", 0.0), e.get("im", 0.0))
    return out


def doc_fields(doc):
    """(metric {(i, j): amps} mirrored, drift [amps], potential amps)."""
    d = doc["dim"]
    slots = {}
    for e in doc["g"]:
        slots.setdefault((e["i"], e["j"]), []).append(e)
    metric = {}
    for i in range(d):
        for j in range(d):
            ent = slots.get((i, j)) or slots.get((j, i)) or []
            metric[(i, j)] = entry_amplitudes(ent)
    drift = [entry_amplitudes(b) for b in doc["b"]]
    return metric, drift, entry_amplitudes(doc["V"])


def metric_at(doc, pts):
    """Real metric matrices g_ij(x), shape (m, d, d)."""
    d = doc["dim"]
    metric, _, _ = doc_fields(doc)
    out = np.empty((len(pts), d, d))
    for (i, j), amp in metric.items():
        out[:, i, j] = trig_values(amp, pts).real
    return out


def q0_closed_form(doc, pts):
    """(4 pi)^(-d/2) det g(x)^(-1/2), the leading heat coefficient."""
    d = doc["dim"]
    return (4.0 * np.pi) ** (-d / 2.0) / np.sqrt(np.linalg.det(metric_at(doc, pts)))


def grid_values(amplitudes, dim, n):
    """sum_k c_k exp(i<k, x>) on the grid_points(dim, n) grid, by inverse FFT."""
    arr = np.zeros((n,) * dim, dtype=complex)
    if amplitudes:
        ks = np.array([list(k) for k in amplitudes], dtype=int).reshape(-1, dim)
        if np.max(np.abs(ks)) >= n // 2:
            raise ValueError(f"frequency {np.max(np.abs(ks))} aliases on a {n}-point grid")
        np.add.at(arr, tuple((ks % n).T), np.array(list(amplitudes.values()), dtype=complex))
    return (np.fft.ifftn(arr) * n ** dim).ravel()


def grid_points(dim, n):
    ax = 2.0 * np.pi * np.arange(n) / n
    mesh = np.meshgrid(*([ax] * dim), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


# ---------------------------------------------------------------------------
# Galerkin matrix and heat semigroup
# ---------------------------------------------------------------------------


def galerkin_matrix(doc, n):
    """M[m, k] = sum_ij g^ij_(m-k) k_i k_j + i sum_j b^j_(m-k) k_j + V_(m-k).

    Modes in lexicographic order of itertools.product(range(-n, n+1), ...),
    the same order volcalc uses, so the two matrices compare entrywise.
    """
    d = doc["dim"]
    metric, drift, pot = doc_fields(doc)
    modes = np.array(list(itertools.product(range(-n, n + 1), repeat=d)))
    diff = modes[:, None, :] - modes[None, :, :]
    M = np.zeros((len(modes), len(modes)), dtype=complex)

    def band(amp, weight):
        for k, c in amp.items():
            hit = np.all(diff == np.array(k), axis=-1)
            M[hit] += (c * np.broadcast_to(weight, M.shape))[hit]

    kf = modes.astype(float)
    for (i, j), amp in metric.items():
        band(amp, (kf[:, i] * kf[:, j])[None, :])
    for j, amp in enumerate(drift):
        band(amp, (1j * kf[:, j])[None, :])
    band(pot, np.ones((1, len(modes))))
    return M


def is_hermitian(M):
    return np.max(np.abs(M - M.conj().T)) <= 1e-12 * max(1.0, np.max(np.abs(M)))


def heat_matrix(M, t):
    """exp(-tM): eigh for Hermitian M, scipy.linalg.expm otherwise."""
    if is_hermitian(M):
        w, U = np.linalg.eigh(0.5 * (M + M.conj().T))
        return (U * np.exp(-t * w)) @ U.conj().T
    return scipy.linalg.expm(-t * M)


def approximant_heat(M, lam, t):
    """exp(-t lam M (M + lam)^-1) through the eigenvalues for Hermitian M."""
    if is_hermitian(M):
        w, U = np.linalg.eigh(0.5 * (M + M.conj().T))
        return (U * np.exp(-t * lam * w / (w + lam))) @ U.conj().T
    eye = np.eye(len(M))
    return scipy.linalg.expm(-t * lam * np.linalg.solve((M + lam * eye).T, M.T).T)


def min_hermitian_eig(M):
    return float(np.linalg.eigvalsh(0.5 * (M + M.conj().T)).min())


# ---------------------------------------------------------------------------
# differential operators and the symbol of their composition
# ---------------------------------------------------------------------------


def _deriv(amp, axis, count):
    out = amp
    for _ in range(count):
        out = {k: 1j * k[axis] * c for k, c in out.items() if k[axis] != 0}
    return out


def _mul(a, b):
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = tuple(x + y for x, y in zip(k1, k2))
            out[k] = out.get(k, 0) + c1 * c2
    return out


def compose(op1, op2):
    """Leibniz rule (a d^alpha)(b d^beta) = a sum_gamma C(alpha, gamma) (d^(alpha-gamma) b) d^(gamma+beta)."""
    out = {}
    for alpha, a in op1.items():
        for beta, b in op2.items():
            for gamma in itertools.product(*[range(x + 1) for x in alpha]):
                comb = math.prod(math.comb(x, g) for x, g in zip(alpha, gamma))
                db = b
                for axis, (x, g) in enumerate(zip(alpha, gamma)):
                    db = _deriv(db, axis, x - g)
                if not db:
                    continue
                key = tuple(g + y for g, y in zip(gamma, beta))
                acc = out.setdefault(key, {})
                for k, c in _mul(a, db).items():
                    acc[k] = acc.get(k, 0) + comb * c
    return out


def operator_symbol_map(op):
    """Left symbol sum_alpha c_alpha(x) (i xi)^alpha as {(alpha, 0): {k: c}}, zeros dropped."""
    out = {}
    for alpha, amp in op.items():
        scaled = {k: c * 1j ** sum(alpha) for k, c in amp.items() if c != 0}
        if scaled:
            out[(alpha, 0)] = scaled
    return out


# ---------------------------------------------------------------------------
# p # q - 1 from values of q, with spectral x-derivatives
# ---------------------------------------------------------------------------


def sharp_defect(doc, terms):
    """Evaluator (x0, xi, tau) -> p # q - 1 for p the heat symbol of `doc`.

    q = sum c(x) xi^beta Lambda(x)^l is sampled on an n^d grid, n a power of
    two at least 32 and at least 4 times q's highest coefficient frequency, with
    Lambda(x) = i tau + G(x)(xi, xi); its x-derivatives are taken by FFT
    and evaluated at x0 by trigonometric interpolation.  p is polynomial of
    degree 2 in xi, so

        p # q = p q - i sum_k (d_xi_k p) d_k q - sum_kl g_kl d_k d_l q.

    `terms` maps (beta, l) to amplitude dicts (ParabolicSymbol.term_map()).
    """
    d = doc["dim"]
    metric, drift, pot = doc_fields(doc)
    kmax = max((max(abs(f) for f in k) for amp in terms.values() for k in amp), default=0)
    n = 32
    while n < 4 * (kmax + 1):
        n *= 2
    pts = grid_points(d, n)
    G = metric_at(doc, pts)
    keys = list(terms)
    coeffs = np.array([grid_values(terms[k], d, n) for k in keys])
    betas = np.array([k[0] for k in keys], dtype=float).reshape(len(keys), d)
    lpows = np.array([k[1] for k in keys], dtype=float)
    freqs = pts * n / (2.0 * np.pi)
    freqs = np.rint(np.where(freqs > n // 2, freqs - n, freqs))
    # the Nyquist mode of an even grid has no well-defined derivative
    keep = ~np.any(np.abs(freqs) == n // 2, axis=1) if n % 2 == 0 else True

    def evaluate(x0, xi, tau):
        xi = np.asarray(xi, dtype=float)
        lam = 1j * tau + np.einsum("mij,i,j->m", G, xi, xi)
        mono = np.prod(xi[None, :] ** betas, axis=1)
        qv = (mono[:, None] * coeffs * lam[None, :] ** lpows[:, None]).sum(axis=0)
        qhat = np.fft.fftn(qv.reshape((n,) * d)).ravel() / n ** d * keep
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        phase = np.exp(1j * freqs @ x0) * qhat

        def dq(*axes):
            w = np.ones(len(freqs), dtype=complex)
            for a in axes:
                w = w * 1j * freqs[:, a]
            return complex(np.sum(w * phase))

        G0 = metric_at(doc, x0[None, :])[0]
        b0 = np.array([trig_values(b, x0[None, :])[0] for b in drift])
        V0 = trig_values(pot, x0[None, :])[0]
        p0 = 1j * tau + xi @ G0 @ xi + 1j * b0 @ xi + V0
        dp = 2.0 * G0 @ xi + 1j * b0
        total = p0 * dq()
        for k in range(d):
            total += -1j * dp[k] * dq(k)
            for m in range(d):
                total -= G0[k, m] * dq(k, m)
        return total - 1.0

    return evaluate
