"""Seeded operator and differential-operator generators.

Every generated amplitude is a dyadic rational (a multiple of 1/16), so
products and sums of them are exact in double precision.  Operators are
returned as JSON spec documents, the same format as the files under
src/volcalc/corpus, and are loaded through volcalc's own spec loader.

Shapes (which harmonics are present) are fixed per operator family; only
the amplitudes and signs are drawn from the seed.  This keeps the cost of
a job nearly independent of the seed while the values change.
"""

from __future__ import annotations

import itertools

import numpy as np

# Amplitudes are multiples of 1/DYADIC.  Metric variation is bounded so that
# the smallest metric eigenvalue stays at least 0.5 on the whole torus
# (Gershgorin on the 2 x 2 form), which QuadraticForm's positivity check
# then confirms.
DYADIC = 16


def dyadic(rng, lo, hi):
    """A signed multiple of 1/16 with magnitude in [lo, hi]."""
    mag = int(rng.integers(round(lo * DYADIC), round(hi * DYADIC) + 1)) / DYADIC
    return mag if rng.integers(2) else -mag


def _neg(k):
    return [-f for f in k]


def trig_entries(dim, rng, harmonics, lo, hi, constant=0.0):
    """Real trig polynomial constant + sum a cos<k,x> + b sin<k,x> as spec entries.

    `harmonics` lists frequency vectors; each gets a cosine and a sine
    amplitude drawn with `dyadic(rng, lo, hi)`.  Returns (entries, l1) with
    l1 the sum of |amplitudes|, a bound on the oscillating part.
    """
    entries = []
    l1 = 0.0
    if constant:
        entries.append({"freq": [0] * dim, "re": constant, "im": 0.0})
    for k in harmonics:
        a, b = dyadic(rng, lo, hi), dyadic(rng, lo, hi)
        l1 += abs(a) + abs(b)
        # a cos + b sin = (a - i b)/2 e^{ikx} + (a + i b)/2 e^{-ikx}
        entries.append({"freq": list(k), "re": a / 2, "im": -b / 2})
        entries.append({"freq": _neg(k), "re": a / 2, "im": b / 2})
    return entries, l1


def _metric_entry(i, j, entries):
    return [dict(e, i=i, j=j) for e in entries]


def operator_doc(rng, family, name):
    """One spec document of the named family.

    Families:
      var1d    1-D variable metric, drift and potential (non-Hermitian)
      metric1d 1-D variable metric and nonnegative potential, no drift
      drift1d  1-D flat metric, variable drift and potential
      flat1d   1-D flat metric, variable potential (q_2 = -(4 pi)^-1/2 V)
      var2d    2-D variable metric (g11 and g12) and potential
      const2d  2-D constant metric, variable drift and potential
      herm2d   2-D constant metric, variable nonnegative potential
      flat2d   2-D flat metric, variable potential
    """
    if family in ("var1d", "metric1d", "drift1d", "flat1d"):
        dim = 1
    elif family in ("var2d", "const2d", "herm2d", "flat2d"):
        dim = 2
    else:
        raise ValueError(f"unknown operator family {family!r}")
    if family in ("var1d", "metric1d"):
        g, _ = trig_entries(1, rng, [[1], [2]], 1 / 16, 2 / 16, constant=1.0)
        metric = _metric_entry(0, 0, g)
    elif family == "var2d":
        g11, _ = trig_entries(2, rng, [[1, 0]], 1 / 16, 3 / 16, constant=1.0)
        g22 = [{"freq": [0, 0], "re": 1.0 + abs(dyadic(rng, 0, 4 / 16)), "im": 0.0}]
        g12, _ = trig_entries(2, rng, [[0, 1]], 1 / 16, 1 / 16)
        metric = _metric_entry(0, 0, g11) + _metric_entry(1, 1, g22) + \
            _metric_entry(0, 1, g12)
    elif family in ("const2d", "herm2d"):
        metric = [{"i": 0, "j": 0, "freq": [0, 0], "re": 1.0 + abs(dyadic(rng, 0, 4 / 16))},
                  {"i": 1, "j": 1, "freq": [0, 0], "re": 1.0 + abs(dyadic(rng, 0, 4 / 16))},
                  {"i": 0, "j": 1, "freq": [0, 0], "re": dyadic(rng, 1 / 16, 3 / 16)}]
    else:  # flat, and drift1d
        metric = [{"i": i, "j": i, "freq": [0] * dim, "re": 1.0} for i in range(dim)]

    drift = [[] for _ in range(dim)]
    if family in ("var1d", "drift1d"):
        drift[0], _ = trig_entries(1, rng, [[1]], 1 / 16, 4 / 16)
    elif family == "const2d":
        drift[0], _ = trig_entries(2, rng, [[1, 0]], 1 / 16, 4 / 16)
        drift[1], _ = trig_entries(2, rng, [[0, 1]], 1 / 16, 4 / 16)

    if dim == 1:
        harm = [[1], [2]]
    elif family == "var2d":
        harm = [[1, 1]]
    else:
        harm = [[1, 0], [0, 1], [1, 1]]
    pot, l1 = trig_entries(dim, rng, harm, 1 / 16, 8 / 16)
    if family in ("metric1d", "herm2d", "var2d", "flat1d", "flat2d"):
        # nonnegative potential: the constant dominates the oscillation
        pot.insert(0, {"freq": [0] * dim, "re": l1, "im": 0.0})
    return {"name": name, "dim": dim, "g": metric, "b": drift, "V": pot}


def diff_operator(rng, dim, shape, max_freq=3):
    """Random second-order differential operator sum_alpha c_alpha(x) d^alpha.

    Returned as {alpha: {freq: complex amplitude}} with real coefficients
    (c_{-k} = conj(c_k)) and dyadic amplitudes; order <= 2 keeps every
    1/alpha! of the # expansion exact.  Each coefficient has two harmonics
    with frequencies in [-max_freq, max_freq], drawn from the integer
    `shape` alone; only the amplitudes come from `rng`.  The cost of a #
    product depends on the harmonics, so it then does not depend on the seed.
    """
    freqs = np.random.default_rng([dim, shape])
    out = {}
    for alpha in itertools.product(range(3), repeat=dim):
        if sum(alpha) > 2:
            continue
        amp = {}
        for _ in range(2):
            k = tuple(int(freqs.integers(-max_freq, max_freq + 1)) for _ in range(dim))
            c = complex(dyadic(rng, 1 / 16, 8 / 16), dyadic(rng, 0, 8 / 16))
            mk = tuple(-f for f in k)
            amp[k] = amp.get(k, 0) + c / 2
            amp[mk] = amp.get(mk, 0) + np.conj(c) / 2
        amp = {k: v for k, v in amp.items() if v != 0}
        if amp:
            out[alpha] = amp
    return out


def parabolic_rays(rng, dim, count):
    """Unit points (x0, xi0, tau0) on the anisotropic shell, Im tau0 < 0."""
    rays = []
    for _ in range(count):
        direction = rng.standard_normal(dim)
        direction /= np.linalg.norm(direction)
        split = rng.uniform(0.25, 0.75)
        phase = rng.uniform(-np.pi + 0.3, -0.3)
        x0 = rng.uniform(0.0, 2.0 * np.pi, dim)
        rays.append((x0, direction * np.sqrt(split), (1.0 - split) * np.exp(1j * phase)))
    return rays
