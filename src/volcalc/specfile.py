"""JSON operator-spec files.

Schema:
    {
      "name": "cosine_potential",
      "dim": 1,
      "g": [{"i": 0, "j": 0, "freq": [0], "re": 1.0, "im": 0.0}, ...],
      "b": [[{"freq": [1], "re": 0.0, "im": -0.25}, ...], ...],
      "V": [{"freq": [1], "re": 0.5, "im": 0.0}, ...]
    }

g entries may be given for one triangle only (mirrored); when both (i, j)
and (j, i) appear they must agree.  Finite amplitudes and integral dim,
indices and frequencies are enforced here, and JSON booleans are refused
wherever a number is expected (true == 1 in Python);
reality (c_{-k} = conj(c_k) to 1e-12 relative, then stored exactly) is
QuadraticForm's for the metric, together with its symmetry and positivity,
and OperatorSpec's for the drift and potential.
"""

from __future__ import annotations

import json
import math
import os

from .symcore import CoefficientField, DomainError, QuadraticForm
from .volterra import OperatorSpec

__all__ = ["SpecFileError", "load_operator_spec", "corpus_dir", "corpus_names",
           "load_corpus"]


class SpecFileError(DomainError):
    """Malformed operator spec file; message names the offending key."""


def _field_from_entries(dim, entries, key):
    amp = {}
    for ent in entries:
        try:
            freq = tuple(int(f) for f in ent["freq"])
            re = float(ent.get("re", 0.0))
            im = float(ent.get("im", 0.0))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SpecFileError(f"bad entry under key '{key}': {ent!r}") from exc
        if _has_bool(*ent["freq"], ent.get("re"), ent.get("im")):
            raise SpecFileError(f"key '{key}': boolean where a number is expected in {ent!r}")
        if freq != tuple(ent["freq"]) or len(freq) != dim:  # int() truncates 1.5
            raise SpecFileError(f"key '{key}': frequency {ent['freq']!r} is not {dim} integers")
        if not (math.isfinite(re) and math.isfinite(im)):
            raise SpecFileError(f"key '{key}': non-finite amplitude in {ent!r}")
        amp[freq] = amp.get(freq, 0.0) + complex(re, im)
    return CoefficientField(dim, amp)


def _has_bool(*values):
    return any(isinstance(v, bool) for v in values)


def load_operator_spec(source) -> OperatorSpec:
    """Parse a JSON document (path or dict) into an OperatorSpec."""
    if isinstance(source, dict):
        doc = source
    else:
        try:
            with open(source) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise SpecFileError(f"cannot read operator spec: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise SpecFileError(f"cannot parse operator spec: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecFileError("document must be a JSON object")

    try:
        dim = int(doc["dim"])
    except (KeyError, TypeError, ValueError, OverflowError):
        raise SpecFileError("missing or bad key 'dim' (need 1 or 2)")
    if dim not in (1, 2) or dim != doc["dim"] or _has_bool(doc["dim"]):
        raise SpecFileError("key 'dim' must be 1 or 2")
    name = str(doc.get("name", "operator"))

    if "g" not in doc or not isinstance(doc["g"], list) or not doc["g"]:
        raise SpecFileError("missing key 'g' (metric entries)")
    slots = {}
    for ent in doc["g"]:
        try:
            i, j = int(ent["i"]), int(ent["j"])
        except (KeyError, TypeError, ValueError, OverflowError):
            raise SpecFileError(f"key 'g': bad metric entry {ent!r}")
        if (i, j) != (ent["i"], ent["j"]) or _has_bool(ent["i"], ent["j"]) \
                or not (0 <= i < dim and 0 <= j < dim):
            raise SpecFileError(f"key 'g': metric indices ({ent['i']!r}, {ent['j']!r}) "
                                f"are not integers in [0, {dim})")
        slots.setdefault((i, j), []).append(ent)
    fields = {}
    for (i, j), entries in slots.items():
        fields[(i, j)] = _field_from_entries(dim, entries, f"g[{i}][{j}]")
    zero = CoefficientField.zero(dim)
    grid = [[fields.get((i, j), fields.get((j, i), zero)) for j in range(dim)]
            for i in range(dim)]
    try:
        metric = QuadraticForm(grid)
    except ValueError as exc:  # asymmetry, non-real and NotPositiveDefiniteError
        raise SpecFileError(f"key 'g': {exc}") from exc

    draw = doc.get("b", [[] for _ in range(dim)])
    if not isinstance(draw, list) or len(draw) != dim:
        raise SpecFileError("key 'b' must list one entry set per coordinate")
    drift = [_field_from_entries(dim, entries or [], f"b[{axis}]")
             for axis, entries in enumerate(draw)]
    pot = _field_from_entries(dim, doc.get("V", []) or [], "V")

    try:
        return OperatorSpec(metric, tuple(drift), pot, name=name)
    except ValueError as exc:
        raise SpecFileError(str(exc)) from exc


def corpus_dir() -> str:
    return os.path.join(os.path.dirname(__file__), "corpus")


def corpus_names(directory=None):
    directory = directory or corpus_dir()
    try:
        files = os.listdir(directory)
    except OSError as exc:
        raise SpecFileError(f"cannot read corpus directory: {exc}") from exc
    return sorted(f[:-5] for f in files if f.endswith(".json"))


def load_corpus(directory=None):
    """All bundled (or user-supplied) corpus operators, name -> OperatorSpec."""
    directory = directory or corpus_dir()
    out = {}
    for name in corpus_names(directory):
        out[name] = load_operator_spec(os.path.join(directory, name + ".json"))
    return out
