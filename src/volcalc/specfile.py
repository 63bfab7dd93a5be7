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
and (j, i) appear they must agree.  Finite amplitudes, reality
(c_{-k} = conj(c_k)) and metric positivity are enforced at load time.
"""

from __future__ import annotations

import json
import math
import os

from .symcore import CoefficientField, NotPositiveDefiniteError, QuadraticForm
from .volterra import OperatorSpec

__all__ = ["SpecFileError", "load_operator_spec", "corpus_dir", "corpus_names",
           "load_corpus"]


class SpecFileError(ValueError):
    """Malformed operator spec file; message names the offending key."""


def _field_from_entries(dim, entries, key):
    amp = {}
    for ent in entries:
        try:
            freq = tuple(int(f) for f in ent["freq"])
            re = float(ent.get("re", 0.0))
            im = float(ent.get("im", 0.0))
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecFileError(f"bad entry under key '{key}': {ent!r}") from exc
        if len(freq) != dim:
            raise SpecFileError(f"key '{key}': frequency {freq} has length != dim")
        if not (math.isfinite(re) and math.isfinite(im)):
            raise SpecFileError(f"key '{key}': non-finite amplitude in {ent!r}")
        amp[freq] = amp.get(freq, 0.0) + complex(re, im)
    return CoefficientField(dim, amp)


def load_operator_spec(source) -> OperatorSpec:
    """Parse a JSON document (path, file object, or dict) into an OperatorSpec."""
    if isinstance(source, dict):
        doc = source
    elif hasattr(source, "read"):
        doc = json.load(source)
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
    except (KeyError, TypeError, ValueError):
        raise SpecFileError("missing or bad key 'dim' (need 1 or 2)")
    if dim not in (1, 2):
        raise SpecFileError("key 'dim' must be 1 or 2")
    name = str(doc.get("name", "operator"))

    if "g" not in doc or not isinstance(doc["g"], list) or not doc["g"]:
        raise SpecFileError("missing key 'g' (metric entries)")
    slots = {}
    for ent in doc["g"]:
        try:
            i, j = int(ent["i"]), int(ent["j"])
        except (KeyError, TypeError, ValueError):
            raise SpecFileError(f"bad metric entry: {ent!r}")
        if not (0 <= i < dim and 0 <= j < dim):
            raise SpecFileError(f"metric indices ({i}, {j}) out of range")
        slots.setdefault((i, j), []).append(ent)
    fields = {}
    for (i, j), entries in slots.items():
        fields[(i, j)] = _field_from_entries(dim, entries, f"g[{i}][{j}]")
    grid = [[None] * dim for _ in range(dim)]
    zero = CoefficientField.zero(dim)
    for i in range(dim):
        for j in range(dim):
            a, b = fields.get((i, j)), fields.get((j, i))
            if a is not None and b is not None and a != b:
                raise SpecFileError(f"metric entries g[{i}][{j}] and g[{j}][{i}] differ")
            grid[i][j] = a if a is not None else (b if b is not None else zero)
            if not grid[i][j].is_real():
                raise SpecFileError(f"metric entry g[{i}][{j}] is not real-valued")
    try:
        metric = QuadraticForm(grid)
    except NotPositiveDefiniteError as exc:
        raise SpecFileError(f"key 'g': {exc}") from exc
    except ValueError as exc:
        raise SpecFileError(f"key 'g': {exc}") from exc

    draw = doc.get("b", [[] for _ in range(dim)])
    if not isinstance(draw, list) or len(draw) != dim:
        raise SpecFileError("key 'b' must list one entry set per coordinate")
    drift = []
    for axis, entries in enumerate(draw):
        f = _field_from_entries(dim, entries or [], f"b[{axis}]")
        if not f.is_real():
            raise SpecFileError(f"drift component b[{axis}] is not real-valued")
        drift.append(f)

    pot = _field_from_entries(dim, doc.get("V", []) or [], "V")
    if not pot.is_real():
        raise SpecFileError("potential V is not real-valued")

    try:
        return OperatorSpec(metric, tuple(drift), pot, name=name)
    except ValueError as exc:
        raise SpecFileError(str(exc)) from exc


def corpus_dir() -> str:
    return os.path.join(os.path.dirname(__file__), "corpus")


def corpus_names(directory=None):
    directory = directory or corpus_dir()
    return sorted(f[:-5] for f in os.listdir(directory) if f.endswith(".json"))


def load_corpus(directory=None):
    """All bundled (or user-supplied) corpus operators, name -> OperatorSpec."""
    directory = directory or corpus_dir()
    out = {}
    for name in corpus_names(directory):
        out[name] = load_operator_spec(os.path.join(directory, name + ".json"))
    return out
