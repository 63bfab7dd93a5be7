"""Validation report tables: fixed-format text, JSON, and CSV output.

JSON and CSV serialization is deterministic: fixed field order and floats
printed with 17 significant digits, so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass

__all__ = ["ReportRow", "ReportTable", "fmt_float"]


def fmt_float(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".17g")


@dataclass
class ReportRow:
    quantity: str
    symbolic: object = None   # float or display string
    numeric: object = None
    error: object = None
    tolerance: object = None
    passed: bool = True

    def __post_init__(self):
        if self.error is not None and self.tolerance is not None:
            self.passed = float(self.error) <= float(self.tolerance)


class ReportTable:
    def __init__(self, title="report"):
        self.title = title
        self.rows = []

    def add(self, quantity, symbolic=None, numeric=None, error=None,
            tolerance=None, passed=None):
        row = ReportRow(quantity, symbolic, numeric, error, tolerance)
        if passed is not None and (error is None or tolerance is None):
            row.passed = bool(passed)
        self.rows.append(row)
        return row

    def extend(self, other):
        self.rows.extend(other.rows)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    # -- rendering -----------------------------------------------------------

    @staticmethod
    def _cell(value):
        if value is None:
            return ""
        if isinstance(value, str):
            return value
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, (int, float)):
            return format(float(value), ".6g")
        return str(value)

    def format_text(self) -> str:
        headers = ["quantity", "symbolic", "numeric", "error", "tol", "status"]
        body = [[r.quantity, self._cell(r.symbolic), self._cell(r.numeric),
                 self._cell(r.error), self._cell(r.tolerance),
                 "PASS" if r.passed else "FAIL"] for r in self.rows]
        widths = [max(len(h), *(len(row[i]) for row in body)) if body else len(h)
                  for i, h in enumerate(headers)]
        lines = [self.title]
        lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    @staticmethod
    def _json_value(value):
        if value is None:
            return "null"
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (int, float)):
            return fmt_float(value)
        return json.dumps(str(value), ensure_ascii=False)

    def to_json(self) -> str:
        buf = io.StringIO()
        buf.write('{"title": %s, "all_passed": %s, "rows": [\n'
                  % (self._json_value(self.title),
                     "true" if self.all_passed else "false"))
        parts = []
        for r in self.rows:
            parts.append(
                '  {"quantity": %s, "symbolic": %s, "numeric": %s, '
                '"error": %s, "tolerance": %s, "pass": %s}'
                % (self._json_value(r.quantity), self._json_value(r.symbolic),
                   self._json_value(r.numeric), self._json_value(r.error),
                   self._json_value(r.tolerance),
                   "true" if r.passed else "false"))
        buf.write(",\n".join(parts))
        buf.write("\n]}\n")
        return buf.getvalue()

    def to_csv(self) -> str:
        def esc(s):
            s = str(s)
            if any(c in s for c in ',"\n'):
                return '"' + s.replace('"', '""') + '"'
            return s

        lines = ["quantity,symbolic,numeric,error,tolerance,pass"]
        for r in self.rows:
            cells = [r.quantity]
            for v in (r.symbolic, r.numeric, r.error, r.tolerance):
                if v is None:
                    cells.append("")
                elif isinstance(v, (int, float)) and not isinstance(v, bool):
                    cells.append(fmt_float(v))
                else:
                    cells.append(str(v))
            cells.append("true" if r.passed else "false")
            lines.append(",".join(esc(c) for c in cells))
        return "\n".join(lines) + "\n"

    def write(self, path):
        text = self.to_csv() if str(path).endswith(".csv") else self.to_json()
        with open(path, "w") as fh:
            fh.write(text)
