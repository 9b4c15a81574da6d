"""Benchmark report rows and deterministic CSV / Markdown / JSON rendering.

Column order is fixed; exact rationals are printed as "num/den" (or a bare
integer) and parse back to the same value. The JSON form additionally carries
*_approx float fields, rounded to 6 places and explicitly approximate, and
null for a value past float range. The ms column stays empty unless timing
was requested, since wall time is the one field that cannot be
byte-reproducible.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction

__all__ = ["CSV_COLUMNS", "ReportRow", "render_csv", "render_markdown", "render_json"]

CSV_COLUMNS = [
    "instance",
    "kind",
    "n",
    "param",
    "optimum",
    "algorithm",
    "objective",
    "ratio",
    "migrations",
    "oracle",
    "ms",
]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _approx(value) -> float | None:
    """`value` as a float rounded to 6 places; None when there is no value or
    it is past float range (the exact field still holds it)."""
    if value is None:
        return None
    try:
        return round(float(value), 6)
    except OverflowError:
        return None


@dataclass(frozen=True)
class ReportRow:
    """One (instance, algorithm) result."""

    instance: str
    kind: str
    n: int
    param: int
    optimum: Fraction | int
    algorithm: str
    objective: Fraction | int
    ratio: Fraction | None
    migrations: int
    oracle: Fraction | int | None = None
    ms: float | None = None

    def cells(self) -> list[str]:
        return [_cell(getattr(self, column)) for column in CSV_COLUMNS]

    def as_dict(self) -> dict:
        return {
            "instance": self.instance,
            "kind": self.kind,
            "n": self.n,
            "param": self.param,
            "optimum": _cell(self.optimum),
            "optimum_approx": _approx(self.optimum),
            "algorithm": self.algorithm,
            "objective": _cell(self.objective),
            "objective_approx": _approx(self.objective),
            "ratio": _cell(self.ratio) or None,
            "ratio_approx": _approx(self.ratio),
            "migrations": self.migrations,
            "oracle": _cell(self.oracle) or None,
            "ms": self.ms,
        }


def render_csv(rows: list[ReportRow]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(row.cells())
    return out.getvalue()


def render_markdown(rows: list[ReportRow]) -> str:
    lines = [
        "| " + " | ".join(CSV_COLUMNS) + " |",
        "|" + "|".join(" --- " for _ in CSV_COLUMNS) + "|",
    ]
    for row in rows:
        # A "|" in a cell (an instance file name, say) would end the cell.
        lines.append("| " + " | ".join(c.replace("|", r"\|") or " " for c in row.cells()) + " |")
    return "\n".join(lines) + "\n"


def render_json(rows: list[ReportRow], single: bool = False) -> str:
    payload = rows[0].as_dict() if single and rows else [row.as_dict() for row in rows]
    return json.dumps(payload, indent=2) + "\n"
