"""Sampled-curve container, and the curve schemas it is built with (kept in
the package's __init__, where the CLI reads them without this module).

A CurveTable is a rectangular block of floats: one named column per curve or
argmin parameter, one row per abscissa sample. Serialization uses Python's
shortest round-trip float representation so re-running a sweep with the same
inputs reproduces the output stream byte for byte.
"""

from dataclasses import dataclass
from typing import Tuple

from . import CURVE_COLUMNS, GAUSSIAN_COLUMNS


@dataclass(frozen=True)
class CurveTable:
    columns: Tuple[str, ...]
    rows: Tuple[Tuple[float, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        rows = tuple(tuple(float(v) for v in r) for r in self.rows)
        for r in rows:
            if len(r) != len(self.columns):
                raise ValueError("row width does not match column count")
        object.__setattr__(self, "rows", rows)

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        lines.extend(",".join(repr(v) for v in r) for r in self.rows)
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {"columns": list(self.columns),
                "rows": [list(r) for r in self.rows]}

