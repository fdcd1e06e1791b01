"""Tabular results and file emission.

CSV output is RFC-4180 (CRLF, comma-separated) with a ``name[unit]`` header
row; floats are written with repr's shortest round-trip decimals, so a given
build produces bit-identical files for identical configs.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["ResultTable", "write_manifest"]


@dataclass
class ResultTable:
    """Rectangular numeric table with unit-annotated column names."""

    columns: list[str]
    rows: list[tuple] = field(default_factory=list)

    @classmethod
    def from_columns(cls, columns: dict) -> "ResultTable":
        """Table from ``{name: values}``; scalars broadcast to the common
        length, and each value keeps its int or float formatting."""
        arrays = np.broadcast_arrays(*(np.asarray(v) for v in columns.values()))
        return cls(columns=list(columns), rows=list(zip(*(a.tolist() for a in arrays))))

    def column(self, name: str) -> np.ndarray:
        idx = self.columns.index(name)
        return np.asarray([row[idx] for row in self.rows], dtype=float)

    def write_csv(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, dialect="excel")  # RFC-4180 CRLF
            writer.writerow(self.columns)
            writer.writerows(self.rows)  # Python ints and floats; csv writes floats by repr
        return path


def write_manifest(path: str | Path, *, files: list[str], parameters: dict, derived: dict, extra: dict | None = None) -> Path:
    """Emit the run manifest: produced files, input parameters, and the
    derived constants (dw, Gamma, t1, nbar, ...)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"files": files, "parameters": parameters, "derived": derived}
    if extra:
        payload.update(extra)
    # ``default`` writes array-valued config fields, such as numpy time grids, as lists
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False, default=np.ndarray.tolist)
    path.write_text(text + "\n")
    return path
