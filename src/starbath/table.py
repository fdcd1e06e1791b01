"""Tabular results and file emission: ``ResultTable``, one array per column,
and its RFC-4180 CSV (CRLF, comma-separated, nothing quoted) under a
``name[unit]`` header, written in blocks of rows, each distinct value of a
column formatted once per block by repr's shortest round-trip decimals, so
identical configs give bit-identical files; the directory must exist."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["ResultTable", "write_manifest"]

# Rows formatted and written at a time: the cell strings of a block are all
# that a table's CSV holds in memory at once.
_BLOCK_ROWS = 512


@dataclass
class ResultTable:
    """Rectangular table: ``data`` maps each ``name[unit]`` to a 1-d array."""

    data: dict[str, np.ndarray]

    @classmethod
    def from_columns(cls, columns: dict) -> "ResultTable":
        """Table from ``{name: values}``; scalars broadcast to the common
        length, and each column, copied, keeps its int, float or text dtype."""
        arrays = np.broadcast_arrays(*(np.asarray(v) for v in columns.values()))
        return cls(dict(zip(columns, map(np.array, arrays))))

    @property
    def rows(self) -> list[tuple]:
        return list(zip(*(a.tolist() for a in self.data.values())))

    def column(self, name: str) -> np.ndarray:
        return self.data[name].astype(float)

    def write_csv(self, path: str | Path) -> Path:
        path = Path(path)
        for name, a in self.data.items():
            text = a.tolist() if a.dtype.kind == "U" else []
            if any(ch in cell for cell in (name, *text) for ch in ',"\r\n'):
                raise ValueError(f"column {name!r} holds a comma, quote or line break, which CSV would have to quote")
        rows = len(next(iter(self.data.values()), ()))
        with open(path, "w", newline="") as fh:
            if self.data:
                fh.write(",".join(self.data) + "\r\n")  # RFC-4180 CRLF
            for r0 in range(0, rows, _BLOCK_ROWS):
                cells = [_cells(a[r0 : r0 + _BLOCK_ROWS]) for a in self.data.values()]
                fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")
        return path


def _cells(a: np.ndarray) -> list[str]:
    """CSV cells of a block of a column: text as is, else ``repr`` once per
    distinct value, floats keyed by bits so -0.0 stays."""
    if a.dtype.kind == "U":
        return a.tolist()
    distinct, inverse = np.unique(a.view(f"i{a.itemsize}") if a.dtype.kind == "f" else a, return_inverse=True)
    cells = [repr(v) for v in distinct.view(a.dtype).tolist()]
    return [cells[i] for i in inverse.tolist()]


def write_manifest(path: str | Path, manifest: dict) -> Path:
    """Write ``manifest`` into an existing directory as indented JSON with
    sorted keys, refusing nan and infinities."""
    path = Path(path)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return path
