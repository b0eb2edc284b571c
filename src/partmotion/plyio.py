"""ASCII PLY reading and writing for labeled point clouds.

numpy parses the vertex rows, so Python-only number spellings such as `1_0` are malformed.
"""
from __future__ import annotations

from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DataError

__all__ = ["write_ply", "read_ply"]


def write_ply(path: str | Path, points: np.ndarray, labels: Optional[np.ndarray] = None) -> None:
    """Write points (and an optional integer label column) as ASCII PLY."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise DataError(f"PLY points must be (N, 3), got {points.shape}")
    header = ["ply", "format ascii 1.0", f"element vertex {points.shape[0]}"]
    header += [f"property double {axis}" for axis in "xyz"]
    fmt, rows = "%.17g %.17g %.17g", points.tolist()
    if labels is not None:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (points.shape[0],):
            raise DataError("PLY labels must match point count")
        header.append("property int label")
        fmt, rows = fmt + " %d", [(*p, lab) for p, lab in zip(rows, labels.tolist())]
    Path(path).write_text("\n".join([*header, "end_header", *(fmt % tuple(row) for row in rows)]) + "\n")


def read_ply(path: str | Path) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Read an ASCII PLY written by write_ply (x y z plus optional label)."""
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read as a text PLY file ({exc})") from exc
    if not lines or lines[0].strip() != "ply":
        raise DataError(f"{path}: not a PLY file")
    n_vertex = None
    props: list[str] = []
    body_start = None
    for i, line in enumerate(lines[1:], start=1):
        tok = line.split()
        if not tok:
            continue
        if tok[0] == "format":
            if tok[1:2] != ["ascii"]:
                raise DataError(f"{path}: only ASCII PLY is supported")
        elif tok[0] == "element":
            if tok[1:2] != ["vertex"] or len(tok) != 3 or not tok[2].isdecimal():
                raise DataError(f"{path}: expected 'element vertex <count>', got {line!r}")
            n_vertex = int(tok[2])
        elif tok[0] == "property":
            props.append(tok[-1])
        elif tok[0] == "end_header":
            body_start = i + 1
            break
    if n_vertex is None or body_start is None:
        raise DataError(f"{path}: malformed PLY header")
    if props[:3] != ["x", "y", "z"]:
        raise DataError(f"{path}: PLY must start with x y z properties")
    has_label = len(props) > 3 and props[3] == "label"
    rows = lines[body_start : body_start + n_vertex]
    fields = [("xyz", np.float64, (3,))]
    fields += [(f"p{j}", np.int64 if j == 3 and has_label else np.float64) for j in range(3, len(props))]
    table = np.zeros(0, fields)
    if "".join(rows).strip():  # numpy warns on a body without data
        try:
            table = np.loadtxt(rows, fields, usecols=range(len(props)), comments=None, ndmin=1)
        except ValueError as exc:  # a short, non-numeric or out-of-range row
            raise DataError(f"{path}: malformed vertex rows ({exc})") from exc
    if table.shape[0] != n_vertex:  # a missing row; numpy also skips blank ones
        raise DataError(f"{path}: expected {n_vertex} vertex rows, found {table.shape[0]}")
    points = np.ascontiguousarray(table["xyz"])
    if not np.all(np.isfinite(points)):
        raise DataError(f"{path}: non-finite vertex coordinates")
    return points, (np.ascontiguousarray(table["p3"]) if has_label else None)
