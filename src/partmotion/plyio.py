"""ASCII PLY reading and writing for labeled point clouds."""
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
    if labels is not None:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (points.shape[0],):
            raise DataError("PLY labels must match point count")
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {points.shape[0]}",
        "property double x",
        "property double y",
        "property double z",
    ]
    if labels is not None:
        lines.append("property int label")
    lines.append("end_header")
    for i in range(points.shape[0]):
        x, y, z = points[i]
        row = f"{x:.17g} {y:.17g} {z:.17g}"
        if labels is not None:
            row += f" {labels[i]}"
        lines.append(row)
    Path(path).write_text("\n".join(lines) + "\n")


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
    if len(rows) < n_vertex:
        raise DataError(f"{path}: expected {n_vertex} vertices, found {len(rows)}")
    points = np.empty((n_vertex, 3), dtype=np.float64)
    labels = np.empty(n_vertex, dtype=np.int64) if has_label else None
    for i, row in enumerate(rows):
        tok = row.split()
        if len(tok) < len(props):
            raise DataError(f"{path}: short vertex row {i}")
        try:
            points[i] = [float(tok[0]), float(tok[1]), float(tok[2])]
            if labels is not None:
                labels[i] = int(tok[3])
        except (ValueError, OverflowError) as exc:  # OverflowError: a label past int64
            raise DataError(f"{path}: malformed vertex row {i}") from exc
    if not np.all(np.isfinite(points)):
        raise DataError(f"{path}: non-finite vertex coordinates")
    return points, labels
