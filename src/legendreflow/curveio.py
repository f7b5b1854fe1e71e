"""CSV / SVG / manifest emission.

Curve sample exchange format, byte for byte: a header line
``u,x,y,nu_x,nu_y`` with optional ``beta,ell`` and ``t`` columns, then one
row per uniform grid point.  Fields are separated by a comma with no
padding, each value is the shortest string that round-trips the double
(Python's ``repr``, e.g. ``-0.0``, ``5e-324``, ``1e+308``), and every line,
the last included, ends in CR LF.  Non-finite values are never written.
The reader parses with ``csv.reader`` and refuses ragged rows and
non-numeric, empty or non-finite cells.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from .curves import LegendreCurve, uniform_grid
from .errors import InvariantViolationError, ValidationError


def write_json(path, data, sort_keys=False):
    """Indented JSON document; refuses NaN and infinities before touching path."""
    path = Path(path)
    try:
        text = json.dumps(data, indent=2, sort_keys=sort_keys, allow_nan=False)
    except ValueError as exc:
        raise InvariantViolationError(f"{path.name}: non-finite value, not written") from exc
    path.write_text(text + "\n")
    return path


def check_finite(label, curve: LegendreCurve, curvature=None, t=None):
    """Refuse a curve whose CSV columns would hold NaN or an infinity."""
    columns = [curve.positions, curve.normals]
    if curvature is not None:
        columns += [curvature.beta, curvature.ell]
    if t is not None:
        columns.append(t)
    if not all(np.isfinite(c).all() for c in columns):
        raise InvariantViolationError(f"{label}: non-finite samples, not written")


def write_curve_csv(path, curve: LegendreCurve, curvature=None, t=None):
    path = Path(path)
    check_finite(path.name, curve, curvature, t)
    header = ["u", "x", "y", "nu_x", "nu_y"]
    columns = [curve.grid, curve.positions, curve.normals]
    if curvature is not None:
        header += ["beta", "ell"]
        columns += [curvature.beta, curvature.ell]
    if t is not None:
        header += ["t"]
        columns.append(np.full(curve.grid_size, float(t)))
    table = np.column_stack(columns)
    lines = [",".join(header)]
    lines += [",".join(map(repr, row)) for row in table.tolist()]
    path.write_text("\r\n".join(lines) + "\r\n", newline="")
    return path


def read_curve_csv(path):
    """Load a curve CSV; returns (LegendreCurve, extras dict).

    extras may hold 'beta', 'ell' arrays and 't' when those columns exist.
    Every cell must be a finite number; anything else raises ValidationError.
    """
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"{path}: unreadable curve CSV: {exc}") from None
    if not rows:
        raise ValidationError(f"{path}: empty curve CSV")
    header, rows = rows[0], rows[1:]
    required = ["u", "x", "y", "nu_x", "nu_y"]
    if header[: len(required)] != required:
        raise ValidationError(
            f"{path}: expected columns {required}, got {header[:5]}")
    for index, row in enumerate(rows):
        if len(row) != len(header):
            raise ValidationError(
                f"{path}: ragged row: sample {index} has {len(row)} cells, "
                f"the header {len(header)}")
    num = len(rows)
    if num < 3:
        raise ValidationError(f"{path}: need at least 3 samples, got {num}")
    try:
        table = np.array(rows, dtype=float)
    except ValueError as exc:
        raise ValidationError(f"{path}: non-numeric cell: {exc}") from None
    if not np.isfinite(table).all():
        row, col = np.argwhere(~np.isfinite(table))[0]
        raise ValidationError(
            f"{path}: non-finite {header[col]} in sample {row}: {rows[row][col]!r}")
    columns = dict(zip(header, table.T.copy()))  # contiguous column arrays
    if np.max(np.abs(columns["u"] - uniform_grid(num))) > 1e-9:
        raise ValidationError(f"{path}: u column is not the uniform periodic grid")
    curve = LegendreCurve(
        positions=np.stack([columns["x"], columns["y"]], axis=-1),
        normals=np.stack([columns["nu_x"], columns["nu_y"]], axis=-1),
    )
    extras = {name: columns[name] for name in ("beta", "ell") if name in columns}
    if "t" in columns:
        extras["t"] = float(columns["t"][0])
    return curve, extras


def render_svg(points, stroke="#1a1a8c", width=640):
    """Closed polyline through the sample points as a standalone SVG 1.1 document.

    viewBox is fitted with a 5% margin and the stroke width scales with the
    bounding box; output bytes are deterministic for fixed input.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2 or points.shape[0] < 3:
        raise ValidationError("need at least 3 planar sample points")
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    span = hi - lo
    if np.max(span) <= 0.0:
        raise ValidationError("degenerate bounding box: all samples coincide")
    margin = 0.05 * np.max(span)
    lo = lo - margin
    size = span + 2.0 * margin
    height = width * size[1] / size[0]
    if not np.isfinite([*size, height]).all():
        raise InvariantViolationError("SVG bounding box overflows a double, not written")
    stroke_width = 0.004 * float(np.max(size))
    # SVG y grows downward; flip the vertical axis
    top = lo[1] + size[1]
    flipped = lo[1] + (top - points[:, 1])
    coords = " ".join(map("{:.6f},{:.6f}".format, points[:, 0].tolist(), flipped.tolist()))
    height = int(round(height))
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="{lo[0]:.6f} {lo[1]:.6f} {size[0]:.6f} {size[1]:.6f}">\n'
        f'  <polygon points="{coords}" fill="none" stroke="{stroke}" '
        f'stroke-width="{stroke_width:.6f}" stroke-linejoin="round"/>\n'
        "</svg>\n"
    )


def sha256_of(path):
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def write_manifest(path, config, outputs, version):
    """Manifest JSON: the resolved config, library version, output checksums."""
    manifest = {
        "version": version,
        "config": config,
        "outputs": {str(Path(p).name): sha256_of(p) for p in outputs},
    }
    return write_json(path, manifest, sort_keys=True)
