"""CSV / SVG / JSON / manifest emission.

Curve sample exchange format, byte for byte: a header line
``u,x,y,nu_x,nu_y`` with optional ``beta,ell`` and ``t`` columns, then one
row per uniform grid point.  Fields are separated by a comma with no
padding, each value is the shortest string that round-trips the double
(Python's ``repr``, e.g. ``-0.0``, ``5e-324``, ``1e+308``), and every line,
the last included, ends in CR LF.  Numeric tables use the same format with
their own header.  JSON is compact.  Non-finite values are never written.
The reader parses with ``csv.reader`` and refuses ragged rows and
non-numeric, empty or non-finite cells.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .curves import LegendreCurvature, LegendreCurve, uniform_grid
from .errors import InvariantViolationError, ValidationError


class Table(NamedTuple):
    """A numeric CSV artifact: a header and rows (an array or lists of numbers)."""
    header: list
    rows: list


class CurveSamples(NamedTuple):
    """A curve CSV artifact: the samples, with curvature and time columns if given."""
    curve: LegendreCurve
    curvature: LegendreCurvature | None = None
    t: float | None = None

    def table(self):
        header = ["u", "x", "y", "nu_x", "nu_y"]
        columns = [self.curve.grid, self.curve.positions, self.curve.normals]
        if self.curvature is not None:
            header += ["beta", "ell"]
            columns += [self.curvature.beta, self.curvature.ell]
        if self.t is not None:
            header += ["t"]
            columns.append(np.full(self.curve.grid_size, float(self.t)))
        return Table(header, np.column_stack(columns))


def json_text(label, data, sort_keys=False):
    """Compact JSON document; refuses NaN and infinities."""
    try:
        return json.dumps(data, sort_keys=sort_keys, allow_nan=False) + "\n"
    except ValueError as exc:
        raise InvariantViolationError(f"{label}: non-finite value, not written") from exc


def write_json(path, data, sort_keys=False):
    path = Path(path)
    path.write_text(json_text(path.name, data, sort_keys))
    return path


def check_artifact(name, item):
    """Refuse an artifact that would hold NaN or an infinity.  A curve comes
    back as its Table, stacked once here, a JSON payload as its text, and a
    Table or a text as given: write_artifact writes what comes back with no
    second check.  An SVG text needs no check: render_svg refuses an
    overflowing extent."""
    if isinstance(item, str):
        return item
    if isinstance(item, CurveSamples):
        item = item.table()
    elif not isinstance(item, Table):
        return json_text(name, item)
    if not np.isfinite(np.asarray(item.rows, dtype=float)).all():
        raise InvariantViolationError(f"{name}: non-finite value, not written")
    return item


def _write_rows(path, header, rows):
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
    path.write_text("\r\n".join(lines) + "\r\n", newline="")
    return path


def write_table(path, header, rows):
    path = Path(path)
    return _write_rows(path, *check_artifact(path.name, Table(header, rows)))


def write_curve_csv(path, curve: LegendreCurve, curvature=None, t=None):
    return write_table(path, *CurveSamples(curve, curvature, t).table())


def write_artifact(path, item):
    """Write what check_artifact returned: a CSV table, or text."""
    path = Path(path)
    if isinstance(item, Table):
        return _write_rows(path, *item)
    path.write_text(item)
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
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
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
