"""Scatter plot emission: plain CSV series and dependency-free SVG.

The SVG keeps a fixed aspect ratio (one latent unit is the same length on
both axes) so recovered shapes are comparable to the truth by eye.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .fileio import read_manifest, read_points_csv, write_csv

__all__ = ["emit_plotdata", "svg_paths", "svg_scatter", "write_scatter_csv"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
_WIDTH = 640.0  # rendered SVG width in pixels
# scatter marker radius, in percent of the largest extent of any series
_MARKER_RADIUS = 0.25


def write_scatter_csv(path: str | Path, series: dict[str, np.ndarray]) -> None:
    """Stacked 2-d scatter series as ``series,x,y`` rows."""
    clouds = {name: _points(pts) for name, pts in series.items()}
    write_csv(path, "series,x,y",
              ([name, x, y] for name, pts in clouds.items() for x, y in pts.tolist()))


def _points(pts) -> np.ndarray:
    """The first two coordinates of a non-empty n-by-2 or wider array, as float64."""
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    if pts.size == 0:
        raise ValueError("empty point set")
    if pts.ndim != 2 or pts.shape[1] < 2:
        raise ValueError("need an n-by-2 coordinate array")
    return pts[:, :2]


def _radius(clouds) -> float:
    """Marker radius shared by the panels of ``clouds``."""
    unit = max(max(s[0], s[1]) for s in (p.max(axis=0) - p.min(axis=0) for p in clouds))
    return _MARKER_RADIUS * unit / 100.0


def _panel(pts: np.ndarray, rad: float, x0: float) -> tuple[str, np.ndarray, np.ndarray]:
    """Circles of radius ``rad`` at ``pts``, in a panel padded by two radii that
    starts at ``x0``; returns the circles and the panel's lower and upper
    corners in data coordinates."""
    lo = pts.min(axis=0) - 2 * rad
    hi = pts.max(axis=0) + 2 * rad
    dots = "".join(
        f'<circle cx="{x - lo[0] + x0:.6g}" cy="{hi[1] - y:.6g}" r="{rad:.6g}"/>' for x, y in pts
    )
    return dots, lo, hi


def _write_svg(path: str | Path, height: float, w: float, h: float, body: str) -> None:
    """An SVG ``_WIDTH`` pixels wide and ``height`` high, of viewBox ``w`` by ``h``."""
    Path(path).write_text(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.6g}" '
        f'height="{height:.6g}" viewBox="0 0 {w:.6g} {h:.6g}" '
        f'preserveAspectRatio="xMidYMid meet">{body}</svg>\n', encoding="utf-8")


def svg_scatter(path: str | Path, series: dict[str, np.ndarray]) -> None:
    """Render point clouds side by side, one panel per series.

    Panels share the marker scale; each panel's viewBox matches its own
    bounding box, padded by the marker radius, with aspect ratio preserved.
    """
    if not series:
        raise ValueError("no series to render")
    clouds = {name: _points(pts) for name, pts in series.items()}
    rad = _radius(clouds.values())
    panels = []
    x_cursor = 0.0
    height = 0.0
    for idx, (name, pts) in enumerate(clouds.items()):
        dots, lo, hi = _panel(pts, rad, x_cursor)
        w, h = hi - lo
        color = _COLORS[idx % len(_COLORS)]
        panels.append(
            f'<g fill="{color}" fill-opacity="0.55">'
            f"<title>{name}</title>{dots}</g>"
        )
        x_cursor += w + 4 * rad
        height = max(height, float(h))
    total_w = x_cursor - 4 * rad
    _write_svg(path, height * (_WIDTH / total_w), total_w, height, "".join(panels))


def svg_paths(path: str | Path, cloud: np.ndarray, polylines: dict[str, np.ndarray]) -> None:
    """One panel: a point cloud with highlighted polylines over it."""
    cloud = _points(cloud)
    rad = _radius([cloud])
    dots, lo, hi = _panel(cloud, rad, 0.0)
    w, h = hi - lo
    lines = []
    for idx, (name, poly) in enumerate(polylines.items()):
        poly = np.atleast_2d(np.asarray(poly, dtype=np.float64))[:, :2]
        pts_attr = " ".join(f"{x - lo[0]:.6g},{hi[1] - y:.6g}" for x, y in poly)
        color = _COLORS[(idx + 1) % len(_COLORS)]
        lines.append(
            f'<polyline points="{pts_attr}" fill="none" stroke="{color}" '
            f'stroke-width="{2 * rad:.6g}"><title>{name}</title></polyline>'
        )
    _write_svg(path, _WIDTH * h / w, w, h,
               f'<g fill="#888888" fill-opacity="0.45">{dots}</g>{"".join(lines)}')


def emit_plotdata(result_dir: str | Path) -> list[Path]:
    """Turn a preset's result directory into scatter CSV and SVG files.

    Reads the manifest, groups the point files it references (keys ending in
    ``points_file``) by variant, and writes one side-by-side truth/recovered
    SVG plus a combined scatter CSV per group.  Returns the files written.
    """
    result_dir = Path(result_dir)
    manifest_path = result_dir / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"missing manifest: {manifest_path}")
    manifest = read_manifest(manifest_path)
    groups: dict[str, dict[str, np.ndarray]] = {}
    truth = None
    for key, value in sorted(manifest.items()):
        if not key.endswith("points_file"):
            continue
        pts = read_points_csv(result_dir / str(value))
        if pts.shape[1] < 2:
            pts = np.column_stack([pts[:, 0], np.zeros(len(pts))])
        if key == "truth.points_file":
            truth = pts
            continue
        group = key.rsplit(".", 2)[0]  # "<tag>.<kind>.points_file" groups by tag
        groups.setdefault(group, {})[Path(str(value)).stem] = pts
    if truth is not None and not groups:
        groups["truth"] = {}  # a result with no recovered points still plots its truth
    written = []
    for group, series in groups.items():
        if truth is not None:
            series = {"truth": truth, **series}
        base = result_dir / group.replace(".", "_")
        write_scatter_csv(base.with_suffix(".scatter.csv"), series)
        svg_scatter(base.with_suffix(".svg"), series)
        written.extend([base.with_suffix(".scatter.csv"), base.with_suffix(".svg")])
    if not written:
        raise ValueError(f"{manifest_path}: no point files referenced")
    return written
