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


def svg_scatter(path: str | Path, series: dict[str, np.ndarray]) -> None:
    """Render point clouds side by side, one panel per series.

    Panels share the marker scale; each panel's viewBox matches its own
    bounding box, padded by the marker radius, with aspect ratio preserved.
    """
    if not series:
        raise ValueError("no series to render")
    clouds = {name: _points(pts) for name, pts in series.items()}
    spans = {k: p.max(axis=0) - p.min(axis=0) for k, p in clouds.items()}
    unit = max(max(s[0], s[1]) for s in spans.values())
    rad = _MARKER_RADIUS * unit / 100.0
    panels = []
    x_cursor = 0.0
    height = 0.0
    for idx, (name, pts) in enumerate(clouds.items()):
        lo = pts.min(axis=0) - 2 * rad
        hi = pts.max(axis=0) + 2 * rad
        w, h = hi - lo
        color = _COLORS[idx % len(_COLORS)]
        dots = "".join(
            f'<circle cx="{x - lo[0] + x_cursor:.6g}" cy="{hi[1] - y:.6g}" r="{rad:.6g}"/>'
            for x, y in pts
        )
        panels.append(
            f'<g fill="{color}" fill-opacity="0.55">'
            f"<title>{name}</title>{dots}</g>"
        )
        x_cursor += w + 4 * rad
        height = max(height, float(h))
    total_w = x_cursor - 4 * rad
    scale = _WIDTH / total_w
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.6g}" '
        f'height="{height * scale:.6g}" viewBox="0 0 {total_w:.6g} {height:.6g}" '
        f'preserveAspectRatio="xMidYMid meet">{"".join(panels)}</svg>\n'
    )
    Path(path).write_text(svg, encoding="utf-8")


def svg_paths(path: str | Path, cloud: np.ndarray, polylines: dict[str, np.ndarray]) -> None:
    """One panel: a point cloud with highlighted polylines over it."""
    cloud = _points(cloud)
    span = cloud.max(axis=0) - cloud.min(axis=0)
    rad = max(span[0], span[1]) / 400.0
    lo = cloud.min(axis=0) - 2 * rad
    hi = cloud.max(axis=0) + 2 * rad
    w, h = hi - lo
    dots = "".join(
        f'<circle cx="{x - lo[0]:.6g}" cy="{hi[1] - y:.6g}" r="{rad:.6g}"/>' for x, y in cloud
    )
    lines = []
    for idx, (name, poly) in enumerate(polylines.items()):
        poly = np.atleast_2d(np.asarray(poly, dtype=np.float64))[:, :2]
        pts_attr = " ".join(f"{x - lo[0]:.6g},{hi[1] - y:.6g}" for x, y in poly)
        color = _COLORS[(idx + 1) % len(_COLORS)]
        lines.append(
            f'<polyline points="{pts_attr}" fill="none" stroke="{color}" '
            f'stroke-width="{2 * rad:.6g}"><title>{name}</title></polyline>'
        )
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.6g}" '
        f'height="{_WIDTH * h / w:.6g}" viewBox="0 0 {w:.6g} {h:.6g}" '
        f'preserveAspectRatio="xMidYMid meet">'
        f'<g fill="#888888" fill-opacity="0.45">{dots}</g>{"".join(lines)}</svg>\n'
    )
    Path(path).write_text(svg, encoding="utf-8")


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
