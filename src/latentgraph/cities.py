"""City-coordinate ingestion.

Rows of (name, latitude, longitude) become a planar point configuration:
coordinates are used directly as (lng, lat) in degrees, no projection, with
the bounding box of the subsample recorded as the domain.  The box is only
approximately convex territory, which the hop-distance method tolerates.
"""

from __future__ import annotations

import csv
import logging
from pathlib import Path

import numpy as np

from .geometry import Box, PointConfig

__all__ = ["ingest_cities"]

log = logging.getLogger(__name__)


def ingest_cities(
    path: str | Path,
    n_sub: int,
    seed: int,
    lat_col: str = "lat",
    lng_col: str = "lng",
) -> PointConfig:
    """Subsample ``n_sub`` rows without replacement from a city CSV.

    Malformed rows (unparsable numbers, latitude outside [-90, 90] or
    longitude outside [-180, 180]) are rejected with a logged diagnostic
    carrying their line number.  Raises when the file lacks the coordinate
    columns, when ``n_sub < 3`` (checked before any row is read), or when
    the file has fewer valid rows than ``n_sub``.
    """
    path = Path(path)
    coords: list[tuple[float, float]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {lat_col, lng_col} <= set(reader.fieldnames):
            raise ValueError(f"{path}: need columns {lat_col!r} and {lng_col!r}")
        if n_sub < 3:  # a point configuration has at least 3 points
            raise ValueError(f"need n_sub >= 3 rows, got n_sub={n_sub}")
        for row in reader:
            line = reader.line_num
            try:
                lat = float(row[lat_col])
                lng = float(row[lng_col])
            except (TypeError, ValueError):
                log.warning("%s line %d: unparsable coordinates, row rejected", path, line)
                continue
            if not -90.0 <= lat <= 90.0:
                log.warning("%s line %d: latitude %s outside [-90, 90], row rejected",
                            path, line, lat)
                continue
            if not -180.0 <= lng <= 180.0:
                log.warning("%s line %d: longitude %s outside [-180, 180], row rejected",
                            path, line, lng)
                continue
            coords.append((lng, lat))
    if n_sub > len(coords):
        raise ValueError(f"{path}: asked for {n_sub} rows but only {len(coords)} are valid")
    rng = np.random.default_rng(seed)
    pick = rng.choice(len(coords), size=n_sub, replace=False)
    pts = np.asarray(coords, dtype=np.float64)[np.sort(pick)]
    domain = Box(pts.min(axis=0), pts.max(axis=0))
    return PointConfig(pts, domain)
