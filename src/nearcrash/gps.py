"""GPS fix ingestion, raw-to-WGS84 conversion, trajectory sampling, speeds.

The receiver used in the field emits coordinates related to WGS84 by a
fixed affine map, `GpsAffine`, declared with the config's GPS section;
its defaults match that device. Other receivers can supply their own
scale/offset pairs: the config's `gps` section is such a map.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO, Any, Iterable, List, Sequence, Tuple

from .config import GpsAffine, GpsParams, finite_number

EARTH_RADIUS_M = 6_371_000.0


class InvalidFixError(ValueError):
    """Conversion produced coordinates outside the valid WGS84 ranges."""


DEFAULT_AFFINE = GpsAffine()


def convert_raw_to_wgs84(
    lat_raw: float, lon_raw: float, affine: GpsAffine = DEFAULT_AFFINE
) -> Tuple[float, float]:
    """Apply the affine map; raises InvalidFixError on out-of-range results."""
    lat = affine.lat_scale * lat_raw + affine.lat_offset
    lon = affine.lon_scale * lon_raw + affine.lon_offset
    if not (math.isfinite(lat) and math.isfinite(lon)):
        raise InvalidFixError(f"non-finite conversion of ({lat_raw}, {lon_raw})")
    if not (-90.0 <= lat <= 90.0) or not (-180.0 <= lon <= 180.0):
        raise InvalidFixError(
            f"converted fix ({lat}, {lon}) outside WGS84 bounds"
        )
    return lat, lon


@dataclass(frozen=True)
class GpsFix:
    """A fix in WGS84 degrees at time t, seconds."""

    t: float
    lat: float
    lon: float

    @staticmethod
    def from_raw(
        t: float, lat_raw: float, lon_raw: float, affine: GpsAffine = DEFAULT_AFFINE
    ) -> "GpsFix":
        if not math.isfinite(t):
            raise InvalidFixError(f"non-finite fix time {t}")
        return GpsFix(t, *convert_raw_to_wgs84(lat_raw, lon_raw, affine))


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in meters on a spherical Earth."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.asin(math.sqrt(a))


def speed_between(a: GpsFix, b: GpsFix) -> float:
    """Mean speed in m/s between two fixes; requires b.t > a.t."""
    if b.t <= a.t:
        raise ValueError(f"fix timestamps must increase: {a.t} -> {b.t}")
    dist = haversine_m(a.lat, a.lon, b.lat, b.lon)
    return dist / (b.t - a.t)


def sample_trajectory(
    fixes: Iterable[GpsFix], period: float = GpsParams.sample_period
) -> List[GpsFix]:
    """Keep the first fix, then the next fix at least `period` seconds later."""
    if not 0 < period < math.inf:  # NaN fails both comparisons
        raise ValueError("period must be > 0")
    kept: List[GpsFix] = []
    for fix in fixes:
        if not kept or fix.t >= kept[-1].t + period:
            kept.append(fix)
    return kept


def read_fix_csv(
    fp: IO[str], affine: GpsAffine = DEFAULT_AFFINE
) -> Tuple[List[GpsFix], List[str]]:
    """Read a `t,lat_raw,lon_raw` CSV; returns (fixes in time order, row warnings).

    A row that does not parse, or whose time or position is not finite or
    out of range, is skipped. A row whose time is earlier than an earlier
    row's is kept and sorted into place. Both get a warning naming the row.
    """
    fixes: List[GpsFix] = []
    warnings: List[str] = []
    latest = -math.inf
    reader = csv.DictReader(fp)
    for lineno, row in enumerate(reader, start=2):
        try:
            fix = GpsFix.from_raw(
                float(row["t"]), float(row["lat_raw"]), float(row["lon_raw"]), affine
            )
        except (KeyError, TypeError, ValueError) as exc:
            warnings.append(f"row {lineno}: skipped ({exc})")
            continue
        if fix.t < latest:
            warnings.append(
                f"row {lineno}: t={fix.t} is before t={latest} of an earlier row; "
                "sorted into place"
            )
        latest = max(latest, fix.t)
        fixes.append(fix)
    return sorted(fixes, key=lambda f: f.t), warnings


def write_trajectory_csv(fixes: Sequence[GpsFix], fp: IO[str]) -> None:
    """Columns t,lat,lon,speed_mps; the speed since the previous fix, none on the first row."""
    writer = csv.writer(fp)
    writer.writerow(["t", "lat", "lon", "speed_mps"])
    for i, fix in enumerate(fixes):
        speed = speed_between(fixes[i - 1], fix) if i else ""
        writer.writerow([fix.t, fix.lat, fix.lon, speed])


def trajectory_geojson(fixes: Sequence[GpsFix]) -> dict:
    features = []
    if fixes:
        features.append(
            {
                "type": "Feature",
                "geometry": {
                    "type": "LineString",
                    # GeoJSON orders coordinates [lon, lat]
                    "coordinates": [[f.lon, f.lat] for f in fixes],
                },
                "properties": {
                    "t_start": fixes[0].t,
                    "t_end": fixes[-1].t,
                    "n_fixes": len(fixes),
                },
            }
        )
    return {"type": "FeatureCollection", "features": features}


def events_geojson(events: Any) -> dict:
    """Map overlay of the logged events that carry a GPS fix; a malformed entry raises ValueError."""
    if not isinstance(events, list):
        raise ValueError("expected a JSON array of events")
    features = []
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"event {i}: expected an object")
        gps = ev.get("gps")
        if gps is None:
            continue
        if not isinstance(gps, dict):
            raise ValueError(f"event {i}: gps: expected an object or null")
        for key in ("lat", "lon"):
            finite_number(gps.get(key), f"event {i}: gps.{key}")
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [gps["lon"], gps["lat"]]},
                "properties": {
                    "event_id": ev.get("event_id"),
                    "event_type": ev.get("event_type"),
                    "trigger_time": ev.get("trigger_time"),
                    "ttc_h": ev.get("ttc_h"),
                },
            }
        )
    return {"type": "FeatureCollection", "features": features}
