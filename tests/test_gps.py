"""GPS conversion, trajectory sampling, and speed tests."""

import io
import math

import pytest
from hypothesis import given, strategies as st

from nearcrash.gps import (
    EARTH_RADIUS_M,
    DEFAULT_AFFINE,
    GpsAffine,
    GpsFix,
    InvalidFixError,
    convert_raw_to_wgs84,
    events_geojson,
    haversine_m,
    read_fix_csv,
    sample_trajectory,
    speed_between,
    trajectory_geojson,
    write_trajectory_csv,
)

# raw ranges that keep the default affine map inside WGS84 bounds
raw_lats = st.floats(-35.0, 70.0)
raw_lons = st.floats(-155.0, 55.0)


def fix(t, lat, lon):
    return GpsFix(t=t, lat=lat, lon=lon)


class TestConversion:
    def test_zero_input_gives_offsets(self):
        assert convert_raw_to_wgs84(0.0, 0.0) == (-31.30174, 81.25186)

    def test_latitude_zero_crossing(self):
        lat_raw = 31.30174 / 1.666
        lat, _ = convert_raw_to_wgs84(lat_raw, 0.0)
        assert lat == pytest.approx(0.0, abs=1e-9)

    @given(raw_lats, raw_lons, raw_lats, raw_lons)
    def test_affine_superposition(self, lat_a, lon_a, lat_b, lon_b):
        a = convert_raw_to_wgs84(lat_a, lon_a)
        b = convert_raw_to_wgs84(lat_b, lon_b)
        assert a[0] - b[0] == pytest.approx(1.666 * (lat_a - lat_b), abs=1e-12)
        assert a[1] - b[1] == pytest.approx(1.666 * (lon_a - lon_b), abs=1e-12)

    @given(raw_lats, raw_lons)
    def test_roundtrip_through_inverse(self, lat_raw, lon_raw):
        lat, lon = convert_raw_to_wgs84(lat_raw, lon_raw)
        inverse = DEFAULT_AFFINE.invert()
        back_lat = inverse.lat_scale * lat + inverse.lat_offset
        back_lon = inverse.lon_scale * lon + inverse.lon_offset
        assert back_lat == pytest.approx(lat_raw, abs=1e-9)
        assert back_lon == pytest.approx(lon_raw, abs=1e-9)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidFixError):
            convert_raw_to_wgs84(100.0, 0.0)
        with pytest.raises(InvalidFixError):
            convert_raw_to_wgs84(0.0, 100.0)

    def test_custom_affine(self):
        ident = GpsAffine(lat_scale=1.0, lat_offset=0.0, lon_scale=1.0, lon_offset=0.0)
        assert convert_raw_to_wgs84(12.5, -30.0, ident) == (12.5, -30.0)


class TestSampling:
    def test_keeps_every_third_fix_at_period_three(self):
        fixes = [fix(float(k), 10.0, 10.0) for k in range(10)]
        log = sample_trajectory(fixes, period=3.0)
        assert [f.t for f in log] == [0.0, 3.0, 6.0, 9.0]

    def test_single_fix(self):
        log = sample_trajectory([fix(1.0, 10.0, 10.0)], period=3.0)
        assert len(log) == 1

    def test_gap_emits_next_fix_immediately(self):
        fixes = [fix(0.0, 10.0, 10.0), fix(1.0, 10.0, 10.0), fix(11.0, 10.0, 10.0)]
        log = sample_trajectory(fixes, period=3.0)
        assert [f.t for f in log] == [0.0, 11.0]

    def test_period_must_be_positive(self):
        # a NaN period would keep only the first fix
        for period in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="period must be > 0"):
                sample_trajectory([fix(0.0, 10.0, 10.0), fix(3.0, 10.0, 10.0)], period=period)


class TestSpeed:
    def test_identical_coordinates(self):
        assert speed_between(fix(0.0, 47.6, -122.3), fix(3.0, 47.6, -122.3)) == 0.0

    def test_one_degree_of_latitude(self):
        # oracle: arc length R * dphi = 111195 m over 3600 s
        v = speed_between(fix(0.0, 10.0, 20.0), fix(3600.0, 11.0, 20.0))
        arc = EARTH_RADIUS_M * math.radians(1.0) / 3600.0
        assert v == pytest.approx(arc, rel=1e-9)
        assert v == pytest.approx(111195.0 / 3600.0, rel=0.005)

    def test_halving_dt_doubles_speed(self):
        a, b3 = fix(0.0, 47.0, -122.0), fix(3.0, 47.001, -122.001)
        b15 = fix(1.5, 47.001, -122.001)
        assert speed_between(a, b15) == pytest.approx(2 * speed_between(a, b3), rel=1e-12)

    def test_time_order_enforced(self):
        with pytest.raises(ValueError):
            speed_between(fix(3.0, 47.0, -122.0), fix(3.0, 47.1, -122.0))

    def test_symmetric_under_coordinate_exchange(self):
        v1 = speed_between(fix(0.0, 47.0, -122.0), fix(5.0, 47.2, -122.4))
        v2 = speed_between(fix(0.0, 47.2, -122.4), fix(5.0, 47.0, -122.0))
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_trajectory_speeds_count(self):
        fixes = [fix(0.0, 10.0, 10.0), fix(3.0, 10.01, 10.0), fix(6.0, 10.02, 10.0)]
        out = io.StringIO()
        write_trajectory_csv(sample_trajectory(fixes, period=3.0), out)
        rows = out.getvalue().splitlines()[1:]
        assert sum(row.rsplit(",", 1)[1] != "" for row in rows) == 2


class TestIo:
    def test_read_csv_with_bad_rows(self):
        csv_text = "t,lat_raw,lon_raw\n0,10,10\nbad,row,here\n3,10.1,10\n6,oops,10\n"
        fixes, warnings = read_fix_csv(io.StringIO(csv_text))
        assert len(fixes) == 2
        assert len(warnings) == 2
        assert "row 3" in warnings[0]

    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    def test_non_finite_time_skipped_with_row_number(self, t):
        csv_text = f"t,lat_raw,lon_raw\n0,10,10\n{t},10,10\n3,10.1,10\n"
        fixes, warnings = read_fix_csv(io.StringIO(csv_text))
        assert [f.t for f in fixes] == [0.0, 3.0]
        assert len(warnings) == 1 and warnings[0].startswith("row 3: skipped")

    def test_non_finite_position_skipped_with_row_number(self):
        csv_text = "t,lat_raw,lon_raw\n0,10,10\n1,inf,10\n3,10.1,10\n"
        fixes, warnings = read_fix_csv(io.StringIO(csv_text))
        assert [f.t for f in fixes] == [0.0, 3.0]
        assert len(warnings) == 1 and warnings[0].startswith("row 3: skipped (non-finite")

    def test_out_of_order_rows_sorted_and_each_warned(self):
        csv_text = "t,lat_raw,lon_raw\n5,10,10\n3,10,10\n4,10,10\n6,10,10\n"
        fixes, warnings = read_fix_csv(io.StringIO(csv_text))
        assert [f.t for f in fixes] == [3.0, 4.0, 5.0, 6.0]
        assert [w.split(":")[0] for w in warnings] == ["row 3", "row 4"]

    def test_write_trajectory_csv_one_speed_for_two_fixes(self):
        fixes = [fix(0.0, 10.0, 10.0), fix(3.0, 10.001, 10.0)]
        log = sample_trajectory(fixes, period=3.0)
        out = io.StringIO()
        write_trajectory_csv(log, out)
        lines = out.getvalue().strip().splitlines()
        assert lines[0] == "t,lat,lon,speed_mps"
        assert len(lines) == 3
        assert lines[1].endswith(",")  # first row carries no speed
        assert float(lines[2].rsplit(",", 1)[1]) > 0

    def test_trajectory_geojson_linestring(self):
        fixes = [fix(0.0, 10.0, 20.0), fix(3.0, 10.1, 20.1)]
        geo = trajectory_geojson(sample_trajectory(fixes, period=3.0))
        assert geo["type"] == "FeatureCollection"
        line = geo["features"][0]["geometry"]
        assert line["type"] == "LineString"
        assert line["coordinates"][0] == [20.0, 10.0]  # lon first

    def test_empty_trajectory_geojson(self):
        geo = trajectory_geojson(sample_trajectory([], period=3.0))
        assert geo == {"type": "FeatureCollection", "features": []}

    def test_events_geojson_skips_missing_gps(self):
        events = [
            {"event_id": 1, "gps": {"lat": 10.0, "lon": 20.0}, "trigger_time": 5.0},
            {"event_id": 2, "gps": None, "trigger_time": 9.0},
        ]
        geo = events_geojson(events)
        assert len(geo["features"]) == 1
        assert geo["features"][0]["geometry"]["coordinates"] == [20.0, 10.0]


class TestHaversine:
    def test_quarter_meridian(self):
        # pole to equator along a meridian is a quarter circumference
        d = haversine_m(0.0, 0.0, 90.0, 0.0)
        assert d == pytest.approx(math.pi * EARTH_RADIUS_M / 2, rel=1e-12)

    def test_small_displacement_matches_planar(self):
        lat = 45.0
        dlat = 0.001
        d = haversine_m(lat, 7.0, lat + dlat, 7.0)
        assert d == pytest.approx(EARTH_RADIUS_M * math.radians(dlat), rel=1e-6)
