import logging

import numpy as np
import pytest

from latentgraph import ingest_cities


def write_csv(tmp_path, rows, header="name,lat,lng"):
    path = tmp_path / "cities.csv"
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


class TestIngestCities:
    def test_deterministic_subsample(self, tmp_path):
        rows = [f"c{i},{30 + i},{-100 + i}" for i in range(5)]
        path = write_csv(tmp_path, rows)
        a = ingest_cities(path, 3, seed=1)
        b = ingest_cities(path, 3, seed=1)
        assert np.array_equal(a.points, b.points)
        assert a.n == 3
        # coordinates are (lng, lat)
        assert np.all(a.points[:, 0] < 0) and np.all(a.points[:, 1] > 0)

    def test_bad_latitude_rejected_with_line_number(self, tmp_path, caplog):
        rows = ["a,95,-100", "b,30,-100", "c,31,-101", "d,32,-102"]
        path = write_csv(tmp_path, rows)
        with caplog.at_level(logging.WARNING):
            cfg = ingest_cities(path, 3, seed=0)
        assert cfg.n == 3
        assert any("line 2" in rec.getMessage() for rec in caplog.records)

    def test_unparsable_row_rejected(self, tmp_path, caplog):
        rows = ["a,notanumber,-100", "b,30,-100", "c,31,-101", "d,32,-102"]
        path = write_csv(tmp_path, rows)
        with caplog.at_level(logging.WARNING):
            cfg = ingest_cities(path, 3, seed=0)
        assert cfg.n == 3
        assert any("unparsable" in rec.getMessage() for rec in caplog.records)

    def test_subsample_too_large(self, tmp_path):
        rows = ["a,30,-100", "b,31,-101", "c,32,-102"]
        path = write_csv(tmp_path, rows)
        with pytest.raises(ValueError, match="only 3"):
            ingest_cities(path, 4, seed=0)

    def test_out_of_range_longitude_rejected_with_line_number(self, tmp_path, caplog):
        rows = ["a,30,200", "b,30,-100", "c,31,-101", "d,32,-102"]
        path = write_csv(tmp_path, rows)
        with caplog.at_level(logging.WARNING):
            cfg = ingest_cities(path, 3, seed=0)
        assert cfg.n == 3
        assert any("line 2: longitude 200.0" in rec.getMessage() for rec in caplog.records)

    @pytest.mark.parametrize("n_sub", [-1, 0, 1, 2])
    def test_subsample_below_three_rejected(self, tmp_path, n_sub):
        path = write_csv(tmp_path, [f"c{i},{30 + i},{-100 + i}" for i in range(5)])
        with pytest.raises(ValueError, match=f"need n_sub >= 3 rows, got n_sub={n_sub}"):
            ingest_cities(path, n_sub, seed=0)

    def test_missing_columns(self, tmp_path):
        path = write_csv(tmp_path, ["a,1,2"], header="name,latitude,longitude")
        with pytest.raises(ValueError, match="need columns"):
            ingest_cities(path, 1, seed=0)

    def test_configurable_column_names(self, tmp_path):
        rows = ["a,30,-100", "b,31,-101", "c,32,-102"]
        path = write_csv(tmp_path, rows, header="name,la,lo")
        cfg = ingest_cities(path, 3, seed=0, lat_col="la", lng_col="lo")
        assert cfg.n == 3

    def test_domain_is_bounding_box(self, tmp_path, cities_csv):
        cfg = ingest_cities(cities_csv, 100, seed=2)
        assert cfg.domain.contains(cfg.points).all()
        lo, hi = cfg.domain.lo, cfg.domain.hi
        assert np.allclose(lo, cfg.points.min(axis=0))
        assert np.allclose(hi, cfg.points.max(axis=0))
