"""Deterministic emitters: CSV cell rendering and streaming."""
import numpy as np

from thinlayer.reports import write_csv


def test_write_csv_streams_rows_in_header_order(tmp_path):
    rows = (
        r
        for r in [
            (1, 0.1, None, True, "x"),
            (np.int64(-3), np.float64(1e-20), "", False, np.float64(2.0)),
        ]
    )
    path = write_csv(tmp_path / "t.csv", ["a", "b", "c", "d", "e"], rows)
    assert path == tmp_path / "t.csv"
    assert path.read_bytes() == b"a,b,c,d,e\n1,0.1,,true,x\n-3,1e-20,,false,2.0\n"


def test_write_csv_without_rows_is_header_only(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["t", "mass"], iter(()))
    assert path.read_bytes() == b"t,mass\n"
