"""Deterministic emitters: CSV cell rendering and streaming."""
import csv
import hashlib

import numpy as np
import pytest

from thinlayer.reports import HASH_BLOCK, file_sha256, write_csv


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


def test_write_csv_quotes_cells_with_separators(tmp_path):
    cells = ("a, b", 'say "hi"', "two\nlines", "plain")
    path = write_csv(tmp_path / "t.csv", ["w", "x", "y", "z"], [cells])
    assert path.read_bytes() == b'w,x,y,z\n"a, b","say ""hi""","two\nlines",plain\n'
    with open(path, newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh))[1] == list(cells)


def test_write_csv_without_rows_is_header_only(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["t", "mass"], iter(()))
    assert path.read_bytes() == b"t,mass\n"


def test_failed_rows_leave_an_existing_file_as_it_was(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["a"], [(1,), (2,)])
    before = path.read_bytes()

    def rows():
        yield (3,)
        raise ValueError("the producer failed partway")

    with pytest.raises(ValueError, match="partway"):
        write_csv(path, ["a"], rows())
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


@pytest.mark.parametrize("size", [0, HASH_BLOCK, 3 * HASH_BLOCK + 1])
def test_file_sha256_matches_the_whole_file_digest(tmp_path, size):
    path = tmp_path / "blob"
    path.write_bytes(np.random.default_rng(size).bytes(size))
    assert file_sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()
