"""Deterministic emitters: CSV cell rendering and streaming, JSON rendering,
and the one write path that both take."""
import csv
import hashlib

import numpy as np
import pytest

from thinlayer.reports import HASH_BLOCK, file_sha256, write_csv, write_json


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


def test_write_json_renders_sorted_utf8_with_native_floats(tmp_path):
    # tuples encode as lists, and a numpy float64 is a float: json needs no
    # converter for either
    obj = {"zeta": (1, (2.5, "x")), "alpha": "Grüße ε", "mid": np.float64(0.1) * 3}
    path = write_json(tmp_path / "t.json", obj)
    assert path == tmp_path / "t.json"
    assert path.read_bytes() == (
        b'{\n  "alpha": "Gr\xc3\xbc\xc3\x9fe \xce\xb5",\n  "mid": 0.30000000000000004,\n'
        b'  "zeta": [\n    1,\n    [\n      2.5,\n      "x"\n    ]\n  ]\n}\n'
    )


@pytest.mark.parametrize("writer", ["csv", "json"])
def test_a_failed_write_leaves_an_existing_file_as_it_was(tmp_path, full_disk, writer):
    path = tmp_path / "t"
    path.write_bytes(b"earlier run\n")
    with pytest.raises(OSError, match="No space left"):
        if writer == "csv":
            write_csv(path, ["a"], [(1,)])
        else:
            write_json(path, {"a": 1})
    assert path.read_bytes() == b"earlier run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t"]


@pytest.mark.parametrize("size", [0, HASH_BLOCK, 3 * HASH_BLOCK + 1])
def test_file_sha256_matches_the_whole_file_digest(tmp_path, size):
    path = tmp_path / "blob"
    path.write_bytes(np.random.default_rng(size).bytes(size))
    assert file_sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()
